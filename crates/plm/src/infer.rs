//! The tape-free inference forward: embed → blocks → `ln_final` → heads.
//!
//! Every no-gradient entry point of [`MiniPlm`] runs through [`encode`]
//! and the head functions here. The weights come from one
//! [`PackedWeights`] snapshot taken from the model's `ParamStore` at its
//! current weight generation, and the activations live in per-thread
//! scratch that is reused across calls. Per-op arithmetic comes from the
//! functions the training tape itself calls (`structmine_nn::ops` and
//! [`Matrix::gemm`]), so at the Exact tier the hidden states equal the
//! recording path (`BoundPlm::encode_with_binding`) bit for bit.
//!
//! A sequence has at most `max_len` rows, below `gemm`'s parallel
//! threshold, so every product here runs serially; parallelism lives one
//! level up, across documents.

use crate::model::MiniPlm;
use std::cell::RefCell;
use structmine_linalg::{fastmath, stats, ExecPolicy, Matrix, PackedMatrix, Precision, Rhs};
use structmine_nn::ops;
use structmine_nn::params::ParamStore;
use structmine_text::vocab::TokenId;

/// Every weight the forward pass multiplies by, packed once for
/// [`Rhs::Packed`] at one weight generation of the model's store. Biases
/// and LayerNorm parameters are read from the store directly.
pub(crate) struct PackedWeights {
    /// The store generation the panels were packed from.
    pub(crate) generation: u64,
    blocks: Vec<PackedBlock>,
    /// The token table packed transposed: the tied MLM output projection.
    tok_t: PackedMatrix,
    rtd: PackedMatrix,
    nli: PackedMatrix,
}

struct PackedBlock {
    /// The per-head q/k/v weights concatenated column-wise into one
    /// `d_model x 3*d_model` weight (head-major `[q_h | k_h | v_h]`), so
    /// one wide product replaces `3 * n_heads` narrow ones. Each fused
    /// output element is the same ascending-`k` dot product a per-head
    /// product computes, so the results are bitwise identical.
    qkv: PackedMatrix,
    qkv_bias: Vec<f32>,
    wo: PackedMatrix,
    ff1: PackedMatrix,
    ff2: PackedMatrix,
}

impl PackedWeights {
    /// Pack every weight of `model` at its store's current generation.
    pub(crate) fn build(model: &MiniPlm) -> Self {
        let store = model.store();
        let pack =
            |lin: &structmine_nn::layers::Linear| PackedMatrix::pack(store.value(lin.weight()));
        let blocks = model
            .blocks
            .iter()
            .map(|block| {
                let d_in = store.value(block.heads[0].0.weight()).rows();
                let dh = model.config.d_head();
                let total = block.heads.len() * 3 * dh;
                let mut w = Matrix::zeros(d_in, total);
                let mut qkv_bias = vec![0.0; total];
                for (h, (wq, wk, wv)) in block.heads.iter().enumerate() {
                    for (slot, lin) in [wq, wk, wv].into_iter().enumerate() {
                        let off = (h * 3 + slot) * dh;
                        let src = store.value(lin.weight());
                        for r in 0..d_in {
                            w.row_mut(r)[off..off + dh].copy_from_slice(src.row(r));
                        }
                        qkv_bias[off..off + dh].copy_from_slice(store.value(lin.bias()).row(0));
                    }
                }
                PackedBlock {
                    qkv: PackedMatrix::pack(&w),
                    qkv_bias,
                    wo: pack(&block.wo),
                    ff1: pack(&block.ff1),
                    ff2: pack(&block.ff2),
                }
            })
            .collect();
        PackedWeights {
            generation: store.generation(),
            blocks,
            tok_t: PackedMatrix::pack_transposed(store.value(model.tok.table())),
            rtd: pack(&model.rtd),
            nli: pack(&model.nli),
        }
    }

    /// Number of packed matrices in the snapshot.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len() * 4 + 3
    }
}

/// Activation buffers of one forward pass, kept per thread so a serving
/// thread stops allocating after its first document.
struct Scratch {
    normed: Matrix,
    xhat: Vec<f32>,
    qkv: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    scores: Matrix,
    head: Matrix,
    ctx: Matrix,
    proj: Matrix,
    ff: Matrix,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        normed: Matrix::zeros(0, 0),
        xhat: Vec::new(),
        qkv: Matrix::zeros(0, 0),
        q: Matrix::zeros(0, 0),
        k: Matrix::zeros(0, 0),
        v: Matrix::zeros(0, 0),
        scores: Matrix::zeros(0, 0),
        head: Matrix::zeros(0, 0),
        ctx: Matrix::zeros(0, 0),
        proj: Matrix::zeros(0, 0),
        ff: Matrix::zeros(0, 0),
    });
}

/// `m` reshaped to `rows x cols`, reusing its storage. The contents are
/// unspecified: every caller overwrites the whole matrix.
fn reshape(m: &mut Matrix, rows: usize, cols: usize) -> &mut Matrix {
    if m.shape() != (rows, cols) {
        let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
        data.resize(rows * cols, 0.0);
        *m = Matrix::from_vec(rows, cols, data);
    }
    m
}

/// Final hidden states (`len x d_model`) of an already wrapped sequence.
///
/// # Panics
/// Panics if the sequence is longer than the model's `max_len`.
pub(crate) fn encode(model: &MiniPlm, tokens: &[TokenId], precision: Precision) -> Matrix {
    let cfg = &model.config;
    let (t, d, dh) = (tokens.len(), cfg.d_model, cfg.d_head());
    assert!(t <= cfg.max_len, "sequence too long: {t}");
    let weights = model.packed_weights();
    let store = model.store();
    let policy = ExecPolicy::serial().with_precision(precision);
    let scale = 1.0 / (dh as f32).sqrt();

    let tok = store.value(model.tok.table());
    let pos = store.value(model.pos.table());
    let mut x = Matrix::zeros(t, d);
    for (i, &id) in tokens.iter().enumerate() {
        for ((o, &te), &pe) in x
            .row_mut(i)
            .iter_mut()
            .zip(tok.row(id as usize))
            .zip(pos.row(i))
        {
            *o = te + pe;
        }
    }
    SCRATCH.with(|scratch| {
        let Scratch {
            normed,
            xhat,
            qkv,
            q,
            k,
            v,
            scores,
            head,
            ctx,
            proj,
            ff,
        } = &mut *scratch.borrow_mut();
        for (block, packed) in model.blocks.iter().zip(&weights.blocks) {
            layer_norm(
                store,
                &block.ln1,
                &x,
                reshape(normed, t, d),
                xhat,
                precision,
            );
            affine(
                normed,
                &packed.qkv,
                &packed.qkv_bias,
                reshape(qkv, t, 3 * d),
                &policy,
            );
            let ctx = reshape(ctx, t, d);
            for h in 0..cfg.n_heads {
                for (slot, m) in [&mut *q, &mut *k, &mut *v].into_iter().enumerate() {
                    let m = reshape(m, t, dh);
                    let off = (h * 3 + slot) * dh;
                    for r in 0..t {
                        m.row_mut(r).copy_from_slice(&qkv.row(r)[off..off + dh]);
                    }
                }
                let scores = reshape(scores, t, t);
                q.gemm(Rhs::Transposed(k), scores, &policy);
                for s in scores.data_mut() {
                    *s *= scale;
                }
                for r in 0..t {
                    softmax(scores.row_mut(r), precision);
                }
                let head = reshape(head, t, dh);
                scores.gemm(Rhs::Dense(v), head, &policy);
                for r in 0..t {
                    ctx.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(head.row(r));
                }
            }
            let proj = reshape(proj, t, d);
            affine(ctx, &packed.wo, bias(store, &block.wo), proj, &policy);
            add_in_place(&mut x, proj);
            layer_norm(store, &block.ln2, &x, normed, xhat, precision);
            let ff = reshape(ff, t, cfg.d_ff);
            affine(normed, &packed.ff1, bias(store, &block.ff1), ff, &policy);
            for a in ff.data_mut() {
                *a = match precision {
                    Precision::Exact => ops::gelu(*a, f32::tanh).0,
                    Precision::Fast => ops::gelu(*a, fastmath::fast_tanh).0,
                };
            }
            affine(ff, &packed.ff2, bias(store, &block.ff2), proj, &policy);
            add_in_place(&mut x, proj);
        }
        let mut out = Matrix::zeros(t, d);
        layer_norm(store, &model.ln_final, &x, &mut out, xhat, precision);
        out
    })
}

/// MLM logits at `positions` of `hidden` (`positions.len() x vocab`): the
/// tied token table plus the output bias.
pub(crate) fn mlm_logits(
    model: &MiniPlm,
    hidden: &Matrix,
    positions: &[usize],
    precision: Precision,
) -> Matrix {
    project(
        &hidden.select_rows(positions),
        &model.packed_weights().tok_t,
        model.store().value(model.mlm_bias).row(0),
        precision,
    )
}

/// RTD logits of `hidden`: one per position (`len x 1`).
pub(crate) fn rtd_logits(model: &MiniPlm, hidden: &Matrix, precision: Precision) -> Matrix {
    let bias = bias(model.store(), &model.rtd);
    project(hidden, &model.packed_weights().rtd, bias, precision)
}

/// NLI logits from the `[CLS]` row of `hidden` (`1 x 2`; class 1 =
/// entail).
pub(crate) fn nli_logits(model: &MiniPlm, hidden: &Matrix, precision: Precision) -> Matrix {
    let bias = bias(model.store(), &model.nli);
    project(
        &hidden.select_rows(&[0]),
        &model.packed_weights().nli,
        bias,
        precision,
    )
}

/// A softmax row at `precision`.
pub(crate) fn softmax(row: &mut [f32], precision: Precision) {
    match precision {
        Precision::Exact => stats::softmax_inplace(row),
        Precision::Fast => stats::softmax_inplace_fast(row),
    }
}

/// A logistic sigmoid at `precision`.
pub(crate) fn sigmoid(z: f32, precision: Precision) -> f32 {
    match precision {
        Precision::Exact => ops::sigmoid(z, f32::exp),
        Precision::Fast => ops::sigmoid(z, fastmath::fast_exp),
    }
}

fn bias<'s>(store: &'s ParamStore, lin: &structmine_nn::layers::Linear) -> &'s [f32] {
    store.value(lin.bias()).row(0)
}

/// `x · w + bias` into a new matrix: a head's projection.
fn project(x: &Matrix, w: &PackedMatrix, bias: &[f32], precision: Precision) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.n());
    affine(
        x,
        w,
        bias,
        &mut out,
        &ExecPolicy::serial().with_precision(precision),
    );
    out
}

/// `out = x · w + bias`, the bias broadcast over rows.
fn affine(x: &Matrix, w: &PackedMatrix, bias: &[f32], out: &mut Matrix, policy: &ExecPolicy) {
    x.gemm(Rhs::Packed(w), out, policy);
    for r in 0..out.rows() {
        for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
            *o += b;
        }
    }
}

fn add_in_place(x: &mut Matrix, y: &Matrix) {
    for (a, &b) in x.data_mut().iter_mut().zip(y.data()) {
        *a += b;
    }
}

/// Layer norm of every row of `x` into `out` (same shape), with
/// `xhat` as one row of scratch for the Exact tier.
fn layer_norm(
    store: &ParamStore,
    ln: &structmine_nn::layers::LayerNorm,
    x: &Matrix,
    out: &mut Matrix,
    xhat: &mut Vec<f32>,
    precision: Precision,
) {
    let (gain, bias) = (store.value(ln.gain()).row(0), store.value(ln.bias()).row(0));
    xhat.resize(x.cols(), 0.0);
    for r in 0..x.rows() {
        match precision {
            Precision::Exact => {
                ops::layer_norm_row(x.row(r), gain, bias, xhat, out.row_mut(r));
            }
            Precision::Fast => {
                let row = out.row_mut(r);
                row.copy_from_slice(x.row(r));
                structmine_linalg::simd::layer_norm_row_fast(row, gain, bias, ops::LAYER_NORM_EPS);
            }
        }
    }
}
