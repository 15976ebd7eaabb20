//! The transformer encoder and its task heads.
//!
//! A pre-LN encoder: each block computes
//! `x += MultiHeadAttention(LN(x))` then `x += FFN(LN(x))`, with a final
//! layer norm. Heads:
//! * MLM — tied input/output embeddings plus a per-token bias;
//! * RTD — a linear replaced-token-detection probe per position (ELECTRA);
//! * NLI — a 2-way entail/not-entail classifier on the `[CLS]` state.
//!
//! One sequence per forward call, and every forward call binds its own copy
//! of the parameters; pretraining gives each sequence its own tape and sums
//! the leaf gradients of a whole batch in one Adam step.

use crate::config::PlmConfig;
use crate::infer::{self, PackedWeights};
use std::sync::{Arc, Mutex, PoisonError};
use structmine_linalg::{vector, Matrix, Precision};
use structmine_nn::graph::{Graph, NodeId};
use structmine_nn::layers::{Embedding, LayerNorm, Linear};
use structmine_nn::params::{Adam, Binding, ParamStore};
use structmine_text::vocab::{TokenId, CLS, SEP};

pub(crate) struct Block {
    pub(crate) ln1: LayerNorm,
    /// Per-head projection triples (q, k, v), each `d_model x d_head`.
    pub(crate) heads: Vec<(Linear, Linear, Linear)>,
    pub(crate) wo: Linear,
    pub(crate) ln2: LayerNorm,
    pub(crate) ff1: Linear,
    pub(crate) ff2: Linear,
}

/// The mini pre-trained language model.
pub struct MiniPlm {
    /// Architecture.
    pub config: PlmConfig,
    store: ParamStore,
    pub(crate) tok: Embedding,
    pub(crate) pos: Embedding,
    pub(crate) blocks: Vec<Block>,
    pub(crate) ln_final: LayerNorm,
    pub(crate) mlm_bias: structmine_nn::params::ParamId,
    pub(crate) rtd: Linear,
    pub(crate) nli: Linear,
    /// The inference forward's packed weights: one snapshot, rebuilt when
    /// the store's weight generation moves past it, so a weight write can
    /// never be served stale panels.
    packed: Mutex<Option<Arc<PackedWeights>>>,
}

impl MiniPlm {
    /// Initialize a model with random parameters.
    pub fn new(config: PlmConfig) -> Self {
        assert_eq!(
            config.d_model % config.n_heads,
            0,
            "d_model must divide by heads"
        );
        let mut store = ParamStore::new();
        let mut rng = structmine_linalg::rng::seeded(config.seed);
        let tok = Embedding::new(
            &mut store,
            "tok",
            config.vocab_size,
            config.d_model,
            &mut rng,
        );
        let pos = Embedding::new(&mut store, "pos", config.max_len, config.d_model, &mut rng);
        let blocks = (0..config.n_layers)
            .map(|l| {
                let heads = (0..config.n_heads)
                    .map(|h| {
                        (
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.q"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.k"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.v"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                        )
                    })
                    .collect();
                Block {
                    ln1: LayerNorm::new(&mut store, &format!("b{l}.ln1"), config.d_model),
                    heads,
                    wo: Linear::new(
                        &mut store,
                        &format!("b{l}.wo"),
                        config.d_model,
                        config.d_model,
                        &mut rng,
                    ),
                    ln2: LayerNorm::new(&mut store, &format!("b{l}.ln2"), config.d_model),
                    ff1: Linear::new(
                        &mut store,
                        &format!("b{l}.ff1"),
                        config.d_model,
                        config.d_ff,
                        &mut rng,
                    ),
                    ff2: Linear::new(
                        &mut store,
                        &format!("b{l}.ff2"),
                        config.d_ff,
                        config.d_model,
                        &mut rng,
                    ),
                }
            })
            .collect();
        let ln_final = LayerNorm::new(&mut store, "ln_final", config.d_model);
        let mlm_bias = store.zeros("mlm_bias", 1, config.vocab_size);
        let rtd = Linear::new(&mut store, "rtd", config.d_model, 1, &mut rng);
        let nli = Linear::new(&mut store, "nli", config.d_model, 2, &mut rng);
        MiniPlm {
            config,
            store,
            tok,
            pos,
            blocks,
            ln_final,
            mlm_bias,
            rtd,
            nli,
            packed: Mutex::new(None),
        }
    }

    /// Borrow the parameter store (for optimizer construction).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutably borrow the parameter store (for the Adam step).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Deep-copy the model (used for per-corpus adaptation).
    pub fn clone_model(&self) -> MiniPlm {
        let mut copy = MiniPlm::new(self.config);
        copy.import_weights(self.export_weights());
        copy
    }

    /// Snapshot all weights (for the disk cache).
    pub fn export_weights(&self) -> Vec<Matrix> {
        self.store.export_values()
    }

    /// Content fingerprint of the model: architecture plus every weight
    /// value. Two models with the same fingerprint produce bitwise-identical
    /// encodings, so artifact keys built on it can never serve stale
    /// representations. Recomputed on every call (weights are mutable
    /// through [`MiniPlm::store_mut`]); hashing is a few milliseconds,
    /// negligible next to any encoding pass.
    pub fn fingerprint(&self) -> u128 {
        use structmine_store::StableHash;
        let mut h = structmine_store::StableHasher::new();
        self.config.stable_hash(&mut h);
        self.export_weights().stable_hash(&mut h);
        h.finish()
    }

    /// Restore weights exported from an identically configured model.
    pub fn import_weights(&mut self, weights: Vec<Matrix>) {
        self.store.import_values(weights);
    }

    /// Eagerly build the packed-weight snapshot the inference forward
    /// reads (fused QKV per block, output/FFN projections, the transposed
    /// token table for tied MLM logits, and the RTD/NLI heads), so the
    /// first serving request pays no packing cost. Idempotent and cheap
    /// when already packed. A weight write after this call makes the next
    /// forward pass rebuild the snapshot, so calling this again afterwards
    /// is optional.
    pub fn prepack_weights(&self) {
        self.packed_weights();
    }

    /// The packed-weight snapshot at the store's current generation,
    /// rebuilt (counting `linalg.prepack.invalidations` for every matrix
    /// of the stale one) when a weight write moved the generation on.
    pub(crate) fn packed_weights(&self) -> Arc<PackedWeights> {
        // The slot is only ever replaced whole, so a panic elsewhere
        // cannot leave it half-written.
        let mut slot = self.packed.lock().unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            Some(p) if p.generation == self.store.generation() => return Arc::clone(p),
            Some(stale) => structmine_store::obs::counter_add(
                "linalg.prepack.invalidations",
                stale.len() as u64,
            ),
            None => {}
        }
        let fresh = Arc::new(PackedWeights::build(self));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    /// Build an [`Adam`] optimizer for this model.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.store, lr, 1.0)
    }

    /// Truncate a token sequence to fit the positional table, reserving two
    /// slots, and wrap it as `[CLS] .. tokens .. [SEP]`.
    pub fn wrap(&self, tokens: &[TokenId]) -> Vec<TokenId> {
        let body = &tokens[..tokens.len().min(self.config.max_len - 2)];
        let mut seq = Vec::with_capacity(body.len() + 2);
        seq.push(CLS);
        seq.extend_from_slice(body);
        seq.push(SEP);
        seq
    }

    /// Wrap a premise/hypothesis pair: `[CLS] p [SEP] h [SEP]`.
    pub fn wrap_pair(&self, premise: &[TokenId], hypothesis: &[TokenId]) -> Vec<TokenId> {
        let budget = self.config.max_len - 3;
        let h_len = hypothesis.len().min(budget / 2);
        let p_len = premise.len().min(budget - h_len);
        let mut seq = Vec::with_capacity(p_len + h_len + 3);
        seq.push(CLS);
        seq.extend_from_slice(&premise[..p_len]);
        seq.push(SEP);
        seq.extend_from_slice(&hypothesis[..h_len]);
        seq.push(SEP);
        seq
    }

    /// A forward-pass handle over this model's parameters.
    pub fn bound(&self) -> BoundPlm<'_> {
        BoundPlm { model: self }
    }

    /// Run a no-gradient forward pass over an already wrapped sequence,
    /// returning the final hidden states (`len x d_model`). The tier
    /// selects the kernels: Exact output is bitwise reproducible (and equal
    /// to the training tape's); Fast uses the approximate inference
    /// kernels.
    pub fn encode(&self, tokens: &[TokenId], precision: Precision) -> Matrix {
        infer::encode(self, tokens, precision)
    }

    /// MLM distribution at `position` of the (already wrapped) sequence.
    pub fn mlm_probs(&self, tokens: &[TokenId], position: usize, precision: Precision) -> Vec<f32> {
        let h = self.encode(tokens, precision);
        let mut probs = infer::mlm_logits(self, &h, &[position], precision).into_vec();
        infer::softmax(&mut probs, precision);
        probs
    }

    /// Top-`k` MLM predictions `(token, prob)` at `position`, excluding
    /// special tokens.
    pub fn mlm_topk(
        &self,
        tokens: &[TokenId],
        position: usize,
        k: usize,
        precision: Precision,
    ) -> Vec<(TokenId, f32)> {
        top_k(&self.mlm_probs(tokens, position, precision), k)
    }

    /// Top-`k` MLM predictions at several positions with a single encode.
    pub fn mlm_topk_multi(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        k: usize,
        precision: Precision,
    ) -> Vec<Vec<(TokenId, f32)>> {
        if positions.is_empty() {
            return Vec::new();
        }
        let h = self.encode(tokens, precision);
        let mut logits = infer::mlm_logits(self, &h, positions, precision);
        (0..positions.len())
            .map(|r| {
                let probs = logits.row_mut(r);
                infer::softmax(probs, precision);
                top_k(probs, k)
            })
            .collect()
    }

    /// Per-position replaced-token probabilities for a wrapped sequence
    /// (sigmoid of the RTD head).
    pub fn rtd_probs(&self, tokens: &[TokenId], precision: Precision) -> Vec<f32> {
        let h = self.encode(tokens, precision);
        let logits = infer::rtd_logits(self, &h, precision);
        logits
            .data()
            .iter()
            .map(|&z| infer::sigmoid(z, precision))
            .collect()
    }

    /// Probability that `premise` entails `hypothesis` under the NLI head.
    pub fn nli_entail_prob(
        &self,
        premise: &[TokenId],
        hypothesis: &[TokenId],
        precision: Precision,
    ) -> f32 {
        let h = self.encode(&self.wrap_pair(premise, hypothesis), precision);
        let mut probs = infer::nli_logits(self, &h, precision).into_vec();
        infer::softmax(&mut probs, precision);
        probs[1]
    }

    /// Average of the final hidden states over real (non-CLS/SEP) positions —
    /// the "average-pooled BERT representation" of the tutorial's figures.
    pub fn mean_embed(&self, tokens: &[TokenId], precision: Precision) -> Vec<f32> {
        let seq = self.wrap(tokens);
        let h = self.encode(&seq, precision);
        let rows: Vec<&[f32]> = (1..seq.len() - 1).map(|i| h.row(i)).collect();
        if rows.is_empty() {
            return h.row(0).to_vec();
        }
        vector::mean_of(&rows, self.config.d_model)
    }

    /// The *static* (layer-0 table) embedding of a token — the
    /// non-contextual vector methods fall back to for expansion and for the
    /// ConWea WSD ablation.
    pub fn token_embedding(&self, t: TokenId) -> &[f32] {
        self.store.value(self.tok.table()).row(t as usize)
    }

    /// The `[CLS]` hidden state of a wrapped sequence.
    pub fn cls_embed(&self, tokens: &[TokenId], precision: Precision) -> Vec<f32> {
        let seq = self.wrap(tokens);
        self.encode(&seq, precision).row(0).to_vec()
    }
}

/// The `k` most probable non-special tokens of an MLM distribution.
fn top_k(probs: &[f32], k: usize) -> Vec<(TokenId, f32)> {
    let mut scored: Vec<(TokenId, f32)> = probs
        .iter()
        .enumerate()
        .skip(structmine_text::vocab::N_SPECIAL)
        .map(|(t, &p)| (t as TokenId, p))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

// Inference shares one model immutably (`&self` + `Arc`) across the exec
// layer's worker threads; the only state a forward pass touches besides
// its per-thread scratch is the `Mutex`-guarded packed-weight slot. This
// assertion turns any unsynchronized interior mutability into a compile
// error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MiniPlm>();
};

/// Recording forward-pass handle over a [`MiniPlm`]'s parameters: the
/// training path, and the reference the tape-free inference forward is
/// tested against. Parameters are bound inside each forward call, and the
/// `(param, leaf)` pairs are recorded in the caller's [`Binding`].
pub struct BoundPlm<'m> {
    model: &'m MiniPlm,
}

impl BoundPlm<'_> {
    /// Encode a wrapped sequence to final hidden states (`len x d`).
    pub fn encode_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        tokens: &[TokenId],
    ) -> NodeId {
        let m = self.model;
        let n = tokens.len();
        assert!(n <= m.config.max_len, "sequence too long: {n}");
        let ids: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        let te = m.tok.forward(&m.store, g, binding, &ids);
        let positions: Vec<usize> = (0..n).collect();
        let pe = m.pos.forward(&m.store, g, binding, &positions);
        let mut x = g.add(te, pe);
        let scale = 1.0 / (m.config.d_head() as f32).sqrt();
        for block in &m.blocks {
            let normed = block.ln1.forward(&m.store, g, binding, x);
            let mut ctxs = Vec::with_capacity(m.config.n_heads);
            for (wq, wk, wv) in &block.heads {
                let q = wq.forward(&m.store, g, binding, normed);
                let k = wk.forward(&m.store, g, binding, normed);
                let v = wv.forward(&m.store, g, binding, normed);
                // q·kᵀ without materializing the transpose, then the
                // 1/sqrt(d_head) scale fused into the softmax node.
                let scores = g.matmul_t(q, k);
                let attn = g.scaled_row_softmax(scores, scale);
                ctxs.push(g.matmul(attn, v));
            }
            let ctx = g.concat_cols(&ctxs);
            let attn_out = block.wo.forward(&m.store, g, binding, ctx);
            x = g.add(x, attn_out);
            let normed2 = block.ln2.forward(&m.store, g, binding, x);
            let f1 = block.ff1.forward(&m.store, g, binding, normed2);
            let act = g.gelu(f1);
            let f2 = block.ff2.forward(&m.store, g, binding, act);
            x = g.add(x, f2);
        }
        m.ln_final.forward(&m.store, g, binding, x)
    }

    /// MLM logits at the given positions: `positions.len() x vocab`, using
    /// the tied token-embedding matrix plus the output bias.
    pub fn mlm_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
        positions: &[usize],
    ) -> NodeId {
        let m = self.model;
        let sel = g.select_rows(hidden, positions);
        let table = m.tok.bind_table(&m.store, g, binding);
        let logits = g.matmul_t(sel, table);
        let bias = m.store.bind(g, m.mlm_bias, binding);
        g.add_row_broadcast(logits, bias)
    }

    /// RTD logits: one scalar per position (`len x 1`).
    pub fn rtd_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
    ) -> NodeId {
        self.model
            .rtd
            .forward(&self.model.store, g, binding, hidden)
    }

    /// NLI logits from the `[CLS]` row (`1 x 2`; class 1 = entail).
    pub fn nli_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
    ) -> NodeId {
        let cls = g.select_rows(hidden, &[0]);
        self.model.nli.forward(&self.model.store, g, binding, cls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXACT: Precision = Precision::Exact;

    fn model() -> MiniPlm {
        MiniPlm::new(PlmConfig::tiny(50))
    }

    #[test]
    fn encode_shapes_are_correct() {
        let m = model();
        let seq = m.wrap(&[7, 8, 9]);
        assert_eq!(seq.first(), Some(&CLS));
        assert_eq!(seq.last(), Some(&SEP));
        let h = m.encode(&seq, EXACT);
        assert_eq!(h.shape(), (5, m.config.d_model));
    }

    #[test]
    fn wrap_truncates_to_max_len() {
        let m = model();
        let long: Vec<TokenId> = (5..200).map(|t| t % 40 + 5).collect();
        let seq = m.wrap(&long);
        assert_eq!(seq.len(), m.config.max_len);
    }

    #[test]
    fn wrap_pair_fits_and_separates() {
        let m = model();
        let p: Vec<TokenId> = (5..40).collect();
        let h: Vec<TokenId> = (10..30).collect();
        let seq = m.wrap_pair(&p, &h);
        assert!(seq.len() <= m.config.max_len);
        assert_eq!(seq.iter().filter(|&&t| t == SEP).count(), 2);
    }

    #[test]
    fn mlm_probs_are_a_distribution() {
        let m = model();
        let seq = m.wrap(&[7, structmine_text::vocab::MASK, 9]);
        let probs = m.mlm_probs(&seq, 2, EXACT);
        assert_eq!(probs.len(), 50);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn mlm_topk_excludes_special_tokens() {
        let m = model();
        let seq = m.wrap(&[7, structmine_text::vocab::MASK]);
        let top = m.mlm_topk(&seq, 2, 10, EXACT);
        assert_eq!(top.len(), 10);
        assert!(top
            .iter()
            .all(|&(t, _)| t >= structmine_text::vocab::N_SPECIAL as u32));
        assert_eq!(m.mlm_topk_multi(&seq, &[2], 10, EXACT), vec![top]);
    }

    /// The tape-free forward (fused QKV, packed weights, no tape) must
    /// reproduce the recording training path bit for bit at the Exact tier:
    /// hidden states and all three heads. Sequences on both sides of the
    /// per-call pack threshold cover both product paths.
    #[test]
    fn fused_inference_encode_matches_recording_path_bitwise() {
        let m = model();
        for body in [&[7u32, 8, 9][..], &[7, 8, 9, 12, 30, 31, 9, 7, 14, 15]] {
            let seq = m.wrap(body);
            let positions = [1, seq.len() - 2];
            let bound = m.bound();
            let mut g = Graph::new();
            let mut binding = Binding::new();
            let h = bound.encode_with_binding(&mut g, &mut binding, &seq);
            let mlm = bound.mlm_logits_with_binding(&mut g, &mut binding, h, &positions);
            let rtd = bound.rtd_logits_with_binding(&mut g, &mut binding, h);
            let nli = bound.nli_logits_with_binding(&mut g, &mut binding, h);

            let hidden = m.encode(&seq, EXACT);
            assert_eq!(
                hidden.data(),
                g.value(h).data(),
                "tape-free encode diverged from the training path"
            );
            assert_eq!(
                infer::mlm_logits(&m, &hidden, &positions, EXACT).data(),
                g.value(mlm).data()
            );
            assert_eq!(
                infer::rtd_logits(&m, &hidden, EXACT).data(),
                g.value(rtd).data()
            );
            assert_eq!(
                infer::nli_logits(&m, &hidden, EXACT).data(),
                g.value(nli).data()
            );
        }
    }

    #[test]
    fn weight_write_after_prepack_never_serves_stale_panels() {
        // Build the packed-weight snapshot, then mutate weights through the
        // store. Encodes after the write must match a freshly imported,
        // never-prepacked model bitwise — the snapshot may not serve panels
        // from the overwritten values.
        let mut m = model();
        let seq = m.wrap(&[7, 8, 9, 12]);
        m.prepack_weights();
        let warm = m.encode(&seq, EXACT);
        for pid in [m.blocks[0].ff1.weight(), m.blocks[0].heads[0].0.weight()] {
            let w = m.store.value_mut(pid);
            let v = w.get(0, 0);
            w.set(0, 0, v + 0.5);
        }
        let after = m.encode(&seq, EXACT);
        assert_ne!(warm.data(), after.data(), "write had no effect on encode");
        let mut fresh = MiniPlm::new(m.config);
        fresh.import_weights(m.export_weights());
        assert_eq!(
            after.data(),
            fresh.encode(&seq, EXACT).data(),
            "prepacked encode after a weight write diverged from fresh model"
        );
    }

    #[test]
    fn contextual_representations_depend_on_context() {
        let m = model();
        // Token 9 in two different contexts must embed differently.
        let a = m.encode(&m.wrap(&[9, 7, 7]), EXACT);
        let b = m.encode(&m.wrap(&[9, 30, 31]), EXACT);
        let dist = vector::sq_dist(a.row(1), b.row(1));
        assert!(dist > 1e-4, "contextual reps identical: {dist}");
    }

    #[test]
    fn rtd_and_nli_heads_produce_valid_outputs() {
        let m = model();
        let seq = m.wrap(&[5, 6, 7]);
        let rtd = m.rtd_probs(&seq, EXACT);
        assert_eq!(rtd.len(), seq.len());
        assert!(rtd.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let e = m.nli_entail_prob(&[5, 6, 7], &[8, 9], EXACT);
        assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = model();
        let seq = m.wrap(&[5, 9, 13]);
        assert_eq!(m.encode(&seq, EXACT).data(), m.encode(&seq, EXACT).data());
    }

    /// The Fast tier tracks the Exact tier through the whole forward pass
    /// and every head, and the per-thread scratch carries nothing between
    /// passes: interleaving tiers and lengths on one thread reproduces each
    /// pass bit for bit.
    #[test]
    fn fast_infer_tracks_exact_and_scratch_reuse_is_transparent() {
        let m = model();
        let long = m.wrap(&[5, 9, 13, 21, 30, 31, 9, 7, 14, 15]);
        let short = m.wrap(&[5, 9]);
        let first = m.encode(&long, EXACT);
        let fast = m.encode(&long, Precision::Fast);
        let _ = m.encode(&short, Precision::Fast);
        assert_eq!(first.data(), m.encode(&long, EXACT).data());
        assert_eq!(fast.data(), m.encode(&long, Precision::Fast).data());
        assert_ne!(first.data(), fast.data(), "the tier must reach the forward");
        for (e, f) in first.data().iter().zip(fast.data()) {
            assert!((e - f).abs() < 1e-2, "fast diverged: exact={e} fast={f}");
        }
        let close = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-2);
        assert!(close(
            &m.rtd_probs(&long, EXACT),
            &m.rtd_probs(&long, Precision::Fast)
        ));
        assert!(close(
            &m.mlm_probs(&long, 3, EXACT),
            &m.mlm_probs(&long, 3, Precision::Fast)
        ));
        let nli = |p| m.nli_entail_prob(&[5, 6, 7], &[8, 9], p);
        assert!((nli(EXACT) - nli(Precision::Fast)).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "sequence too long")]
    fn overlong_unwrapped_sequence_panics() {
        let m = model();
        let long: Vec<TokenId> = vec![5; 100];
        m.encode(&long, EXACT);
    }
}
