//! The traced replay: document batches run in-process through each layer's
//! public entry point, each call wrapped in a span this benchmark records.
//!
//! Layers nest as the engine calls them: `engine` (`Engine::classify`)
//! contains `textkit` (`tokenize::encode`) and `plm`
//! (`MiniPlm::encode_docs`), and `plm` contains `linalg` (the matmul entry
//! points, replayed at the shapes the encoder's forward pass uses). The
//! inner layers are replayed as separate calls on the same documents, so a
//! layer's self time is its boundary time minus that of the boundaries
//! inside it.

use std::collections::BTreeMap;
use std::time::Instant;

use structmine_engine::Engine;
use structmine_linalg::exec::par_map_chunks;
use structmine_linalg::{ExecPolicy, Matrix, PackedMatrix, Precision};
use structmine_plm::{MiniPlm, PlmConfig};
use structmine_text::vocab::{TokenId, UNK};

use crate::gen::Rng;
use crate::report::Outcome;

/// A closed span: layer name, the layer that contains it, and duration.
struct Span {
    layer: &'static str,
    parent: Option<&'static str>,
    ms: f64,
}

/// Spans kept in memory until the replay ends.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    fn time<T>(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let out = f();
        self.spans.push(Span {
            layer,
            parent,
            ms: t.elapsed().as_secs_f64() * 1e3,
        });
        out
    }

    /// Total boundary time per layer.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += s.ms;
        }
        out
    }

    /// Self time per layer: its boundary time minus that of the layers it
    /// contains.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = self.totals();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *out.entry(p).or_insert(0.0) -= s.ms;
            }
        }
        out
    }
}

/// What one replay measured, per batch where a time is given.
pub struct Replay {
    pub trace: Trace,
    /// Batch replays made.
    pub batches: usize,
    pub tokens: usize,
    pub unk_share: f64,
    /// Matmul flops and operand bytes per document, computed from the
    /// shapes the encoder multiplies (not measured).
    pub flop_per_doc: f64,
    pub bytes_per_doc: f64,
    /// Achieved matmul rate at both tiers.
    pub gflops: Rates,
}

impl Replay {
    /// Mean boundary time of `layer` per batch.
    pub fn per_batch_ms(&self, layer: &str) -> f64 {
        self.trace.totals().get(layer).copied().unwrap_or(0.0) / self.batches.max(1) as f64
    }

    /// Mean self time of `layer` per batch.
    pub fn self_per_batch_ms(&self, layer: &str) -> f64 {
        self.trace.self_times().get(layer).copied().unwrap_or(0.0) / self.batches.max(1) as f64
    }

    /// Engine, textkit, plm and linalg figures of a replay.
    pub fn set_metrics(&self, out: &mut Outcome) {
        out.set("engine.classify_ms", self.per_batch_ms("engine"));
        out.set("engine.head_ms", self.self_per_batch_ms("engine"));
        out.set("textkit.tokenize_ms", self.per_batch_ms("textkit"));
        out.set("textkit.unk_share", self.unk_share);
        out.set("plm.encode_ms", self.per_batch_ms("plm"));
        let plm_s = self.per_batch_ms("plm") * self.batches as f64 / 1e3;
        out.set("plm.tokens_per_s", self.tokens as f64 / plm_s);
        out.set("linalg.gemm_ms", self.per_batch_ms("linalg"));
        out.set("linalg.gemm_gflops.exact", self.gflops.exact);
        out.set("linalg.gemm_gflops.fast", self.gflops.fast);
        out.set("linalg.computed_gemm_flop_per_doc", self.flop_per_doc);
        out.set("linalg.computed_gemm_bytes_per_doc", self.bytes_per_doc);
    }
}

/// Replay `batches` through `engine` (whose PLM is `plm`) at `policy`.
pub fn run(
    engine: &Engine,
    plm: &MiniPlm,
    policy: &ExecPolicy,
    batches: &[Vec<String>],
) -> Result<Replay, String> {
    let vocab = &engine.dataset().corpus.vocab;
    let gemm = GemmShapes::of(&plm.config);
    let mut trace = Trace::default();
    let (mut docs, mut tokens, mut unk, mut words) = (0, 0, 0usize, 0usize);
    let mut flop = 0.0;
    let mut bytes = 0.0;
    // At least five replays per layer, so a single-batch workload's layer
    // times are means, not one sample each.
    let replays = batches.len() * 5usize.div_ceil(batches.len().max(1));
    for batch in batches.iter().cycle().take(replays) {
        trace
            .time("engine", None, || engine.classify(batch))
            .map_err(|e| format!("replay classify: {e}"))?;
        let encoded: Vec<Vec<TokenId>> = trace.time("textkit", Some("engine"), || {
            batch
                .iter()
                .map(|l| structmine_text::tokenize::encode(l, vocab))
                .collect()
        });
        words += encoded.iter().map(Vec::len).sum::<usize>();
        unk += encoded.iter().flatten().filter(|&&t| t == UNK).count();
        let toks: Vec<Vec<TokenId>> = encoded
            .into_iter()
            .map(|d| d.into_iter().filter(|&t| t != UNK).collect())
            .collect();
        trace.time("plm", Some("engine"), || plm.encode_docs(&toks, policy));
        let lens: Vec<usize> = toks.iter().map(|t| gemm.seq_len(t.len())).collect();
        trace.time("linalg", Some("plm"), || gemm.replay(&lens, policy));
        docs += batch.len();
        tokens += lens.iter().sum::<usize>();
        for &t in &lens {
            flop += gemm.flop(t);
            bytes += gemm.bytes(t);
        }
    }
    // Kernel rate at both tiers over the documents of the first batches.
    let sample: Vec<usize> = batches
        .iter()
        .flatten()
        .take(2048)
        .map(|l| gemm.seq_len(l.split_whitespace().count()))
        .collect();
    let gflops = gemm.rates(&sample, policy);
    Ok(Replay {
        trace,
        batches: replays,
        tokens,
        unk_share: unk as f64 / words.max(1) as f64,
        flop_per_doc: flop / docs.max(1) as f64,
        bytes_per_doc: bytes / docs.max(1) as f64,
        gflops,
    })
}

/// Matmul rates in GFLOP/s.
pub struct Rates {
    pub exact: f64,
    pub fast: f64,
}

/// The matmuls of one encoder forward pass, with stand-in weights of the
/// model's shapes (kernel time does not depend on the weight values).
pub struct GemmShapes {
    d: usize,
    heads: usize,
    d_ff: usize,
    layers: usize,
    max_len: usize,
    qkv: PackedMatrix,
    wo: PackedMatrix,
    ff1: PackedMatrix,
    ff2: PackedMatrix,
}

fn random(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| (rng.next_f64() as f32 - 0.5) * 0.2)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

impl GemmShapes {
    pub fn of(c: &PlmConfig) -> Self {
        let mut rng = Rng::new(0x6e44);
        GemmShapes {
            d: c.d_model,
            heads: c.n_heads,
            d_ff: c.d_ff,
            layers: c.n_layers,
            max_len: c.max_len,
            qkv: PackedMatrix::pack(&random(c.d_model, 3 * c.d_model, &mut rng)),
            wo: PackedMatrix::pack(&random(c.d_model, c.d_model, &mut rng)),
            ff1: PackedMatrix::pack(&random(c.d_model, c.d_ff, &mut rng)),
            ff2: PackedMatrix::pack(&random(c.d_ff, c.d_model, &mut rng)),
        }
    }

    /// Rows the encoder multiplies for a document of `tokens` in-vocabulary
    /// tokens: truncated to the window, plus `[CLS]` and `[SEP]`.
    pub fn seq_len(&self, tokens: usize) -> usize {
        tokens.min(self.max_len - 2) + 2
    }

    /// `(m, k, n)` of every product in one forward pass over `t` rows.
    fn products(&self, t: usize) -> Vec<(usize, usize, usize)> {
        let dh = self.d / self.heads;
        let mut v = Vec::new();
        for _ in 0..self.layers {
            v.push((t, self.d, 3 * self.d));
            for _ in 0..self.heads {
                v.push((t, dh, t)); // q kᵀ
                v.push((t, t, dh)); // softmax(q kᵀ) v
            }
            v.push((t, self.d, self.d));
            v.push((t, self.d, self.d_ff));
            v.push((t, self.d_ff, self.d));
        }
        v
    }

    pub fn flop(&self, t: usize) -> f64 {
        self.products(t)
            .iter()
            .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
            .sum()
    }

    /// Bytes of both operands and the result, as f32, for every product.
    pub fn bytes(&self, t: usize) -> f64 {
        self.products(t)
            .iter()
            .map(|&(m, k, n)| 4.0 * (m * k + k * n + m * n) as f64)
            .sum()
    }

    /// Achieved matmul rate at both precision tiers over documents of
    /// `lens` rows.
    pub fn rates(&self, lens: &[usize], policy: &ExecPolicy) -> Rates {
        let work: f64 = lens.iter().map(|&l| self.flop(l)).sum();
        let rate = |prec| {
            let p = policy.with_precision(prec);
            self.replay(lens, &p); // warm the caches and the code
            let t = Instant::now();
            self.replay(lens, &p);
            work / t.elapsed().as_secs_f64() / 1e9
        };
        Rates {
            exact: rate(Precision::Exact),
            fast: rate(Precision::Fast),
        }
    }

    /// Run the forward pass's matmuls for documents of `lens` rows, spread
    /// over `policy`'s threads as `encode_docs` spreads documents.
    pub fn replay(&self, lens: &[usize], policy: &ExecPolicy) {
        let fast = policy.precision() == Precision::Fast;
        par_map_chunks(policy, lens, |_, &t| {
            let mut rng = Rng::new(t as u64);
            let dh = self.d / self.heads;
            let x = random(t, self.d, &mut rng);
            let q = random(t, dh, &mut rng);
            let mut scores = Matrix::zeros(t, t);
            let mut ctx = Matrix::zeros(t, dh);
            let mut sum = 0.0;
            for _ in 0..self.layers {
                packed(&x, &self.qkv, fast);
                for _ in 0..self.heads {
                    if fast {
                        q.matmul_t_into_fast(&q, &mut scores);
                        scores.matmul_into_fast(&q, &mut ctx);
                    } else {
                        q.matmul_t_into(&q, &mut scores);
                        scores.matmul_into(&q, &mut ctx);
                    }
                }
                packed(&x, &self.wo, fast);
                let hidden = packed(&x, &self.ff1, fast);
                sum += packed(&hidden, &self.ff2, fast).data()[0];
            }
            std::hint::black_box(sum + ctx.data()[0])
        });
    }
}

/// `a` times the prepacked `w`, through the tier's entry point.
fn packed(a: &Matrix, w: &PackedMatrix, fast: bool) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), w.n());
    if fast {
        a.matmul_prepacked_fast_into(w, &mut out);
    } else {
        a.matmul_prepacked_into(w, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_contained_layers() {
        let mut t = Trace::default();
        for (layer, parent, ms) in [
            ("engine", None, 10.0),
            ("textkit", Some("engine"), 1.0),
            ("plm", Some("engine"), 6.0),
            ("linalg", Some("plm"), 4.0),
        ] {
            t.spans.push(Span { layer, parent, ms });
        }
        let s = t.self_times();
        assert_eq!(s["engine"], 3.0);
        assert_eq!(s["plm"], 2.0);
        assert_eq!(s["linalg"], 4.0);
        assert_eq!(s.values().sum::<f64>(), t.totals()["engine"]);
    }
}
