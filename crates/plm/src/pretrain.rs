//! Self-supervised pretraining: MLM + replaced-token detection + NLI.
//!
//! Three objectives share the encoder, mirroring the pretrained artifacts
//! the tutorial's methods assume exist:
//!
//! * **MLM** (BERT): 15% of positions are masked (80% `[MASK]`, 10% random,
//!   10% kept) and predicted through the tied embedding matrix.
//! * **RTD** (ELECTRA): tokens are corrupted by unigram samples and a
//!   per-position binary head predicts which were replaced.
//! * **NLI-style pair relevance**: `[CLS] a [SEP] b [SEP]` pairs where `b`
//!   is the second half of the same document (entail) or of a random other
//!   document (not entail), classified from `[CLS]`. This is the
//!   self-supervised stand-in for the MNLI fine-tuning TaxoClass's
//!   relevance model relies on.

use crate::model::{BoundPlm, MiniPlm};
use rand::rngs::StdRng;
use rand::Rng;
use structmine_linalg::exec::par_map_chunks;
use structmine_linalg::{rng as lrng, ExecPolicy, Matrix};
use structmine_nn::graph::Graph;
use structmine_nn::params::{Binding, ParamId};
use structmine_text::vocab::{TokenId, Vocab, MASK, N_SPECIAL};
use structmine_text::Corpus;

/// Pretraining hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PretrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Sequences per step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Masking probability for MLM.
    pub mask_prob: f32,
    /// Weight of the RTD loss.
    pub rtd_weight: f32,
    /// Weight of the NLI loss.
    pub nli_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 900,
            batch: 8,
            lr: 1e-2,
            mask_prob: 0.15,
            rtd_weight: 0.5,
            nli_weight: 0.5,
            seed: 97,
        }
    }
}

impl structmine_store::StableHash for PretrainConfig {
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.steps.stable_hash(h);
        self.batch.stable_hash(h);
        self.lr.stable_hash(h);
        self.mask_prob.stable_hash(h);
        self.rtd_weight.stable_hash(h);
        self.nli_weight.stable_hash(h);
        self.seed.stable_hash(h);
    }
}

/// Loss trajectory of a pretraining run.
#[derive(Clone, Debug)]
pub struct PretrainReport {
    /// Mean MLM loss over the first 10% of steps.
    pub initial_mlm_loss: f32,
    /// Mean MLM loss over the final 10% of steps.
    pub final_mlm_loss: f32,
    /// Per-step MLM losses.
    pub mlm_losses: Vec<f32>,
}

/// Pretrain `model` on `corpus`.
///
/// Each step first samples its loss terms serially (one RNG stream, so the
/// step is a pure function of the seed), then trains every term on its own
/// tape across `policy`'s threads, and finally hands all leaf gradients to
/// one Adam step in term order. The terms only ever met in the loss sum,
/// whose gradient is exactly 1, and the optimizer folds each parameter's
/// leaf gradients in that same order, so the weights are bit-identical for
/// every thread count.
pub fn pretrain(
    model: &mut MiniPlm,
    corpus: &Corpus,
    cfg: &PretrainConfig,
    policy: &ExecPolicy,
) -> PretrainReport {
    assert!(!corpus.is_empty(), "pretraining corpus is empty");
    let mut rng = lrng::seeded(cfg.seed);
    let mut adam = model.optimizer(cfg.lr);
    let mut mlm_losses = Vec::with_capacity(cfg.steps);

    for step in 0..cfg.steps {
        // Linear warmup for 5% then linear decay to 10%.
        let frac = step as f32 / cfg.steps.max(1) as f32;
        let lr = if frac < 0.05 {
            cfg.lr * (frac / 0.05)
        } else {
            cfg.lr * (1.0 - 0.9 * (frac - 0.05) / 0.95)
        };
        adam.set_lr(lr.max(cfg.lr * 0.05));

        let terms = sample_terms(model, corpus, cfg, &mut rng);
        structmine_store::obs::counter_add("plm.pretrain.tapes", terms.len() as u64);
        let bound = model.bound();
        let trained = par_map_chunks(policy, &terms, |_, term| train_term(&bound, term));
        // Folded from +0.0 in term order (`Sum` for f32 starts at -0.0,
        // which would flip the sign bit of an all-empty step's loss).
        let step_mlm = trained
            .iter()
            .filter_map(|t| t.mlm_loss)
            .fold(0.0f32, |acc, l| acc + l);
        if !trained.is_empty() {
            let grads: Vec<_> = trained
                .iter()
                .flat_map(|t| t.grads.iter().map(|(pid, g)| (*pid, g.as_ref())))
                .collect();
            adam.step(model.store_mut(), &grads);
        }
        mlm_losses.push(step_mlm / cfg.batch as f32);
    }

    let tenth = (cfg.steps / 10).max(1);
    let initial = mlm_losses.iter().take(tenth).sum::<f32>() / tenth as f32;
    let final_ = mlm_losses.iter().rev().take(tenth).sum::<f32>() / tenth as f32;
    PretrainReport {
        initial_mlm_loss: initial,
        final_mlm_loss: final_,
        mlm_losses,
    }
}

/// Domain-adaptive pretraining: continue masked-language-model training on
/// a *target* corpus, returning an adapted copy (the original is untouched).
///
/// Every method paper the tutorial covers further pretrains its BERT on the
/// task corpus before classification; this is that step at mini scale.
pub fn adapt(
    model: &MiniPlm,
    corpus: &Corpus,
    steps: usize,
    seed: u64,
    policy: &ExecPolicy,
) -> MiniPlm {
    let mut adapted = model.clone_model();
    pretrain(
        &mut adapted,
        corpus,
        &PretrainConfig {
            steps,
            batch: 8,
            lr: 3e-3,
            rtd_weight: 0.3,
            nli_weight: 0.3,
            seed,
            ..Default::default()
        },
        policy,
    );
    adapted
}

/// The head a loss term is read from.
enum Head {
    /// Tied-embedding MLM logits at these masked positions (softmax CE).
    Mlm(Vec<usize>),
    /// Per-position replaced-token logits (sigmoid BCE).
    Rtd,
    /// Entail/not-entail logits from `[CLS]` (softmax CE).
    Nli,
}

/// One sequence's contribution to a step's loss: `scale` times the loss of
/// `head` on `tokens` against `targets`.
struct Term {
    tokens: Vec<TokenId>,
    head: Head,
    targets: Matrix,
    scale: f32,
}

/// What training one term yields: every bound leaf's gradient in binding
/// order, and the unscaled loss of an MLM term.
struct TrainedTerm {
    grads: Vec<(ParamId, Option<Matrix>)>,
    mlm_loss: Option<f32>,
}

/// Sample one step's loss terms, in the order they enter the loss: per
/// batch slot an MLM term, an RTD term on every second slot and an NLI term
/// on every fourth. Empty documents, and NLI negatives whose other
/// document has fewer than 2 tokens, contribute nothing.
fn sample_terms(
    model: &MiniPlm,
    corpus: &Corpus,
    cfg: &PretrainConfig,
    rng: &mut StdRng,
) -> Vec<Term> {
    let vocab_size = model.config.vocab_size;
    let mut terms = Vec::new();
    for b in 0..cfg.batch {
        let doc = &corpus.docs[rng.gen_range(0..corpus.len())];
        if doc.tokens.is_empty() {
            continue;
        }
        let window = sample_window(&doc.tokens, model.config.max_len - 2, rng);
        let seq = model.wrap(&window);

        let (masked, positions, gold) = mask_sequence(&seq, cfg.mask_prob, vocab_size, rng);
        let mut targets = Matrix::zeros(positions.len(), vocab_size);
        for (r, &t) in gold.iter().enumerate() {
            targets.set(r, t as usize, 1.0);
        }
        terms.push(Term {
            tokens: masked,
            head: Head::Mlm(positions),
            targets,
            scale: 1.0 / cfg.batch as f32,
        });

        if cfg.rtd_weight > 0.0 && b % 2 == 0 {
            let (corrupted, labels) = corrupt_sequence(&seq, 0.15, vocab_size, rng);
            terms.push(Term {
                tokens: corrupted,
                head: Head::Rtd,
                targets: Matrix::from_vec(labels.len(), 1, labels),
                scale: 2.0 * cfg.rtd_weight / cfg.batch as f32,
            });
        }

        if cfg.nli_weight > 0.0 && b % 4 == 0 && window.len() >= 6 {
            let mid = window.len() / 2;
            let premise = &window[..mid];
            let entail: bool = rng.gen();
            let hypothesis = if entail {
                &window[mid..]
            } else {
                let other = &corpus.docs[rng.gen_range(0..corpus.len())].tokens;
                if other.len() < 2 {
                    continue;
                }
                &other[other.len() / 2..]
            };
            let mut targets = Matrix::zeros(1, 2);
            targets.set(0, usize::from(entail), 1.0);
            terms.push(Term {
                tokens: model.wrap_pair(premise, hypothesis),
                head: Head::Nli,
                targets,
                scale: 4.0 * cfg.nli_weight / cfg.batch as f32,
            });
        }
    }
    terms
}

/// Train one term on its own serial tape: the caller already spreads terms
/// across threads, so the tape's products stay on this one.
fn train_term(bound: &BoundPlm<'_>, term: &Term) -> TrainedTerm {
    let mut g = Graph::with_policy(&ExecPolicy::serial());
    let mut binding = Binding::new();
    let hidden = bound.encode_with_binding(&mut g, &mut binding, &term.tokens);
    let loss = match &term.head {
        Head::Mlm(positions) => {
            let logits = bound.mlm_logits_with_binding(&mut g, &mut binding, hidden, positions);
            g.softmax_cross_entropy(logits, &term.targets)
        }
        Head::Rtd => {
            let logits = bound.rtd_logits_with_binding(&mut g, &mut binding, hidden);
            g.sigmoid_bce(logits, &term.targets)
        }
        Head::Nli => {
            let logits = bound.nli_logits_with_binding(&mut g, &mut binding, hidden);
            g.softmax_cross_entropy(logits, &term.targets)
        }
    };
    let mlm_loss = matches!(term.head, Head::Mlm(_)).then(|| g.value(loss).get(0, 0));
    let scaled = g.scale(loss, term.scale);
    g.backward(scaled);
    TrainedTerm {
        grads: binding
            .grads(&g)
            .into_iter()
            .map(|(pid, grad)| (pid, grad.cloned()))
            .collect(),
        mlm_loss,
    }
}

/// Take a random window of at most `max` tokens.
pub fn sample_window(tokens: &[TokenId], max: usize, rng: &mut StdRng) -> Vec<TokenId> {
    if tokens.len() <= max {
        return tokens.to_vec();
    }
    let start = rng.gen_range(0..=tokens.len() - max);
    tokens[start..start + max].to_vec()
}

/// BERT-style masking of a wrapped sequence. Returns (masked sequence,
/// masked positions, gold tokens). Guarantees at least one masked position.
pub fn mask_sequence(
    seq: &[TokenId],
    mask_prob: f32,
    vocab_size: usize,
    rng: &mut StdRng,
) -> (Vec<TokenId>, Vec<usize>, Vec<TokenId>) {
    let mut masked = seq.to_vec();
    let mut positions = Vec::new();
    let mut gold = Vec::new();
    for (i, &t) in seq.iter().enumerate() {
        if Vocab::is_special(t) {
            continue;
        }
        if rng.gen::<f32>() < mask_prob {
            positions.push(i);
            gold.push(t);
            let roll: f32 = rng.gen();
            masked[i] = if roll < 0.8 {
                MASK
            } else if roll < 0.9 {
                random_token(vocab_size, rng)
            } else {
                t
            };
        }
    }
    if positions.is_empty() {
        // Force-mask a random real token.
        let real: Vec<usize> = (0..seq.len())
            .filter(|&i| !Vocab::is_special(seq[i]))
            .collect();
        if let Some(&i) = real.get(
            rng.gen_range(0..real.len().max(1))
                .min(real.len().saturating_sub(1)),
        ) {
            positions.push(i);
            gold.push(seq[i]);
            masked[i] = MASK;
        }
    }
    (masked, positions, gold)
}

/// ELECTRA-style corruption: replace tokens with unigram-random ones.
/// Returns (corrupted sequence, per-position replaced labels).
pub fn corrupt_sequence(
    seq: &[TokenId],
    prob: f32,
    vocab_size: usize,
    rng: &mut StdRng,
) -> (Vec<TokenId>, Vec<f32>) {
    let mut corrupted = seq.to_vec();
    let mut labels = vec![0.0f32; seq.len()];
    for (i, &t) in seq.iter().enumerate() {
        if Vocab::is_special(t) {
            continue;
        }
        if rng.gen::<f32>() < prob {
            let replacement = random_token(vocab_size, rng);
            if replacement != t {
                corrupted[i] = replacement;
                labels[i] = 1.0;
            }
        }
    }
    (corrupted, labels)
}

fn random_token(vocab_size: usize, rng: &mut StdRng) -> TokenId {
    rng.gen_range(N_SPECIAL as u32..vocab_size as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlmConfig;
    use structmine_text::synth::recipes;

    #[test]
    fn mask_sequence_masks_only_real_tokens() {
        let mut rng = lrng::seeded(1);
        let seq = vec![
            structmine_text::vocab::CLS,
            7,
            8,
            9,
            structmine_text::vocab::SEP,
        ];
        for _ in 0..50 {
            let (masked, positions, gold) = mask_sequence(&seq, 0.5, 20, &mut rng);
            assert!(!positions.is_empty());
            for (&p, &g) in positions.iter().zip(&gold) {
                assert!((1..=3).contains(&p), "masked special position {p}");
                assert_eq!(seq[p], g);
            }
            assert_eq!(masked.len(), seq.len());
            assert_eq!(masked[0], structmine_text::vocab::CLS);
        }
    }

    #[test]
    fn corrupt_sequence_labels_match_changes() {
        let mut rng = lrng::seeded(2);
        let seq = vec![
            structmine_text::vocab::CLS,
            7,
            8,
            9,
            10,
            structmine_text::vocab::SEP,
        ];
        let (corrupted, labels) = corrupt_sequence(&seq, 0.8, 30, &mut rng);
        for i in 0..seq.len() {
            if labels[i] > 0.5 {
                assert_ne!(corrupted[i], seq[i]);
            } else {
                assert_eq!(corrupted[i], seq[i]);
            }
        }
    }

    #[test]
    fn pretraining_reduces_mlm_loss() {
        let corpus = recipes::pretraining_corpus(120, 5);
        let mut model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let report = pretrain(
            &mut model,
            &corpus,
            &PretrainConfig {
                steps: 300,
                batch: 6,
                ..Default::default()
            },
            &ExecPolicy::serial(),
        );
        assert!(
            report.final_mlm_loss < report.initial_mlm_loss * 0.92,
            "MLM loss did not drop: {} -> {}",
            report.initial_mlm_loss,
            report.final_mlm_loss
        );
    }

    #[test]
    fn sample_window_respects_bound() {
        let mut rng = lrng::seeded(3);
        let tokens: Vec<TokenId> = (5..105).collect();
        for _ in 0..20 {
            let w = sample_window(&tokens, 10, &mut rng);
            assert_eq!(w.len(), 10);
        }
        let short = sample_window(&tokens[..5], 10, &mut rng);
        assert_eq!(short.len(), 5);
    }
}
