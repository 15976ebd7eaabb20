//! `pretrain` trains each sequence of a step on its own tape, across the
//! policy's threads, and reduces the leaf gradients in binding order. This
//! file keeps the single-tape step loop it replaced as the reference: every
//! sequence of a step on one shared tape, one `backward` over the summed
//! loss, one Adam step. Weights and per-step MLM losses must match it bit
//! for bit at every thread count.

use rand::Rng;
use structmine_linalg::{rng as lrng, ExecPolicy, Matrix};
use structmine_nn::graph::{Graph, NodeId};
use structmine_nn::params::Binding;
use structmine_plm::pretrain::{corrupt_sequence, mask_sequence, sample_window};
use structmine_plm::{pretrain, MiniPlm, PlmConfig, PretrainConfig};
use structmine_text::synth::recipes;
use structmine_text::{Corpus, Doc};

/// Per-step MLM losses of the shared-tape loop, plus how often it skipped
/// an empty document and an NLI negative whose other document was too short.
struct Reference {
    mlm_losses: Vec<f32>,
    empty_docs: usize,
    short_negatives: usize,
}

fn fold(g: &mut Graph, total: &mut Option<NodeId>, term: NodeId) {
    *total = Some(match total.take() {
        None => term,
        Some(acc) => g.add(acc, term),
    });
}

fn reference_pretrain(model: &mut MiniPlm, corpus: &Corpus, cfg: &PretrainConfig) -> Reference {
    let mut rng = lrng::seeded(cfg.seed);
    let mut adam = model.optimizer(cfg.lr);
    let vocab = model.config.vocab_size;
    let batch = cfg.batch as f32;
    let mut out = Reference {
        mlm_losses: Vec::new(),
        empty_docs: 0,
        short_negatives: 0,
    };
    for step in 0..cfg.steps {
        let frac = step as f32 / cfg.steps.max(1) as f32;
        let lr = if frac < 0.05 {
            cfg.lr * (frac / 0.05)
        } else {
            cfg.lr * (1.0 - 0.9 * (frac - 0.05) / 0.95)
        };
        adam.set_lr(lr.max(cfg.lr * 0.05));
        let (mut g, mut binding, bound) = (Graph::new(), Binding::new(), model.bound());
        let (mut total, mut step_mlm) = (None, 0.0f32);
        for b in 0..cfg.batch {
            let doc = &corpus.docs[rng.gen_range(0..corpus.len())];
            if doc.tokens.is_empty() {
                out.empty_docs += 1;
                continue;
            }
            let window = sample_window(&doc.tokens, model.config.max_len - 2, &mut rng);
            let seq = model.wrap(&window);
            let (masked, positions, gold) = mask_sequence(&seq, cfg.mask_prob, vocab, &mut rng);
            let h = bound.encode_with_binding(&mut g, &mut binding, &masked);
            let logits = bound.mlm_logits_with_binding(&mut g, &mut binding, h, &positions);
            let mut targets = Matrix::zeros(positions.len(), vocab);
            for (r, &t) in gold.iter().enumerate() {
                targets.set(r, t as usize, 1.0);
            }
            let loss = g.softmax_cross_entropy(logits, &targets);
            step_mlm += g.value(loss).get(0, 0);
            let term = g.scale(loss, 1.0 / batch);
            fold(&mut g, &mut total, term);
            if cfg.rtd_weight > 0.0 && b % 2 == 0 {
                let (corrupted, labels) = corrupt_sequence(&seq, 0.15, vocab, &mut rng);
                let h = bound.encode_with_binding(&mut g, &mut binding, &corrupted);
                let logits = bound.rtd_logits_with_binding(&mut g, &mut binding, h);
                let loss = g.sigmoid_bce(logits, &Matrix::from_vec(labels.len(), 1, labels));
                let term = g.scale(loss, 2.0 * cfg.rtd_weight / batch);
                fold(&mut g, &mut total, term);
            }
            if cfg.nli_weight > 0.0 && b % 4 == 0 && window.len() >= 6 {
                let mid = window.len() / 2;
                let entail: bool = rng.gen();
                let hypothesis = if entail {
                    &window[mid..]
                } else {
                    let other = &corpus.docs[rng.gen_range(0..corpus.len())].tokens;
                    if other.len() < 2 {
                        out.short_negatives += 1;
                        continue;
                    }
                    &other[other.len() / 2..]
                };
                let pair = model.wrap_pair(&window[..mid], hypothesis);
                let h = bound.encode_with_binding(&mut g, &mut binding, &pair);
                let logits = bound.nli_logits_with_binding(&mut g, &mut binding, h);
                let mut target = Matrix::zeros(1, 2);
                target.set(0, usize::from(entail), 1.0);
                let loss = g.softmax_cross_entropy(logits, &target);
                let term = g.scale(loss, 4.0 * cfg.nli_weight / batch);
                fold(&mut g, &mut total, term);
            }
        }
        if let Some(loss) = total {
            g.backward(loss);
            adam.step(model.store_mut(), &binding.grads(&g));
        }
        out.mlm_losses.push(step_mlm / batch);
    }
    out
}

fn bits(weights: &[Matrix]) -> Vec<u32> {
    weights
        .iter()
        .flat_map(|m| m.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn pretrain_matches_the_single_tape_loop_bitwise_at_every_thread_count() {
    // Four real documents, two empty ones and two of a single token: both
    // skip paths (empty document, too-short NLI negative) get exercised.
    let mut corpus = recipes::pretraining_corpus(4, 9);
    let first = corpus.docs[0].tokens[0];
    for tokens in [vec![], vec![first], vec![], vec![first]] {
        corpus.docs.push(Doc::from_tokens(tokens));
    }
    let config = PlmConfig::tiny(corpus.vocab.len());
    let cfg = PretrainConfig {
        steps: 30,
        batch: 8,
        ..Default::default()
    };

    let mut reference = MiniPlm::new(config);
    let want = reference_pretrain(&mut reference, &corpus, &cfg);
    assert!(want.empty_docs > 0, "no empty document was drawn");
    assert!(
        want.short_negatives > 0,
        "no too-short NLI negative was drawn"
    );
    let want_weights = bits(&reference.export_weights());

    for threads in [1, 2, 3] {
        let mut model = MiniPlm::new(config);
        let report = pretrain(
            &mut model,
            &corpus,
            &cfg,
            &ExecPolicy::with_threads(threads),
        );
        let got: Vec<u32> = report.mlm_losses.iter().map(|v| v.to_bits()).collect();
        let want_losses: Vec<u32> = want.mlm_losses.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want_losses, "mlm_losses at {threads} threads");
        assert!(
            bits(&model.export_weights()) == want_weights,
            "weights diverged at {threads} threads"
        );
    }
}
