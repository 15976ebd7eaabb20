//! E11 (extension) — ablations over the design choices DESIGN.md calls out:
//!
//! * the **PLM scaling curve**: how downstream weakly-supervised accuracy
//!   grows with pretraining compute (the tutorial's "power of pre-trained
//!   language models" claim, measured directly);
//! * WeSTClass's pseudo-document budget;
//! * X-Class's GMM anchoring (EM iterations vs drift);
//! * ConWea's seed-expansion width.

use crate::table::f3;
use crate::{standard_word_vectors, BenchConfig, BenchError, Table};
use structmine::conwea::ConWea;
use structmine::westclass::WeSTClass;
use structmine::xclass::XClass;
use structmine_linalg::ExecPolicy;
use structmine_plm::{pretrain, MiniPlm, PlmConfig, PretrainConfig};
use structmine_text::synth::recipes;

/// Run all ablations.
pub fn run(cfg: &BenchConfig) -> Result<Vec<Table>, BenchError> {
    Ok(vec![
        plm_scaling_curve(cfg)?,
        westclass_pseudo_budget(cfg)?,
        xclass_gmm_anchoring(cfg)?,
        conwea_expansion_width(cfg)?,
    ])
}

/// Downstream X-Class accuracy as a function of PLM pretraining steps.
pub fn plm_scaling_curve(cfg: &BenchConfig) -> Result<Table, BenchError> {
    let mut t = Table::new("E11a — PLM pretraining compute vs downstream weak classification");
    t.note("X-Class on agnews with label names only; the same architecture pretrained longer");
    t.headers(&["pretraining steps", "final MLM loss", "X-Class accuracy"]);
    let corpus = recipes::pretraining_corpus(600, 11);
    let d = recipes::agnews(cfg.scale, 11)?;
    let mut accs = Vec::new();
    for &steps in &[150usize, 500, 1500, 3000] {
        let mut model = MiniPlm::new(PlmConfig {
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            max_len: 32,
            ..PlmConfig::tiny(corpus.vocab.len())
        });
        let report = pretrain(
            &mut model,
            &corpus,
            &PretrainConfig {
                steps,
                batch: 8,
                seed: 13,
                ..Default::default()
            },
            ExecPolicy::global(),
        );
        let out = XClass::default().run(&d, &model);
        let acc = crate::test_accuracy(&d, &out.predictions);
        accs.push(acc);
        t.row(vec![steps.to_string(), f3(report.final_mlm_loss), f3(acc)]);
    }
    let first = accs.first().copied().unwrap_or(0.0);
    let last = accs.last().copied().unwrap_or(0.0);
    t.check(
        format!("more pretraining helps downstream weak supervision ({first:.3} -> {last:.3})"),
        last > first,
    );
    Ok(t)
}

/// WeSTClass accuracy vs pseudo-document budget.
pub fn westclass_pseudo_budget(cfg: &BenchConfig) -> Result<Table, BenchError> {
    let mut t = Table::new("E11b — WeSTClass pseudo-document budget");
    t.headers(&["pseudo docs / class", "accuracy"]);
    let d = recipes::agnews(cfg.scale, 12)?;
    let wv = standard_word_vectors(&d);
    let mut accs = Vec::new();
    for &n in &[5usize, 20, 80, 160] {
        let out = WeSTClass {
            pseudo_per_class: n,
            seed: 12,
            ..Default::default()
        }
        .run(&d, &d.supervision_names(), &wv);
        let acc = crate::test_accuracy(&d, &out.predictions);
        accs.push(acc);
        t.row(vec![n.to_string(), f3(acc)]);
    }
    t.check(
        format!(
            "a real budget beats a starved one ({:.3} @5 vs {:.3} @80)",
            accs[0], accs[2]
        ),
        accs[2] >= accs[0] - 0.02,
    );
    Ok(t)
}

/// X-Class: EM iterations of the alignment GMM (anchoring vs drift).
pub fn xclass_gmm_anchoring(cfg: &BenchConfig) -> Result<Table, BenchError> {
    let mut t = Table::new("E11c — X-Class GMM anchoring: EM iterations vs drift");
    t.note("long EM runs drift from the class-seeded prior toward whatever unsupervised structure dominates");
    t.headers(&["EM iterations", "align accuracy", "final accuracy"]);
    let d = recipes::agnews(cfg.scale, 13)?;
    let plm = crate::adapted_plm(&d, 13);
    let mut finals = Vec::new();
    for &iters in &[1usize, 2, 4, 16] {
        let out = XClass {
            gmm_iters: iters,
            seed: 13,
            ..Default::default()
        }
        .run(&d, &plm);
        let align = crate::test_accuracy(&d, &out.align_predictions);
        let fin = crate::test_accuracy(&d, &out.predictions);
        finals.push(fin);
        t.row(vec![iters.to_string(), f3(align), f3(fin)]);
    }
    t.check(
        format!(
            "anchored EM (1 iter, {:.3}) >= long EM (16 iters, {:.3})",
            finals[0], finals[3]
        ),
        finals[0] >= finals[3] - 0.02,
    );
    Ok(t)
}

/// ConWea: seed-expansion width.
pub fn conwea_expansion_width(cfg: &BenchConfig) -> Result<Table, BenchError> {
    let mut t = Table::new("E11d — ConWea seed-expansion width");
    t.headers(&["expansion words / class", "accuracy"]);
    let d = recipes::nyt_coarse(cfg.scale, 14)?;
    let plm = crate::adapted_plm(&d, 14);
    let mut accs = Vec::new();
    for &n in &[0usize, 4, 8, 16] {
        let out = ConWea {
            expand: n > 0,
            expand_per_class: n.max(1),
            seed: 14,
            ..Default::default()
        }
        .run(&d, &d.supervision_keywords(), &plm);
        let acc = crate::test_accuracy(&d, &out.predictions);
        accs.push(acc);
        t.row(vec![n.to_string(), f3(acc)]);
    }
    t.check(
        format!(
            "some expansion helps over none ({:.3} @0 vs {:.3} @8)",
            accs[0], accs[2]
        ),
        accs[2] >= accs[0] - 0.02,
    );
    Ok(t)
}
