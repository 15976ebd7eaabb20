//! Attention-pooling sequence classifier ("HAN-lite").
//!
//! The hierarchical attention network used by WeSTClass-HAN reads a word
//! sequence, scores each word with a learned attention vector, pools, and
//! classifies. This is that architecture reduced to one level: token
//! embeddings are *fixed inputs* (the static embedding table), and the
//! model learns the attention scorer and the output head:
//!
//! ```text
//! s_t = u · tanh(W e_t + b)        (attention logits)
//! a   = softmax(s)                  (word weights)
//! doc = Σ_t a_t · e_t               (attention pool)
//! y   = softmax(V doc + c)
//! ```

use crate::graph::{Graph, NodeId};
use crate::layers::Linear;
use crate::params::{Adam, Binding, ParamStore};
use rand::seq::SliceRandom;
use structmine_linalg::{rng as lrng, vector, Matrix};

/// Attention-pooling classifier over fixed token-embedding sequences.
pub struct AttnPoolClassifier {
    store: ParamStore,
    attn_proj: Linear,
    attn_vec: crate::params::ParamId,
    out: Linear,
    d_in: usize,
    d_attn: usize,
    n_classes: usize,
}

impl AttnPoolClassifier {
    /// Build a classifier over `d_in`-dimensional token embeddings.
    pub fn new(d_in: usize, d_attn: usize, n_classes: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(seed);
        let attn_proj = Linear::new(&mut store, "attn.proj", d_in, d_attn, &mut rng);
        let attn_vec = store.xavier("attn.u", d_attn, 1, &mut rng);
        let out = Linear::new(&mut store, "out", d_in, n_classes, &mut rng);
        AttnPoolClassifier {
            store,
            attn_proj,
            attn_vec,
            out,
            d_in,
            d_attn,
            n_classes,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Attention width.
    pub fn d_attn(&self) -> usize {
        self.d_attn
    }

    fn forward(&self, g: &mut Graph, binding: &mut Binding, seq: &Matrix) -> (NodeId, NodeId) {
        debug_assert_eq!(seq.cols(), self.d_in);
        let x = g.leaf(seq.clone());
        let proj = self.attn_proj.forward(&self.store, g, binding, x);
        let act = g.tanh(proj);
        let u = self.store.bind(g, self.attn_vec, binding);
        let scores = g.matmul(act, u); // len x 1
        let scores_t = g.transpose(scores); // 1 x len
        let weights = g.row_softmax(scores_t);
        let pooled = g.matmul(weights, x); // 1 x d_in
        let logits = self.out.forward(&self.store, g, binding, pooled);
        (logits, weights)
    }

    /// Train on token-embedding sequences with soft targets (`n x classes`).
    pub fn fit(
        &mut self,
        sequences: &[Matrix],
        targets: &Matrix,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> f32 {
        assert_eq!(sequences.len(), targets.rows());
        if sequences.is_empty() {
            return 0.0;
        }
        let mut adam = Adam::new(&self.store, lr, 5.0);
        let mut order: Vec<usize> = (0..sequences.len()).collect();
        let mut rng = lrng::seeded(seed);
        let mut last = 0.0f32;
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(16) {
                let mut g = Graph::new();
                let mut binding = Binding::new();
                let mut total: Option<NodeId> = None;
                for &i in chunk {
                    if sequences[i].rows() == 0 {
                        continue;
                    }
                    let (logits, _) = self.forward(&mut g, &mut binding, &sequences[i]);
                    let t = targets.select_rows(&[i]);
                    let loss = g.softmax_cross_entropy(logits, &t);
                    let scaled = g.scale(loss, 1.0 / chunk.len() as f32);
                    total = Some(match total {
                        None => scaled,
                        Some(acc) => g.add(acc, scaled),
                    });
                }
                if let Some(loss) = total {
                    epoch_loss += g.value(loss).get(0, 0);
                    g.backward(loss);
                    adam.step(&mut self.store, &binding.grads(&g));
                }
            }
            last = epoch_loss;
        }
        last
    }

    /// Class probabilities for one sequence.
    pub fn predict_proba_one(&self, seq: &Matrix) -> Vec<f32> {
        if seq.rows() == 0 {
            return vec![1.0 / self.n_classes as f32; self.n_classes];
        }
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let (logits, _) = self.forward(&mut g, &mut binding, seq);
        let mut probs = g.value(logits).row(0).to_vec();
        structmine_linalg::stats::softmax_inplace(&mut probs);
        probs
    }

    /// Class probabilities for many sequences (`n x classes`).
    pub fn predict_proba(&self, sequences: &[Matrix]) -> Matrix {
        let mut out = Matrix::zeros(sequences.len(), self.n_classes);
        for (i, seq) in sequences.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&self.predict_proba_one(seq));
        }
        out
    }

    /// Hard predictions.
    pub fn predict(&self, sequences: &[Matrix]) -> Vec<usize> {
        sequences
            .iter()
            .map(|s| vector::argmax(&self.predict_proba_one(s)).unwrap_or(0))
            .collect()
    }

    /// The attention weights the model assigns to each token of a sequence
    /// (diagnostics: which words the classifier considers important).
    pub fn attention_weights(&self, seq: &Matrix) -> Vec<f32> {
        if seq.rows() == 0 {
            return Vec::new();
        }
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let (_, weights) = self.forward(&mut g, &mut binding, seq);
        g.value(weights).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_linalg::rng as lrng;

    /// Sequences where only ONE token (position varies) carries the class
    /// signal; attention must find it, mean-pooling dilutes it.
    fn needle_data(n: usize, seed: u64) -> (Vec<Matrix>, Vec<usize>) {
        let mut rng = lrng::seeded(seed);
        let mut seqs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let len = 12;
            let mut m = Matrix::zeros(len, 4);
            lrng::fill_gaussian(&mut rng, m.data_mut(), 0.15);
            // One needle token encodes the class in dimension 0/1.
            use rand::Rng;
            let pos = rng.gen_range(0..len);
            m.set(pos, 0, if class == 0 { 2.0 } else { -2.0 });
            m.set(pos, 1, if class == 0 { -2.0 } else { 2.0 });
            // Mark the needle in dims 2/3 so attention has a cue.
            m.set(pos, 2, 1.5);
            m.set(pos, 3, 1.5);
            seqs.push(m);
            labels.push(class);
        }
        (seqs, labels)
    }

    #[test]
    fn attention_finds_needle_tokens() {
        let (seqs, labels) = needle_data(160, 1);
        let targets = crate::classifiers::one_hot(&labels, 2, 0.05);
        let mut clf = AttnPoolClassifier::new(4, 8, 2, 3);
        clf.fit(&seqs, &targets, 40, 2e-2, 7);
        let preds = clf.predict(&seqs);
        let acc =
            preds.iter().zip(&labels).filter(|(a, b)| a == b).count() as f32 / labels.len() as f32;
        assert!(acc > 0.9, "attention classifier acc {acc}");
    }

    #[test]
    fn attention_weights_concentrate_on_the_needle() {
        let (seqs, labels) = needle_data(160, 2);
        let targets = crate::classifiers::one_hot(&labels, 2, 0.05);
        let mut clf = AttnPoolClassifier::new(4, 8, 2, 4);
        clf.fit(&seqs, &targets, 40, 2e-2, 8);
        // For each sequence the argmax-attention token should be the needle
        // (identified by dims 2/3 = 1.5) most of the time.
        let mut hits = 0usize;
        for seq in seqs.iter().take(50) {
            let w = clf.attention_weights(seq);
            let best = vector::argmax(&w).unwrap();
            if seq.get(best, 2) > 1.0 {
                hits += 1;
            }
        }
        // Chance would be ~4/50 (12 positions); the attention head should
        // concentrate far above that even when classification is already
        // solvable without perfect localization.
        assert!(hits >= 18, "attention found the needle in only {hits}/50");
    }

    #[test]
    fn empty_sequence_is_uniform() {
        let clf = AttnPoolClassifier::new(4, 8, 3, 5);
        let p = clf.predict_proba_one(&Matrix::zeros(0, 4));
        assert!(p.iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let clf = AttnPoolClassifier::new(4, 8, 2, 6);
        let mut rng = lrng::seeded(9);
        let mut seq = Matrix::zeros(7, 4);
        lrng::fill_gaussian(&mut rng, seq.data_mut(), 1.0);
        let w = clf.attention_weights(&seq);
        assert_eq!(w.len(), 7);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
