//! Neural text classifiers trained on (pseudo-)labeled feature vectors.
//!
//! The tutorial's methods all bottom out in "train a neural classifier on
//! generated/pseudo-labeled data, then self-train". At our scale the
//! classifier is an MLP over document feature vectors (averaged embeddings,
//! class-oriented representations, PLM pools); `hidden = 0` degenerates to
//! softmax regression. Targets are *soft* distributions throughout, which is
//! what both pseudo-document generation (WeSTClass) and self-training
//! targets require.

use crate::graph::Graph;
use crate::layers::Linear;
use crate::params::{Adam, Binding, ParamStore};
use rand::seq::SliceRandom;
use structmine_linalg::{rng as lrng, Matrix};

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global-norm gradient clip (0 disables).
    pub clip: f32,
    /// RNG seed for shuffling and init.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch: 32,
            lr: 1e-2,
            clip: 5.0,
            seed: 7,
        }
    }
}

/// A one-hidden-layer MLP classifier (softmax output).
pub struct MlpClassifier {
    store: ParamStore,
    hidden: Option<Linear>,
    out: Linear,
    d_in: usize,
    n_classes: usize,
}

impl MlpClassifier {
    /// Build a classifier for `d_in`-dim features and `n_classes` outputs.
    /// `hidden = 0` yields plain softmax regression.
    pub fn new(d_in: usize, hidden: usize, n_classes: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(seed);
        let (hidden_layer, out_in) = if hidden > 0 {
            (
                Some(Linear::new(&mut store, "hidden", d_in, hidden, &mut rng)),
                hidden,
            )
        } else {
            (None, d_in)
        };
        let out = Linear::new(&mut store, "out", out_in, n_classes, &mut rng);
        MlpClassifier {
            store,
            hidden: hidden_layer,
            out,
            d_in,
            n_classes,
        }
    }

    /// Feature dimensionality expected by the classifier.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn logits(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: crate::graph::NodeId,
    ) -> crate::graph::NodeId {
        let h = match &self.hidden {
            Some(layer) => {
                let z = layer.forward(&self.store, g, binding, x);
                g.relu(z)
            }
            None => x,
        };
        self.out.forward(&self.store, g, binding, h)
    }

    /// Train on features `x` (`n x d_in`) against soft targets `t` (`n x c`).
    /// Returns the mean loss of the final epoch.
    pub fn fit(&mut self, x: &Matrix, targets: &Matrix, cfg: &TrainConfig) -> f32 {
        assert_eq!(x.rows(), targets.rows());
        assert_eq!(x.cols(), self.d_in, "feature dim mismatch");
        assert_eq!(targets.cols(), self.n_classes, "target dim mismatch");
        let n = x.rows();
        if n == 0 {
            return 0.0;
        }
        let mut adam = Adam::new(&self.store, cfg.lr, cfg.clip);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = lrng::seeded(cfg.seed);
        let mut last_epoch_loss = 0.0;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch.max(1)) {
                let xb = x.select_rows(chunk);
                let tb = targets.select_rows(chunk);
                let mut g = Graph::new();
                let mut binding = Binding::new();
                let xl = g.leaf(xb);
                let logits = self.logits(&mut g, &mut binding, xl);
                let loss = g.softmax_cross_entropy(logits, &tb);
                epoch_loss += g.value(loss).get(0, 0);
                batches += 1;
                g.backward(loss);
                adam.step(&mut self.store, &binding.grads(&g));
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        last_epoch_loss
    }

    /// Class probability rows for each feature row.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let xl = g.leaf(x.clone());
        let logits = self.logits(&mut g, &mut binding, xl);
        let mut probs = g.value(logits).clone();
        for i in 0..probs.rows() {
            structmine_linalg::stats::softmax_inplace(probs.row_mut(i));
        }
        probs
    }

    /// Hard argmax predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.predict_proba(x);
        (0..p.rows())
            .map(|i| structmine_linalg::vector::argmax(p.row(i)).unwrap_or(0))
            .collect()
    }
}

/// Build a one-hot (or smoothed) target matrix from hard labels.
pub fn one_hot(labels: &[usize], n_classes: usize, smoothing: f32) -> Matrix {
    let off = smoothing / n_classes as f32;
    let on = 1.0 - smoothing + off;
    let mut t = Matrix::filled(labels.len(), n_classes, off);
    for (i, &l) in labels.iter().enumerate() {
        t.set(i, l, on);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Two Gaussian blobs; classifier must separate them.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = lrng::seeded(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let cx = if c == 0 { -1.0 } else { 1.0 };
            x.set(i, 0, cx + lrng::gaussian(&mut rng) * 0.3);
            x.set(i, 1, cx + lrng::gaussian(&mut rng) * 0.3);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn softmax_regression_separates_blobs() {
        let (x, y) = blobs(200, 1);
        let mut clf = MlpClassifier::new(2, 0, 2, 3);
        clf.fit(
            &x,
            &one_hot(&y, 2, 0.0),
            &TrainConfig {
                epochs: 40,
                ..Default::default()
            },
        );
        let pred = clf.predict(&x);
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f32 / y.len() as f32;
        assert!(acc > 0.97, "acc {acc}");
    }

    #[test]
    fn mlp_solves_xor_that_linear_cannot() {
        let mut rng = lrng::seeded(5);
        let n = 400;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a: f32 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let b: f32 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            x.set(i, 0, a + lrng::gaussian(&mut rng) * 0.15);
            x.set(i, 1, b + lrng::gaussian(&mut rng) * 0.15);
            y.push(usize::from((a > 0.0) != (b > 0.0)));
        }
        let targets = one_hot(&y, 2, 0.0);
        let mut mlp = MlpClassifier::new(2, 16, 2, 9);
        mlp.fit(
            &x,
            &targets,
            &TrainConfig {
                epochs: 60,
                lr: 2e-2,
                ..Default::default()
            },
        );
        let acc = mlp
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f32
            / n as f32;
        assert!(acc > 0.95, "mlp acc {acc}");

        let mut lin = MlpClassifier::new(2, 0, 2, 9);
        lin.fit(
            &x,
            &targets,
            &TrainConfig {
                epochs: 60,
                lr: 2e-2,
                ..Default::default()
            },
        );
        let lin_acc = lin
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f32
            / n as f32;
        assert!(lin_acc < 0.75, "linear should fail xor, got {lin_acc}");
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let (x, y) = blobs(50, 2);
        let mut clf = MlpClassifier::new(2, 4, 2, 3);
        clf.fit(
            &x,
            &one_hot(&y, 2, 0.1),
            &TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let p = clf.predict_proba(&x);
        for i in 0..p.rows() {
            let sum: f32 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn one_hot_with_smoothing() {
        let t = one_hot(&[1], 4, 0.2);
        assert!((t.get(0, 1) - 0.85).abs() < 1e-6);
        assert!((t.get(0, 0) - 0.05).abs() < 1e-6);
        let sum: f32 = t.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn training_on_empty_data_is_a_noop() {
        let mut clf = MlpClassifier::new(3, 0, 2, 1);
        let loss = clf.fit(
            &Matrix::zeros(0, 3),
            &Matrix::zeros(0, 2),
            &TrainConfig::default(),
        );
        assert_eq!(loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn dim_mismatch_panics() {
        let mut clf = MlpClassifier::new(3, 0, 2, 1);
        clf.fit(
            &Matrix::zeros(4, 2),
            &Matrix::zeros(4, 2),
            &TrainConfig::default(),
        );
    }
}
