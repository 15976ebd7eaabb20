//! Parameter storage and the Adam optimizer.
//!
//! Models own a [`ParamStore`]; each training step binds parameters into a
//! fresh [`Graph`](crate::graph::Graph) as leaves (recording the mapping in a
//! [`Binding`]), runs forward/backward, and hands the leaf gradients
//! ([`Binding::grads`]) to [`Adam::step`], which applies them to the store.

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use structmine_linalg::{rng as lrng, Matrix};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(usize);

/// Named parameter matrices.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    /// Weight-write generation. Every mutation entry point — [`Self::value_mut`],
    /// [`Self::import_values`], and [`Adam::step`] — bumps it, so a cache of
    /// values derived from the weights (the PLM's packed-weight snapshot)
    /// can key on it and never serve a value from before a write.
    generation: u64,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with an explicit initial value.
    pub fn add(&mut self, name: &str, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Register a parameter with Xavier/Glorot-style Gaussian init.
    pub fn xavier(&mut self, name: &str, rows: usize, cols: usize, rng: &mut StdRng) -> ParamId {
        let std = (2.0 / (rows + cols) as f32).sqrt();
        let mut m = Matrix::zeros(rows, cols);
        lrng::fill_gaussian(rng, m.data_mut(), std);
        self.add(name, m)
    }

    /// Register a zero-initialized parameter (biases).
    pub fn zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::zeros(rows, cols))
    }

    /// Register a ones-initialized parameter (layer-norm gains).
    pub fn ones(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::filled(rows, cols, 1.0))
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (for manual updates, e.g. embedding freezing).
    ///
    /// Counts as a weight write: it bumps [`Self::generation`].
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.note_weight_write();
        &mut self.values[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn n_scalars(&self) -> usize {
        self.values.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Snapshot all parameter values (for serialization).
    pub fn export_values(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Restore parameter values from a snapshot taken on an identically
    /// constructed store.
    ///
    /// # Panics
    /// Panics if the snapshot's shapes do not match.
    pub fn import_values(&mut self, values: Vec<Matrix>) {
        assert_eq!(values.len(), self.values.len(), "parameter count mismatch");
        self.note_weight_write();
        for (cur, new) in self.values.iter_mut().zip(values) {
            assert_eq!(cur.shape(), new.shape(), "parameter shape mismatch");
            *cur = new;
        }
    }

    /// Current weight-write generation (bumped by every mutation entry
    /// point; see the `generation` field).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record that parameter values may have changed.
    fn note_weight_write(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Copy the parameter into `graph` as a leaf (through the graph's buffer
    /// arena) and record the pairing for the optimizer step.
    pub fn bind(&self, graph: &mut Graph, id: ParamId, binding: &mut Binding) -> NodeId {
        let node = graph.leaf_copied(&self.values[id.0]);
        binding.pairs.push((id, node));
        node
    }
}

/// The `(parameter, graph leaf)` pairs of one training step.
#[derive(Default)]
pub struct Binding {
    pairs: Vec<(ParamId, NodeId)>,
}

impl Binding {
    /// An empty binding that records parameter/leaf pairs for a later
    /// optimizer step.
    pub fn new() -> Self {
        Self::default()
    }

    /// Each recorded leaf's gradient on `graph` (`None` when it received
    /// none), in binding order — the input of [`Adam::step`].
    pub fn grads<'g>(&self, graph: &'g Graph) -> Vec<(ParamId, Option<&'g Matrix>)> {
        self.pairs
            .iter()
            .map(|&(pid, nid)| (pid, graph.grad_ref(nid)))
            .collect()
    }
}

/// Adam optimizer state.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Create an optimizer for `store` with the given learning rate and a
    /// global-norm gradient clip (0 disables clipping).
    pub fn new(store: &ParamStore, lr: f32, clip: f32) -> Self {
        let m = store
            .values
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = store
            .values
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip,
            t: 0,
            m,
            v,
        }
    }

    /// Override the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update from `(parameter, leaf gradient)` pairs, in binding
    /// order (see [`Binding::grads`]). A parameter may appear several times
    /// (e.g. once per sequence in a batch); its true gradient is the sum
    /// over all of its leaves, folded in the order given and applied as ONE
    /// update. Only parameters that appear are updated.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Option<&Matrix>)]) {
        self.t += 1;
        // The loop below writes store.values directly (bypassing value_mut),
        // so count the write here.
        store.note_weight_write();
        let mut summed: Vec<Option<Matrix>> = vec![None; store.len()];
        for &(pid, grad) in grads {
            // A leaf with no gradient still participates as an all-zeros
            // contribution (its entry must exist so m/v decay even when
            // the parameter got no signal this step).
            match (&mut summed[pid.0], grad) {
                (slot @ None, g) => {
                    *slot = Some(match g {
                        Some(g) => g.clone(),
                        None => {
                            let p = &store.values[pid.0];
                            Matrix::zeros(p.rows(), p.cols())
                        }
                    });
                }
                (Some(acc), Some(g)) => acc.axpy(1.0, g),
                // Keep the historical `+= 0.0` pass so bit patterns match
                // the old zeros-materializing path exactly (it canonicalizes
                // any -0.0 to +0.0).
                (Some(acc), None) => {
                    for x in acc.data_mut() {
                        *x += 0.0;
                    }
                }
            }
        }
        let mut grads: Vec<(usize, Matrix)> = summed
            .into_iter()
            .enumerate()
            .filter_map(|(pid, g)| Some((pid, g?)))
            .collect();

        if self.clip > 0.0 {
            let norm: f32 = grads
                .iter()
                .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > self.clip {
                let s = self.clip / norm;
                for (_, g) in &mut grads {
                    g.scale_in_place(s);
                }
            }
        }

        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (pid, grad) in grads {
            let m = &mut self.m[pid];
            let v = &mut self.v[pid];
            let p = &mut store.values[pid];
            for ((pv, gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize ||x - target||^2 via the tape and Adam; must converge.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::filled(1, 3, 5.0));
        let target = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        let mut adam = Adam::new(&store, 0.1, 0.0);
        for _ in 0..300 {
            let mut g = Graph::new();
            let mut binding = Binding::new();
            let xl = store.bind(&mut g, x, &mut binding);
            let t = g.leaf(target.clone());
            let neg_t = g.scale(t, -1.0);
            let diff = g.add(xl, neg_t);
            let sq = g.mul(diff, diff);
            // Sum to scalar via matmul with ones.
            let ones = g.leaf(Matrix::filled(3, 1, 1.0));
            let loss = g.matmul(sq, ones);
            g.backward(loss);
            adam.step(&mut store, &binding.grads(&g));
        }
        for (a, b) in store.value(x).data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::filled(1, 1, 0.0));
        let mut adam = Adam::new(&store, 1.0, 0.001);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let xl = store.bind(&mut g, x, &mut binding);
        // loss = 1000 * x  ->  raw grad 1000, clipped to 0.001.
        let loss = g.scale(xl, 1000.0);
        g.backward(loss);
        adam.step(&mut store, &binding.grads(&g));
        // Adam normalizes by sqrt(v), so magnitude is bounded by lr regardless;
        // the real check is that clipping didn't blow up and sign is right.
        assert!(store.value(x).get(0, 0) < 0.0);
        assert!(store.value(x).get(0, 0).abs() <= 1.0);
    }

    #[test]
    fn xavier_init_scales_with_fan() {
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(1);
        let big = store.xavier("big", 400, 400, &mut rng);
        let small = store.xavier("small", 4, 4, &mut rng);
        let std_of = |m: &Matrix| {
            let mean: f32 = m.data().iter().sum::<f32>() / m.data().len() as f32;
            (m.data()
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f32>()
                / m.data().len() as f32)
                .sqrt()
        };
        assert!(std_of(store.value(big)) < std_of(store.value(small)));
    }

    /// Every write entry point bumps the generation that derived-weight
    /// caches key on; reads do not.
    #[test]
    fn every_write_entry_point_bumps_generation() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let g0 = store.generation();
        let _ = store.value(id);
        let snapshot = store.export_values();
        assert_eq!(store.generation(), g0, "reads must not bump");

        // value_mut counts even without an actual data change.
        store.value_mut(id);
        let g1 = store.generation();
        assert_ne!(g1, g0);

        store.import_values(snapshot);
        let g2 = store.generation();
        assert_ne!(g2, g1);

        // Adam::step writes store.values directly, so it must bump too.
        let mut adam = Adam::new(&store, 0.1, 0.0);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let leaf = store.bind(&mut g, id, &mut binding);
        let ones_l = g.leaf(Matrix::filled(1, 2, 1.0));
        let ones_r = g.leaf(Matrix::filled(2, 1, 1.0));
        let rowsum = g.matmul(ones_l, leaf);
        let loss = g.matmul(rowsum, ones_r);
        g.backward(loss);
        adam.step(&mut store, &binding.grads(&g));
        assert_ne!(store.generation(), g2);
    }

    #[test]
    fn store_accessors() {
        let mut store = ParamStore::new();
        assert!(store.is_empty());
        let id = store.zeros("b", 2, 3);
        assert_eq!(store.name(id), "b");
        assert_eq!(store.n_scalars(), 6);
        assert_eq!(store.len(), 1);
        store.value_mut(id).set(0, 0, 9.0);
        assert_eq!(store.value(id).get(0, 0), 9.0);
    }
}
