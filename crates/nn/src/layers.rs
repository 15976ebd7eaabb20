//! Layer modules over the autograd tape.
//!
//! A layer owns [`ParamId`]s in a shared [`ParamStore`] and exposes a
//! `forward(graph, binding, input)` method that binds its parameters into
//! the current tape and appends its computation.

use crate::graph::{Graph, NodeId};
use crate::params::{Binding, ParamId, ParamStore};
use rand::rngs::StdRng;

/// Fully-connected layer `y = x W + b`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Register a `d_in -> d_out` linear layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.xavier(&format!("{name}.w"), d_in, d_out, rng);
        let b = store.zeros(&format!("{name}.b"), 1, d_out);
        Linear { w, b }
    }

    /// Apply the layer to `x` (`n x d_in`), yielding `n x d_out`.
    pub fn forward(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        binding: &mut Binding,
        x: NodeId,
    ) -> NodeId {
        let w = store.bind(g, self.w, binding);
        let b = store.bind(g, self.b, binding);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// The weight parameter (for weight tying / inspection).
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// The bias parameter.
    pub fn bias(&self) -> ParamId {
        self.b
    }
}

/// Token embedding table.
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    table: ParamId,
}

impl Embedding {
    /// Register a `vocab x d` embedding table.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        d: usize,
        rng: &mut StdRng,
    ) -> Self {
        let table = store.xavier(name, vocab, d, rng);
        Embedding { table }
    }

    /// Gather embeddings for a token-id sequence, yielding `len x d`.
    pub fn forward(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        binding: &mut Binding,
        ids: &[usize],
    ) -> NodeId {
        let table = store.bind(g, self.table, binding);
        g.select_rows(table, ids)
    }

    /// Bind the full table into the graph (for tied output projections).
    pub fn bind_table(&self, store: &ParamStore, g: &mut Graph, binding: &mut Binding) -> NodeId {
        store.bind(g, self.table, binding)
    }

    /// The underlying parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Clone, Copy, Debug)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    /// Register a layer-norm over feature dimension `d`.
    pub fn new(store: &mut ParamStore, name: &str, d: usize) -> Self {
        let gain = store.ones(&format!("{name}.g"), 1, d);
        let bias = store.zeros(&format!("{name}.b"), 1, d);
        LayerNorm { gain, bias }
    }

    /// Apply to `x` rows.
    pub fn forward(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        binding: &mut Binding,
        x: NodeId,
    ) -> NodeId {
        let gain = store.bind(g, self.gain, binding);
        let bias = store.bind(g, self.bias, binding);
        g.layer_norm(x, gain, bias)
    }

    /// The gain parameter.
    pub fn gain(&self) -> ParamId {
        self.gain
    }

    /// The bias parameter.
    pub fn bias(&self) -> ParamId {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Adam;
    use structmine_linalg::{rng as lrng, Matrix};

    #[test]
    fn linear_learns_a_linear_map() {
        // Fit y = 2x + 1 with a 1->1 linear layer.
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(1);
        let layer = Linear::new(&mut store, "l", 1, 1, &mut rng);
        let mut adam = Adam::new(&store, 0.05, 0.0);
        for step in 0..400 {
            let x_val = (step % 10) as f32 / 10.0;
            let y_val = 2.0 * x_val + 1.0;
            let mut g = Graph::new();
            let mut binding = Binding::new();
            let x = g.leaf(Matrix::from_vec(1, 1, vec![x_val]));
            let y = layer.forward(&store, &mut g, &mut binding, x);
            let t = g.leaf(Matrix::from_vec(1, 1, vec![-y_val]));
            let diff = g.add(y, t);
            let loss = g.mul(diff, diff);
            g.backward(loss);
            adam.step(&mut store, &binding.grads(&g));
        }
        assert!((store.value(layer.weight()).get(0, 0) - 2.0).abs() < 0.1);
        assert!((store.value(layer.bias()).get(0, 0) - 1.0).abs() < 0.1);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(2);
        let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let out = emb.forward(&store, &mut g, &mut binding, &[4, 0, 4]);
        assert_eq!(g.value(out).shape(), (3, 3));
        assert_eq!(g.value(out).row(0), g.value(out).row(2));
        assert_eq!(g.value(out).row(1), store.value(emb.table()).row(0));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let x = g.leaf(Matrix::from_rows(&[&[10.0, 20.0, 30.0, 40.0]]));
        let y = ln.forward(&store, &mut g, &mut binding, x);
        let row = g.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-2);
    }
}
