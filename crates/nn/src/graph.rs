//! Reverse-mode automatic differentiation over dense `f32` matrices.
//!
//! A [`Graph`] is a tape of [`Node`]s. Forward methods append nodes; calling
//! [`Graph::backward`] on a scalar loss walks the tape in reverse and
//! accumulates gradients. Operations are an enum rather than closures so the
//! backward pass can borrow values and gradients without aliasing gymnastics.
//!
//! The op set is exactly what training needs: affine maps, activations,
//! layer norm, row softmax (attention, plain and fused with the attention
//! scale), the transpose-free product `a × bᵀ`, embedding gather, pooling,
//! column concat (multi-head attention), and two fused losses (softmax
//! cross-entropy with soft targets, sigmoid BCE). Every op is
//! differentiable, and each op's gradient is verified against finite
//! differences in the tests. Every tape computes at the Exact tier;
//! no-gradient forwards run without a tape (`structmine_plm`'s inference
//! forward), through the same per-op arithmetic in [`crate::ops`].
//!
//! # Buffer arena
//!
//! Every node value, gradient, and backward intermediate is drawn from a
//! thread-local pool of recycled buffers (see [`arena`]) and returned to it
//! when the graph is dropped or [`Graph::reset`]. Training loops that build
//! hundreds of same-shaped nodes per step therefore stop allocating after
//! the first step. The arena is bitwise-transparent: a recycled buffer is
//! always fully overwritten (or explicitly zeroed) before use, so results
//! are byte-identical to freshly allocated storage — property-tested below.

use crate::ops;
use structmine_linalg::{ExecPolicy, Matrix, Precision, Rhs};

/// Thread-local recycling pool for matrix buffers, keyed by element count.
///
/// Thread-local (rather than shared) so no lock sits on the training hot
/// path and so reuse on one thread can never observe another thread's
/// scheduling — the pool affects only *where* buffers come from, never what
/// is computed, keeping the exec layer's bitwise thread-count invariance
/// intact. Reuse totals are reported through the `nn.arena_reuse_threads`
/// counter (flushed per graph); the `threads` token keeps it under the run
/// report's masking convention since per-thread warm-up makes the value
/// legitimately thread-count-dependent.
mod arena {
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use structmine_linalg::Matrix;

    /// Buffers retained per distinct length — roughly one training step's
    /// worth of live matrices; anything beyond that is released to the
    /// allocator.
    const MAX_PER_LEN: usize = 256;

    thread_local! {
        static POOL: RefCell<HashMap<usize, Vec<Vec<f32>>>> = RefCell::new(HashMap::new());
        static REUSED: Cell<u64> = const { Cell::new(0) };
    }

    /// Take a `rows x cols` matrix with unspecified contents. The caller
    /// must fully overwrite it before the values are observable.
    pub(crate) fn take_uninit(rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let recycled = POOL.with(|p| p.borrow_mut().get_mut(&len).and_then(Vec::pop));
        match recycled {
            Some(buf) => {
                REUSED.with(|c| c.set(c.get() + 1));
                Matrix::from_vec(rows, cols, buf)
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Take a `rows x cols` matrix guaranteed to be all zeros.
    pub(crate) fn take_zeroed(rows: usize, cols: usize) -> Matrix {
        let mut m = take_uninit(rows, cols);
        m.data_mut().fill(0.0);
        m
    }

    /// Take a pooled copy of `src`.
    pub(crate) fn take_copy(src: &Matrix) -> Matrix {
        let mut m = take_uninit(src.rows(), src.cols());
        m.data_mut().copy_from_slice(src.data());
        m
    }

    /// Return a matrix's buffer to the pool.
    pub(crate) fn give_back(m: Matrix) {
        let buf = m.into_vec();
        if buf.is_empty() {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            let bucket = pool.entry(buf.len()).or_default();
            if bucket.len() < MAX_PER_LEN {
                bucket.push(buf);
            }
        });
    }

    /// Flush this thread's reuse tally to the observability counter.
    pub(crate) fn flush_reuse_counter() {
        let n = REUSED.with(Cell::take);
        structmine_store::obs::counter_add("nn.arena_reuse_threads", n);
    }
}

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    AddRowBroadcast(NodeId, NodeId),
    Scale(NodeId, f32),
    Mul(NodeId, NodeId),
    MatMul(NodeId, NodeId),
    /// `a × bᵀ` without materializing the transpose.
    MatMulT(NodeId, NodeId),
    Transpose(NodeId),
    Relu(NodeId),
    /// (input, cached per-element tanh of the GELU inner term — reused in
    /// the backward pass so the tanh is computed exactly once)
    Gelu(NodeId, Matrix),
    Tanh(NodeId),
    Sigmoid(NodeId),
    RowSoftmax(NodeId),
    /// Fused `row_softmax(s * a)` — the attention score path (scale factor
    /// kept for the backward chain rule).
    ScaledRowSoftmax(NodeId, f32),
    /// (input, gain, bias, cached normalized rows, cached inv-std per row)
    LayerNorm(NodeId, NodeId, NodeId, Matrix, Vec<f32>),
    SelectRows(NodeId, Vec<usize>),
    MeanRows(NodeId),
    ConcatCols(Vec<NodeId>),
    /// (logits, soft target distribution, cached probabilities)
    SoftmaxCe(NodeId, Matrix, Matrix),
    /// (logits, 0/1-or-soft targets, cached sigmoid values)
    SigmoidBce(NodeId, Matrix, Matrix),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A tape of matrix operations supporting reverse-mode differentiation.
///
/// Every tape computes at the Exact tier: libm transcendentals and the
/// bit-reproducible matmul kernels, whatever `STRUCTMINE_PRECISION` says.
pub struct Graph {
    nodes: Vec<Node>,
    /// The policy every product on this tape runs under: the creator's
    /// thread count, with the tier pinned to Exact so a Fast process never
    /// trains on (or checkpoints) Fast arithmetic.
    policy: ExecPolicy,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// An empty tape whose products use the process-global thread count.
    pub fn new() -> Self {
        Graph::with_policy(ExecPolicy::global())
    }

    /// An empty tape whose products use `policy`'s thread count, at the
    /// Exact tier whatever `policy`'s precision. A tape built inside an
    /// exec-layer worker passes [`ExecPolicy::serial`], so the parallelism
    /// stays one level up, across tapes. The thread count never changes a
    /// bit of any value or gradient.
    pub fn with_policy(policy: &ExecPolicy) -> Self {
        Graph {
            nodes: Vec::new(),
            policy: policy.with_precision(Precision::Exact),
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Insert a leaf (input or parameter copy).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Insert a leaf holding a pooled copy of `value` — the arena-friendly
    /// way to bind a parameter without a fresh allocation per step.
    pub fn leaf_copied(&mut self, value: &Matrix) -> NodeId {
        let v = arena::take_copy(value);
        self.push(v, Op::Leaf)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The accumulated gradient of a node (zeros if it never received one).
    pub fn grad(&self, id: NodeId) -> Matrix {
        match &self.nodes[id.0].grad {
            Some(g) => g.clone(),
            None => {
                let v = &self.nodes[id.0].value;
                Matrix::zeros(v.rows(), v.cols())
            }
        }
    }

    /// Borrow the accumulated gradient of a node, if any.
    pub fn grad_ref(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the tape for the next training step, recycling every node's
    /// value, gradient, and cached-activation storage through the arena.
    /// Equivalent to dropping the graph and building a new one, but keeps
    /// the node vector's capacity.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            recycle_node(node);
        }
        arena::flush_reuse_counter();
    }

    // --- forward ops -------------------------------------------------------

    /// Element-wise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for (o, (x, y)) in v.data_mut().iter_mut().zip(va.data().iter().zip(vb.data())) {
            *o = x + y;
        }
        self.push(v, Op::Add(a, b))
    }

    /// Add a `1 x d` row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let b = &self.nodes[bias.0].value;
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(b.cols(), va.cols(), "broadcast length mismatch");
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for i in 0..va.rows() {
            for ((o, &x), &y) in v.row_mut(i).iter_mut().zip(va.row(i)).zip(b.row(0)) {
                *o = x + y;
            }
        }
        self.push(v, Op::AddRowBroadcast(a, bias))
    }

    /// `a * s`.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for (o, &x) in v.data_mut().iter_mut().zip(va.data()) {
            *o = x * s;
        }
        self.push(v, Op::Scale(a, s))
    }

    /// Element-wise `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for (o, (x, y)) in v.data_mut().iter_mut().zip(va.data().iter().zip(vb.data())) {
            *o = x * y;
        }
        self.push(v, Op::Mul(a, b))
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut v = arena::take_uninit(va.rows(), vb.cols());
        va.gemm(Rhs::Dense(vb), &mut v, &self.policy);
        self.push(v, Op::MatMul(a, b))
    }

    /// Matrix product `a × bᵀ` without materializing the transpose —
    /// replaces `matmul(a, transpose(b))` on the attention and tied-
    /// projection paths (same element-wise summation order, two fewer
    /// tape nodes, no transposed copy).
    pub fn matmul_t(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut v = arena::take_uninit(va.rows(), vb.rows());
        va.gemm(Rhs::Transposed(vb), &mut v, &self.policy);
        self.push(v, Op::MatMulT(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(va.cols(), va.rows());
        va.transpose_into(&mut v);
        self.push(v, Op::Transpose(a))
    }

    /// ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// GELU (tanh approximation). The inner tanh of each element is cached
    /// on the op and reused by the backward pass, halving the number of
    /// tanh evaluations per training step without changing any bit of the
    /// result.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(va.rows(), va.cols());
        let mut cached_t = arena::take_uninit(va.rows(), va.cols());
        for ((o, t), &x) in v
            .data_mut()
            .iter_mut()
            .zip(cached_t.data_mut().iter_mut())
            .zip(va.data())
        {
            (*o, *t) = ops::gelu(x, f32::tanh);
        }
        self.push(v, Op::Gelu(a, cached_t))
    }

    /// tanh.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, |x| ops::sigmoid(x, f32::exp));
        self.push(v, Op::Sigmoid(a))
    }

    /// Softmax independently over each row.
    pub fn row_softmax(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_copy(va);
        for i in 0..v.rows() {
            structmine_linalg::stats::softmax_inplace(v.row_mut(i));
        }
        self.push(v, Op::RowSoftmax(a))
    }

    /// Fused `row_softmax(s * a)` — one node instead of a Scale node plus a
    /// RowSoftmax node, with the scaled scores never hitting the tape. The
    /// element-wise arithmetic (multiply, then softmax) is identical to the
    /// unfused chain, so outputs match it bitwise.
    pub fn scaled_row_softmax(&mut self, a: NodeId, s: f32) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for (o, &x) in v.data_mut().iter_mut().zip(va.data()) {
            *o = x * s;
        }
        for i in 0..v.rows() {
            structmine_linalg::stats::softmax_inplace(v.row_mut(i));
        }
        self.push(v, Op::ScaledRowSoftmax(a, s))
    }

    /// Layer normalization over each row, with learned gain and bias
    /// (`1 x d` leaves).
    pub fn layer_norm(&mut self, a: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let g = &self.nodes[gain.0].value;
        let b = &self.nodes[bias.0].value;
        assert_eq!(g.rows(), 1);
        assert_eq!(b.rows(), 1);
        let (n, d) = va.shape();
        let mut normalized = arena::take_uninit(n, d);
        let mut out = arena::take_uninit(n, d);
        let inv_std = (0..n)
            .map(|i| {
                ops::layer_norm_row(
                    va.row(i),
                    g.row(0),
                    b.row(0),
                    normalized.row_mut(i),
                    out.row_mut(i),
                )
            })
            .collect();
        self.push(out, Op::LayerNorm(a, gain, bias, normalized, inv_std))
    }

    /// Gather rows of `a` by index (embedding lookup; duplicates allowed).
    pub fn select_rows(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(indices.len(), va.cols());
        for (out, &src) in indices.iter().enumerate() {
            v.row_mut(out).copy_from_slice(va.row(src));
        }
        self.push(v, Op::SelectRows(a, indices.to_vec()))
    }

    /// Mean over rows, producing a `1 x d` vector.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let mean = self.nodes[a.0].value.col_mean();
        let d = mean.len();
        self.push(Matrix::from_vec(1, d, mean), Op::MeanRows(a))
    }

    /// Concatenate matrices with equal row counts along columns.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let n = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.cols()).sum();
        let mut v = arena::take_uninit(n, total);
        let mut off = 0;
        for &p in parts {
            let vp = &self.nodes[p.0].value;
            assert_eq!(vp.rows(), n, "concat_cols row mismatch");
            for i in 0..n {
                v.row_mut(i)[off..off + vp.cols()].copy_from_slice(vp.row(i));
            }
            off += vp.cols();
        }
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Fused softmax + cross-entropy against soft target rows. Returns a
    /// `1 x 1` scalar: `-(1/n) Σ_i Σ_c T_ic log P_ic`.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, targets: &Matrix) -> NodeId {
        let vl = &self.nodes[logits.0].value;
        assert_eq!(vl.shape(), targets.shape(), "softmax_ce shape mismatch");
        let mut probs = arena::take_copy(vl);
        let mut loss = 0.0f32;
        for i in 0..probs.rows() {
            structmine_linalg::stats::softmax_inplace(probs.row_mut(i));
            for (p, t) in probs.row(i).iter().zip(targets.row(i)) {
                if *t > 0.0 {
                    loss -= t * p.max(1e-12).ln();
                }
            }
        }
        loss /= probs.rows().max(1) as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(v, Op::SoftmaxCe(logits, arena::take_copy(targets), probs))
    }

    /// Fused sigmoid + binary cross-entropy, mean over all entries.
    pub fn sigmoid_bce(&mut self, logits: NodeId, targets: &Matrix) -> NodeId {
        let vl = &self.nodes[logits.0].value;
        assert_eq!(vl.shape(), targets.shape(), "sigmoid_bce shape mismatch");
        let mut sig = arena::take_copy(vl);
        let mut loss = 0.0f32;
        for (s, t) in sig.data_mut().iter_mut().zip(targets.data()) {
            *s = ops::sigmoid(*s, f32::exp);
            let p = s.clamp(1e-7, 1.0 - 1e-7);
            loss -= t * p.ln() + (1.0 - t) * (1.0 - p).ln();
        }
        loss /= (vl.rows() * vl.cols()).max(1) as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(v, Op::SigmoidBce(logits, arena::take_copy(targets), sig))
    }

    fn map_unary(&self, a: NodeId, f: impl Fn(f32) -> f32) -> Matrix {
        let va = &self.nodes[a.0].value;
        let mut v = arena::take_uninit(va.rows(), va.cols());
        for (o, &x) in v.data_mut().iter_mut().zip(va.data()) {
            *o = f(x);
        }
        v
    }

    // --- backward ----------------------------------------------------------

    /// Run backpropagation from `loss` (must be `1 x 1`), seeding its
    /// gradient with 1. Gradients accumulate, so several backward calls on
    /// one tape sum their gradients (useful for multi-task losses).
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "loss must be scalar"
        );
        accumulate(
            &mut self.nodes[loss.0].grad,
            Matrix::from_vec(1, 1, vec![1.0]),
        );
        for i in (0..=loss.0).rev() {
            // Move the gradient out instead of cloning it; it is restored
            // right after the contributions are computed.
            let Some(grad_out) = self.nodes[i].grad.take() else {
                continue;
            };
            // Temporarily take the op so parent values can be read while the
            // contributions are computed, then restore it and accumulate.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            let contributions = self.backward_op(&op, i, &grad_out);
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(grad_out);
            for (id, g) in contributions {
                self.acc(id, g);
            }
        }
    }

    /// Gradient contributions of one node to its parents. Every returned
    /// matrix comes from the arena; `acc` either moves it into an empty
    /// gradient slot or recycles it after summing.
    fn backward_op(&self, op: &Op, node: usize, grad_out: &Matrix) -> Vec<(NodeId, Matrix)> {
        match op {
            Op::Leaf => Vec::new(),
            Op::Add(a, b) => vec![
                (*a, arena::take_copy(grad_out)),
                (*b, arena::take_copy(grad_out)),
            ],
            Op::AddRowBroadcast(a, bias) => {
                let mut bias_grad = arena::take_zeroed(1, grad_out.cols());
                for r in grad_out.iter_rows() {
                    for (bg, &g) in bias_grad.row_mut(0).iter_mut().zip(r) {
                        *bg += g;
                    }
                }
                vec![(*a, arena::take_copy(grad_out)), (*bias, bias_grad)]
            }
            Op::Scale(a, s) => {
                let mut g = arena::take_copy(grad_out);
                g.scale_in_place(*s);
                vec![(*a, g)]
            }
            Op::Mul(a, b) => {
                let ga = hadamard(grad_out, &self.nodes[b.0].value);
                let gb = hadamard(grad_out, &self.nodes[a.0].value);
                vec![(*a, ga), (*b, gb)]
            }
            Op::MatMul(a, b) => {
                let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                let mut ga = arena::take_uninit(grad_out.rows(), vb.rows());
                grad_out.gemm(Rhs::Transposed(vb), &mut ga, &self.policy);
                let mut at = arena::take_uninit(va.cols(), va.rows());
                va.transpose_into(&mut at);
                let mut gb = arena::take_uninit(at.rows(), grad_out.cols());
                at.gemm(Rhs::Dense(grad_out), &mut gb, &self.policy);
                arena::give_back(at);
                vec![(*a, ga), (*b, gb)]
            }
            Op::MatMulT(a, b) => {
                // out = A·Bᵀ, so dA = G·B and dB = Gᵀ·A.
                let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                let mut ga = arena::take_uninit(grad_out.rows(), vb.cols());
                grad_out.gemm(Rhs::Dense(vb), &mut ga, &self.policy);
                let mut gt = arena::take_uninit(grad_out.cols(), grad_out.rows());
                grad_out.transpose_into(&mut gt);
                let mut gb = arena::take_uninit(gt.rows(), va.cols());
                gt.gemm(Rhs::Dense(va), &mut gb, &self.policy);
                arena::give_back(gt);
                vec![(*a, ga), (*b, gb)]
            }
            Op::Transpose(a) => {
                let mut g = arena::take_uninit(grad_out.cols(), grad_out.rows());
                grad_out.transpose_into(&mut g);
                vec![(*a, g)]
            }
            Op::Relu(a) => {
                let g = masked_grad(grad_out, &self.nodes[a.0].value, |x| {
                    if x > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                });
                vec![(*a, g)]
            }
            Op::Gelu(a, cached_t) => {
                // Same formula as recomputing gelu_grad from scratch, with
                // the cached tanh substituted — bitwise identical, one tanh
                // per element cheaper.
                let x = &self.nodes[a.0].value;
                let mut g = arena::take_uninit(grad_out.rows(), grad_out.cols());
                for ((o, &go), (&xv, &t)) in g
                    .data_mut()
                    .iter_mut()
                    .zip(grad_out.data())
                    .zip(x.data().iter().zip(cached_t.data()))
                {
                    *o = go * ops::gelu_grad(xv, t);
                }
                vec![(*a, g)]
            }
            Op::Tanh(a) => {
                vec![(
                    *a,
                    masked_grad(grad_out, &self.nodes[node].value, |y| 1.0 - y * y),
                )]
            }
            Op::Sigmoid(a) => {
                vec![(
                    *a,
                    masked_grad(grad_out, &self.nodes[node].value, |y| y * (1.0 - y)),
                )]
            }
            Op::RowSoftmax(a) => vec![(*a, self.softmax_backward(node, grad_out, 1.0))],
            Op::ScaledRowSoftmax(a, s) => {
                // d/dx softmax(s·x) = s · softmax_grad — the same two
                // factors the unfused Scale∘RowSoftmax chain multiplies, in
                // the same association.
                vec![(*a, self.softmax_backward(node, grad_out, *s))]
            }
            Op::LayerNorm(a, gain, bias, xhat, inv_std) => {
                let (n, d) = grad_out.shape();
                let g_row = self.nodes[gain.0].value.row(0);
                let mut ga = arena::take_uninit(n, d);
                let mut ggain = arena::take_zeroed(1, d);
                let mut gbias = arena::take_zeroed(1, d);
                let mut dxhat = vec![0.0f32; d];
                for (r, &istd) in inv_std.iter().enumerate() {
                    let go = grad_out.row(r);
                    let xh = xhat.row(r);
                    for ((dx, &g), &gn) in dxhat.iter_mut().zip(go).zip(g_row) {
                        *dx = g * gn;
                    }
                    let mean_dx = dxhat.iter().sum::<f32>() / d as f32;
                    let mean_dx_xh =
                        dxhat.iter().zip(xh).map(|(dx, x)| dx * x).sum::<f32>() / d as f32;
                    for c in 0..d {
                        ga.set(r, c, istd * (dxhat[c] - mean_dx - xh[c] * mean_dx_xh));
                        ggain.row_mut(0)[c] += go[c] * xh[c];
                        gbias.row_mut(0)[c] += go[c];
                    }
                }
                vec![(*a, ga), (*gain, ggain), (*bias, gbias)]
            }
            Op::SelectRows(a, indices) => {
                let src = &self.nodes[a.0].value;
                let mut g = arena::take_zeroed(src.rows(), src.cols());
                for (out_row, &src_row) in indices.iter().enumerate() {
                    for (t, &s) in g.row_mut(src_row).iter_mut().zip(grad_out.row(out_row)) {
                        *t += s;
                    }
                }
                vec![(*a, g)]
            }
            Op::MeanRows(a) => {
                let src = &self.nodes[a.0].value;
                let n = src.rows();
                let inv = 1.0 / n as f32;
                let mut g = arena::take_uninit(n, src.cols());
                for r in 0..n {
                    for (t, &s) in g.row_mut(r).iter_mut().zip(grad_out.row(0)) {
                        *t = s * inv;
                    }
                }
                vec![(*a, g)]
            }
            Op::ConcatCols(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                let mut off = 0;
                for &p in parts {
                    let cols = self.nodes[p.0].value.cols();
                    let rows = grad_out.rows();
                    let mut g = arena::take_uninit(rows, cols);
                    for r in 0..rows {
                        g.row_mut(r)
                            .copy_from_slice(&grad_out.row(r)[off..off + cols]);
                    }
                    off += cols;
                    out.push((p, g));
                }
                out
            }
            Op::SoftmaxCe(logits, targets, probs) => {
                let scale = grad_out.get(0, 0) / probs.rows().max(1) as f32;
                vec![(*logits, scaled_diff(probs, targets, scale))]
            }
            Op::SigmoidBce(logits, targets, sig) => {
                let n = (sig.rows() * sig.cols()).max(1) as f32;
                let scale = grad_out.get(0, 0) / n;
                vec![(*logits, scaled_diff(sig, targets, scale))]
            }
        }
    }

    /// Shared softmax Jacobian-vector product: `scale * s ⊙ (g - (g·s))`
    /// rowwise, where `s` is this node's softmax output.
    fn softmax_backward(&self, node: usize, grad_out: &Matrix, scale: f32) -> Matrix {
        let s = &self.nodes[node].value;
        let mut g = arena::take_uninit(s.rows(), s.cols());
        for r in 0..s.rows() {
            let srow = s.row(r);
            let dot: f32 = grad_out.row(r).iter().zip(srow).map(|(d, v)| d * v).sum();
            for (c, &sv) in srow.iter().enumerate() {
                g.set(r, c, (sv * (grad_out.get(r, c) - dot)) * scale);
            }
        }
        g
    }

    fn acc(&mut self, id: NodeId, grad: Matrix) {
        accumulate(&mut self.nodes[id.0].grad, grad);
    }
}

impl Drop for Graph {
    /// Recycle every node's storage into the thread-local arena and flush
    /// the reuse counter.
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            recycle_node(node);
        }
        arena::flush_reuse_counter();
    }
}

fn recycle_node(node: Node) {
    arena::give_back(node.value);
    if let Some(g) = node.grad {
        arena::give_back(g);
    }
    match node.op {
        Op::Gelu(_, t) => arena::give_back(t),
        Op::LayerNorm(_, _, _, xhat, _) => arena::give_back(xhat),
        Op::SoftmaxCe(_, targets, probs) | Op::SigmoidBce(_, targets, probs) => {
            arena::give_back(targets);
            arena::give_back(probs);
        }
        _ => {}
    }
}

/// Sum `grad` into the slot, moving it in when the slot is empty and
/// recycling it otherwise.
fn accumulate(slot: &mut Option<Matrix>, grad: Matrix) {
    match slot {
        Some(g) => {
            g.axpy(1.0, &grad);
            arena::give_back(grad);
        }
        None => *slot = Some(grad),
    }
}

fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = arena::take_uninit(a.rows(), a.cols());
    for (o, (x, y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
        *o = x * y;
    }
    out
}

/// grad_out ⊙ f(reference) elementwise.
fn masked_grad(grad_out: &Matrix, reference: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = arena::take_uninit(grad_out.rows(), grad_out.cols());
    for (o, (&g, &r)) in out
        .data_mut()
        .iter_mut()
        .zip(grad_out.data().iter().zip(reference.data()))
    {
        *o = g * f(r);
    }
    out
}

/// `(a - b) * scale` elementwise, pooled — the shared form of both fused
/// loss gradients (same association as the unfused `sub` then `scale`).
fn scaled_diff(a: &Matrix, b: &Matrix, scale: f32) -> Matrix {
    let mut out = arena::take_uninit(a.rows(), a.cols());
    for (o, (x, y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
        *o = (x - y) * scale;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_linalg::rng;

    /// Numerically check d(loss)/d(leaf) for a builder-defined graph.
    fn check_gradient(build: impl Fn(&mut Graph, NodeId) -> NodeId, leaf_value: &Matrix, tol: f32) {
        let mut g = Graph::new();
        let x = g.leaf(leaf_value.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x);

        let eps = 1e-2f32;
        for i in 0..leaf_value.rows() {
            for j in 0..leaf_value.cols() {
                let mut plus = leaf_value.clone();
                plus.set(i, j, plus.get(i, j) + eps);
                let mut minus = leaf_value.clone();
                minus.set(i, j, minus.get(i, j) - eps);
                let mut gp = Graph::new();
                let xp = gp.leaf(plus);
                let lp = build(&mut gp, xp);
                let mut gm = Graph::new();
                let xm = gm.leaf(minus);
                let lm = build(&mut gm, xm);
                let numeric = (gp.value(lp).get(0, 0) - gm.value(lm).get(0, 0)) / (2.0 * eps);
                let a = analytic.get(i, j);
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({i},{j}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut r = rng::seeded(seed);
        let mut m = Matrix::zeros(rows, cols);
        rng::fill_gaussian(&mut r, m.data_mut(), 0.5);
        m
    }

    /// Reduce any matrix to a scalar by summing entries (via matmul with ones).
    fn sum_to_scalar(g: &mut Graph, x: NodeId) -> NodeId {
        let (r, c) = g.value(x).shape();
        let ones_r = g.leaf(Matrix::filled(1, r, 1.0));
        let ones_c = g.leaf(Matrix::filled(c, 1, 1.0));
        let rowsum = g.matmul(ones_r, x);
        g.matmul(rowsum, ones_c)
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let w = random_matrix(4, 3, 1);
        check_gradient(
            |g, x| {
                let w = g.leaf(w.clone());
                let y = g.matmul(x, w);
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            &random_matrix(2, 4, 2),
            1e-2,
        );
    }

    #[test]
    fn matmul_t_gradient_matches_finite_difference() {
        let w = random_matrix(3, 4, 5);
        check_gradient(
            |g, x| {
                let w = g.leaf(w.clone());
                let y = g.matmul_t(x, w);
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            &random_matrix(2, 4, 6),
            1e-2,
        );
    }

    #[test]
    fn matmul_t_rhs_gradient_matches_finite_difference() {
        // Same check with the transposed operand as the differentiated leaf.
        let a = random_matrix(2, 4, 7);
        check_gradient(
            |g, x| {
                let a = g.leaf(a.clone());
                let y = g.matmul_t(a, x);
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            &random_matrix(3, 4, 8),
            1e-2,
        );
    }

    #[test]
    fn matmul_t_matches_matmul_of_transpose_bitwise() {
        let a = random_matrix(5, 7, 9);
        let b = random_matrix(6, 7, 10);
        let mut g1 = Graph::new();
        let (an, bn) = (g1.leaf(a.clone()), g1.leaf(b.clone()));
        let fused = g1.matmul_t(an, bn);
        let mut g2 = Graph::new();
        let (an2, bn2) = (g2.leaf(a), g2.leaf(b));
        let bt = g2.transpose(bn2);
        let unfused = g2.matmul(an2, bt);
        assert_eq!(g1.value(fused).data(), g2.value(unfused).data());
    }

    #[test]
    fn activations_gradients_match() {
        for act in 0..4 {
            check_gradient(
                |g, x| {
                    let y = match act {
                        0 => g.relu(x),
                        1 => g.gelu(x),
                        2 => g.tanh(x),
                        _ => g.sigmoid(x),
                    };
                    sum_to_scalar(g, y)
                },
                &random_matrix(3, 3, 30 + act),
                2e-2,
            );
        }
    }

    #[test]
    fn row_softmax_gradient_matches() {
        let probe = random_matrix(3, 4, 20);
        check_gradient(
            |g, x| {
                let s = g.row_softmax(x);
                let p = g.leaf(probe.clone());
                let weighted = g.mul(s, p);
                sum_to_scalar(g, weighted)
            },
            &random_matrix(3, 4, 21),
            2e-2,
        );
    }

    #[test]
    fn scaled_row_softmax_gradient_matches() {
        let probe = random_matrix(3, 4, 22);
        check_gradient(
            |g, x| {
                let s = g.scaled_row_softmax(x, 0.41);
                let p = g.leaf(probe.clone());
                let weighted = g.mul(s, p);
                sum_to_scalar(g, weighted)
            },
            &random_matrix(3, 4, 23),
            2e-2,
        );
    }

    #[test]
    fn scaled_row_softmax_matches_unfused_chain_bitwise() {
        // Forward values AND backward gradients must equal the unfused
        // Scale -> RowSoftmax chain bit for bit.
        let x_val = random_matrix(4, 6, 24);
        let probe = random_matrix(4, 6, 25);
        let s = 0.707_f32;

        let mut fused = Graph::new();
        let x1 = fused.leaf(x_val.clone());
        let sm1 = fused.scaled_row_softmax(x1, s);
        let p1 = fused.leaf(probe.clone());
        let w1 = fused.mul(sm1, p1);
        let l1 = sum_to_scalar(&mut fused, w1);
        fused.backward(l1);

        let mut unfused = Graph::new();
        let x2 = unfused.leaf(x_val);
        let scaled = unfused.scale(x2, s);
        let sm2 = unfused.row_softmax(scaled);
        let p2 = unfused.leaf(probe);
        let w2 = unfused.mul(sm2, p2);
        let l2 = sum_to_scalar(&mut unfused, w2);
        unfused.backward(l2);

        assert_eq!(fused.value(sm1).data(), unfused.value(sm2).data());
        assert_eq!(fused.grad(x1).data(), unfused.grad(x2).data());
    }

    #[test]
    fn layer_norm_gradient_matches() {
        let gain = random_matrix(1, 5, 30);
        let bias = random_matrix(1, 5, 31);
        let probe = random_matrix(2, 5, 32);
        check_gradient(
            |g, x| {
                let gn = g.leaf(gain.clone());
                let bs = g.leaf(bias.clone());
                let y = g.layer_norm(x, gn, bs);
                let p = g.leaf(probe.clone());
                let w = g.mul(y, p);
                sum_to_scalar(g, w)
            },
            &random_matrix(2, 5, 33),
            3e-2,
        );
    }

    #[test]
    fn layer_norm_param_gradients_match() {
        // Also verify gain/bias gradients by treating gain as the leaf.
        let x = random_matrix(2, 4, 40);
        let bias = random_matrix(1, 4, 41);
        check_gradient(
            |g, gain| {
                let xv = g.leaf(x.clone());
                let bs = g.leaf(bias.clone());
                let y = g.layer_norm(xv, gain, bs);
                sum_to_scalar(g, y)
            },
            &random_matrix(1, 4, 42),
            2e-2,
        );
    }

    #[test]
    fn select_rows_and_mean_rows_gradients_match() {
        check_gradient(
            |g, x| {
                let sel = g.select_rows(x, &[0, 2, 2, 1]);
                let m = g.mean_rows(sel);
                let t = g.tanh(m);
                sum_to_scalar(g, t)
            },
            &random_matrix(3, 4, 50),
            2e-2,
        );
    }

    #[test]
    fn concat_and_broadcast_gradients_match() {
        let bias = random_matrix(1, 6, 60);
        check_gradient(
            |g, x| {
                let cat = g.concat_cols(&[x, x]);
                let b = g.leaf(bias.clone());
                let y = g.add_row_broadcast(cat, b);
                let y = g.sigmoid(y);
                sum_to_scalar(g, y)
            },
            &random_matrix(2, 3, 61),
            2e-2,
        );
    }

    #[test]
    fn softmax_ce_gradient_matches() {
        let mut targets = Matrix::zeros(3, 4);
        targets.set(0, 1, 1.0);
        targets.set(1, 0, 0.5);
        targets.set(1, 3, 0.5);
        targets.set(2, 2, 1.0);
        check_gradient(
            |g, x| g.softmax_cross_entropy(x, &targets),
            &random_matrix(3, 4, 70),
            2e-2,
        );
    }

    #[test]
    fn sigmoid_bce_gradient_matches() {
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        check_gradient(
            |g, x| g.sigmoid_bce(x, &targets),
            &random_matrix(3, 2, 80),
            2e-2,
        );
    }

    #[test]
    fn transpose_mul_scale_chain_matches() {
        let probe = random_matrix(4, 2, 90);
        check_gradient(
            |g, x| {
                let t = g.transpose(x);
                let p = g.leaf(probe.clone());
                let m = g.mul(t, p);
                let s = g.scale(m, 0.37);
                sum_to_scalar(g, s)
            },
            &random_matrix(2, 4, 91),
            2e-2,
        );
    }

    #[test]
    fn gradients_accumulate_when_node_reused() {
        // loss = sum(x*x): dx should be 2x (x used twice through Mul).
        let x_val = random_matrix(2, 2, 100);
        let mut g = Graph::new();
        let x = g.leaf(x_val.clone());
        let sq = g.mul(x, x);
        let loss = sum_to_scalar(&mut g, sq);
        g.backward(loss);
        let grad = g.grad(x);
        for i in 0..2 {
            for j in 0..2 {
                assert!((grad.get(i, j) - 2.0 * x_val.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn cross_entropy_loss_value_is_correct() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[&[0.0, 0.0]]));
        let targets = Matrix::from_rows(&[&[1.0, 0.0]]);
        let loss = g.softmax_cross_entropy(logits, &targets);
        assert!((g.value(loss).get(0, 0) - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2));
        g.backward(x);
    }

    /// One forward/backward round of a small MLP-ish graph; returns the
    /// loss value and the leaf gradient.
    fn train_round(g: &mut Graph, x_val: &Matrix, w_val: &Matrix) -> (f32, Matrix) {
        let x = g.leaf(x_val.clone());
        let w = g.leaf(w_val.clone());
        let h = g.matmul(x, w);
        let h = g.gelu(h);
        let s = g.scaled_row_softmax(h, 0.5);
        let loss = sum_to_scalar(g, s);
        g.backward(loss);
        (g.value(loss).get(0, 0), g.grad(x))
    }

    #[test]
    fn arena_reuse_is_bitwise_transparent() {
        // Running the same step through one reset() graph, a reused-after-
        // drop pool, and completely fresh state must agree bit for bit —
        // recycled buffers may not leak any stale content.
        let x_val = random_matrix(6, 5, 110);
        let w_val = random_matrix(5, 4, 111);

        let mut reused = Graph::new();
        let (l1, g1) = train_round(&mut reused, &x_val, &w_val);
        reused.reset();
        let (l2, g2) = train_round(&mut reused, &x_val, &w_val);
        drop(reused);
        // Pool is now warm; a new graph draws recycled buffers.
        let mut warm = Graph::new();
        let (l3, g3) = train_round(&mut warm, &x_val, &w_val);

        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(l1.to_bits(), l3.to_bits());
        assert_eq!(g1.data(), g2.data());
        assert_eq!(g1.data(), g3.data());
    }

    /// A tape takes only the thread count from its policy: a 3-thread Fast
    /// policy still computes Exact products, and its values and gradients
    /// match a serial tape bit for bit. The zero-against-`inf` product
    /// tells the tiers apart (Exact skips zero terms, Fast computes NaN);
    /// 70 rows clear the kernels' parallel row threshold.
    #[test]
    fn tape_policy_sets_threads_but_never_the_tier() {
        let fast = ExecPolicy::with_threads(3).with_precision(Precision::Fast);
        let mut g = Graph::with_policy(&fast);
        let a = g.leaf(Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 2.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![f32::INFINITY, 1.0, 3.0, 4.0]));
        let ab = g.matmul(a, b);
        assert_eq!(g.value(ab).data(), &[3.0, 4.0, 6.0, 8.0]);

        let x_val = random_matrix(70, 5, 112);
        let w_val = random_matrix(5, 4, 113);
        let (l1, g1) = train_round(
            &mut Graph::with_policy(&ExecPolicy::serial()),
            &x_val,
            &w_val,
        );
        let (l3, g3) = train_round(&mut Graph::with_policy(&fast), &x_val, &w_val);
        assert_eq!(l1.to_bits(), l3.to_bits());
        assert_eq!(g1.data(), g3.data());
    }

    #[test]
    fn reset_clears_tape() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 3.0));
        let y = g.scale(x, 2.0);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value(y), &Matrix::filled(2, 2, 6.0));
        g.reset();
        assert!(g.is_empty());
    }
}
