//! Row-major dense `f32` matrix.
//!
//! The workspace only needs a handful of operations (matmul, transpose,
//! element-wise arithmetic, row views), so this type favours clarity and
//! cache-friendly loops over generality.
//!
//! # Matmul kernel
//!
//! Every product goes through [`Matrix::gemm`]. The right-hand operand
//! ([`Rhs`]) is dense, transposed, or already packed; a dense or transposed
//! operand is packed per call into contiguous panels of [`NR`] output
//! columns, then output rows are produced [`MR`] at a time by a
//! register-tiled micro-kernel that keeps an `MR x NR` accumulator tile live
//! while streaming the panel, giving `MR` independent multiply-add chains
//! per column vector.
//! At the Exact tier the summation order of every output element is the
//! naive kernel's — ascending `k`, one accumulator per element, terms with a
//! zero left-hand factor skipped — so the blocked kernel is bitwise
//! identical to the naive reference (up to the sign of exact zeros) and,
//! because packing happens on the calling thread before rows are split
//! across workers, bitwise identical for any thread count. See DESIGN §9.

use crate::exec::{ExecPolicy, Precision};
use serde::{Deserialize, Serialize};

/// Register-tile width of the packed micro-kernel: output columns are
/// processed in panels of `NR` independent accumulators (two 4-wide SIMD
/// lanes).
pub(crate) const NR: usize = 8;

/// Register-tile height of the packed micro-kernel: `MR` output rows are
/// produced together so the inner `k` loop carries `MR` independent
/// accumulator chains. A single row's chain is latency-bound (each
/// multiply-add waits on the previous one); interleaving `MR` rows hides
/// that latency without changing any row's summation order.
pub(crate) const MR: usize = 4;

/// Left-row count below which the per-call pack is skipped: packing costs
/// one pass over the right operand and only pays for itself when amortized
/// across enough output rows. The fallback uses the same per-element
/// summation order, so the choice (a function of shape only) never changes
/// output bits.
const PACK_MIN_ROWS: usize = 8;

thread_local! {
    /// Per-thread scratch for the packed right-hand operand, reused across
    /// calls so steady-state matmuls allocate nothing. Taken (not borrowed)
    /// for the duration of a call, so a re-entrant matmul simply falls back
    /// to a fresh allocation instead of panicking.
    static PACK_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

fn with_pack_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// A block of output rows of the packed kernel: `out = a_block * B` where
/// `a_block` is a contiguous run of left-hand rows (`rows x k`) and `B`
/// (`k x n`) is packed in `NR`-column panels. Panels are the outer loop so
/// one panel (`k * NR` floats) stays in L1 while it is swept across every
/// `MR`-row register tile of the block. Every output element is an
/// ascending-`k` sum in its own accumulator, so row grouping changes
/// instruction interleaving but never output bits.
///
/// `SKIP_ZERO` is the Exact tier's `a == 0.0` skip. Without it (the Fast
/// tier's portable kernel, and the scalar twin of the SSE2 tile in
/// [`crate::simd`]) the inner loop is a branch-free multiply-add sweep,
/// whose result can differ in the last bits because zero left-hand terms
/// (and `-0.0`/NaN propagation through them) are no longer skipped.
pub(crate) fn packed_block_kernel<const SKIP_ZERO: bool>(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let rows = a_block.len() / k;
    let mut panel_start = 0;
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let panel = &packed[panel_start..panel_start + k * w];
        let mut r0 = 0;
        while r0 < rows {
            let h = MR.min(rows - r0);
            if w == NR && h == MR {
                // Full register tile: MR x NR accumulators, one independent
                // multiply-add chain per row, shared panel loads.
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let b = &panel[kk * NR..kk * NR + NR];
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let a = a_block[(r0 + r) * k + kk];
                        if SKIP_ZERO && a == 0.0 {
                            continue;
                        }
                        for (o, &bv) in acc_r.iter_mut().zip(b) {
                            *o += a * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let o0 = (r0 + r) * n + j0;
                    out[o0..o0 + NR].copy_from_slice(acc_r);
                }
            } else {
                ragged_tile::<SKIP_ZERO>(a_block, k, panel, n, j0, r0..r0 + h, out);
            }
            r0 += h;
        }
        panel_start += k * w;
        j0 += w;
    }
}

/// The ragged edge of a panel sweep (fewer than `MR` rows left, or fewer
/// than `NR` columns in the last panel): a plain per-row sweep over the
/// `k x w` panel starting at output column `j0`, with the same
/// per-element accumulation order as the full tile.
#[inline]
pub(crate) fn ragged_tile<const SKIP_ZERO: bool>(
    a_block: &[f32],
    k: usize,
    panel: &[f32],
    n: usize,
    j0: usize,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    let w = panel.len() / k;
    for r in rows {
        let a_row = &a_block[r * k..(r + 1) * k];
        let mut acc = [0.0f32; NR];
        for (kk, &a) in a_row.iter().enumerate() {
            if SKIP_ZERO && a == 0.0 {
                continue;
            }
            let b = &panel[kk * w..kk * w + w];
            for (o, &bv) in acc[..w].iter_mut().zip(b) {
                *o += a * bv;
            }
        }
        out[r * n + j0..r * n + j0 + w].copy_from_slice(&acc[..w]);
    }
}

/// Pack the logical `k x n` right-hand operand (`b`, or `bᵀ` when
/// `transposed`) into `NR`-column panels, each panel contiguous and
/// row-major within itself. Packing always runs on the calling thread
/// before any row parallelism, so panel bytes — and everything computed
/// from them — are identical for every thread count. Reports panel count
/// via the `linalg.pack_panels` counter.
pub(crate) fn pack_panels(packed: &mut Vec<f32>, b: &Matrix, transposed: bool) {
    let (k, n) = if transposed {
        (b.cols, b.rows)
    } else {
        (b.rows, b.cols)
    };
    packed.clear();
    packed.resize(k * n, 0.0);
    let mut panel_start = 0;
    let mut j0 = 0;
    let mut panels = 0u64;
    while j0 < n {
        let w = NR.min(n - j0);
        for kk in 0..k {
            let dst = &mut packed[panel_start + kk * w..panel_start + kk * w + w];
            if transposed {
                // Interleave `NR` rows of `b` per panel, so the
                // micro-kernel reads one contiguous NR-vector per k step.
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = b.data[(j0 + jj) * k + kk];
                }
            } else {
                dst.copy_from_slice(&b.data[kk * n + j0..kk * n + j0 + w]);
            }
        }
        panel_start += k * w;
        j0 += w;
        panels += 1;
    }
    structmine_store::obs::counter_add("linalg.pack_panels", panels);
}

/// A right-hand matmul operand pre-packed, once, into the blocked
/// kernel's [`NR`]-column panel layout (DESIGN §14).
///
/// A dense or transposed [`Rhs`] is packed on **every** [`Matrix::gemm`]
/// call; for inference weights — frozen after `Engine::load` — that pass is
/// pure waste on the serving hot path. A `PackedMatrix` is exactly the
/// panel buffer the per-call path would have produced, built ahead of time,
/// so [`Rhs::Packed`] skips straight to the micro-kernel. Because the panel
/// bytes are a pure function of the operand and the kernel consumes them
/// identically, a prepacked product is **bitwise identical** to the
/// per-call path at either tier, for every shape and thread count — only
/// where the packing happens moves. Property-tested in this module.
#[derive(Clone, Debug)]
pub struct PackedMatrix {
    /// Inner dimension: rows of the logical right operand.
    k: usize,
    /// Output columns: columns of the logical right operand.
    n: usize,
    /// The `NR`-column panels, each `k * w` floats, concatenated.
    panels: Vec<f32>,
}

impl PackedMatrix {
    /// Pack `rhs` (`k x n`): the prepacked form of [`Rhs::Dense`].
    /// Counts one `linalg.prepack.builds`.
    pub fn pack(rhs: &Matrix) -> Self {
        Self::build(rhs, false)
    }

    /// Pack `rhs` (`n x k`) as its transpose: the prepacked form of
    /// [`Rhs::Transposed`] (e.g. the tied embedding table). Counts one
    /// `linalg.prepack.builds`.
    pub fn pack_transposed(rhs: &Matrix) -> Self {
        Self::build(rhs, true)
    }

    fn build(rhs: &Matrix, transposed: bool) -> Self {
        let (k, n) = if transposed {
            (rhs.cols, rhs.rows)
        } else {
            (rhs.rows, rhs.cols)
        };
        let mut panels = Vec::new();
        if k > 0 && n > 0 {
            pack_panels(&mut panels, rhs, transposed);
        }
        structmine_store::obs::counter_add("linalg.prepack.builds", 1);
        Self { k, n, panels }
    }

    /// Output columns of the product this operand produces.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
}

/// The right-hand operand of [`Matrix::gemm`].
#[derive(Clone, Copy, Debug)]
pub enum Rhs<'a> {
    /// `b` (`k x n`): the product is `a · b`.
    Dense(&'a Matrix),
    /// `b` (`n x k`): the product is `a · bᵀ`, without materializing the
    /// transpose.
    Transposed(&'a Matrix),
    /// Panels packed ahead of time; the product is whichever of the two
    /// above the pack was built for.
    Packed(&'a PackedMatrix),
}

impl Rhs<'_> {
    /// `(k, n)`: the inner dimension and the product's column count.
    fn dims(&self) -> (usize, usize) {
        match self {
            Rhs::Dense(b) => (b.rows, b.cols),
            Rhs::Transposed(b) => (b.cols, b.rows),
            Rhs::Packed(p) => (p.k, p.n),
        }
    }
}

/// The process-global thread count at a fixed tier: what the allocating
/// products and the benchmark-pinned forwards run under, so the
/// `STRUCTMINE_PRECISION` half of the global policy never reaches them.
fn global_at(precision: Precision) -> ExecPolicy {
    ExecPolicy::global().with_precision(precision)
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from an owned row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Create a matrix from row slices. All rows must share a length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consume the matrix, returning its row-major buffer (for buffer
    /// recycling arenas).
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Row count above which [`Matrix::gemm`] goes through the parallel
    /// executor. Each output row is still computed by exactly one thread
    /// with the serial inner loops, so results are bitwise identical to the
    /// serial path for any thread count. Below the threshold the kernel
    /// runs serially regardless of policy — a function of shape only, so
    /// runs at different thread counts execute (and count) identically.
    const PAR_ROW_THRESHOLD: usize = 64;

    /// The matrix product `self · rhs` written into `out` (fully
    /// overwritten; prior contents are irrelevant), with the worker count
    /// and the [`Precision`] tier taken from `policy`.
    ///
    /// Exact output is bitwise identical for every [`Rhs`] form of the same
    /// operand and every thread count. Fast output drops the `a == 0.0`
    /// skip (see [`Precision::Fast`]); it is still identical across the
    /// [`Rhs`] forms and thread counts. A [`Rhs::Packed`] operand counts one
    /// `linalg.prepack.hits`.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ or `out` is not
    /// `self.rows() x n`.
    pub fn gemm(&self, rhs: Rhs<'_>, out: &mut Matrix, policy: &ExecPolicy) {
        let (k, n) = rhs.dims();
        assert_eq!(
            self.cols, k,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, k, n
        );
        assert_eq!(out.shape(), (self.rows, n), "matmul output shape mismatch");
        let exact = policy.precision() == Precision::Exact;
        match rhs {
            Rhs::Packed(p) => {
                structmine_store::obs::counter_add("linalg.prepack.hits", 1);
                self.gemm_panels(&p.panels, exact, policy, out);
            }
            Rhs::Dense(b) | Rhs::Transposed(b) if self.rows >= PACK_MIN_ROWS && k > 0 && n > 0 => {
                let transposed = matches!(rhs, Rhs::Transposed(_));
                with_pack_scratch(|packed| {
                    pack_panels(packed, b, transposed);
                    self.gemm_panels(packed, exact, policy, out);
                });
            }
            Rhs::Dense(b) | Rhs::Transposed(b) => {
                let transposed = matches!(rhs, Rhs::Transposed(_));
                if exact {
                    self.gemm_unpacked::<true>(b, transposed, out);
                } else {
                    self.gemm_unpacked::<false>(b, transposed, out);
                }
            }
        }
    }

    /// `self · B` against `B` in panel layout, row blocks spread over the
    /// policy's workers above [`Self::PAR_ROW_THRESHOLD`].
    fn gemm_panels(&self, panels: &[f32], exact: bool, policy: &ExecPolicy, out: &mut Matrix) {
        let (k, n) = (self.cols, out.cols);
        if n == 0 {
            return;
        }
        if k == 0 {
            // Empty inner dimension: the product is all zeros (the same
            // +0.0 the unpacked path writes).
            out.data.fill(0.0);
            return;
        }
        let kernel: fn(&[f32], usize, &[f32], usize, &mut [f32]) = if exact {
            packed_block_kernel::<true>
        } else {
            crate::simd::packed_block_kernel_fast
        };
        let run = |start: usize, block: &mut [f32]| {
            let h = block.len() / n;
            kernel(&self.data[start * k..(start + h) * k], k, panels, n, block);
        };
        if self.rows < Self::PAR_ROW_THRESHOLD {
            run(0, &mut out.data);
        } else {
            crate::exec::par_fill_row_blocks(policy, self.rows, n, &mut out.data, run);
        }
    }

    /// Too few rows to amortize a pack (always below the parallel
    /// threshold, so serial): loops straight over `b`'s rows, with the
    /// packed kernel's per-element summation order, so the two paths agree
    /// bitwise.
    fn gemm_unpacked<const SKIP_ZERO: bool>(&self, b: &Matrix, transposed: bool, out: &mut Matrix) {
        let n = out.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            if transposed {
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (&a, &bv) in a_row.iter().zip(b.row(j)) {
                        if SKIP_ZERO && a == 0.0 {
                            continue;
                        }
                        acc += a * bv;
                    }
                    *o = acc;
                }
            } else {
                out_row.fill(0.0);
                for (kk, &a) in a_row.iter().enumerate() {
                    if SKIP_ZERO && a == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(&b.data[kk * n..(kk + 1) * n]) {
                        *o += a * bv;
                    }
                }
            }
        }
    }

    /// Exact matrix product `self · rhs`, with the process-global thread
    /// count.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.gemm(Rhs::Dense(rhs), &mut out, &global_at(Precision::Exact));
        out
    }

    /// Exact matrix product `self · rhsᵀ` without materializing the
    /// transpose, with the process-global thread count.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.gemm(Rhs::Transposed(rhs), &mut out, &global_at(Precision::Exact));
        out
    }

    /// Exact [`Self::gemm`] with [`Rhs::Dense`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.gemm(Rhs::Dense(rhs), out, &global_at(Precision::Exact));
    }

    /// Exact [`Self::gemm`] with [`Rhs::Transposed`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.gemm(Rhs::Transposed(rhs), out, &global_at(Precision::Exact));
    }

    /// Fast [`Self::gemm`] with [`Rhs::Dense`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_into_fast(&self, rhs: &Matrix, out: &mut Matrix) {
        self.gemm(Rhs::Dense(rhs), out, &global_at(Precision::Fast));
    }

    /// Fast [`Self::gemm`] with [`Rhs::Transposed`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_t_into_fast(&self, rhs: &Matrix, out: &mut Matrix) {
        self.gemm(Rhs::Transposed(rhs), out, &global_at(Precision::Fast));
    }

    /// Exact [`Self::gemm`] with [`Rhs::Packed`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_prepacked_into(&self, packed: &PackedMatrix, out: &mut Matrix) {
        self.gemm(Rhs::Packed(packed), out, &global_at(Precision::Exact));
    }

    /// Fast [`Self::gemm`] with [`Rhs::Packed`]. Kept because the
    /// benchmark's replay (`perfbench/src/replay.rs`) calls it by name.
    pub fn matmul_prepacked_fast_into(&self, packed: &PackedMatrix, out: &mut Matrix) {
        self.gemm(Rhs::Packed(packed), out, &global_at(Precision::Fast));
    }

    /// Transpose, blocked into 32x32 tiles so both the source rows and the
    /// destination columns stay within cache lines. A pure permutation —
    /// bitwise identical to the naive element loop.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided matrix (fully overwritten).
    ///
    /// # Panics
    /// Panics if `out.shape() != (self.cols, self.rows)`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TB: usize = 32;
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for ib in (0..self.rows).step_by(TB) {
            let i_end = (ib + TB).min(self.rows);
            for jb in (0..self.cols).step_by(TB) {
                let j_end = (jb + TB).min(self.cols);
                for i in ib..i_end {
                    let row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for (j, &v) in row.iter().enumerate().take(j_end).skip(jb) {
                        out.data[j * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place `self *= s` (same per-element arithmetic as [`Matrix::scale`]).
    pub fn scale_in_place(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Add `v` to every row (broadcast).
    pub fn add_row_broadcast(&self, v: &[f32]) -> Matrix {
        assert_eq!(v.len(), self.cols, "broadcast length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for (o, &b) in out.row_mut(i).iter_mut().zip(v) {
                *o += b;
            }
        }
        out
    }

    /// Mean of each column.
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f32; self.cols];
        if self.rows == 0 {
            return mean;
        }
        for row in self.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for m in &mut mean {
            *m *= inv;
        }
        mean
    }

    /// L2-normalize every row in place; zero rows are left untouched.
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            crate::vector::normalize(self.row_mut(i));
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Stack matrices vertically; all operands must share a column count.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        let cols = mats.first().map_or(0, |m| m.cols);
        let rows = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Extract the sub-matrix made of the given rows (copied).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }
}

impl structmine_store::StableHash for Matrix {
    /// Content fingerprint: shape plus the IEEE-754 bit pattern of every
    /// element — two matrices hash equal iff they are bitwise equal.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        h.write_u64(self.rows as u64);
        h.write_u64(self.cols as u64);
        for &v in &self.data {
            h.write_bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    /// The right operand `b` (`k x n`) in every [`Rhs`] form: dense, its
    /// transpose, and both prepacked orientations. Every form computes the
    /// same logical product `a · b`.
    struct Forms {
        b: Matrix,
        bt: Matrix,
        packed: PackedMatrix,
        packed_t: PackedMatrix,
    }

    impl Forms {
        fn of(b: &Matrix) -> Self {
            let bt = b.transpose();
            Forms {
                b: b.clone(),
                packed: PackedMatrix::pack(b),
                packed_t: PackedMatrix::pack_transposed(&bt),
                bt,
            }
        }

        fn all(&self) -> [Rhs<'_>; 4] {
            [
                Rhs::Dense(&self.b),
                Rhs::Transposed(&self.bt),
                Rhs::Packed(&self.packed),
                Rhs::Packed(&self.packed_t),
            ]
        }
    }

    /// `a · rhs` into a stale-filled buffer (the gemm must overwrite it).
    fn product(a: &Matrix, rhs: Rhs<'_>, policy: &ExecPolicy) -> Matrix {
        let mut out = Matrix::filled(a.rows(), rhs.dims().1, f32::NAN);
        a.gemm(rhs, &mut out, policy);
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    const TIERS: [Precision; 2] = [Precision::Exact, Precision::Fast];

    proptest! {
        /// (A·B)ᵀ = Bᵀ·Aᵀ
        #[test]
        fn transpose_of_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// A·(B + C) = A·B + A·C
        #[test]
        fn matmul_distributes_over_add(
            a in small_matrix(2, 3),
            b in small_matrix(3, 2),
            c in small_matrix(3, 2),
        ) {
            let left = a.matmul(&b.add(&c));
            let right = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        /// Parallel products are bitwise identical to serial for every
        /// thread count, every [`Rhs`] form and both tiers — the
        /// determinism contract of the exec layer — and fully overwrite
        /// stale buffer contents (the arena reuse contract). 70 rows puts
        /// the products above PAR_ROW_THRESHOLD so the parallel executor
        /// actually engages.
        #[test]
        fn parallel_gemm_is_bitwise_serial(a in small_matrix(70, 9), b in small_matrix(9, 6)) {
            let forms = Forms::of(&b);
            for precision in TIERS {
                for rhs in forms.all() {
                    let serial = product(&a, rhs, &ExecPolicy::serial().with_precision(precision));
                    for threads in [1usize, 2, 3, 8] {
                        let policy = ExecPolicy::with_threads(threads).with_precision(precision);
                        prop_assert_eq!(bits(&product(&a, rhs, &policy)), bits(&serial));
                    }
                }
            }
        }

        /// The blocked/packed kernel agrees with a naive triple-loop
        /// reference within tolerance for arbitrary shapes in 1..64 and
        /// every [`Rhs`] form — covering the packed path, the small-row
        /// fallback, and ragged last panels. Zeros are mixed in so the
        /// `a == 0.0` skip is hit.
        #[test]
        fn blocked_matmul_matches_naive_reference(
            m in 1usize..64,
            k in 1usize..64,
            n in 1usize..64,
            a_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
            b_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
        ) {
            // Zero out a stride of the left operand so the `a == 0.0` skip
            // is exercised alongside dense values.
            let mut a_data = a_pool[..m * k].to_vec();
            for v in a_data.iter_mut().step_by(7) {
                *v = 0.0;
            }
            let a = Matrix::from_vec(m, k, a_data);
            let b = Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
            // Naive i-j-k reference, no blocking, no zero skip.
            let mut reference = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    reference.set(i, j, acc);
                }
            }
            let forms = Forms::of(&b);
            for rhs in forms.all() {
                let blocked = product(&a, rhs, &ExecPolicy::serial());
                for (x, y) in blocked.data().iter().zip(reference.data()) {
                    prop_assert!((x - y).abs() < 1e-5);
                }
            }
        }

        /// The prepacked bitwise contract: at either tier, a product
        /// against a pre-packed operand is bit-identical to the per-call
        /// path — across arbitrary shapes (covering the packed path, the
        /// small-row fallback, and ragged last panels), both packing
        /// orientations, and every thread count. Zeros are mixed into the
        /// left operand so the `a == 0.0` skip is exercised.
        #[test]
        fn prepacked_matmul_is_bitwise_per_call(
            m in 1usize..64,
            k in 1usize..64,
            n in 1usize..64,
            a_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
            b_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
        ) {
            let mut a_data = a_pool[..m * k].to_vec();
            for v in a_data.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let a = Matrix::from_vec(m, k, a_data);
            let forms = Forms::of(&Matrix::from_vec(k, n, b_pool[..k * n].to_vec()));
            for precision in TIERS {
                for threads in [1usize, 2, 4] {
                    let policy = ExecPolicy::with_threads(threads).with_precision(precision);
                    let per_call = bits(&product(&a, Rhs::Dense(&forms.b), &policy));
                    let per_call_t = bits(&product(&a, Rhs::Transposed(&forms.bt), &policy));
                    prop_assert_eq!(&per_call, &per_call_t);
                    prop_assert_eq!(&bits(&product(&a, Rhs::Packed(&forms.packed), &policy)), &per_call);
                    prop_assert_eq!(&bits(&product(&a, Rhs::Packed(&forms.packed_t), &policy)), &per_call);
                }
            }
        }

        /// vstack then select_rows recovers the operands.
        #[test]
        fn vstack_select_inverse(a in small_matrix(2, 3), b in small_matrix(3, 3)) {
            let s = Matrix::vstack(&[&a, &b]);
            prop_assert_eq!(s.select_rows(&[0, 1]), a);
            prop_assert_eq!(s.select_rows(&[2, 3, 4]), b);
        }

        /// Scaling commutes with matmul.
        #[test]
        fn scale_commutes(a in small_matrix(2, 2), b in small_matrix(2, 2), s in -3.0f32..3.0) {
            let left = a.scale(s).matmul(&b);
            let right = a.matmul(&b).scale(s);
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_mean_of_constant_rows() {
        let a = Matrix::from_rows(&[&[2.0, 4.0], &[2.0, 4.0], &[2.0, 4.0]]);
        assert_eq!(a.col_mean(), vec![2.0, 4.0]);
    }

    #[test]
    fn normalize_rows_gives_unit_norm() {
        let mut a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.normalize_rows();
        assert!((crate::vector::norm(a.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn vstack_and_select_rows_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.select_rows(&[1, 2]), b);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    fn gaussian_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        crate::rng::fill_gaussian(rng, &mut m.data, 1.0);
        m
    }

    /// The fast kernel drops the zero-skip and ordering guarantees, not
    /// correctness: on shapes covering both the packed and fallback paths
    /// (and ragged tile edges), and for every [`Rhs`] form, it must agree
    /// with the exact kernel to f32 round-off, including when the left
    /// operand carries exact zeros.
    #[test]
    fn fast_matmul_agrees_with_exact_within_roundoff() {
        let mut rng = crate::rng::seeded(41);
        let fast = ExecPolicy::serial().with_precision(Precision::Fast);
        for &(m, k, n) in &[(3usize, 5usize, 4usize), (8, 16, 9), (70, 33, 21)] {
            let mut a = gaussian_matrix(m, k, &mut rng);
            let forms = Forms::of(&gaussian_matrix(k, n, &mut rng));
            // Sprinkle exact zeros: the exact kernel skips them, the fast
            // kernel multiplies through — results must still agree.
            for i in 0..m {
                a.row_mut(i)[i % k] = 0.0;
            }
            for rhs in forms.all() {
                let exact = product(&a, rhs, &ExecPolicy::serial());
                for (e, f) in exact.data.iter().zip(&product(&a, rhs, &fast).data) {
                    assert!((e - f).abs() <= 1e-4 * (1.0 + e.abs()), "e={e} f={f}");
                }
            }
        }
    }

    /// Degenerate shapes: an empty inner dimension must produce all zeros
    /// in every [`Rhs`] form, at both tiers.
    #[test]
    fn gemm_handles_empty_inner_dim() {
        let forms = Forms::of(&Matrix::zeros(0, 4));
        for rows in [3, PACK_MIN_ROWS + 1] {
            let a = Matrix::zeros(rows, 0);
            for precision in TIERS {
                for rhs in forms.all() {
                    let out = product(&a, rhs, &ExecPolicy::serial().with_precision(precision));
                    assert!(out.data().iter().all(|&v| v == 0.0));
                }
            }
        }
    }
}
