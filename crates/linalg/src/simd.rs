//! SSE2 micro-kernels for the Fast precision tier.
//!
//! Every function here has two implementations with identical arithmetic
//! structure: an explicit `f32x4` SSE2 version (`std::arch::x86_64`) and
//! the portable scalar code it was derived from. The choice is made at
//! compile time: SSE2 is part of the x86-64 baseline, so every x86-64
//! build takes the SSE2 path (`cfg(target_arch = "x86_64")`) and every
//! other architecture takes the scalar one. No runtime feature detection
//! is needed for a baseline feature. (Building for the host CPU with
//! `-C target-cpu=native` is a separate decision: on the virtualized host
//! DESIGN §14 measured, the AVX code it enables ran at half rate.) The
//! `*_scalar` twins stay public so the test suite runs both paths on
//! x86-64 and checks that they agree.
//!
//! None of this is reachable from Exact-tier code: only Fast products
//! ([`Matrix::gemm`] under [`Precision::Fast`]) and the fast
//! GELU/softmax/LayerNorm row passes route through this module, so the
//! bitwise-reproducibility contract of the Exact tier is untouched. Within
//! the Fast tier the SSE2 and scalar paths agree *bitwise* for finite
//! inputs on the matmul and `tanh`/`exp` kernels (same operation order,
//! and SSE2 `mulps`/`addps`/`divps` round identically to scalar `f32`
//! ops); the row reductions (softmax sum/max, LayerNorm mean/variance)
//! tree-reduce four lanes and so may differ from scalar in the last bits —
//! inside the documented Fast-tier bounds, and still deterministic for a
//! fixed input length.
//!
//! Every `unsafe` block in this module is one of two kinds: a call into a
//! `#[target_feature(enable = "sse2")]` function, sound because SSE2 is
//! always enabled on x86-64; or an unaligned SIMD load/store through a raw
//! pointer, sound because of a bound its `SAFETY` comment names — either a
//! `chunks_exact(4)` chunk, or a length `assert!` at the safe entry point.
//!
//! [`Matrix::gemm`]: crate::Matrix::gemm
//! [`Precision::Fast`]: crate::exec::Precision::Fast

use crate::fastmath;
use crate::matrix::{ragged_tile, MR, NR};

/// Whether the SSE2 paths are compiled in: `true` on x86-64 (SSE2 is the
/// architecture baseline), `false` elsewhere. Public so tests can assert
/// which path the suite actually exercised.
pub const fn sse2_available() -> bool {
    cfg!(target_arch = "x86_64")
}

// ------------------------------------------------------------- matmul tile

/// Fast-tier packed block kernel: the SSE2 tile on x86-64, the scalar
/// twin (`matrix::packed_block_kernel::<false>`, the Exact kernel without
/// its zero skip) elsewhere. Same
/// contract as the scalar version; the caller is [`crate::Matrix::gemm`].
///
/// # Panics
/// Panics unless `k > 0`, `a_block` holds whole rows of `k`, `out` holds
/// the same number of rows of `n`, and `packed` holds a `k x n` operand.
/// The SSE2 tile reads and writes through unchecked indices that these
/// bounds make valid.
pub(crate) fn packed_block_kernel_fast(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(
        k > 0
            && a_block.len().is_multiple_of(k)
            && out.len() == a_block.len() / k * n
            && packed.len() >= k * n,
        "fast kernel bounds: a {} (k {k}), out {} (n {n}), packed {}",
        a_block.len(),
        out.len(),
        packed.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline, so the target
        // feature is enabled on every x86_64 build.
        unsafe { packed_block_kernel_fast_sse2(a_block, k, packed, n, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::matrix::packed_block_kernel::<false>(a_block, k, packed, n, out);
}

/// SSE2 fast-tier block kernel: the full `MR x NR` register tile holds
/// eight `__m128` accumulators (two 4-lane vectors per row); each `k`
/// step loads the panel's `NR`-vector once and broadcasts one left-hand
/// scalar per row. `mulps` + `addps` round identically to the scalar
/// `a * b` then `+=`, and the lane order equals the scalar `j` order, so
/// the full tile is bitwise equal to the scalar twin for finite inputs.
/// Ragged edges (< MR rows or < NR columns) reuse the scalar sweep.
/// Relies on the bounds [`packed_block_kernel_fast`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn packed_block_kernel_fast_sse2(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
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
                let mut acc = [[_mm_setzero_ps(); 2]; MR];
                for (kk, b) in panel.chunks_exact(NR).enumerate() {
                    // SAFETY: `b` is an `NR` = 8 float chunk, so both
                    // 4-float loads stay inside it.
                    let (b0, b1) =
                        unsafe { (_mm_loadu_ps(b.as_ptr()), _mm_loadu_ps(b.as_ptr().add(4))) };
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        // SAFETY: `r0 + r < rows` and `kk < k`, and the
                        // entry assert makes `a_block.len() == rows * k`.
                        let a = _mm_set1_ps(unsafe { *a_block.get_unchecked((r0 + r) * k + kk) });
                        acc_r[0] = _mm_add_ps(acc_r[0], _mm_mul_ps(a, b0));
                        acc_r[1] = _mm_add_ps(acc_r[1], _mm_mul_ps(a, b1));
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let o = &mut out[(r0 + r) * n + j0..(r0 + r) * n + j0 + NR];
                    // SAFETY: `o` is a checked slice of `NR` = 8 floats, so
                    // both 4-float stores stay inside it.
                    unsafe {
                        _mm_storeu_ps(o.as_mut_ptr(), acc_r[0]);
                        _mm_storeu_ps(o.as_mut_ptr().add(4), acc_r[1]);
                    }
                }
            } else {
                ragged_tile::<false>(a_block, k, panel, n, j0, r0..r0 + h, out);
            }
            r0 += h;
        }
        panel_start += k * w;
        j0 += w;
    }
}

// ------------------------------------------------------------ lane access

/// Load four floats into an SSE2 register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn load4(c: &[f32; 4]) -> std::arch::x86_64::__m128 {
    // SAFETY: `c` is exactly four floats, the width of the unaligned load.
    unsafe { std::arch::x86_64::_mm_loadu_ps(c.as_ptr()) }
}

/// Store an SSE2 register into four floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn store4(c: &mut [f32; 4], v: std::arch::x86_64::__m128) {
    // SAFETY: `c` is exactly four floats, the width of the unaligned store.
    unsafe { std::arch::x86_64::_mm_storeu_ps(c.as_mut_ptr(), v) }
}

/// Horizontal sum of four lanes, in lane order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn hsum(v: std::arch::x86_64::__m128) -> f32 {
    let mut lanes = [0.0f32; 4];
    store4(&mut lanes, v);
    lanes[0] + lanes[1] + lanes[2] + lanes[3]
}

// -------------------------------------------------------- tanh / exp rows

/// Apply [`fastmath::fast_tanh`] over a slice: SSE2 four-at-a-time on
/// x86-64, the scalar twin elsewhere and for the tail. Bitwise equal to
/// the scalar loop for finite inputs (same clamp, same polynomial
/// evaluation order, identically-rounded ops).
#[inline]
pub fn fast_tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { fast_tanh_slice_sse2(xs) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    fast_tanh_slice_scalar(xs);
}

/// Scalar twin of [`fast_tanh_slice`] — the portable path, public so the
/// property suite runs against both.
#[inline]
pub fn fast_tanh_slice_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = fastmath::fast_tanh(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn fast_tanh_slice_sse2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let lo = _mm_set1_ps(-fastmath::TANH_CLAMP);
    let hi = _mm_set1_ps(fastmath::TANH_CLAMP);
    let c0 = _mm_set1_ps(135135.0);
    let c1 = _mm_set1_ps(17325.0);
    let c2 = _mm_set1_ps(378.0);
    let d1 = _mm_set1_ps(62370.0);
    let d2 = _mm_set1_ps(3150.0);
    let d3 = _mm_set1_ps(28.0);
    let (chunks, tail) = xs.as_chunks_mut::<4>();
    for c in chunks {
        let x = _mm_max_ps(_mm_min_ps(load4(c), hi), lo);
        let x2 = _mm_mul_ps(x, x);
        // p = x * (135135 + x² (17325 + x² (378 + x²)))
        let p = _mm_mul_ps(
            x,
            _mm_add_ps(
                c0,
                _mm_mul_ps(x2, _mm_add_ps(c1, _mm_mul_ps(x2, _mm_add_ps(c2, x2)))),
            ),
        );
        // q = 135135 + x² (62370 + x² (3150 + 28 x²))
        let q = _mm_add_ps(
            c0,
            _mm_mul_ps(
                x2,
                _mm_add_ps(d1, _mm_mul_ps(x2, _mm_add_ps(d2, _mm_mul_ps(x2, d3)))),
            ),
        );
        store4(c, _mm_div_ps(p, q));
    }
    fast_tanh_slice_scalar(tail);
}

/// Apply [`fastmath::fast_exp`] over a slice: SSE2 four-at-a-time on
/// x86-64, scalar elsewhere and for the tail. Bitwise equal to the scalar
/// loop for finite inputs (the round-to-nearest magic split and the
/// degree-5 polynomial evaluate in the same order; `cvtps2dq` on the
/// already-integral `n` equals the scalar `as i32`).
#[inline]
pub fn fast_exp_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { fast_exp_slice_sse2(xs) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    fast_exp_slice_scalar(xs);
}

/// Scalar twin of [`fast_exp_slice`].
#[inline]
pub fn fast_exp_slice_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = fastmath::fast_exp(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn fast_exp_slice_sse2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let log2_e = _mm_set1_ps(std::f32::consts::LOG2_E);
    let ln_2 = _mm_set1_ps(std::f32::consts::LN_2);
    let magic = _mm_set1_ps(12_582_912.0); // 1.5 * 2^23, round-to-nearest split
    let lo = _mm_set1_ps(fastmath::EXP_MIN_EXP2);
    let hi = _mm_set1_ps(126.0);
    let one = _mm_set1_ps(1.0);
    let half = _mm_set1_ps(0.5);
    let c3 = _mm_set1_ps(1.0 / 6.0);
    let c4 = _mm_set1_ps(1.0 / 24.0);
    let c5 = _mm_set1_ps(1.0 / 120.0);
    let bias = _mm_set1_epi32(127);
    let (chunks, tail) = xs.as_chunks_mut::<4>();
    for c in chunks {
        let y = _mm_max_ps(_mm_min_ps(_mm_mul_ps(load4(c), log2_e), hi), lo);
        let shifted = _mm_add_ps(y, magic);
        let n = _mm_sub_ps(shifted, magic); // round(y), exact
        let f = _mm_sub_ps(y, n); // in [-0.5, 0.5]
        let t = _mm_mul_ps(f, ln_2);
        // 1 + t(1 + t(1/2 + t(1/6 + t(1/24 + t/120)))) — scalar order.
        let poly = _mm_add_ps(
            one,
            _mm_mul_ps(
                t,
                _mm_add_ps(
                    one,
                    _mm_mul_ps(
                        t,
                        _mm_add_ps(
                            half,
                            _mm_mul_ps(
                                t,
                                _mm_add_ps(c3, _mm_mul_ps(t, _mm_add_ps(c4, _mm_mul_ps(t, c5)))),
                            ),
                        ),
                    ),
                ),
            ),
        );
        // 2^n via the exponent field; n ∈ [-60, 126] so the shift is safe.
        let scale = _mm_castsi128_ps(_mm_slli_epi32(_mm_add_epi32(_mm_cvtps_epi32(n), bias), 23));
        store4(c, _mm_mul_ps(poly, scale));
    }
    fast_exp_slice_scalar(tail);
}

// --------------------------------------------------------- row reductions

/// Fast-tier softmax row pass: max-subtract, `fast_exp`, normalize —
/// the same stable structure as `stats::softmax_inplace`, four lanes at
/// a time. The max and sum reductions tree-reduce the lanes, so the
/// normalizer can differ from the scalar twin in the last bits (max is
/// order-independent; the sum is not) — deterministic for a fixed row
/// length, and inside the Fast tier's documented tolerance.
#[inline]
pub fn softmax_row_fast(a: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { softmax_row_fast_sse2(a) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    softmax_row_fast_scalar(a);
}

/// Scalar twin of [`softmax_row_fast`] — the original Fast-tier row pass.
pub fn softmax_row_fast_scalar(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in a.iter_mut() {
        *v = fastmath::fast_exp(*v - max);
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in a {
            *v *= inv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn softmax_row_fast_sse2(a: &mut [f32]) {
    use std::arch::x86_64::*;
    if a.is_empty() {
        return;
    }
    // Row max: lane-wise max, horizontally folded (order-independent).
    let (chunks, tail) = a.as_chunks::<4>();
    let mut m4 = _mm_set1_ps(f32::NEG_INFINITY);
    for c in chunks {
        m4 = _mm_max_ps(m4, load4(c));
    }
    let mut lanes = [0.0f32; 4];
    store4(&mut lanes, m4);
    let max = lanes
        .iter()
        .chain(tail)
        .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    // Shift, exponentiate, accumulate the normalizer.
    for v in a.iter_mut() {
        *v -= max;
    }
    fast_exp_slice_sse2(a);
    let (chunks, tail) = a.as_chunks::<4>();
    let mut s4 = _mm_setzero_ps();
    for c in chunks {
        s4 = _mm_add_ps(s4, load4(c));
    }
    let mut sum = hsum(s4);
    for &v in tail {
        sum += v;
    }
    if sum > 0.0 {
        let inv = _mm_set1_ps(1.0 / sum);
        let (chunks, tail) = a.as_chunks_mut::<4>();
        for c in chunks {
            store4(c, _mm_mul_ps(load4(c), inv));
        }
        let inv1 = 1.0 / sum;
        for v in tail {
            *v *= inv1;
        }
    }
}

/// Fast-tier LayerNorm row pass: mean/variance reduction then the
/// `(x - mean) * istd * gain + bias` affine sweep. Lane reductions may
/// shift the last bits versus the scalar twin; the affine sweep itself is
/// element-wise and rounds identically.
///
/// # Panics
/// Panics unless `gain` and `bias` are as long as `row`.
#[inline]
pub fn layer_norm_row_fast(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    assert!(
        gain.len() == row.len() && bias.len() == row.len(),
        "layer norm lengths: row {}, gain {}, bias {}",
        row.len(),
        gain.len(),
        bias.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { layer_norm_row_fast_sse2(row, gain, bias, eps) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    layer_norm_row_fast_scalar(row, gain, bias, eps);
}

/// Scalar twin of [`layer_norm_row_fast`]: the Exact tier's per-row
/// loops (mean, variance, normalize-affine) verbatim.
pub fn layer_norm_row_fast_scalar(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    if row.is_empty() {
        return;
    }
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let istd = 1.0 / (var + eps).sqrt();
    for ((v, &g), &b) in row.iter_mut().zip(gain).zip(bias) {
        *v = (*v - mean) * istd * g + b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn layer_norm_row_fast_sse2(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    use std::arch::x86_64::*;
    if row.is_empty() {
        return;
    }
    let n = row.len() as f32;
    let mean = {
        let (chunks, tail) = row.as_chunks::<4>();
        let mut s4 = _mm_setzero_ps();
        for c in chunks {
            s4 = _mm_add_ps(s4, load4(c));
        }
        let mut sum = hsum(s4);
        for &v in tail {
            sum += v;
        }
        sum / n
    };
    let var = {
        let m4 = _mm_set1_ps(mean);
        let (chunks, tail) = row.as_chunks::<4>();
        let mut s4 = _mm_setzero_ps();
        for c in chunks {
            let d = _mm_sub_ps(load4(c), m4);
            s4 = _mm_add_ps(s4, _mm_mul_ps(d, d));
        }
        let mut sum = hsum(s4);
        for &v in tail {
            sum += (v - mean) * (v - mean);
        }
        sum / n
    };
    let istd = 1.0 / (var + eps).sqrt();
    let m4 = _mm_set1_ps(mean);
    let s4 = _mm_set1_ps(istd);
    let (chunks, tail) = row.as_chunks_mut::<4>();
    let (g_chunks, g_tail) = gain.as_chunks::<4>();
    let (b_chunks, b_tail) = bias.as_chunks::<4>();
    for ((c, g), b) in chunks.iter_mut().zip(g_chunks).zip(b_chunks) {
        let y = _mm_add_ps(
            _mm_mul_ps(_mm_mul_ps(_mm_sub_ps(load4(c), m4), s4), load4(g)),
            load4(b),
        );
        store4(c, y);
    }
    for ((v, &g), &b) in tail.iter_mut().zip(g_tail).zip(b_tail) {
        *v = (*v - mean) * istd * g + b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sse2_compiled_in_on_x86_64() {
        // On x86-64 the SIMD branch must be the one under test; elsewhere
        // the scalar path is.
        assert_eq!(sse2_available(), cfg!(target_arch = "x86_64"));
    }

    proptest! {
        /// The dispatched Fast matmul tile agrees with its scalar twin
        /// bitwise on ragged shapes: row counts that are not a multiple of
        /// `MR` (including zero rows), and column counts that are not a
        /// multiple of `NR`.
        #[test]
        fn matmul_tile_simd_matches_scalar_bitwise(
            rows in 0usize..11,
            k in 1usize..19,
            n in 1usize..21,
            a_pool in proptest::collection::vec(-4.0f32..4.0, 10 * 18),
            b_pool in proptest::collection::vec(-4.0f32..4.0, 18 * 20),
        ) {
            let a = &a_pool[..rows * k];
            let b = crate::Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
            let mut packed = Vec::new();
            crate::matrix::pack_panels(&mut packed, &b, false);
            let mut simd = vec![f32::NAN; rows * n];
            let mut scalar = vec![f32::NAN; rows * n];
            packed_block_kernel_fast(a, k, &packed, n, &mut simd);
            crate::matrix::packed_block_kernel::<false>(a, k, &packed, n, &mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// The dispatched tanh slice pass agrees with the scalar twin
        /// bitwise for finite inputs — same clamp, same polynomial, same
        /// rounding — so either path passes the fastmath error-bound
        /// suite identically. Lengths cover empty slices and every
        /// `len % 4` tail.
        #[test]
        fn tanh_slice_simd_matches_scalar_bitwise(
            v in proptest::collection::vec(-50.0f32..50.0, 0..67)
        ) {
            let mut simd = v.clone();
            let mut scalar = v.clone();
            fast_tanh_slice(&mut simd);
            fast_tanh_slice_scalar(&mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// Same for the exp slice pass, across exp's full accurate range
        /// plus the saturated tail.
        #[test]
        fn exp_slice_simd_matches_scalar_bitwise(
            v in proptest::collection::vec(-200.0f32..87.0, 0..67)
        ) {
            let mut simd = v.clone();
            let mut scalar = v.clone();
            fast_exp_slice(&mut simd);
            fast_exp_slice_scalar(&mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// Softmax row pass: the SIMD reduction may move the normalizer's
        /// last bits, so the contract is a tolerance (well inside the
        /// Fast tier's documented bounds), plus distribution shape.
        #[test]
        fn softmax_row_simd_tracks_scalar(
            v in proptest::collection::vec(-50.0f32..50.0, 0..67)
        ) {
            let mut simd = v.clone();
            let mut scalar = v.clone();
            softmax_row_fast(&mut simd);
            softmax_row_fast_scalar(&mut scalar);
            if !v.is_empty() {
                prop_assert!((simd.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            }
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert!((s - c).abs() <= 1e-6, "simd={s} scalar={c}");
            }
        }

        /// LayerNorm row pass: same tolerance argument as softmax.
        #[test]
        fn layer_norm_row_simd_tracks_scalar(
            v in proptest::collection::vec(-10.0f32..10.0, 0..67),
            g in -2.0f32..2.0,
            b in -2.0f32..2.0,
        ) {
            let gain = vec![g; v.len()];
            let bias = vec![b; v.len()];
            let mut simd = v.clone();
            let mut scalar = v.clone();
            layer_norm_row_fast(&mut simd, &gain, &bias, 1e-5);
            layer_norm_row_fast_scalar(&mut scalar, &gain, &bias, 1e-5);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert!((s - c).abs() <= 1e-4 * (1.0 + c.abs()), "simd={s} scalar={c}");
            }
        }
    }

    /// The length contracts the SSE2 code relies on are checked on every
    /// call, in release builds too.
    #[test]
    #[should_panic(expected = "layer norm lengths")]
    fn layer_norm_rejects_short_gain() {
        layer_norm_row_fast(&mut [1.0; 6], &[1.0; 5], &[0.0; 6], 1e-5);
    }

    #[test]
    #[should_panic(expected = "fast kernel bounds")]
    fn fast_kernel_rejects_short_panels() {
        // 2 rows of k = 3 against a 3 x 8 operand needs 24 panel floats.
        packed_block_kernel_fast(&[1.0; 6], 3, &[1.0; 23], 8, &mut [0.0; 16]);
    }

    /// The scalar path passes the same error-bound suite as the
    /// dispatched path: run fastmath's documented contracts against the
    /// explicit `*_scalar` twins (on x86-64 the dispatched assertions
    /// above cover the SSE2 side of the same bounds).
    #[test]
    fn scalar_fallback_meets_fastmath_bounds() {
        let mut xs: Vec<f32> = (-1000..=1000).map(|i| i as f32 * 8e-3).collect();
        let expect_tanh: Vec<f32> = xs.iter().map(|x| x.tanh()).collect();
        fast_tanh_slice_scalar(&mut xs);
        for (got, want) in xs.iter().zip(&expect_tanh) {
            assert!((got - want).abs() <= 2e-4);
        }
        let mut xs: Vec<f32> = (-400..=800).map(|i| i as f32 * 0.1).collect();
        let expect_exp: Vec<f32> = xs.iter().map(|x| x.exp()).collect();
        fast_exp_slice_scalar(&mut xs);
        for (got, want) in xs.iter().zip(&expect_exp) {
            assert!(((got - want) / want).abs() <= 1e-5);
        }
    }
}
