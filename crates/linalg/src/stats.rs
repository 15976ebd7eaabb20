//! Numerically stable reductions and summary statistics.

/// Stable softmax over a slice, in place.
pub fn softmax_inplace(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in a.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in a {
            *v *= inv;
        }
    }
}

/// Fast-tier stable softmax in place: identical max-subtract/normalize
/// structure to [`softmax_inplace`], with [`crate::fastmath::fast_exp`]
/// (rel error ≤ 1e-5) instead of libm `exp`. Entries more than ~41
/// below the row max come out at `fast_exp`'s ~2^-60 saturation floor
/// rather than underflowing further — beyond f32 resolution of the
/// normalized row either way, and it keeps the output (and everything
/// later multiplied by it) free of subnormals. Only Fast-precision
/// inference calls this; Exact paths keep the libm version. Runs the
/// SSE2 row pass ([`crate::simd::softmax_row_fast`]) on x86-64, with the
/// scalar loop as the portable path.
pub fn softmax_inplace_fast(a: &mut [f32]) {
    crate::simd::softmax_row_fast(a);
}

/// Stable softmax, returning a new vector.
pub fn softmax(a: &[f32]) -> Vec<f32> {
    let mut v = a.to_vec();
    softmax_inplace(&mut v);
    v
}

/// log(sum(exp(a))) computed stably.
pub fn log_sum_exp(a: &[f32]) -> f32 {
    if a.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    max + a.iter().map(|v| (v - max).exp()).sum::<f32>().ln()
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    (a.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / a.len() as f32).sqrt()
}

/// Shannon entropy (nats) of a probability vector; ignores non-positive entries.
pub fn entropy(p: &[f32]) -> f32 {
    -p.iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| v * v.ln())
        .sum::<f32>()
}

/// Sharpen a probability distribution with temperature `t` (< 1 sharpens).
pub fn sharpen(p: &[f32], t: f32) -> Vec<f32> {
    let mut out: Vec<f32> = p.iter().map(|&v| v.max(1e-12).powf(1.0 / t)).collect();
    let sum: f32 = out.iter().sum();
    for v in &mut out {
        *v /= sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let s = softmax(&[1000.0, 1000.0]);
        assert!((s[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let a = [0.1f32, 0.2, 0.3];
        let naive = a.iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&a) - naive).abs() < 1e-5);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let p = [0.25f32; 4];
        assert!((entropy(&p) - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn sharpen_increases_max_probability() {
        let p = [0.6f32, 0.3, 0.1];
        let s = sharpen(&p, 0.5);
        assert!(s[0] > p[0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[2.0, 2.0, 2.0]), 0.0);
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let s = softmax(&v);
            prop_assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn log_sum_exp_ge_max(v in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(log_sum_exp(&v) >= max - 1e-4);
        }

        #[test]
        fn fast_softmax_tracks_exact_softmax(v in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let exact = softmax(&v);
            let mut fast = v.clone();
            softmax_inplace_fast(&mut fast);
            prop_assert!((fast.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            for (f, e) in fast.iter().zip(&exact) {
                prop_assert!((f - e).abs() <= 1e-4, "fast={f} exact={e}");
            }
        }
    }
}
