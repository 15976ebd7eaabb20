//! Forward arithmetic shared by the autodiff tape and tape-free forwards.
//!
//! Each function here is the one definition of an op's per-element
//! forward arithmetic. [`crate::graph::Graph`] records it on the tape (and
//! keeps what the backward pass needs); `structmine_plm`'s inference
//! forward calls it directly with no tape. Because both run the same
//! operations in the same order, the Exact tier's tape-free outputs are
//! bitwise identical to the tape's.

/// The layer-norm variance epsilon.
pub const LAYER_NORM_EPS: f32 = 1e-5;

/// `sqrt(2/pi)`, the GELU tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;

/// Exact layer norm of one row: writes the normalized row
/// `xhat = (x - mean) * istd` and the affine output `xhat * gain + bias`,
/// and returns `istd` (the tape keeps `xhat` and `istd` for the backward
/// pass).
pub fn layer_norm_row(
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) -> f32 {
    let d = x.len() as f32;
    let mean = x.iter().sum::<f32>() / d;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
    let istd = 1.0 / (var + LAYER_NORM_EPS).sqrt();
    for (nr, &v) in xhat.iter_mut().zip(x) {
        *nr = (v - mean) * istd;
    }
    for (((o, &xh), &g), &b) in out.iter_mut().zip(&*xhat).zip(gain).zip(bias) {
        *o = xh * g + b;
    }
    istd
}

/// GELU (tanh approximation) of `x` with the given `tanh`: returns the
/// activation and the inner tanh (which the tape's backward pass reuses).
#[inline]
pub fn gelu(x: f32, tanh: impl Fn(f32) -> f32) -> (f32, f32) {
    let t = tanh(GELU_C * (x + 0.044715 * x * x * x));
    (0.5 * x * (1.0 + t), t)
}

/// Derivative of [`gelu`] at `x`, given its inner tanh `t`.
#[inline]
pub(crate) fn gelu_grad(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// Logistic sigmoid of `x` with the given `exp`.
#[inline]
pub fn sigmoid(x: f32, exp: impl Fn(f32) -> f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}
