//! Element-wise activation functions and their derivatives.
//!
//! These correspond to the static "typical operations" section of the paper's
//! specialized kernel source (Fig. 5, lines 10–13): forward and backward
//! device functions shared across all model specifications.
//!
//! They are the host reference's activations (`dyn_graph::exec`, and so the
//! DyNet-style baselines and the launch-per-op fallback), and they call the
//! platform libm (`f32::tanh`, `f32::exp`) on purpose. The VPPS backends
//! compute tanh and sigmoid with their own fixed rational instead
//! (`vpps::exec::kernels::{tanh_into, sigmoid_into}`), bit-identical on every
//! host and CPU tier; keeping libm here keeps this module an independent
//! oracle for the tolerance tests that compare the two, which agree to
//! within a few 1e-7 per activation.

/// Hyperbolic tangent forward: `out[i] = tanh(x[i])`.
///
/// # Panics
///
/// Panics if `x.len() != out.len()`.
pub fn tanh_forward(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "tanh_forward: length mismatch");
    for (o, v) in out.iter_mut().zip(x) {
        *o = v.tanh();
    }
}

/// Hyperbolic tangent backward: `dx[i] += dy[i] * (1 - y[i]^2)` where `y` is
/// the *forward output* (the form used on-GPU to avoid re-computing `tanh`).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn tanh_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(y.len(), dy.len(), "tanh_backward: length mismatch");
    assert_eq!(y.len(), dx.len(), "tanh_backward: length mismatch");
    for i in 0..y.len() {
        dx[i] += dy[i] * (1.0 - y[i] * y[i]);
    }
}

/// Logistic sigmoid forward: `out[i] = 1 / (1 + exp(-x[i]))`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sigmoid_forward(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "sigmoid_forward: length mismatch");
    for (o, v) in out.iter_mut().zip(x) {
        *o = 1.0 / (1.0 + (-v).exp());
    }
}

/// Logistic sigmoid backward: `dx[i] += dy[i] * y[i] * (1 - y[i])`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sigmoid_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(y.len(), dy.len(), "sigmoid_backward: length mismatch");
    assert_eq!(y.len(), dx.len(), "sigmoid_backward: length mismatch");
    for i in 0..y.len() {
        dx[i] += dy[i] * y[i] * (1.0 - y[i]);
    }
}

/// Rectified linear unit forward: `out[i] = max(0, x[i])`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn relu_forward(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "relu_forward: length mismatch");
    for (o, v) in out.iter_mut().zip(x) {
        *o = v.max(0.0);
    }
}

/// Rectified linear unit backward: `dx[i] += dy[i] * [y[i] > 0]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn relu_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(y.len(), dy.len(), "relu_backward: length mismatch");
    assert_eq!(y.len(), dx.len(), "relu_backward: length mismatch");
    for i in 0..y.len() {
        if y[i] > 0.0 {
            dx[i] += dy[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference check of an activation's backward against its
    /// forward, the same technique the autodiff tests use at graph level.
    fn check_grad(
        fwd: impl Fn(&[f32], &mut [f32]),
        bwd: impl Fn(&[f32], &[f32], &mut [f32]),
        x0: f32,
    ) {
        let eps = 1e-3_f32;
        let mut yp = [0.0];
        let mut ym = [0.0];
        fwd(&[x0 + eps], &mut yp);
        fwd(&[x0 - eps], &mut ym);
        let numeric = (yp[0] - ym[0]) / (2.0 * eps);

        let mut y = [0.0];
        fwd(&[x0], &mut y);
        let mut dx = [0.0];
        bwd(&y, &[1.0], &mut dx);
        assert!(
            (dx[0] - numeric).abs() < 1e-2,
            "analytic {} vs numeric {} at x={}",
            dx[0],
            numeric,
            x0
        );
    }

    #[test]
    fn tanh_gradient_is_consistent() {
        for &x in &[-2.0_f32, -0.5, 0.0, 0.7, 1.9] {
            check_grad(tanh_forward, tanh_backward, x);
        }
    }

    #[test]
    fn sigmoid_gradient_is_consistent() {
        for &x in &[-3.0_f32, -1.0, 0.0, 1.0, 2.5] {
            check_grad(sigmoid_forward, sigmoid_backward, x);
        }
    }

    #[test]
    fn relu_gradient_is_consistent_away_from_kink() {
        for &x in &[-2.0_f32, -0.5, 0.5, 2.0] {
            check_grad(relu_forward, relu_backward, x);
        }
    }

    #[test]
    fn tanh_known_values() {
        let mut out = [0.0; 2];
        tanh_forward(&[0.0, 1e9], &mut out);
        assert_eq!(out[0], 0.0);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let mut out = [0.0; 3];
        sigmoid_forward(&[-100.0, 0.0, 100.0], &mut out);
        assert!(out[0] >= 0.0 && out[0] < 1e-6);
        assert!((out[1] - 0.5).abs() < 1e-6);
        assert!(out[2] > 1.0 - 1e-6 && out[2] <= 1.0);
    }

    #[test]
    fn backward_accumulates_rather_than_overwrites() {
        let mut dx = [1.0];
        tanh_backward(&[0.0], &[2.0], &mut dx);
        assert_eq!(dx[0], 3.0); // 1.0 + 2.0 * (1 - 0)
    }

    #[test]
    fn relu_clamps_negative() {
        let mut out = [0.0; 3];
        relu_forward(&[-1.0, 0.0, 2.0], &mut out);
        assert_eq!(out, [0.0, 0.0, 2.0]);
    }
}
