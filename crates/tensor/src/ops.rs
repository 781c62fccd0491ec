//! BLAS-like dense kernels used by every executor in the workspace.
//!
//! These are the *reference* semantics; the VPPS interpreter re-implements
//! `gemv`/`gemv_t`/`ger` over register-cached matrix chunks and is tested for
//! equivalence against the functions here.

use crate::Matrix;

/// Matrix-vector product `y = W * x` (forward pass of a weight-matrix node).
///
/// # Panics
///
/// Panics if `x.len() != w.cols()` or `y.len() != w.rows()`.
pub fn gemv(w: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), w.cols(), "gemv: x length must equal matrix cols");
    assert_eq!(y.len(), w.rows(), "gemv: y length must equal matrix rows");
    for r in 0..w.rows() {
        y[r] = dot(w.row(r), x);
    }
}

/// Accumulating matrix-vector product `y += W * x`.
///
/// # Panics
///
/// Panics if `x.len() != w.cols()` or `y.len() != w.rows()`.
pub fn gemv_acc(w: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(
        x.len(),
        w.cols(),
        "gemv_acc: x length must equal matrix cols"
    );
    assert_eq!(
        y.len(),
        w.rows(),
        "gemv_acc: y length must equal matrix rows"
    );
    for r in 0..w.rows() {
        y[r] += dot(w.row(r), x);
    }
}

/// Transposed matrix-vector product `y += Wᵀ * dy` (input-gradient of a
/// weight-matrix node during backpropagation).
///
/// Note the accumulation: backward passes sum contributions from every
/// consumer of a node, so the transposed product always accumulates.
///
/// # Panics
///
/// Panics if `dy.len() != w.rows()` or `y.len() != w.cols()`.
pub fn gemv_t_acc(w: &Matrix, dy: &[f32], y: &mut [f32]) {
    assert_eq!(
        dy.len(),
        w.rows(),
        "gemv_t_acc: dy length must equal matrix rows"
    );
    assert_eq!(
        y.len(),
        w.cols(),
        "gemv_t_acc: y length must equal matrix cols"
    );
    for r in 0..w.rows() {
        let s = dy[r];
        if s == 0.0 {
            continue;
        }
        let row = w.row(r);
        for c in 0..w.cols() {
            y[c] += row[c] * s;
        }
    }
}

/// Rank-1 update `G += dy ⊗ x` (weight-gradient outer product, paper
/// §III-A2's third in-register routine).
///
/// # Panics
///
/// Panics if `dy.len() != g.rows()` or `x.len() != g.cols()`.
pub fn ger_acc(g: &mut Matrix, dy: &[f32], x: &[f32]) {
    assert_eq!(
        dy.len(),
        g.rows(),
        "ger_acc: dy length must equal gradient rows"
    );
    assert_eq!(
        x.len(),
        g.cols(),
        "ger_acc: x length must equal gradient cols"
    );
    for r in 0..g.rows() {
        let s = dy[r];
        if s == 0.0 {
            continue;
        }
        let row = g.row_mut(r);
        for c in 0..x.len() {
            row[c] += s * x[c];
        }
    }
}

/// General dense `C = A * B` on [`Matrix`] values (reference semantics for
/// batched baselines that fuse many matrix-vector products into one
/// matrix-matrix kernel).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let arow = a.row(i);
        for k in 0..a.cols() {
            let av = arow[k];
            if av == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let crow = c.row_mut(i);
            for j in 0..b.cols() {
                crow[j] += av * brow[j];
            }
        }
    }
    c
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: slices must have equal length");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: slices must have equal length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// One SGD step with L2 weight decay, `value -= lr * (grad + wd * value)`,
/// element by element in order — the update every trainer, kernel epilogue
/// and lookup-table step in the workspace applies, so they agree bit for
/// bit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
    assert_eq!(
        value.len(),
        grad.len(),
        "sgd_step: slices must have equal length"
    );
    for (v, g) in value.iter_mut().zip(grad) {
        *v -= lr * (g + wd * *v);
    }
}

/// Element-wise product `out = a .* b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cwise_mult(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "cwise_mult: inputs must have equal length"
    );
    assert_eq!(
        a.len(),
        out.len(),
        "cwise_mult: output must have equal length"
    );
    for i in 0..a.len() {
        out[i] = a[i] * b[i];
    }
}

/// Element-wise sum `out = a + b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cwise_add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "cwise_add: inputs must have equal length");
    assert_eq!(
        a.len(),
        out.len(),
        "cwise_add: output must have equal length"
    );
    for i in 0..a.len() {
        out[i] = a[i] + b[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let w = sample_matrix();
        let mut y = [0.0; 2];
        gemv(&w, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [6.0, 15.0]);
    }

    #[test]
    fn gemv_acc_accumulates() {
        let w = sample_matrix();
        let mut y = [10.0, 20.0];
        gemv_acc(&w, &[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y, [11.0, 24.0]);
    }

    #[test]
    fn gemv_t_acc_matches_explicit_transpose() {
        let w = sample_matrix();
        let dy = [2.0, -1.0];
        let mut via_routine = vec![0.0; 3];
        gemv_t_acc(&w, &dy, &mut via_routine);
        let wt = w.transposed();
        let mut via_transpose = vec![0.0; 3];
        gemv(&wt, &dy, &mut via_transpose);
        for (a, b) in via_routine.iter().zip(&via_transpose) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn ger_acc_builds_outer_product() {
        let mut g = Matrix::zeros(2, 3);
        ger_acc(&mut g, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(g.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn gemm_matches_identity() {
        let a = sample_matrix();
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm(&a, &id), a);
    }

    #[test]
    fn gemm_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = [1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, [3.0, -1.0]);
    }

    #[test]
    fn cwise_ops() {
        let mut out = [0.0; 2];
        cwise_mult(&[2.0, 3.0], &[4.0, 5.0], &mut out);
        assert_eq!(out, [8.0, 15.0]);
        cwise_add(&[2.0, 3.0], &[4.0, 5.0], &mut out);
        assert_eq!(out, [6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "gemv: x length")]
    fn gemv_rejects_bad_shapes() {
        let w = sample_matrix();
        let mut y = [0.0; 2];
        gemv(&w, &[1.0], &mut y);
    }
}
