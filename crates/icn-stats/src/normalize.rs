//! Normalisation transforms.
//!
//! Section 4.1 of the paper argues that normalising the traffic matrix by
//! the global maximum "squeezes" most services near zero (the spike in
//! Figure 1) and motivates RCA/RSCA instead. These helpers implement the
//! normalisations that the figure harness and the transform-ablation bench
//! (B1) compare against.

use crate::matrix::Matrix;

/// Divides every entry by the global maximum of the matrix — the
/// "normalized traffic" of Figure 1. A zero matrix is returned unchanged.
pub fn by_global_max(m: &Matrix) -> Matrix {
    let mx = m.max();
    if mx <= 0.0 {
        return m.clone();
    }
    m.map(|v| v / mx)
}

/// Scales each row to sum to one (service *shares* per antenna). Rows that
/// sum to zero are left as zeros.
pub fn row_stochastic(m: &Matrix) -> Matrix {
    let sums = m.row_sums();
    let mut out = m.clone();
    for r in 0..out.rows() {
        let s = sums[r];
        if s > 0.0 {
            for v in out.row_mut(r) {
                *v /= s;
            }
        }
    }
    out
}

/// Normalises a slice by its own maximum (used for the per-cluster temporal
/// heatmaps of Figures 10–11, which plot *normalised* median traffic).
/// All-zero input stays all-zero.
pub fn by_max(xs: &[f64]) -> Vec<f64> {
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(hi > 0.0) {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|&x| x / hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_max_scales_to_unit() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let n = by_global_max(&m);
        assert_eq!(n.get(1, 1), 1.0);
        assert_eq!(n.get(0, 0), 0.25);
    }

    #[test]
    fn global_max_zero_matrix_unchanged() {
        let m = Matrix::zeros(2, 2);
        assert_eq!(by_global_max(&m), m);
    }

    #[test]
    fn row_stochastic_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
        let n = row_stochastic(&m);
        let s: f64 = n.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        // Zero row untouched.
        assert_eq!(n.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn by_max_basics() {
        assert_eq!(by_max(&[0.0, 2.0, 4.0]), vec![0.0, 0.5, 1.0]);
        assert_eq!(by_max(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
