//! Revealed comparative advantage transforms (Section 4.1).
//!
//! The heart of the paper's preprocessing. Directly clustering raw traffic
//! groups antennas by popularity, so the paper borrows the **revealed
//! comparative advantage** (RCA) from international economics (Eq. 1):
//!
//! ```text
//! RCA[i][j] = (T[i][j] / T[i]) / (T[j] / T_tot)
//! ```
//!
//! and symmetrises it into the **revealed symmetric comparative advantage**
//! (RSCA, Eq. 2): `RSCA = (RCA − 1) / (RCA + 1) ∈ [−1, 1]`, negative for
//! under- and positive for over-utilisation.
//!
//! For the outdoor comparison (Eq. 5), the outdoor antenna's service mix is
//! referenced against the **indoor** service totals, measuring how an
//! outdoor antenna's usage compares to typical indoor usage.

use icn_stats::Matrix;

/// Computes the RCA matrix of Eq. (1).
///
/// ```
/// use icn_stats::Matrix;
/// // Antenna 0 skews to service 0, antenna 1 to service 1:
/// let t = Matrix::from_vec(2, 2, vec![30.0, 10.0, 10.0, 30.0]);
/// let r = icn_core::rca(&t);
/// assert!((r.get(0, 0) - 1.5).abs() < 1e-12); // over-utilised
/// assert!((r.get(0, 1) - 0.5).abs() < 1e-12); // under-utilised
/// ```
///
/// Rows whose total traffic is zero produce all-zero RCA rows (maximal
/// "disadvantage") rather than NaN — but upstream code should filter dead
/// antennas first; see [`filter_dead_rows`].
///
/// # Panics
/// If the matrix has no traffic at all or any negative entry.
pub fn rca(t: &Matrix) -> Matrix {
    assert!(
        t.as_slice().iter().all(|&v| v >= 0.0 && v.is_finite()),
        "rca: negative or non-finite traffic"
    );
    let total = t.total();
    assert!(total > 0.0, "rca: matrix has no traffic");
    let row_sums = t.row_sums();
    let col_sums = t.col_sums();
    let m = t.cols();
    let mut out = Matrix::zeros(t.rows(), m);
    for i in 0..t.rows() {
        let ti = row_sums[i];
        if ti <= 0.0 {
            continue; // dead antenna: RCA row stays zero
        }
        // 4-lane row transform: every element is independent and keeps
        // the exact `(t_ij / ti) / (tj / total)` op order, so the widened
        // loop (overlapping the per-lane divide chains) is bit-identical
        // to the scalar one. A lane whose service total is zero computes
        // a discarded value and skips the store ("unused anywhere" stays
        // zero, as before).
        let src = t.row(i);
        let dst = out.row_mut(i);
        let mut j = 0usize;
        while j + 4 <= m {
            let v0 = (src[j] / ti) / (col_sums[j] / total);
            let v1 = (src[j + 1] / ti) / (col_sums[j + 1] / total);
            let v2 = (src[j + 2] / ti) / (col_sums[j + 2] / total);
            let v3 = (src[j + 3] / ti) / (col_sums[j + 3] / total);
            if col_sums[j] > 0.0 {
                dst[j] = v0;
            }
            if col_sums[j + 1] > 0.0 {
                dst[j + 1] = v1;
            }
            if col_sums[j + 2] > 0.0 {
                dst[j + 2] = v2;
            }
            if col_sums[j + 3] > 0.0 {
                dst[j + 3] = v3;
            }
            j += 4;
        }
        while j < m {
            if col_sums[j] > 0.0 {
                dst[j] = (src[j] / ti) / (col_sums[j] / total);
            }
            j += 1;
        }
    }
    out
}

/// Symmetrises an RCA matrix into RSCA per Eq. (2): `(rca−1)/(rca+1)`.
///
/// Element-wise and lane-widened like [`rca`]: four independent divide
/// chains per step, exact per-element ops, bit-identical to a scalar map.
pub fn rsca_from_rca(rca: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(rca.rows(), rca.cols());
    let sym = |v: f64| {
        debug_assert!(v >= 0.0, "rsca: negative RCA");
        (v - 1.0) / (v + 1.0)
    };
    for i in 0..rca.rows() {
        let src = rca.row(i);
        let dst = out.row_mut(i);
        let mut sc = src.chunks_exact(4);
        let mut dc = dst.chunks_exact_mut(4);
        for (s, d) in sc.by_ref().zip(dc.by_ref()) {
            d[0] = sym(s[0]);
            d[1] = sym(s[1]);
            d[2] = sym(s[2]);
            d[3] = sym(s[3]);
        }
        for (s, d) in sc.remainder().iter().zip(dc.into_remainder()) {
            *d = sym(*s);
        }
    }
    out
}

/// One-step RSCA of a traffic matrix (Eq. 1 then Eq. 2).
///
/// ```
/// use icn_stats::Matrix;
/// let t = Matrix::from_vec(2, 2, vec![30.0, 10.0, 10.0, 30.0]);
/// let s = icn_core::rsca(&t);
/// assert!(s.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
/// assert!(s.get(0, 0) > 0.0 && s.get(0, 1) < 0.0);
/// ```
pub fn rsca(t: &Matrix) -> Matrix {
    rsca_from_rca(&rca(t))
}

/// Outdoor RCA of Eq. (5): each outdoor antenna's per-service share is
/// referenced against the *indoor* share of that service
/// (`T_in[j] / T_tot_in`), so the result measures how outdoor usage
/// deviates from typical indoor usage.
///
/// # Panics
/// If shapes mismatch or the indoor matrix is empty of traffic.
pub fn outdoor_rca(t_out: &Matrix, t_in: &Matrix) -> Matrix {
    assert_eq!(
        t_out.cols(),
        t_in.cols(),
        "outdoor_rca: service dimension mismatch"
    );
    let total_in = t_in.total();
    assert!(total_in > 0.0, "outdoor_rca: indoor matrix has no traffic");
    let in_col = t_in.col_sums();
    let out_rows = t_out.row_sums();
    let mut out = Matrix::zeros(t_out.rows(), t_out.cols());
    for i in 0..t_out.rows() {
        let ti = out_rows[i];
        if ti <= 0.0 {
            continue;
        }
        for j in 0..t_out.cols() {
            let ref_share = in_col[j] / total_in;
            if ref_share <= 0.0 {
                continue;
            }
            out.set(i, j, (t_out.get(i, j) / ti) / ref_share);
        }
    }
    out
}

/// Outdoor RSCA: Eq. (5) then Eq. (2).
pub fn outdoor_rsca(t_out: &Matrix, t_in: &Matrix) -> Matrix {
    rsca_from_rca(&outdoor_rca(t_out, t_in))
}

/// Splits a traffic matrix into `(live_matrix, live_row_indices)`,
/// dropping rows with zero total traffic. The paper's probes occasionally
/// see silent antennas; RCA needs positive row totals.
pub fn filter_dead_rows(t: &Matrix) -> (Matrix, Vec<usize>) {
    let live: Vec<usize> = t
        .row_sums()
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0.0)
        .map(|(i, _)| i)
        .collect();
    (t.select_rows(&live), live)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×2 where antenna 0 skews to service 0 and antenna 1 to service 1.
    fn skewed() -> Matrix {
        Matrix::from_vec(2, 2, vec![30.0, 10.0, 10.0, 30.0])
    }

    #[test]
    fn rca_hand_computed() {
        let r = rca(&skewed());
        // T_i = 40 each; T_j = 40 each; T_tot = 80.
        // RCA[0][0] = (30/40)/(40/80) = 0.75/0.5 = 1.5.
        assert!((r.get(0, 0) - 1.5).abs() < 1e-12);
        assert!((r.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((r.get(1, 0) - 0.5).abs() < 1e-12);
        assert!((r.get(1, 1) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_matrix_rca_is_one() {
        let t = Matrix::from_vec(3, 4, vec![5.0; 12]);
        let r = rca(&t);
        assert!(r.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-12));
        // And RSCA is identically zero.
        let s = rsca(&t);
        assert!(s.as_slice().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn rsca_bounds_and_signs() {
        let s = rsca(&skewed());
        for &v in s.as_slice() {
            assert!((-1.0..=1.0).contains(&v));
        }
        assert!(s.get(0, 0) > 0.0); // over-utilised
        assert!(s.get(0, 1) < 0.0); // under-utilised
                                    // RSCA(1.5) = 0.2; RSCA(0.5) = -1/3.
        assert!((s.get(0, 0) - 0.2).abs() < 1e-12);
        assert!((s.get(0, 1) + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rsca_is_antisymmetric_in_rca_inversion() {
        // RSCA(r) = -RSCA(1/r): over-use by factor f mirrors under-use.
        for r in [0.1, 0.5, 2.0, 7.0] {
            let m = Matrix::from_vec(1, 1, vec![r]);
            let inv = Matrix::from_vec(1, 1, vec![1.0 / r]);
            let a = rsca_from_rca(&m).get(0, 0);
            let b = rsca_from_rca(&inv).get(0, 0);
            assert!((a + b).abs() < 1e-12, "r={r}");
        }
    }

    #[test]
    fn dead_row_yields_zero_rca_not_nan() {
        let t = Matrix::from_vec(2, 2, vec![0.0, 0.0, 10.0, 10.0]);
        let r = rca(&t);
        assert_eq!(r.row(0), &[0.0, 0.0]);
        assert!(!r.has_non_finite());
    }

    #[test]
    fn dead_column_yields_zero_rca_not_nan() {
        let t = Matrix::from_vec(2, 2, vec![10.0, 0.0, 10.0, 0.0]);
        let r = rca(&t);
        assert_eq!(r.col(1), vec![0.0, 0.0]);
        assert!(!r.has_non_finite());
    }

    #[test]
    fn filter_dead_rows_drops_and_indexes() {
        let t = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
        let (live, idx) = filter_dead_rows(&t);
        assert_eq!(idx, vec![0, 2]);
        assert_eq!(live.rows(), 2);
        assert_eq!(live.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn outdoor_rca_references_indoor_shares() {
        // Indoor: service shares 0.75 / 0.25.
        let t_in = Matrix::from_vec(1, 2, vec![75.0, 25.0]);
        // Outdoor antenna with shares 0.5 / 0.5.
        let t_out = Matrix::from_vec(1, 2, vec![10.0, 10.0]);
        let r = outdoor_rca(&t_out, &t_in);
        assert!((r.get(0, 0) - 0.5 / 0.75).abs() < 1e-12);
        assert!((r.get(0, 1) - 0.5 / 0.25).abs() < 1e-12);
    }

    #[test]
    fn outdoor_rsca_in_bounds() {
        let t_in = Matrix::from_vec(2, 3, vec![5.0, 1.0, 4.0, 2.0, 8.0, 1.0]);
        let t_out = Matrix::from_vec(2, 3, vec![1.0, 1.0, 8.0, 3.0, 3.0, 3.0]);
        let s = outdoor_rsca(&t_out, &t_in);
        assert!(s.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "no traffic")]
    fn all_zero_matrix_panics() {
        rca(&Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn negative_traffic_panics() {
        rca(&Matrix::from_vec(1, 2, vec![1.0, -2.0]));
    }

    #[test]
    #[should_panic(expected = "service dimension mismatch")]
    fn outdoor_shape_mismatch_panics() {
        outdoor_rca(&Matrix::zeros(1, 2), &Matrix::from_vec(1, 3, vec![1.0; 3]));
    }
}
