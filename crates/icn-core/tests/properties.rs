//! Property-based tests for the RCA/RSCA transforms — the algebraic
//! identities Eq. (1), (2) and (5) must satisfy on arbitrary traffic —
//! driven by the deterministic [`icn_stats::check`] harness.

use icn_core::{filter_dead_rows, rca, rsca, rsca_from_rca};
use icn_stats::check::{cases, len_in};
use icn_stats::{Matrix, Rng};

fn traffic_matrix(rng: &mut Rng) -> Matrix {
    let n = len_in(rng, 1, 12);
    let m = len_in(rng, 2, 10);
    let data: Vec<f64> = (0..n * m).map(|_| rng.lognormal(3.0, 2.0)).collect();
    Matrix::from_vec(n, m, data)
}

#[test]
fn rca_is_nonnegative_finite() {
    cases(64, |case, rng| {
        let t = traffic_matrix(rng);
        let r = rca(&t);
        assert!(!r.has_non_finite(), "case {case}");
        assert!(r.as_slice().iter().all(|&v| v >= 0.0), "case {case}");
    });
}

#[test]
fn rca_share_weighted_mean_is_one_per_row() {
    // The RCA is a ratio of distributions, so Σ_j RCA_ij · (T_j / T_tot)
    // = 1 for every live antenna i.
    cases(64, |case, rng| {
        let t = traffic_matrix(rng);
        let r = rca(&t);
        let col = t.col_sums();
        let total = t.total();
        for i in 0..t.rows() {
            let s: f64 = (0..t.cols()).map(|j| r.get(i, j) * col[j] / total).sum();
            assert!((s - 1.0).abs() < 1e-9, "case {case} row {i}: {s}");
        }
    });
}

#[test]
fn rsca_bounded() {
    cases(64, |case, rng| {
        let t = traffic_matrix(rng);
        let s = rsca(&t);
        assert!(
            s.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)),
            "case {case}"
        );
    });
}

#[test]
fn rsca_monotone_in_rca() {
    cases(64, |case, rng| {
        let a = rng.uniform(0.0, 50.0);
        let b = rng.uniform(0.0, 50.0);
        let sa = rsca_from_rca(&Matrix::from_vec(1, 1, vec![a])).get(0, 0);
        let sb = rsca_from_rca(&Matrix::from_vec(1, 1, vec![b])).get(0, 0);
        if a < b {
            assert!(sa < sb, "case {case}: rsca({a})={sa} !< rsca({b})={sb}");
        }
    });
}

#[test]
fn rca_invariant_to_global_rescale() {
    // Multiplying ALL traffic by a constant changes nothing: RCA is a
    // ratio of shares.
    cases(64, |case, rng| {
        let t = traffic_matrix(rng);
        let scale = rng.uniform(0.01, 100.0);
        let scaled = t.map(|v| v * scale);
        let r1 = rca(&t);
        let r2 = rca(&scaled);
        for (a, b) in r1.as_slice().iter().zip(r2.as_slice()) {
            assert!(
                (a - b).abs() < 1e-6_f64.max(a.abs() * 1e-9),
                "case {case}: {a} vs {b}"
            );
        }
    });
}

#[test]
fn rca_rsca_invariant_to_uniform_row_rescale() {
    // Scaling every row by the SAME factor is popularity-neutral: both
    // the RCA and the RSCA must stay identical.
    cases(64, |case, rng| {
        let t = traffic_matrix(rng);
        let scale = rng.uniform(0.1, 10.0);
        let scaled = t.map(|v| v * scale);
        let r1 = rca(&t);
        let r2 = rca(&scaled);
        for (a, b) in r1.as_slice().iter().zip(r2.as_slice()) {
            assert!((a - b).abs() < 1e-6, "case {case}: rca {a} vs {b}");
        }
        let s1 = rsca(&t);
        let s2 = rsca(&scaled);
        for (a, b) in s1.as_slice().iter().zip(s2.as_slice()) {
            assert!((a - b).abs() < 1e-6, "case {case}: rsca {a} vs {b}");
        }
    });
}

#[test]
fn uniform_antenna_has_unit_rca() {
    // An antenna whose service mix equals the global mix has RCA = 1
    // everywhere. Build: every row proportional to the same vector.
    cases(64, |case, rng| {
        let m = len_in(rng, 2, 10);
        let base: Vec<f64> = (0..m).map(|_| rng.uniform(1.0, 10.0)).collect();
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| base.iter().map(|&v| v * (i + 1) as f64).collect())
            .collect();
        let t = Matrix::from_rows(&rows);
        let r = rca(&t);
        assert!(
            r.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-9),
            "case {case}"
        );
    });
}

#[test]
fn filter_dead_rows_never_passes_an_all_zero_row() {
    // Zero out a random subset of rows; the filter must drop exactly
    // those and report the surviving indices in order.
    cases(64, |case, rng| {
        let mut t = traffic_matrix(rng);
        let mut killed = Vec::new();
        for i in 0..t.rows() {
            if rng.uniform(0.0, 1.0) < 0.4 {
                for j in 0..t.cols() {
                    t.set(i, j, 0.0);
                }
                killed.push(i);
            }
        }
        let (live, idx) = filter_dead_rows(&t);
        assert_eq!(live.rows(), t.rows() - killed.len(), "case {case}");
        assert_eq!(live.rows(), idx.len(), "case {case}");
        for r in 0..live.rows() {
            let sum: f64 = live.row(r).iter().sum();
            assert!(sum > 0.0, "case {case}: all-zero row {r} survived");
            assert!(!killed.contains(&idx[r]), "case {case}: dead index kept");
        }
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "case {case}: order");
    });
}
