//! Property-based tests for the numeric substrate, driven by the
//! deterministic [`icn_stats::check`] harness.

use icn_stats::check::{cases, len_in, uniform_vec};
use icn_stats::distance::{sq_euclidean, sq_euclidean4};
use icn_stats::rank;
use icn_stats::rng::Rng;
use icn_stats::summary;
use icn_stats::{Histogram, Matrix};

fn finite_vec(rng: &mut Rng, lo: usize, hi: usize) -> Vec<f64> {
    let len = len_in(rng, lo, hi);
    uniform_vec(rng, len, -1e6, 1e6)
}

#[test]
fn quantile_is_monotone() {
    cases(64, |case, rng| {
        let xs = finite_vec(rng, 1, 60);
        let (q1, q2) = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0));
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        assert!(
            summary::quantile(&xs, lo) <= summary::quantile(&xs, hi) + 1e-9,
            "case {case}"
        );
    });
}

#[test]
fn quantile_within_range() {
    cases(64, |case, rng| {
        let xs = finite_vec(rng, 1, 60);
        let v = summary::quantile(&xs, rng.uniform(0.0, 1.0));
        assert!(v >= summary::min(&xs) - 1e-9, "case {case}");
        assert!(v <= summary::max(&xs) + 1e-9, "case {case}");
    });
}

#[test]
fn mean_shift_equivariance() {
    cases(64, |case, rng| {
        let xs = finite_vec(rng, 1, 40);
        let c = rng.uniform(-1e3, 1e3);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let d = summary::mean(&shifted) - summary::mean(&xs);
        assert!((d - c).abs() < 1e-6, "case {case}: {d} vs {c}");
    });
}

#[test]
fn euclidean_triangle_inequality() {
    cases(64, |case, rng| {
        let a = uniform_vec(rng, 3, -1e6, 1e6);
        let b = uniform_vec(rng, 3, -1e6, 1e6);
        let c = uniform_vec(rng, 3, -1e6, 1e6);
        let ab = sq_euclidean(&a, &b).sqrt();
        let bc = sq_euclidean(&b, &c).sqrt();
        let ac = sq_euclidean(&a, &c).sqrt();
        assert!(ac <= ab + bc + 1e-6, "case {case}");
    });
}

#[test]
fn metric_symmetry_and_identity() {
    cases(64, |case, rng| {
        let a = uniform_vec(rng, 4, -1e6, 1e6);
        let b = uniform_vec(rng, 4, -1e6, 1e6);
        for (name, kernel) in [
            ("sq_euclidean", sq_euclidean as fn(&[f64], &[f64]) -> f64),
            ("sq_euclidean4", sq_euclidean4),
        ] {
            assert_eq!(kernel(&a, &b), kernel(&b, &a), "case {case}: {name}");
            assert_eq!(kernel(&a, &a), 0.0, "case {case}: {name}");
            assert!(kernel(&a, &b) >= 0.0, "case {case}: {name}");
        }
    });
}

#[test]
fn four_lane_kernel_agrees_with_scalar() {
    cases(64, |case, rng| {
        let len = len_in(rng, 1, 40);
        let a = uniform_vec(rng, len, -1e6, 1e6);
        let b = uniform_vec(rng, len, -1e6, 1e6);
        let (scalar, lanes) = (sq_euclidean(&a, &b), sq_euclidean4(&a, &b));
        assert!(
            (scalar - lanes).abs() <= 1e-12 * scalar.max(1.0),
            "case {case}: {scalar} vs {lanes}"
        );
    });
}

#[test]
fn histogram_conserves_mass() {
    cases(64, |case, rng| {
        let xs = finite_vec(rng, 1, 200);
        let bins = len_in(rng, 1, 30);
        let h = Histogram::of(&xs, -10.0, 10.0, bins);
        assert_eq!(h.total(), xs.len() as u64, "case {case}");
    });
}

#[test]
fn top_k_contains_max() {
    cases(64, |case, rng| {
        let xs = finite_vec(rng, 1, 50);
        let k = len_in(rng, 1, 10);
        let t = rank::top_k(&xs, k);
        assert_eq!(t[0], rank::argmax(&xs), "case {case}");
    });
}

#[test]
fn rng_uniform_bounds() {
    cases(64, |case, rng| {
        let lo = rng.uniform(-100.0, 0.0);
        let hi = lo + rng.uniform(0.001, 100.0);
        let mut r = Rng::seed_from(rng.next_u64());
        for _ in 0..32 {
            let x = r.uniform(lo, hi);
            assert!(x >= lo && x < hi, "case {case}: {x} not in [{lo},{hi})");
        }
    });
}

#[test]
fn rng_below_in_range() {
    cases(64, |case, rng| {
        let n = 1 + rng.below(1_000_000);
        let mut r = Rng::seed_from(rng.next_u64());
        for _ in 0..32 {
            assert!(r.below(n) < n, "case {case}");
        }
    });
}

#[test]
fn matrix_row_col_sums_total() {
    cases(64, |case, rng| {
        let rows = len_in(rng, 1, 8);
        let cols = len_in(rng, 1, 8);
        let data = uniform_vec(rng, rows * cols, 0.0, 10.0);
        let m = Matrix::from_vec(rows, cols, data);
        let t = m.total();
        let rs: f64 = m.row_sums().iter().sum();
        let cs: f64 = m.col_sums().iter().sum();
        assert!((t - rs).abs() < 1e-9, "case {case}");
        assert!((t - cs).abs() < 1e-9, "case {case}");
    });
}
