//! Regression test: the parallel, block-stitched [`Condensed::from_rows`]
//! must agree exactly with a naive O(N²) nested-loop reference over every
//! pair and every metric, on matrices large enough to exercise the
//! multi-threaded chunking path.

use icn_cluster::Condensed;
use icn_stats::distance::{sq_euclidean, sq_euclidean4};
use icn_stats::{Matrix, Metric, Rng};

fn random_matrix(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.uniform(-5.0, 5.0)).collect())
        .collect();
    Matrix::from_rows(&rows)
}

/// `kernel` of two rows under `metric`: the squared distance itself, or
/// its square root for Euclidean.
fn under(metric: Metric, kernel: fn(&[f64], &[f64]) -> f64, a: &[f64], b: &[f64]) -> f64 {
    match metric {
        Metric::SqEuclidean => kernel(a, b),
        Metric::Euclidean => kernel(a, b).sqrt(),
    }
}

/// The reference: every ordered pair, straight from the per-pair kernel
/// `Condensed::from_rows` commits to — the 4-lane accumulator.
fn naive_pairwise(m: &Matrix, metric: Metric) -> Vec<Vec<f64>> {
    let n = m.rows();
    let kernel = |a: &[f64], b: &[f64]| under(metric, sq_euclidean4, a, b);
    let mut full = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            full[i][j] = if i == j {
                0.0
            } else {
                kernel(m.row(i), m.row(j))
            };
        }
    }
    full
}

#[test]
fn condensed_matches_naive_reference_for_every_pair_and_metric() {
    let metrics = [Metric::Euclidean, Metric::SqEuclidean];
    // 137 rows: prime, larger than any thread-chunk granule, so the
    // parallel block stitching is exercised with ragged tails.
    let m = random_matrix(0xD15_7A4CE, 137, 11);
    for metric in metrics {
        let c = Condensed::from_rows(&m, metric);
        let full = naive_pairwise(&m, metric);
        assert_eq!(c.len(), m.rows());
        assert_eq!(c.as_slice().len(), 137 * 136 / 2);
        for (i, row) in full.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let got = c.get(i, j);
                // Identical code path computes each pair once, so the match
                // must be exact, not approximate.
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{metric:?} ({i},{j}): {got} vs {want}"
                );
                // And the 4-lane kernel may only differ from the scalar
                // sum by reassociation noise.
                let scalar = if i == j {
                    0.0
                } else {
                    under(metric, sq_euclidean, m.row(i), m.row(j))
                };
                assert!(
                    (got - scalar).abs() <= 1e-11 * scalar.abs().max(1.0),
                    "{metric:?} ({i},{j}): {got} vs scalar {scalar}"
                );
            }
        }
    }
}

#[test]
fn condensed_is_thread_count_invariant() {
    // The condensed layout must not depend on how many worker threads
    // computed it: pin to 1 thread via the env cap and compare against the
    // default (multi-threaded) result bit for bit.
    let m = random_matrix(99, 101, 7);
    let multi = Condensed::from_rows(&m, Metric::Euclidean);
    std::env::set_var("ICN_THREADS", "1");
    let single = Condensed::from_rows(&m, Metric::Euclidean);
    std::env::remove_var("ICN_THREADS");
    let bits = |c: &Condensed| -> Vec<u64> { c.as_slice().iter().map(|x| x.to_bits()).collect() };
    assert_eq!(bits(&multi), bits(&single));
}

#[test]
fn degenerate_sizes() {
    for n in [0, 1, 2] {
        let m = random_matrix(5, n, 3);
        let c = Condensed::from_rows(&m, Metric::Euclidean);
        assert_eq!(c.len(), n);
        assert_eq!(c.as_slice().len(), n * n.saturating_sub(1) / 2);
        assert_eq!(c.is_empty(), n == 0);
    }
}
