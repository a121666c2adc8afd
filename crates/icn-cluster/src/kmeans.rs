//! k-means baseline (Lloyd's algorithm with k-means++ seeding).
//!
//! The paper motivates agglomerative clustering by its "comprehensibility"
//! among the multiple available techniques (Section 4.2.1); the B3 ablation
//! bench compares it against this standard k-means baseline on silhouette,
//! Dunn and recovery of the planted archetypes.

use icn_stats::{distance::sq_euclidean, Matrix, Rng};

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Per-row cluster assignment, dense `0..k`.
    pub labels: Vec<usize>,
    /// Final cluster centroids (k × features).
    pub centroids: Matrix,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the assignment converged before the iteration cap.
    pub converged: bool,
}

/// Runs k-means++ initialised Lloyd's algorithm.
///
/// # Panics
/// If `k == 0`, `k > rows`, or the data contains non-finite values.
fn kmeans(data: &Matrix, k: usize, max_iter: usize, rng: &mut Rng) -> KMeansResult {
    let n = data.rows();
    let d = data.cols();
    assert!(k >= 1 && k <= n, "kmeans: k={k} out of range for n={n}");
    assert!(!data.has_non_finite(), "kmeans: non-finite values in input");

    // --- k-means++ seeding ---
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.index(n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut dist2: Vec<f64> = (0..n)
        .map(|i| sq_euclidean(data.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = dist2.iter().sum();
        let pick = if total > 0.0 {
            rng.categorical(&dist2)
        } else {
            rng.index(n) // all points coincide with chosen centroids
        };
        centroids.row_mut(c).copy_from_slice(data.row(pick));
        for i in 0..n {
            let nd = sq_euclidean(data.row(i), centroids.row(c));
            if nd < dist2[i] {
                dist2[i] = nd;
            }
        }
    }

    // --- Lloyd iterations ---
    let mut labels = vec![0usize; n];
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step.
        let mut changed = false;
        for i in 0..n {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dd = sq_euclidean(data.row(i), centroids.row(c));
                if dd < best_d {
                    best_d = dd;
                    best = c;
                }
            }
            if labels[i] != best {
                labels[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            converged = true;
            break;
        }
        // Update step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[labels[i]] += 1;
            let row = data.row(i);
            for (s, &v) in sums.row_mut(labels[i]).iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed at the point farthest from its
                // centroid to keep k clusters alive.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_euclidean(data.row(a), centroids.row(labels[a]));
                        let db = sq_euclidean(data.row(b), centroids.row(labels[b]));
                        da.partial_cmp(&db).expect("finite")
                    })
                    .expect("non-empty data");
                centroids.row_mut(c).copy_from_slice(data.row(far));
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *dst = s * inv;
                }
            }
        }
    }

    let inertia: f64 = (0..n)
        .map(|i| sq_euclidean(data.row(i), centroids.row(labels[i])))
        .sum();
    KMeansResult {
        labels,
        centroids,
        inertia,
        iterations,
        converged,
    }
}

/// Runs `restarts` independent k-means and keeps the lowest-inertia result.
pub fn kmeans_best_of(
    data: &Matrix,
    k: usize,
    max_iter: usize,
    restarts: usize,
    rng: &mut Rng,
) -> KMeansResult {
    assert!(restarts >= 1, "kmeans_best_of: zero restarts");
    let mut best: Option<KMeansResult> = None;
    for _ in 0..restarts {
        let r = kmeans(data, k, max_iter, rng);
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    best.expect("at least one restart")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from(51);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)];
        for (c, &(x, y)) in centers.iter().enumerate() {
            for _ in 0..12 {
                rows.push(vec![rng.normal(x, 0.4), rng.normal(y, 0.4)]);
                truth.push(c);
            }
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn recovers_three_blobs() {
        let (m, truth) = blobs();
        let mut rng = Rng::seed_from(1);
        let r = kmeans_best_of(&m, 3, 100, 5, &mut rng);
        // Partition match up to relabelling.
        use std::collections::HashMap;
        let mut map: HashMap<usize, usize> = HashMap::new();
        for (l, t) in r.labels.iter().zip(&truth) {
            let e = map.entry(*l).or_insert(*t);
            assert_eq!(e, t);
        }
        assert!(r.converged);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (m, _) = blobs();
        let mut rng = Rng::seed_from(2);
        let i2 = kmeans_best_of(&m, 2, 100, 5, &mut rng).inertia;
        let i3 = kmeans_best_of(&m, 3, 100, 5, &mut rng).inertia;
        let i6 = kmeans_best_of(&m, 6, 100, 5, &mut rng).inertia;
        assert!(i3 < i2);
        assert!(i6 < i3);
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let (m, _) = blobs();
        let mut rng = Rng::seed_from(3);
        let r = kmeans(&m, m.rows(), 50, &mut rng);
        assert!(r.inertia < 1e-9, "inertia {}", r.inertia);
    }

    #[test]
    fn k1_centroid_is_mean() {
        let (m, _) = blobs();
        let mut rng = Rng::seed_from(4);
        let r = kmeans(&m, 1, 50, &mut rng);
        let mean_x: f64 = m.col(0).iter().sum::<f64>() / m.rows() as f64;
        assert!((r.centroids.get(0, 0) - mean_x).abs() < 1e-9);
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (m, _) = blobs();
        let a = kmeans(&m, 3, 100, &mut Rng::seed_from(9));
        let b = kmeans(&m, 3, 100, &mut Rng::seed_from(9));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn labels_dense_and_k_clusters_alive() {
        let (m, _) = blobs();
        let mut rng = Rng::seed_from(6);
        let r = kmeans_best_of(&m, 3, 100, 3, &mut rng);
        let mut present = [false; 3];
        for &l in &r.labels {
            present[l] = true;
        }
        assert!(present.iter().all(|&p| p));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_panics() {
        let (m, _) = blobs();
        kmeans(&m, 0, 10, &mut Rng::seed_from(0));
    }
}
