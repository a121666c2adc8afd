//! Silhouette score (Rousseeuw 1987).
//!
//! One of the two clustering-quality indices the paper uses to pick k
//! (Figure 2). For each point `i` with intra-cluster mean distance `a(i)`
//! and smallest other-cluster mean distance `b(i)`, the silhouette is
//! `(b − a) / max(a, b)`; the score is the mean over all points. Points in
//! singleton clusters contribute 0 by convention.

use crate::condensed::Distances;
use icn_stats::par;

/// Mean silhouette coefficient of a labelling over precomputed distances
/// (a `&Condensed`, or a view such as [`crate::Condensed::sqrt_values`]).
/// Labels must be dense `0..k`.
///
/// # Panics
/// If fewer than 2 clusters are present or labels length mismatches.
pub fn silhouette_score<'a>(dist: impl Into<Distances<'a>>, labels: &[usize]) -> f64 {
    let cond = dist.into();
    let n = cond.len();
    assert_eq!(labels.len(), n, "silhouette: label length mismatch");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "silhouette: need at least 2 clusters");
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }

    let total: f64 = par::map_indexed(n, |i| {
        if counts[labels[i]] <= 1 {
            return 0.0; // singleton convention
        }
        // Mean distance from i to every cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if j != i {
                sums[labels[j]] += cond.get(i, j);
            }
        }
        let own = labels[i];
        let a = sums[own] / (counts[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if a.max(b) == 0.0 {
            0.0
        } else {
            (b - a) / a.max(b)
        }
    })
    .iter()
    .sum();
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::Condensed;
    use icn_stats::{Matrix, Metric, Rng};

    fn blobs(sep: f64) -> (Condensed, Vec<usize>) {
        let mut rng = Rng::seed_from(31);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            for _ in 0..15 {
                rows.push(vec![rng.normal(c as f64 * sep, 0.5), rng.normal(0.0, 0.5)]);
                labels.push(c);
            }
        }
        let m = Matrix::from_rows(&rows);
        (Condensed::from_rows(&m, Metric::Euclidean), labels)
    }

    #[test]
    fn well_separated_blobs_score_high() {
        let (cond, labels) = blobs(20.0);
        let s = silhouette_score(&cond, &labels);
        assert!(s > 0.9, "score {s}");
    }

    #[test]
    fn overlapping_blobs_score_low() {
        let (cond, labels) = blobs(0.1);
        let s = silhouette_score(&cond, &labels);
        assert!(s < 0.2, "score {s}");
    }

    #[test]
    fn score_in_valid_range() {
        for sep in [0.0, 1.0, 5.0, 50.0] {
            let (cond, labels) = blobs(sep);
            let s = silhouette_score(&cond, &labels);
            assert!((-1.0..=1.0).contains(&s), "sep {sep}: {s}");
        }
    }

    #[test]
    fn wrong_labelling_scores_worse() {
        let (cond, labels) = blobs(20.0);
        let good = silhouette_score(&cond, &labels);
        // Scramble: alternate labels regardless of geometry.
        let bad_labels: Vec<usize> = (0..labels.len()).map(|i| i % 2).collect();
        let bad = silhouette_score(&cond, &bad_labels);
        assert!(good > bad + 0.5, "good {good} bad {bad}");
    }

    #[test]
    fn singleton_contributes_zero() {
        // 2 coincident points in cluster 0, 1 lone point in cluster 1.
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0], vec![9.0, 9.0]]);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let s = silhouette_score(&cond, &[0, 0, 1]);
        // Points 0/1: a=0, b=dist>0 ⇒ s=1 each; singleton ⇒ 0.
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn one_cluster_panics() {
        let (cond, _) = blobs(1.0);
        let labels = vec![0usize; cond.len()];
        silhouette_score(&cond, &labels);
    }
}
