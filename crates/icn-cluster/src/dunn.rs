//! Dunn index (Dunn 1973).
//!
//! The second clustering-quality index of Figure 2: the ratio of the
//! smallest inter-cluster distance to the largest intra-cluster diameter.
//! Higher is better — compact, well-separated clusters. We use the classic
//! single-linkage/diameter variant: inter-cluster distance is the minimum
//! pairwise distance across clusters; diameter is the maximum pairwise
//! distance within a cluster.

use crate::condensed::Distances;
use icn_stats::par;

/// Dunn index of a labelling over precomputed distances (a `&Condensed`,
/// or a view such as [`crate::Condensed::sqrt_values`]).
/// Labels must be dense `0..k`.
///
/// Returns `f64::INFINITY` when every cluster has diameter zero (all
/// clusters are coincident points) but clusters are separated.
///
/// # Panics
/// If fewer than 2 clusters are present or labels length mismatches.
pub fn dunn_index<'a>(dist: impl Into<Distances<'a>>, labels: &[usize]) -> f64 {
    let cond = dist.into();
    let n = cond.len();
    assert_eq!(labels.len(), n, "dunn: label length mismatch");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "dunn: need at least 2 clusters");

    // One parallel sweep over the i < j pairs, reducing (min_inter,
    // max_diameter) simultaneously.
    let per_row = par::map_indexed(n, |i| {
        let mut mi = f64::INFINITY;
        let mut md = 0.0f64;
        for j in (i + 1)..n {
            let d = cond.get(i, j);
            if labels[i] == labels[j] {
                if d > md {
                    md = d;
                }
            } else if d < mi {
                mi = d;
            }
        }
        (mi, md)
    });
    let (min_inter, max_diam) = per_row
        .into_iter()
        .fold((f64::INFINITY, 0.0f64), |(a_mi, a_md), (b_mi, b_md)| {
            (a_mi.min(b_mi), a_md.max(b_md))
        });

    if max_diam == 0.0 {
        return f64::INFINITY;
    }
    min_inter / max_diam
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::Condensed;
    use icn_stats::{Matrix, Metric, Rng};

    fn blobs(sep: f64) -> (Condensed, Vec<usize>) {
        let mut rng = Rng::seed_from(41);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3 {
            for _ in 0..10 {
                rows.push(vec![rng.normal(c as f64 * sep, 0.4), rng.normal(0.0, 0.4)]);
                labels.push(c);
            }
        }
        let m = Matrix::from_rows(&rows);
        (Condensed::from_rows(&m, Metric::Euclidean), labels)
    }

    #[test]
    fn separation_increases_dunn() {
        let (c1, l1) = blobs(5.0);
        let (c2, l2) = blobs(50.0);
        let d1 = dunn_index(&c1, &l1);
        let d2 = dunn_index(&c2, &l2);
        assert!(d2 > 5.0 * d1, "d1 {d1} d2 {d2}");
    }

    #[test]
    fn good_clustering_beats_random() {
        let (cond, labels) = blobs(30.0);
        let good = dunn_index(&cond, &labels);
        let bad_labels: Vec<usize> = (0..labels.len()).map(|i| i % 3).collect();
        let bad = dunn_index(&cond, &bad_labels);
        assert!(good > bad, "good {good} bad {bad}");
    }

    #[test]
    fn hand_computed_tiny_case() {
        // Cluster 0: points at 0 and 1 (diameter 1).
        // Cluster 1: points at 10 and 12 (diameter 2).
        // Min inter distance: 12 - ... min(|10-1|,|10-0|,|12-1|,|12-0|)=9.
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![12.0]]);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let d = dunn_index(&cond, &[0, 0, 1, 1]);
        assert!((d - 4.5).abs() < 1e-12, "dunn {d}");
    }

    #[test]
    fn coincident_clusters_give_infinity() {
        let m = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![5.0], vec![5.0]]);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        assert!(dunn_index(&cond, &[0, 0, 1, 1]).is_infinite());
    }

    #[test]
    fn nonnegative() {
        let (cond, labels) = blobs(0.5);
        assert!(dunn_index(&cond, &labels) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn one_cluster_panics() {
        let (cond, _) = blobs(1.0);
        dunn_index(&cond, &vec![0; cond.len()]);
    }
}
