//! Cophenetic distances and the cophenetic correlation coefficient.
//!
//! The cophenetic distance between two observations is the dendrogram
//! height at which they are first joined; the correlation between
//! cophenetic and original distances (CPCC, Sokal & Rohlf 1962) measures
//! how faithfully a hierarchy represents the underlying geometry — the
//! classic companion diagnostic to a dendrogram like the paper's Figure 3.
//! The `fig03_dendrogram` harness reports it alongside the tree.

use crate::agglomerative::MergeHistory;
use crate::condensed::Condensed;
use icn_stats::summary::pearson;

/// Computes all pairwise cophenetic distances as a [`Condensed`]-shaped
/// flat vector in the same pair order (row blocks `(i, i+1..n)`).
///
/// Runs in O(N²) using the union-find of merges in height order: when two
/// clusters merge at height `h`, every cross pair receives cophenetic
/// distance `h`.
fn cophenetic_distances(history: &MergeHistory) -> Vec<f64> {
    let n = history.n;
    let mut out = vec![0.0f64; n * (n - 1) / 2];
    // members[c] = leaves of current cluster labelled c (labels < n are
    // leaves, labels >= n refer to merge steps).
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    members.reserve(history.merges.len());
    for merge in &history.merges {
        let a = std::mem::take(&mut members[merge.a]);
        let b = std::mem::take(&mut members[merge.b]);
        for &x in &a {
            for &y in &b {
                let (i, j) = if x < y { (x, y) } else { (y, x) };
                out[pair_index(n, i, j)] = merge.height;
            }
        }
        let mut merged = a;
        merged.extend(b);
        members.push(merged);
    }
    out
}

/// Pair index in the condensed layout.
#[inline]
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Cophenetic correlation coefficient: Pearson correlation between the
/// hierarchy's cophenetic distances and the original pairwise distances.
/// 1.0 means the dendrogram perfectly preserves the geometry.
pub fn cophenetic_correlation(history: &MergeHistory, original: &Condensed) -> f64 {
    assert_eq!(
        history.n,
        original.len(),
        "cophenetic_correlation: size mismatch"
    );
    let coph = cophenetic_distances(history);
    pearson(&coph, original.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::agglomerate;
    use crate::linkage::Linkage;
    use icn_stats::{Matrix, Metric, Rng};

    fn blobs() -> Matrix {
        let mut rng = Rng::seed_from(7);
        let mut rows = Vec::new();
        for c in 0..3 {
            for _ in 0..8 {
                rows.push(vec![rng.normal(c as f64 * 10.0, 0.4), rng.normal(0.0, 0.4)]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn cophenetic_distances_cover_all_pairs() {
        let m = blobs();
        let h = agglomerate(&m, Linkage::Average);
        let coph = cophenetic_distances(&h);
        assert_eq!(coph.len(), m.rows() * (m.rows() - 1) / 2);
        // Every pair eventually merges, so every entry is positive.
        assert!(coph.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn within_blob_pairs_join_lower_than_cross_blob() {
        let m = blobs();
        let h = agglomerate(&m, Linkage::Average);
        let coph = cophenetic_distances(&h);
        let n = m.rows();
        // Points 0..8 are blob 0; 8..16 blob 1.
        let within = coph[pair_index(n, 0, 1)];
        let cross = coph[pair_index(n, 0, 9)];
        assert!(cross > 3.0 * within, "within {within} cross {cross}");
    }

    #[test]
    fn correlation_high_for_clusterable_data() {
        let m = blobs();
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        for linkage in [Linkage::Average, Linkage::Complete, Linkage::Ward] {
            let h = agglomerate(&m, linkage);
            let c = cophenetic_correlation(&h, &cond);
            assert!(c > 0.85, "{}: CPCC {c}", linkage.name());
        }
    }

    #[test]
    fn average_linkage_usually_maximises_cpcc() {
        // A classical fact: UPGMA tends to give the best cophenetic fit.
        let m = blobs();
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let cpcc = |l: Linkage| cophenetic_correlation(&agglomerate(&m, l), &cond);
        let avg = cpcc(Linkage::Average);
        let single = cpcc(Linkage::Single);
        assert!(avg >= single - 0.05, "avg {avg} single {single}");
    }

    #[test]
    fn correlation_bounded() {
        let m = blobs();
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let h = agglomerate(&m, Linkage::Single);
        let c = cophenetic_correlation(&h, &cond);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn pair_index_matches_condensed_layout() {
        let m = blobs();
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let n = m.rows();
        // as_slice order must match pair_index enumeration.
        let mut k = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(pair_index(n, i, j), k);
                assert_eq!(cond.as_slice()[k], cond.get(i, j));
                k += 1;
            }
        }
    }
}
