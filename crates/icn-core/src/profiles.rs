//! Per-cluster service-utilisation profiles (the data behind Figure 4).
//!
//! Figure 4 shows the RSCA heatmap with antennas grouped per cluster; the
//! visible pattern is the per-cluster mean RSCA per service. This module
//! computes those profiles plus the top over- and under-utilised services
//! of each cluster — the quantities the paper's prose reads off the
//! heatmap and the SHAP beeswarms.

use icn_stats::{rank, Matrix};

/// The utilisation profile of one cluster.
#[derive(Clone, Debug)]
pub struct ClusterProfile {
    /// Cluster id.
    pub cluster: usize,
    /// Number of member antennas.
    pub size: usize,
    /// Mean RSCA per service over the members.
    pub mean_rsca: Vec<f64>,
}

impl ClusterProfile {
    /// Indices of the `k` most over-utilised services (highest mean RSCA),
    /// descending.
    pub fn top_over(&self, k: usize) -> Vec<usize> {
        rank::top_k(&self.mean_rsca, k)
    }

    /// Indices of the `k` most under-utilised services (lowest mean RSCA),
    /// ascending.
    pub fn top_under(&self, k: usize) -> Vec<usize> {
        rank::bottom_k(&self.mean_rsca, k)
    }

    /// Root-mean-square RSCA across services — a flatness measure; the
    /// paper's cluster 5 ("treats most of its services equally") has a
    /// distinctly small value.
    pub fn rms(&self) -> f64 {
        let n = self.mean_rsca.len() as f64;
        (self.mean_rsca.iter().map(|v| v * v).sum::<f64>() / n).sqrt()
    }
}

/// Computes cluster profiles from an RSCA matrix and a labelling.
///
/// # Panics
/// If lengths mismatch or a label exceeds `k`.
pub fn cluster_profiles(rsca: &Matrix, labels: &[usize], k: usize) -> Vec<ClusterProfile> {
    assert_eq!(
        rsca.rows(),
        labels.len(),
        "cluster_profiles: length mismatch"
    );
    let mut sums = vec![vec![0.0f64; rsca.cols()]; k];
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < k, "cluster_profiles: label {l} out of range");
        counts[l] += 1;
        for (s, &v) in sums[l].iter_mut().zip(rsca.row(i)) {
            *s += v;
        }
    }
    (0..k)
        .map(|c| ClusterProfile {
            cluster: c,
            size: counts[c],
            mean_rsca: if counts[c] == 0 {
                vec![0.0; rsca.cols()]
            } else {
                sums[c].iter().map(|&s| s / counts[c] as f64).collect()
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rsca_fixture() -> (Matrix, Vec<usize>) {
        // 4 antennas × 3 services; cluster 0 loves service 0, cluster 1
        // loves service 2.
        let m = Matrix::from_rows(&[
            vec![0.8, -0.2, -0.6],
            vec![0.6, 0.0, -0.5],
            vec![-0.7, -0.1, 0.9],
            vec![-0.5, 0.1, 0.7],
        ]);
        (m, vec![0, 0, 1, 1])
    }

    #[test]
    fn means_are_correct() {
        let (m, labels) = rsca_fixture();
        let profiles = cluster_profiles(&m, &labels, 2);
        assert_eq!(profiles[0].size, 2);
        assert!((profiles[0].mean_rsca[0] - 0.7).abs() < 1e-12);
        assert!((profiles[1].mean_rsca[2] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn top_over_and_under() {
        let (m, labels) = rsca_fixture();
        let profiles = cluster_profiles(&m, &labels, 2);
        assert_eq!(profiles[0].top_over(1), vec![0]);
        assert_eq!(profiles[0].top_under(1), vec![2]);
        assert_eq!(profiles[1].top_over(1), vec![2]);
    }

    #[test]
    fn empty_cluster_is_flat_zero() {
        let (m, labels) = rsca_fixture();
        let profiles = cluster_profiles(&m, &labels, 3);
        assert_eq!(profiles[2].size, 0);
        assert!(profiles[2].mean_rsca.iter().all(|&v| v == 0.0));
        assert_eq!(profiles[2].rms(), 0.0);
    }

    #[test]
    fn rms_flags_flat_profiles() {
        let flat = ClusterProfile {
            cluster: 0,
            size: 5,
            mean_rsca: vec![0.01, -0.02, 0.01],
        };
        let spiky = ClusterProfile {
            cluster: 1,
            size: 5,
            mean_rsca: vec![0.8, -0.7, 0.6],
        };
        assert!(spiky.rms() > 10.0 * flat.rms());
    }

    #[test]
    #[should_panic(expected = "label 2 out of range")]
    fn out_of_range_label_panics() {
        let (m, _) = rsca_fixture();
        cluster_profiles(&m, &[0, 0, 1, 2], 2);
    }
}
