//! Indoor vs outdoor comparison (Section 5.3, Figure 9).
//!
//! The paper computes the RCA of ~20,000 outdoor antennas **against the
//! indoor service-usage reference** (Eq. 5), symmetrises it, and feeds the
//! result to the trained random-forest surrogate. The predicted cluster
//! distribution (Figure 9) concentrates ~70 % of outdoor antennas in the
//! general-use cluster 1, with the transit/stadium/workspace clusters
//! nearly absent — evidence that indoor demand diversity is
//! environment-driven. This module reproduces that classification and the
//! distribution plus the concentration statistics the prose quotes.

use crate::rca::outdoor_rsca;
use icn_forest::RandomForest;
use icn_stats::Matrix;

/// Outcome of classifying the outdoor population through the surrogate.
#[derive(Clone, Debug)]
pub struct OutdoorComparison {
    /// Predicted cluster per outdoor antenna.
    pub predicted: Vec<usize>,
    /// Fraction of outdoor antennas per cluster (sums to 1).
    pub distribution: Vec<f64>,
    /// The modal cluster and its share — the paper's "~70 % in cluster 1".
    pub dominant: (usize, f64),
}

/// Classifies outdoor antennas: Eq. 5 RCA → RSCA → surrogate prediction.
///
/// `t_out` is the outdoor totals matrix, `t_in` the indoor one (reference),
/// `surrogate` the forest stage 3 trained on indoor RSCA.
pub fn classify_outdoor_with(
    t_out: &Matrix,
    t_in: &Matrix,
    surrogate: &RandomForest,
) -> OutdoorComparison {
    let rsca = outdoor_rsca(t_out, t_in);
    assert_eq!(
        rsca.cols(),
        surrogate.n_features,
        "classify_outdoor: surrogate feature mismatch"
    );
    let predicted = surrogate.predict_batch(&rsca);
    let k = surrogate.n_classes;
    let mut counts = vec![0usize; k];
    for &p in &predicted {
        counts[p] += 1;
    }
    let n = predicted.len().max(1) as f64;
    let distribution: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
    let best = icn_stats::rank::argmax(&distribution);
    OutdoorComparison {
        dominant: (best, distribution[best]),
        predicted,
        distribution,
    }
}

/// Shannon entropy (nats) of a cluster distribution — lower for outdoor
/// (concentrated) than for indoor (diverse), quantifying the paper's
/// "diversity is absent outdoors" claim.
pub fn distribution_entropy(distribution: &[f64]) -> f64 {
    distribution
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Cluster distribution of a labelling (fractions summing to 1).
pub fn label_distribution(labels: &[usize], k: usize) -> Vec<f64> {
    let mut counts = vec![0usize; k];
    for &l in labels {
        assert!(l < k, "label_distribution: label out of range");
        counts[l] += 1;
    }
    let n = labels.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_extremes() {
        assert_eq!(distribution_entropy(&[1.0, 0.0, 0.0]), 0.0);
        let uniform = vec![0.25; 4];
        assert!((distribution_entropy(&uniform) - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn label_distribution_sums_to_one() {
        let d = label_distribution(&[0, 1, 1, 2, 2, 2], 4);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d[3], 0.0);
        assert!((d[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        label_distribution(&[5], 2);
    }

    // End-to-end classification is exercised in the pipeline tests and in
    // tests/pipeline_recovery.rs where a full dataset + surrogate exist.
}
