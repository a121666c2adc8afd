//! External clustering validation: contingency tables, ARI, NMI, purity.
//!
//! The paper validates its clusters against the indoor environments
//! qualitatively (Figures 6–8); our reproduction can go further because the
//! synthetic substrate knows the planted archetypes. These metrics quantify
//! how faithfully a clustering recovers a reference labelling, and power
//! the transform/linkage ablation benches (B1–B3).

/// Contingency table between two labellings: `table[a][b]` counts items
/// with label `a` in the first and `b` in the second labelling.
fn contingency(labels_a: &[usize], labels_b: &[usize]) -> Vec<Vec<usize>> {
    assert_eq!(
        labels_a.len(),
        labels_b.len(),
        "contingency: length mismatch"
    );
    let ka = labels_a.iter().copied().max().map_or(0, |m| m + 1);
    let kb = labels_b.iter().copied().max().map_or(0, |m| m + 1);
    let mut t = vec![vec![0usize; kb]; ka];
    for (&a, &b) in labels_a.iter().zip(labels_b) {
        t[a][b] += 1;
    }
    t
}

/// Adjusted Rand index (Hubert & Arabie 1985): chance-corrected agreement
/// between two partitions. 1.0 for identical partitions (up to renaming),
/// ≈ 0 for independent ones; can be negative for adversarial splits.
pub fn adjusted_rand_index(labels_a: &[usize], labels_b: &[usize]) -> f64 {
    let n = labels_a.len();
    assert!(n > 1, "ari: need at least 2 items");
    let t = contingency(labels_a, labels_b);
    let comb2 = |x: usize| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let sum_ij: f64 = t.iter().flatten().map(|&c| comb2(c)).sum();
    let a_sums: Vec<usize> = t.iter().map(|row| row.iter().sum()).collect();
    let b_len = t.first().map_or(0, |r| r.len());
    let b_sums: Vec<usize> = (0..b_len)
        .map(|j| t.iter().map(|row| row[j]).sum())
        .collect();
    let sum_a: f64 = a_sums.iter().map(|&c| comb2(c)).sum();
    let sum_b: f64 = b_sums.iter().map(|&c| comb2(c)).sum();
    let total = comb2(n);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        // Degenerate: both partitions trivial (all-in-one or all-singletons).
        return if (sum_ij - expected).abs() < 1e-12 {
            1.0
        } else {
            0.0
        };
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Normalised mutual information (arithmetic normalisation):
/// `I(A;B) / ((H(A)+H(B))/2)`, in `[0, 1]`.
pub fn normalized_mutual_info(labels_a: &[usize], labels_b: &[usize]) -> f64 {
    let n = labels_a.len() as f64;
    assert!(n > 0.0, "nmi: empty labellings");
    let t = contingency(labels_a, labels_b);
    let a_sums: Vec<f64> = t
        .iter()
        .map(|row| row.iter().sum::<usize>() as f64)
        .collect();
    let b_len = t.first().map_or(0, |r| r.len());
    let b_sums: Vec<f64> = (0..b_len)
        .map(|j| t.iter().map(|row| row[j]).sum::<usize>() as f64)
        .collect();
    let h = |ps: &[f64]| -> f64 {
        ps.iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| {
                let q = p / n;
                -q * q.ln()
            })
            .sum()
    };
    let ha = h(&a_sums);
    let hb = h(&b_sums);
    let mut mi = 0.0;
    for (i, row) in t.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let pij = c as f64 / n;
            mi += pij * (pij * n * n / (a_sums[i] * b_sums[j])).ln();
        }
    }
    let denom = 0.5 * (ha + hb);
    if denom <= 0.0 {
        // Both partitions trivial: identical iff both are single-cluster.
        1.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

/// Purity of `labels` against `reference`: fraction of items whose cluster's
/// majority reference class matches their own.
pub fn purity(labels: &[usize], reference: &[usize]) -> f64 {
    assert!(!labels.is_empty(), "purity: empty labellings");
    let t = contingency(labels, reference);
    let hits: usize = t
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .sum();
    hits as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_ari_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renamed_partition_ari_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_info(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(purity(&a, &b), 1.0);
    }

    #[test]
    fn independent_partitions_ari_near_zero() {
        // Large balanced independent labellings.
        let n = 6000;
        let a: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let b: Vec<usize> = (0..n).map(|i| (i / 3) % 3).collect();
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.02, "ari {ari}");
    }

    #[test]
    fn ari_known_value() {
        // Classic example: a=[0,0,1,1], b=[0,0,0,1].
        // Pairs agreeing: computed by hand via the contingency formula.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 0, 0, 1];
        let t = contingency(&a, &b);
        assert_eq!(t, vec![vec![2, 0], vec![1, 1]]);
        let ari = adjusted_rand_index(&a, &b);
        // sum_ij C(2,2)=1; sum_a = C(2,2)+C(2,2)=2; sum_b = C(3,2)+C(1,2)=3.
        // expected = 2*3/C(4,2)=6/6=1; max=2.5; ari = (1-1)/(2.5-1)=0.
        assert!(ari.abs() < 1e-12, "ari {ari}");
    }

    #[test]
    fn nmi_range_and_symmetry() {
        let a = vec![0, 0, 1, 1, 2, 2, 0, 1];
        let b = vec![1, 0, 1, 1, 2, 0, 0, 1];
        let ab = normalized_mutual_info(&a, &b);
        let ba = normalized_mutual_info(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn purity_majority_logic() {
        // Cluster 0 = {ref 0, ref 0, ref 1} → majority 0 (2 hits).
        // Cluster 1 = {ref 1} → 1 hit. Purity = 3/4.
        let labels = vec![0, 0, 0, 1];
        let reference = vec![0, 0, 1, 1];
        assert!((purity(&labels, &reference) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn purity_of_singletons_is_one() {
        let labels = vec![0, 1, 2, 3];
        let reference = vec![0, 0, 1, 1];
        assert_eq!(purity(&labels, &reference), 1.0);
    }

    #[test]
    fn contingency_shape() {
        let t = contingency(&[0, 2, 2], &[1, 0, 1]);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].len(), 2);
        assert_eq!(t[2][1], 1);
    }

    #[test]
    fn trivial_partitions() {
        let a = vec![0, 0, 0];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_info(&a, &a) - 1.0).abs() < 1e-12);
    }
}
