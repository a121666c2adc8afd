//! Property-based tests for the clustering substrate, driven by the
//! deterministic [`icn_stats::check`] harness.

use icn_cluster::{
    adjusted_rand_index, agglomerate, dunn_index, normalized_mutual_info, purity, silhouette_score,
    Condensed, Linkage,
};
use icn_stats::check::{cases, len_in};
use icn_stats::{Matrix, Metric, Rng};

/// Random small matrix with at least two distinct rows.
fn matrix(rng: &mut Rng) -> Matrix {
    let n = len_in(rng, 2, 25);
    let d = len_in(rng, 1, 6);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|_| rng.gaussian() + (i % 3) as f64 * 2.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Dense labels `0..k` with at least two clusters.
fn labels(rng: &mut Rng) -> Vec<usize> {
    let len = len_in(rng, 8, 40);
    let mut v: Vec<usize> = (0..len).map(|_| rng.index(4)).collect();
    v[0] = 0;
    v[1] = 1;
    let mut max = 0;
    for x in v.iter_mut() {
        if *x > max + 1 {
            *x = max + 1;
        }
        max = max.max(*x);
    }
    v
}

#[test]
fn cut_is_valid_partition_at_every_k() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let h = agglomerate(&m, Linkage::Ward);
        for k in 1..=m.rows() {
            let l = h.cut(k);
            assert_eq!(l.len(), m.rows(), "case {case} k={k}");
            let mut seen = l.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), k, "case {case} k={k}");
            assert!(l.iter().all(|&x| x < k), "case {case} k={k}");
        }
    });
}

#[test]
fn ward_heights_monotone() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let h = agglomerate(&m, Linkage::Ward);
        let hs = h.heights();
        for w in hs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "case {case}: {} then {}", w[0], w[1]);
        }
    });
}

#[test]
fn cuts_are_nested() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let h = agglomerate(&m, Linkage::Ward);
        let n = m.rows();
        let fine = h.cut(n.min(5));
        let coarse = h.cut(2);
        // Each fine cluster maps into exactly one coarse cluster.
        let mut map = std::collections::HashMap::new();
        for i in 0..n {
            let e = map.entry(fine[i]).or_insert(coarse[i]);
            assert_eq!(*e, coarse[i], "case {case} point {i}");
        }
    });
}

/// Two independent computations of one cut: the leaf sets under
/// `roots_at_k(k)` (a top-down walk of the tree) are exactly `cut(k)`'s
/// clusters (a union-find over the first `n − k` merges), and read left to
/// right they spell the root's leaf order. Half the matrices repeat rows,
/// so zero-height merges tie.
#[test]
fn roots_at_k_leaf_sets_are_the_cut_clusters() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let mut rows: Vec<Vec<f64>> = (0..m.rows()).map(|i| m.row(i).to_vec()).collect();
        if case % 2 == 1 {
            for _ in 0..len_in(rng, 1, rows.len()) {
                let (from, to) = (rng.index(rows.len()), rng.index(rows.len()));
                rows[to] = rows[from].clone();
            }
        }
        let m = Matrix::from_rows(&rows);
        let h = agglomerate(&m, Linkage::ALL[case as usize % Linkage::ALL.len()]);
        let n = m.rows();
        let order = h.leaves_under(h.root());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..n), "case {case}: leaf order");
        for k in 1..=n {
            let labels = h.cut(k);
            let roots = h.roots_at_k(k);
            assert_eq!(roots.len(), k, "case {case} k={k}");
            let mut seen = vec![false; k];
            let mut walked = Vec::with_capacity(n);
            for &r in &roots {
                let leaves = h.leaves_under(r);
                let l = labels[leaves[0]];
                assert!(!seen[l], "case {case} k={k}: cluster {l} split");
                seen[l] = true;
                let size = labels.iter().filter(|&&x| x == l).count();
                assert_eq!(leaves.len(), size, "case {case} k={k}: cluster {l}");
                assert!(leaves.iter().all(|&i| labels[i] == l), "case {case} k={k}");
                walked.extend(leaves);
            }
            assert_eq!(walked, order, "case {case} k={k}: roots out of order");
        }
    });
}

#[test]
fn silhouette_and_dunn_ranges() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let h = agglomerate(&m, Linkage::Ward);
        let k = 2.min(m.rows());
        let l = h.cut(k);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let s = silhouette_score(&cond, &l);
        assert!((-1.0..=1.0).contains(&s), "case {case}: silhouette {s}");
        assert!(dunn_index(&cond, &l) >= 0.0, "case {case}");
    });
}

#[test]
fn ari_nmi_purity_of_identity() {
    cases(48, |case, rng| {
        let l = labels(rng);
        assert!(
            (adjusted_rand_index(&l, &l) - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (normalized_mutual_info(&l, &l) - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!((purity(&l, &l) - 1.0).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn ari_symmetric() {
    cases(48, |case, rng| {
        let a = labels(rng);
        let b: Vec<usize> = (0..a.len()).map(|_| rng.index(3)).collect();
        let ab = adjusted_rand_index(&a, &b);
        let ba = adjusted_rand_index(&b, &a);
        assert!((ab - ba).abs() < 1e-12, "case {case}");
        assert!(ab <= 1.0 + 1e-12, "case {case}");
    });
}

#[test]
fn permuted_labels_keep_ari_one() {
    // Renaming clusters never changes the partition.
    cases(48, |case, rng| {
        let l = labels(rng);
        let k = l.iter().max().unwrap() + 1;
        let renamed: Vec<usize> = l.iter().map(|&x| (x + 1) % k).collect();
        assert!(
            (adjusted_rand_index(&l, &renamed) - 1.0).abs() < 1e-9,
            "case {case}"
        );
    });
}

#[test]
fn condensed_agrees_with_metric() {
    cases(48, |case, rng| {
        let m = matrix(rng);
        let cond = Condensed::from_rows(&m, Metric::Manhattan);
        for i in 0..m.rows().min(6) {
            for j in 0..m.rows().min(6) {
                let want = Metric::Manhattan.distance(m.row(i), m.row(j));
                assert!(
                    (cond.get(i, j) - want).abs() < 1e-9,
                    "case {case} ({i},{j})"
                );
            }
        }
    });
}
