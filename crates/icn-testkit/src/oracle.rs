//! Naive reference implementations (differential oracles).
//!
//! Each function here is a deliberately slow, obviously-correct
//! re-statement of a pipeline algorithm, written straight from the
//! defining equation with no shared marginals, no NN-chain, no batching
//! and no parallelism. Tests generate random inputs and require the
//! optimized path to agree within floating-point tolerance — any
//! divergence is a real algorithmic regression, not a tuning artefact.

use icn_cluster::{Condensed, Linkage, Merge, MergeHistory};
use icn_forest::{gini, DecisionTree, RandomForest, TrainSet};
use icn_stats::distance::sq_euclidean;
use icn_stats::{Matrix, Metric};

/// Eq. (1) computed per cell with all four marginals re-derived from
/// scratch inside the inner loop — O(N²M²) on purpose, so no intermediate
/// can be silently wrong.
pub fn naive_rca(t: &Matrix) -> Matrix {
    let (n, m) = t.shape();
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..m {
            total += t.get(i, j);
        }
    }
    assert!(total > 0.0, "naive_rca: matrix has no traffic");
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let ti: f64 = (0..m).map(|jj| t.get(i, jj)).sum();
            let tj: f64 = (0..n).map(|ii| t.get(ii, j)).sum();
            if ti > 0.0 && tj > 0.0 {
                out.set(i, j, (t.get(i, j) / ti) / (tj / total));
            }
        }
    }
    out
}

/// Eq. (1) then Eq. (2), cell by cell.
pub fn naive_rsca(t: &Matrix) -> Matrix {
    naive_rca(t).map(|v| (v - 1.0) / (v + 1.0))
}

/// O(n³) greedy agglomeration: scan every alive pair for the global
/// minimum, merge it, update the remaining distances with the
/// Lance-Williams recurrence. For reducible linkages (all four in
/// [`Linkage::ALL`]) this produces the same hierarchy as the NN-chain
/// algorithm; it is the oracle `agglomerate` is tested against.
pub fn naive_agglomerate(data: &Matrix, linkage: Linkage) -> MergeHistory {
    let n = data.rows();
    assert!(n >= 2, "naive_agglomerate: need at least 2 observations");
    let mut d = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let sq = sq_euclidean(data.row(i), data.row(j));
            d[i][j] = match linkage.base_metric() {
                Metric::SqEuclidean => sq,
                Metric::Euclidean => sq.sqrt(),
            };
        }
    }
    let mut alive: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    let mut label: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n - 1);
    while alive.len() > 1 {
        let (mut bi, mut bj, mut bd) = (usize::MAX, usize::MAX, f64::INFINITY);
        for (ai, &i) in alive.iter().enumerate() {
            for &j in &alive[ai + 1..] {
                if d[i][j] < bd {
                    bd = d[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }
        for &k in &alive {
            if k == bi || k == bj {
                continue;
            }
            let v = linkage.update(
                d[bi][k],
                d[bj][k],
                bd,
                size[bi] as f64,
                size[bj] as f64,
                size[k] as f64,
            );
            d[bi][k] = v;
            d[k][bi] = v;
        }
        merges.push(Merge {
            a: label[bi],
            b: label[bj],
            height: linkage.to_height(bd),
            size: size[bi] + size[bj],
        });
        size[bi] += size[bj];
        label[bi] = n + merges.len() - 1;
        alive.retain(|&x| x != bj);
    }
    MergeHistory { n, linkage, merges }
}

/// Rousseeuw's silhouette computed point by point from the definition,
/// with no shared per-cluster sums and no parallel reduction.
pub fn naive_silhouette(cond: &Condensed, labels: &[usize]) -> f64 {
    let n = cond.len();
    assert_eq!(labels.len(), n, "naive_silhouette: label length mismatch");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "naive_silhouette: need at least 2 clusters");
    let mut total = 0.0;
    for i in 0..n {
        let own = labels[i];
        let own_size = labels.iter().filter(|&&l| l == own).count();
        if own_size <= 1 {
            continue; // singleton convention: contributes 0
        }
        let mean_to = |c: usize| -> f64 {
            let members: Vec<usize> = (0..n).filter(|&j| j != i && labels[j] == c).collect();
            members.iter().map(|&j| cond.get(i, j)).sum::<f64>() / members.len() as f64
        };
        let a = mean_to(own);
        let b = (0..k)
            .filter(|&c| c != own && labels.contains(&c))
            .map(mean_to)
            .fold(f64::INFINITY, f64::min);
        if a.max(b) > 0.0 {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

/// Dunn index from the definition: min over inter-cluster pairs divided by
/// max over intra-cluster pairs, each found by a full pair scan.
pub fn naive_dunn(cond: &Condensed, labels: &[usize]) -> f64 {
    let n = cond.len();
    assert_eq!(labels.len(), n, "naive_dunn: label length mismatch");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "naive_dunn: need at least 2 clusters");
    let mut min_inter = f64::INFINITY;
    let mut max_diam = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = cond.get(i, j);
            if labels[i] == labels[j] {
                max_diam = max_diam.max(d);
            } else {
                min_inter = min_inter.min(d);
            }
        }
    }
    if max_diam == 0.0 {
        f64::INFINITY
    } else {
        min_inter / max_diam
    }
}

/// Adjusted Rand index by literal pair counting — O(n²) over every
/// unordered item pair, tallying the 2×2 co-membership table
/// (same/same, same/diff, diff/same, diff/diff) and applying the
/// Hubert–Arabie closed form `2(ad − bc) / ((a+b)(b+d) + (a+c)(c+d))`.
/// No contingency table, no binomial marginals — a genuinely different
/// derivation from `icn_cluster::adjusted_rand_index`, which works from
/// the contingency-table formula.
pub fn naive_ari(labels_a: &[usize], labels_b: &[usize]) -> f64 {
    let n = labels_a.len();
    assert_eq!(n, labels_b.len(), "naive_ari: length mismatch");
    assert!(n > 1, "naive_ari: need at least 2 items");
    // a = agree-agree, b = same in A only, c = same in B only, d = neither.
    let (mut a, mut b, mut c, mut d) = (0f64, 0f64, 0f64, 0f64);
    for i in 0..n {
        for j in i + 1..n {
            match (labels_a[i] == labels_a[j], labels_b[i] == labels_b[j]) {
                (true, true) => a += 1.0,
                (true, false) => b += 1.0,
                (false, true) => c += 1.0,
                (false, false) => d += 1.0,
            }
        }
    }
    let denom = (a + b) * (b + d) + (a + c) * (c + d);
    if denom == 0.0 {
        // Both partitions trivial: all pairs agree (b = c = 0) → 1.
        return if b == 0.0 && c == 0.0 { 1.0 } else { 0.0 };
    }
    2.0 * (a * d - b * c) / denom
}

/// Normalised mutual information straight from the definition:
/// `I(A;B) / ((H(A) + H(B)) / 2)`, with every probability re-counted by a
/// full scan per label value (no shared marginals, no contingency reuse).
pub fn naive_nmi(labels_a: &[usize], labels_b: &[usize]) -> f64 {
    let n = labels_a.len();
    assert_eq!(n, labels_b.len(), "naive_nmi: length mismatch");
    assert!(n > 0, "naive_nmi: empty labellings");
    let nf = n as f64;
    let count = |ls: &[usize], v: usize| ls.iter().filter(|&&l| l == v).count() as f64;
    let distinct = |ls: &[usize]| -> Vec<usize> {
        let mut vs: Vec<usize> = ls.to_vec();
        vs.sort_unstable();
        vs.dedup();
        vs
    };
    let entropy = |ls: &[usize]| -> f64 {
        distinct(ls)
            .iter()
            .map(|&v| {
                let p = count(ls, v) / nf;
                -p * p.ln()
            })
            .sum()
    };
    let mut mi = 0.0;
    for &va in &distinct(labels_a) {
        for &vb in &distinct(labels_b) {
            let joint = labels_a
                .iter()
                .zip(labels_b)
                .filter(|&(&la, &lb)| la == va && lb == vb)
                .count() as f64;
            if joint > 0.0 {
                let pij = joint / nf;
                mi += pij * ((pij * nf * nf) / (count(labels_a, va) * count(labels_b, vb))).ln();
            }
        }
    }
    let denom = 0.5 * (entropy(labels_a) + entropy(labels_b));
    if denom <= 0.0 {
        1.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

/// Per-sample forest prediction, one row at a time (oracle for the
/// parallel `predict_batch`).
pub fn naive_predict_batch(forest: &RandomForest, x: &Matrix) -> Vec<usize> {
    (0..x.rows()).map(|i| forest.predict(x.row(i))).collect()
}

/// Soft-voting class probabilities recomputed by walking every tree by
/// hand through the public node arrays, bypassing the forest's own
/// traversal code entirely.
pub fn naive_predict_proba(forest: &RandomForest, x: &[f64]) -> Vec<f64> {
    let mut acc = vec![0.0f64; forest.n_classes];
    for tree in &forest.trees {
        let mut node = 0usize;
        loop {
            if tree.is_leaf(node) {
                for (c, &p) in tree.distribution(node).iter().enumerate() {
                    acc[c] += p;
                }
                break;
            }
            node = if x[tree.feature[node] as usize] <= tree.threshold[node] {
                tree.left[node] as usize
            } else {
                tree.right[node] as usize
            };
        }
    }
    for p in &mut acc {
        *p /= forest.trees.len() as f64;
    }
    acc
}

/// Training-set accuracy recomputed sample by sample.
pub fn naive_accuracy(forest: &RandomForest, ts: &TrainSet) -> f64 {
    let hits = (0..ts.x.rows())
        .filter(|&i| forest.predict(ts.x.row(i)) == ts.y[i])
        .count();
    hits as f64 / ts.x.rows() as f64
}

/// The original **recursive** path-dependent TreeSHAP implementation,
/// preserved verbatim as the differential oracle for the iterative,
/// allocation-free kernel that replaced it in `icn-shap`: it clones the
/// path `Vec` at every descent step and clone-unwinds per leaf feature,
/// exactly as the historical code did, so a `to_bits` comparison against
/// `icn_shap::tree_shap` pins the rewrite to bit-identical arithmetic.
pub fn naive_tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<Vec<f64>> {
    #[derive(Clone, Copy)]
    struct PathElem {
        feature: usize,
        zero_fraction: f64,
        one_fraction: f64,
        weight: f64,
    }

    fn extend(path: &mut Vec<PathElem>, zero_fraction: f64, one_fraction: f64, feature: usize) {
        let l = path.len();
        path.push(PathElem {
            feature,
            zero_fraction,
            one_fraction,
            weight: if l == 0 { 1.0 } else { 0.0 },
        });
        for i in (0..l).rev() {
            path[i + 1].weight += one_fraction * path[i].weight * (i + 1) as f64 / (l + 1) as f64;
            path[i].weight = zero_fraction * path[i].weight * (l - i) as f64 / (l + 1) as f64;
        }
    }

    fn unwind(path: &mut Vec<PathElem>, i: usize) {
        let l = path.len() - 1;
        let one = path[i].one_fraction;
        let zero = path[i].zero_fraction;
        let mut n = path[l].weight;
        if one != 0.0 {
            for j in (0..l).rev() {
                let t = path[j].weight;
                path[j].weight = n * (l + 1) as f64 / ((j + 1) as f64 * one);
                n = t - path[j].weight * zero * (l - j) as f64 / (l + 1) as f64;
            }
        } else {
            for j in (0..l).rev() {
                path[j].weight = path[j].weight * (l + 1) as f64 / (zero * (l - j) as f64);
            }
        }
        for j in i..l {
            path[j].feature = path[j + 1].feature;
            path[j].zero_fraction = path[j + 1].zero_fraction;
            path[j].one_fraction = path[j + 1].one_fraction;
        }
        path.pop();
    }

    fn unwound_weight_sum(path: &[PathElem], i: usize) -> f64 {
        let mut scratch = path.to_vec();
        unwind(&mut scratch, i);
        scratch.iter().map(|e| e.weight).sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        tree: &DecisionTree,
        x: &[f64],
        phi: &mut [Vec<f64>],
        node_idx: usize,
        mut path: Vec<PathElem>,
        zero_fraction: f64,
        one_fraction: f64,
        feature: usize,
    ) {
        extend(&mut path, zero_fraction, one_fraction, feature);

        if tree.is_leaf(node_idx) {
            for i in 1..path.len() {
                let w = unwound_weight_sum(&path, i);
                let el = path[i];
                let scale = w * (el.one_fraction - el.zero_fraction);
                let f = el.feature;
                for (c, &v) in tree.distribution(node_idx).iter().enumerate() {
                    phi[f][c] += scale * v;
                }
            }
            return;
        }

        let split = tree.feature[node_idx] as usize;
        let (left, right) = (tree.left[node_idx] as usize, tree.right[node_idx] as usize);
        let (hot, cold) = if x[split] <= tree.threshold[node_idx] {
            (left, right)
        } else {
            (right, left)
        };
        let hot_zero = tree.cover[hot] / tree.cover[node_idx];
        let cold_zero = tree.cover[cold] / tree.cover[node_idx];
        let mut incoming_zero = 1.0;
        let mut incoming_one = 1.0;

        if let Some(k) = path
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, e)| e.feature == split)
            .map(|(k, _)| k)
        {
            incoming_zero = path[k].zero_fraction;
            incoming_one = path[k].one_fraction;
            unwind(&mut path, k);
        }

        recurse(
            tree,
            x,
            phi,
            hot,
            path.clone(),
            incoming_zero * hot_zero,
            incoming_one,
            split,
        );
        recurse(
            tree,
            x,
            phi,
            cold,
            path,
            incoming_zero * cold_zero,
            0.0,
            split,
        );
    }

    assert_eq!(
        x.len(),
        tree.n_features,
        "naive_tree_shap: feature mismatch"
    );
    let mut phi = vec![vec![0.0f64; tree.n_classes]; tree.n_features];
    if tree.is_leaf(0) {
        return phi;
    }
    recurse(
        tree,
        x,
        &mut phi,
        0,
        Vec::with_capacity(16),
        1.0,
        1.0,
        usize::MAX,
    );
    phi
}

/// Forest SHAP through [`naive_tree_shap`]: per-tree explanations summed
/// in forest order and scaled by 1/T — the historical accumulation
/// pattern, for bit-exact differential tests against the batched kernel.
pub fn naive_forest_shap(forest: &RandomForest, x: &[f64]) -> Vec<Vec<f64>> {
    let mut acc = vec![vec![0.0f64; forest.n_classes]; forest.n_features];
    for tree in &forest.trees {
        let phi = naive_tree_shap(tree, x);
        for (a_row, p_row) in acc.iter_mut().zip(&phi) {
            for (a, &p) in a_row.iter_mut().zip(p_row) {
                *a += p;
            }
        }
    }
    let inv = 1.0 / forest.trees.len() as f64;
    for row in &mut acc {
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    acc
}

/// Per-sample SHAP recomputation: runs the single-sample [`forest_shap`]
/// path row by row and reassembles the per-class matrices that the batched
/// `forest_shap_batch` produces in one pass.
///
/// [`forest_shap`]: icn_shap::forest_shap
pub fn per_sample_shap_batch(forest: &RandomForest, x: &Matrix) -> Vec<Matrix> {
    let (n, m) = x.shape();
    let mut per_class = vec![Matrix::zeros(n, m); forest.n_classes];
    for i in 0..n {
        let phi = icn_shap::forest_shap(forest, x.row(i));
        for (j, per_feature) in phi.iter().enumerate() {
            for (c, &v) in per_feature.iter().enumerate() {
                per_class[c].set(i, j, v);
            }
        }
    }
    per_class
}

/// Gini (mean-decrease-in-impurity) importance of a forest, normalised to
/// sum to 1 (all-zero if every tree is a single leaf): the classical
/// second opinion SHAP's global importances are checked against.
pub fn gini_importance(forest: &RandomForest) -> Vec<f64> {
    let mut total = vec![0.0f64; forest.n_features];
    for tree in &forest.trees {
        for i in (0..tree.num_nodes()).filter(|&i| !tree.is_leaf(i)) {
            let (l, r) = (tree.left[i] as usize, tree.right[i] as usize);
            let decrease = tree.cover[i] * gini(tree.distribution(i))
                - tree.cover[l] * gini(tree.distribution(l))
                - tree.cover[r] * gini(tree.distribution(r));
            total[tree.feature[i] as usize] += decrease.max(0.0);
        }
    }
    let s: f64 = total.iter().sum();
    if s > 0.0 {
        for t in &mut total {
            *t /= s;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_rca_hand_computed() {
        let t = Matrix::from_vec(2, 2, vec![30.0, 10.0, 10.0, 30.0]);
        let r = naive_rca(&t);
        assert!((r.get(0, 0) - 1.5).abs() < 1e-12);
        assert!((r.get(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn naive_agglomerate_two_obvious_groups() {
        let m = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0], vec![9.1]]);
        let h = naive_agglomerate(&m, Linkage::Ward);
        let labels = h.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn naive_dunn_hand_computed() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![12.0]]);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        assert!((naive_dunn(&cond, &[0, 0, 1, 1]) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn naive_ari_hand_computed() {
        // Classic contingency example: expected index equals the index.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 0, 0, 1];
        assert!(naive_ari(&a, &b).abs() < 1e-12);
        // Identical (up to renaming) partitions score 1.
        assert!((naive_ari(&a, &a) - 1.0).abs() < 1e-12);
        assert!((naive_ari(&a, &[5, 5, 2, 2]) - 1.0).abs() < 1e-12);
        // Trivial all-in-one vs itself is the degenerate-agreement case.
        assert!((naive_ari(&[0, 0, 0], &[1, 1, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_nmi_hand_computed() {
        let a = vec![0, 0, 1, 1];
        assert!((naive_nmi(&a, &a) - 1.0).abs() < 1e-12);
        assert!((naive_nmi(&a, &[3, 3, 0, 0]) - 1.0).abs() < 1e-12);
        // Independent halves share no information.
        assert!(naive_nmi(&[0, 0, 1, 1], &[0, 1, 0, 1]).abs() < 1e-12);
        // An all-in-one reference carries zero information about a real
        // split: MI = 0 but the split's entropy keeps the denominator
        // positive, so NMI = 0 (matching `normalized_mutual_info`).
        assert!(naive_nmi(&[0, 1, 2], &[0, 0, 0]).abs() < 1e-12);
        // Only when *both* partitions are trivial does the zero-entropy
        // denominator convention return 1.
        assert!((naive_nmi(&[0, 0, 0], &[1, 1, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_silhouette_singleton_convention() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0], vec![9.0, 9.0]]);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let s = naive_silhouette(&cond, &[0, 0, 1]);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Class is determined entirely by feature 0; feature 1 is noise.
    fn one_informative_feature(seed: u64) -> TrainSet {
        let mut rng = icn_stats::Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..120 {
            let x0 = rng.uniform(0.0, 1.0);
            let x1 = rng.uniform(0.0, 1.0);
            rows.push(vec![x0, x1]);
            labels.push(usize::from(x0 > 0.5));
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    fn forest_of(ts: &TrainSet, n_trees: usize) -> RandomForest {
        let config = icn_forest::ForestConfig {
            n_trees,
            ..icn_forest::ForestConfig::default()
        };
        RandomForest::fit(ts, &config)
    }

    #[test]
    fn gini_importance_finds_informative_feature() {
        let imp = gini_importance(&forest_of(&one_informative_feature(1), 20));
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "imp {imp:?}");
    }

    #[test]
    fn importances_nonnegative_gini() {
        let forest = forest_of(&one_informative_feature(4), 10);
        assert!(gini_importance(&forest).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn stump_forest_zero_importance() {
        // One constant feature → single-leaf trees → all-zero importance.
        let ts = TrainSet::new(
            Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]),
            vec![0, 1, 0],
        );
        assert_eq!(gini_importance(&forest_of(&ts, 5)), vec![0.0]);
    }
}
