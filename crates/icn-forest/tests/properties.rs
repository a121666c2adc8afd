//! Property-based tests for the supervised substrate, driven by the
//! deterministic [`icn_stats::check`] harness.

use icn_forest::{DecisionTree, ForestConfig, MaxFeatures, RandomForest, TrainSet, TreeConfig};
use icn_stats::check::{cases, len_in, record};
use icn_stats::{Matrix, Rng};

/// Random labelled set with at least two classes present.
fn trainset(rng: &mut Rng) -> TrainSet {
    let n = len_in(rng, 10, 60);
    let d = len_in(rng, 1, 5);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let mut labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
    labels[0] = 0;
    labels[1] = 1;
    TrainSet::new(Matrix::from_rows(&rows), labels)
}

#[test]
fn tree_distributions_are_probabilities() {
    cases(32, |case, rng| {
        let ts = trainset(rng);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
        for i in 0..tree.num_nodes() {
            let s: f64 = tree.distribution(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "case {case}");
            assert!(
                tree.distribution(i)
                    .iter()
                    .all(|&p| (0.0..=1.0).contains(&p)),
                "case {case}"
            );
            assert!(tree.cover[i] > 0.0, "case {case}");
        }
    });
}

#[test]
fn unconstrained_tree_memorizes_training_data() {
    // Distinct feature vectors with consistent labels are fit exactly by
    // an unconstrained CART tree; our labels are a function of x[0] (with
    // only rows 0 and 1 pinned, matching that rule with prob. 1/2 each),
    // so training accuracy must be 1 whenever no two rows collide.
    cases(32, |case, rng| {
        let ts = trainset(rng);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
        for i in 0..ts.len() {
            assert_eq!(tree.predict(ts.x.row(i)), ts.y[i], "case {case} row {i}");
        }
    });
}

#[test]
fn covers_conserve_along_tree() {
    cases(32, |case, rng| {
        let ts = trainset(rng);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
        assert_eq!(tree.cover[0], ts.len() as f64, "case {case}");
        for i in 0..tree.num_nodes() {
            if !tree.is_leaf(i) {
                let child_sum =
                    tree.cover[tree.left[i] as usize] + tree.cover[tree.right[i] as usize];
                assert!((child_sum - tree.cover[i]).abs() < 1e-9, "case {case}");
            }
        }
    });
}

#[test]
fn forest_probas_sum_to_one() {
    cases(32, |case, rng| {
        let ts = trainset(rng);
        let seed = rng.next_u64();
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 5,
                seed,
                ..ForestConfig::default()
            },
        );
        for i in (0..ts.len()).step_by(7) {
            let p = forest.predict_proba(ts.x.row(i));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
        }
    });
}

#[test]
fn forest_deterministic_in_seed() {
    cases(16, |case, rng| {
        let ts = trainset(rng);
        let cfg = ForestConfig {
            n_trees: 4,
            seed: rng.next_u64(),
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&ts, &cfg);
        let b = RandomForest::fit(&ts, &cfg);
        assert_eq!(
            a.predict_batch(&ts.x),
            b.predict_batch(&ts.x),
            "case {case}"
        );
    });
}

/// Three classes over 1–5 features, labelled by the first and last
/// feature: fully grown trees reuse features down a path, and capped
/// ones stop at impure leaves.
fn multiclass(rng: &mut Rng) -> TrainSet {
    let n = len_in(rng, 10, 80);
    let d = len_in(rng, 1, 6);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let mut labels: Vec<usize> = rows
        .iter()
        .map(|r| (((r[0] + r[d - 1]) * 1.5) as usize).min(2))
        .collect();
    labels[..3].copy_from_slice(&[0, 1, 2]);
    TrainSet::new(Matrix::from_rows(&rows), labels)
}

/// Fully grown, a stump (`max_depth` 0), a depth cap of 1–3 or a leaf
/// floor of 2–6, over all or √M features per split.
fn any_config(rng: &mut Rng) -> TreeConfig {
    let mut cfg = TreeConfig::default();
    match rng.index(4) {
        0 => {}
        1 => cfg.max_depth = 0,
        2 => cfg.max_depth = len_in(rng, 1, 4),
        _ => cfg.min_samples_leaf = len_in(rng, 2, 7),
    }
    if rng.chance(0.5) {
        cfg.max_features = MaxFeatures::Sqrt;
    }
    record(format!("{cfg:?}"));
    cfg
}

/// What a recursive walk of a fitted tree finds: the next pre-order
/// index, the largest depth, the widest set of distinct split features
/// above any leaf, and the number of impure leaves.
#[derive(Default)]
struct Walked {
    next: usize,
    max_depth: usize,
    max_unique_path: usize,
    impure_leaves: usize,
}

/// Walks the subtree at `i` (depth `depth`, `path` the split features
/// above it), checking node by node what the fit derives while growing:
/// pre-order numbering, each cover ratio as the exact division of the
/// child's cover by the parent's, covers summing over children, and the
/// nonzero view of every leaf.
fn walk(tree: &DecisionTree, i: usize, depth: usize, path: &mut Vec<u32>, w: &mut Walked) {
    assert_eq!(i, w.next, "nodes are numbered in pre-order");
    w.next += 1;
    w.max_depth = w.max_depth.max(depth);
    let (classes, vals) = tree.leaf_nonzero(i);
    if tree.is_leaf(i) {
        let mut unique = path.clone();
        unique.sort_unstable();
        unique.dedup();
        w.max_unique_path = w.max_unique_path.max(unique.len());
        let mut dense = vec![0.0f64; tree.n_classes];
        for (&c, &v) in classes.iter().zip(vals) {
            assert!(v != 0.0, "leaf {i} stores a zero entry");
            dense[c as usize] = v;
        }
        assert!(!classes.is_empty(), "leaf {i} has an empty distribution");
        assert!(classes.windows(2).all(|p| p[0] < p[1]), "leaf {i} classes");
        assert_eq!(dense.as_slice(), tree.distribution(i), "leaf {i}");
        w.impure_leaves += usize::from(classes.len() > 1);
        return;
    }
    assert!(classes.is_empty(), "internal node {i} has a nonzero view");
    let (l, r) = (tree.left[i] as usize, tree.right[i] as usize);
    assert_eq!(
        tree.cover[l] + tree.cover[r],
        tree.cover[i],
        "node {i} covers"
    );
    for c in [l, r] {
        let want = tree.cover[c] / tree.cover[i];
        assert_eq!(tree.ratio[c].to_bits(), want.to_bits(), "node {c} ratio");
    }
    path.push(tree.feature[i]);
    walk(tree, l, depth + 1, path, w);
    walk(tree, r, depth + 1, path, w);
    path.pop();
}

#[test]
fn fitted_tree_layout_invariants() {
    let (mut stumps, mut impure) = (0, 0);
    cases(48, |case, rng| {
        let ts = multiclass(rng);
        let cfg = any_config(rng);
        let rows: Vec<usize> = if rng.chance(0.5) {
            ts.bootstrap(rng).0
        } else {
            (0..ts.len()).collect()
        };
        let tree = DecisionTree::fit(&ts, &rows, &cfg, rng);
        let n = tree.num_nodes();
        for len in [
            tree.feature.len(),
            tree.threshold.len(),
            tree.right.len(),
            tree.cover.len(),
            tree.ratio.len(),
        ] {
            assert_eq!(len, n, "case {case}: per-node array length");
        }
        assert_eq!(tree.dist.len(), n * tree.n_classes, "case {case}");
        assert_eq!(tree.nz_off.len(), n + 1, "case {case}");
        assert_eq!(tree.cover[0], rows.len() as f64, "case {case}");
        assert_eq!(tree.ratio[0].to_bits(), 1.0f64.to_bits(), "case {case}");
        let mut w = Walked::default();
        walk(&tree, 0, 0, &mut Vec::new(), &mut w);
        assert_eq!(w.next, n, "case {case}: unreachable nodes");
        assert_eq!(tree.max_depth, w.max_depth, "case {case}: depth");
        assert_eq!(
            tree.max_unique_path, w.max_unique_path,
            "case {case}: unique-path width"
        );
        assert!(tree.max_unique_path <= tree.max_depth.min(tree.n_features));
        stumps += usize::from(n == 1);
        impure += w.impure_leaves;
    });
    assert!(stumps > 0, "no stump among the cases");
    assert!(impure > 0, "no impure leaf among the cases");
}
