//! Stage 4 (random-forest surrogate): differential oracle + metamorphic
//! invariants against `icn-testkit`.
//!
//! Oracles: the rank-based CART fit is compared node for node, bit for
//! bit, to the testkit's per-node sort-and-scan fit, and the
//! batched/parallel prediction paths to the testkit's per-sample,
//! hand-walked tree traversal. Metamorphic: Gini
//! impurity is invariant under class renaming, so training on permuted
//! class labels (same seed) must permute the predicted probabilities; and
//! a feature-permuted forest must predict identically on column-permuted
//! inputs.

use icn_forest::{DecisionTree, ForestConfig, MaxFeatures, RandomForest, TrainSet, TreeConfig};
use icn_stats::check::{self, cases};
use icn_stats::{Matrix, Rng};
use icn_testkit::{
    naive_accuracy, naive_predict_batch, naive_predict_proba, permutation, permute_cols,
    permute_forest_features, permute_labels, sort_scan_tree_fit, CartNode,
};

/// Gaussian blobs: k classes, each concentrated on its own axis.
fn blobs(rng: &mut icn_stats::Rng) -> TrainSet {
    let k = check::len_in(rng, 2, 4);
    let m = check::len_in(rng, 3, 6);
    let per = check::len_in(rng, 8, 14);
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for c in 0..k {
        for _ in 0..per {
            rows.push(
                (0..m)
                    .map(|j| rng.normal(if j % k == c { 3.0 } else { 0.0 }, 0.6))
                    .collect::<Vec<f64>>(),
            );
            y.push(c);
        }
    }
    check::record(format!("{k} classes x {per} samples, {m} features"));
    TrainSet::new(Matrix::from_rows(&rows), y)
}

fn small_forest(ts: &TrainSet, seed: u64) -> RandomForest {
    RandomForest::fit(
        ts,
        &ForestConfig {
            n_trees: 12,
            seed,
            ..ForestConfig::default()
        },
    )
}

#[test]
fn predict_batch_matches_per_sample_oracle() {
    cases(16, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        assert_eq!(
            forest.predict_batch(&ts.x),
            naive_predict_batch(&forest, &ts.x),
            "batched and per-sample predictions diverge"
        );
    });
}

#[test]
fn predict_proba_matches_hand_walked_trees() {
    cases(16, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        for i in 0..ts.x.rows() {
            let fast = forest.predict_proba(ts.x.row(i));
            let slow = naive_predict_proba(&forest, ts.x.row(i));
            for (c, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (f - s).abs() < 1e-12,
                    "row {i} class {c}: proba {f} vs oracle {s}"
                );
            }
        }
    });
}

#[test]
fn accuracy_matches_per_sample_recount() {
    cases(16, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        let fast = forest.accuracy(&ts);
        let slow = naive_accuracy(&forest, &ts);
        assert!((fast - slow).abs() < 1e-12, "accuracy {fast} vs {slow}");
    });
}

#[test]
fn training_equivariant_to_class_relabeling() {
    // Gini impurity only sees class *counts*, so renaming the classes and
    // refitting with the same seed must permute every probability vector.
    cases(12, |case, rng| {
        let ts = blobs(rng);
        let k = ts.n_classes;
        let p = permutation(rng, k);
        check::record(format!("class perm {p:?}"));
        let renamed = TrainSet::new(ts.x.clone(), permute_labels(&ts.y, &p));
        let base = small_forest(&ts, case + 1);
        let permuted = small_forest(&renamed, case + 1);
        for i in 0..ts.x.rows() {
            let pb = base.predict_proba(ts.x.row(i));
            let pp = permuted.predict_proba(ts.x.row(i));
            for c in 0..k {
                assert!(
                    (pb[c] - pp[p[c]]).abs() < 1e-12,
                    "row {i}: proba[{c}]={} but renamed proba[{}]={}",
                    pb[c],
                    p[c],
                    pp[p[c]]
                );
            }
        }
    });
}

#[test]
fn prediction_invariant_under_consistent_feature_permutation() {
    // Rewiring every split to the permuted column layout and feeding the
    // permuted columns must reproduce the original predictions exactly.
    cases(12, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        let p = permutation(rng, ts.x.cols());
        check::record(format!("feature perm {p:?}"));
        let rewired = permute_forest_features(&forest, &p);
        let x_perm = permute_cols(&ts.x, &p);
        for i in 0..ts.x.rows() {
            let a = forest.predict_proba(ts.x.row(i));
            let b = rewired.predict_proba(x_perm.row(i));
            for c in 0..ts.n_classes {
                assert!(
                    (a[c] - b[c]).abs() < 1e-15,
                    "row {i} class {c}: {} vs rewired {}",
                    a[c],
                    b[c]
                );
            }
        }
    });
}

/// Asserts a fitted tree equals the oracle's node list node for node:
/// feature, threshold bits, children (`u32::MAX` and `usize::MAX` both
/// mark a leaf), cover bits and every distribution bit.
fn assert_same_tree(fast: &DecisionTree, oracle: &[CartNode], what: &str) {
    assert_eq!(fast.num_nodes(), oracle.len(), "{what}: node count differs");
    let child = |c: u32| {
        if c == u32::MAX {
            usize::MAX
        } else {
            c as usize
        }
    };
    for (i, b) in oracle.iter().enumerate() {
        let (feature, threshold) = (fast.feature[i] as usize, fast.threshold[i]);
        assert_eq!(
            (
                feature,
                threshold.to_bits(),
                child(fast.left[i]),
                child(fast.right[i])
            ),
            (b.feature, b.threshold.to_bits(), b.left, b.right),
            "{what}: node {i} split differs (threshold {} vs oracle {})",
            threshold,
            b.threshold
        );
        assert_eq!(
            fast.cover[i].to_bits(),
            b.cover.to_bits(),
            "{what}: node {i} cover"
        );
        let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(fast.distribution(i)),
            bits(&b.distribution),
            "{what}: node {i} distribution"
        );
    }
}

/// A training set whose columns exercise every tie pattern the rank table
/// must get right: continuous class-shifted values, integer-valued hour
/// (0–23) and weekday (0–6) columns like the stage-6 features, a column
/// of mixed `-0.0`/`0.0` with a few class-dependent values, and a
/// constant column. 2–16 classes, 40–599 rows (the root sits on either
/// side of the radix threshold; deep nodes are always below it).
fn mixed_columns(rng: &mut Rng) -> TrainSet {
    let k = check::len_in(rng, 2, 17);
    let n = check::len_in(rng, 40, 600);
    let m = check::len_in(rng, 5, 10);
    let y: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.index(k) })
        .collect();
    let mut x = Matrix::zeros(n, m);
    for (i, &c) in y.iter().enumerate() {
        for j in 0..m {
            let v = match j % 5 {
                0 => rng.normal(c as f64 * 0.7, 1.0),
                1 => ((3 * c + rng.index(6)) % 24) as f64,
                2 => ((c + rng.index(3)) % 7) as f64,
                3 => match rng.index(4) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => (c % 3) as f64 - 1.0,
                    _ => -((c % 2) as f64),
                },
                _ => 3.25,
            };
            x.set(i, j, v);
        }
    }
    check::record(format!("{k} classes, {n} rows, {m} features"));
    TrainSet::new(x, y)
}

/// A random tree configuration over both `MaxFeatures` policies,
/// `min_samples_leaf` 1–5, `min_samples_split` 2–9 and, half the time, a
/// `max_depth` cap of 1–6.
fn any_tree_config(rng: &mut Rng) -> TreeConfig {
    let max_features = if rng.chance(0.5) {
        MaxFeatures::All
    } else {
        MaxFeatures::Sqrt
    };
    let cfg = TreeConfig {
        max_depth: if rng.chance(0.5) {
            usize::MAX
        } else {
            check::len_in(rng, 1, 7)
        },
        min_samples_split: check::len_in(rng, 2, 10),
        min_samples_leaf: check::len_in(rng, 1, 6),
        max_features,
    };
    check::record(format!("{cfg:?}"));
    cfg
}

#[test]
fn tree_fit_matches_sort_scan_oracle_bit_for_bit() {
    let mut split = 0;
    cases(40, |case, rng| {
        let ts = mixed_columns(rng);
        let cfg = any_tree_config(rng);
        // Bootstrap rows (with repeats) or every row once.
        let rows: Vec<usize> = if rng.chance(0.5) {
            ts.bootstrap(rng).0
        } else {
            (0..ts.len()).collect()
        };
        let mut fast_rng = Rng::seed_from(case);
        let mut oracle_rng = Rng::seed_from(case);
        let fast = DecisionTree::fit(&ts, &rows, &cfg, &mut fast_rng);
        let oracle = sort_scan_tree_fit(&ts, &rows, &cfg, &mut oracle_rng);
        assert_same_tree(&fast, &oracle, "tree");
        // Same candidate draws: both streams end in the same state.
        assert_eq!(fast_rng.next_u64(), oracle_rng.next_u64(), "rng drift");
        split += usize::from(oracle.len() > 1);
    });
    // A root whose only candidate is the constant column stays a leaf;
    // most cases must grow real trees.
    assert!(split >= 30, "only {split} of 40 oracle trees split");
}

#[test]
fn forest_trees_match_sort_scan_oracle_bit_for_bit() {
    cases(10, |case, rng| {
        let ts = mixed_columns(rng);
        let cfg = ForestConfig {
            n_trees: 6,
            tree: any_tree_config(rng),
            seed: case + 11,
        };
        let forest = RandomForest::fit(&ts, &cfg);
        // Replay each tree's stream as `fit` derives it: one fork per
        // tree, the bootstrap first, then the growth draws.
        let root = Rng::seed_from(cfg.seed);
        for (t, tree) in forest.trees.iter().enumerate() {
            let mut tree_rng = root.fork(t as u64);
            let (in_bag, _) = ts.bootstrap(&mut tree_rng);
            let oracle = sort_scan_tree_fit(&ts, &in_bag, &cfg.tree, &mut tree_rng);
            assert_same_tree(tree, &oracle, &format!("tree {t}"));
        }
    });
}

#[test]
fn splits_between_adjacent_doubles_match_the_oracle() {
    // Between 1 + 2^-52 and the next double the midpoint rounds up to the
    // upper value, so the threshold falls back to the lower one; between
    // 1.0 and the next double it rounds down to 1.0. Either way the fit
    // must agree with the oracle.
    let one = 1.0f64;
    for lower in [one, f64::from_bits(one.to_bits() + 1)] {
        let upper = f64::from_bits(lower.to_bits() + 1);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (v, c) in [(lower, 0usize), (upper, 1), (2.0, 1)] {
            for _ in 0..4 {
                rows.push(vec![v, 5.0]);
                y.push(c);
            }
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), y);
        let all: Vec<usize> = (0..ts.len()).collect();
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let fast = DecisionTree::fit(&ts, &all, &cfg, &mut Rng::seed_from(1));
        let oracle = sort_scan_tree_fit(&ts, &all, &cfg, &mut Rng::seed_from(1));
        assert_same_tree(&fast, &oracle, &format!("lower {lower:e}"));
        assert_eq!(fast.num_nodes(), 3, "the root must split");
    }
}

/// A boundary whose midpoint is not in `[v, next_v)` splits at `v`: the
/// midpoint of adjacent doubles can round up to the upper value, and a sum
/// beyond `f64::MAX` is infinite. Either midpoint would send every row to
/// one side, and at the default depth the fit would recurse on the same
/// rows until the stack overflows.
#[test]
fn boundaries_without_an_interior_midpoint_split_at_the_lower_value() {
    let above_one = |ulps: u64| f64::from_bits(1.0f64.to_bits() + ulps);
    for (lower, upper) in [
        (above_one(1), above_one(2)),
        (1e308, 1.5e308),
        (-1.5e308, -1e308),
    ] {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![if i < 4 { lower } else { upper }])
            .collect();
        let y: Vec<usize> = (0..8).map(|i| usize::from(i >= 4)).collect();
        let ts = TrainSet::new(Matrix::from_rows(&rows), y);
        let all: Vec<usize> = (0..ts.len()).collect();
        let cfg = TreeConfig::default();
        let fast = DecisionTree::fit(&ts, &all, &cfg, &mut Rng::seed_from(1));
        let oracle = sort_scan_tree_fit(&ts, &all, &cfg, &mut Rng::seed_from(1));
        let what = format!("{lower:e} | {upper:e}");
        assert_same_tree(&fast, &oracle, &what);
        assert_eq!(fast.num_nodes(), 3, "{what}: the root must split once");
        assert_eq!(fast.threshold[0].to_bits(), lower.to_bits(), "{what}");
        assert_eq!(fast.cover[1..], [4.0, 4.0], "{what}: children cover");
        assert!(
            fast.dist.iter().all(|p| p.is_finite()),
            "{what}: NaN distribution"
        );
    }
}
