//! Property-based tests for the explanation substrate: SHAP axioms
//! (local accuracy / efficiency, missingness, symmetry on symmetric
//! models) checked on randomly grown trees, driven by the deterministic
//! [`icn_stats::check`] harness.

use icn_forest::{DecisionTree, ForestConfig, RandomForest, TrainSet, TreeConfig};
use icn_shap::{exact_tree_shap, forest_base_value, forest_shap, tree_shap};
use icn_stats::check::{cases, len_in};
use icn_stats::{Matrix, Rng};

fn trainset(rng: &mut Rng, n: usize, d: usize) -> TrainSet {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let mut labels: Vec<usize> = rows
        .iter()
        .map(|r| {
            let s: f64 = r.iter().take(2).sum();
            usize::from(s > 1.0)
        })
        .collect();
    labels[0] = 0;
    labels[n - 1] = 1;
    TrainSet::new(Matrix::from_rows(&rows), labels)
}

#[test]
fn treeshap_equals_exact_small() {
    cases(24, |case, rng| {
        let n = len_in(rng, 20, 60);
        let ts = trainset(rng, n, 4);
        let all: Vec<usize> = (0..ts.len()).collect();
        let cfg = TreeConfig {
            max_depth: 5,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ts, &all, &cfg, rng);
        let x = ts.x.row(0);
        let fast = tree_shap(&tree, x);
        let (slow, _) = exact_tree_shap(&tree, x);
        for f in 0..4 {
            for c in 0..tree.n_classes {
                assert!(
                    (fast[f][c] - slow[f][c]).abs() < 1e-9,
                    "case {case} feature {f} class {c}"
                );
            }
        }
    });
}

#[test]
fn missingness_unused_features_get_zero() {
    // Grow a tree on 5 features where labels depend on feature 0 only,
    // then check that features the tree never splits on get phi == 0.
    cases(24, |case, rng| {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..5).map(|_| rng.uniform(0.0, 1.0)).collect())
            .collect();
        let mut labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        labels[0] = 0;
        labels[1] = 1;
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
        let used: std::collections::HashSet<usize> = (0..tree.num_nodes())
            .filter(|&i| !tree.is_leaf(i))
            .map(|i| tree.feature[i] as usize)
            .collect();
        let phi = tree_shap(&tree, ts.x.row(3));
        for f in 0..5 {
            if !used.contains(&f) {
                for c in 0..tree.n_classes {
                    assert!(
                        phi[f][c].abs() < 1e-12,
                        "case {case}: unused feature {f} has phi {}",
                        phi[f][c]
                    );
                }
            }
        }
    });
}

#[test]
fn forest_local_accuracy() {
    cases(24, |case, rng| {
        let n = len_in(rng, 30, 60);
        let ts = trainset(rng, n, 4);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 6,
                seed: rng.next_u64(),
                ..ForestConfig::default()
            },
        );
        let base = forest_base_value(&forest);
        let x = ts.x.row(n / 2);
        let phi = forest_shap(&forest, x);
        let pred = forest.predict_proba(x);
        for c in 0..forest.n_classes {
            let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
            assert!((total - pred[c]).abs() < 1e-9, "case {case} class {c}");
        }
    });
}

#[test]
fn per_class_phis_sum_to_zero_across_classes() {
    // Probabilities sum to 1 for every input, so Shapley values per
    // feature must sum to 0 across classes.
    cases(24, |case, rng| {
        let n = len_in(rng, 30, 60);
        let ts = trainset(rng, n, 3);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
        let phi = tree_shap(&tree, ts.x.row(1));
        for f in 0..3 {
            let s: f64 = phi[f].iter().sum();
            assert!(s.abs() < 1e-9, "case {case}: feature {f} class-sum {s}");
        }
    });
}
