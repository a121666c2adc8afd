//! Property-based tests for the supervised substrate, driven by the
//! deterministic [`icn_stats::check`] harness.

use icn_forest::{DecisionTree, ForestConfig, RandomForest, TrainSet, TreeConfig};
use icn_stats::check::{cases, len_in};
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
        for node in &tree.nodes {
            let s: f64 = node.distribution.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "case {case}");
            assert!(
                node.distribution.iter().all(|&p| (0.0..=1.0).contains(&p)),
                "case {case}"
            );
            assert!(node.cover > 0.0, "case {case}");
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
        assert_eq!(tree.nodes[0].cover, ts.len() as f64, "case {case}");
        for node in &tree.nodes {
            if !node.is_leaf() {
                let child_sum = tree.nodes[node.left].cover + tree.nodes[node.right].cover;
                assert!((child_sum - node.cover).abs() < 1e-9, "case {case}");
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
