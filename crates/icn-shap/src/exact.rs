//! Exact Shapley values by subset enumeration — the ground truth.
//!
//! Equation (4) of the paper defines the Shapley value of feature `i` as a
//! weighted sum over all feature subsets of the model-output difference
//! with and without `i`. For a tree ensemble, "without a feature" is the
//! *path-dependent conditional expectation*: descend the tree, follow `x`
//! on present features, and average children by their training cover on
//! absent ones. This module evaluates the 2^M sum directly — exponential,
//! usable only for small M, and exactly the target TreeSHAP reproduces in
//! polynomial time. The unit tests of [`crate::treeshap`] validate against
//! it.

use icn_forest::DecisionTree;

/// Path-dependent conditional expectation `E[f(x) | x_S]` of a tree's
/// class-probability output, where `S = {i : present[i]}`.
pub fn tree_expectation(tree: &DecisionTree, x: &[f64], present: &[bool]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        tree.n_features,
        "tree_expectation: feature mismatch"
    );
    assert_eq!(
        present.len(),
        tree.n_features,
        "tree_expectation: mask mismatch"
    );
    fn rec(tree: &DecisionTree, x: &[f64], present: &[bool], idx: usize) -> Vec<f64> {
        if tree.is_leaf(idx) {
            return tree.distribution(idx).to_vec();
        }
        let feature = tree.feature[idx] as usize;
        let (left, right) = (tree.left[idx] as usize, tree.right[idx] as usize);
        if present[feature] {
            let next = if x[feature] <= tree.threshold[idx] {
                left
            } else {
                right
            };
            rec(tree, x, present, next)
        } else {
            let l = rec(tree, x, present, left);
            let r = rec(tree, x, present, right);
            let wl = tree.cover[left] / tree.cover[idx];
            let wr = tree.cover[right] / tree.cover[idx];
            l.iter().zip(&r).map(|(a, b)| wl * a + wr * b).collect()
        }
    }
    rec(tree, x, present, 0)
}

/// Exact Shapley values of a single tree's output for sample `x`:
/// `phi[feature][class]`. Also returns the base value `E[f]` (the
/// all-absent expectation) as the second element.
///
/// # Panics
/// If the tree has more than 20 features (2^M blow-up guard).
pub fn exact_tree_shap(tree: &DecisionTree, x: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let m = tree.n_features;
    assert!(
        m <= 20,
        "exact_tree_shap: too many features for enumeration"
    );
    let n_classes = tree.n_classes;
    let mut phi = vec![vec![0.0f64; n_classes]; m];

    // Precompute factorials.
    let fact: Vec<f64> = {
        let mut f = vec![1.0f64; m + 1];
        for i in 1..=m {
            f[i] = f[i - 1] * i as f64;
        }
        f
    };

    // Enumerate subsets S of features not containing i implicitly: iterate
    // all masks, and for each i ∉ S accumulate the marginal contribution.
    let mut present = vec![false; m];
    for mask in 0u32..(1u32 << m) {
        let s_size = mask.count_ones() as usize;
        for (i, p) in present.iter_mut().enumerate() {
            *p = mask & (1 << i) != 0;
        }
        if s_size == m {
            continue; // no i ∉ S to credit
        }
        let f_s = tree_expectation(tree, x, &present);
        let weight = fact[s_size] * fact[m - s_size - 1] / fact[m];
        for i in 0..m {
            if mask & (1 << i) != 0 {
                continue; // i ∈ S
            }
            present[i] = true;
            let f_si = tree_expectation(tree, x, &present);
            present[i] = false;
            for c in 0..n_classes {
                phi[i][c] += weight * (f_si[c] - f_s[c]);
            }
        }
    }

    let base = tree_expectation(tree, x, &vec![false; m]);
    (phi, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_forest::{DecisionTree, TrainSet, TreeConfig};
    use icn_stats::{Matrix, Rng};

    fn small_tree(seed: u64) -> (DecisionTree, TrainSet) {
        let mut rng = Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            let c = rng.uniform(0.0, 1.0);
            rows.push(vec![a, b, c]);
            labels.push(usize::from(a + 0.5 * b > 0.8));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let all: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), &mut rng);
        (tree, ts)
    }

    #[test]
    fn expectation_all_present_is_prediction() {
        let (tree, ts) = small_tree(1);
        for i in 0..5 {
            let x = ts.x.row(i);
            let e = tree_expectation(&tree, x, &[true, true, true]);
            assert_eq!(e, tree.predict_proba(x).to_vec());
        }
    }

    #[test]
    fn expectation_none_present_is_root_average() {
        let (tree, ts) = small_tree(2);
        let x = ts.x.row(0);
        let e = tree_expectation(&tree, x, &[false, false, false]);
        // Root distribution equals the cover-weighted leaf average.
        let root = tree.distribution(0);
        for (a, b) in e.iter().zip(root) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn shapley_additivity() {
        // Σ_i phi_i + base = f(x), per class (local accuracy).
        let (tree, ts) = small_tree(3);
        for i in 0..5 {
            let x = ts.x.row(i);
            let (phi, base) = exact_tree_shap(&tree, x);
            let pred = tree.predict_proba(x);
            for c in 0..tree.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "sample {i} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        }
    }

    #[test]
    fn irrelevant_feature_gets_zero() {
        // Feature 2 never splits (labels depend only on features 0, 1), so
        // its Shapley value must be 0 by the missingness property.
        let (tree, ts) = small_tree(4);
        let uses_f2 = (0..tree.num_nodes()).any(|i| !tree.is_leaf(i) && tree.feature[i] == 2);
        if !uses_f2 {
            let x = ts.x.row(0);
            let (phi, _) = exact_tree_shap(&tree, x);
            for c in 0..tree.n_classes {
                assert!(phi[2][c].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn symmetric_stump_splits_credit_equally() {
        // A stump on feature 0: only feature 0 can carry credit.
        let ts = TrainSet::new(
            Matrix::from_rows(&[
                vec![0.0, 9.0],
                vec![0.0, -9.0],
                vec![1.0, 9.0],
                vec![1.0, -9.0],
            ]),
            vec![0, 0, 1, 1],
        );
        let mut rng = Rng::seed_from(5);
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let all: Vec<usize> = (0..4).collect();
        let tree = DecisionTree::fit(&ts, &all, &cfg, &mut rng);
        let (phi, _) = exact_tree_shap(&tree, &[0.0, 9.0]);
        assert!(phi[1][0].abs() < 1e-12);
        assert!(phi[0][0].abs() > 0.1);
    }
}
