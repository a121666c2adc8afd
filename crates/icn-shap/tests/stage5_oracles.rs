//! Stage 5 (TreeSHAP explanations): differential oracle + metamorphic
//! invariants against `icn-testkit`.
//!
//! Oracle: the two-phase batch kernel is pinned bit for bit to the
//! per-sample walk it replaced (`icn_testkit::walk_forest_shap`) — on
//! forests with repeated split features, impure multi-class leaves and
//! one-node stumps, at chunk widths 1, 2, odd and n — and to per-sample
//! recomputation; single-tree TreeSHAP is compared to the 2^M exact
//! Shapley definition.
//! Metamorphic: relabeling the services (permuting feature columns and
//! rewiring the fitted trees accordingly) must permute the attributions,
//! and local accuracy must survive both.

use icn_forest::{ForestConfig, RandomForest, SoaForest, SoaTree, TrainSet, TreeConfig};
use icn_shap::{
    exact_tree_shap, forest_base_value, forest_shap, forest_shap_batch, forest_shap_batch_soa,
    forest_shap_soa, tree_shap,
};
use icn_stats::check::{self, cases};
use icn_stats::Matrix;
use icn_testkit::{
    naive_forest_shap, naive_tree_shap, per_sample_shap_batch, permutation, permute_cols,
    permute_forest_features, permute_slice, walk_forest_shap, walk_tree_shap,
};

/// Small labelled blobs (feature count kept ≤ 6 so the 2^M oracle stays
/// cheap).
fn blobs(rng: &mut icn_stats::Rng) -> TrainSet {
    let k = check::len_in(rng, 2, 4);
    let m = check::len_in(rng, 3, 7);
    let per = check::len_in(rng, 6, 12);
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for c in 0..k {
        for _ in 0..per {
            rows.push(
                (0..m)
                    .map(|j| rng.normal(if j % k == c { 3.0 } else { 0.0 }, 0.7))
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
            n_trees: 8,
            seed,
            ..ForestConfig::default()
        },
    )
}

#[test]
fn batched_shap_matches_per_sample_recomputation() {
    cases(10, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        let batched = forest_shap_batch(&forest, &ts.x);
        let oracle = per_sample_shap_batch(&forest, &ts.x);
        assert_eq!(batched.len(), oracle.len());
        for (c, (b, o)) in batched.iter().zip(&oracle).enumerate() {
            assert_eq!(b.shape(), o.shape());
            for (i, (x, y)) in b.as_slice().iter().zip(o.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "class {c} cell {i}: batched {x} vs per-sample {y}"
                );
            }
        }
    });
}

/// Asserts that the batch kernel reproduces the per-sample walk bit for
/// bit on `forest` and every row of `x`, at chunk widths 1, 2, odd and n:
/// through batches of 1, 2, 5 and 7 rows (a batch of up to 16 rows is one
/// chunk), through the whole batch at 1 thread (one chunk of all n rows)
/// and at 2 and 3 threads (n/2- and n/3-wide chunks, the last one
/// ragged), and through the single-sample entry point.
fn assert_kernel_matches_walk(forest: &SoaForest, x: &Matrix) {
    let n = x.rows();
    let fc = forest.n_features * forest.n_classes;
    let want: Vec<Vec<f64>> = (0..n).map(|i| walk_forest_shap(forest, x.row(i))).collect();
    let check = |batch: &[Matrix], rows: &[usize], what: &str| {
        for (bi, &i) in rows.iter().enumerate() {
            for f in 0..forest.n_features {
                for (c, m) in batch.iter().enumerate() {
                    let (got, exp) = (m.get(bi, f), want[i][f * forest.n_classes + c]);
                    assert_eq!(
                        got.to_bits(),
                        exp.to_bits(),
                        "{what}: row {i} feature {f} class {c}: kernel {got} vs walk {exp}"
                    );
                }
            }
        }
    };
    let all: Vec<usize> = (0..n).collect();
    for width in [1, 2, 5, 7] {
        for start in (0..n).step_by(width) {
            let rows = &all[start..(start + width).min(n)];
            let batch = forest_shap_batch_soa(forest, &x.select_rows(rows));
            check(&batch, rows, &format!("chunk of {}", rows.len()));
        }
    }
    for threads in ["1", "2", "3"] {
        std::env::set_var("ICN_THREADS", threads);
        let batch = forest_shap_batch_soa(forest, x);
        std::env::remove_var("ICN_THREADS");
        check(&batch, &all, &format!("{threads} threads"));
    }
    for (i, exp) in want.iter().enumerate() {
        let phi = forest_shap_soa(forest, x.row(i));
        let got: Vec<f64> = phi.concat();
        assert_eq!(got.len(), fc);
        for (k, (a, b)) in got.iter().zip(exp).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "batch of one: row {i} slot {k}");
        }
    }
}

fn fit_forest(ts: &TrainSet, seed: u64, n_trees: usize, tree: TreeConfig) -> SoaForest {
    SoaForest::from_forest(&RandomForest::fit(
        ts,
        &ForestConfig {
            n_trees,
            tree,
            seed,
        },
    ))
}

/// Uniform points on `[0, 4)^m` labelled by `⌊Σx / 2⌋` (capped at 3):
/// diagonal class boundaries make axis splits reuse features down a path.
fn diagonal(rng: &mut icn_stats::Rng, n: usize, m: usize) -> TrainSet {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..m).map(|_| rng.uniform(0.0, 4.0)).collect();
        y.push(((row.iter().sum::<f64>() / 2.0) as usize).min(3));
        rows.push(row);
    }
    TrainSet::new(Matrix::from_rows(&rows), y)
}

#[test]
fn batch_kernel_matches_walk_on_random_forests() {
    cases(8, |case, rng| {
        let ts = blobs(rng);
        let forest = SoaForest::from_forest(&small_forest(&ts, case + 1));
        assert_kernel_matches_walk(&forest, &ts.x);
    });
}

#[test]
fn batch_kernel_matches_walk_on_repeated_split_features() {
    // Two or three features and fully grown trees: features recur along
    // paths in hot and cold positions, driving the merge path of both
    // internal states and leaf children.
    cases(6, |case, rng| {
        let m = check::len_in(rng, 2, 4);
        let ts = diagonal(rng, 60, m);
        let forest = fit_forest(&ts, case + 1, 6, TreeConfig::default());
        assert!(
            forest.trees.iter().any(|t| t.max_unique_path < t.max_depth),
            "no tree repeats a split feature on a path"
        );
        assert_kernel_matches_walk(&forest, &ts.x);
    });
}

#[test]
fn batch_kernel_matches_walk_on_impure_multiclass_leaves() {
    // Every leaf of a fully grown surrogate is pure; capped trees are the
    // only way into the `nnz > 1` credit loops.
    let caps = [
        TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        },
        TreeConfig {
            min_samples_leaf: 6,
            ..TreeConfig::default()
        },
    ];
    cases(6, |case, rng| {
        let ts = diagonal(rng, 50, 4);
        for cap in &caps {
            let forest = fit_forest(&ts, case + 1, 5, *cap);
            assert!(
                forest
                    .trees
                    .iter()
                    .any(|t| t.nz_len.iter().any(|&nnz| nnz > 1)),
                "no impure leaf under {cap:?}"
            );
            assert_kernel_matches_walk(&forest, &ts.x);
        }
    });
}

#[test]
fn batch_kernel_matches_walk_on_stumps() {
    // One-node trees credit nothing; mixed into a forest they must leave
    // the other trees' credits and the 1/T average untouched.
    let mut rng = icn_stats::Rng::seed_from(3);
    let ts = diagonal(&mut rng, 30, 3);
    let stump_cap = TreeConfig {
        max_depth: 0,
        ..TreeConfig::default()
    };
    let stumps = fit_forest(&ts, 1, 3, stump_cap);
    assert!(stumps.trees.iter().all(|t| t.is_leaf(0)));
    assert_kernel_matches_walk(&stumps, &ts.x);
    let grown = fit_forest(&ts, 2, 4, TreeConfig::default());
    let mut trees: Vec<SoaTree> = Vec::new();
    for (s, g) in stumps.trees.iter().zip(&grown.trees) {
        trees.push(s.clone());
        trees.push(g.clone());
    }
    let mixed = SoaForest {
        max_depth: grown.max_depth,
        max_unique_path: grown.max_unique_path,
        trees,
        ..grown
    };
    assert_kernel_matches_walk(&mixed, &ts.x);
}

#[test]
fn single_tree_entry_point_matches_walk() {
    cases(6, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        for (tree, soa) in forest
            .trees
            .iter()
            .zip(&SoaForest::from_forest(&forest).trees)
        {
            for i in (0..ts.x.rows()).step_by(3) {
                let got = tree_shap(tree, ts.x.row(i)).concat();
                let want = walk_tree_shap(soa, ts.x.row(i));
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i} slot {k}");
                }
            }
        }
    });
}

#[test]
fn quadrature_kernel_matches_recursive_oracle() {
    // The Gauss–Legendre quadrature kernel evaluates the same Shapley
    // weights as the historical recursive recurrence (preserved verbatim
    // in icn-testkit) through an exact integral reformulation — only f64
    // rounding may differ, so the diff must sit at accumulation-noise
    // level, far below any value the pipeline renders.
    cases(10, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        for i in 0..ts.x.rows() {
            let x = ts.x.row(i);
            let kernel = forest_shap(&forest, x);
            let oracle = naive_forest_shap(&forest, x);
            for (f, (kf, of)) in kernel.iter().zip(&oracle).enumerate() {
                for (c, (a, b)) in kf.iter().zip(of).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-11,
                        "row {i} feature {f} class {c}: kernel {a} vs recursive {b}"
                    );
                }
            }
        }
        // Single-tree path too (covers the repeated-feature merge).
        for tree in &forest.trees {
            let x = ts.x.row(0);
            let kernel = tree_shap(tree, x);
            let oracle = naive_tree_shap(tree, x);
            for (kf, of) in kernel.iter().zip(&oracle) {
                for (a, b) in kf.iter().zip(of) {
                    assert!((a - b).abs() < 1e-11, "kernel {a} vs recursive {b}");
                }
            }
        }
    });
}

#[test]
fn batched_shap_invariant_to_thread_count() {
    // ICN_THREADS only changes the schedule, never any floating-point
    // expression: the batched SHAP matrices must be bit-identical with 1
    // worker, 3 workers, and the hardware default.
    let mut rng = icn_stats::Rng::seed_from(42);
    let ts = blobs(&mut rng);
    let forest = small_forest(&ts, 7);
    let run_with = |threads: Option<&str>| {
        match threads {
            Some(t) => std::env::set_var("ICN_THREADS", t),
            None => std::env::remove_var("ICN_THREADS"),
        }
        let out = forest_shap_batch(&forest, &ts.x);
        std::env::remove_var("ICN_THREADS");
        out
    };
    let serial = run_with(Some("1"));
    let three = run_with(Some("3"));
    let default = run_with(None);
    for (c, s) in serial.iter().enumerate() {
        for (i, (&a, &b)) in s.as_slice().iter().zip(three[c].as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "class {c} cell {i}: 1 vs 3 threads"
            );
        }
        for (i, (&a, &b)) in s.as_slice().iter().zip(default[c].as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "class {c} cell {i}: 1 vs default threads"
            );
        }
    }
}

#[test]
fn treeshap_matches_exact_shapley_enumeration() {
    cases(6, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        for tree in &forest.trees {
            for i in (0..ts.x.rows()).step_by(5) {
                let x = ts.x.row(i);
                let fast = tree_shap(tree, x);
                let (slow, _base) = exact_tree_shap(tree, x);
                for (j, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    for (c, (a, b)) in f.iter().zip(s).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-9,
                            "row {i} feature {j} class {c}: {a} vs exact {b}"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn attributions_equivariant_to_service_relabeling() {
    // Renaming the services — permuting the feature columns and rewiring
    // the fitted forest to match — must permute each sample's attribution
    // vector the same way, for every class.
    cases(10, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        let p = permutation(rng, ts.x.cols());
        check::record(format!("service perm {p:?}"));
        let rewired = permute_forest_features(&forest, &p);
        let x_perm = permute_cols(&ts.x, &p);
        for i in 0..ts.x.rows() {
            let phi = forest_shap(&forest, ts.x.row(i));
            let phi_perm = forest_shap(&rewired, x_perm.row(i));
            let expected = permute_slice(&phi, &p);
            for (j, (a, b)) in phi_perm.iter().zip(&expected).enumerate() {
                for (c, (x, y)) in a.iter().zip(b).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-12,
                        "row {i} permuted feature {j} class {c}: {x} vs {y}"
                    );
                }
            }
        }
    });
}

#[test]
fn local_accuracy_holds_on_random_forests() {
    // Shapley completeness: attributions plus the base value reconstruct
    // the model output exactly, class by class.
    cases(10, |case, rng| {
        let ts = blobs(rng);
        let forest = small_forest(&ts, case + 1);
        let base = forest_base_value(&forest);
        for i in 0..ts.x.rows() {
            let phi = forest_shap(&forest, ts.x.row(i));
            let pred = forest.predict_proba(ts.x.row(i));
            for c in 0..forest.n_classes {
                let total: f64 = phi.iter().map(|f| f[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "row {i} class {c}: completeness {total} vs prediction {}",
                    pred[c]
                );
            }
        }
    });
}
