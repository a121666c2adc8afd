//! Integration ablation B5: the three SHAP estimators must agree.
//!
//! TreeSHAP (the paper's choice) is validated against brute-force exact
//! Shapley in unit tests; here we close the triangle at the integration
//! level — KernelSHAP run against the *pipeline's* surrogate forest must
//! approximate TreeSHAP, and local accuracy must hold on real study data.

use icn_repro::prelude::*;

mod common;
use icn_shap::{forest_base_value, kernel_shap, KernelShapConfig};

fn small_study() -> (Dataset, IcnStudy) {
    let dataset = common::dataset_at(0.04);
    let study = common::study_for(&dataset);
    (dataset, study)
}

#[test]
fn treeshap_local_accuracy_on_study_data() {
    let (_, study) = small_study();
    let base = forest_base_value(&study.surrogate);
    for i in (0..study.rsca.rows()).step_by(37) {
        let x = study.rsca.row(i);
        let phi = forest_shap(&study.surrogate, x);
        let pred = study.surrogate.predict_proba(x);
        for c in 0..study.surrogate.n_classes {
            let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
            assert!(
                (total - pred[c]).abs() < 1e-9,
                "row {i} class {c}: {total} vs {}",
                pred[c]
            );
        }
    }
}

#[test]
fn treeshap_and_kernelshap_agree_on_top_features() {
    // Kernel SHAP with background imputation estimates the *interventional*
    // Shapley values while TreeSHAP (path-dependent) conditions on the
    // tree's training distribution — they differ in general but must agree
    // on the dominant features and their signs for well-separated data.
    let (_, study) = small_study();
    let class = 0usize;
    // Pick a member of class 0.
    let idx = study
        .labels
        .iter()
        .position(|&l| l == class)
        .expect("member");
    let x = study.rsca.row(idx);

    let tree_phi = forest_shap(&study.surrogate, x);
    let tree_class: Vec<f64> = tree_phi.iter().map(|p| p[class]).collect();

    let surrogate = &study.surrogate;
    let model = move |v: &[f64]| surrogate.predict_proba(v)[class];
    let (kern_phi, _) = kernel_shap(
        &model,
        x,
        &study.rsca,
        &KernelShapConfig {
            n_samples: 3000,
            max_background: 24,
            seed: 9,
        },
    );

    // Rank agreement on the top-5 TreeSHAP features.
    let top5 = icn_stats::rank::top_k(&tree_class.iter().map(|v| v.abs()).collect::<Vec<_>>(), 5);
    let mut sign_matches = 0usize;
    let mut kernel_ranks_high = 0usize;
    let kern_abs: Vec<f64> = kern_phi.iter().map(|v| v.abs()).collect();
    let kern_order = icn_stats::rank::argsort_desc(&kern_abs);
    for &f in &top5 {
        if tree_class[f].signum() == kern_phi[f].signum() || kern_phi[f].abs() < 1e-4 {
            sign_matches += 1;
        }
        let kern_rank = kern_order.iter().position(|&g| g == f).unwrap();
        if kern_rank < 20 {
            kernel_ranks_high += 1;
        }
    }
    assert!(sign_matches >= 4, "sign agreement {sign_matches}/5");
    assert!(
        kernel_ranks_high >= 3,
        "kernel ranks top TreeSHAP features highly: {kernel_ranks_high}/5"
    );
}

#[test]
fn shap_importance_correlates_with_gini_importance() {
    // Second-opinion check: services dominating SHAP for any cluster must
    // overlap with forest Gini importance.
    let (_, study) = small_study();
    let gini = icn_testkit::gini_importance(&study.surrogate);
    let gini_top: std::collections::HashSet<usize> =
        icn_stats::rank::top_k(&gini, 15).into_iter().collect();
    let mut hits = 0usize;
    let mut total = 0usize;
    for ex in &study.explanations {
        for inf in ex.top(3) {
            total += 1;
            if gini_top.contains(&inf.feature) {
                hits += 1;
            }
        }
    }
    let frac = hits as f64 / total as f64;
    assert!(frac > 0.4, "SHAP/Gini top-feature overlap {frac}");
}

#[test]
fn shap_values_are_finite_and_bounded() {
    // Probability outputs bound Shapley values to [-1, 1].
    let (_, study) = small_study();
    for i in (0..study.rsca.rows()).step_by(53) {
        let phi = forest_shap(&study.surrogate, study.rsca.row(i));
        for row in &phi {
            for &v in row {
                assert!(v.is_finite());
                assert!((-1.0..=1.0).contains(&v), "phi {v}");
            }
        }
    }
}
