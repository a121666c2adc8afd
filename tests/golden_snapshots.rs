//! Golden-snapshot regression gate for the full pipeline.
//!
//! The canonical hashes of every stage's output at the reference scale
//! live under `tests/golden/`. Any numeric change anywhere in the
//! pipeline — transform, clustering, k-selection, surrogate, SHAP,
//! environments, outdoor comparison — moves at least one stage hash and
//! fails `blessed_golden_matches_current_pipeline`. If the change is
//! intentional, re-bless with `cargo run --bin icn -- testkit --bless`
//! and commit the updated JSON; the per-stage oracle suites then explain
//! *what* changed.

use icn_repro::icn_stats::Fnv1a;
use icn_repro::icn_testkit::golden::{GOLDEN_SCALE, SAMPLED_GOLDEN_SCALE};
use icn_repro::icn_testkit::{
    compare_golden, default_golden_dir, goldens, render_golden, snapshot_pipeline,
    snapshot_pipeline_sampled, write_golden, Golden,
};
use icn_repro::prelude::*;

mod common;

/// The checked-in golden `icn testkit` lists under `label`.
fn checked_in(label: &str) -> Golden {
    goldens(&default_golden_dir(), GOLDEN_SCALE)
        .into_iter()
        .find(|g| g.label == label)
        .unwrap_or_else(|| panic!("no {label} golden listed"))
}

#[test]
fn blessed_golden_matches_current_pipeline() {
    let golden = checked_in("pipeline");
    if let Err(drift) = compare_golden(&golden.path, &golden.snapshot()) {
        panic!(
            "pipeline output drifted from tests/golden (re-bless with \
             `cargo run --bin icn -- testkit --bless` if intentional):\n  {}",
            drift.join("\n  ")
        );
    }
}

#[test]
fn blessed_sampled_golden_matches_current_pipeline() {
    // The scalable (sample-cluster-extend) stage-2 path has its own
    // golden, pinned at a scale/budget pair that forces a strict sample.
    // Drift in the sampler, the centroid extension or the refinement loop
    // fails here without disturbing the exact-path hashes above.
    let golden = checked_in("sampled-path");
    if let Err(drift) = compare_golden(&golden.path, &golden.snapshot()) {
        panic!(
            "sampled-path output drifted from tests/golden (re-bless with \
             `cargo run --bin icn -- testkit --bless` if intentional):\n  {}",
            drift.join("\n  ")
        );
    }
}

#[test]
fn blessed_forecast_golden_matches_current_pipeline() {
    // Stage 6 (the per-cluster hourly series, the model fits and the
    // detector) has its own golden; drift there fails here, not only in
    // `icn testkit`.
    let golden = checked_in("forecast");
    if let Err(drift) = compare_golden(&golden.path, &golden.snapshot()) {
        panic!(
            "forecast output drifted from tests/golden (re-bless with \
             `cargo run --bin icn -- testkit --bless` if intentional):\n  {}",
            drift.join("\n  ")
        );
    }
}

#[test]
fn sampled_snapshot_is_deterministic() {
    let a = snapshot_pipeline_sampled(SAMPLED_GOLDEN_SCALE);
    let b = snapshot_pipeline_sampled(SAMPLED_GOLDEN_SCALE);
    assert_eq!(
        a.stages, b.stages,
        "sampled path must be seed-deterministic"
    );
}

#[test]
fn snapshot_is_deterministic() {
    let a = snapshot_pipeline(GOLDEN_SCALE);
    let b = snapshot_pipeline(GOLDEN_SCALE);
    assert_eq!(a.stages, b.stages, "same scale, same hashes — always");
}

#[test]
fn bless_round_trip_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("icn-golden-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = snapshot_pipeline(GOLDEN_SCALE);
    let path = dir.join("pipeline.json");

    write_golden(&path, &snap).unwrap();
    let first = std::fs::read(&path).unwrap();
    write_golden(&path, &snap).unwrap();
    let second = std::fs::read(&path).unwrap();
    assert_eq!(first, second, "re-blessing must be byte-identical");
    assert_eq!(first, render_golden(&snap).into_bytes());

    // A freshly blessed file always passes its own check.
    assert!(compare_golden(&path, &snap).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drift_reports_name_the_stage() {
    // Corrupt one stage hash in a temp copy and check the comparator
    // pinpoints it rather than failing opaquely.
    let dir = std::env::temp_dir().join(format!("icn-golden-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut snap = snapshot_pipeline(GOLDEN_SCALE);
    let path = dir.join("pipeline.json");
    write_golden(&path, &snap).unwrap();

    let victim = snap.stages[2].0.clone();
    snap.stages[2].1 = format!("{:016x}", 0xdead_beefu64);
    let drift = compare_golden(&path, &snap).unwrap_err();
    assert!(
        drift.iter().any(|d| d.contains(&victim)),
        "drift lines {drift:?} must name stage {victim}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn surrogate_layout_and_shap_are_pinned() {
    // The stage hashes cover predictions and SHAP aggregates only; this
    // pins every fitted node of the surrogate (split, children, cover,
    // distribution, cover ratio, plus each tree's depth and unique-path
    // width) and every bit of its batched SHAP values.
    let ds = Dataset::generate(SynthConfig::paper().with_scale(0.05));
    let study = IcnStudy::run(&ds, StudyConfig::fast());
    let word = |h: &mut Fnv1a, v: u64| {
        h.write(&v.to_le_bytes());
    };
    let mut forest = Fnv1a::new();
    for tree in &study.surrogate.trees {
        for i in 0..tree.num_nodes() {
            if tree.is_leaf(i) {
                forest.write(b"L");
            } else {
                word(&mut forest, u64::from(tree.feature[i]));
                word(&mut forest, tree.threshold[i].to_bits());
                word(&mut forest, u64::from(tree.left[i]));
                word(&mut forest, u64::from(tree.right[i]));
            }
            word(&mut forest, tree.cover[i].to_bits());
            for p in tree.distribution(i) {
                word(&mut forest, p.to_bits());
            }
            word(&mut forest, tree.ratio[i].to_bits());
        }
        word(&mut forest, tree.max_depth as u64);
        word(&mut forest, tree.max_unique_path as u64);
    }
    let mut shap = Fnv1a::new();
    for class in icn_repro::icn_shap::forest_shap_batch(&study.surrogate, &study.rsca) {
        for v in class.as_slice() {
            word(&mut shap, v.to_bits());
        }
    }
    let (forest, shap) = (forest.finish(), shap.finish());
    assert_eq!(
        forest, 0x2485_b290_25d9_5940,
        "fitted forest {forest:#018x}"
    );
    assert_eq!(shap, 0xc62f_3542_2e83_1f1f, "SHAP values {shap:#018x}");
}
