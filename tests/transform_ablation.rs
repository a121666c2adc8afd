//! Integration ablation B1: the paper's core preprocessing claim.
//!
//! Section 4.1 argues that clustering raw (or max-normalised) traffic
//! "essentially group[s] antennas according to their popularity", while
//! RSCA exposes utilisation profiles. On the synthetic campaign this is
//! testable: RSCA clustering must recover the planted archetypes far
//! better than volume-based clustering.

use icn_repro::prelude::*;

mod common;
use icn_stats::normalize;

/// Population standard deviation (divides by `n`).
fn std_dev(xs: &[f64]) -> f64 {
    let m = icn_stats::summary::mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

fn ari_of(matrix: &Matrix, planted: &[usize]) -> f64 {
    let history = agglomerate(matrix, Linkage::Ward);
    let labels = history.cut(9);
    adjusted_rand_index(&labels, planted)
}

#[test]
fn rsca_beats_raw_and_normalised_clustering() {
    let dataset = common::dataset();
    let (t_live, live_rows) = filter_dead_rows(&dataset.indoor_totals);
    let planted: Vec<usize> = live_rows
        .iter()
        .map(|&i| dataset.planted_labels()[i])
        .collect();

    let ari_rsca = ari_of(&rsca(&t_live), &planted);
    let ari_raw = ari_of(&t_live, &planted);
    let ari_norm = ari_of(&normalize::by_global_max(&t_live), &planted);
    let ari_rca = ari_of(&rca(&t_live), &planted);

    assert!(ari_rsca > 0.8, "RSCA ARI {ari_rsca}");
    assert!(
        ari_rsca > ari_raw + 0.3,
        "RSCA {ari_rsca} vs raw {ari_raw}: raw should be far worse"
    );
    // Global max normalisation is a no-op for cluster geometry (uniform
    // scaling) — same failure as raw.
    assert!(
        (ari_raw - ari_norm).abs() < 1e-9,
        "normalised {ari_norm} vs raw {ari_raw}"
    );
    // RCA already helps, but its unbounded tail hurts vs RSCA (the
    // Laursen-symmetrisation argument).
    assert!(
        ari_rsca >= ari_rca - 1e-9,
        "RSCA {ari_rsca} should not lose to RCA {ari_rca}"
    );
}

#[test]
fn raw_clustering_groups_by_volume() {
    // Confirm the failure mode: clusters on raw traffic correlate with
    // total volume, not with archetype.
    let dataset = common::dataset();
    let (t_live, _) = filter_dead_rows(&dataset.indoor_totals);
    let history = agglomerate(&t_live, Linkage::Ward);
    let labels = history.cut(9);
    let volumes = t_live.row_sums();

    // Compute within-cluster volume dispersion vs global: popularity
    // grouping means volumes within a raw cluster are far less dispersed.
    let global_sd = std_dev(&volumes);
    let mut within: Vec<f64> = Vec::new();
    for c in 0..9 {
        let vs: Vec<f64> = volumes
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == c)
            .map(|(&v, _)| v)
            .collect();
        if vs.len() > 1 {
            within.push(std_dev(&vs));
        }
    }
    let mean_within = icn_stats::summary::mean(&within);
    assert!(
        mean_within < 0.8 * global_sd,
        "raw clusters should compress volume: within {mean_within} vs global {global_sd}"
    );
}

#[test]
fn kmeans_baseline_recovers_with_rsca_features() {
    // B3: the k-means baseline also works on RSCA (the structure is real,
    // not an artefact of the agglomerative algorithm), though the paper
    // prefers hierarchy for interpretability.
    let dataset = common::dataset();
    let (t_live, live_rows) = filter_dead_rows(&dataset.indoor_totals);
    let planted: Vec<usize> = live_rows
        .iter()
        .map(|&i| dataset.planted_labels()[i])
        .collect();
    let features = rsca(&t_live);
    let mut rng = Rng::seed_from(7);
    let km = kmeans_best_of(&features, 9, 200, 8, &mut rng);
    let ari = adjusted_rand_index(&km.labels, &planted);
    assert!(ari > 0.6, "k-means ARI {ari}");
}

#[test]
fn linkage_ablation_ward_is_competitive() {
    // B2: Ward should dominate single linkage (which chains) and be at
    // least competitive with complete/average on archetype recovery.
    let dataset = common::dataset();
    let (t_live, live_rows) = filter_dead_rows(&dataset.indoor_totals);
    let planted: Vec<usize> = live_rows
        .iter()
        .map(|&i| dataset.planted_labels()[i])
        .collect();
    let features = rsca(&t_live);
    let ari_for = |linkage: Linkage| {
        let h = agglomerate(&features, linkage);
        adjusted_rand_index(&h.cut(9), &planted)
    };
    let ward = ari_for(Linkage::Ward);
    let single = ari_for(Linkage::Single);
    assert!(ward > 0.8, "ward {ward}");
    assert!(
        ward > single + 0.2,
        "ward {ward} should beat single-linkage chaining {single}"
    );
}
