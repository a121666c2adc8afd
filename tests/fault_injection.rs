//! Integration: robustness against measurement-feed faults.
//!
//! Real probes drop antennas and DPI classifiers confuse services. The
//! pipeline must (a) guard against degenerate inputs loudly, (b) survive
//! dead antennas via filtering, and (c) degrade gracefully — not
//! catastrophically — under classifier noise.

use icn_repro::prelude::*;

mod common;
use icn_testkit::noise;

#[test]
fn dead_antennas_are_filtered_not_crashed() {
    let dataset = common::dataset_at(0.05);
    let mut t = dataset.indoor_totals.clone();
    let mut rng = Rng::seed_from(3);
    let killed = noise::kill_rows(&mut t, 0.1, &mut rng);
    assert!(!killed.is_empty());

    let (live, live_rows) = filter_dead_rows(&t);
    assert_eq!(live.rows() + killed.len(), t.rows());
    for k in &killed {
        assert!(!live_rows.contains(k));
    }
    // RCA on the filtered matrix is clean.
    let r = rsca(&live);
    assert!(!r.has_non_finite());
}

#[test]
fn nan_poisoning_is_detected_before_clustering() {
    let dataset = common::dataset_at(0.05);
    let mut t = dataset.indoor_totals.clone();
    let mut rng = Rng::seed_from(5);
    noise::poison_nan(&mut t, 4, &mut rng);
    assert!(t.has_non_finite());
    // The clustering substrate refuses non-finite features loudly.
    let result = std::panic::catch_unwind(|| {
        let _ = agglomerate(&t, Linkage::Ward);
    });
    assert!(result.is_err(), "agglomerate must reject NaN input");
}

#[test]
fn misclassification_noise_degrades_gracefully() {
    let dataset = common::dataset();
    let planted_all = dataset.planted_labels();

    let ari_with_noise = |fraction: f64| -> f64 {
        let mut t = dataset.indoor_totals.clone();
        let mut rng = Rng::seed_from(11);
        noise::misclassify(&mut t, fraction, &mut rng);
        let (live, live_rows) = filter_dead_rows(&t);
        let features = rsca(&live);
        let labels = agglomerate(&features, Linkage::Ward).cut(9);
        let planted: Vec<usize> = live_rows.iter().map(|&i| planted_all[i]).collect();
        adjusted_rand_index(&labels, &planted)
    };

    let clean = ari_with_noise(0.0);
    let mild = ari_with_noise(0.1);
    let heavy = ari_with_noise(0.6);
    assert!(clean > 0.8, "clean {clean}");
    // 10% uniform DPI confusion is aggressive for low-volume services (a
    // texting app receiving 10% of Netflix's bytes is hugely inflated in
    // RSCA terms); the structure must survive recognisably, not perfectly.
    assert!(mild > 0.35, "mild noise ARI {mild}");
    assert!(mild > 3.0 * heavy.max(0.05), "mild {mild} vs heavy {heavy}");
    // Heavy confusion pushes towards uniform shares -> structure fades,
    // and the degradation is monotone-ish.
    assert!(heavy < mild + 0.05, "heavy {heavy} vs mild {mild}");
}

#[test]
fn multiplicative_noise_tolerated() {
    let dataset = common::dataset();
    let mut t = dataset.indoor_totals.clone();
    let mut rng = Rng::seed_from(13);
    noise::multiplicative_noise(&mut t, 0.3, &mut rng);
    let (live, live_rows) = filter_dead_rows(&t);
    let features = rsca(&live);
    let labels = agglomerate(&features, Linkage::Ward).cut(9);
    let planted: Vec<usize> = live_rows
        .iter()
        .map(|&i| dataset.planted_labels()[i])
        .collect();
    let ari = adjusted_rand_index(&labels, &planted);
    assert!(ari > 0.55, "ARI under 30% lognormal noise: {ari}");
}

#[test]
fn surrogate_robust_to_unseen_noisy_antennas() {
    // Train the surrogate on the clean study, then classify noisy copies
    // of the same antennas — predictions should mostly stick.
    let dataset = common::dataset_at(0.05);
    let study = common::study_for(&dataset);
    let mut t = dataset.indoor_totals.select_rows(&study.live_rows);
    let mut rng = Rng::seed_from(17);
    noise::multiplicative_noise(&mut t, 0.2, &mut rng);
    let noisy_features = rsca(&t);
    let noisy_pred = study.surrogate.predict_batch(&noisy_features);
    let stable = noisy_pred
        .iter()
        .zip(&study.labels)
        .filter(|(a, b)| a == b)
        .count() as f64
        / study.labels.len() as f64;
    assert!(stable > 0.7, "prediction stability under noise: {stable}");
}
