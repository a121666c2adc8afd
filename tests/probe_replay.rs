//! Probe-plane determinism and aggregate consistency (Section 3's
//! collection path).
//!
//! Replay: a seeded campaign is a pure function of (dataset, window,
//! config) — rerunning it must reproduce every output bit-for-bit, and
//! changing only the seed must not. Consistency: the ULI grouping stage
//! is a partition of the session stream, so no byte may be lost or
//! double-counted between the raw records and the per-antenna cubes.

use icn_repro::icn_probe::{
    antenna_for_uli, run_campaign, sessions_for_cell_hour, uli_for_antenna, CampaignConfig,
    CampaignResult, DpiConfig, DpiLabel, HourlyCube,
};
use icn_repro::prelude::*;

mod common;

#[test]
fn campaign_replays_bit_identically_under_same_seed() {
    let ds = common::dataset_at(0.02);
    let window = common::probe_window(2);
    let a = run_campaign(&ds, &window, &CampaignConfig::default());
    let b = run_campaign(&ds, &window, &CampaignConfig::default());
    assert_eq!(a.totals.as_slice(), b.totals.as_slice(), "totals drifted");
    assert_eq!(a.sessions, b.sessions);
    assert_eq!(a.dropped_bad_uli, b.dropped_bad_uli);
    assert_eq!(a.dropped_unclassified, b.dropped_unclassified);
    assert_eq!(a.suppressed_cells, b.suppressed_cells);
}

/// FNV-1a over everything a campaign reports: the totals' bit patterns,
/// row-major, then the session, drop and suppression counts.
fn campaign_hash(r: &CampaignResult) -> u64 {
    let mut h = icn_repro::icn_stats::Fnv1a::new();
    for v in r.totals.as_slice() {
        h.write(&v.to_bits().to_le_bytes());
    }
    for count in [
        r.sessions,
        r.dropped_bad_uli,
        r.dropped_unclassified,
        r.suppressed_cells,
    ] {
        h.write(&(count as u64).to_le_bytes());
    }
    h.finish()
}

#[test]
fn campaign_output_is_pinned() {
    // The campaign reads each (antenna, service) hourly volume from the
    // synthetic weight model; any drift in that model, the session
    // synthesis or the classifier moves this hash.
    let ds = common::dataset_at(0.02);
    let window = common::probe_window(2);
    let hash = campaign_hash(&run_campaign(&ds, &window, &CampaignConfig::default()));
    assert_eq!(hash, 0xda4d_de80_8448_f5ac, "{hash:#018x}");
}

#[test]
fn campaign_depends_on_its_seed() {
    let ds = common::dataset_at(0.02);
    let window = common::probe_window(2);
    let a = run_campaign(&ds, &window, &CampaignConfig::default());
    let b = run_campaign(
        &ds,
        &window,
        &CampaignConfig {
            seed: 0xDEAD_BEEF,
            ..CampaignConfig::default()
        },
    );
    assert_ne!(
        a.totals.as_slice(),
        b.totals.as_slice(),
        "different probe seeds must synthesise different session streams"
    );
}

#[test]
fn uli_round_trips_for_every_antenna() {
    // The numbering plan spans several tracking areas at full scale; the
    // grouping key must invert exactly for every antenna id.
    let n = 600;
    for a in 0..n {
        let uli = uli_for_antenna(a);
        assert_eq!(
            antenna_for_uli(uli, n),
            Some(a),
            "antenna {a} lost in ULI round-trip (tac={}, eci={:#x})",
            uli.tac,
            uli.eci
        );
    }
}

#[test]
fn aggregation_preserves_bytes_across_uli_grouping() {
    // Synthesise raw session records for a handful of cells, route each to
    // the cube of the antenna its ULI resolves to, and check the books
    // balance: total MB in equals total MB out, per antenna.
    let ds = common::dataset_at(0.02);
    let n_antennas = ds.num_antennas();
    let n_services = ds.services.len();
    let mut rng = Rng::seed_from(42);
    let mut cubes: Vec<HourlyCube> = (0..n_antennas)
        .map(|a| HourlyCube::new(a, n_antennas, n_services, 24))
        .collect();

    let mut expected_mb = vec![0.0f64; n_antennas];
    let mut expected_records = 0usize;
    for a in 0..n_antennas.min(12) {
        for (s, service) in ds.services.iter().enumerate().take(6) {
            let volume = rng.uniform(5.0, 200.0);
            let records = sessions_for_cell_hour(a, s, service, a % 24, volume, &mut rng);
            for r in &records {
                expected_mb[a] += r.bytes_total() as f64 / 1e6;
                let owner = antenna_for_uli(r.uli, n_antennas).expect("planned ULIs resolve");
                cubes[owner].ingest(r, DpiLabel::Service(r.service));
            }
            expected_records += records.len();
        }
    }
    assert!(expected_records > 0);
    assert!(
        cubes.iter().all(|c| c.dropped_bad_uli == 0),
        "all planned ULIs must resolve"
    );

    for (a, cube) in cubes.iter().enumerate() {
        let got: f64 = cube.totals_row().iter().sum();
        assert!(
            (got - expected_mb[a]).abs() < 1e-6 * (1.0 + expected_mb[a]),
            "antenna {a}: cube has {got} MB, records carried {}",
            expected_mb[a]
        );
    }
}

#[test]
fn campaign_totals_conserve_volume_against_ground_truth() {
    // With a perfect classifier and no suppression, the probe plane only
    // re-bins ground-truth traffic: the window's grand total must match
    // the generator's, up to the documented session-rounding tolerance.
    let ds = common::dataset_at(0.02);
    let window = common::probe_window(2);
    let result = run_campaign(
        &ds,
        &window,
        &CampaignConfig {
            dpi: DpiConfig::perfect(),
            ..CampaignConfig::default()
        },
    );
    assert_eq!(result.dropped_bad_uli, 0);
    assert_eq!(result.dropped_unclassified, 0);
    let scale = window.num_days() as f64 / ds.calendar.num_days() as f64;
    let truth = ds.indoor_totals.total() * scale;
    let probed = result.totals.total();
    assert!(
        (probed - truth).abs() / truth < 0.15,
        "grand total {probed} MB vs ground truth {truth} MB"
    );
}
