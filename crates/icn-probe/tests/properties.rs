//! Property-based tests for the measurement-plane substrate, driven by
//! the deterministic [`icn_stats::check`] harness.

use icn_probe::{antenna_for_uli, sessions_for_cell_hour, uli_for_antenna};
use icn_stats::check::cases;
use icn_synth::services::catalog;

#[test]
fn uli_round_trip() {
    cases(64, |case, rng| {
        let id = rng.index(100_000);
        let uli = uli_for_antenna(id);
        assert_eq!(antenna_for_uli(uli, 200_000), Some(id), "case {case}");
    });
}

#[test]
fn uli_rejects_foreign_population() {
    cases(64, |case, rng| {
        let id = 5_000 + rng.index(95_000);
        let uli = uli_for_antenna(id);
        assert_eq!(antenna_for_uli(uli, 4_762), None, "case {case}");
    });
}

#[test]
fn session_bytes_conserved() {
    cases(64, |case, rng| {
        let svc_idx = rng.index(73);
        let volume = rng.uniform(0.1, 5_000.0);
        let services = catalog();
        let recs = sessions_for_cell_hour(7, svc_idx, &services[svc_idx], 3, volume, rng);
        assert!(!recs.is_empty(), "case {case}");
        let total_mb: f64 = recs.iter().map(|r| r.bytes_total() as f64 / 1e6).sum();
        // Byte rounding across n sessions loses at most ~n bytes.
        assert!(
            (total_mb - volume).abs() < 0.01 + recs.len() as f64 * 1e-6,
            "case {case}: total {total_mb} vs {volume}"
        );
        for r in &recs {
            assert_eq!(r.hour, 3, "case {case}");
            assert!(r.bytes_total() > 0, "case {case}");
        }
    });
}
