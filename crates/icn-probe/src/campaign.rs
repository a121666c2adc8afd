//! End-to-end measurement campaign through the probe plane.
//!
//! Orchestrates the full Section 3 collection path over a synthetic
//! population: for every antenna, service and hour of an observation
//! window, read the hourly ground-truth volume from `icn-synth`'s weight
//! model (`traffic::WeightBook`), explode it into IP sessions, run each
//! session through the ULI resolver and the DPI classifier, aggregate the
//! surviving records hourly in the antenna's own cube, and fold that cube
//! into the antenna's row of the totals matrix. The result is a totals
//! matrix produced the way the operator actually produced theirs — and
//! tests verify it agrees with the direct generator up to classifier noise.

use crate::aggregate::HourlyCube;
use crate::dpi::{DpiClassifier, DpiConfig};
use crate::flows::sessions_for_cell_hour;
use icn_stats::{par, Matrix, Rng};
use icn_synth::traffic::WeightBook;
use icn_synth::{Antenna, Dataset, StudyCalendar};

/// Outcome of a probe-plane campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The aggregated antenna × service totals (MB) over the window.
    pub totals: Matrix,
    /// Total sessions observed.
    pub sessions: usize,
    /// Records dropped for unresolvable ULIs.
    pub dropped_bad_uli: usize,
    /// Records dropped as unclassified.
    pub dropped_unclassified: usize,
    /// Cells zeroed by k-suppression.
    pub suppressed_cells: usize,
}

/// Campaign options.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// DPI error model.
    pub dpi: DpiConfig,
    /// k-suppression threshold (0 disables suppression).
    pub min_sessions_per_cell: u32,
    /// RNG seed for the probe plane (independent of the dataset seed).
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            dpi: DpiConfig::default(),
            min_sessions_per_cell: 0,
            seed: 0x9B_0B_E5,
        }
    }
}

/// Runs the probe-plane campaign over `window` for every indoor antenna of
/// `dataset`, producing the aggregated totals matrix the analysis pipeline
/// would consume. Deterministic in `config.seed`.
///
/// The per-antenna work (session synthesis, classification, aggregation,
/// suppression and the hourly fold) runs in parallel; each antenna owns a
/// forked RNG stream, so results do not depend on the thread schedule.
/// Every session's ULI resolves to the antenna it was drawn for, so a
/// worker holds only that antenna's service × hour cube and drops it once
/// it is folded into the antenna's totals row.
pub fn run_campaign(
    dataset: &Dataset,
    window: &StudyCalendar,
    config: &CampaignConfig,
) -> CampaignResult {
    let _span = icn_obs::Span::enter("probe_campaign");
    let n_antennas = dataset.num_antennas();
    let n_services = dataset.num_services();
    let n_hours = window.num_hours();
    let root = Rng::seed_from(config.seed);
    let full_days = dataset.calendar.num_days();
    let antennas: Vec<&Antenna> = dataset.antennas.iter().collect();
    let book = WeightBook::new(&antennas, &dataset.services, window, dataset.root_rng());

    struct AntennaFold {
        row: Vec<f64>,
        sessions: usize,
        dropped_bad_uli: usize,
        dropped_unclassified: usize,
        suppressed_cells: usize,
    }
    let folds: Vec<AntennaFold> = par::map_indexed(n_antennas, |a| {
        let mut rng = root.fork(a as u64);
        let dpi = DpiClassifier::new(&dataset.services, config.dpi);
        let mut cube = HourlyCube::new(a, n_antennas, n_services, n_hours);
        let mut series = vec![0.0; n_hours];
        for (s, svc) in dataset.services.iter().enumerate() {
            let total = dataset.indoor_totals.get(a, s);
            book.fill_series(a, s, total, full_days, &mut series);
            for (hour, &mb) in series.iter().enumerate() {
                if mb <= 0.0 {
                    continue;
                }
                for record in sessions_for_cell_hour(a, s, svc, hour, mb, &mut rng) {
                    let label = dpi.classify(record.service, &mut rng);
                    cube.ingest(&record, label);
                }
            }
        }
        let sessions = cube.session_count();
        let suppressed_cells = if config.min_sessions_per_cell > 1 {
            cube.suppress_below(config.min_sessions_per_cell)
        } else {
            0
        };
        AntennaFold {
            row: cube.totals_row(),
            sessions,
            dropped_bad_uli: cube.dropped_bad_uli,
            dropped_unclassified: cube.dropped_unclassified,
            suppressed_cells,
        }
    });

    let mut result = CampaignResult {
        totals: Matrix::zeros(n_antennas, n_services),
        sessions: 0,
        dropped_bad_uli: 0,
        dropped_unclassified: 0,
        suppressed_cells: 0,
    };
    for (a, fold) in folds.into_iter().enumerate() {
        result.totals.row_mut(a).copy_from_slice(&fold.row);
        result.sessions += fold.sessions;
        result.dropped_bad_uli += fold.dropped_bad_uli;
        result.dropped_unclassified += fold.dropped_unclassified;
        result.suppressed_cells += fold.suppressed_cells;
    }

    let obs = icn_obs::global();
    if obs.is_enabled() {
        obs.add_counter("probe.antennas", n_antennas as u64);
        obs.add_counter("probe.sessions", result.sessions as u64);
        obs.add_counter("probe.dropped_bad_uli", result.dropped_bad_uli as u64);
        obs.add_counter(
            "probe.dropped_unclassified",
            result.dropped_unclassified as u64,
        );
        obs.add_counter("probe.suppressed_cells", result.suppressed_cells as u64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_synth::{Date, SynthConfig};

    fn tiny_setup() -> (Dataset, StudyCalendar) {
        let ds = Dataset::generate(SynthConfig::small().with_scale(0.01));
        // Two days keeps the session volume manageable in tests.
        let window = StudyCalendar::custom(Date::new(2023, 1, 9), 2);
        (ds, window)
    }

    #[test]
    fn perfect_probe_conserves_volume() {
        let (ds, window) = tiny_setup();
        let cfg = CampaignConfig {
            dpi: DpiConfig::perfect(),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&ds, &window, &cfg);
        // Expected: the window-scaled fraction of the two-month totals.
        let scale = window.num_days() as f64 / ds.calendar.num_days() as f64;
        let expected = ds.indoor_totals.total() * scale;
        let got = result.totals.total();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "probe total {got} vs expected {expected}"
        );
        assert_eq!(result.dropped_bad_uli, 0);
        assert_eq!(result.dropped_unclassified, 0);
        assert!(result.sessions > 100);
    }

    #[test]
    fn perfect_probe_matches_per_cell() {
        let (ds, window) = tiny_setup();
        let cfg = CampaignConfig {
            dpi: DpiConfig::perfect(),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&ds, &window, &cfg);
        let scale = window.num_days() as f64 / ds.calendar.num_days() as f64;
        // Spot-check a handful of big cells: the probe path reproduces the
        // expected window share of each antenna-service total.
        let mut checked = 0;
        for a in 0..ds.num_antennas() {
            for s in 0..ds.num_services() {
                let expected = ds.indoor_totals.get(a, s) * scale;
                if expected < 500.0 {
                    continue; // small cells carry more relative noise
                }
                let got = result.totals.get(a, s);
                assert!(
                    (got - expected).abs() / expected < 0.25,
                    "cell ({a},{s}): {got} vs {expected}"
                );
                checked += 1;
            }
        }
        assert!(checked > 3, "too few large cells checked ({checked})");
    }

    #[test]
    fn dpi_noise_preserves_totals_but_moves_services() {
        let (ds, window) = tiny_setup();
        let noisy = run_campaign(
            &ds,
            &window,
            &CampaignConfig {
                dpi: DpiConfig {
                    confusion_rate: 0.3,
                    within_category: 0.5,
                    unclassified_rate: 0.0,
                },
                ..CampaignConfig::default()
            },
        );
        let clean = run_campaign(
            &ds,
            &window,
            &CampaignConfig {
                dpi: DpiConfig::perfect(),
                ..CampaignConfig::default()
            },
        );
        // Per-antenna totals survive confusion (bytes only change label)...
        for a in 0..ds.num_antennas() {
            let tn: f64 = noisy.totals.row(a).iter().sum();
            let tc: f64 = clean.totals.row(a).iter().sum();
            assert!((tn - tc).abs() / tc.max(1.0) < 0.05, "antenna {a}");
        }
        // ...but the per-service breakdown changes.
        let mut moved = 0.0;
        for a in 0..ds.num_antennas() {
            for s in 0..ds.num_services() {
                moved += (noisy.totals.get(a, s) - clean.totals.get(a, s)).abs();
            }
        }
        assert!(moved > 0.01 * clean.totals.total(), "moved {moved}");
    }

    #[test]
    fn unclassified_drops_volume() {
        let (ds, window) = tiny_setup();
        let result = run_campaign(
            &ds,
            &window,
            &CampaignConfig {
                dpi: DpiConfig {
                    confusion_rate: 0.0,
                    within_category: 1.0,
                    unclassified_rate: 0.2,
                },
                ..CampaignConfig::default()
            },
        );
        assert!(result.dropped_unclassified > 0);
        let scale = window.num_days() as f64 / ds.calendar.num_days() as f64;
        let expected_full = ds.indoor_totals.total() * scale;
        let got = result.totals.total();
        let kept = got / expected_full;
        assert!(
            (kept - 0.8).abs() < 0.05,
            "kept fraction {kept} (expected ~0.8)"
        );
    }

    #[test]
    fn suppression_reduces_total() {
        let (ds, window) = tiny_setup();
        let base = run_campaign(&ds, &window, &CampaignConfig::default());
        let suppressed = run_campaign(
            &ds,
            &window,
            &CampaignConfig {
                min_sessions_per_cell: 5,
                ..CampaignConfig::default()
            },
        );
        assert!(suppressed.suppressed_cells > 0);
        assert!(suppressed.totals.total() < base.totals.total());
    }

    #[test]
    fn campaign_is_deterministic() {
        let (ds, window) = tiny_setup();
        let a = run_campaign(&ds, &window, &CampaignConfig::default());
        let b = run_campaign(&ds, &window, &CampaignConfig::default());
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.sessions, b.sessions);
    }
}
