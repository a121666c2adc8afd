//! Traffic synthesis: the antenna × service totals matrix and the
//! per-antenna hourly series.
//!
//! The generator ties the two representations together so that they remain
//! mutually consistent: each antenna first receives a two-month **total
//! volume** (log-normal, archetype-dependent) and a **service share
//! vector** (global popularity × archetype affinity × noise); the totals
//! matrix entry `T[i][j]` is `volume_i × share_ij`. The **hourly series**
//! of a service at an antenna is then `T[i][j]` spread over the calendar
//! proportionally to the archetype's temporal template weight times the
//! service modulation — so summing the hourly series over the full study
//! period returns `T[i][j]` exactly (up to floating-point rounding).

use crate::antennas::Antenna;
use crate::calendar::StudyCalendar;
use crate::services::{Category, Service};
use crate::temporal::{self, EventSchedule, TemplateKind};
use icn_stats::{Matrix, Rng};

/// Per-antenna log-normal noise applied to each service share (models
/// site-to-site diversity of habits within an archetype).
const SHARE_NOISE_SIGMA: f64 = 0.35;

/// Relative measurement noise on each hourly sample.
const HOURLY_NOISE_SIGMA: f64 = 0.10;

/// Draws the service share vector of one antenna: normalised
/// `popularity × volume_scale × affinity × exp(N(0, σ))`.
pub fn service_shares(antenna: &Antenna, services: &[Service], rng: &mut Rng) -> Vec<f64> {
    let mut shares: Vec<f64> = services
        .iter()
        .map(|svc| {
            let aff = antenna.archetype.service_affinity(svc);
            let noise = rng.lognormal(0.0, SHARE_NOISE_SIGMA);
            svc.popularity * svc.volume_scale * aff * noise
        })
        .collect();
    let total: f64 = shares.iter().sum();
    debug_assert!(total > 0.0);
    for s in &mut shares {
        *s /= total;
    }
    shares
}

/// Draws the two-month total volume (MB) of one antenna.
pub fn total_volume(antenna: &Antenna, rng: &mut Rng) -> f64 {
    let (mu, sigma) = antenna.archetype.volume_lognormal();
    rng.lognormal(mu, sigma)
}

/// The per-site event schedule for a venue antenna (empty otherwise, and
/// empty on a calendar [`StudyCalendar::without_signals`]).
///
/// Deterministic per site: all antennas of a site share the same events.
/// Paris arenas pin the NBA night of 19 Jan 2023; Lyon expo sites pin the
/// 4-day Sirha fair (Section 6).
pub fn event_schedule(antenna: &Antenna, cal: &StudyCalendar, root: &Rng) -> EventSchedule {
    use crate::archetypes::Archetype;
    use crate::environments::City;
    if !cal.has_signals() {
        return EventSchedule::none();
    }
    let mut site_rng = root.fork(0x5EED_0000 ^ antenna.site_id as u64);
    match antenna.archetype {
        Archetype::ProvincialStadium => EventSchedule::stadium(&mut site_rng, cal, false),
        Archetype::ParisArena => {
            EventSchedule::stadium(&mut site_rng, cal, antenna.city == City::Paris)
        }
        Archetype::QuietVenue => {
            EventSchedule::expo(&mut site_rng, cal, antenna.city == City::Lyon)
        }
        _ => EventSchedule::none(),
    }
}

/// Builds the `N × M` totals matrix for a population of antennas — the
/// paper's `T` (Section 4.1). Deterministic given `root`.
pub fn totals_matrix(antennas: &[Antenna], services: &[Service], root: &Rng) -> Matrix {
    let mut t = Matrix::zeros(antennas.len(), services.len());
    for (i, a) in antennas.iter().enumerate() {
        let mut rng = root.fork(0xA17E_0000 ^ a.id as u64);
        let vol = total_volume(a, &mut rng);
        let shares = service_shares(a, services, &mut rng);
        for (j, s) in shares.iter().enumerate() {
            t.set(i, j, vol * s);
        }
    }
    t
}

/// Unnormalised hourly weights of one antenna-service pair over a calendar.
fn raw_weights(
    kind: TemplateKind,
    schedule: &EventSchedule,
    svc: &Service,
    cal: &StudyCalendar,
) -> Vec<f64> {
    let mut w = Vec::with_capacity(cal.num_hours());
    for (di, date) in cal.iter_days() {
        for hour in 0..24 {
            let base = temporal::template_weight(kind, schedule, cal, date, di, hour);
            let m = temporal::service_modulation(kind, schedule, svc, date, di, hour);
            w.push(base * m);
        }
    }
    w
}

/// Hourly traffic series (MB per hour) of service `svc` at `antenna` over
/// `cal`, integrating to `total_mb` before measurement noise.
///
/// `total_mb` should be the totals-matrix entry scaled to the window (the
/// caller decides; [`hourly_series_for_window`] does the standard scaling).
pub fn hourly_series(
    antenna: &Antenna,
    svc: &Service,
    cal: &StudyCalendar,
    total_mb: f64,
    root: &Rng,
) -> Vec<f64> {
    let schedule = event_schedule(antenna, cal, root);
    let w = raw_weights(antenna.archetype.template(), &schedule, svc, cal);
    let sum: f64 = w.iter().sum();
    if sum <= 0.0 {
        return vec![0.0; w.len()];
    }
    let mut rng = root.fork(0x700A_0000 ^ (antenna.id as u64) << 16 ^ hash_name(svc.name));
    w.into_iter()
        .map(|x| {
            let clean = total_mb * x / sum;
            // Multiplicative measurement noise, truncated at zero.
            (clean * (1.0 + HOURLY_NOISE_SIGMA * rng.gaussian())).max(0.0)
        })
        .collect()
}

/// Hourly series over an analysis window, scaling the full-period total by
/// the window/period day ratio (the convention used by the Figure 10–11
/// harnesses: they analyse the 21-day January window of a 65-day study).
pub fn hourly_series_for_window(
    antenna: &Antenna,
    svc: &Service,
    full_period_total_mb: f64,
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> Vec<f64> {
    assert!(full_period_days > 0, "zero-length full period");
    let scaled = full_period_total_mb * window.num_days() as f64 / full_period_days as f64;
    hourly_series(antenna, svc, window, scaled, root)
}

/// The modulation class of a service under one template: weight vectors
/// are identical for all services sharing `(category, is-Waze)` because
/// [`temporal::service_modulation`] inspects nothing else of the service.
type WeightClass = (Category, bool);

/// Aggregate (all-service) hourly series of one antenna over `window`,
/// given its totals row: the sum of its per-service series. The per-hour
/// cluster median of these is the series `icn-forecast` forecasts and the
/// Figure 10 heatmaps plot.
///
/// Computes each weight class's hourly weight vector and normaliser
/// **once** instead of once per service, and the (service-independent)
/// event schedule once per antenna. Bit-identical to summing
/// [`hourly_series_for_window`] per service: the scaled total keeps the
/// original `tot × days ÷ period` op order, the per-service
/// measurement-noise stream is the same fork, and services accumulate
/// into the output in catalog order with the same per-hour additions.
pub fn aggregate_hourly_series(
    antenna: &Antenna,
    services: &[Service],
    totals_row: &[f64],
    full_period_days: usize,
    window: &StudyCalendar,
    root: &Rng,
) -> Vec<f64> {
    assert_eq!(services.len(), totals_row.len(), "row/services mismatch");
    assert!(full_period_days > 0, "zero-length full period");
    let kind = antenna.archetype.template();
    let schedule = event_schedule(antenna, window, root);
    let mut agg = vec![0.0; window.num_hours()];
    let mut classes: Vec<(WeightClass, Vec<f64>, f64)> = Vec::new();
    for (svc, &tot) in services.iter().zip(totals_row) {
        let key: WeightClass = (svc.category, svc.name == "Waze");
        let ci = match classes.iter().position(|(k, _, _)| *k == key) {
            Some(i) => i,
            None => {
                let w = raw_weights(kind, &schedule, svc, window);
                let sum: f64 = w.iter().sum();
                classes.push((key, w, sum));
                classes.len() - 1
            }
        };
        let (_, w, sum) = &classes[ci];
        if *sum <= 0.0 {
            continue; // the per-service series would be all zeros
        }
        let total_mb = tot * window.num_days() as f64 / full_period_days as f64;
        let mut rng = root.fork(0x700A_0000 ^ (antenna.id as u64) << 16 ^ hash_name(svc.name));
        for (a, &x) in agg.iter_mut().zip(w) {
            let clean = total_mb * x / *sum;
            *a += (clean * (1.0 + HOURLY_NOISE_SIGMA * rng.gaussian())).max(0.0);
        }
    }
    agg
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable, cheap, good enough to decorrelate service streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antennas::generate_antennas;
    use crate::archetypes::Archetype;
    use crate::calendar::Date;
    use crate::services::{catalog, index_of};

    fn small_pop() -> (Vec<Antenna>, Vec<Service>, Rng) {
        let mut rng = Rng::seed_from(123);
        let ants = generate_antennas(0.02, &mut rng);
        (ants, catalog(), Rng::seed_from(123))
    }

    #[test]
    fn shares_form_a_distribution() {
        let (ants, svcs, root) = small_pop();
        let mut rng = root.fork(1);
        let shares = service_shares(&ants[0], &svcs, &mut rng);
        assert_eq!(shares.len(), svcs.len());
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn totals_matrix_shape_and_positivity() {
        let (ants, svcs, root) = small_pop();
        let t = totals_matrix(&ants, &svcs, &root);
        assert_eq!(t.shape(), (ants.len(), svcs.len()));
        assert!(!t.has_non_finite());
        assert!(t.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn totals_matrix_deterministic() {
        let (ants, svcs, root) = small_pop();
        let a = totals_matrix(&ants, &svcs, &root);
        let b = totals_matrix(&ants, &svcs, &Rng::seed_from(123));
        assert_eq!(a, b);
    }

    #[test]
    fn row_sum_equals_volume_regime() {
        // Antenna totals should live in the archetype's log-normal range.
        let (ants, svcs, root) = small_pop();
        let t = totals_matrix(&ants, &svcs, &root);
        for (i, a) in ants.iter().enumerate().take(50) {
            let (mu, sigma) = a.archetype.volume_lognormal();
            let log_total = t.row_sums()[i].ln();
            assert!(
                (log_total - mu).abs() < 6.0 * sigma,
                "antenna {i}: log total {log_total} vs mu {mu}"
            );
        }
    }

    #[test]
    fn hourly_series_integrates_to_total() {
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        // Pick a commuter antenna (deterministic template, no events).
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisMetro)
            .expect("some metro antenna");
        let spotify = &svcs[index_of(&svcs, "Spotify").unwrap()];
        let series = hourly_series(a, spotify, &cal, 5000.0, &root);
        assert_eq!(series.len(), cal.num_hours());
        let sum: f64 = series.iter().sum();
        // Multiplicative zero-mean noise keeps the integral near the target.
        assert!((sum - 5000.0).abs() / 5000.0 < 0.05, "sum {sum}");
        assert!(series.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn commuter_series_peaks_at_commute_hours() {
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisMetro)
            .unwrap();
        let spotify = &svcs[index_of(&svcs, "Spotify").unwrap()];
        let series = hourly_series(a, spotify, &cal, 10_000.0, &root);
        // Monday 9 Jan: index of 08:00 vs 13:00.
        let day = cal.day_index(Date::new(2023, 1, 9)).unwrap();
        let am = series[day * 24 + 8];
        let noon = series[day * 24 + 13];
        assert!(am > 1.5 * noon, "am {am} noon {noon}");
    }

    #[test]
    fn strike_day_collapse_for_paris_metro() {
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisMetro)
            .unwrap();
        let maps = &svcs[index_of(&svcs, "Google Maps").unwrap()];
        let series = hourly_series(a, maps, &cal, 10_000.0, &root);
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        let mon = cal.day_index(Date::new(2023, 1, 9)).unwrap();
        assert!(series[strike * 24 + 8] < 0.2 * series[mon * 24 + 8]);
    }

    #[test]
    fn paris_arena_bursts_on_nba_night() {
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        if let Some(a) = ants.iter().find(|a| {
            a.archetype == Archetype::ParisArena && a.city == crate::environments::City::Paris
        }) {
            let snap = &svcs[index_of(&svcs, "Snapchat").unwrap()];
            let series = hourly_series(a, snap, &cal, 10_000.0, &root);
            let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
            let peak = series[strike * 24 + 21];
            let quiet_day = cal.day_index(Date::new(2023, 1, 10)).unwrap();
            let quiet = series[quiet_day * 24 + 10];
            assert!(peak > 3.0 * (quiet + 1e-9), "peak {peak} quiet {quiet}");
        }
    }

    #[test]
    fn window_scaling_is_proportional() {
        let (ants, svcs, root) = small_pop();
        let window = StudyCalendar::temporal_window();
        let a = &ants[0];
        let svc = &svcs[0];
        let series = hourly_series_for_window(a, svc, 6500.0, 65, &window, &root);
        let sum: f64 = series.iter().sum();
        let expected = 6500.0 * 21.0 / 65.0;
        assert!((sum - expected).abs() / expected < 0.06, "sum {sum}");
    }

    #[test]
    fn aggregate_series_is_sum_of_parts() {
        let (ants, svcs, root) = small_pop();
        let window = StudyCalendar::custom(Date::new(2023, 1, 9), 2);
        let arena = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisArena)
            .unwrap_or(&ants[0]);
        let row: Vec<f64> = (0..svcs.len()).map(|j| 100.0 + j as f64).collect();
        for a in [&ants[0], arena] {
            for cal in [window.clone(), window.without_signals()] {
                let agg = aggregate_hourly_series(a, &svcs, &row, 65, &cal, &root);
                let mut manual = vec![0.0; cal.num_hours()];
                for (svc, &tot) in svcs.iter().zip(&row) {
                    let s = hourly_series_for_window(a, svc, tot, 65, &cal, &root);
                    for (m, v) in manual.iter_mut().zip(s) {
                        *m += v;
                    }
                }
                // The class-cached aggregate path must be *bit-identical*
                // to the per-service sum, not merely close.
                assert_eq!(agg, manual);
            }
        }
    }

    #[test]
    fn signal_free_matches_planted_for_signal_less_archetype() {
        // BroadDiurnal antennas carry no strike factor, no events, and the
        // temporal window holds no holiday: the signal-free re-synthesis
        // must be bit-identical to the planted series.
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::GeneralUse)
            .unwrap();
        let svc = &svcs[0];
        let planted = hourly_series(a, svc, &cal, 8000.0, &root);
        let clean = hourly_series(a, svc, &cal.without_signals(), 8000.0, &root);
        assert_eq!(planted, clean);
    }

    #[test]
    fn signal_free_removes_strike_dip() {
        let (ants, svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        let a = ants
            .iter()
            .find(|a| a.archetype == Archetype::ParisMetro)
            .unwrap();
        let maps = &svcs[index_of(&svcs, "Google Maps").unwrap()];
        let planted = hourly_series(a, maps, &cal, 10_000.0, &root);
        let clean = hourly_series(a, maps, &cal.without_signals(), 10_000.0, &root);
        let strike = cal.day_index(StudyCalendar::strike_day()).unwrap();
        assert!(planted[strike * 24 + 8] < 0.2 * clean[strike * 24 + 8]);
    }

    #[test]
    fn event_schedule_is_site_deterministic() {
        let (ants, _svcs, root) = small_pop();
        let cal = StudyCalendar::temporal_window();
        for a in ants
            .iter()
            .filter(|a| a.archetype == Archetype::ParisArena)
            .take(3)
        {
            let s1 = event_schedule(a, &cal, &root);
            let s2 = event_schedule(a, &cal, &root);
            assert_eq!(s1.events(), s2.events());
        }
    }
}
