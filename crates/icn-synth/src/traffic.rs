//! Traffic synthesis: the antenna × service totals matrix, the
//! per-antenna hourly series, and the hourly cube of a set of antennas.
//!
//! The generator ties the two representations together so that they remain
//! mutually consistent: each antenna first receives a two-month **total
//! volume** (log-normal, archetype-dependent) and a **service share
//! vector** (global popularity × archetype affinity × noise); the totals
//! matrix entry `T[i][j]` is `volume_i × share_ij`. The **hourly series**
//! of a service at an antenna is then `T[i][j]` spread over the calendar
//! proportionally to the archetype's temporal template weight times the
//! service modulation — so summing the hourly series over the full study
//! period returns `T[i][j]` exactly (up to floating-point rounding). The
//! **hourly cube** ([`WeightBook::fill_cube`]) is the all-service sum of
//! those series for many antennas at once, one row per antenna, bit for
//! bit the sum the per-service series give.

use crate::antennas::Antenna;
use crate::calendar::StudyCalendar;
use crate::services::{Category, Service};
use crate::temporal::{self, EventSchedule, TemplateKind};
use icn_stats::{par, Matrix, Rng};

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

/// The measurement-noise stream of one antenna-service pair.
fn noise_rng(root: &Rng, antenna: &Antenna, svc: &Service) -> Rng {
    root.fork(0x700A_0000 ^ (antenna.id as u64) << 16 ^ hash_name(svc.name))
}

/// A full-period total scaled to `window` by the window/period day ratio.
fn window_total(full_period_total_mb: f64, full_period_days: usize, window: &StudyCalendar) -> f64 {
    assert!(full_period_days > 0, "zero-length full period");
    full_period_total_mb * window.num_days() as f64 / full_period_days as f64
}

/// One antenna-service pair's hourly samples, in hour order: `total_mb`
/// spread by the weights `w` (which sum to `sum > 0`), with multiplicative
/// measurement noise truncated at zero. The one copy of the noise
/// expression: [`hourly_series`] collects the samples and the
/// [`WeightBook::fill_cube`] rows add them up, so the two agree bit for
/// bit by construction.
fn noisy_samples<'a>(
    w: &'a [f64],
    sum: f64,
    total_mb: f64,
    rng: &'a mut Rng,
) -> impl Iterator<Item = f64> + 'a {
    w.iter().map(move |&x| {
        let clean = total_mb * x / sum;
        (clean * (1.0 + HOURLY_NOISE_SIGMA * rng.gaussian())).max(0.0)
    })
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
    let mut rng = noise_rng(root, antenna, svc);
    noisy_samples(&w, sum, total_mb, &mut rng).collect()
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
    let scaled = window_total(full_period_total_mb, full_period_days, window);
    hourly_series(antenna, svc, window, scaled, root)
}

/// The modulation class of a service under one template: weight vectors
/// are identical for all services sharing `(category, is-Waze)` because
/// [`temporal::service_modulation`] inspects nothing else of the service.
type WeightClass = (Category, bool);

fn weight_class(svc: &Service) -> WeightClass {
    (svc.category, svc.name == "Waze")
}

/// Antennas per cube-fill chunk: 16 × 73 × 504 noise draws, ~10 ms of
/// work on one core, so a scale-0.5 cube splits into ~150 chunks the
/// workers steal from.
const CUBE_CHUNK_ROWS: usize = 16;

/// One distinct `(template, event schedule)` pair's hourly weights. Weight
/// classes the template does not tell apart (most of them: a template
/// modulates three or four categories) share one stored vector.
struct WeightTable {
    /// Distinct weight vectors, `vectors × hours`.
    weights: Vec<f64>,
    /// Sum of each distinct vector.
    sums: Vec<f64>,
    /// Distinct vector of each weight class.
    vector_of: Vec<usize>,
}

/// Every hourly weight vector a set of antennas needs over one window,
/// computed once per distinct `(template, event schedule)` pair and weight
/// class instead of once per antenna.
///
/// An antenna's weights depend on nothing but its archetype's
/// [`TemplateKind`] and its site's [`EventSchedule`], so antennas with
/// equal pairs (every non-venue antenna of an archetype; every antenna of
/// one venue site) share a table. The key is value equality of the pair,
/// so no archetype list is hard-coded. [`WeightBook::fill_cube`] then
/// synthesises the antennas' hourly volume from the shared tables.
pub struct WeightBook<'a> {
    antennas: &'a [&'a Antenna],
    services: &'a [Service],
    window: &'a StudyCalendar,
    root: &'a Rng,
    /// Weight class of each service.
    class_of: Vec<usize>,
    tables: Vec<WeightTable>,
    /// Table of each antenna.
    table_of: Vec<usize>,
}

impl<'a> WeightBook<'a> {
    /// Builds the book of `antennas` over `window`: each distinct
    /// `(template, schedule)` pair's weight vectors and sums, the tables
    /// computed in parallel.
    pub fn new(
        antennas: &'a [&'a Antenna],
        services: &'a [Service],
        window: &'a StudyCalendar,
        root: &'a Rng,
    ) -> Self {
        let mut classes: Vec<(WeightClass, &Service)> = Vec::new();
        let class_of = services
            .iter()
            .map(|svc| {
                let key = weight_class(svc);
                classes
                    .iter()
                    .position(|&(k, _)| k == key)
                    .unwrap_or_else(|| {
                        classes.push((key, svc));
                        classes.len() - 1
                    })
            })
            .collect();
        let mut keys: Vec<(TemplateKind, EventSchedule)> = Vec::new();
        let table_of = antennas
            .iter()
            .map(|a| {
                let kind = a.archetype.template();
                let schedule = event_schedule(a, window, root);
                keys.iter()
                    .position(|(k, s)| *k == kind && *s == schedule)
                    .unwrap_or_else(|| {
                        keys.push((kind, schedule));
                        keys.len() - 1
                    })
            })
            .collect();
        let hours = window.num_hours();
        let tables = par::map_indexed(keys.len(), |t| {
            let (kind, schedule) = &keys[t];
            let mut table = WeightTable {
                weights: Vec::new(),
                sums: Vec::new(),
                vector_of: Vec::with_capacity(classes.len()),
            };
            for &(_, svc) in &classes {
                let w = raw_weights(*kind, schedule, svc, window);
                let same = |v: &[f64]| v.iter().zip(&w).all(|(a, b)| a.to_bits() == b.to_bits());
                let v = match table.weights.chunks_exact(hours).position(same) {
                    Some(v) => v,
                    None => {
                        table.sums.push(w.iter().sum());
                        table.weights.extend(w);
                        table.sums.len() - 1
                    }
                };
                table.vector_of.push(v);
            }
            table
        });
        WeightBook {
            antennas,
            services,
            window,
            root,
            class_of,
            tables,
            table_of,
        }
    }

    /// Number of distinct `(template, schedule)` pairs, i.e. tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Gaussian draws [`WeightBook::fill_cube`] makes: one per hour of
    /// every antenna-service pair whose weights sum above zero.
    pub fn noise_draws(&self) -> u64 {
        let hours = self.window.num_hours() as u64;
        self.table_of
            .iter()
            .map(|&t| {
                let table = &self.tables[t];
                let live = |&&c: &&usize| table.sums[table.vector_of[c]] > 0.0;
                self.class_of.iter().filter(live).count() as u64 * hours
            })
            .sum()
    }

    /// The antennas' all-service hourly volume over the window, as a flat
    /// `antennas × hours` slab: row `i` is antenna `i`'s per-service
    /// series summed in catalog order, its totals row `rows[i]` scaled to
    /// the window by `tot × days ÷ full_period_days`.
    ///
    /// One parallel fill over every antenna; each row is written by
    /// exactly one chunk, with the per-service noise stream and the op
    /// order of [`hourly_series_for_window`], so every row equals the sum
    /// of that function's series bit for bit at any `ICN_THREADS`.
    pub fn fill_cube(&self, rows: &[&[f64]], full_period_days: usize) -> Vec<f64> {
        assert_eq!(rows.len(), self.antennas.len(), "fill_cube: rows/antennas");
        assert!(full_period_days > 0, "zero-length full period");
        let hours = self.window.num_hours();
        let mut cube = vec![0.0; self.antennas.len() * hours];
        par::fill_chunks(&mut cube, CUBE_CHUNK_ROWS * hours, |range, block| {
            let first = range.start / hours;
            for (r, out) in block.chunks_exact_mut(hours).enumerate() {
                self.fill_row(first + r, rows[first + r], full_period_days, out);
            }
        });
        cube
    }

    /// Adds antenna `i`'s per-service series into `out`, catalog order.
    fn fill_row(&self, i: usize, totals: &[f64], full_period_days: usize, out: &mut [f64]) {
        assert_eq!(totals.len(), self.services.len(), "row/services mismatch");
        let antenna = self.antennas[i];
        let table = &self.tables[self.table_of[i]];
        let hours = out.len();
        for ((svc, &tot), &c) in self.services.iter().zip(totals).zip(&self.class_of) {
            let v = table.vector_of[c];
            let sum = table.sums[v];
            if sum <= 0.0 {
                continue; // the per-service series would be all zeros
            }
            let w = &table.weights[v * hours..(v + 1) * hours];
            let total_mb = window_total(tot, full_period_days, self.window);
            let mut rng = noise_rng(self.root, antenna, svc);
            for (a, x) in out
                .iter_mut()
                .zip(noisy_samples(w, sum, total_mb, &mut rng))
            {
                *a += x;
            }
        }
    }
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

    /// The paper-scale population: it holds every pinned signal carrier.
    fn signal_pop() -> (Vec<Antenna>, Vec<Service>, Matrix, Rng) {
        let root = Rng::seed_from(123);
        let ants = generate_antennas(1.0, &mut root.fork(0xB0B));
        let svcs = catalog();
        let t = totals_matrix(&ants, &svcs, &root);
        (ants, svcs, t, root)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds the cube of `ants` over `cal` and checks every row against
    /// the per-service sum of [`hourly_series_for_window`], bit for bit.
    fn assert_rows_are_service_sums(
        ants: &[&Antenna],
        svcs: &[Service],
        t: &Matrix,
        cal: &StudyCalendar,
        root: &Rng,
    ) -> Vec<f64> {
        let rows: Vec<&[f64]> = ants.iter().map(|a| t.row(a.id)).collect();
        let cube = WeightBook::new(ants, svcs, cal, root).fill_cube(&rows, 65);
        let hours = cal.num_hours();
        assert_eq!(cube.len(), ants.len() * hours);
        for (i, a) in ants.iter().enumerate() {
            let mut manual = vec![0.0; hours];
            for (svc, &tot) in svcs.iter().zip(rows[i]) {
                let s = hourly_series_for_window(a, svc, tot, 65, cal, root);
                for (m, v) in manual.iter_mut().zip(s) {
                    *m += v;
                }
            }
            assert_eq!(
                bits(&cube[i * hours..(i + 1) * hours]),
                bits(&manual),
                "cube row of antenna {} ({:?})",
                a.id,
                a.archetype
            );
        }
        cube
    }

    #[test]
    fn cube_rows_are_bitwise_sums_of_service_series() {
        use crate::environments::City;
        let (ants, svcs, t, root) = signal_pop();
        let find = |arch: Archetype, city: City| {
            ants.iter()
                .find(|a| a.archetype == arch && a.city == city)
                .unwrap_or_else(|| panic!("no {arch:?} antenna in {city:?}"))
        };
        let arena = find(Archetype::ParisArena, City::Paris);
        let expo = find(Archetype::QuietVenue, City::Lyon);
        let metro = find(Archetype::ParisMetro, City::Paris);
        let members = [&ants[0], arena, expo, metro];
        let window = StudyCalendar::temporal_window();
        let strike = window.day_index(StudyCalendar::strike_day()).unwrap() * 24;
        let planted = assert_rows_are_service_sums(&members, &svcs, &t, &window, &root);
        let clean =
            assert_rows_are_service_sums(&members, &svcs, &t, &window.without_signals(), &root);
        // The rows carry the signals they pin: the NBA night (21:00), the
        // Sirha opening (12:00) and the strike (08:00) move each row away
        // from its signal-free control.
        let h = window.num_hours();
        let at = |cube: &[f64], row: usize, hour: usize| cube[row * h + strike + hour];
        assert!(at(&planted, 1, 21) > 3.0 * at(&clean, 1, 21), "NBA night");
        assert!(at(&planted, 2, 12) > 2.0 * at(&clean, 2, 12), "Sirha");
        assert!(at(&planted, 3, 8) < 0.2 * at(&clean, 3, 8), "strike");
    }

    #[test]
    fn book_shares_tables_between_equal_pairs() {
        let (ants, svcs, _, root) = signal_pop();
        let members: Vec<&Antenna> = ants.iter().collect();
        let window = StudyCalendar::temporal_window();
        let book = WeightBook::new(&members, &svcs, &window, &root);
        let mut pairs: Vec<(TemplateKind, EventSchedule)> = Vec::new();
        for a in &ants {
            let pair = (a.archetype.template(), event_schedule(a, &window, &root));
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        assert_eq!(book.num_tables(), pairs.len());
        assert!(book.num_tables() < ants.len() / 2, "tables are shared");
        let draws = ants.len() * svcs.len() * window.num_hours();
        assert_eq!(book.noise_draws(), draws as u64);
        // Without signals no schedule survives: one table per template.
        let clean = window.without_signals();
        let book = WeightBook::new(&members, &svcs, &clean, &root);
        let mut kinds: Vec<TemplateKind> = Vec::new();
        for a in &ants {
            if !kinds.contains(&a.archetype.template()) {
                kinds.push(a.archetype.template());
            }
        }
        assert_eq!(book.num_tables(), kinds.len());
    }

    #[test]
    fn cube_is_bit_identical_at_any_thread_count() {
        // `ICN_THREADS` is process-global: this is the only test in the
        // crate that sets it, and every other test reads results that are
        // thread-invariant by contract. Restored even on unwind.
        struct Restore(Option<String>);
        impl Drop for Restore {
            fn drop(&mut self) {
                match &self.0 {
                    Some(v) => std::env::set_var("ICN_THREADS", v),
                    None => std::env::remove_var("ICN_THREADS"),
                }
            }
        }
        let _restore = Restore(std::env::var("ICN_THREADS").ok());
        let (ants, svcs, t, root) = signal_pop();
        // Every 20th antenna: a sample across all environments.
        let members: Vec<&Antenna> = ants.iter().step_by(20).collect();
        let rows: Vec<&[f64]> = members.iter().map(|a| t.row(a.id)).collect();
        let window = StudyCalendar::custom(Date::new(2023, 1, 16), 7);
        let cube_at = |threads: &str| {
            std::env::set_var("ICN_THREADS", threads);
            let book = WeightBook::new(&members, &svcs, &window, &root);
            bits(&book.fill_cube(&rows, 65))
        };
        let reference = cube_at("1");
        assert!(
            members.len() > 3 * CUBE_CHUNK_ROWS,
            "several chunks per worker"
        );
        for threads in ["2", "3"] {
            assert!(
                cube_at(threads) == reference,
                "cube drifted at ICN_THREADS={threads}"
            );
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
