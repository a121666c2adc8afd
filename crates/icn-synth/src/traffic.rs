//! Traffic synthesis: the antenna × service totals matrix and the one
//! model of hourly volume, [`WeightBook`].
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
//!
//! A [`WeightBook`] is the only code that turns an antenna and a service
//! into hourly weights, and every hourly volume is read from one: the
//! stage-6 **hourly cube** ([`WeightBook::fill_cube`], the all-service sum
//! of many antennas' series, one row per antenna), one antenna-service
//! series ([`WeightBook::fill_series`]: the Figure 11 heatmaps and the
//! probe campaign) and the per-record weights of the ingest feed
//! ([`crate::RecordStream`]).

use crate::antennas::Antenna;
use crate::archetypes::AffinityTable;
use crate::calendar::StudyCalendar;
use crate::services::{Category, Service};
use crate::temporal::{self, EventSchedule, TemplateKind};
use icn_stats::{par, Fnv1a, Matrix, Rng};

/// Per-antenna log-normal noise applied to each service share (models
/// site-to-site diversity of habits within an archetype).
const SHARE_NOISE_SIGMA: f64 = 0.35;

/// Relative measurement noise on each hourly sample.
const HOURLY_NOISE_SIGMA: f64 = 0.10;

/// Draws the service share vector of one antenna: normalised
/// `popularity × volume_scale × affinity × exp(N(0, σ))`, with `affinity`
/// the antenna archetype's row of the [`AffinityTable`].
fn service_shares(services: &[Service], affinity: &[f64], rng: &mut Rng) -> Vec<f64> {
    let mut shares: Vec<f64> = services
        .iter()
        .zip(affinity)
        .map(|(svc, &aff)| {
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
fn total_volume(antenna: &Antenna, rng: &mut Rng) -> f64 {
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
/// paper's `T` (Section 4.1). Deterministic given `root`: each row draws
/// from its own forked stream, so rows fill in parallel, bit-identical at
/// any `ICN_THREADS`.
pub(crate) fn totals_matrix(
    antennas: &[Antenna],
    services: &[Service],
    affinity: &AffinityTable,
    root: &Rng,
) -> Matrix {
    let mut t = Matrix::zeros(antennas.len(), services.len());
    fill_rows(&mut t, |i, row| {
        let a = &antennas[i];
        let mut rng = root.fork(0xA17E_0000 ^ a.id as u64);
        let vol = total_volume(a, &mut rng);
        let shares = service_shares(services, affinity.row(a.archetype), &mut rng);
        for (t, s) in row.iter_mut().zip(&shares) {
            *t = vol * s;
        }
    });
    t
}

/// Fills every row of `t` in parallel: `fill(i, row)` writes row `i`.
/// Rows go out in blocks of at least 64 (about four blocks per worker).
pub(crate) fn fill_rows(t: &mut Matrix, fill: impl Fn(usize, &mut [f64]) + Sync) {
    let m = t.cols().max(1);
    let rows_per_block = t.rows().div_ceil(4 * par::thread_count()).max(64);
    par::fill_chunks(t.as_mut_slice(), rows_per_block * m, |range, block| {
        for (k, row) in block.chunks_mut(m).enumerate() {
            fill(range.start / m + k, row);
        }
    });
}

/// Unnormalised hourly weights of one antenna-service pair over a calendar:
/// the one place the template weight and the service modulation meet.
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

/// A full-period total scaled to `window` by the window/period day ratio.
fn window_total(full_period_total_mb: f64, full_period_days: usize, window: &StudyCalendar) -> f64 {
    assert!(full_period_days > 0, "zero-length full period");
    full_period_total_mb * window.num_days() as f64 / full_period_days as f64
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

/// The hourly volume model of a set of antennas over one window: every
/// hourly weight vector they need, computed once per distinct
/// `(template, event schedule)` pair and weight class instead of once per
/// antenna, plus the per-pair measurement-noise streams.
///
/// An antenna's weights depend on nothing but its archetype's
/// [`TemplateKind`] and its site's [`EventSchedule`], so antennas with
/// equal pairs (every non-venue antenna of an archetype; every antenna of
/// one venue site) share a table. The key is value equality of the pair,
/// so no archetype list is hard-coded.
///
/// The book owns what it reads after construction (antenna ids, service
/// name hashes, the window and the root stream), so a long-lived consumer
/// can hold it; it never changes after [`WeightBook::new`].
pub struct WeightBook {
    /// Id of each antenna: with the service name, the key of a pair's
    /// noise stream.
    antenna_ids: Vec<usize>,
    /// FNV-1a hash of each service name; it decorrelates the service
    /// streams.
    name_hashes: Vec<u64>,
    window: StudyCalendar,
    root: Rng,
    /// Weight class of each service.
    class_of: Vec<usize>,
    tables: Vec<WeightTable>,
    /// Table of each antenna.
    table_of: Vec<usize>,
}

impl WeightBook {
    /// Builds the book of `antennas` and `services` over `window`: each
    /// distinct `(template, schedule)` pair's weight vectors and sums, the
    /// tables computed in parallel. Antenna `i` and service `j` of the
    /// other methods index these two slices.
    pub fn new(
        antennas: &[&Antenna],
        services: &[Service],
        window: &StudyCalendar,
        root: &Rng,
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
            antenna_ids: antennas.iter().map(|a| a.id).collect(),
            name_hashes: services
                .iter()
                .map(|svc| Fnv1a::new().write(svc.name.as_bytes()).finish())
                .collect(),
            window: window.clone(),
            root: root.clone(),
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

    /// Antenna `i`'s unnormalised hourly weights of service `j` over the
    /// window, and their ascending-hour sum: the stored vector of the
    /// service's weight class in the antenna's table.
    pub(crate) fn weights(&self, i: usize, j: usize) -> (&[f64], f64) {
        let table = &self.tables[self.table_of[i]];
        let v = table.vector_of[self.class_of[j]];
        let hours = self.window.num_hours();
        (&table.weights[v * hours..(v + 1) * hours], table.sums[v])
    }

    /// The antennas' all-service hourly volume over the window, as a flat
    /// `antennas × hours` slab: row `i` is antenna `i`'s per-service
    /// series summed in catalog order, its totals row `rows[i]` scaled to
    /// the window by `tot × days ÷ full_period_days`.
    ///
    /// One parallel fill over every antenna; each row is written by
    /// exactly one chunk and adds the samples [`WeightBook::fill_series`]
    /// writes, so every row equals the sum of the per-service series bit
    /// for bit at any `ICN_THREADS`.
    pub fn fill_cube(&self, rows: &[&[f64]], full_period_days: usize) -> Vec<f64> {
        let n = self.antenna_ids.len();
        assert_eq!(rows.len(), n, "fill_cube: rows/antennas");
        assert!(full_period_days > 0, "zero-length full period");
        let hours = self.window.num_hours();
        let mut cube = vec![0.0; n * hours];
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
        assert_eq!(
            totals.len(),
            self.name_hashes.len(),
            "row/services mismatch"
        );
        for (j, &tot) in totals.iter().enumerate() {
            // A pair whose weights sum to zero adds nothing.
            if let Some(samples) = self.samples(i, j, tot, full_period_days) {
                for (a, x) in out.iter_mut().zip(samples) {
                    *a += x;
                }
            }
        }
    }

    /// Writes antenna `i`'s hourly series (MB per hour) of service `j`
    /// into `out`, one entry per window hour: the full-period total
    /// `full_period_total_mb` scaled to the window by
    /// `tot × days ÷ full_period_days`, spread by the pair's weights, with
    /// multiplicative measurement noise truncated at zero. All zeros when
    /// the weights sum to zero. The samples are written, not added, so a
    /// zero sample keeps its sign.
    pub fn fill_series(
        &self,
        i: usize,
        j: usize,
        full_period_total_mb: f64,
        full_period_days: usize,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), self.window.num_hours(), "fill_series: hours");
        match self.samples(i, j, full_period_total_mb, full_period_days) {
            Some(samples) => {
                for (o, x) in out.iter_mut().zip(samples) {
                    *o = x;
                }
            }
            None => out.fill(0.0),
        }
    }

    /// Antenna `i`'s noisy hourly samples of service `j`, in hour order,
    /// or `None` when the pair's weights sum to zero. The one copy of the
    /// noise expression and of the per-pair noise stream (a fork of the
    /// root keyed on the antenna id and the service name hash):
    /// [`WeightBook::fill_cube`] adds the samples and
    /// [`WeightBook::fill_series`] writes them, so the two agree bit for
    /// bit by construction.
    fn samples(
        &self,
        i: usize,
        j: usize,
        full_period_total_mb: f64,
        full_period_days: usize,
    ) -> Option<impl Iterator<Item = f64> + '_> {
        let total_mb = window_total(full_period_total_mb, full_period_days, &self.window);
        let (w, sum) = self.weights(i, j);
        if sum <= 0.0 {
            return None;
        }
        let mut rng = self
            .root
            .fork(0x700A_0000 ^ (self.antenna_ids[i] as u64) << 16 ^ self.name_hashes[j]);
        Some(w.iter().map(move |&x| {
            let clean = total_mb * x / sum;
            (clean * (1.0 + HOURLY_NOISE_SIGMA * rng.gaussian())).max(0.0)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antennas::generate_antennas;
    use crate::archetypes::Archetype;
    use crate::calendar::Date;
    use crate::calendar::StudyCalendar;
    use crate::services::{catalog, index_of};
    use icn_stats::check::cases;

    fn small_pop() -> (Vec<Antenna>, Vec<Service>, Rng) {
        let mut rng = Rng::seed_from(123);
        let ants = generate_antennas(0.02, &mut rng);
        (ants, catalog(), Rng::seed_from(123))
    }

    /// One antenna-service pair's series over `cal` from a book of that
    /// pair alone, so its weights are the service's own `raw_weights`,
    /// shared with no other service.
    fn pair_series(
        a: &Antenna,
        svc: &Service,
        full_period_total_mb: f64,
        full_period_days: usize,
        cal: &StudyCalendar,
        root: &Rng,
    ) -> Vec<f64> {
        let book = WeightBook::new(&[a], std::slice::from_ref(svc), cal, root);
        let mut out = vec![f64::NAN; cal.num_hours()];
        book.fill_series(0, 0, full_period_total_mb, full_period_days, &mut out);
        out
    }

    #[test]
    fn shares_form_a_distribution() {
        let (ants, svcs, root) = small_pop();
        let mut rng = root.fork(1);
        let shares = service_shares(
            &svcs,
            AffinityTable::new(&svcs).row(ants[0].archetype),
            &mut rng,
        );
        assert_eq!(shares.len(), svcs.len());
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn totals_matrix_shape_and_positivity() {
        let (ants, svcs, root) = small_pop();
        let t = totals_matrix(&ants, &svcs, &AffinityTable::new(&svcs), &root);
        assert_eq!(t.shape(), (ants.len(), svcs.len()));
        assert!(!t.has_non_finite());
        assert!(t.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn totals_matrix_deterministic() {
        let (ants, svcs, root) = small_pop();
        let table = AffinityTable::new(&svcs);
        let a = totals_matrix(&ants, &svcs, &table, &root);
        let b = totals_matrix(&ants, &svcs, &table, &Rng::seed_from(123));
        assert_eq!(a, b);
    }

    #[test]
    fn row_sum_equals_volume_regime() {
        // Antenna totals should live in the archetype's log-normal range.
        let (ants, svcs, root) = small_pop();
        let t = totals_matrix(&ants, &svcs, &AffinityTable::new(&svcs), &root);
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
        let series = pair_series(a, spotify, 5000.0, cal.num_days(), &cal, &root);
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
        let series = pair_series(a, spotify, 10_000.0, cal.num_days(), &cal, &root);
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
        let series = pair_series(a, maps, 10_000.0, cal.num_days(), &cal, &root);
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
            let series = pair_series(a, snap, 10_000.0, cal.num_days(), &cal, &root);
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
        let series = pair_series(a, svc, 6500.0, 65, &window, &root);
        let sum: f64 = series.iter().sum();
        let expected = 6500.0 * 21.0 / 65.0;
        assert!((sum - expected).abs() / expected < 0.06, "sum {sum}");
    }

    /// The paper-scale population: it holds every pinned signal carrier.
    fn signal_pop() -> (Vec<Antenna>, Vec<Service>, Matrix, Rng) {
        let root = Rng::seed_from(123);
        let ants = generate_antennas(1.0, &mut root.fork(0xB0B));
        let svcs = catalog();
        let t = totals_matrix(&ants, &svcs, &AffinityTable::new(&svcs), &root);
        (ants, svcs, t, root)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds the cube of `ants` over `cal` and checks every row against
    /// the per-service sum of their unshared [`pair_series`], bit for bit.
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
                let s = pair_series(a, svc, tot, 65, cal, root);
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
    fn every_class_vector_is_each_services_own_raw_weights() {
        // The stage-6 cube, the Figure 11 and probe series and the ingest
        // feed all read weights through the book's class sharing, so for
        // every distinct pair each service's own `raw_weights` must be the
        // book's vector for it, bit for bit: over the paper dataset at
        // scale 0.05, the temporal window, a 3-day feed window and both
        // windows without signals.
        let ds = crate::Dataset::generate(crate::SynthConfig::paper().with_scale(0.05));
        let members: Vec<&Antenna> = ds.antennas.iter().collect();
        let temporal = StudyCalendar::temporal_window();
        let feed = StudyCalendar::custom(Date::new(2023, 1, 9), 3);
        let windows = [
            temporal.without_signals(),
            feed.without_signals(),
            temporal,
            feed,
        ];
        for window in &windows {
            let book = WeightBook::new(&members, &ds.services, window, ds.root_rng());
            let mut checked = vec![false; book.num_tables()];
            for (i, a) in members.iter().enumerate() {
                if std::mem::replace(&mut checked[book.table_of[i]], true) {
                    continue;
                }
                let schedule = event_schedule(a, window, ds.root_rng());
                for (j, svc) in ds.services.iter().enumerate() {
                    let own = raw_weights(a.archetype.template(), &schedule, svc, window);
                    let (w, sum) = book.weights(i, j);
                    assert_eq!(
                        bits(w),
                        bits(&own),
                        "{} at antenna {} over {} days",
                        svc.name,
                        a.id,
                        window.num_days()
                    );
                    assert_eq!(sum.to_bits(), own.iter().sum::<f64>().to_bits());
                }
            }
            assert!(checked.iter().all(|&c| c), "every table checked");
        }
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
        let control = cal.without_signals();
        let planted = pair_series(a, svc, 8000.0, cal.num_days(), &cal, &root);
        let clean = pair_series(a, svc, 8000.0, cal.num_days(), &control, &root);
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
        let control = cal.without_signals();
        let planted = pair_series(a, maps, 10_000.0, cal.num_days(), &cal, &root);
        let clean = pair_series(a, maps, 10_000.0, cal.num_days(), &control, &root);
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
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn shares_always_simplex() {
        cases(32, |case, rng| {
            let ants = generate_antennas(0.01, rng);
            let svcs = catalog();
            let mut rng2 = Rng::seed_from(rng.next_u64());
            let table = AffinityTable::new(&svcs);
            for a in ants.iter().take(5) {
                let s = service_shares(&svcs, table.row(a.archetype), &mut rng2);
                let sum: f64 = s.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
                assert!(s.iter().all(|&x| x > 0.0), "case {case}");
            }
        });
    }

    #[test]
    fn totals_matrix_positive_finite() {
        cases(32, |case, rng| {
            let ants = generate_antennas(0.008, rng);
            let svcs = catalog();
            let table = AffinityTable::new(&svcs);
            let t = totals_matrix(&ants, &svcs, &table, &Rng::seed_from(rng.next_u64()));
            assert!(!t.has_non_finite(), "case {case}");
            assert!(t.as_slice().iter().all(|&v| v > 0.0), "case {case}");
        });
    }

    #[test]
    fn hourly_series_nonnegative_and_integrates() {
        cases(32, |case, rng| {
            let total = rng.uniform(10.0, 10_000.0);
            let ants = generate_antennas(0.008, rng);
            let svcs = catalog();
            let cal = StudyCalendar::custom(Date::new(2023, 1, 9), 7);
            let a = &ants[rng.index(ants.len())];
            let svc = &svcs[rng.index(svcs.len())];
            let root = Rng::seed_from(rng.next_u64());
            let series = pair_series(a, svc, total, cal.num_days(), &cal, &root);
            assert_eq!(series.len(), cal.num_hours(), "case {case}");
            assert!(
                series.iter().all(|&v| v >= 0.0 && v.is_finite()),
                "case {case}"
            );
            let sum: f64 = series.iter().sum();
            assert!(
                (sum - total).abs() / total < 0.25,
                "case {case}: sum {sum} target {total}"
            );
        });
    }
}
