//! Serializes a synthetic dataset into an hourly record stream.
//!
//! [`RecordStream`] is the bridge between the batch world (the dataset's
//! totals matrix `T`) and the streaming world (`icn-ingest`): it emits one
//! [`HourlyRecord`] per (hour, antenna, service) cell of a study window,
//! hour-major, shaped by the same temporal templates the generator uses for
//! hourly series.
//!
//! ## The exactness contract
//!
//! The headline invariant of the ingest subsystem is that streaming the
//! full synthetic stream reproduces `T` **bit-identically**. Floating-point
//! addition is not associative, so "the per-hour values sum to the total"
//! cannot be left to chance: for each cell the stream *simulates the exact
//! fold the ingest accumulator will perform* (adding each hour's volume in
//! ascending hour order) and then chooses the final hour's volume `d` such
//! that `fold ⊕ d == total` in f64 arithmetic, where `⊕` is f64 addition.
//! The candidate `d = total − fold` is off by at most an ulp (and exact by
//! Sterbenz's lemma once the fold has reached half the total), so a short
//! nudge search over neighbouring bit patterns always lands the identity.
//!
//! The downlink/uplink split is exact by the same lemma: `dl = fl(f·v)`
//! with `f ∈ [0.5, 0.95)` lies in `[v/2, v]`, hence `ul = v − dl` is
//! computed exactly and `dl + ul` rounds back to `v` bit-for-bit.
//!
//! Because record values depend on this running fold, skipping records on
//! resume must *replay* generation — [`RecordSource::skip_records`]'s
//! pull-and-discard default does exactly that, and `RecordStream`
//! deliberately does not override it with a seek.

use icn_ingest::{
    FaultConfig, FaultySource, HourlyRecord, IngestSchema, RecordSource, SourceError,
};
use icn_stats::rng::mix64;
use icn_stats::{par, Matrix};

use crate::calendar::{Date, StudyCalendar};
use crate::dataset::Dataset;
use crate::services::Service;
use crate::temporal::{service_modulation, template_weight, EventSchedule, TemplateKind};
use crate::traffic::event_schedule;

/// A deterministic hourly record stream over a study window, emitting
/// `antennas × services` records per hour in (hour, antenna, service)
/// order.
pub struct RecordStream {
    services: Vec<Service>,
    kinds: Vec<TemplateKind>,
    schedules: Vec<EventSchedule>,
    window: StudyCalendar,
    /// Target totals (the dataset's `T` restricted to nothing — the full
    /// matrix; the window only shapes how each total is spread over hours).
    totals: Matrix,
    /// Per-cell sum of hourly weights over the window.
    weight_sum: Matrix,
    /// Per-cell simulated ingest fold (ascending-hour partial sums).
    folded: Matrix,
    split_seed: u64,
    hours: usize,
    pos: u64,
    end: u64,
    cached_cell: Option<(usize, usize)>,
    cached_tw: f64,
    cached_date: Date,
}

/// Builds the record stream for `dataset` over `window`. The stream
/// re-derives each antenna's event schedule from the dataset's root RNG,
/// so it is fully determined by `(dataset.config.seed, window)`.
pub fn record_stream(dataset: &Dataset, window: &StudyCalendar) -> RecordStream {
    let n = dataset.num_antennas();
    let m = dataset.num_services();
    let hours = window.num_hours();
    let kinds: Vec<TemplateKind> = dataset
        .antennas
        .iter()
        .map(|a| a.archetype.template())
        .collect();
    let schedules: Vec<EventSchedule> = dataset
        .antennas
        .iter()
        .map(|a| event_schedule(a, window, dataset.root_rng()))
        .collect();
    let days: Vec<(usize, Date)> = window.iter_days().collect();
    let services = dataset.services.clone();

    // Per-cell weight integral W[i][j] = Σ_h tw(i,h) · sm(i,j,h). Computed
    // per antenna in ascending hour order — sequentially within a row, so
    // the value is identical at any thread count.
    let rows: Vec<Vec<f64>> = par::map_indexed(n, |i| {
        let kind = kinds[i];
        let sched = &schedules[i];
        let mut wsum = vec![0.0; m];
        for &(di, date) in &days {
            for hod in 0..24 {
                let tw = template_weight(kind, sched, window, date, di, hod);
                for (j, svc) in services.iter().enumerate() {
                    wsum[j] += tw * service_modulation(kind, sched, svc, date, di, hod);
                }
            }
        }
        wsum
    });
    let mut weight_sum = Matrix::zeros(n, m);
    for (i, row) in rows.iter().enumerate() {
        for (j, &w) in row.iter().enumerate() {
            weight_sum.set(i, j, w);
        }
    }

    let mut seed_rng = dataset.root_rng().fork(0xD15717_u64);
    let split_seed = seed_rng.next_u64();

    RecordStream {
        services,
        kinds,
        schedules,
        window: window.clone(),
        totals: dataset.indoor_totals.clone(),
        weight_sum,
        folded: Matrix::zeros(n, m),
        split_seed,
        hours,
        pos: 0,
        end: hours as u64 * n as u64 * m as u64,
        cached_cell: None,
        cached_tw: 0.0,
        cached_date: window.start(),
    }
}

/// Adversarial mode: the same stream wrapped in a deterministic fault
/// injector.
pub fn adversarial_record_stream(
    dataset: &Dataset,
    window: &StudyCalendar,
    faults: FaultConfig,
) -> FaultySource<RecordStream> {
    FaultySource::new(record_stream(dataset, window), faults)
}

impl RecordStream {
    /// The ingest schema this stream conforms to.
    pub fn schema(&self) -> IngestSchema {
        IngestSchema {
            antennas: self.totals.rows() as u32,
            services: self.totals.cols() as u32,
            hours: self.hours as u32,
        }
    }

    /// Total records a full drain emits.
    pub fn total_records(&self) -> u64 {
        self.end
    }

    /// Records already emitted.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Wraps this stream in a fault injector.
    pub fn with_faults(self, faults: FaultConfig) -> FaultySource<RecordStream> {
        FaultySource::new(self, faults)
    }

    fn emit_one(&mut self) -> HourlyRecord {
        let n = self.totals.rows() as u64;
        let m = self.totals.cols() as u64;
        let h = (self.pos / (n * m)) as usize;
        let rest = self.pos % (n * m);
        let i = (rest / m) as usize;
        let j = (rest % m) as usize;
        self.pos += 1;

        let (day, hod) = (h / 24, h % 24);
        if self.cached_cell != Some((h, i)) {
            self.cached_date = self.window.date(day);
            self.cached_tw = template_weight(
                self.kinds[i],
                &self.schedules[i],
                &self.window,
                self.cached_date,
                day,
                hod,
            );
            self.cached_cell = Some((h, i));
        }

        let total = self.totals.get(i, j);
        let v = if total <= 0.0 {
            0.0
        } else if h + 1 == self.hours {
            exact_residual(self.folded.get(i, j), total)
        } else {
            let w = self.cached_tw
                * service_modulation(
                    self.kinds[i],
                    &self.schedules[i],
                    &self.services[j],
                    self.cached_date,
                    day,
                    hod,
                );
            let ws = self.weight_sum.get(i, j);
            if ws > 0.0 {
                total * w / ws
            } else {
                0.0
            }
        };
        // Simulate the ingest fold: the accumulator will add per-hour
        // volumes in this exact (ascending hour) order.
        self.folded.set(i, j, self.folded.get(i, j) + v);

        let (dl, ul) = split_volume(v, self.split_seed, i, j, h);
        HourlyRecord {
            antenna: i as u32,
            service: j as u32,
            hour: h as u32,
            bytes_dl: dl,
            bytes_ul: ul,
        }
    }
}

impl RecordSource for RecordStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
        let remaining = (self.end - self.pos) as usize;
        let take = max.min(remaining);
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            out.push(self.emit_one());
        }
        Ok(out)
    }
}

/// Splits `v` into `(dl, ul)` such that `dl + ul` rounds back to `v`
/// bit-exactly: `dl = fl(f·v)` with a deterministic `f ∈ [0.5, 0.95)`
/// keeps `dl ∈ [v/2, v]`, so `ul = v − dl` is exact by Sterbenz's lemma.
fn split_volume(v: f64, seed: u64, antenna: usize, service: usize, hour: usize) -> (f64, f64) {
    if v <= 0.0 {
        return (0.0, 0.0);
    }
    let cell_tag = ((antenna as u64) << 40) ^ ((service as u64) << 20) ^ hour as u64;
    let u = (mix64(seed, cell_tag) >> 11) as f64 / 9_007_199_254_740_992.0; // 2^53
    let f = 0.5 + 0.45 * u;
    let dl = f * v;
    let ul = v - dl;
    (dl, ul)
}

/// Finds `d ≥ 0` with `fl(s + d) == total` exactly. The candidate
/// `total − s` is within an ulp (and exact once `s ≥ total/2`); nudging
/// through adjacent bit patterns closes the gap in a handful of steps.
fn exact_residual(s: f64, total: f64) -> f64 {
    if s == total {
        return 0.0;
    }
    let mut d = total - s;
    assert!(
        d.is_finite() && d > 0.0,
        "record stream overshoot: fold {s} vs total {total}"
    );
    for _ in 0..128 {
        let f = s + d;
        if f == total {
            return d;
        }
        d = if f < total {
            f64::from_bits(d.to_bits() + 1)
        } else {
            f64::from_bits(d.to_bits() - 1)
        };
        assert!(
            d > 0.0,
            "residual search left (0, ∞) for fold {s}, total {total}"
        );
    }
    panic!("no exact residual for fold {s}, total {total}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_residual_closes_the_fold() {
        for (s, total) in [
            (0.75, 1.0),
            (1.0 / 3.0, 0.5),
            (0.1 + 0.2, 0.4),
            (1e15, 1e15 + 3.0),
            (0.0, 42.0),
            (7.25, 7.25),
        ] {
            let d = exact_residual(s, total);
            assert!(d >= 0.0);
            assert_eq!((s + d).to_bits(), total.to_bits(), "s={s} total={total}");
        }
    }

    #[test]
    fn split_volume_round_trips_bitwise() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for k in 0..1000usize {
            let v =
                f64::from_bits((icn_stats::rng::splitmix64(&mut state) >> 12) | (1023u64 << 52))
                    - 1.0; // uniform in [0, 1)
            let v = v * 1e7;
            let (dl, ul) = split_volume(v, 0xABCD, k % 17, k % 5, k % 72);
            assert!(dl >= 0.0 && ul >= 0.0, "negative split for v={v}");
            assert_eq!((dl + ul).to_bits(), v.to_bits(), "v={v}");
        }
        assert_eq!(split_volume(0.0, 1, 0, 0, 0), (0.0, 0.0));
    }
}
