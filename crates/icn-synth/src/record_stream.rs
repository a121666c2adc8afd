//! Serializes a synthetic dataset into an hourly record stream.
//!
//! [`RecordStream`] is the bridge between the batch world (the dataset's
//! totals matrix `T`) and the streaming world (`icn-ingest`): it emits one
//! [`HourlyRecord`] per (hour, antenna, service) cell of a study window,
//! hour-major. Each cell's hourly shape is its weight vector in the
//! dataset's [`WeightBook`] over the window, the model every other hourly
//! volume is read from: a record's volume is the cell's total times its
//! hour's weight over the vector's ascending-hour sum.
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
use icn_stats::Matrix;

use crate::antennas::Antenna;
use crate::calendar::StudyCalendar;
use crate::dataset::Dataset;
use crate::traffic::WeightBook;

/// A deterministic hourly record stream over a study window, emitting
/// `antennas × services` records per hour in (hour, antenna, service)
/// order.
pub struct RecordStream {
    /// The dataset's hourly weights over the window.
    book: WeightBook,
    /// Target totals (the dataset's `T` restricted to nothing — the full
    /// matrix; the window only shapes how each total is spread over hours).
    totals: Matrix,
    /// Per-cell simulated ingest fold (ascending-hour partial sums).
    folded: Matrix,
    split_seed: u64,
    hours: usize,
    pos: u64,
    end: u64,
}

/// Builds the record stream for `dataset` over `window`. The stream
/// reads every cell's hourly weights and their window sum from the
/// dataset's [`WeightBook`] over `window`, so it is fully determined by
/// `(dataset.config.seed, window)`.
pub fn record_stream(dataset: &Dataset, window: &StudyCalendar) -> RecordStream {
    let antennas: Vec<&Antenna> = dataset.antennas.iter().collect();
    let book = WeightBook::new(&antennas, &dataset.services, window, dataset.root_rng());
    let (n, m) = dataset.indoor_totals.shape();
    let hours = window.num_hours();
    RecordStream {
        book,
        totals: dataset.indoor_totals.clone(),
        folded: Matrix::zeros(n, m),
        split_seed: dataset.root_rng().fork(0xD15717_u64).next_u64(),
        hours,
        pos: 0,
        end: hours as u64 * n as u64 * m as u64,
    }
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

        let total = self.totals.get(i, j);
        let v = if total <= 0.0 {
            0.0
        } else if h + 1 == self.hours {
            exact_residual(self.folded.get(i, j), total)
        } else {
            let (w, sum) = self.book.weights(i, j);
            if sum > 0.0 {
                total * w[h] / sum
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
