//! Watermark-bucketed accumulation of validated records into `T`.
//!
//! The determinism contract of the whole subsystem lives here. Records may
//! arrive chunked arbitrarily, interleaved, duplicated, or reordered within
//! a bounded lateness window, yet the final matrix must be **bit-identical**
//! to the batch construction. Float addition is not associative, so the
//! accumulator never folds in arrival order. Instead:
//!
//! 1. incoming records land in a dense *slab* per open hour: `dl` and `ul`
//!    arrays over the N×M cells, indexed `antenna × services + service`,
//!    plus a `taken` bitset — insertion order is forgotten;
//! 2. a watermark (`max_hour_seen − lateness`) seals hours that can no
//!    longer legally receive records, the moment `max_hour_seen` advances;
//! 3. sealed hours are folded in ascending hour order, cells in ascending
//!    `(antenna, service)` order — the order of the set bits.
//!
//! Every cell of `T` therefore accumulates its per-hour contributions in
//! exactly one canonical order — ascending hour — no matter how the stream
//! was chunked, threaded, or (boundedly) reordered. Duplicate and late
//! records are rejected here because only the accumulator holds the
//! sequencing state needed to detect them.
//!
//! Because sealing is eager, the open hours are always the window
//! `[max_hour_seen − lateness, max_hour_seen]`: at most `lateness + 1`
//! slabs, `16 B × N × M` each plus the bitset, whatever the feed order. A
//! sealed slab is cleared by its fold and reused for the next hour.

use std::collections::VecDeque;

use icn_stats::Matrix;

use crate::record::{HourlyRecord, IngestSchema, QuarantineReason};

/// One open hour's records, dense over the `antennas × services` cells.
/// The arrays are allocated on the hour's first record.
#[derive(Clone, Debug, Default)]
struct Slab {
    dl: Vec<f64>,
    ul: Vec<f64>,
    /// Bit `cell` is set once the hour holds a record for that cell.
    taken: Vec<u64>,
}

impl Slab {
    /// Holds `(dl, ul)` for `cell`; `false` if the cell already holds a
    /// record this hour (first arrival wins).
    fn take(&mut self, cells: usize, cell: usize, dl: f64, ul: f64) -> bool {
        if self.taken.is_empty() {
            self.dl = vec![0.0; cells];
            self.ul = vec![0.0; cells];
            self.taken = vec![0; cells.div_ceil(64)];
        }
        let (word, bit) = (cell / 64, 1u64 << (cell % 64));
        if self.taken[word] & bit != 0 {
            return false;
        }
        self.taken[word] |= bit;
        self.dl[cell] = dl;
        self.ul[cell] = ul;
        true
    }

    fn is_empty(&self) -> bool {
        self.taken.iter().all(|&w| w == 0)
    }

    /// Calls `f(cell, dl, ul)` for every held cell, ascending.
    fn for_each_cell(&self, mut f: impl FnMut(usize, f64, f64)) {
        for_each_set_bit(&self.taken, |c| f(c, self.dl[c], self.ul[c]));
    }
}

/// Calls `f` with the index of every set bit of `words`, ascending.
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Incrementally maintained `T` plus per-hour temporal accumulators.
#[derive(Clone, Debug)]
pub struct StreamAccumulator {
    schema: IngestSchema,
    lateness: u32,
    /// Committed totals (rows = antennas, cols = services).
    totals: Matrix,
    /// Committed per-hour volume (temporal accumulator).
    hourly_volume: Vec<f64>,
    /// Committed per-hour accepted-record counts.
    hourly_records: Vec<u64>,
    /// The open window: `open[i]` holds hour `committed_below() + i`,
    /// through `max_hour_seen`. Empty until a record is accepted.
    open: VecDeque<Slab>,
    /// Highest hour observed on any accepted record.
    max_hour_seen: Option<u32>,
}

/// The folded output of an accumulator: `T`, per-hour volume, per-hour
/// accepted-record counts.
#[derive(Clone, Debug, PartialEq)]
pub struct AccumulatedTotals {
    /// The antenna × service totals matrix.
    pub totals: Matrix,
    /// Total accepted volume per window hour.
    pub hourly_volume: Vec<f64>,
    /// Accepted records per window hour.
    pub hourly_records: Vec<u64>,
}

impl StreamAccumulator {
    /// Creates an empty accumulator. `lateness` is the number of hours a
    /// record may trail the newest hour seen before it is quarantined as
    /// [`QuarantineReason::LateArrival`].
    pub fn new(schema: IngestSchema, lateness: u32) -> StreamAccumulator {
        StreamAccumulator {
            schema,
            lateness,
            totals: Matrix::zeros(schema.antennas as usize, schema.services as usize),
            hourly_volume: vec![0.0; schema.hours as usize],
            hourly_records: vec![0; schema.hours as usize],
            open: VecDeque::new(),
            max_hour_seen: None,
        }
    }

    /// The schema this accumulator was built for.
    pub(crate) fn schema(&self) -> &IngestSchema {
        &self.schema
    }

    /// The configured lateness window, in hours.
    pub(crate) fn lateness(&self) -> u32 {
        self.lateness
    }

    /// Highest hour observed so far, if any record was accepted.
    pub(crate) fn max_hour_seen(&self) -> Option<u32> {
        self.max_hour_seen
    }

    /// All hours below this bound have been folded into the totals; it
    /// is the first open hour, `max_hour_seen − lateness`.
    pub(crate) fn committed_below(&self) -> u32 {
        self.max_hour_seen
            .map_or(0, |max| max.saturating_sub(self.lateness))
    }

    /// The open hours holding at least one record, ascending. Eager
    /// sealing keeps them inside `[max_hour_seen − lateness,
    /// max_hour_seen]`, so there are at most `lateness + 1`.
    pub fn open_hours(&self) -> impl Iterator<Item = u32> + '_ {
        (self.committed_below()..)
            .zip(&self.open)
            .filter(|(_, slab)| !slab.is_empty())
            .map(|(hour, _)| hour)
    }

    /// Committed totals so far (open hours not included).
    pub(crate) fn committed_totals(&self) -> &Matrix {
        &self.totals
    }

    /// Classifies and, if accepted, holds one record: the structural
    /// checks of the schema first, then the stateful ones
    /// (late arrival, duplicate key). A record that advances
    /// `max_hour_seen` first seals every hour the watermark passes.
    ///
    /// The lateness check compares against `max_hour_seen` — a property of
    /// the record *sequence*, not of chunk boundaries — so the accept /
    /// quarantine decision for every record is invariant to how the stream
    /// is chunked.
    pub fn insert(&mut self, r: &HourlyRecord) -> Result<(), QuarantineReason> {
        self.schema.validate(r)?;
        if self.max_hour_seen.is_none_or(|max| r.hour > max) {
            self.advance(r.hour);
        }
        // h + lateness < max  ⟺  h < max − lateness, the first open hour.
        let Some(i) = r.hour.checked_sub(self.committed_below()) else {
            return Err(QuarantineReason::LateArrival);
        };
        let cells = self.totals.as_slice().len();
        let cell = r.antenna as usize * self.schema.services as usize + r.service as usize;
        if self.open[i as usize].take(cells, cell, r.bytes_dl, r.bytes_ul) {
            Ok(())
        } else {
            Err(QuarantineReason::DuplicateKey)
        }
    }

    /// Folds every remaining open hour (ascending hour order) and
    /// returns the final totals. Call once the stream has ended.
    pub fn finish(mut self) -> AccumulatedTotals {
        let first = self.committed_below();
        let mut open = std::mem::take(&mut self.open);
        for (hour, slab) in (first..).zip(open.iter_mut()) {
            self.seal(hour, slab);
        }
        AccumulatedTotals {
            totals: self.totals,
            hourly_volume: self.hourly_volume,
            hourly_records: self.hourly_records,
        }
    }

    /// Moves the window up to end at `max`: the hours that fall out of it
    /// are sealed oldest first, and their slabs become the new hours'.
    fn advance(&mut self, max: u32) {
        let first = max.saturating_sub(self.lateness);
        let old_first = self.committed_below();
        let expired = (first.saturating_sub(old_first) as usize).min(self.open.len());
        for hour in old_first..old_first + expired as u32 {
            let mut slab = self.open.pop_front().expect("expired hour is open");
            self.seal(hour, &mut slab);
            self.open.push_back(slab);
        }
        self.open
            .resize_with((max - first) as usize + 1, Slab::default);
        self.max_hour_seen = Some(max);
    }

    /// Folds one hour's slab into the committed totals in ascending cell
    /// order and clears it for reuse.
    fn seal(&mut self, hour: u32, slab: &mut Slab) {
        if slab.taken.is_empty() {
            return;
        }
        let h = hour as usize;
        let totals = self.totals.as_mut_slice();
        let mut volume = self.hourly_volume[h];
        let mut records = 0u64;
        slab.for_each_cell(|cell, dl, ul| {
            let v = dl + ul;
            totals[cell] += v;
            volume += v;
            records += 1;
        });
        slab.taken.fill(0);
        self.hourly_volume[h] = volume;
        self.hourly_records[h] += records;
    }

    /// Reconstructs an accumulator from checkpoint state, with an empty
    /// open window ending at `max_hour_seen`. The caller must have checked
    /// the shapes against `schema` and that `max_hour_seen < hours`.
    pub(crate) fn from_parts(
        schema: IngestSchema,
        lateness: u32,
        totals: Matrix,
        hourly_volume: Vec<f64>,
        hourly_records: Vec<u64>,
        max_hour_seen: Option<u32>,
    ) -> StreamAccumulator {
        let mut acc = StreamAccumulator {
            totals,
            hourly_volume,
            hourly_records,
            ..StreamAccumulator::new(schema, lateness)
        };
        if let Some(max) = max_hour_seen {
            acc.advance(max);
        }
        acc
    }

    /// Re-holds one open record (checkpoint restore). `false` if the cell
    /// already holds a record that hour. The caller must have checked that
    /// `hour` is inside the open window and `cell` inside the schema.
    pub(crate) fn restore_cell(&mut self, hour: u32, cell: usize, dl: f64, ul: f64) -> bool {
        let i = (hour - self.committed_below()) as usize;
        self.open[i].take(self.totals.as_slice().len(), cell, dl, ul)
    }

    /// Calls `f(cell, dl, ul)` for every record held for open `hour`,
    /// ascending by cell (checkpoint serialization).
    pub(crate) fn for_each_open_cell(&self, hour: u32, f: impl FnMut(usize, f64, f64)) {
        self.open[(hour - self.committed_below()) as usize].for_each_cell(f);
    }

    /// Read access to the committed hourly volume (checkpoint serialization).
    pub(crate) fn hourly_volume(&self) -> &[f64] {
        &self.hourly_volume
    }

    /// Read access to the committed hourly record counts.
    pub(crate) fn hourly_records(&self) -> &[u64] {
        &self.hourly_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records held in open (unsealed) hours.
    fn open_records(acc: &StreamAccumulator) -> usize {
        let held = |slab: &Slab| {
            slab.taken
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        };
        acc.open.iter().map(held).sum()
    }

    fn schema() -> IngestSchema {
        IngestSchema {
            antennas: 4,
            services: 3,
            hours: 48,
        }
    }

    fn rec(a: u32, s: u32, h: u32, v: f64) -> HourlyRecord {
        HourlyRecord {
            antenna: a,
            service: s,
            hour: h,
            bytes_dl: v,
            bytes_ul: 0.0,
        }
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        assert!(acc.insert(&rec(0, 0, 0, 1.0)).is_ok());
        assert_eq!(
            acc.insert(&rec(0, 0, 0, 5.0)),
            Err(QuarantineReason::DuplicateKey)
        );
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0), 1.0);
        assert_eq!(out.hourly_records[0], 1);
    }

    #[test]
    fn late_arrival_is_rejected_by_watermark() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        assert!(acc.insert(&rec(0, 0, 10, 1.0)).is_ok());
        // hour 7: 7 + 2 < 10 → late.
        assert_eq!(
            acc.insert(&rec(1, 0, 7, 1.0)),
            Err(QuarantineReason::LateArrival)
        );
        // hour 8: 8 + 2 = 10, not < 10 → inside the window.
        assert!(acc.insert(&rec(1, 0, 8, 1.0)).is_ok());
    }

    #[test]
    fn structural_defects_are_classified_before_the_watermark() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        acc.insert(&rec(0, 0, 10, 1.0)).unwrap();
        // Late *and* an unknown service: the structural reason wins.
        assert_eq!(
            acc.insert(&rec(0, 3, 0, 1.0)),
            Err(QuarantineReason::UnknownService)
        );
        assert_eq!(
            acc.insert(&rec(0, 0, 48, 1.0)),
            Err(QuarantineReason::OutOfWindowHour)
        );
        assert_eq!(open_records(&acc), 1);
    }

    #[test]
    fn advancing_the_watermark_seals_at_once() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        acc.insert(&rec(0, 0, 0, 1.0)).unwrap();
        acc.insert(&rec(0, 0, 5, 2.0)).unwrap();
        // Hours < 5 − 2 = 3 are sealed: hour 0 folded, hour 5 still open.
        assert_eq!(acc.committed_below(), 3);
        assert_eq!(acc.committed_totals().get(0, 0), 1.0);
        assert_eq!(open_records(&acc), 1);
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0), 3.0);
        assert_eq!(out.hourly_volume[5], 2.0);
    }

    #[test]
    fn fold_order_is_hour_ascending_regardless_of_arrival() {
        // Magnitudes chosen so float addition order matters: the 1.0s
        // individually vanish against 1e16 but survive when added first.
        let vals = [1.0, 1e16, 1.0, 1.0];
        let arrival = [2u32, 0, 3, 1];
        let ascending: f64 = vals.iter().fold(0.0, |s, &v| s + v);
        let arrival_sum: f64 = arrival.iter().fold(0.0, |s, &h| s + vals[h as usize]);
        assert_ne!(
            ascending.to_bits(),
            arrival_sum.to_bits(),
            "test values must be order-sensitive"
        );

        let mut acc = StreamAccumulator::new(schema(), 48);
        for &h in &arrival {
            acc.insert(&rec(0, 0, h, vals[h as usize])).unwrap();
        }
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0).to_bits(), ascending.to_bits());
    }

    #[test]
    fn finish_on_empty_accumulator_is_zero() {
        let out = StreamAccumulator::new(schema(), 2).finish();
        assert_eq!(out.totals.total(), 0.0);
        assert!(out.hourly_records.iter().all(|&c| c == 0));
    }
}
