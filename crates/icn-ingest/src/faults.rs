//! Deterministic fault injection for record sources.
//!
//! [`FaultySource`] wraps any [`RecordSource`] and flips a configured
//! fraction of records into drops, duplicates, corruptions, and bounded
//! reorders, plus transient errors at refill boundaries. Every decision is
//! a pure function of `(fault seed, record index)` or `(fault seed, block
//! index)` — *not* of the consumer's chunk size — so the same seed produces
//! the same faults whether the pipeline pulls 1 record or 4096 at a time.
//! That property is what lets the fault-matrix tests assert **exact**
//! quarantine counts instead of statistical bounds.
//!
//! Fault semantics:
//!
//! * **drop** — the record is silently discarded (data loss; the affected
//!   cell is recorded so tests can exclude it from bitwise comparison).
//! * **duplicate** — the record is emitted twice back-to-back; the second
//!   copy must be quarantined as `duplicate_key` downstream.
//! * **corrupt** — exactly one field is damaged, cycling through the five
//!   structural defect classes; each corrupted record must be quarantined
//!   under exactly one reason, and its original contribution is lost.
//! * **reorder** — a whole block of ~`reorder_block` consecutive records is
//!   shuffled. The block is far smaller than one hour of records, so the
//!   displacement stays inside the accumulator's lateness window and a
//!   reorder-only stream must produce a bit-identical `T`.
//! * **transient** — a refill boundary raises a retryable source error
//!   before any record is pulled, so no data is lost; the pipeline's retry
//!   counter must equal the injected error count exactly.

use std::collections::{BTreeSet, VecDeque};

use icn_stats::rng::mix64;
use icn_stats::Rng;

use crate::record::{HourlyRecord, RecordSource, SourceError};

/// Domain-separation tags for the per-purpose RNG streams.
const TAG_RECORD: u64 = 0x1c4e_57f0_0000_0001;
const TAG_BLOCK: u64 = 0x1c4e_57f0_0000_0002;
const TAG_TRANSIENT: u64 = 0x1c4e_57f0_0000_0003;

/// Fault rates and seed. All rates are probabilities in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Probability a record is dropped.
    pub drop: f64,
    /// Probability a record is duplicated.
    pub duplicate: f64,
    /// Probability a block of records is shuffled.
    pub reorder: f64,
    /// Probability a record is corrupted.
    pub corrupt: f64,
    /// Probability a refill boundary raises a transient error.
    pub transient: f64,
    /// Size of the reorder/shuffle block, in records. Must stay well below
    /// the number of records per stream hour for reorders to remain inside
    /// the lateness window.
    pub reorder_block: usize,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0xFA_017,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            transient: 0.0,
            reorder_block: 256,
        }
    }
}

impl FaultConfig {
    /// Parses a CLI spec like `drop=0.01,dup=0.1,reorder=0.2,corrupt=0.05,transient=0.1`.
    /// Unknown keys and out-of-range rates are errors. An empty spec means
    /// no faults.
    pub fn parse_spec(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault rate `{value}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate `{value}` outside [0, 1]"));
            }
            match key.trim() {
                "drop" => cfg.drop = rate,
                "dup" | "duplicate" => cfg.duplicate = rate,
                "reorder" => cfg.reorder = rate,
                "corrupt" => cfg.corrupt = rate,
                "transient" => cfg.transient = rate,
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// Exact accounting of every injected fault.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Records silently discarded.
    pub dropped: u64,
    /// Records emitted twice (count of extra copies).
    pub duplicated: u64,
    /// Records with one field damaged.
    pub corrupted: u64,
    /// Blocks shuffled.
    pub reordered_blocks: u64,
    /// Transient errors raised at refill boundaries.
    pub transient_errors: u64,
    /// Cells `(antenna, service)` that lost at least one record to a drop
    /// or corruption — the only cells whose totals may legitimately differ
    /// from the clean run.
    pub affected_cells: BTreeSet<(u32, u32)>,
}

/// A [`RecordSource`] adapter injecting deterministic faults.
pub struct FaultySource<S> {
    inner: S,
    cfg: FaultConfig,
    buf: VecDeque<HourlyRecord>,
    /// Index of the next record pulled from the inner source.
    inner_index: u64,
    /// Index of the next block to emit (drives reorder decisions).
    blocks_emitted: u64,
    /// Index of the next *successful* refill (drives transient decisions).
    refills: u64,
    /// Consecutive transient errors already raised for the pending refill.
    transient_attempts: u64,
    inner_done: bool,
    report: FaultReport,
}

impl<S: RecordSource> FaultySource<S> {
    /// Wraps `inner` with the given fault configuration.
    pub fn new(inner: S, cfg: FaultConfig) -> FaultySource<S> {
        FaultySource {
            inner,
            cfg,
            buf: VecDeque::new(),
            inner_index: 0,
            blocks_emitted: 0,
            refills: 0,
            transient_attempts: 0,
            inner_done: false,
            report: FaultReport::default(),
        }
    }

    /// What has been injected so far.
    pub fn report(&self) -> &FaultReport {
        &self.report
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Damages exactly one field, cycling through the five structural
    /// defect classes. Each variant trips exactly one validation check
    /// (validation runs non-finite → negative → antenna → service → hour),
    /// so corrupted records map 1:1 onto quarantine reasons.
    fn corrupt_record(r: &mut HourlyRecord, rng: &mut Rng) {
        match rng.index(5) {
            0 => r.service += 1_000_000,
            1 => r.antenna += 1_000_000,
            2 => r.hour = r.hour.saturating_add(1_000_000),
            3 => r.bytes_dl = -r.bytes_dl - 1.0,
            _ => r.bytes_ul = f64::NAN,
        }
    }

    /// Pulls one block from the inner source, applies per-record faults,
    /// optionally shuffles it, and appends it to the buffer.
    fn refill(&mut self) -> Result<(), SourceError> {
        // Transient injection happens before any record is pulled, so a
        // retry resumes with zero data loss. Decision is a function of
        // (seed, refill index, attempt); at rate 1.0 every attempt fails
        // and the pipeline's retry budget is exhausted deterministically.
        if self.cfg.transient > 0.0 {
            let mut trng = Rng::seed_from(mix64(
                self.cfg.seed ^ TAG_TRANSIENT,
                mix64(self.refills, self.transient_attempts),
            ));
            if trng.chance(self.cfg.transient) {
                self.transient_attempts += 1;
                self.report.transient_errors += 1;
                return Err(SourceError::Transient(format!(
                    "injected fault at refill {} (attempt {})",
                    self.refills, self.transient_attempts
                )));
            }
        }
        self.transient_attempts = 0;
        self.refills += 1;

        let target = self.cfg.reorder_block.max(1);
        let mut block: Vec<HourlyRecord> = Vec::with_capacity(target + target / 4 + 4);
        while block.len() < target && !self.inner_done {
            let batch = self.inner.next_chunk(target - block.len())?;
            if batch.is_empty() {
                self.inner_done = true;
                break;
            }
            for r in batch {
                let idx = self.inner_index;
                self.inner_index += 1;
                let mut rng = Rng::seed_from(mix64(self.cfg.seed ^ TAG_RECORD, idx));
                if rng.chance(self.cfg.drop) {
                    self.report.dropped += 1;
                    self.report.affected_cells.insert((r.antenna, r.service));
                    continue;
                }
                if rng.chance(self.cfg.corrupt) {
                    let mut bad = r;
                    Self::corrupt_record(&mut bad, &mut rng);
                    self.report.corrupted += 1;
                    self.report.affected_cells.insert((r.antenna, r.service));
                    block.push(bad);
                    continue;
                }
                if rng.chance(self.cfg.duplicate) {
                    self.report.duplicated += 1;
                    block.push(r);
                }
                block.push(r);
            }
        }

        if !block.is_empty() {
            let mut brng = Rng::seed_from(mix64(self.cfg.seed ^ TAG_BLOCK, self.blocks_emitted));
            if brng.chance(self.cfg.reorder) {
                brng.shuffle(&mut block);
                self.report.reordered_blocks += 1;
            }
            self.blocks_emitted += 1;
        }
        self.buf.extend(block);
        Ok(())
    }
}

impl<S: RecordSource> RecordSource for FaultySource<S> {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
        while self.buf.is_empty() && !self.inner_done {
            self.refill()?;
        }
        let take = max.min(self.buf.len());
        Ok(self.buf.drain(..take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VecSource;

    fn records(n: u32) -> Vec<HourlyRecord> {
        (0..n)
            .map(|i| HourlyRecord {
                antenna: i % 7,
                service: i % 5,
                hour: i / 35,
                bytes_dl: f64::from(i) + 0.5,
                bytes_ul: 0.25,
            })
            .collect()
    }

    fn bits(records: &[HourlyRecord]) -> Vec<(u32, u32, u32, u64, u64)> {
        records
            .iter()
            .map(|r| {
                (
                    r.antenna,
                    r.service,
                    r.hour,
                    r.bytes_dl.to_bits(),
                    r.bytes_ul.to_bits(),
                )
            })
            .collect()
    }

    fn drain<S: RecordSource>(src: &mut S, chunk: usize) -> Vec<HourlyRecord> {
        let mut out = Vec::new();
        loop {
            let batch = src.next_chunk(chunk).unwrap();
            if batch.is_empty() {
                return out;
            }
            out.extend(batch);
        }
    }

    #[test]
    fn noop_config_is_transparent() {
        let recs = records(1000);
        let mut src = FaultySource::new(VecSource::new(recs.clone()), FaultConfig::default());
        assert_eq!(drain(&mut src, 97), recs);
        assert_eq!(src.report(), &FaultReport::default());
    }

    #[test]
    fn fault_stream_is_chunk_size_invariant() {
        let cfg = FaultConfig {
            seed: 42,
            drop: 0.05,
            duplicate: 0.05,
            reorder: 0.5,
            corrupt: 0.05,
            reorder_block: 64,
            ..FaultConfig::default()
        };
        let recs = records(2000);
        let mut a = FaultySource::new(VecSource::new(recs.clone()), cfg);
        let mut b = FaultySource::new(VecSource::new(recs), cfg);
        let out_a = drain(&mut a, 1);
        let out_b = drain(&mut b, 512);
        // Compare bit patterns: corrupted records carry NaN, and NaN != NaN
        // under PartialEq even though the streams are byte-identical.
        assert_eq!(bits(&out_a), bits(&out_b));
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn counts_are_exact_and_deterministic() {
        let cfg = FaultConfig {
            seed: 7,
            drop: 0.1,
            duplicate: 0.1,
            corrupt: 0.1,
            ..FaultConfig::default()
        };
        let recs = records(5000);
        let n = recs.len() as u64;
        let mut src = FaultySource::new(VecSource::new(recs), cfg);
        let out = drain(&mut src, 256);
        let rep = src.report().clone();
        assert!(rep.dropped > 0 && rep.duplicated > 0 && rep.corrupted > 0);
        assert_eq!(
            out.len() as u64,
            n - rep.dropped + rep.duplicated,
            "emitted = originals − drops + extra copies"
        );
    }

    #[test]
    fn transient_rate_one_always_errors() {
        let cfg = FaultConfig {
            transient: 1.0,
            ..FaultConfig::default()
        };
        let mut src = FaultySource::new(VecSource::new(records(10)), cfg);
        for _ in 0..5 {
            assert!(matches!(src.next_chunk(4), Err(SourceError::Transient(_))));
        }
        assert_eq!(src.report().transient_errors, 5);
    }

    #[test]
    fn transient_errors_lose_no_records() {
        let cfg = FaultConfig {
            seed: 3,
            transient: 0.5,
            ..FaultConfig::default()
        };
        let recs = records(3000);
        let mut src = FaultySource::new(VecSource::new(recs.clone()), cfg);
        let mut out = Vec::new();
        loop {
            match src.next_chunk(128) {
                Ok(batch) if batch.is_empty() => break,
                Ok(batch) => out.extend(batch),
                Err(SourceError::Transient(_)) => continue,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(out, recs);
        assert!(src.report().transient_errors > 0);
    }

    #[test]
    fn parse_spec_round_trip() {
        let cfg = FaultConfig::parse_spec("drop=0.01, dup=0.2,corrupt=0.05").unwrap();
        assert_eq!(cfg.drop, 0.01);
        assert_eq!(cfg.duplicate, 0.2);
        assert_eq!(cfg.corrupt, 0.05);
        assert_eq!(cfg.reorder, 0.0);
        assert!(FaultConfig::parse_spec("bogus=0.1").is_err());
        assert!(FaultConfig::parse_spec("drop=1.5").is_err());
        assert!(FaultConfig::parse_spec("drop").is_err());
        assert_eq!(FaultConfig::parse_spec("").unwrap(), FaultConfig::default());
    }
}
