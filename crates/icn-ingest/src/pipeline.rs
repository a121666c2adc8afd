//! The chunked ingest pipeline: pull → retry → classify → checkpoint.
//!
//! Each step pulls one chunk from the source (with bounded retry on
//! transient errors), then hands the records **in order**, one pass and
//! no allocation per record, to the accumulator, which runs the structural
//! checks, the stateful duplicate/late checks, and seals hours as its
//! watermark advances. Because accept/quarantine decisions depend only on
//! the record sequence — never on chunk boundaries or thread count — the
//! final totals are bit-identical for any `chunk_size` and any
//! `ICN_THREADS`.

use std::fmt;

use icn_obs::Span;

use crate::accumulator::{AccumulatedTotals, StreamAccumulator};
use crate::checkpoint::Checkpoint;
use crate::record::{HourlyRecord, IngestSchema, QuarantineReason, RecordSource, SourceError};

/// Tuning knobs of the ingest driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IngestConfig {
    /// Records pulled per source request.
    pub chunk_size: usize,
    /// Hours a record may trail the newest hour seen before it is
    /// quarantined as late.
    pub lateness_hours: u32,
    /// Transient-error retries before the run aborts. Retries are
    /// immediate.
    pub max_retries: u32,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            chunk_size: 4096,
            lateness_hours: 2,
            max_retries: 8,
        }
    }
}

/// Ingest accounting: accepted, quarantined (per reason), retried, chunks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestStats {
    /// Records accepted into the accumulator.
    pub ok: u64,
    /// Quarantined records per reason, indexed like
    /// [`QuarantineReason::ALL`] (`reason as usize`).
    pub quarantined: [u64; QuarantineReason::ALL.len()],
    /// Retries performed after transient source errors.
    pub retried: u64,
    /// Chunks processed.
    pub chunks: u64,
}

impl IngestStats {
    /// Total quarantined records across all reasons.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.iter().sum()
    }

    /// Count for one reason (zero if none).
    pub fn quarantined_for(&self, reason: QuarantineReason) -> u64 {
        self.quarantined[reason as usize]
    }

    /// The reasons with a non-zero count, in label order, with their
    /// counts: the order checkpoints and reports list them in.
    pub fn quarantine_counts(&self) -> impl Iterator<Item = (QuarantineReason, u64)> + '_ {
        let mut by_label = QuarantineReason::ALL;
        by_label.sort_unstable_by_key(|r| r.label());
        by_label
            .into_iter()
            .map(|r| (r, self.quarantined_for(r)))
            .filter(|&(_, n)| n > 0)
    }
}

/// A failed ingest run.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// The source raised an unrecoverable error.
    Fatal(String),
    /// Transient errors persisted past the retry budget.
    RetriesExhausted {
        /// Attempts made (= `max_retries` + 1).
        attempts: u32,
        /// The last transient error message.
        last: String,
    },
    /// A checkpoint could not be applied (dimension/lateness mismatch).
    BadCheckpoint(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Fatal(m) => write!(f, "ingest failed: {m}"),
            IngestError::RetriesExhausted { attempts, last } => {
                write!(f, "ingest gave up after {attempts} attempts: {last}")
            }
            IngestError::BadCheckpoint(m) => write!(f, "bad checkpoint: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// The final product of an ingest run: the incrementally built `T`, the
/// per-hour temporal accumulators, and the run's accounting.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// The antenna × service totals matrix (the streaming-built `T`).
    pub totals: icn_stats::Matrix,
    /// Accepted volume per window hour.
    pub hourly_volume: Vec<f64>,
    /// Accepted records per window hour.
    pub hourly_records: Vec<u64>,
    /// Accounting for the whole run (including any resumed prefix).
    pub stats: IngestStats,
    /// Records consumed from the source (accepted + quarantined).
    pub records_consumed: u64,
}

/// The streaming ingest pipeline.
pub struct IngestPipeline {
    config: IngestConfig,
    acc: StreamAccumulator,
    stats: IngestStats,
    records_consumed: u64,
}

impl IngestPipeline {
    /// Creates a fresh pipeline for the given stream schema.
    pub fn new(schema: IngestSchema, config: IngestConfig) -> IngestPipeline {
        IngestPipeline {
            config,
            acc: StreamAccumulator::new(schema, config.lateness_hours),
            stats: IngestStats::default(),
            records_consumed: 0,
        }
    }

    /// Resumes from a checkpoint. The caller must also advance the source
    /// past the consumed prefix ([`RecordSource::skip_records`] with
    /// [`Checkpoint::records_consumed`]). Fails if the checkpoint's
    /// lateness window disagrees with `config` — resuming with different
    /// sealing rules would break the determinism contract.
    pub fn from_checkpoint(
        ck: Checkpoint,
        config: IngestConfig,
    ) -> Result<IngestPipeline, IngestError> {
        if ck.lateness != config.lateness_hours {
            return Err(IngestError::BadCheckpoint(format!(
                "checkpoint lateness {} != configured {}",
                ck.lateness, config.lateness_hours
            )));
        }
        Ok(IngestPipeline {
            config,
            acc: ck.acc,
            stats: ck.stats,
            records_consumed: ck.records_consumed,
        })
    }

    /// Accounting so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Snapshots the pipeline into a resumable checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            schema: *self.acc.schema(),
            lateness: self.acc.lateness(),
            records_consumed: self.records_consumed,
            stats: self.stats.clone(),
            acc: self.acc.clone(),
        }
    }

    /// Processes one chunk. Returns `Ok(Some(n))` after consuming `n`
    /// records, `Ok(None)` at end of stream. `run_span` is the span open
    /// while the chunk is pulled; each transient retry marks it with a
    /// `transient_retry` event.
    fn step<S: RecordSource>(
        &mut self,
        source: &mut S,
        run_span: &mut Span,
    ) -> Result<Option<usize>, IngestError> {
        let chunk = self.pull_chunk(source, run_span)?;
        if chunk.is_empty() {
            return Ok(None);
        }
        let mut chunk_span = icn_obs::Span::enter("ingest_chunk");
        chunk_span.attr("records", chunk.len() as u64);
        let mut ok = 0u64;
        for r in &chunk {
            match self.acc.insert(r) {
                Ok(()) => ok += 1,
                Err(reason) => self.stats.quarantined[reason as usize] += 1,
            }
        }
        let quarantined = chunk.len() as u64 - ok;
        self.records_consumed += chunk.len() as u64;
        let reg = icn_obs::global();
        self.stats.ok += ok;
        self.stats.chunks += 1;
        reg.add_counter("ingest.records_ok", ok);
        reg.add_counter("ingest.records_quarantined", quarantined);
        reg.add_counter("ingest.chunks", 1);
        if quarantined > 0 {
            chunk_span.attr("quarantined", quarantined);
        }
        Ok(Some(chunk.len()))
    }

    /// Runs until end of stream.
    pub fn run<S: RecordSource>(&mut self, source: &mut S) -> Result<(), IngestError> {
        self.run_until(source, None).map(|_| ())
    }

    /// Runs until end of stream or until `max_chunks` chunks have been
    /// processed (used by the CLI's kill-and-resume smoke). Returns `true`
    /// if the stream is exhausted.
    pub fn run_until<S: RecordSource>(
        &mut self,
        source: &mut S,
        max_chunks: Option<u64>,
    ) -> Result<bool, IngestError> {
        let mut span = Span::enter("ingest");
        let mut chunks = 0u64;
        let finished = loop {
            if max_chunks.is_some_and(|m| chunks >= m) {
                break false;
            }
            match self.step(source, &mut span)? {
                Some(_) => chunks += 1,
                None => break true,
            }
        };
        Ok(finished)
    }

    /// Seals every remaining open hour and returns the final result.
    pub fn finish(self) -> IngestResult {
        let AccumulatedTotals {
            totals,
            hourly_volume,
            hourly_records,
        } = self.acc.finish();
        IngestResult {
            totals,
            hourly_volume,
            hourly_records,
            stats: self.stats,
            records_consumed: self.records_consumed,
        }
    }

    fn pull_chunk<S: RecordSource>(
        &mut self,
        source: &mut S,
        run_span: &mut Span,
    ) -> Result<Vec<HourlyRecord>, IngestError> {
        let mut attempt = 0u32;
        loop {
            match source.next_chunk(self.config.chunk_size) {
                Ok(chunk) => return Ok(chunk),
                Err(SourceError::Fatal(m)) => return Err(IngestError::Fatal(m)),
                Err(SourceError::Transient(m)) => {
                    attempt += 1;
                    if attempt > self.config.max_retries {
                        return Err(IngestError::RetriesExhausted {
                            attempts: attempt,
                            last: m,
                        });
                    }
                    self.stats.retried += 1;
                    icn_obs::global().add_counter("ingest.retried", 1);
                    run_span.event("transient_retry");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VecSource;

    fn schema() -> IngestSchema {
        IngestSchema {
            antennas: 5,
            services: 4,
            hours: 24,
        }
    }

    fn clean_records() -> Vec<HourlyRecord> {
        let mut out = Vec::new();
        for h in 0..24u32 {
            for a in 0..5u32 {
                for s in 0..4u32 {
                    out.push(HourlyRecord {
                        antenna: a,
                        service: s,
                        hour: h,
                        bytes_dl: f64::from(h * 20 + a * 4 + s) * 0.37,
                        bytes_ul: 0.11,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn clean_stream_accepts_everything() {
        let recs = clean_records();
        let n = recs.len() as u64;
        let mut pipe = IngestPipeline::new(schema(), IngestConfig::default());
        pipe.run(&mut VecSource::new(recs)).unwrap();
        let out = pipe.finish();
        assert_eq!(out.stats.ok, n);
        assert_eq!(out.stats.quarantined_total(), 0);
        assert_eq!(out.records_consumed, n);
        assert!(out.hourly_records.iter().all(|&c| c == 20));
    }

    #[test]
    fn bad_records_are_quarantined_with_reasons() {
        let mut recs = clean_records();
        recs.push(HourlyRecord {
            antenna: 0,
            service: 99,
            hour: 23,
            bytes_dl: 1.0,
            bytes_ul: 0.0,
        });
        recs.push(recs[0]); // duplicate of (0,0,0) → but hour 0 is late by now
        let mut pipe = IngestPipeline::new(schema(), IngestConfig::default());
        pipe.run(&mut VecSource::new(recs)).unwrap();
        let out = pipe.finish();
        assert_eq!(
            out.stats.quarantined_for(QuarantineReason::UnknownService),
            1
        );
        assert_eq!(out.stats.quarantined_for(QuarantineReason::LateArrival), 1);
        assert_eq!(out.stats.quarantined_total(), 2);
    }

    #[test]
    fn chunk_size_does_not_change_totals_bits() {
        let recs = clean_records();
        let totals: Vec<_> = [1usize, 7, 4096]
            .iter()
            .map(|&chunk| {
                let mut pipe = IngestPipeline::new(
                    schema(),
                    IngestConfig {
                        chunk_size: chunk,
                        ..IngestConfig::default()
                    },
                );
                pipe.run(&mut VecSource::new(recs.clone())).unwrap();
                pipe.finish().totals
            })
            .collect();
        for t in &totals[1..] {
            for (a, b) in totals[0].as_slice().iter().zip(t.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let recs = clean_records();
        let cfg = IngestConfig {
            chunk_size: 13,
            ..IngestConfig::default()
        };

        let mut straight = IngestPipeline::new(schema(), cfg);
        straight.run(&mut VecSource::new(recs.clone())).unwrap();
        let want = straight.finish();

        let mut first = IngestPipeline::new(schema(), cfg);
        let mut src = VecSource::new(recs.clone());
        first.run_until(&mut src, Some(7)).unwrap();
        let ck = Checkpoint::parse(&first.checkpoint().render()).unwrap();
        drop(first); // the "crash"

        let consumed = ck.records_consumed;
        let mut resumed = IngestPipeline::from_checkpoint(ck, cfg).unwrap();
        let mut src2 = VecSource::new(recs);
        src2.skip_records(consumed).unwrap();
        resumed.run(&mut src2).unwrap();
        let got = resumed.finish();

        assert_eq!(got.stats, want.stats);
        assert_eq!(got.records_consumed, want.records_consumed);
        for (a, b) in want.totals.as_slice().iter().zip(got.totals.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in want.hourly_volume.iter().zip(&got.hourly_volume) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(want.hourly_records, got.hourly_records);
    }

    #[test]
    fn duplicate_detection_survives_a_resume() {
        let mut recs = clean_records();
        // Kill after three 10-record chunks: hours 0 and 1 are open (20
        // records per hour). The next two records re-send cells held in
        // those open hours.
        let kill_at = 30;
        recs.insert(kill_at, recs[25]);
        recs.insert(kill_at + 1, recs[5]);
        let cfg = IngestConfig {
            chunk_size: 10,
            ..IngestConfig::default()
        };

        let mut straight = IngestPipeline::new(schema(), cfg);
        straight.run(&mut VecSource::new(recs.clone())).unwrap();
        let want_hash = straight.checkpoint().hash();
        let want = straight.finish();
        assert_eq!(
            want.stats.quarantined_for(QuarantineReason::DuplicateKey),
            2
        );
        assert_eq!(want.stats.quarantined_total(), 2);

        let mut first = IngestPipeline::new(schema(), cfg);
        let mut src = VecSource::new(recs.clone());
        first
            .run_until(&mut src, Some(kill_at as u64 / 10))
            .unwrap();
        let ck = Checkpoint::parse(&first.checkpoint().render()).unwrap();
        drop(first);
        let held: Vec<u32> = ck.acc.open_hours().collect();
        assert_eq!(
            held,
            [recs[5].hour, recs[25].hour],
            "both hours open at the kill"
        );

        let consumed = ck.records_consumed;
        let mut resumed = IngestPipeline::from_checkpoint(ck, cfg).unwrap();
        let mut src2 = VecSource::new(recs);
        src2.skip_records(consumed).unwrap();
        resumed.run(&mut src2).unwrap();
        assert_eq!(resumed.checkpoint().hash(), want_hash);
        let got = resumed.finish();
        assert_eq!(got.stats, want.stats);
        for (a, b) in want.totals.as_slice().iter().zip(got.totals.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(want.hourly_records, got.hourly_records);
    }

    #[test]
    fn checkpoint_lateness_mismatch_is_rejected() {
        let pipe = IngestPipeline::new(schema(), IngestConfig::default());
        let ck = pipe.checkpoint();
        let other = IngestConfig {
            lateness_hours: 5,
            ..IngestConfig::default()
        };
        assert!(matches!(
            IngestPipeline::from_checkpoint(ck, other),
            Err(IngestError::BadCheckpoint(_))
        ));
    }

    struct FlakySource {
        inner: VecSource,
        fail_next: u32,
    }

    impl RecordSource for FlakySource {
        fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(SourceError::Transient("flaky".into()));
            }
            self.inner.next_chunk(max)
        }
    }

    #[test]
    fn transient_errors_are_retried_within_budget() {
        let mut pipe = IngestPipeline::new(schema(), IngestConfig::default());
        let mut src = FlakySource {
            inner: VecSource::new(clean_records()),
            fail_next: 3,
        };
        pipe.run(&mut src).unwrap();
        assert_eq!(pipe.stats().retried, 3);
    }

    #[test]
    fn retry_budget_exhaustion_aborts() {
        let cfg = IngestConfig {
            max_retries: 2,
            ..IngestConfig::default()
        };
        let mut pipe = IngestPipeline::new(schema(), cfg);
        let mut src = FlakySource {
            inner: VecSource::new(clean_records()),
            fail_next: 100,
        };
        let err = pipe.run(&mut src).unwrap_err();
        assert!(matches!(
            err,
            IngestError::RetriesExhausted { attempts: 3, .. }
        ));
    }
}
