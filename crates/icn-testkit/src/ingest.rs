//! Batch-vs-streaming differential oracle for the ingest subsystem.
//!
//! The headline invariant of `icn-ingest` is that streaming construction
//! of `T` — any chunk size, any thread count, any bounded reordering — is
//! **bit-identical** to the batch matrix. This module provides:
//!
//! * [`naive_ingest`] — an independent, obviously-correct sequential
//!   reference: validate each record in the fixed priority order, reject
//!   late/duplicate records against a running watermark, then fold all
//!   accepted records in sorted `(hour, antenna, service)` order. No
//!   buckets, no chunks, no parallelism.
//! * [`ingest_via_pipeline`] — the production [`IngestPipeline`] run over
//!   an in-memory source, for differential comparison.
//! * [`shuffle_within_blocks`] — the metamorphic input transformation:
//!   a bounded reordering that must not change any pipeline output.
//! * `snapshot_ingest` — the golden-snapshot recipe: a pinned
//!   checkpoint/kill/resume ingest run at a fixed scale, hashed together
//!   with the stage hashes of the study built *from* the streamed matrix.

use std::collections::BTreeSet;

use icn_core::{IcnStudy, StudyConfig};
use icn_ingest::{
    Checkpoint, HourlyRecord, IngestConfig, IngestPipeline, IngestResult, IngestSchema,
    RecordSource, VecSource,
};
use icn_stats::{Matrix, Rng};
use icn_synth::{record_stream, Date, StudyCalendar};

use crate::golden::{snapshot_study, Canon, PipelineSnapshot};

/// Accept/quarantine accounting of the naive reference ingest.
#[derive(Clone, Debug, PartialEq)]
pub struct NaiveIngest {
    /// The folded totals matrix.
    pub totals: Matrix,
    /// Accepted volume per window hour.
    pub hourly_volume: Vec<f64>,
    /// Accepted records per window hour.
    pub hourly_records: Vec<u64>,
    /// Accepted record count.
    pub ok: u64,
    /// Quarantined counts keyed by reason label, sorted.
    pub quarantined: Vec<(String, u64)>,
}

/// Sequential reference implementation of the whole ingest semantics,
/// deliberately structured nothing like the production pipeline: one pass
/// of per-record accept/reject decisions, then one sort-and-fold.
pub fn naive_ingest(records: &[HourlyRecord], schema: IngestSchema, lateness: u32) -> NaiveIngest {
    let mut accepted: Vec<HourlyRecord> = Vec::new();
    let mut seen: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut max_hour: Option<u32> = None;
    let mut quarantine: Vec<(&'static str, u64)> = Vec::new();
    let count = |q: &mut Vec<(&'static str, u64)>, label: &'static str| match q
        .iter_mut()
        .find(|(l, _)| *l == label)
    {
        Some((_, n)) => *n += 1,
        None => q.push((label, 1)),
    };
    for r in records {
        // Structural checks, spelled out in the fixed priority order.
        let reason = if !r.bytes_dl.is_finite() || !r.bytes_ul.is_finite() {
            Some("non_finite_volume")
        } else if r.bytes_dl < 0.0 || r.bytes_ul < 0.0 {
            Some("negative_volume")
        } else if r.antenna >= schema.antennas {
            Some("unknown_antenna")
        } else if r.service >= schema.services {
            Some("unknown_service")
        } else if r.hour >= schema.hours {
            Some("out_of_window_hour")
        } else if max_hour.is_some_and(|m| r.hour + lateness < m) {
            Some("late_arrival")
        } else if seen.contains(&(r.hour, r.antenna, r.service)) {
            Some("duplicate_key")
        } else {
            None
        };
        match reason {
            Some(label) => count(&mut quarantine, label),
            None => {
                seen.insert((r.hour, r.antenna, r.service));
                max_hour = Some(max_hour.map_or(r.hour, |m| m.max(r.hour)));
                accepted.push(*r);
            }
        }
    }
    // Canonical fold order: ascending (hour, antenna, service). Sealed
    // hours in the production accumulator fold exactly this way.
    accepted.sort_by_key(|r| (r.hour, r.antenna, r.service));
    let mut totals = Matrix::zeros(schema.antennas as usize, schema.services as usize);
    let mut hourly_volume = vec![0.0; schema.hours as usize];
    let mut hourly_records = vec![0u64; schema.hours as usize];
    for r in &accepted {
        let v = r.bytes_dl + r.bytes_ul;
        let (i, j) = (r.antenna as usize, r.service as usize);
        totals.set(i, j, totals.get(i, j) + v);
        hourly_volume[r.hour as usize] += v;
        hourly_records[r.hour as usize] += 1;
    }
    let mut quarantined: Vec<(String, u64)> = quarantine
        .into_iter()
        .map(|(l, n)| (l.to_string(), n))
        .collect();
    quarantined.sort();
    NaiveIngest {
        totals,
        hourly_volume,
        hourly_records,
        ok: accepted.len() as u64,
        quarantined,
    }
}

/// Runs the production pipeline over an in-memory copy of `records`.
pub fn ingest_via_pipeline(
    records: &[HourlyRecord],
    schema: IngestSchema,
    config: IngestConfig,
) -> IngestResult {
    let mut pipe = IngestPipeline::new(schema, config);
    pipe.run(&mut VecSource::new(records.to_vec()))
        .expect("VecSource never errors");
    pipe.finish()
}

/// Asserts two float slices are bit-identical, reporting the first
/// diverging index.
pub fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit divergence at index {i}: {x} vs {y}"
        );
    }
}

/// Metamorphic input transformation: shuffles each consecutive block of
/// `block` records independently. For an hour-ordered stream whose hours
/// each span many blocks, this is a *bounded* reordering — every record
/// stays within the lateness window — so the pipeline must accept every
/// record and produce bit-identical totals.
pub fn shuffle_within_blocks(
    records: &[HourlyRecord],
    block: usize,
    seed: u64,
) -> Vec<HourlyRecord> {
    assert!(block > 0, "shuffle_within_blocks: block must be positive");
    let mut rng = Rng::seed_from(seed);
    let mut out = records.to_vec();
    for chunk in out.chunks_mut(block) {
        rng.shuffle(chunk);
    }
    out
}

/// The pinned ingest-window length in days (a 72-hour slice of the study
/// period starting Monday 9 Jan 2023).
const INGEST_GOLDEN_DAYS: usize = 3;

/// The pinned ingest window used by the golden snapshot and the CI smoke.
fn ingest_golden_window() -> StudyCalendar {
    StudyCalendar::custom(Date::new(2023, 1, 9), INGEST_GOLDEN_DAYS)
}

/// Runs the pinned ingest scenario at `scale` and hashes everything that
/// must stay stable:
///
/// * `ingest_checkpoint` — the canonical checkpoint hash taken mid-stream
///   (after half the chunks), exercising the kill point;
/// * `ingest_result` — the resumed run's totals, temporal accumulators and
///   accounting (the resume path feeds the final hash, so a resume bug
///   cannot hide);
/// * every stage hash of the study built via `IcnStudy::from_ingest` on
///   the streamed matrix.
pub(crate) fn snapshot_ingest(scale: f64) -> PipelineSnapshot {
    let dataset = icn_synth::Dataset::generate(icn_synth::SynthConfig::paper().with_scale(scale));
    let window = ingest_golden_window();
    let config = IngestConfig::default();

    // First leg: run half the chunks, checkpoint, and "crash".
    let mut stream = record_stream(&dataset, &window);
    let schema = stream.schema();
    let total_chunks = schema.total_records().div_ceil(config.chunk_size as u64);
    let mut first = IngestPipeline::new(schema, config);
    first
        .run_until(&mut stream, Some(total_chunks / 2))
        .expect("clean stream");
    let ck = first.checkpoint();
    let checkpoint_hash = ck.hash();
    let rendered = ck.render();
    drop(first);

    // Second leg: resume from the *parsed* checkpoint against a fresh
    // stream advanced past the consumed prefix.
    let ck = Checkpoint::parse(&rendered).expect("round-trip checkpoint");
    let consumed = ck.records_consumed;
    let mut resumed = IngestPipeline::from_checkpoint(ck, config).expect("compatible checkpoint");
    let mut stream = record_stream(&dataset, &window);
    stream.skip_records(consumed).expect("skip prefix");
    resumed.run(&mut stream).expect("clean stream");
    let result = resumed.finish();

    let study = IcnStudy::from_ingest(
        &dataset,
        &result,
        StudyConfig {
            run_k_sweep: true,
            ..StudyConfig::fast()
        },
    )
    .expect("streamed matrix validates");

    let mut snap = snapshot_study(scale, &dataset, &study);
    snap.stages
        .push(("ingest_checkpoint".to_string(), checkpoint_hash));
    let mut c = Canon::new();
    c.text("ingest_result")
        .matrix(&result.totals)
        .f64s(&result.hourly_volume);
    for &n in &result.hourly_records {
        c.usize(n as usize);
    }
    c.usize(result.stats.ok as usize)
        .usize(result.stats.quarantined_total() as usize)
        .usize(result.records_consumed as usize);
    snap.stages.push(("ingest_result".to_string(), c.hex()));
    snap.stages.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_ingest::{QuarantineReason, StreamAccumulator};

    fn schema() -> IngestSchema {
        IngestSchema {
            antennas: 6,
            services: 4,
            hours: 12,
        }
    }

    fn clean_records() -> Vec<HourlyRecord> {
        let mut out = Vec::new();
        for h in 0..12u32 {
            for a in 0..6u32 {
                for s in 0..4u32 {
                    out.push(HourlyRecord {
                        antenna: a,
                        service: s,
                        hour: h,
                        bytes_dl: f64::from(h * 31 + a * 5 + s).mul_add(0.173, 0.9),
                        bytes_ul: 0.21,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn naive_and_pipeline_agree_on_clean_stream() {
        let recs = clean_records();
        let want = naive_ingest(&recs, schema(), 2);
        let got = ingest_via_pipeline(&recs, schema(), IngestConfig::default());
        assert_bits_eq(want.totals.as_slice(), got.totals.as_slice(), "totals");
        assert_bits_eq(&want.hourly_volume, &got.hourly_volume, "hourly_volume");
        assert_eq!(want.hourly_records, got.hourly_records);
        assert_eq!(want.ok, got.stats.ok);
        assert_eq!(got.stats.quarantined_total(), 0);
    }

    #[test]
    fn naive_and_pipeline_agree_on_dirty_stream() {
        let mut recs = clean_records();
        recs.insert(20, recs[3]); // duplicate within the open window
        recs.push(HourlyRecord {
            antenna: 0,
            service: 0,
            hour: 0,
            bytes_dl: 1.0,
            bytes_ul: 0.0,
        }); // late by the end of the stream
        recs.push(HourlyRecord {
            antenna: 99,
            service: 0,
            hour: 11,
            bytes_dl: 1.0,
            bytes_ul: 0.0,
        });
        let want = naive_ingest(&recs, schema(), 2);
        let got = ingest_via_pipeline(&recs, schema(), IngestConfig::default());
        assert_bits_eq(want.totals.as_slice(), got.totals.as_slice(), "totals");
        assert_eq!(want.ok, got.stats.ok);
        let got_q: Vec<(String, u64)> = got
            .stats
            .quarantine_counts()
            .map(|(r, n)| (r.label().to_string(), n))
            .collect();
        assert_eq!(want.quarantined, got_q);
    }

    /// An antenna-major feed climbs through every hour once per antenna,
    /// so one chunk of it would open every hour if sealing waited for the
    /// chunk's end. Eager sealing keeps at most `lateness + 1` hours open
    /// after every insert, and the late and duplicate verdicts it reaches
    /// on this hostile order are the oracle's, bit for bit.
    #[test]
    fn eager_sealing_bounds_open_hours_and_matches_the_oracle() {
        let lateness = 2;
        let mut recs = Vec::new();
        for a in 0..6u32 {
            for h in 0..12u32 {
                for s in 0..4u32 {
                    recs.push(HourlyRecord {
                        antenna: a,
                        service: s,
                        hour: h,
                        bytes_dl: f64::from(h * 31 + a * 5 + s).mul_add(0.173, 0.9),
                        bytes_ul: if s == 1 { 1e16 } else { 0.21 },
                    });
                    // Planted duplicates: a re-send at once, and a re-send
                    // of a record from the hour before.
                    if (a + h + s) % 5 == 0 {
                        recs.push(*recs.last().unwrap());
                    }
                    if s == 3 && h % 4 == 1 {
                        let back = recs.len() - 6;
                        recs.push(recs[back]);
                    }
                }
            }
        }

        let mut acc = StreamAccumulator::new(schema(), lateness);
        let (mut late, mut duplicate) = (0u64, 0u64);
        for r in &recs {
            match acc.insert(r) {
                Ok(()) => {}
                Err(QuarantineReason::LateArrival) => late += 1,
                Err(QuarantineReason::DuplicateKey) => duplicate += 1,
                Err(other) => panic!("unexpected {other} for {r:?}"),
            }
            let open: Vec<u32> = acc.open_hours().collect();
            assert!(
                open.len() <= lateness as usize + 1,
                "{} hours open after {r:?}: {open:?}",
                open.len()
            );
        }
        assert!(late > 0 && duplicate > 0, "the feed must plant both");
        let got = acc.finish();

        let want = naive_ingest(&recs, schema(), lateness);
        assert_bits_eq(want.totals.as_slice(), got.totals.as_slice(), "totals");
        assert_bits_eq(&want.hourly_volume, &got.hourly_volume, "hourly_volume");
        assert_eq!(want.hourly_records, got.hourly_records);
        assert_eq!(
            want.quarantined,
            [
                ("duplicate_key".to_string(), duplicate),
                ("late_arrival".to_string(), late)
            ]
        );
    }

    #[test]
    fn block_shuffle_is_invisible_to_the_pipeline() {
        let recs = clean_records();
        let base = ingest_via_pipeline(&recs, schema(), IngestConfig::default());
        let shuffled = shuffle_within_blocks(&recs, 16, 99);
        assert_ne!(
            recs.iter().map(|r| r.key()).collect::<Vec<_>>(),
            shuffled.iter().map(|r| r.key()).collect::<Vec<_>>(),
            "shuffle must actually move records"
        );
        let got = ingest_via_pipeline(&shuffled, schema(), IngestConfig::default());
        assert_eq!(got.stats.quarantined_total(), 0);
        assert_bits_eq(base.totals.as_slice(), got.totals.as_slice(), "totals");
        assert_bits_eq(&base.hourly_volume, &got.hourly_volume, "hourly_volume");
    }
}
