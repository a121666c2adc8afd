//! Checkpoint/restore format (`icn-ingest/v1`).
//!
//! A checkpoint captures everything needed to resume ingestion after a
//! crash: the schema, the committed totals, the open (unsealed) hours,
//! the watermark, the quarantine/retry counters, and the number of records
//! consumed from the source. Restoring a checkpoint and replaying the rest
//! of the stream must reproduce the exact final state of an uninterrupted
//! run — bit for bit. Floats are therefore serialized as the hex of their
//! IEEE-754 bit patterns (`f64::to_bits`), never as decimal text, so a
//! round trip cannot lose a single ulp.
//!
//! The rendered document is plain JSON (via `icn_obs::Json`, insertion
//! ordered, so rendering is deterministic) and carries a schema tag; the
//! golden snapshot `tests/golden/ingest_scale005.json` pins the FNV-1a hash
//! of a rendered checkpoint, so any accidental format drift fails CI
//! loudly instead of silently resuming wrong.
//!
//! [`Checkpoint::parse`] accepts only state a resume can honour: integer
//! fields in range, known quarantine labels, a watermark inside the
//! window, and open cells inside the schema and the lateness window, each
//! held once. Anything else is an `Err` naming the field.

use std::fmt::Write as _;
use std::path::Path;

use icn_obs::Json;
use icn_stats::Matrix;

use crate::accumulator::StreamAccumulator;
use crate::pipeline::IngestStats;
use crate::record::{IngestSchema, QuarantineReason};

/// Schema tag of the checkpoint document.
pub(crate) const CHECKPOINT_SCHEMA: &str = "icn-ingest/v1";

/// A resumable snapshot of an ingest pipeline.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The stream schema the pipeline was validating against.
    pub schema: IngestSchema,
    /// Lateness window of the accumulator, in hours.
    pub lateness: u32,
    /// Records consumed from the source so far (the resume offset).
    pub records_consumed: u64,
    /// Counters at checkpoint time.
    pub stats: IngestStats,
    pub(crate) acc: StreamAccumulator,
}

impl Checkpoint {
    /// Renders the checkpoint as a deterministic JSON document.
    pub fn render(&self) -> String {
        let max_hour = match self.acc.max_hour_seen() {
            Some(h) => Json::num(f64::from(h)),
            None => Json::Null,
        };
        let services = self.schema.services as usize;
        let open: Vec<Json> = self
            .acc
            .open_hours()
            .map(|hour| {
                let mut cells = String::new();
                self.acc.for_each_open_cell(hour, |cell, dl, ul| {
                    if !cells.is_empty() {
                        cells.push(' ');
                    }
                    let (a, s) = (cell / services, cell % services);
                    let _ = write!(cells, "{a}:{s}:{:016x}:{:016x}", dl.to_bits(), ul.to_bits());
                });
                Json::obj(vec![
                    ("hour", Json::num(f64::from(hour))),
                    ("cells", Json::str(cells)),
                ])
            })
            .collect();
        let quarantined = Json::Obj(
            self.stats
                .quarantine_counts()
                .map(|(r, n)| (r.label().to_string(), Json::num(n as f64)))
                .collect(),
        );
        let doc = Json::obj(vec![
            ("schema", Json::str(CHECKPOINT_SCHEMA)),
            (
                "dims",
                Json::obj(vec![
                    ("antennas", Json::num(f64::from(self.schema.antennas))),
                    ("services", Json::num(f64::from(self.schema.services))),
                    ("hours", Json::num(f64::from(self.schema.hours))),
                    ("lateness", Json::num(f64::from(self.lateness))),
                ]),
            ),
            (
                "progress",
                Json::obj(vec![
                    ("records_consumed", Json::num(self.records_consumed as f64)),
                    ("max_hour_seen", max_hour),
                    (
                        "committed_below",
                        Json::num(f64::from(self.acc.committed_below())),
                    ),
                ]),
            ),
            (
                "stats",
                Json::obj(vec![
                    ("ok", Json::num(self.stats.ok as f64)),
                    ("retried", Json::num(self.stats.retried as f64)),
                    ("chunks", Json::num(self.stats.chunks as f64)),
                    ("quarantined", quarantined),
                ]),
            ),
            (
                "totals_bits",
                Json::str(bits_of(self.acc.committed_totals().as_slice())),
            ),
            (
                "hourly_volume_bits",
                Json::str(bits_of(self.acc.hourly_volume())),
            ),
            (
                "hourly_records",
                Json::str(counts_of(self.acc.hourly_records())),
            ),
            ("open", Json::Arr(open)),
        ]);
        doc.to_pretty()
    }

    /// FNV-1a hash of the rendered document, as a 16-hex-digit string.
    /// This is the value pinned by the ingest golden snapshot.
    pub fn hash(&self) -> String {
        let hash = icn_stats::Fnv1a::new()
            .write(self.render().as_bytes())
            .finish();
        format!("{hash:016x}")
    }

    /// Parses a rendered checkpoint back into a resumable state.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let doc = Json::parse(text)?;
        let tag = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("checkpoint missing schema tag")?;
        if tag != CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint schema `{tag}` is not `{CHECKPOINT_SCHEMA}`"
            ));
        }
        let dims = doc.get("dims").ok_or("checkpoint missing dims")?;
        let schema = IngestSchema {
            antennas: get_u32(dims, "antennas")?,
            services: get_u32(dims, "services")?,
            hours: get_u32(dims, "hours")?,
        };
        let lateness = get_u32(dims, "lateness")?;

        let progress = doc.get("progress").ok_or("checkpoint missing progress")?;
        let records_consumed = get_u64(progress, "records_consumed")?;
        let max_hour_seen = match progress.get("max_hour_seen") {
            Some(Json::Null) | None => None,
            Some(_) => Some(get_u32(progress, "max_hour_seen")?),
        };
        if let Some(max) = max_hour_seen.filter(|&m| m >= schema.hours) {
            return Err(format!(
                "max_hour_seen {max} is outside the {}-hour window",
                schema.hours
            ));
        }
        let first_open = max_hour_seen.map_or(0, |m| m.saturating_sub(lateness));
        let committed_below = get_u32(progress, "committed_below")?;
        if committed_below != first_open {
            return Err(format!(
                "committed_below {committed_below} disagrees with max_hour_seen and \
                 lateness, which seal below {first_open}"
            ));
        }

        let stats_doc = doc.get("stats").ok_or("checkpoint missing stats")?;
        let mut stats = IngestStats {
            ok: get_u64(stats_doc, "ok")?,
            retried: get_u64(stats_doc, "retried")?,
            chunks: get_u64(stats_doc, "chunks")?,
            ..IngestStats::default()
        };
        if let Some(q) = stats_doc.get("quarantined") {
            for (label, _) in q.entries().ok_or("stats.quarantined is not an object")? {
                let reason = QuarantineReason::from_label(label)
                    .ok_or_else(|| format!("unknown quarantine label `{label}`"))?;
                stats.quarantined[reason as usize] = get_u64(q, label)?;
            }
        }

        let totals_flat = parse_bits(get_str(&doc, "totals_bits")?)?;
        let (rows, cols) = (schema.antennas as usize, schema.services as usize);
        let cells = rows
            .checked_mul(cols)
            .ok_or("dims antennas × services overflow")?;
        if totals_flat.len() != cells {
            return Err(format!(
                "totals_bits has {} values, dims say {cells}",
                totals_flat.len(),
            ));
        }
        let totals = Matrix::from_vec(rows, cols, totals_flat);
        let hourly_volume = parse_bits(get_str(&doc, "hourly_volume_bits")?)?;
        let hourly_records = parse_counts(get_str(&doc, "hourly_records")?)?;
        if hourly_volume.len() != schema.hours as usize
            || hourly_records.len() != schema.hours as usize
        {
            return Err("hourly arrays do not match schema hours".to_string());
        }

        let mut acc = StreamAccumulator::from_parts(
            schema,
            lateness,
            totals,
            hourly_volume,
            hourly_records,
            max_hour_seen,
        );
        let mut prev_hour = None;
        for entry in doc.get("open").and_then(Json::as_arr).unwrap_or(&[]) {
            let hour = get_u32(entry, "hour")?;
            match max_hour_seen {
                Some(max) if (first_open..=max).contains(&hour) => {}
                Some(max) => {
                    return Err(format!(
                        "open hour {hour} is outside the open window {first_open}..={max}"
                    ))
                }
                None => return Err(format!("open hour {hour} but max_hour_seen is null")),
            }
            if prev_hour.is_some_and(|p| hour <= p) {
                return Err(format!("open hour {hour} repeated or out of order"));
            }
            prev_hour = Some(hour);
            let cells = get_str(entry, "cells")?;
            for cell in cells.split(' ').filter(|c| !c.is_empty()) {
                let mut it = cell.split(':');
                let (Some(a), Some(s), Some(dl), Some(ul), None) =
                    (it.next(), it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(format!("malformed open cell `{cell}`"));
                };
                let a: u32 = a.parse().map_err(|_| format!("bad antenna in `{cell}`"))?;
                let s: u32 = s.parse().map_err(|_| format!("bad service in `{cell}`"))?;
                if a >= schema.antennas {
                    return Err(format!(
                        "open cell `{cell}`: antenna {a} of {}",
                        schema.antennas
                    ));
                }
                if s >= schema.services {
                    return Err(format!(
                        "open cell `{cell}`: service {s} of {}",
                        schema.services
                    ));
                }
                let dl = f64::from_bits(
                    u64::from_str_radix(dl, 16).map_err(|_| format!("bad dl bits in `{cell}`"))?,
                );
                let ul = f64::from_bits(
                    u64::from_str_radix(ul, 16).map_err(|_| format!("bad ul bits in `{cell}`"))?,
                );
                if !acc.restore_cell(hour, a as usize * cols + s as usize, dl, ul) {
                    return Err(format!("open cell {a}:{s} repeated in hour {hour}"));
                }
            }
        }

        Ok(Checkpoint {
            schema,
            lateness,
            records_consumed,
            stats,
            acc,
        })
    }

    /// Writes the rendered checkpoint to a file.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Reads and parses a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Checkpoint::parse(&text)
    }
}

fn bits_of(values: &[f64]) -> String {
    let mut s = String::with_capacity(values.len() * 17);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{:016x}", v.to_bits());
    }
    s
}

fn counts_of(values: &[u64]) -> String {
    let mut s = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{v}");
    }
    s
}

fn parse_bits(text: &str) -> Result<Vec<f64>, String> {
    text.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad f64 bits `{t}`"))
        })
        .collect()
}

fn parse_counts(text: &str) -> Result<Vec<u64>, String> {
    text.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad count `{t}`")))
        .collect()
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("checkpoint missing string field `{key}`"))
}

/// A non-negative integer field. Counts travel as JSON numbers (f64), so
/// anything fractional, negative or beyond 2^53 cannot be one.
fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let f = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("checkpoint missing numeric field `{key}`"))?;
    if f >= 0.0 && f.fract() == 0.0 && f <= 9_007_199_254_740_992.0 {
        Ok(f as u64)
    } else {
        Err(format!("checkpoint field `{key}` = {f} is not a count"))
    }
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, String> {
    let v = get_u64(doc, key)?;
    u32::try_from(v).map_err(|_| format!("checkpoint field `{key}` = {v} exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HourlyRecord;

    fn sample_checkpoint() -> Checkpoint {
        let schema = IngestSchema {
            antennas: 3,
            services: 2,
            hours: 12,
        };
        let mut acc = StreamAccumulator::new(schema, 2);
        // Values with awkward bit patterns: a ulp-level decimal round trip
        // would corrupt these.
        let vals = [0.1, 1.0 / 3.0, 2e-17, 1e16 + 1.0];
        for (k, &v) in vals.iter().enumerate() {
            let r = HourlyRecord {
                antenna: (k % 3) as u32,
                service: (k % 2) as u32,
                hour: k as u32 * 3,
                bytes_dl: v,
                bytes_ul: v / 7.0,
            };
            acc.insert(&r).unwrap();
        }
        let mut stats = IngestStats {
            ok: 4,
            chunks: 1,
            ..IngestStats::default()
        };
        stats.quarantined[QuarantineReason::DuplicateKey as usize] = 2;
        Checkpoint {
            schema,
            lateness: 2,
            records_consumed: 6,
            stats,
            acc,
        }
    }

    #[test]
    fn render_parse_round_trip_is_bit_exact() {
        let ck = sample_checkpoint();
        let text = ck.render();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.schema, ck.schema);
        assert_eq!(back.lateness, ck.lateness);
        assert_eq!(back.records_consumed, ck.records_consumed);
        assert_eq!(back.stats, ck.stats);
        assert_eq!(back.acc.committed_below(), ck.acc.committed_below());
        assert_eq!(back.acc.max_hour_seen(), ck.acc.max_hour_seen());
        let (a, b) = (ck.acc.committed_totals(), back.acc.committed_totals());
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(open_cells(&back), open_cells(&ck));
        assert_eq!(open_cells(&ck).len(), 1, "the sample holds one open record");
        // Re-render is byte-identical, so the hash is stable.
        assert_eq!(back.render(), text);
        assert_eq!(back.hash(), ck.hash());
    }

    fn open_cells(ck: &Checkpoint) -> Vec<(u32, usize, u64, u64)> {
        let mut out = Vec::new();
        for h in ck.acc.open_hours() {
            ck.acc
                .for_each_open_cell(h, |c, dl, ul| out.push((h, c, dl.to_bits(), ul.to_bits())));
        }
        out
    }

    /// Parses the sample checkpoint with `from` replaced by `to` (which
    /// must occur) and returns the error.
    fn doctored(from: &str, to: &str) -> String {
        let text = sample_checkpoint().render();
        assert!(text.contains(from), "`{from}` not in the sample:\n{text}");
        Checkpoint::parse(&text.replacen(from, to, 1)).unwrap_err()
    }

    #[test]
    fn open_hour_outside_the_window_is_rejected() {
        let err = doctored("\"hour\": 9", "\"hour\": 90");
        assert!(err.contains("open hour 90"), "{err}");
    }

    #[test]
    fn open_cell_outside_the_schema_is_rejected() {
        let err = doctored("\"cells\": \"0:1:", "\"cells\": \"0:80:");
        assert!(err.contains("service 80"), "{err}");
        let err = doctored("\"cells\": \"0:1:", "\"cells\": \"3:1:");
        assert!(err.contains("antenna 3"), "{err}");
    }

    #[test]
    fn repeated_open_cell_is_rejected() {
        let text = sample_checkpoint().render();
        let needle = "\"cells\": \"";
        let start = text.find(needle).unwrap() + needle.len();
        let end = text[start..].find('"').unwrap() + start;
        let cell = &text[start..end];
        let err = doctored(cell, &format!("{cell} {cell}"));
        assert!(err.contains("open cell 0:1 repeated"), "{err}");
    }

    #[test]
    fn u32_field_beyond_u32_is_rejected() {
        // 2^32 + 3 used to wrap to 3.
        let err = doctored("\"antennas\": 3", "\"antennas\": 4294967299");
        assert!(err.contains("`antennas`"), "{err}");
    }

    #[test]
    fn negative_count_is_rejected() {
        // -1 used to saturate to 0.
        let err = doctored("\"records_consumed\": 6", "\"records_consumed\": -1");
        assert!(err.contains("`records_consumed`"), "{err}");
    }

    #[test]
    fn unknown_quarantine_label_is_rejected() {
        let err = doctored("\"duplicate_key\"", "\"dropped\"");
        assert!(err.contains("`dropped`"), "{err}");
    }

    #[test]
    fn schema_tag_is_enforced() {
        let text = sample_checkpoint()
            .render()
            .replace(CHECKPOINT_SCHEMA, "icn-ingest/v0");
        let err = Checkpoint::parse(&text).unwrap_err();
        assert!(err.contains("icn-ingest/v0"), "{err}");
    }

    #[test]
    fn truncated_totals_are_rejected() {
        let ck = sample_checkpoint();
        let text = ck.render();
        // Corrupt the totals payload: drop one value.
        let needle = "\"totals_bits\": \"";
        let start = text.find(needle).unwrap() + needle.len();
        let end = text[start..].find('"').unwrap() + start;
        let mut bits: Vec<&str> = text[start..end].split(' ').collect();
        bits.pop();
        let corrupted = format!("{}{}{}", &text[..start], bits.join(" "), &text[end..]);
        assert!(Checkpoint::parse(&corrupted).is_err());
    }
}
