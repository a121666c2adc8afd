//! Report comparison (`icn obs diff`), self-time treetable
//! (`icn obs top`) and allocation treetable (`icn obs mem`).
//!
//! [`diff_reports`] compares two [`BenchReport`]s — a blessed baseline
//! `a` and a candidate `b` — against fixed per-metric thresholds and
//! classifies every metric as pass / fail / informational. CI uses it as
//! a regression gate on live runs: generous thresholds (fail only when a
//! stage or p99 gets more than 2× slower) keep the gate insensitive to
//! shared-runner noise while still catching real regressions. Tiny
//! absolute walls (below 5 ms) and micro-scale latency distributions
//! (p99 below 10 ms) are skipped entirely — a 3 ms stage doubling to
//! 6 ms is scheduler noise, not a regression. `*_bytes` gauges fail
//! above 1.2× and the allocator peak above 1.5×.
//!
//! The comparison is deliberately asymmetric: `b` getting *faster* never
//! fails, and metrics present only in `b` (new instrumentation) are
//! informational. A stage present in `a` but missing from `b` fails — a
//! silently skipped stage must not read as a speedup. Counters never
//! gate; changed ones are listed for context.
//! [`DiffThresholds::stage_wall_ratios`] holds individual hot stages to
//! tighter bounds than the 2× default — the one tunable threshold.

use crate::report::{BenchReport, BenchReportSet};
use crate::trace::self_times;
use std::fmt::Write as _;

/// Maximum allowed `b/a` wall-time ratio for stages, and the maximum
/// allowed throughput loss `a/b` for `*_per_sec` gauges.
const MAX_WALL_RATIO: f64 = 2.0;

/// Stages with a baseline wall below this many milliseconds are skipped.
const MIN_WALL_MS: f64 = 5.0;

/// Maximum allowed `b/a` ratio for histogram p99s.
const MAX_HIST_RATIO: f64 = 2.0;

/// Histograms with a baseline p99 below this many nanoseconds (10 ms) are
/// skipped: per-tree and per-merge p99s are micro-scale and dominated by
/// scheduling noise on shared runners, so only chunk-scale latency
/// distributions gate.
const MIN_HIST_NS: u64 = 10_000_000;

/// Maximum allowed `b/a` ratio for `*_bytes` gauges. Memory footprints are
/// arithmetic consequences of the input size, not scheduler-noisy walls,
/// so the gate is tight: a sampled-path run that quietly starts
/// materializing a bigger matrix fails even when the extra allocation
/// happens to be fast.
const MAX_BYTES_RATIO: f64 = 1.2;

/// Maximum allowed `b/a` ratio for the allocator window peak in the
/// `memory` section — looser than `MAX_BYTES_RATIO` because the measured
/// peak includes every transient the allocator sees, but far tighter than
/// the wall gates because allocation is deterministic.
const MAX_PEAK_RATIO: f64 = 1.5;

/// The tunable part of [`diff_reports`]; every other threshold is fixed
/// (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DiffThresholds {
    /// Per-stage overrides of the 2× wall ratio: `(stage_name, ratio)`
    /// pairs, later entries winning. Lets CI hold a hot stage to a
    /// tighter bound than the noise-tolerant global default (e.g.
    /// `stage3_surrogate` at 1.5× after an optimisation pass) without
    /// tightening every small stage into flakiness.
    pub stage_wall_ratios: Vec<(String, f64)>,
}

impl DiffThresholds {
    /// The wall-ratio bound for a stage: the last matching
    /// [`stage_wall_ratios`] override, else the 2× default.
    ///
    /// [`stage_wall_ratios`]: DiffThresholds::stage_wall_ratios
    fn wall_ratio_for(&self, stage: &str) -> f64 {
        self.stage_wall_ratios
            .iter()
            .rev()
            .find(|(name, _)| name == stage)
            .map(|&(_, r)| r)
            .unwrap_or(MAX_WALL_RATIO)
    }

    /// Checks that every per-stage override can gate against `baseline`:
    /// some report in it has the stage with a wall at or above the 5 ms
    /// floor. `Err` says why the first override that cannot gate gates
    /// nothing.
    pub fn check_overrides(&self, baseline: &BenchReportSet) -> Result<(), String> {
        for (name, _) in &self.stage_wall_ratios {
            let wall = baseline
                .reports
                .iter()
                .filter_map(|r| r.stage(name))
                .map(|s| s.wall_ms)
                .reduce(f64::max);
            match wall {
                None => return Err(format!("baseline has no stage {name}")),
                Some(w) if w < MIN_WALL_MS => {
                    return Err(format!(
                        "stage {name} takes {w:.2} ms in the baseline, under the \
                         {MIN_WALL_MS} ms floor below which stages are skipped"
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Classification of one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within thresholds.
    Ok,
    /// Regressed beyond the threshold (or disappeared).
    Fail,
    /// Reported for context only; never gates.
    Info,
    /// Skipped: baseline too small to compare meaningfully.
    Skipped,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// Metric identifier (`stage:stage3_surrogate`, `hist:shap.chunk_ns p99`).
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value (`NaN` when missing).
    pub b: f64,
    /// `b / a` (regression factor; `NaN` when not comparable).
    pub ratio: f64,
    /// Classification.
    pub status: DiffStatus,
}

/// The result of [`diff_reports`].
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// All compared metrics, gating lines first.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Number of failing metrics.
    pub fn failures(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.status == DiffStatus::Fail)
            .count()
    }

    /// Whether the candidate passes the gate.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Renders a human-readable table (one line per metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let tag = match line.status {
                DiffStatus::Ok => "ok  ",
                DiffStatus::Fail => "FAIL",
                DiffStatus::Info => "info",
                DiffStatus::Skipped => "skip",
            };
            let ratio = if line.ratio.is_finite() {
                format!("{:>7.3}x", line.ratio)
            } else {
                "      --".to_string()
            };
            let b = if line.b.is_finite() {
                format!("{:>14.3}", line.b)
            } else {
                "       missing".to_string()
            };
            let _ = writeln!(
                out,
                "{tag}  {ratio}  {:>14.3} -> {b}  {}",
                line.a, line.metric
            );
        }
        let _ = writeln!(
            out,
            "{} metrics compared, {} failed",
            self.lines.len(),
            self.failures()
        );
        out
    }
}

/// Compares candidate `b` against baseline `a`. See the module docs for
/// semantics.
pub fn diff_reports(a: &BenchReport, b: &BenchReport, t: &DiffThresholds) -> DiffReport {
    let mut lines = Vec::new();

    // Reports at different scales measure different workloads.
    if (a.scale - b.scale).abs() > 1e-12 {
        lines.push(DiffLine {
            metric: "scale".into(),
            a: a.scale,
            b: b.scale,
            ratio: f64::NAN,
            status: DiffStatus::Fail,
        });
    }

    for stage in &a.stages {
        let metric = format!("stage:{} wall_ms", stage.name);
        match b.stage(&stage.name) {
            None => lines.push(DiffLine {
                metric,
                a: stage.wall_ms,
                b: f64::NAN,
                ratio: f64::NAN,
                status: DiffStatus::Fail,
            }),
            Some(cand) => {
                if stage.wall_ms < MIN_WALL_MS {
                    lines.push(DiffLine {
                        metric,
                        a: stage.wall_ms,
                        b: cand.wall_ms,
                        ratio: f64::NAN,
                        status: DiffStatus::Skipped,
                    });
                    continue;
                }
                let ratio = cand.wall_ms / stage.wall_ms;
                lines.push(DiffLine {
                    metric,
                    a: stage.wall_ms,
                    b: cand.wall_ms,
                    ratio,
                    status: if ratio > t.wall_ratio_for(&stage.name) {
                        DiffStatus::Fail
                    } else {
                        DiffStatus::Ok
                    },
                });
            }
        }
    }

    for (name, hist) in &a.histograms {
        let metric = format!("hist:{name} p99_ns");
        let base = hist.quantile(0.99) as f64;
        match b.histograms.get(name) {
            // New/removed instrumentation is informational: histogram
            // coverage changes with the code, unlike the stage set.
            None => lines.push(DiffLine {
                metric,
                a: base,
                b: f64::NAN,
                ratio: f64::NAN,
                status: DiffStatus::Info,
            }),
            Some(cand) => {
                if hist.quantile(0.99) < MIN_HIST_NS {
                    lines.push(DiffLine {
                        metric,
                        a: base,
                        b: cand.quantile(0.99) as f64,
                        ratio: f64::NAN,
                        status: DiffStatus::Skipped,
                    });
                    continue;
                }
                let candp = cand.quantile(0.99) as f64;
                let ratio = candp / base;
                lines.push(DiffLine {
                    metric,
                    a: base,
                    b: candp,
                    ratio,
                    status: if ratio > MAX_HIST_RATIO {
                        DiffStatus::Fail
                    } else {
                        DiffStatus::Ok
                    },
                });
            }
        }
    }

    // Throughput gauges: higher is better, so the regression factor is
    // a/b (how much throughput was lost).
    for (name, &base) in &a.gauges {
        if !name.ends_with("_per_sec") || base <= 0.0 {
            continue;
        }
        let metric = format!("gauge:{name}");
        match b.gauges.get(name) {
            None => lines.push(DiffLine {
                metric,
                a: base,
                b: f64::NAN,
                ratio: f64::NAN,
                status: DiffStatus::Info,
            }),
            Some(&cand) => {
                let ratio = if cand > 0.0 {
                    base / cand
                } else {
                    f64::INFINITY
                };
                lines.push(DiffLine {
                    metric,
                    a: base,
                    b: cand,
                    ratio,
                    status: if ratio > MAX_WALL_RATIO {
                        DiffStatus::Fail
                    } else {
                        DiffStatus::Ok
                    },
                });
            }
        }
    }

    // Footprint gauges: lower is better and the values are deterministic
    // functions of the workload, so the candidate gates directly on b/a.
    // Missing in the candidate is informational (instrumentation
    // coverage, like histograms) — the stage set is what must not shrink.
    for (name, &base) in &a.gauges {
        if !name.ends_with("_bytes") || base <= 0.0 {
            continue;
        }
        let metric = format!("gauge:{name}");
        match b.gauges.get(name) {
            None => lines.push(DiffLine {
                metric,
                a: base,
                b: f64::NAN,
                ratio: f64::NAN,
                status: DiffStatus::Info,
            }),
            Some(&cand) => {
                let ratio = cand / base;
                lines.push(DiffLine {
                    metric,
                    a: base,
                    b: cand,
                    ratio,
                    status: if ratio > MAX_BYTES_RATIO {
                        DiffStatus::Fail
                    } else {
                        DiffStatus::Ok
                    },
                });
            }
        }
    }

    // Allocator window peak (memory section): the number
    // `--mem-budget-mb` enforces at run time, gated across changes here.
    // Like every gate it is asymmetric — shrinkage passes. A report
    // without a memory section (a binary that did not count allocations)
    // degrades to informational.
    match (&a.memory, &b.memory) {
        (Some(ma), Some(mb)) if ma.peak_bytes > 0 => {
            let base = ma.peak_bytes as f64;
            let cand = mb.peak_bytes as f64;
            let ratio = cand / base;
            lines.push(DiffLine {
                metric: "mem:allocator_peak_bytes".into(),
                a: base,
                b: cand,
                ratio,
                status: if ratio > MAX_PEAK_RATIO {
                    DiffStatus::Fail
                } else {
                    DiffStatus::Ok
                },
            });
        }
        (Some(ma), _) => lines.push(DiffLine {
            metric: "mem:allocator_peak_bytes".into(),
            a: ma.peak_bytes as f64,
            b: b.memory.as_ref().map_or(f64::NAN, |m| m.peak_bytes as f64),
            ratio: f64::NAN,
            status: DiffStatus::Info,
        }),
        (None, Some(mb)) => lines.push(DiffLine {
            metric: "mem:allocator_peak_bytes".into(),
            a: f64::NAN,
            b: mb.peak_bytes as f64,
            ratio: f64::NAN,
            status: DiffStatus::Info,
        }),
        (None, None) => {}
    }

    for (name, &base) in &a.counters {
        let cand = b.counters.get(name).copied();
        if cand == Some(base) {
            continue; // unchanged counters are noise in the output
        }
        lines.push(DiffLine {
            metric: format!("counter:{name}"),
            a: base as f64,
            b: cand.map(|c| c as f64).unwrap_or(f64::NAN),
            ratio: f64::NAN,
            status: DiffStatus::Info,
        });
    }

    lines.sort_by_key(|l| match l.status {
        DiffStatus::Fail => 0,
        DiffStatus::Ok => 1,
        DiffStatus::Skipped => 2,
        DiffStatus::Info => 3,
    });
    DiffReport { lines }
}

/// Renders the `icn obs top` self-time treetable for a report: every span
/// path as an indented tree with calls, total wall and self time (total
/// minus direct children), sorted within each level by self time
/// descending.
pub fn render_top(report: &BenchReport) -> String {
    let times = self_times(&report.spans);
    let mut entries: Vec<(&String, &(u64, std::time::Duration, std::time::Duration))> =
        times.iter().collect();
    // Stable tree order: parents before children (BTreeMap path order),
    // then self-time descending among siblings.
    entries.sort_by(|(pa, ta), (pb, tb)| {
        let depth_a = pa.matches('/').count();
        let depth_b = pb.matches('/').count();
        let parent_a = pa.rsplit_once('/').map(|(p, _)| p).unwrap_or("");
        let parent_b = pb.rsplit_once('/').map(|(p, _)| p).unwrap_or("");
        (parent_a, depth_a)
            .cmp(&(parent_b, depth_b))
            .then(tb.2.cmp(&ta.2))
    });
    let mut out = String::new();
    // When the report carries a memory section, the treetable gains
    // self/cumulative allocation columns next to the time columns.
    let mem = report.memory.as_ref();
    if mem.is_some() {
        let _ = writeln!(
            out,
            "{:>8}  {:>12}  {:>12}  {:>14}  {:>14}  span",
            "calls", "total_ms", "self_ms", "self_alloc_b", "cum_alloc_b"
        );
    } else {
        let _ = writeln!(
            out,
            "{:>8}  {:>12}  {:>12}  span",
            "calls", "total_ms", "self_ms"
        );
    }
    // Emit as a tree: walk paths depth-first using the path prefix.
    let mut ordered: Vec<&String> = Vec::new();
    fn push_children<'a>(
        parent: &str,
        entries: &[(&'a String, &(u64, std::time::Duration, std::time::Duration))],
        ordered: &mut Vec<&'a String>,
    ) {
        for (path, _) in entries {
            let is_child = match path.rsplit_once('/') {
                Some((p, _)) => p == parent,
                None => parent.is_empty(),
            };
            if is_child {
                ordered.push(path);
                push_children(path, entries, ordered);
            }
        }
    }
    push_children("", &entries, &mut ordered);
    for path in ordered {
        let &(calls, total, own) = &times[path];
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        if let Some(m) = mem {
            let self_b = m.spans.get(path).map_or(0, |a| a.bytes);
            let _ = writeln!(
                out,
                "{:>8}  {:>12.3}  {:>12.3}  {:>14}  {:>14}  {}{}",
                calls,
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3,
                self_b,
                cumulative_bytes(&m.spans, path),
                "  ".repeat(depth),
                leaf
            );
        } else {
            let _ = writeln!(
                out,
                "{:>8}  {:>12.3}  {:>12.3}  {}{}",
                calls,
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3,
                "  ".repeat(depth),
                leaf
            );
        }
    }
    out
}

/// Cumulative allocation bytes for a path: its own self bytes plus every
/// descendant's (path-prefix sum). Valid at any thread count because the
/// table stores *self* figures per path — cross-thread children carry
/// their own rows, never double-counted in the dispatcher's.
fn cumulative_bytes(
    spans: &std::collections::BTreeMap<String, crate::SpanAlloc>,
    path: &str,
) -> u64 {
    spans
        .iter()
        .filter(|(p, _)| {
            p.as_str() == path
                || (p.starts_with(path) && p.as_bytes().get(path.len()) == Some(&b'/'))
        })
        .map(|(_, a)| a.bytes)
        .sum()
}

/// Renders the `icn obs mem` allocation treetable for a report: the
/// allocator window summary followed by every span path as an indented
/// tree with self bytes, cumulative bytes (self + descendants), self
/// allocation count, and the path's largest single-occurrence peak
/// contribution. Reports without a memory section (produced by a binary
/// without a counting allocator) render an explanatory line instead.
pub fn render_mem(report: &BenchReport) -> String {
    let Some(mem) = &report.memory else {
        return "no memory section: the producing binary did not count allocations\n".to_string();
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "allocator window: peak {} B, net live {} B, churn {} B ({} allocs / {} frees)",
        mem.peak_bytes, mem.live_bytes, mem.total_alloc_bytes, mem.total_allocs, mem.total_frees
    );
    if let Some(hwm) = mem.vm_hwm_bytes {
        let _ = writeln!(out, "process VmHWM: {hwm} B (whole lifetime, not windowed)");
    }
    if let Some(budget) = mem.budget_mb {
        let _ = writeln!(
            out,
            "budget: {budget} MiB -> {}",
            mem.budget_verdict.as_deref().unwrap_or("unknown")
        );
    }
    let _ = writeln!(
        out,
        "{:>14}  {:>14}  {:>8}  {:>14}  span",
        "self_bytes", "cum_bytes", "allocs", "peak_growth_b"
    );
    // Same depth-first tree walk as `render_top`, ordered by cumulative
    // bytes descending among siblings.
    let mut ordered: Vec<&String> = Vec::new();
    fn push_children<'a>(
        parent: &str,
        spans: &'a std::collections::BTreeMap<String, crate::SpanAlloc>,
        ordered: &mut Vec<&'a String>,
    ) {
        let mut level: Vec<&String> = spans
            .keys()
            .filter(|path| match path.rsplit_once('/') {
                Some((p, _)) => p == parent,
                None => parent.is_empty(),
            })
            .collect();
        level.sort_by_key(|path| std::cmp::Reverse(cumulative_bytes(spans, path)));
        for path in level {
            ordered.push(path);
            push_children(path, spans, ordered);
        }
    }
    push_children("", &mem.spans, &mut ordered);
    for path in ordered {
        let a = &mem.spans[path.as_str()];
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            out,
            "{:>14}  {:>14}  {:>8}  {:>14}  {}{}",
            a.bytes,
            cumulative_bytes(&mem.spans, path),
            a.allocs,
            a.peak_growth_bytes,
            "  ".repeat(depth),
            leaf
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::Registry;
    use std::time::Duration;

    fn report_with(stage_ms: f64, p99_base_ns: u64, throughput: f64) -> BenchReport {
        let r = Registry::new();
        r.enable();
        r.record_span_parts(
            "stage3_surrogate".into(),
            Duration::from_secs_f64(stage_ms / 1e3),
        );
        r.record_span_parts(
            "stage3_surrogate/shap_batch".into(),
            Duration::from_secs_f64(stage_ms / 2e3),
        );
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(p99_base_ns + i);
        }
        r.merge_hist("shap.chunk_ns", &h);
        r.set_gauge("shap.samples_per_sec", throughput);
        r.add_counter("shap.tree_walks", 1234);
        BenchReport::build(&r.snapshot(), "t", 1.0)
    }

    #[test]
    fn self_diff_passes() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let d = diff_reports(&a, &a, &DiffThresholds::default());
        assert!(d.passed(), "self-diff must pass:\n{}", d.render());
    }

    #[test]
    fn wall_regression_fails_and_speedup_passes() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let slow = report_with(250.0, 50_000_000, 1000.0);
        let fast = report_with(40.0, 50_000_000, 1000.0);
        assert!(!diff_reports(&a, &slow, &DiffThresholds::default()).passed());
        assert!(diff_reports(&a, &fast, &DiffThresholds::default()).passed());
    }

    #[test]
    fn tiny_stages_are_skipped() {
        let a = report_with(2.0, 50_000_000, 1000.0);
        let b = report_with(4.9, 50_000_000, 1000.0); // 2.45x but under the 5 ms floor
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.status == DiffStatus::Skipped && l.metric.starts_with("stage:")));
    }

    #[test]
    fn histogram_p99_regression_fails() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let b = report_with(100.0, 200_000_000, 1000.0);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(!d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.status == DiffStatus::Fail && l.metric.starts_with("hist:")));
        // The same 4x shift below the 10 ms floor is micro-scale noise.
        let a = report_with(100.0, 50_000, 1000.0);
        let b = report_with(100.0, 200_000, 1000.0);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed(), "{}", d.render());
        assert!(d
            .lines
            .iter()
            .any(|l| l.status == DiffStatus::Skipped && l.metric.starts_with("hist:")));
    }

    #[test]
    fn throughput_drop_fails() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let b = report_with(100.0, 50_000_000, 400.0);
        assert!(!diff_reports(&a, &b, &DiffThresholds::default()).passed());
    }

    #[test]
    fn scale_mismatch_fails() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let mut b = report_with(100.0, 50_000_000, 1000.0);
        b.scale = 0.5;
        assert!(!diff_reports(&a, &b, &DiffThresholds::default()).passed());
    }

    #[test]
    fn bytes_gauges_gate_on_growth_not_shrinkage() {
        let mut a = report_with(100.0, 50_000_000, 1000.0);
        a.gauges
            .insert("cluster.condensed_bytes".into(), 1_000_000.0);
        // Within the 1.2x default: passes.
        let mut b = report_with(100.0, 50_000_000, 1000.0);
        b.gauges
            .insert("cluster.condensed_bytes".into(), 1_100_000.0);
        assert!(diff_reports(&a, &b, &DiffThresholds::default()).passed());
        // Shrinking is a win, never a failure.
        b.gauges.insert("cluster.condensed_bytes".into(), 10_000.0);
        assert!(diff_reports(&a, &b, &DiffThresholds::default()).passed());
        // Growth past the ratio fails, even with identical walls.
        b.gauges
            .insert("cluster.condensed_bytes".into(), 2_000_000.0);
        let diff = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(!diff.passed());
        assert!(diff
            .lines
            .iter()
            .any(|l| l.metric == "gauge:cluster.condensed_bytes" && l.status == DiffStatus::Fail));
        // Missing in the candidate is informational, like histograms.
        let c = report_with(100.0, 50_000_000, 1000.0);
        assert!(diff_reports(&a, &c, &DiffThresholds::default()).passed());
    }

    #[test]
    fn missing_stage_fails() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let r = Registry::new();
        r.enable();
        r.record_span_parts("other_stage".into(), Duration::from_millis(10));
        let b = BenchReport::build(&r.snapshot(), "t", 1.0);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(!d.passed());
        assert!(d.lines.iter().any(
            |l| l.metric.starts_with("stage:stage3_surrogate") && l.status == DiffStatus::Fail
        ));
    }

    #[test]
    fn per_stage_wall_ratio_overrides_the_global_bound() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let b = report_with(150.0, 50_000_000, 1000.0); // 1.5x: under the 2x default
        assert!(diff_reports(&a, &b, &DiffThresholds::default()).passed());
        let tight = DiffThresholds {
            stage_wall_ratios: vec![("stage3_surrogate".into(), 1.3)],
        };
        let d = diff_reports(&a, &b, &tight);
        assert!(!d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "stage:stage3_surrogate wall_ms" && l.status == DiffStatus::Fail));
        // Last matching override wins.
        let loosened = DiffThresholds {
            stage_wall_ratios: vec![
                ("stage3_surrogate".into(), 1.3),
                ("stage3_surrogate".into(), 1.8),
            ],
        };
        assert!(diff_reports(&a, &b, &loosened).passed());
    }

    #[test]
    fn changed_counters_are_informational() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let mut b = report_with(100.0, 50_000_000, 1000.0);
        b.counters.insert("shap.tree_walks".into(), 999);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "counter:shap.tree_walks" && l.status == DiffStatus::Info));
    }

    #[test]
    fn top_table_is_a_tree() {
        let a = report_with(100.0, 50_000_000, 1000.0);
        let table = render_top(&a);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[1].contains("stage3_surrogate"));
        assert!(lines[2].contains("  shap_batch"));
    }

    fn memory_with(peak: u64) -> crate::MemoryReport {
        crate::MemoryReport {
            live_bytes: 1024,
            peak_bytes: peak,
            total_alloc_bytes: peak * 2,
            total_allocs: 10,
            total_frees: 8,
            vm_hwm_bytes: None,
            budget_mb: None,
            budget_verdict: None,
            spans: std::collections::BTreeMap::new(),
        }
    }

    #[test]
    fn allocator_peak_gates_growth_not_shrinkage() {
        let mut a = report_with(100.0, 50_000_000, 1000.0);
        a.memory = Some(memory_with(100 << 20));
        // 1.4x growth: under the 1.5x default.
        let mut b = report_with(100.0, 50_000_000, 1000.0);
        b.memory = Some(memory_with(140 << 20));
        assert!(diff_reports(&a, &b, &DiffThresholds::default()).passed());
        // Shrinkage is a win, never a failure.
        b.memory = Some(memory_with(10 << 20));
        assert!(diff_reports(&a, &b, &DiffThresholds::default()).passed());
        // 2.5x growth fails, even with identical walls and gauges.
        b.memory = Some(memory_with(250 << 20));
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(!d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Fail));
    }

    #[test]
    fn missing_memory_section_is_informational_both_ways() {
        // A baseline without a memory section against a counted candidate
        // (and vice versa) must not fail the gate.
        let plain = report_with(100.0, 50_000_000, 1000.0);
        let mut counted = report_with(100.0, 50_000_000, 1000.0);
        counted.memory = Some(memory_with(100 << 20));
        for (base, cand) in [(&plain, &counted), (&counted, &plain)] {
            let d = diff_reports(base, cand, &DiffThresholds::default());
            assert!(d.passed(), "{}", d.render());
            assert!(d
                .lines
                .iter()
                .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Info));
        }
        // Neither side counted: no line at all.
        let d = diff_reports(&plain, &plain, &DiffThresholds::default());
        assert!(!d.lines.iter().any(|l| l.metric.starts_with("mem:")));
    }

    #[test]
    fn mem_table_renders_summary_and_tree() {
        let mut rep = report_with(100.0, 50_000_000, 1000.0);
        let mut mem = memory_with(5000);
        mem.budget_mb = Some(512);
        mem.budget_verdict = Some("ok".into());
        mem.spans.insert(
            "stage3_surrogate".into(),
            crate::SpanAlloc {
                bytes: 1000,
                allocs: 3,
                peak_growth_bytes: 5000,
            },
        );
        mem.spans.insert(
            "stage3_surrogate/shap_batch".into(),
            crate::SpanAlloc {
                bytes: 250,
                allocs: 2,
                peak_growth_bytes: 250,
            },
        );
        rep.memory = Some(mem);
        let table = render_mem(&rep);
        assert!(table.contains("peak 5000 B"));
        assert!(table.contains("budget: 512 MiB -> ok"));
        let lines: Vec<&str> = table.lines().collect();
        let root = lines
            .iter()
            .find(|l| l.ends_with("stage3_surrogate"))
            .unwrap();
        // Cumulative = self (1000) + child (250).
        assert!(root.contains("1250"));
        assert!(table.contains("  shap_batch"));
        // A report without a memory section explains itself.
        let plain = report_with(100.0, 50_000_000, 1000.0);
        assert!(render_mem(&plain).contains("no memory section"));
    }

    #[test]
    fn top_table_gains_alloc_columns_with_memory() {
        let mut rep = report_with(100.0, 50_000_000, 1000.0);
        assert!(!render_top(&rep).contains("cum_alloc_b"));
        let mut mem = memory_with(5000);
        mem.spans.insert(
            "stage3_surrogate".into(),
            crate::SpanAlloc {
                bytes: 4096,
                allocs: 1,
                peak_growth_bytes: 4096,
            },
        );
        rep.memory = Some(mem);
        let table = render_top(&rep);
        assert!(table.contains("cum_alloc_b"));
        assert!(table.contains("4096"));
    }
}
