//! Report comparison (`icn obs diff`), self-time treetable
//! (`icn obs top`) and allocation treetable (`icn obs mem`).
//!
//! [`diff_reports`] compares two [`BenchReport`]s — a blessed baseline
//! `a` and a candidate `b` — against fixed per-metric thresholds and
//! classifies every metric as pass / fail / informational. CI uses it as
//! a regression gate on live runs. One walk over the span rows gates both
//! kinds: a top-level row (a stage) on its wall, a nested row on its p99
//! occurrence. Generous thresholds (fail only when either gets more than
//! 2× slower) keep the gate insensitive to shared-runner noise while
//! still catching real regressions. Tiny absolute walls (a stage below
//! 5 ms, a nested span whose p99 is below 10 ms) are skipped entirely — a
//! 3 ms stage doubling to 6 ms is scheduler noise, not a regression. A
//! nested span with one call gates on its wall, since that is its p99.
//! `*_bytes` gauges fail above 1.2× and the allocator peak above 1.5×.
//!
//! The comparison is deliberately asymmetric: `b` getting *faster* never
//! fails, and metrics present only in `b` (new instrumentation) are
//! informational, as are nested span paths only `a` has. A stage present
//! in `a` but missing from `b` fails — a silently skipped stage must not
//! read as a speedup. Counters never gate; changed ones are listed for
//! context. [`DiffThresholds::stage_wall_ratios`] holds individual hot
//! stages to tighter bounds than the 2× default — the one tunable
//! threshold.
//!
//! [`render_top`] and [`render_mem`] draw the span rows as one
//! depth-first tree: the first orders siblings by self time, the second
//! by cumulative allocated bytes.

use crate::report::{BenchReport, BenchReportSet};
use crate::trace::{self_times, SpanStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Maximum allowed `b/a` wall-time ratio for stages.
const MAX_WALL_RATIO: f64 = 2.0;

/// Stages with a baseline wall below this many milliseconds are skipped.
const MIN_WALL_MS: f64 = 5.0;

/// Maximum allowed `b/a` ratio for nested spans' p99 occurrence walls.
const MAX_P99_RATIO: f64 = 2.0;

/// Nested spans with a baseline p99 below this many milliseconds are
/// skipped: per-tree and per-merge task walls are micro-scale and
/// dominated by scheduling noise on shared runners, so only chunk-scale
/// tasks and whole sub-stages gate.
const MIN_P99_MS: f64 = 10.0;

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
    /// some report in it has the stage as a top-level span row with a wall
    /// at or above the 5 ms floor. `Err` says why the first override that
    /// cannot gate gates nothing.
    pub fn check_overrides(&self, baseline: &BenchReportSet) -> Result<(), String> {
        for (name, _) in &self.stage_wall_ratios {
            let wall = baseline
                .reports
                .iter()
                // A nested path is never a stage.
                .filter_map(|r| r.spans.get(name).filter(|_| !name.contains('/')))
                .map(|s| ms(s.wall))
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
    /// Metric identifier (`stage:stage3_surrogate wall_ms`,
    /// `span:stage3_surrogate/shap_batch p99_ms`).
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

/// Milliseconds of a span time.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One gated metric: skipped under `floor`, failing above `bound`, and
/// `missing` when the candidate lacks it.
fn gate(
    metric: String,
    a: f64,
    b: Option<f64>,
    floor: f64,
    bound: f64,
    missing: DiffStatus,
) -> DiffLine {
    let (b, ratio, status) = match b {
        None => (f64::NAN, f64::NAN, missing),
        Some(b) if a < floor => (b, f64::NAN, DiffStatus::Skipped),
        Some(b) if b / a > bound => (b, b / a, DiffStatus::Fail),
        Some(b) => (b, b / a, DiffStatus::Ok),
    };
    DiffLine {
        metric,
        a,
        b,
        ratio,
        status,
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

    // Span rows, walked once. A top-level row is a stage: it gates on its
    // wall, and missing from the candidate it fails. A nested row gates
    // on its per-task p99; span coverage changes with the code, so a
    // path the candidate lacks is informational. Stage lines come first.
    let mut nested = Vec::new();
    for (path, span) in &a.spans {
        let cand = b.spans.get(path);
        if path.contains('/') {
            let metric = format!("span:{path} p99_ms");
            let p99 = cand.map(|c| ms(c.p99));
            nested.push(gate(
                metric,
                ms(span.p99),
                p99,
                MIN_P99_MS,
                MAX_P99_RATIO,
                DiffStatus::Info,
            ));
        } else {
            let metric = format!("stage:{path} wall_ms");
            let (wall, bound) = (cand.map(|c| ms(c.wall)), t.wall_ratio_for(path));
            lines.push(gate(
                metric,
                ms(span.wall),
                wall,
                MIN_WALL_MS,
                bound,
                DiffStatus::Fail,
            ));
        }
    }
    lines.append(&mut nested);

    // Footprint gauges: lower is better and the values are deterministic
    // functions of the workload, so the candidate gates directly on b/a.
    // Missing in the candidate is informational (instrumentation
    // coverage, like span paths) — the stage set is what must not shrink.
    for (name, &base) in &a.gauges {
        if !name.ends_with("_bytes") || base <= 0.0 {
            continue;
        }
        let cand = b.gauges.get(name).copied();
        lines.push(gate(
            format!("gauge:{name}"),
            base,
            cand,
            0.0,
            MAX_BYTES_RATIO,
            DiffStatus::Info,
        ));
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

/// The span paths in depth-first tree order: every row is followed by its
/// subtree, and siblings are ordered by `key` descending (ties in path
/// order). The one tree walk behind [`render_top`] and [`render_mem`].
fn tree_order<K: Ord>(spans: &BTreeMap<String, SpanStats>, key: impl Fn(&str) -> K) -> Vec<&str> {
    fn visit<'a, K: Ord>(
        parent: &str,
        spans: &'a BTreeMap<String, SpanStats>,
        key: &impl Fn(&str) -> K,
        out: &mut Vec<&'a str>,
    ) {
        let mut level: Vec<&str> = spans
            .keys()
            .map(String::as_str)
            .filter(|path| path.rsplit_once('/').map_or("", |(p, _)| p) == parent)
            .collect();
        level.sort_by_key(|path| std::cmp::Reverse(key(path)));
        for path in level {
            out.push(path);
            visit(path, spans, key, out);
        }
    }
    let mut out = Vec::with_capacity(spans.len());
    visit("", spans, &key, &mut out);
    out
}

/// A row's label in a treetable: its leaf name, indented by depth.
fn label(path: &str) -> String {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    format!("{}{leaf}", "  ".repeat(path.matches('/').count()))
}

/// Cumulative allocation bytes for a path: its own self bytes plus every
/// descendant's (path-prefix sum). Valid at any thread count because rows
/// carry *self* figures — cross-thread children have their own rows,
/// never double-counted in the dispatcher's.
fn cumulative_bytes(spans: &BTreeMap<String, SpanStats>, path: &str) -> u64 {
    spans
        .iter()
        .filter(|(p, _)| {
            p.as_str() == path
                || (p.starts_with(path) && p.as_bytes().get(path.len()) == Some(&b'/'))
        })
        .map(|(_, s)| s.alloc_bytes)
        .sum()
}

/// Renders the `icn obs top` self-time treetable for a report: every span
/// row as an indented tree with calls, total wall and self time (total
/// minus direct children), sorted within each level by self time
/// descending. With a memory section it gains self and cumulative
/// allocation columns.
pub fn render_top(report: &BenchReport) -> String {
    let own = self_times(&report.spans);
    let with_mem = report.memory.is_some();
    let mut out = String::new();
    let _ = write!(
        out,
        "{:>8}  {:>12}  {:>12}  ",
        "calls", "total_ms", "self_ms"
    );
    if with_mem {
        let _ = write!(out, "{:>14}  {:>14}  ", "self_alloc_b", "cum_alloc_b");
    }
    out.push_str("span\n");
    for path in tree_order(&report.spans, |p| own[p]) {
        let s = &report.spans[path];
        let _ = write!(
            out,
            "{:>8}  {:>12.3}  {:>12.3}  ",
            s.calls,
            ms(s.wall),
            ms(own[path])
        );
        if with_mem {
            let cum = cumulative_bytes(&report.spans, path);
            let _ = write!(out, "{:>14}  {:>14}  ", s.alloc_bytes, cum);
        }
        let _ = writeln!(out, "{}", label(path));
    }
    out
}

/// Renders the `icn obs mem` allocation treetable for a report: the
/// allocator window summary followed by every span row as an indented
/// tree with self bytes, cumulative bytes (self + descendants), self
/// allocation count, and the path's largest single-occurrence peak
/// contribution, sorted within each level by cumulative bytes
/// descending. Reports without a memory section (produced by a binary
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
    let cum = |path: &str| cumulative_bytes(&report.spans, path);
    for path in tree_order(&report.spans, cum) {
        let s = &report.spans[path];
        let _ = writeln!(
            out,
            "{:>14}  {:>14}  {:>8}  {:>14}  {}",
            s.alloc_bytes,
            cum(path),
            s.allocs,
            s.peak_growth_bytes,
            label(path)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::SpanStats;
    use std::time::Duration;

    const CHUNK: &str = "stage3_surrogate/shap_batch/shap_chunk";

    /// A stage-3 report: the stage, one `shap_batch` call of half its
    /// wall, and one `shap_chunk` occurrence per entry of `chunk_ms`.
    fn report_with(stage_ms: f64, chunk_ms: &[f64]) -> BenchReport {
        let r = Registry::new();
        r.enable();
        let ms = |v: f64| Duration::from_secs_f64(v / 1e3);
        r.record_span_parts("stage3_surrogate".into(), ms(stage_ms));
        r.record_span_parts("stage3_surrogate/shap_batch".into(), ms(stage_ms / 2.0));
        for &c in chunk_ms {
            r.record_span_parts(CHUNK.into(), ms(c));
        }
        r.add_counter("shap.tree_walks", 1234);
        BenchReport::build(&r.snapshot(), "t", 1.0)
    }

    /// 100 chunk occurrences of 20.0, 20.1, …, 29.9 ms: p99 29.8 ms.
    fn chunks() -> Vec<f64> {
        (0..100).map(|i| 20.0 + f64::from(i) * 0.1).collect()
    }

    fn base() -> BenchReport {
        report_with(100.0, &chunks())
    }

    fn status_of(d: &DiffReport, metric: &str) -> Option<DiffStatus> {
        d.lines
            .iter()
            .find(|l| l.metric == metric)
            .map(|l| l.status)
    }

    #[test]
    fn self_diff_passes() {
        let a = base();
        let d = diff_reports(&a, &a, &DiffThresholds::default());
        assert!(d.passed(), "self-diff must pass:\n{}", d.render());
    }

    #[test]
    fn wall_regression_fails_and_speedup_passes() {
        let a = base();
        let slow = report_with(250.0, &chunks());
        let fast = report_with(40.0, &chunks());
        assert!(!diff_reports(&a, &slow, &DiffThresholds::default()).passed());
        assert!(diff_reports(&a, &fast, &DiffThresholds::default()).passed());
    }

    #[test]
    fn tiny_stages_are_skipped() {
        let a = report_with(2.0, &chunks());
        let b = report_with(4.9, &chunks()); // 2.45x but under the 5 ms floor
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.status == DiffStatus::Skipped && l.metric.starts_with("stage:")));
    }

    #[test]
    fn multi_call_p99_regression_fails() {
        let a = base();
        let metric = format!("span:{CHUNK} p99_ms");
        // Five of 100 tasks at 80 ms: the 99th smallest is 80 ms, 2.7x
        // the baseline's 29.8 ms, with the stage wall unchanged.
        let mut tail = chunks();
        tail[95..].fill(80.0);
        let d = diff_reports(&a, &report_with(100.0, &tail), &DiffThresholds::default());
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(status_of(&d, &metric), Some(DiffStatus::Fail));
        // One slow task of 100 is above the 99th rank and cannot fail it.
        let mut outlier = chunks();
        outlier[99] = 500.0;
        let d = diff_reports(
            &a,
            &report_with(100.0, &outlier),
            &DiffThresholds::default(),
        );
        assert!(d.passed(), "{}", d.render());
        assert_eq!(status_of(&d, &metric), Some(DiffStatus::Ok));
    }

    #[test]
    fn sub_10ms_p99s_are_skipped() {
        // A 4x shift of 1 ms tasks is micro-scale noise.
        let a = report_with(100.0, &[1.0; 100]);
        let b = report_with(100.0, &[4.0; 100]);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(
            status_of(&d, &format!("span:{CHUNK} p99_ms")),
            Some(DiffStatus::Skipped)
        );
    }

    #[test]
    fn single_call_nested_span_gates_on_its_wall() {
        let a = base();
        let mut b = base();
        // shap_batch: one call of 50 ms in `a`; 125 ms here, stage unchanged.
        let batch = Duration::from_millis(125);
        b.spans.insert(
            "stage3_surrogate/shap_batch".into(),
            SpanStats {
                calls: 1,
                wall: batch,
                p99: batch,
                ..SpanStats::default()
            },
        );
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(
            status_of(&d, "span:stage3_surrogate/shap_batch p99_ms"),
            Some(DiffStatus::Fail)
        );
        assert_eq!(
            status_of(&d, "stage:stage3_surrogate wall_ms"),
            Some(DiffStatus::Ok)
        );
    }

    #[test]
    fn span_path_missing_from_the_candidate_is_informational() {
        let a = base();
        let mut b = base();
        b.spans.remove(CHUNK);
        let d = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(
            status_of(&d, &format!("span:{CHUNK} p99_ms")),
            Some(DiffStatus::Info)
        );
        // Top-level paths are stages: gated on wall, not repeated as spans.
        assert_eq!(status_of(&d, "span:stage3_surrogate p99_ms"), None);
    }

    #[test]
    fn scale_mismatch_fails() {
        let a = base();
        let mut b = base();
        b.scale = 0.5;
        assert!(!diff_reports(&a, &b, &DiffThresholds::default()).passed());
    }

    #[test]
    fn bytes_gauges_gate_on_growth_not_shrinkage() {
        let mut a = base();
        a.gauges
            .insert("cluster.condensed_bytes".into(), 1_000_000.0);
        // Within the 1.2x default: passes.
        let mut b = base();
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
        // Missing in the candidate is informational, like span paths.
        let c = base();
        assert!(diff_reports(&a, &c, &DiffThresholds::default()).passed());
    }

    #[test]
    fn missing_stage_fails() {
        let a = base();
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
        let a = base();
        let b = report_with(150.0, &chunks()); // 1.5x: under the 2x default
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
        let a = base();
        let mut b = base();
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
        let a = base();
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
        }
    }

    #[test]
    fn allocator_peak_gates_growth_not_shrinkage() {
        let mut a = base();
        a.memory = Some(memory_with(100 << 20));
        // 1.4x growth: under the 1.5x default.
        let mut b = base();
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
        let plain = base();
        let mut counted = base();
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

    /// Sets a span row's self allocation figures.
    fn alloc(rep: &mut BenchReport, path: &str, bytes: u64, allocs: u64, peak: u64) {
        let row = rep.spans.get_mut(path).unwrap();
        (row.alloc_bytes, row.allocs, row.peak_growth_bytes) = (bytes, allocs, peak);
    }

    #[test]
    fn mem_table_renders_summary_and_tree() {
        let mut rep = base();
        let mut mem = memory_with(5000);
        mem.budget_mb = Some(512);
        mem.budget_verdict = Some("ok".into());
        rep.memory = Some(mem);
        alloc(&mut rep, "stage3_surrogate", 1000, 3, 5000);
        alloc(&mut rep, "stage3_surrogate/shap_batch", 250, 2, 250);
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
        // Every span row is drawn, with or without allocations.
        assert!(table.contains("    shap_chunk"));
        // A report without a memory section explains itself.
        let plain = base();
        assert!(render_mem(&plain).contains("no memory section"));
    }

    #[test]
    fn top_table_gains_alloc_columns_with_memory() {
        let mut rep = base();
        assert!(!render_top(&rep).contains("cum_alloc_b"));
        rep.memory = Some(memory_with(5000));
        alloc(&mut rep, "stage3_surrogate", 4096, 1, 4096);
        let table = render_top(&rep);
        assert!(table.contains("cum_alloc_b"));
        assert!(table.contains("4096"));
    }
}
