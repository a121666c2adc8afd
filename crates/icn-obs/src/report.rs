//! Machine-readable run reports (`--metrics-out`).
//!
//! A [`BenchReport`] freezes a [`crate::Registry`] snapshot into a stable
//! JSON schema (`icn-obs/v5`) that `icn obs top|mem` render and
//! `icn obs diff` gates against a blessed baseline:
//!
//! ```json
//! {
//!   "schema": "icn-obs/v5",
//!   "run_id": "all_experiments",
//!   "scale": 1.0,
//!   "env": {"os": "linux", "arch": "x86_64", "threads": 16, "unix_time": 0,
//!           "git_commit": "a9df246...", "chunk": 512},
//!   "spans": [{"path": "stage2_cluster", "calls": 1, "wall_ms": 1234.5,
//!              "p99_ms": 1234.5, "self_ms": 12.0, "alloc_bytes": 4096,
//!              "allocs": 3, "peak_growth_bytes": 4096},
//!             {"path": "stage3_surrogate/shap_batch/shap_chunk", "calls": 64,
//!              "wall_ms": 200.0, "p99_ms": 4.1, "self_ms": 200.0,
//!              "alloc_bytes": 0, "allocs": 0, "peak_growth_bytes": 0}],
//!   "counters": {"cluster.merges": 4761},
//!   "gauges": {"cluster.condensed_bytes": 90682880},
//!   "memory": {
//!     "allocator": {"live_bytes": 104857, "peak_bytes": 412000000,
//!                   "total_alloc_bytes": 900000000,
//!                   "allocs": 120000, "frees": 119000},
//!     "vm_hwm_bytes": 523000000
//!   }
//! }
//! ```
//!
//! The span row is the one per-span record. Every row carries calls, total
//! wall, `p99_ms` — the exact p99 of its occurrence walls
//! ([`SpanStats::p99`]), the one per-task latency statistic — and
//! `self_ms`. A **stage** is a top-level row (a path without a `/`); the
//! documented top-level set is [`PIPELINE_STAGES`] plus
//! [`FORECAST_STAGE`]. Counters live once, at the root. When the report
//! has a memory section, every row also carries its *self* allocation
//! figures (`alloc_bytes`, `allocs`, `peak_growth_bytes`; see
//! [`SpanStats`]).
//!
//! **Versioning.** [`BenchReport::parse`] reads exactly the schema this
//! crate writes. It rejects a span row whose `calls`, `wall_ms` or
//! `p99_ms` is missing, negative or not finite, or whose time is too large
//! for a `Duration`; absent allocation fields read as 0, and present ones,
//! like counters and memory numbers, must be whole numbers in `0..=2^53`.
//! Its one optional section is `memory` ([`MemoryReport`]): the allocator
//! window from [`crate::mem`], `VmHWM` where readable, and the
//! `--mem-budget-mb` verdict when a budget was enforced. It is emitted
//! only when the run actually counted allocations (a
//! [`crate::mem::CountingAlloc`] was installed and the window saw
//! traffic); reports from uncounted binaries simply omit it.

use crate::json::{counters_obj, Json};
use crate::registry::Snapshot;
use crate::trace::SpanStats;
use std::collections::BTreeMap;
use std::time::Duration;

/// Schema identifier embedded in every report this crate writes, and the
/// only one [`BenchReport::parse`] accepts.
pub(crate) const SCHEMA: &str = "icn-obs/v5";

/// Schema identifier for a multi-configuration report *set* — the file
/// `icn <cmd> --threads-sweep 1,2 --metrics-out` writes: one
/// [`BenchReport`] per worker-thread count, produced by a single
/// invocation so every run shares the binary, dataset and machine state.
pub(crate) const SET_SCHEMA: &str = "icn-bench-set/1";

/// The five pipeline stages of `IcnStudy::run`, in execution order. The
/// observability tests pin the stage set of a metered pipeline run to
/// exactly this list.
pub const PIPELINE_STAGES: [&str; 5] = [
    "stage1_transform",
    "stage2_cluster",
    "stage3_surrogate",
    "stage4_environments",
    "stage5_outdoor",
];

/// The opt-in stage-6 forecast span (`StudyConfig::run_forecast`). Kept
/// out of [`PIPELINE_STAGES`] so the default five-stage pipeline — and
/// every golden pinned to it — is unchanged when forecasting is off.
pub const FORECAST_STAGE: &str = "stage6_forecast";

/// Execution environment fingerprint, which makes reports self-describing:
/// besides OS/arch/threads, it records the producing git commit (when the
/// working directory is inside a repository) and — for ingest runs — the
/// chunk size. The run's population scale is the report's own
/// [`BenchReport::scale`].
#[derive(Clone, Debug, PartialEq)]
pub struct EnvInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Worker-thread count the run actually used: the `ICN_THREADS`
    /// override when set, otherwise the available hardware parallelism —
    /// the same resolution rule as `icn_stats::par::thread_count` (this
    /// crate is dependency-free, so it reads the variable itself).
    pub threads: usize,
    /// Seconds since the Unix epoch when the report was built.
    pub unix_time: u64,
    /// Git commit hash of the producing tree, when discoverable by
    /// walking up from the working directory (no subprocess is spawned —
    /// `.git/HEAD` and, if needed, `packed-refs` are read directly).
    pub git_commit: Option<String>,
    /// Ingest chunk size in records, when the producing harness streams
    /// (`icn ingest --chunk N`); `None` for batch runs.
    pub chunk: Option<u64>,
}

impl EnvInfo {
    /// Captures the current environment. `chunk` stays `None` unless the
    /// harness sets it.
    pub(crate) fn capture() -> EnvInfo {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = std::env::var("ICN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or(hw);
        EnvInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            git_commit: detect_git_commit(),
            chunk: None,
        }
    }
}

/// Resolves the current git commit hash by reading `.git/HEAD` (and
/// following one level of `ref:` indirection through loose refs or
/// `packed-refs`), walking up from the current directory. Returns `None`
/// outside a repository or on any read failure — environment capture must
/// never fail a run.
pub(crate) fn detect_git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_git_head(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn read_git_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => validate_hash(head),
        Some(refname) => {
            let refname = refname.trim();
            if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
                return validate_hash(loose.trim());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            for line in packed.lines() {
                let line = line.trim();
                if line.starts_with('#') || line.starts_with('^') {
                    continue;
                }
                if let Some((hash, name)) = line.split_once(' ') {
                    if name.trim() == refname {
                        return validate_hash(hash);
                    }
                }
            }
            None
        }
    }
}

fn validate_hash(s: &str) -> Option<String> {
    let ok = s.len() >= 7 && s.len() <= 64 && s.chars().all(|c| c.is_ascii_hexdigit());
    if ok {
        Some(s.to_string())
    } else {
        None
    }
}

/// The `memory` section: the allocator window totals, optional OS
/// high-water mark, and — when the run enforced `--mem-budget-mb` — the
/// budget and its verdict. Present only when the producing binary counted
/// allocations (see [`crate::mem`]); the per-span figures are on the span
/// rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoryReport {
    /// Net bytes allocated minus freed over the metered window (signed:
    /// pre-window allocations freed inside the window drive it negative).
    pub live_bytes: i64,
    /// High-water mark of the window's net balance — the number the
    /// `obs diff` peak gate and `--mem-budget-mb` enforce.
    pub peak_bytes: u64,
    /// Cumulative bytes requested in the window (allocation churn).
    pub total_alloc_bytes: u64,
    /// Allocation count in the window.
    pub total_allocs: u64,
    /// Deallocation count in the window.
    pub total_frees: u64,
    /// `VmHWM` from `/proc/self/status`, when readable (Linux). Whole
    /// process lifetime, not windowed — context, not a gate.
    pub vm_hwm_bytes: Option<u64>,
    /// The enforced memory budget in MiB, when the run had one.
    pub budget_mb: Option<u64>,
    /// `"ok"` or `"breached"`, when a budget was enforced.
    pub budget_verdict: Option<String>,
}

impl MemoryReport {
    /// Whether the run breached its enforced budget.
    pub fn breached(&self) -> bool {
        self.budget_verdict.as_deref() == Some("breached")
    }
}

/// A frozen, exportable run report. See the module docs for the schema.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Free-form identifier of the producing harness (e.g. binary name).
    pub run_id: String,
    /// Population scale of the run (1.0 = the paper's 4,762 antennas).
    pub scale: f64,
    /// Environment fingerprint.
    pub env: EnvInfo,
    /// Every span row by nesting path; the top-level rows are the stages.
    /// Allocation figures are attributed threads-advisory (see
    /// [`crate::mem`]; canonical at `ICN_THREADS=1`).
    pub spans: BTreeMap<String, SpanStats>,
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges (footprints such as
    /// `cluster.condensed_bytes`, quality figures such as
    /// `forecast.mae_ets`).
    pub gauges: BTreeMap<String, f64>,
    /// The memory section; `None` when the producing binary did not
    /// count allocations.
    pub memory: Option<MemoryReport>,
}

impl BenchReport {
    /// Builds a report from a registry snapshot.
    pub fn build(snapshot: &Snapshot, run_id: &str, scale: f64) -> BenchReport {
        // A memory section is meaningful only when the running binary
        // installed a counting allocator and the window saw traffic;
        // `allocs == 0` otherwise, and the section is omitted.
        let mem = crate::mem::stats();
        let memory = (mem.allocs > 0).then(|| MemoryReport {
            live_bytes: mem.live_bytes,
            peak_bytes: mem.peak_bytes,
            total_alloc_bytes: mem.total_alloc_bytes,
            total_allocs: mem.allocs,
            total_frees: mem.frees,
            vm_hwm_bytes: crate::mem::vm_hwm_bytes(),
            budget_mb: None,
            budget_verdict: None,
        });
        BenchReport {
            run_id: run_id.to_string(),
            scale,
            env: EnvInfo::capture(),
            spans: snapshot.spans.clone(),
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            memory,
        }
    }

    /// Renders the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> Json {
        let own = crate::trace::self_times(&self.spans);
        let ms = |d: Duration| Json::num(d.as_secs_f64() * 1e3);
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|(path, s)| {
                let mut row = vec![
                    ("path", Json::str(path)),
                    ("calls", Json::num(s.calls as f64)),
                    ("wall_ms", ms(s.wall)),
                    ("p99_ms", ms(s.p99)),
                    ("self_ms", ms(own[path.as_str()])),
                ];
                if self.memory.is_some() {
                    row.extend([
                        ("alloc_bytes", Json::num(s.alloc_bytes as f64)),
                        ("allocs", Json::num(s.allocs as f64)),
                        ("peak_growth_bytes", Json::num(s.peak_growth_bytes as f64)),
                    ]);
                }
                Json::obj(row)
            })
            .collect();
        let mut env_fields = vec![
            ("os", Json::str(&self.env.os)),
            ("arch", Json::str(&self.env.arch)),
            ("threads", Json::num(self.env.threads as f64)),
            ("unix_time", Json::num(self.env.unix_time as f64)),
        ];
        if let Some(commit) = &self.env.git_commit {
            env_fields.push(("git_commit", Json::str(commit)));
        }
        if let Some(chunk) = self.env.chunk {
            env_fields.push(("chunk", Json::num(chunk as f64)));
        }
        let mut fields = vec![
            ("schema", Json::str(SCHEMA)),
            ("run_id", Json::str(&self.run_id)),
            ("scale", Json::num(self.scale)),
            ("env", Json::obj(env_fields)),
            ("spans", Json::Arr(spans)),
            ("counters", counters_obj(&self.counters)),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(mem) = &self.memory {
            fields.push(("memory", memory_to_json(mem)));
        }
        Json::obj(fields)
    }

    /// Writes the pretty JSON rendering to `path`.
    pub fn write_to_file(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }

    /// Parses a report back from its JSON rendering, validating the schema
    /// tag (`icn-obs/v5`) and required fields.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        BenchReport::from_doc(&Json::parse(text)?)
    }

    /// Parses a report from an already-decoded JSON document (one entry
    /// of a [`BenchReportSet`], or a whole single-report file).
    fn from_doc(doc: &Json) -> Result<BenchReport, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("missing or unknown schema tag (want {SCHEMA})"));
        }
        let run_id = doc
            .get("run_id")
            .and_then(Json::as_str)
            .ok_or("missing run_id")?
            .to_string();
        let scale = doc
            .get("scale")
            .and_then(Json::as_f64)
            .ok_or("missing scale")?;
        let env_doc = doc.get("env").ok_or("missing env")?;
        let env = EnvInfo {
            os: env_doc
                .get("os")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            arch: env_doc
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            threads: env_doc.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            unix_time: env_doc
                .get("unix_time")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
            git_commit: env_doc
                .get("git_commit")
                .and_then(Json::as_str)
                .map(str::to_string),
            chunk: env_doc
                .get("chunk")
                .and_then(Json::as_f64)
                .map(|c| c as u64),
        };
        let mut spans = BTreeMap::new();
        if let Some(items) = doc.get("spans").and_then(Json::as_arr) {
            for s in items {
                let path = s
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("span missing path")?;
                // A report is untrusted input: a count or time it cannot
                // hold is an error, never a panic or a silent zero.
                let field = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_f64)
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| {
                            format!("span {path}: {key} missing, negative or not finite")
                        })
                };
                let ms = |key: &str| {
                    Duration::try_from_secs_f64(field(key)? / 1e3)
                        .map_err(|e| format!("span {path}: {key}: {e}"))
                };
                // Allocation figures are present exactly when the report
                // has a memory section; absent reads as 0.
                let bytes = |key: &str| {
                    s.get(key)
                        .map_or(Ok(0), |v| count(Some(v), &format!("span {path}: {key}")))
                };
                let stats = SpanStats {
                    calls: field("calls")? as u64,
                    wall: ms("wall_ms")?,
                    p99: ms("p99_ms")?,
                    alloc_bytes: bytes("alloc_bytes")?,
                    allocs: bytes("allocs")?,
                    peak_growth_bytes: bytes("peak_growth_bytes")?,
                };
                spans.insert(path.to_string(), stats);
            }
        }
        let counters = counters_from_json(doc.get("counters"))?;
        let mut gauges = BTreeMap::new();
        for (k, v) in doc
            .get("gauges")
            .and_then(Json::entries)
            .ok_or("missing gauges")?
        {
            let value = v.as_f64().filter(|g| g.is_finite());
            gauges.insert(k.clone(), value.ok_or("non-numeric or non-finite gauge")?);
        }
        // Absent in reports from binaries that did not count allocations.
        let memory = match doc.get("memory") {
            Some(m) => Some(memory_from_json(m)?),
            None => None,
        };
        Ok(BenchReport {
            run_id,
            scale,
            env,
            spans,
            counters,
            gauges,
            memory,
        })
    }
}

/// An ordered collection of reports from one invocation — one per
/// worker-thread count when produced by `--threads-sweep`. The JSON
/// rendering (`icn-bench-set/1`) wraps the individual `icn-obs/v5`
/// documents verbatim:
///
/// ```json
/// {"schema": "icn-bench-set/1", "reports": [{...}, {...}]}
/// ```
///
/// [`BenchReportSet::parse`] also accepts a single-report file and wraps
/// it as a one-element set, so every consumer (`icn obs diff|top|mem`)
/// reads single runs and sweep files through one entry point.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReportSet {
    /// Member reports, in production order (ascending thread count for
    /// `--threads-sweep` output).
    pub reports: Vec<BenchReport>,
}

impl BenchReportSet {
    /// Renders the set as a pretty-printed JSON document.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SET_SCHEMA)),
            (
                "reports",
                Json::Arr(self.reports.iter().map(BenchReport::to_json).collect()),
            ),
        ])
    }

    /// Writes the pretty JSON rendering to `path`.
    pub fn write_to_file(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }

    /// Parses a set file — or a single report, returned as a
    /// one-element set. A set with zero reports is rejected: it carries
    /// no information and would silently pass every diff gate.
    pub fn parse(text: &str) -> Result<BenchReportSet, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) == Some(SET_SCHEMA) {
            let mut reports = Vec::new();
            for entry in doc
                .get("reports")
                .and_then(Json::as_arr)
                .ok_or("report set missing reports array")?
            {
                reports.push(BenchReport::from_doc(entry)?);
            }
            if reports.is_empty() {
                return Err("report set has no reports".into());
            }
            return Ok(BenchReportSet { reports });
        }
        Ok(BenchReportSet {
            reports: vec![BenchReport::from_doc(&doc)?],
        })
    }
}

/// Pairs a baseline set against a candidate set for diffing: when both
/// sides are single reports the two are compared directly (the plain
/// `icn obs diff a.json b.json` contract); otherwise reports are matched
/// on the (`env.threads`, `scale`) configuration key, in baseline order —
/// so a multi-scale, multi-thread sweep diffs like-for-like, and a
/// single baseline gates exactly its own configuration of a sweep file. Returns the matched pairs; configurations present on only
/// one side are dropped — an empty result means the files have no
/// comparable configuration.
pub fn pair_reports<'a>(
    a: &'a BenchReportSet,
    b: &'a BenchReportSet,
) -> Vec<(&'a BenchReport, &'a BenchReport)> {
    if a.reports.len() == 1 && b.reports.len() == 1 {
        return vec![(&a.reports[0], &b.reports[0])];
    }
    let matching = |base: &BenchReport| {
        b.reports
            .iter()
            .find(|r| r.env.threads == base.env.threads && (r.scale - base.scale).abs() < 1e-12)
    };
    a.reports
        .iter()
        .filter_map(|base| matching(base).map(|cand| (base, cand)))
        .collect()
}

/// Renders the `memory` section. All byte counts are JSON numbers —
/// exact below 2^53, i.e. up to 8 PiB, far beyond any real window.
fn memory_to_json(mem: &MemoryReport) -> Json {
    let allocator = Json::obj(vec![
        ("live_bytes", Json::num(mem.live_bytes as f64)),
        ("peak_bytes", Json::num(mem.peak_bytes as f64)),
        ("total_alloc_bytes", Json::num(mem.total_alloc_bytes as f64)),
        ("allocs", Json::num(mem.total_allocs as f64)),
        ("frees", Json::num(mem.total_frees as f64)),
    ]);
    let mut fields = vec![("allocator", allocator)];
    if let Some(hwm) = mem.vm_hwm_bytes {
        fields.push(("vm_hwm_bytes", Json::num(hwm as f64)));
    }
    if let Some(budget) = mem.budget_mb {
        fields.push(("budget_mb", Json::num(budget as f64)));
    }
    if let Some(verdict) = &mem.budget_verdict {
        fields.push(("budget_verdict", Json::str(verdict)));
    }
    Json::obj(fields)
}

/// Largest count a report number holds exactly: 2^53.
const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// A count read from a report: a whole number in `0..=2^53`. Anything
/// else is an error, never a silent zero or a saturated cast — a count a
/// gate compares against must mean what it says.
fn count(v: Option<&Json>, what: &str) -> Result<u64, String> {
    v.and_then(Json::as_f64)
        .filter(|c| c.fract() == 0.0 && (0.0..=MAX_COUNT).contains(c))
        .map(|c| c as u64)
        .ok_or_else(|| format!("{what}: missing, negative, fractional, non-finite or above 2^53"))
}

/// A `counters` object (absent = no counters), every value a [`count`].
fn counters_from_json(doc: Option<&Json>) -> Result<BTreeMap<String, u64>, String> {
    let mut counters = BTreeMap::new();
    for (k, v) in doc.and_then(Json::entries).into_iter().flatten() {
        counters.insert(k.clone(), count(Some(v), &format!("counter {k}"))?);
    }
    Ok(counters)
}

fn memory_from_json(doc: &Json) -> Result<MemoryReport, String> {
    let alloc = doc.get("allocator").ok_or("memory missing allocator")?;
    let num = |d: &Json, key: &str| count(d.get(key), &format!("memory {key}"));
    let optional = |key: &str| {
        doc.get(key)
            .map(|v| count(Some(v), &format!("memory {key}")))
    };
    // Live bytes are a signed balance (frees of memory allocated before
    // the window opened), but still a whole, finite number.
    let live_bytes = alloc
        .get("live_bytes")
        .and_then(Json::as_f64)
        .filter(|v| v.fract() == 0.0 && v.abs() <= MAX_COUNT)
        .ok_or("memory live_bytes: missing, fractional, non-finite or beyond 2^53")?;
    Ok(MemoryReport {
        live_bytes: live_bytes as i64,
        peak_bytes: num(alloc, "peak_bytes")?,
        total_alloc_bytes: num(alloc, "total_alloc_bytes")?,
        total_allocs: num(alloc, "allocs")?,
        total_frees: num(alloc, "frees")?,
        vm_hwm_bytes: optional("vm_hwm_bytes").transpose()?,
        budget_mb: optional("budget_mb").transpose()?,
        budget_verdict: doc
            .get("budget_verdict")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.enable();
        r.add_counter("cluster.merges", 99);
        r.add_counter("forest.trees", 30);
        r.add_counter("unprefixed", 1);
        r.set_gauge("cluster.condensed_bytes", 4096.0);
        r.record_span_parts("stage2_cluster".into(), Duration::from_millis(20));
        r.record_span_parts("stage2_cluster/condensed".into(), Duration::from_millis(5));
        r.record_span_parts("stage3_surrogate".into(), Duration::from_millis(10));
        for ms in [1, 4, 2] {
            r.record_span_parts(
                "stage3_surrogate/shap_chunk".into(),
                Duration::from_millis(ms),
            );
        }
        r.snapshot()
    }

    #[test]
    fn stages_are_top_level_span_rows_and_counters_live_at_the_root() {
        let rep = BenchReport::build(&sample_snapshot(), "test", 0.1);
        let stages: Vec<&str> = rep
            .spans
            .keys()
            .map(String::as_str)
            .filter(|p| !p.contains('/'))
            .collect();
        assert_eq!(stages, ["stage2_cluster", "stage3_surrogate"]);
        let s2 = rep.spans["stage2_cluster"].wall.as_secs_f64() * 1e3;
        assert!((s2 - 20.0).abs() < 1.0);
        assert_eq!(rep.counters["cluster.merges"], 99);
        assert_eq!(rep.counters["forest.trees"], 30);
        assert_eq!(rep.counters["unprefixed"], 1);
        assert_eq!(rep.scale, 0.1);
    }

    #[test]
    fn json_round_trip_preserves_counters_and_spans() {
        let rep = BenchReport::build(&sample_snapshot(), "rt", 1.0);
        let back = BenchReport::parse(&rep.to_json().to_pretty()).unwrap();
        assert_eq!(back.run_id, "rt");
        assert_eq!(back.scale, 1.0);
        assert_eq!(back.counters, rep.counters);
        assert_eq!(back.gauges, rep.gauges);
        assert_eq!(back.gauges["cluster.condensed_bytes"], 4096.0);
        // Span rows round-trip calls, total wall and the p99 occurrence.
        assert_eq!(back.spans, rep.spans);
        let chunk = &back.spans["stage3_surrogate/shap_chunk"];
        assert_eq!(chunk.calls, 3);
        assert_eq!(chunk.wall, Duration::from_millis(7));
        assert_eq!(chunk.p99, Duration::from_millis(4));
        assert_eq!(back.env.git_commit, rep.env.git_commit);
    }

    #[test]
    fn spans_carry_self_time_in_json() {
        let rep = BenchReport::build(&sample_snapshot(), "self", 1.0);
        let doc = rep.to_json();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        let s2 = spans
            .iter()
            .find(|s| s.get("path").and_then(Json::as_str) == Some("stage2_cluster"))
            .unwrap();
        // 20ms total, 5ms in the nested condensed span.
        let self_ms = s2.get("self_ms").and_then(Json::as_f64).unwrap();
        assert!((self_ms - 15.0).abs() < 1e-6);
    }

    #[test]
    fn memory_section_builds_and_round_trips() {
        // Drives the process-global allocation window → mem lock.
        let _mem = crate::MEM_TEST_LOCK.lock().unwrap();
        crate::mem::reset_window();
        crate::mem::on_alloc(4096);
        crate::mem::on_free(1024);
        let mut rep = BenchReport::build(&sample_snapshot(), "mem", 1.0);
        crate::mem::reset_window();
        let m = rep.memory.as_mut().expect("window saw traffic");
        assert_eq!(m.peak_bytes, 4096);
        assert_eq!(m.live_bytes, 3072);
        assert_eq!(m.total_alloc_bytes, 4096);
        assert_eq!(m.total_allocs, 1);
        assert_eq!(m.total_frees, 1);
        if cfg!(target_os = "linux") {
            assert!(m.vm_hwm_bytes.is_some());
        }
        // Budget stamps survive the JSON round trip too.
        m.budget_mb = Some(512);
        m.budget_verdict = Some("ok".into());
        // With a memory section every span row carries its allocation
        // figures, and they round-trip.
        let row = rep.spans.get_mut("stage2_cluster/condensed").unwrap();
        (row.alloc_bytes, row.allocs, row.peak_growth_bytes) = (4096, 2, 1024);
        let doc = rep.to_json();
        let rows = doc.get("spans").and_then(Json::as_arr).unwrap();
        let keys = ["alloc_bytes", "allocs", "peak_growth_bytes"];
        assert!(rows
            .iter()
            .all(|r| keys.iter().all(|&k| r.get(k).is_some())));
        let back = BenchReport::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back.memory, rep.memory);
        assert_eq!(back.spans, rep.spans);
        assert!(!back.memory.unwrap().breached());
    }

    #[test]
    fn memory_section_is_omitted_when_window_is_empty() {
        let _mem = crate::MEM_TEST_LOCK.lock().unwrap();
        crate::mem::reset_window();
        let rep = BenchReport::build(&sample_snapshot(), "nomem", 1.0);
        assert!(rep.memory.is_none());
        // And the JSON carries no memory key at all, nor any span row an
        // allocation field.
        assert!(rep.to_json().get("memory").is_none());
        assert!(!rep.to_json().to_pretty().contains("alloc_bytes"));
    }

    #[test]
    fn env_threads_honors_icn_threads_override() {
        std::env::set_var("ICN_THREADS", "3");
        let env = EnvInfo::capture();
        std::env::remove_var("ICN_THREADS");
        assert_eq!(env.threads, 3);
        // Garbage and zero fall back to hardware parallelism.
        std::env::set_var("ICN_THREADS", "0");
        let fallback = EnvInfo::capture();
        std::env::remove_var("ICN_THREADS");
        assert!(fallback.threads >= 1);
    }

    #[test]
    fn git_commit_is_detected_in_this_repository() {
        // The workspace itself is a git repository, so capture from within
        // it yields a plausible hash (hex, >= 7 chars). If the tests ever
        // run from an exported tarball this simply returns None, which is
        // also valid — only assert shape when present.
        if let Some(hash) = detect_git_commit() {
            assert!(hash.len() >= 7);
            assert!(hash.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(BenchReport::parse("{\"schema\": \"other/v9\"}").is_err());
        assert!(BenchReport::parse("not json").is_err());
    }

    fn report_at_threads(threads: usize) -> BenchReport {
        let mut rep = BenchReport::build(&sample_snapshot(), "sweep", 1.0);
        rep.env.threads = threads;
        rep
    }

    #[test]
    fn report_set_round_trips() {
        let set = BenchReportSet {
            reports: vec![report_at_threads(1), report_at_threads(2)],
        };
        let back = BenchReportSet::parse(&set.to_json().to_pretty()).unwrap();
        assert_eq!(back.reports.len(), 2);
        assert_eq!(back, set);
    }

    #[test]
    fn report_set_parse_accepts_single_reports() {
        let single = report_at_threads(4);
        let set = BenchReportSet::parse(&single.to_json().to_pretty()).unwrap();
        assert_eq!(set.reports.len(), 1);
        assert_eq!(set.reports[0], single);
        // Empty sets and unknown schemas are rejected.
        assert!(
            BenchReportSet::parse("{\"schema\": \"icn-bench-set/1\", \"reports\": []}").is_err()
        );
        assert!(BenchReportSet::parse("{\"schema\": \"other/v9\"}").is_err());
    }

    #[test]
    fn pairing_matches_on_threads_with_singleton_fallback() {
        let set12 = BenchReportSet {
            reports: vec![report_at_threads(1), report_at_threads(2)],
        };
        let set28 = BenchReportSet {
            reports: vec![report_at_threads(2), report_at_threads(8)],
        };
        let pairs = pair_reports(&set12, &set28);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.env.threads, 2);
        assert_eq!(pairs[0].1.env.threads, 2);
        // Two singletons pair directly even across thread counts — the
        // single-file diff contract.
        let solo1 = BenchReportSet {
            reports: vec![report_at_threads(1)],
        };
        let solo4 = BenchReportSet {
            reports: vec![report_at_threads(4)],
        };
        assert_eq!(pair_reports(&solo1, &solo4).len(), 1);
        // A singleton baseline picks its matching configuration out of a
        // sweep candidate, and misses cleanly when absent.
        let picked = pair_reports(&solo1, &set12);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].1.env.threads, 1);
        assert!(pair_reports(&solo4, &set12).is_empty());
        // The configuration key is (threads, scale): same thread count at
        // a different scale is a different workload, never a pair.
        let mut small = report_at_threads(1);
        small.scale = 0.05;
        let mixed = BenchReportSet {
            reports: vec![small, report_at_threads(1)],
        };
        let cross = pair_reports(&mixed, &set12);
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].0.scale, 1.0);
    }
}
