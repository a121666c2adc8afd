//! Tests of the `icn obs diff` perf-regression gate, at both the library
//! level (`icn_obs::diff_reports`) and the CLI level (exit codes), using
//! the blessed scale-0.05 baseline under `tests/golden/` and a doctored
//! regression fixture derived from it.
//!
//! The fixtures are real reports: `bench_smoke005.json` is a recorded
//! `icn run --scale 0.05` and `bench_regression_fixture.json` is the same
//! report with stage3's wall (its top-level span row) tripled and the
//! `shap_chunk` span's p99 occurrence 16x longer — the two metric kinds
//! the gate must catch.

use icn_repro::icn_obs::{diff_reports, BenchReport, BenchReportSet, DiffStatus, DiffThresholds};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn load(name: &str) -> BenchReport {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Every committed `tests/golden/bench_*.json` baseline — including any
/// added later — parses as `icn-obs/v5` and self-diffs with no failures.
#[test]
fn every_committed_baseline_parses_and_self_diffs_clean() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("bench_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 5, "baselines missing: {names:?}");
    for name in &names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("read baseline");
        assert!(text.contains(r#""schema": "icn-obs/v5""#), "{name}: schema");
        let set = BenchReportSet::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for report in &set.reports {
            let diff = diff_reports(report, report, &DiffThresholds::default());
            assert_eq!(diff.failures(), 0, "{name}:\n{}", diff.render());
        }
    }
}

#[test]
fn self_diff_of_the_blessed_baseline_passes() {
    let a = load("bench_smoke005.json");
    let report = diff_reports(&a, &a, &DiffThresholds::default());
    assert!(report.passed(), "self-diff failed:\n{}", report.render());
}

#[test]
fn doctored_regression_fixture_fails_the_gate() {
    let a = load("bench_smoke005.json");
    let b = load("bench_regression_fixture.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.failures() > 0, "regression fixture slipped through");
    // Both the stage wall regression and the per-task p99 regression must
    // be caught independently.
    let failed: Vec<&str> = report
        .lines
        .iter()
        .filter(|l| l.status == DiffStatus::Fail)
        .map(|l| l.metric.as_str())
        .collect();
    assert!(
        failed.contains(&"stage:stage3_surrogate wall_ms"),
        "stage3 wall regression missed: {failed:?}"
    );
    assert!(
        failed.contains(&"span:stage3_surrogate/shap_batch/shap_chunk p99_ms"),
        "shap_chunk p99 regression missed: {failed:?}"
    );
}

#[test]
fn reversed_direction_is_a_speedup_and_passes() {
    // The gate is asymmetric by design: the doctored report as *baseline*
    // makes the real report look like a speedup, which never fails.
    let a = load("bench_regression_fixture.json");
    let b = load("bench_smoke005.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.passed(), "speedup flagged:\n{}", report.render());
}

#[test]
fn cli_exit_codes_match_the_gate() {
    let golden = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let run = |a: &str, b: &str, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .args(["obs", "diff"])
            .arg(format!("{golden}/{a}"))
            .arg(format!("{golden}/{b}"))
            .args(extra)
            .output()
            .expect("spawn icn")
    };
    let ok = run("bench_smoke005.json", "bench_smoke005.json", &[]);
    assert!(
        ok.status.success(),
        "self-diff exited nonzero:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let bad = run("bench_smoke005.json", "bench_regression_fixture.json", &[]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "regression diff must exit 1:\n{}",
        String::from_utf8_lossy(&bad.stdout)
    );
    // A stage override that would gate nothing is a usage error, not a
    // silent pass: a NaN, infinite or non-positive ratio, a stage the
    // baseline does not have, or one under the 5 ms floor in it (stage 2
    // takes 2.7 ms in the baseline).
    for ratio in [
        "stage3_surrogate=nan",
        "stage3_surrogate=inf",
        "stage3_surrogate=0",
        "stage3_surrogate=-1.5",
        "stage9_bogus=1.5",
        "stage2_cluster=1.5",
    ] {
        let out = run(
            "bench_smoke005.json",
            "bench_regression_fixture.json",
            &["--stage-wall-ratio", ratio],
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "--stage-wall-ratio {ratio} must exit 2:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let usage = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(["obs", "bogus"])
        .output()
        .expect("spawn icn");
    assert_eq!(usage.status.code(), Some(2), "unknown obs subcommand");
}

/// A report file is untrusted input: absurdly deep nesting is a parse
/// error (exit 1), not a stack overflow.
#[test]
fn cli_rejects_deeply_nested_reports() {
    let path = std::env::temp_dir().join("icn_obs_deep_nesting.json");
    std::fs::write(&path, "[".repeat(1_000_000)).expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(["obs", "top"])
        .arg(&path)
        .output()
        .expect("spawn icn");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

/// `text` with the number after the first `"key": ` that follows `anchor`
/// replaced by `value` (`None` renames the key, so the field goes missing).
fn doctor(text: &str, anchor: &str, key: &str, value: Option<&str>) -> String {
    let from = text.find(anchor).expect("anchor in fixture");
    let field = format!("\"{key}\": ");
    let at = from + text[from..].find(&field).expect("key after anchor");
    let start = at + field.len();
    let end = start + text[start..].find([',', '\n', '}']).expect("number end");
    match value {
        Some(v) => format!("{}{v}{}", &text[..start], &text[end..]),
        None => format!("{}\"{key}_removed\": {}", &text[..at], &text[start..]),
    }
}

/// Runs `icn obs diff <baseline> <candidate>`, `icn obs top <baseline>`
/// and `icn obs mem <baseline>` on a doctored baseline text and asserts
/// each exits 1 ("cannot parse").
fn assert_unreadable_baseline(text: &str, candidate: &str, what: &str) {
    // Tests run concurrently: one file per call.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let name = format!("icn_obs_doctored_{}_{call}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, text).expect("write fixture");
    for cmd in [&["diff"][..], &["top"], &["mem"]] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_icn"));
        command.arg("obs").args(cmd).arg(&path);
        if cmd == ["diff"] {
            command.arg(candidate);
        }
        let out = command.output().expect("spawn icn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "obs {cmd:?} with {what}: {stderr}"
        );
        assert!(
            stderr.contains("cannot parse"),
            "obs {cmd:?} with {what}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A stage wall or counter a report cannot hold is a parse error (exit 1)
/// for every `icn obs` command: a baseline stage wall of `1e999` used to
/// pass any candidate at ratio 0.000, and a negative counter read as 0. A
/// stage wall is its top-level span row's `wall_ms`.
#[test]
fn cli_rejects_stage_walls_and_counters_a_gate_cannot_read() {
    let golden = format!(
        "{}/tests/golden/bench_mem_smoke.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let base = std::fs::read_to_string(&golden).expect("read baseline");
    let stage = r#""path": "stage3_surrogate""#;
    for wall in [Some("1e999"), Some("-1"), Some("null"), None] {
        let text = doctor(&base, stage, "wall_ms", wall);
        assert_unreadable_baseline(&text, &golden, &format!("stage wall_ms {wall:?}"));
    }
    let root_counters = "\n  \"counters\": {";
    for value in ["-5", "1.5", "1e999", "9007199254740994"] {
        let text = doctor(&base, root_counters, "forest.trees", Some(value));
        assert_unreadable_baseline(&text, &golden, &format!("counter {value}"));
    }
    // The limits themselves still parse.
    let text = doctor(
        &base,
        root_counters,
        "forest.trees",
        Some("9007199254740992"),
    );
    assert!(BenchReport::parse(&text).is_ok(), "2^53 is a valid count");
}

/// A memory number a report cannot hold is a parse error (exit 1): a
/// baseline `peak_bytes` of -5 used to read as 0, which turned the peak
/// gate informational and let the doctored 2x fixture pass.
#[test]
fn cli_rejects_memory_numbers_a_gate_cannot_read() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let base = std::fs::read_to_string(format!("{dir}/bench_mem_smoke.json")).expect("read");
    let doubled = format!("{dir}/bench_mem_regression_fixture.json");
    let allocator = r#""allocator""#;
    for key in ["peak_bytes", "total_alloc_bytes", "allocs", "frees"] {
        for value in [Some("-5"), Some("1e999"), Some("null"), None] {
            let text = doctor(&base, allocator, key, value);
            assert_unreadable_baseline(&text, &doubled, &format!("{key} {value:?}"));
        }
    }
    for value in [Some("-5"), Some("1e999")] {
        let text = doctor(&base, allocator, "vm_hwm_bytes", value);
        assert_unreadable_baseline(&text, &doubled, &format!("vm_hwm_bytes {value:?}"));
    }
    // A span row's allocation figures are counts too.
    let span_row = r#""path": "stage3_surrogate""#;
    for key in ["alloc_bytes", "allocs", "peak_growth_bytes"] {
        for value in ["-1", "1.5", "1e999"] {
            let text = doctor(&base, span_row, key, Some(value));
            assert_unreadable_baseline(&text, &doubled, &format!("span row {key} {value}"));
        }
    }
    // Live bytes are a signed balance: negative parses, non-finite does not.
    let text = doctor(&base, allocator, "live_bytes", Some("-5"));
    assert!(
        BenchReport::parse(&text).is_ok(),
        "negative live_bytes is valid"
    );
    for value in [Some("1e999"), None] {
        let text = doctor(&base, allocator, "live_bytes", value);
        assert_unreadable_baseline(&text, &doubled, &format!("live_bytes {value:?}"));
    }
}

/// A span row whose `calls`, `wall_ms` or `p99_ms` is missing, negative
/// or not finite — or a time too large for a duration — is a parse error
/// (exit 1) for every `icn obs` command, not a panic or a silent zero.
#[test]
fn cli_rejects_span_times_a_report_cannot_hold() {
    let golden = format!(
        "{}/tests/golden/bench_smoke005.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let path = std::env::temp_dir().join("icn_obs_bad_span_time.json");
    let report_with_span = |row: &str| {
        format!(
            r#"{{"schema": "icn-obs/v5", "run_id": "icn-run", "scale": 0.05,
                "env": {{"threads": 1}},
                "spans": [{{"path": "stage3_surrogate", {row}}}],
                "counters": {{}}, "gauges": {{}}}}"#
        )
    };
    let obs = |cmd: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .arg("obs")
            .args(cmd)
            .arg(&path)
            .output()
            .expect("spawn icn")
    };
    // The same document with a well-formed row parses.
    let good = r#""calls": 1, "wall_ms": 12.5, "p99_ms": 12.5"#;
    std::fs::write(&path, report_with_span(good)).expect("write fixture");
    assert!(obs(&["top"]).status.success(), "well-formed row rejected");
    for key in ["calls", "wall_ms", "p99_ms"] {
        let mut values = vec![None, Some("-1"), Some("1e999"), Some("null")];
        if key != "calls" {
            values.push(Some("1e300")); // ms beyond any Duration
        }
        for value in values {
            let row = [("calls", "1"), ("wall_ms", "12.5"), ("p99_ms", "12.5")]
                .iter()
                .filter_map(|&(k, v)| {
                    let v = if k == key { value? } else { v };
                    Some(format!(r#""{k}": {v}"#))
                })
                .collect::<Vec<_>>()
                .join(", ");
            std::fs::write(&path, report_with_span(&row)).expect("write fixture");
            for cmd in [&["top"][..], &["mem"], &["diff", golden.as_str()]] {
                let out = obs(cmd);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "obs {cmd:?} with {key} = {value:?}: {stderr}"
                );
                assert!(
                    stderr.contains("cannot parse"),
                    "{key} = {value:?}: {stderr}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// An `icn-obs/v4` report (stage rows, per-stage counters) is no longer
/// read: every `icn obs` command exits 1 ("cannot parse") and names the
/// one schema it reads.
#[test]
fn cli_rejects_the_v4_schema() {
    let golden = format!(
        "{}/tests/golden/bench_smoke005.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let path = std::env::temp_dir().join(format!("icn_obs_v4_{}.json", std::process::id()));
    let v4 = r#"{"schema": "icn-obs/v4", "run_id": "icn-run", "scale": 0.05,
        "env": {"threads": 1},
        "stages": [{"name": "stage3_surrogate", "wall_ms": 12.5,
                    "counters": {"forest.trees": 100}}],
        "spans": [{"path": "stage3_surrogate", "calls": 1, "wall_ms": 12.5,
                   "p99_ms": 12.5, "self_ms": 12.5}],
        "counters": {"forest.trees": 100}, "gauges": {}}"#;
    std::fs::write(&path, v4).expect("write fixture");
    let path = path.to_str().expect("utf-8 temp path");
    for args in [
        &["top", path][..],
        &["mem", path],
        &["diff", path, &golden],
        &["diff", &golden, path],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_icn"))
            .arg("obs")
            .args(args)
            .output()
            .expect("spawn icn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "obs {args:?}: {stderr}");
        assert!(stderr.contains("cannot parse"), "obs {args:?}: {stderr}");
        assert!(stderr.contains("icn-obs/v5"), "obs {args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

/// The memory fixtures: `bench_mem_smoke.json` is a recorded
/// metered `icn run --scale 0.05` (ICN_THREADS=1) and the regression
/// fixture is the same report with the allocator peak (and VmHWM)
/// doubled — everything else identical, so only the peak gate can fire.
#[test]
fn v3_memory_report_round_trips_and_self_diffs_clean() {
    let a = load("bench_mem_smoke.json");
    let mem = a
        .memory
        .as_ref()
        .expect("memory golden carries a memory section");
    assert!(mem.peak_bytes > 0);
    assert!(
        a.spans.values().any(|s| s.alloc_bytes > 0),
        "span attribution missing"
    );
    // Round trip through render + parse preserves the memory section and
    // the span rows' allocation figures.
    let text = a.to_json().to_pretty();
    let back = BenchReport::parse(&text).expect("re-parse rendered report");
    assert_eq!(back.memory, a.memory);
    assert_eq!(back.spans, a.spans);
    let report = diff_reports(&a, &a, &DiffThresholds::default());
    assert!(
        report.passed(),
        "memory self-diff failed:\n{}",
        report.render()
    );
}

#[test]
fn doctored_peak_fixture_fails_the_asymmetric_peak_gate() {
    let a = load("bench_mem_smoke.json");
    let b = load("bench_mem_regression_fixture.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.failures() > 0, "2x peak growth slipped through");
    assert!(
        report
            .lines
            .iter()
            .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Fail),
        "peak gate did not fire:\n{}",
        report.render()
    );
    // Asymmetric: the same pair reversed is a shrinkage and passes.
    let reversed = diff_reports(&b, &a, &DiffThresholds::default());
    assert!(
        reversed.passed(),
        "peak shrinkage flagged:\n{}",
        reversed.render()
    );
}

/// A baseline without a memory section diffs against a counted candidate
/// (and vice versa) as an informational line, never a failure — such
/// baselines keep gating walls and span p99s unchanged.
#[test]
fn missing_memory_section_diffs_informationally() {
    let plain = load("bench_smoke005.json");
    assert!(plain.memory.is_none(), "smoke golden grew a memory section");
    let counted = load("bench_mem_smoke.json");
    let mut stripped = counted.clone();
    stripped.memory = None;
    // Identical walls, one side missing memory: informational, passing.
    for (a, b) in [(&stripped, &counted), (&counted, &stripped)] {
        let report = diff_reports(a, b, &DiffThresholds::default());
        assert!(
            report.passed(),
            "one-sided memory diff failed:\n{}",
            report.render()
        );
        assert!(
            report
                .lines
                .iter()
                .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Info),
            "missing-section info line absent:\n{}",
            report.render()
        );
    }
}

/// The CLI peak gate end to end: the fixed 1.5x threshold rejects the
/// doctored 2x fixture with exit 1.
#[test]
fn cli_peak_gate_fails_the_doctored_fixture() {
    let golden = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(["obs", "diff"])
        .arg(format!("{golden}/bench_mem_smoke.json"))
        .arg(format!("{golden}/bench_mem_regression_fixture.json"))
        .output()
        .expect("spawn icn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "2x peak must fail the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `icn obs diff` pairs `icn-bench-set/1` files (from `--threads-sweep`)
/// by thread count: a single baseline gates the matching member of
/// a sweep candidate, two sweeps diff pairwise, and files with no common
/// configuration fail loudly instead of silently passing.
#[test]
fn cli_diff_pairs_sweep_sets_by_thread_count() {
    let base = load("bench_smoke005.json");
    let at_threads = |threads: usize| {
        let mut r = base.clone();
        r.env.threads = threads;
        r
    };
    let dir = std::env::temp_dir().join("icn_obs_diff_sets");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, set: &BenchReportSet| {
        let path = dir.join(name);
        set.write_to_file(path.to_str().unwrap())
            .expect("write set");
        path
    };
    let sweep12 = write(
        "sweep12.json",
        &BenchReportSet {
            reports: vec![at_threads(1), at_threads(2)],
        },
    );
    let sweep2 = write(
        "sweep2.json",
        &BenchReportSet {
            reports: vec![at_threads(2)],
        },
    );
    let sweep8 = write(
        "sweep8.json",
        &BenchReportSet {
            reports: vec![at_threads(8), at_threads(16)],
        },
    );
    let golden = format!(
        "{}/tests/golden/bench_smoke005.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let run = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .args(["obs", "diff"])
            .arg(a)
            .arg(b)
            .output()
            .expect("spawn icn")
    };
    // Single baseline vs sweep candidate: its thread count picks the
    // matching member, and the self-identical walls pass.
    let ok = run(std::path::Path::new(&golden), &sweep12);
    assert!(
        ok.status.success(),
        "single-vs-set diff failed:\n{}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    // Sweep vs sweep: only the shared threads=2 configuration is
    // compared; the unmatched baseline member drops out.
    let pairwise = run(&sweep12, &sweep2);
    assert!(
        pairwise.status.success(),
        "set-vs-set diff failed:\n{}{}",
        String::from_utf8_lossy(&pairwise.stdout),
        String::from_utf8_lossy(&pairwise.stderr)
    );
    // Disjoint thread sets have nothing to compare — that is a gate
    // failure, not a silent pass.
    let disjoint = run(&sweep12, &sweep8);
    assert_eq!(
        disjoint.status.code(),
        Some(1),
        "disjoint sweeps must fail:\n{}",
        String::from_utf8_lossy(&disjoint.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
