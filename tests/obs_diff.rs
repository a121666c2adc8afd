//! Tests of the `icn obs diff` perf-regression gate, at both the library
//! level (`icn_obs::diff_reports`) and the CLI level (exit codes), using
//! the blessed scale-0.05 baseline under `tests/golden/` and a doctored
//! regression fixture derived from it.
//!
//! The fixtures are real reports: `bench_smoke005.json` is a recorded
//! `icn run --scale 0.05` and `bench_regression_fixture.json` is the same
//! report with stage3's wall tripled and the `shap_chunk` span's p99
//! occurrence 16x longer — the two metric kinds the gate must catch.

use icn_repro::icn_obs::{diff_reports, BenchReport, BenchReportSet, DiffStatus, DiffThresholds};
use std::process::Command;

fn load(name: &str) -> BenchReport {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
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
            r#"{{"schema": "icn-obs/v4", "run_id": "icn-run", "scale": 0.05,
                "env": {{"threads": 1}}, "stages": [],
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
    assert!(!mem.spans.is_empty(), "span attribution missing");
    // Round trip through render + parse preserves the memory section.
    let text = a.to_json().to_pretty();
    let back = BenchReport::parse(&text).expect("re-parse rendered report");
    assert_eq!(back.memory, a.memory);
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
