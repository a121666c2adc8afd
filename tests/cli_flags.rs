//! `icn` flag parsing: a bad flag value is a usage error — exit status 2
//! with a message — never a panic (101), a silent fall-back to the
//! default, or a run that ignores the flag (0).

use std::process::{Command, Output};

fn icn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(args)
        .output()
        .expect("spawn icn")
}

#[test]
fn bad_flag_values_exit_2_with_a_message() {
    let cases: &[&[&str]] = &[
        &["probe", "--days", "0"],
        &["ingest", "--days", "0"],
        &["run", "--scale", "0"],
        &["run", "--scale", "nan"],
        &["run", "--scale", "inf"],
        &["run", "--scale", "-1"],
        &["run", "--scale", "x"],
        &["ingest", "--chunk", "0"],
        &["ingest", "--halt-after", "x", "--checkpoint", "f"],
        &["temporal", "--cluster", "x"],
        &["explain", "--top", "0"],
        &["forecast", "--horizon", "0"],
        &["forecast", "--horizon", "505"],
        &["run", "--seed", "-3"],
        &["ingest", "--lateness", "x"],
        &["ingest", "--fault-seed", "x"],
        &["run", "--mem-budget-mb", "0"],
        &["run", "--threads-sweep", "1,x", "--metrics-out", "m.json"],
        &["run", "--cluster-path", "fast"],
        &["forecast", "--model", "arima"],
        &["run", "--cluster-budget-mb", "x"],
        &["run", "--scale"],
        &["run", "--bogus"],
        &["obs", "top", "r.json", "--bogus"],
        &["obs", "mem", "r.json", "junk.json"],
    ];
    for args in cases {
        let out = icn(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "icn {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "icn {args:?} printed no message");
    }
}

#[test]
fn good_flag_values_still_run() {
    let out = icn(&["probe", "--scale", "0.02", "--days", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("over 1 days"));
}

/// A dataset with fewer live rows than the k-sweep needs runs down the
/// sampled path the way it runs down the exact one: the sample is all of
/// them.
#[test]
fn tiny_sampled_run_exits_0() {
    for path in ["sampled", "exact"] {
        let out = icn(&["run", "--scale", "0.002", "--cluster-path", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--cluster-path {path}: {stderr}"
        );
    }
}

/// The stage-6 series spans 504 hours: a horizon up to it forecasts, one
/// hour more is a usage error (above) rather than a forecast past the data.
#[test]
fn forecast_horizon_up_to_the_series_window_runs() {
    let out = icn(&["forecast", "--scale", "0.01", "--horizon", "504"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("horizon 504 h"));
    let out = icn(&["forecast", "--scale", "0.01", "--horizon", "505"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("504-hour"));
}

/// An `--out` the OS refuses — a directory that cannot be created, or an
/// output file that cannot be written — exits 1 naming the path, never
/// a panic (101).
#[test]
fn generate_to_an_unwritable_out_exits_1() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("generate-out");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    // A regular file where a directory must go.
    let file = tmp.join("plain-file");
    std::fs::write(&file, "x").expect("temp file");
    let under_file = file.join("data");
    // A directory where an output file must go.
    let csv_blocked = tmp.join("csv-blocked");
    std::fs::create_dir_all(csv_blocked.join("indoor_totals.csv")).expect("temp dir");
    let jsonl_blocked = tmp.join("jsonl-blocked");
    std::fs::create_dir_all(jsonl_blocked.join("antennas.jsonl")).expect("temp dir");
    for (out_dir, named) in [
        (&under_file, "data"),
        (&csv_blocked, "indoor_totals.csv"),
        (&jsonl_blocked, "antennas.jsonl"),
    ] {
        let out_dir = out_dir.to_str().expect("utf-8 temp path");
        let out = icn(&["generate", "--scale", "0.01", "--out", out_dir]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--out {out_dir}: {stderr}");
        assert!(stderr.contains(named), "--out {out_dir}: {stderr}");
    }
    let good = tmp.join("good");
    let out = icn(&[
        "generate",
        "--scale",
        "0.01",
        "--out",
        good.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(good.join("antennas.jsonl").is_file());
}

/// A checkpoint whose open state a resume cannot honour — an open hour
/// outside the window, an open cell outside the schema — is a bad input:
/// exit 1 with a message naming it, never a panic (101) or a wrong `T`.
#[test]
fn resume_from_a_doctored_checkpoint_exits_1() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("doctored-ck.json");
    let path = path.to_str().expect("utf-8 temp path");
    let leg = [
        "ingest", "--scale", "0.05", "--days", "2", "--chunk", "1000",
    ];
    let halt = [&leg[..], &["--halt-after", "40", "--checkpoint", path]].concat();
    let out = icn(&halt);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let good = std::fs::read_to_string(path).expect("checkpoint written");

    // `"hour"` and `"cells"` keys appear only in the open section.
    let at = good.find("\"hour\": ").expect("an open hour");
    let first_hour = &good[at..at + good[at..].find(',').expect("hour field end")];
    let cases = [
        (good.replacen(first_hour, "\"hour\": 90", 1), "open hour 90"),
        (
            good.replacen("\"cells\": \"0:0:", "\"cells\": \"0:80:", 1),
            "service 80",
        ),
    ];
    let resume = [&leg[..], &["--resume", "--verify", "--checkpoint", path]].concat();
    for (text, want) in cases {
        std::fs::write(path, &text).expect("write doctored checkpoint");
        let out = icn(&resume);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{want}: {stderr}");
        assert!(stderr.contains(want), "{want}: {stderr}");
    }
}

/// A budget below the dataset's own totals matrices is refused before
/// generation (exit 3 naming both numbers) instead of running into the
/// blow-up; a budget that fits still runs.
#[test]
fn mem_budget_below_the_dataset_exits_3_before_generation() {
    let started = std::time::Instant::now();
    let out = icn(&["run", "--scale", "1000000", "--mem-budget-mb", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("before generation") && stderr.contains("> 1 MiB"),
        "{stderr}"
    );
    assert!(
        started.elapsed().as_secs() < 30,
        "the refusal must not generate"
    );
    let out = icn(&["run", "--scale", "0.05", "--mem-budget-mb", "64"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// Without `--mem-budget-mb`, physical memory is the limit: a scale whose
/// totals matrices alone exceed `MemTotal` exits 3 before generation,
/// naming both numbers. The child is killed if it has not exited within
/// 60 s, so a broken check cannot go on generating.
#[cfg(target_os = "linux")]
#[test]
fn scale_beyond_physical_memory_exits_3_before_generation() {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(["run", "--scale", "1000000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn icn");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on icn") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`icn run --scale 1000000` still ran after 60 s: it is generating");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("before generation") && stderr.contains("bytes of MemTotal"),
        "{stderr}"
    );
}
