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
