//! Every harness refuses a `--scale` whose totals matrices alone exceed
//! physical memory before it generates anything: exit 3, naming both
//! numbers. Each child runs under a 4 GiB address-space limit and is
//! killed after 60 s, so a missing check fails the test instead of
//! generating until the machine's memory is gone.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin args…` under `ulimit -v` (4 GiB) and returns its exit code
/// and stderr; panics if it is still running after 60 s.
fn run_limited(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 4194304 && exec \"$0\" \"$@\"")
        .arg(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn harness");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on harness") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`{bin} {args:?}` still ran after 60 s: it is generating");
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
    (status.code(), stderr)
}

#[test]
fn harnesses_refuse_a_scale_beyond_physical_memory() {
    let Some(total) = icn_obs::mem_total_bytes() else {
        eprintln!("MemTotal unreadable: the check is skipped, and so is this test");
        return;
    };
    let need = icn_synth::SynthConfig::paper()
        .with_scale(1e6)
        .min_footprint_bytes();
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_fig01_histograms"),
            &["--scale", "1000000"][..],
        ),
        (
            env!("CARGO_BIN_EXE_emerging_clusters"),
            &["--scale", "1000000"],
        ),
        (
            env!("CARGO_BIN_EXE_bench_cluster"),
            &["--scales", "0.05,1000000", "--repeat", "1"],
        ),
    ] {
        let (code, stderr) = run_limited(bin, args);
        assert_eq!(code, Some(3), "{bin}: {stderr}");
        assert!(
            stderr.contains("before generation")
                && stderr.contains(&format!("{need} bytes > {total} bytes of MemTotal")),
            "{bin}: {stderr}"
        );
    }
}
