//! Allocator-level memory regressions for the scalable paths, and the
//! `--mem-budget-mb` enforcement gate end to end.
//!
//! This binary installs the counting allocator (each integration test
//! file is its own binary, so the `#[global_allocator]` slot is free),
//! which makes the assertions here stronger than the gauge-based ones in
//! `cluster_scalable.rs`: the gauges say what the code *claims* to have
//! allocated, the allocator window says what it *actually* allocated.
//! Counting only runs while the global registry is enabled, so the other
//! tests in this binary (and the harness itself) see the inert
//! single-branch disabled path.

use icn_repro::icn_cluster::{agglomerate_condensed, sweep_k};
use icn_repro::icn_obs::{self, mem};
use icn_repro::prelude::*;
use std::process::Command;
use std::sync::Mutex;

mod common;

#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

/// Serializes every test that owns the process-global allocator window
/// (same discipline as the registry tests in `overhead_guard.rs`).
static LOCK: Mutex<()> = Mutex::new(());

/// A blobby large-N fixture (same construction as `cluster_scalable.rs`).
fn large_fixture(n: usize, dims: usize, k: usize) -> Matrix {
    let mut rng = Rng::seed_from(0xB16_F1C);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centers[i % k];
            c.iter().map(|&v| rng.normal(v, 0.05)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Opens a counting window around `f` and returns the allocator stats of
/// exactly that window.
fn windowed<T>(f: impl FnOnce() -> T) -> (T, mem::MemStats) {
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let out = f();
    let stats = mem::stats();
    obs.disable();
    obs.reset();
    (out, stats)
}

/// The sampled-Ward path must stay near its *condensed* budget in real
/// allocator bytes, not just in the gauge it publishes: at n = 6000 the
/// exact path would materialize a ~144 MB condensed matrix (and ~432 MB
/// of working set), while the sampled path under a 4 MB budget must peak
/// within a small multiple of that budget.
#[test]
fn sampled_ward_allocator_peak_respects_the_budget() {
    let _guard = LOCK.lock().unwrap();
    let n = 6000;
    let budget_bytes: usize = 4 * 1024 * 1024;
    let fixture = large_fixture(n, 24, 6);
    let sample = max_sample_for_budget(budget_bytes).min(n);
    assert!(sample < n, "budget must force a strict sample");

    let (sw, stats) = windowed(|| {
        sampled_ward(
            &fixture,
            6,
            &SampledWardConfig {
                sample,
                seed: 42,
                refine_iters: 1,
            },
        )
    });
    let full_condensed = n * (n - 1) / 2 * std::mem::size_of::<f64>();
    let peak = stats.peak_bytes as usize;
    println!(
        "sampled-ward window: peak {peak} B, condensed gauge {} B",
        sw.condensed_bytes
    );
    assert!(stats.allocs > 0, "counting window saw no allocations");
    // 4x the condensed budget covers the sample matrix, the dendrogram
    // and the refinement scratch; the exact path cannot fit this.
    assert!(
        peak <= budget_bytes * 4,
        "sampled-ward peak {peak} B blew past 4x the {budget_bytes} B budget"
    );
    assert!(
        peak < full_condensed / 8,
        "peak {peak} B is within 8x of the full condensed matrix's \
         {full_condensed} B — did the sampled path degrade to exact?"
    );
    assert_eq!(sw.labels.len(), n);
}

/// The exact stage-2 path holds two condensed matrices at its peak: the
/// distances the k-sweep reads and the NN-chain's working copy. It never
/// expands to an N² square, and the sweep takes square roots on the fly
/// instead of copying the matrix.
#[test]
fn exact_path_peak_is_two_condensed_matrices() {
    let _guard = LOCK.lock().unwrap();
    let n = 1500;
    let fixture = large_fixture(n, 24, 6);
    let condensed = n * (n - 1) / 2 * std::mem::size_of::<f64>();
    let (sweep, stats) = windowed(|| {
        let cond = Condensed::from_rows(&fixture, Linkage::Ward.base_metric());
        let history = agglomerate_condensed(&cond, Linkage::Ward);
        sweep_k(&history, cond.sqrt_values(), 2..=10)
    });
    assert_eq!(sweep.len(), 9);
    let peak = stats.peak_bytes as usize;
    println!("exact stage-2 window: peak {peak} B, condensed {condensed} B");
    assert!(
        peak >= 2 * condensed,
        "peak {peak} B is below the two condensed matrices that must coexist"
    );
    assert!(
        peak <= 2 * condensed + condensed / 8,
        "exact stage-2 peak {peak} B exceeds two {condensed} B condensed matrices"
    );
}

/// Satellite consistency pin: the hand-maintained `cluster.condensed_bytes`
/// gauge (now routed through `icn_obs::gauge_bytes`) must never exceed the
/// allocator's stage-2 window peak — the gauge describes one allocation
/// that demonstrably happened inside the window.
#[test]
fn condensed_gauge_is_bounded_by_the_allocator_peak() {
    let _guard = LOCK.lock().unwrap();
    let fixture = large_fixture(600, 24, 6);
    let (cond, stats) = windowed(|| Condensed::from_rows(&fixture, Linkage::Ward.base_metric()));
    let snap_gauge = {
        let obs = icn_obs::global();
        obs.reset();
        obs.enable();
        let _c = Condensed::from_rows(&fixture, Linkage::Ward.base_metric());
        let g = obs.snapshot().gauges["cluster.condensed_bytes"];
        obs.disable();
        obs.reset();
        g as usize
    };
    let want = 600 * 599 / 2 * std::mem::size_of::<f64>();
    assert_eq!(snap_gauge, want, "gauge disagrees with the triangle size");
    assert_eq!(cond.len(), 600);
    let peak = stats.peak_bytes as usize;
    assert!(
        want <= peak,
        "condensed gauge {want} B exceeds the allocator window peak {peak} B \
         — the gauge claims an allocation the allocator never saw"
    );
}

/// Streamed ingest must not buffer the feed: running the production
/// pipeline straight off the synthetic record stream (no materialized
/// feed anywhere), its allocator peak is a small multiple of the totals
/// matrix it builds — never the O(records) footprint of the feed itself.
#[test]
fn streamed_ingest_peak_is_a_matrix_not_the_feed() {
    let _guard = LOCK.lock().unwrap();
    let ds = Dataset::generate(SynthConfig::paper().with_scale(0.05));
    let window = common::probe_window(3);
    let mut stream = record_stream(&ds, &window);
    let schema = stream.schema();
    let feed_bytes = schema.total_records() as usize * std::mem::size_of::<HourlyRecord>();

    let (got, stats) = windowed(|| {
        let mut pipe = IngestPipeline::new(schema, IngestConfig::default());
        pipe.run(&mut stream).expect("clean stream");
        pipe.finish()
    });
    assert_eq!(got.stats.quarantined_total(), 0);
    assert_eq!(got.stats.ok, schema.total_records());
    let matrix_bytes = std::mem::size_of_val(got.totals.as_slice());
    let peak = stats.peak_bytes as usize;
    println!("ingest window: peak {peak} B, matrix {matrix_bytes} B, feed {feed_bytes} B");
    assert!(stats.allocs > 0, "counting window saw no allocations");
    // Measured ~3.3 MB on the reference box (totals matrix + chunk
    // buffers + generator scratch); 16 MB is ~5x headroom yet still 2.5x
    // under the feed, so buffering the stream trips the gate.
    assert!(
        peak < feed_bytes / 4,
        "ingest peak {peak} B is O(feed = {feed_bytes} B): the pipeline \
         buffered the stream instead of folding it"
    );
    assert!(
        peak <= 16 << 20,
        "ingest peak {peak} B blew the 16 MiB ceiling for a \
         {matrix_bytes} B totals matrix"
    );
}

/// FNV-1a over the little-endian bit patterns of a matrix, row-major.
fn totals_hash(m: &Matrix) -> u64 {
    let mut h = icn_repro::icn_stats::Fnv1a::new();
    for v in m.as_slice() {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Each probe worker fills only its own antenna's service × hour slab, so
/// the campaign's allocator peak is a few N·M·H cubes (8-byte MB plus
/// 4-byte session count per cell), never one cube per antenna (N²·M·H,
/// ~3.6 GB here). The totals hashes and counters are pinned, so a change
/// to what the campaign computes cannot pass as a memory fix.
#[test]
fn probe_campaign_peak_is_one_cube_not_one_per_antenna() {
    let _guard = LOCK.lock().unwrap();
    let ds = Dataset::generate(SynthConfig::small().with_scale(0.05));
    let window = common::probe_window(3);
    let cube_bytes = ds.num_antennas() * ds.num_services() * window.num_hours() * 12;
    let (result, stats) = windowed(|| run_campaign(&ds, &window, &CampaignConfig::default()));
    let peak = stats.peak_bytes as usize;
    println!("probe window: peak {peak} B, one cube {cube_bytes} B");
    assert!(
        peak < 4 * cube_bytes,
        "probe campaign peak {peak} B is not within 4x one {cube_bytes} B cube"
    );
    assert_eq!(totals_hash(&result.totals), 0x3c78_4f99_8bd3_7068);
    assert_eq!(result.sessions, 1_487_566);
    assert_eq!(result.dropped_bad_uli, 0);
    assert_eq!(result.dropped_unclassified, 14_873);
    assert_eq!(result.suppressed_cells, 0);

    let k2 = run_campaign(
        &ds,
        &window,
        &CampaignConfig {
            min_sessions_per_cell: 2,
            ..CampaignConfig::default()
        },
    );
    assert_eq!(totals_hash(&k2.totals), 0x99d0_a1c1_b5c0_30d6);
    assert_eq!(k2.sessions, 1_487_566);
    assert_eq!(k2.dropped_bad_uli, 0);
    assert_eq!(k2.dropped_unclassified, 14_873);
    assert_eq!(k2.suppressed_cells, 1_093_336);
}

fn icn(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_icn"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn icn")
}

/// `--mem-budget-mb` end to end: a generous budget passes (exit 0,
/// verdict "ok" stamped into the report), a 1 MiB budget breaches
/// (exit 3 — but only after the report is written, verdict "breached"),
/// and `icn obs mem` renders the byte treetable from the written report.
#[test]
fn cli_mem_budget_gate_and_obs_mem_render() {
    let dir = std::env::temp_dir().join("icn_mem_budget_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ok_path = dir.join("ok.json");
    let bad_path = dir.join("bad.json");

    let ok = icn(
        &[
            "run",
            "--scale",
            "0.02",
            "--mem-budget-mb",
            "4096",
            "--metrics-out",
            ok_path.to_str().unwrap(),
        ],
        &[("ICN_THREADS", "1")],
    );
    assert!(
        ok.status.success(),
        "budget-ok run exited nonzero:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let report = icn_obs::BenchReport::parse(&std::fs::read_to_string(&ok_path).unwrap())
        .expect("parse ok report");
    let mem_section = report.memory.as_ref().expect("memory section");
    assert_eq!(mem_section.budget_mb, Some(4096));
    assert_eq!(mem_section.budget_verdict.as_deref(), Some("ok"));
    assert!(!mem_section.breached());
    assert!(mem_section.peak_bytes > 0);
    assert!(
        !mem_section.spans.is_empty(),
        "span attribution missing from the report"
    );

    let bad = icn(
        &[
            "run",
            "--scale",
            "0.02",
            "--mem-budget-mb",
            "1",
            "--metrics-out",
            bad_path.to_str().unwrap(),
        ],
        &[("ICN_THREADS", "1")],
    );
    assert_eq!(
        bad.status.code(),
        Some(3),
        "budget breach must exit 3:\n{}",
        String::from_utf8_lossy(&bad.stderr)
    );
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("memory budget BREACHED"),
        "breach diagnostic missing"
    );
    // The report was still written, with the verdict stamped — the gate
    // fails the process, not the artefact.
    let breached = icn_obs::BenchReport::parse(&std::fs::read_to_string(&bad_path).unwrap())
        .expect("parse breached report");
    let m = breached.memory.as_ref().expect("memory section");
    assert_eq!(m.budget_verdict.as_deref(), Some("breached"));
    assert!(m.breached());

    let render = icn(&["obs", "mem", ok_path.to_str().unwrap()], &[]);
    assert!(render.status.success());
    let text = String::from_utf8_lossy(&render.stdout);
    assert!(
        text.contains("allocator window"),
        "summary line missing:\n{text}"
    );
    assert!(
        text.contains("stage2_cluster"),
        "span treetable missing:\n{text}"
    );
    assert!(
        text.contains("budget: 4096 MiB -> ok"),
        "verdict line missing:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Attribution acceptance: at `ICN_THREADS=1` (the canonical attribution
/// configuration) the per-span self bytes must account for the window —
/// their sum lands in [0.5x, 1.05x] of the allocator's windowed
/// `total_alloc_bytes`. The lower bound catches attribution silently
/// dropping stages; the upper bound catches double counting.
#[test]
fn span_attribution_accounts_for_the_window_at_one_thread() {
    let dir = std::env::temp_dir().join("icn_mem_attrib_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("attrib.json");
    let out = icn(
        &[
            "run",
            "--scale",
            "0.02",
            "--metrics-out",
            path.to_str().unwrap(),
        ],
        &[("ICN_THREADS", "1")],
    );
    assert!(out.status.success());
    let report = icn_obs::BenchReport::parse(&std::fs::read_to_string(&path).unwrap())
        .expect("parse report");
    let m = report.memory.as_ref().expect("memory section");
    let attributed: u64 = m.spans.values().map(|a| a.bytes).sum();
    let total = m.total_alloc_bytes;
    let ratio = attributed as f64 / total as f64;
    assert!(
        (0.5..=1.05).contains(&ratio),
        "span-attributed bytes {attributed} cover {ratio:.3} of the \
         window's {total} B (want 0.5..=1.05)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
