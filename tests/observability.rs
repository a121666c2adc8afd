//! End-to-end tests of the icn-obs observability layer threaded through
//! the pipeline: report schema, stage coverage, wall-time sanity and
//! counter determinism. A stage is a report's top-level span row, and
//! counters live once, at the report's root.
//!
//! Every test drives the process-global registry, so they serialize on a
//! shared lock (tests within one binary run concurrently by default).

use icn_repro::icn_obs::{self, BenchReport, Snapshot, PIPELINE_STAGES};
use icn_repro::prelude::*;

mod common;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// Runs `run` with the registry enabled and returns its result with the
/// raw snapshot (span tree included). `threads` pins `ICN_THREADS` for
/// the run; the previous value is restored afterwards.
fn metered<T>(threads: Option<&str>, run: impl FnOnce() -> T) -> (T, Snapshot) {
    let saved = std::env::var("ICN_THREADS").ok();
    if let Some(t) = threads {
        std::env::set_var("ICN_THREADS", t);
    }
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let out = run();
    let snap = obs.snapshot();
    obs.disable();
    obs.reset();
    match saved {
        Some(v) => std::env::set_var("ICN_THREADS", v),
        None => std::env::remove_var("ICN_THREADS"),
    }
    (out, snap)
}

/// Runs the full study with the registry enabled and returns the raw
/// snapshot (span tree included) at `threads`.
fn metered_snapshot(seed: u64, threads: Option<&str>) -> Snapshot {
    metered(threads, || {
        let ds = common::dataset_seeded(seed);
        let st = common::study_for(&ds);
        assert_eq!(st.cluster_sizes().len(), 9);
    })
    .1
}

/// Runs the full study at test scale with the registry enabled and
/// returns the report built from the resulting snapshot.
fn metered_run(seed: u64) -> BenchReport {
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let ds = common::dataset_seeded(seed);
    let st = common::study_for(&ds);
    assert_eq!(st.cluster_sizes().len(), 9);
    let report = BenchReport::build(&obs.snapshot(), "observability-test", ds.config.scale);
    obs.disable();
    obs.reset();
    report
}

/// The report's stages: its top-level span rows, in path order.
fn stages(report: &BenchReport) -> Vec<&str> {
    report
        .spans
        .keys()
        .map(String::as_str)
        .filter(|path| !path.contains('/'))
        .collect()
}

/// The wall of the named stage (a top-level span row), in milliseconds.
fn stage_wall_ms(report: &BenchReport, name: &str) -> f64 {
    let row = report
        .spans
        .get(name)
        .unwrap_or_else(|| panic!("stage {name} present"));
    row.wall.as_secs_f64() * 1e3
}

#[test]
fn report_round_trips_through_schema() {
    let _guard = LOCK.lock().unwrap();
    let report = metered_run(7);
    let text = report.to_json().to_pretty();
    let back = BenchReport::parse(&text).expect("schema-valid report");
    assert_eq!(back.run_id, "observability-test");
    assert_eq!(back.counters, report.counters);
    assert_eq!(stages(&back), stages(&report));
}

/// Result quality is recorded next to time and memory: stage 2 gauges
/// the clustering's ARI against the planted archetypes and, when the
/// sweep scored k, the silhouette at k; stage 3 the surrogate's training
/// and OOB accuracy; stage 5 the outdoor population's modal-cluster
/// share. Each gauge holds the study's own value bit for bit, and
/// survives a written report. The fast config sweeps nothing, so it sets
/// no silhouette gauge.
#[test]
fn quality_gauges_hold_the_study_results() {
    let _guard = LOCK.lock().unwrap();
    let ds = common::dataset();
    let planted = ds.planted_labels();
    let ari = |st: &IcnStudy| {
        let truth: Vec<usize> = st.live_rows.iter().map(|&i| planted[i]).collect();
        adjusted_rand_index(&st.labels, &truth)
    };
    let check = |snap: &Snapshot, want: &[(&str, f64)]| {
        for &(name, value) in want {
            assert_eq!(snap.gauges[name].to_bits(), value.to_bits(), "{name}");
        }
        let path = std::env::temp_dir().join(format!("icn-quality-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        BenchReport::build(snap, "quality-gauges", ds.config.scale)
            .write_to_file(path)
            .expect("write report");
        let text = std::fs::read_to_string(path).expect("read report");
        std::fs::remove_file(path).ok();
        let back = BenchReport::parse(&text).expect("schema-valid report");
        for &(name, value) in want {
            assert_eq!(
                back.gauges[name].to_bits(),
                value.to_bits(),
                "{name} read back"
            );
        }
    };

    let (study, snap) = metered(None, || common::study_for(&ds));
    assert!(study.k_sweep.is_empty());
    assert!(!snap.gauges.contains_key("cluster.silhouette"));
    check(
        &snap,
        &[
            ("cluster.ari_planted", ari(&study)),
            ("surrogate.accuracy", study.surrogate_accuracy),
            (
                "surrogate.oob_accuracy",
                study.surrogate_oob.expect("some OOB rows"),
            ),
            ("outdoor.dominant_share", study.outdoor.dominant.1),
        ],
    );

    let swept_config = StudyConfig {
        run_k_sweep: true,
        ..StudyConfig::fast()
    };
    let (swept, snap) = metered(None, || IcnStudy::run(&ds, swept_config));
    let at_k = swept
        .k_sweep
        .iter()
        .find(|q| q.k == swept.config.k)
        .expect("the sweep scores k");
    check(
        &snap,
        &[
            ("cluster.ari_planted", ari(&swept)),
            ("cluster.silhouette", at_k.silhouette),
        ],
    );
}

#[test]
fn stages_are_exactly_the_documented_pipeline() {
    let _guard = LOCK.lock().unwrap();
    let report = metered_run(7);
    // Only the study ran (generation happened before enable is irrelevant
    // here: generate IS under the registry too), so top-level spans are
    // the 5 pipeline stages plus dataset generation.
    let mut got = stages(&report);
    got.retain(|n| *n != "generate");
    assert_eq!(got, PIPELINE_STAGES.to_vec(), "stage set/order mismatch");
}

#[test]
fn stage_walls_are_positive_and_counters_nonzero() {
    let _guard = LOCK.lock().unwrap();
    let report = metered_run(7);
    for stage in stages(&report) {
        let wall = stage_wall_ms(&report, stage);
        assert!(wall > 0.0, "stage {stage} has non-positive wall {wall}");
    }
    // Spot-check that each stage's counters landed at the root.
    let c = &report.counters;
    assert!(c["transform.live_rows"] > 0);
    assert!(c["cluster.merges"] > 0);
    assert!(c["cluster.pairs"] > 0);
    assert!(c["forest.trees"] > 0);
    assert!(c["shap.tree_walks"] > 0);
    // The batch kernel derives each distinct walk state once per chunk;
    // a sample walked alone would visit every node. States can only
    // undercut visits by sharing, never exceed them.
    let visits = c["shap.node_visits"];
    let states = c["shap.walk_states"];
    assert!(states > 0, "no walk states recorded");
    assert!(
        states <= visits,
        "walk states {states} exceed node visits {visits}"
    );
    assert!(c["outdoor.antennas"] > 0);
}

#[test]
fn same_seed_runs_produce_identical_counters() {
    let _guard = LOCK.lock().unwrap();
    let a = metered_run(42);
    let b = metered_run(42);
    assert_eq!(a.counters, b.counters, "counters must be deterministic");
    // Span call-counts (not walls) must match too.
    let calls = |r: &BenchReport| -> Vec<(String, u64)> {
        r.spans.iter().map(|(p, s)| (p.clone(), s.calls)).collect()
    };
    assert_eq!(calls(&a), calls(&b));
}

#[test]
fn k_sweep_computes_the_condensed_matrix_once() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let ds = common::dataset();
    let config = StudyConfig {
        run_k_sweep: true,
        ..StudyConfig::fast()
    };
    let st = IcnStudy::run(&ds, config);
    let snap = obs.snapshot();
    obs.disable();
    obs.reset();
    assert!(!st.k_sweep.is_empty(), "sweep must actually run");
    // The Figure 2 sweep needs Euclidean distances while Ward works in
    // squared ones; deriving the former by entry-wise sqrt means the
    // O(N²·M) pairwise pass runs exactly once per study. This pins the
    // fix for the double computation (the span used to report 2 calls).
    let calls = snap.spans["stage2_cluster/condensed"].calls;
    assert_eq!(calls, 1, "pairwise distances computed more than once");
    // Regression guard for the sweep-point counter: when the sweep runs,
    // `cluster.k_sweep_points` must be recorded while the stage-2 span is
    // live and land in the built report, with one point per swept k. (A
    // report recorded *without* `--sweep` legitimately shows 0 — the
    // counter reflects configuration, not a bug — so this is the
    // configured-on case that bench recordings must use.)
    let report = BenchReport::build(&snap, "k-sweep-test", ds.config.scale);
    assert!(stage_wall_ms(&report, "stage2_cluster") > 0.0);
    assert_eq!(
        report.counters.get("cluster.k_sweep_points").copied(),
        Some(st.k_sweep.len() as u64),
        "k_sweep_points must count the swept ks"
    );
    assert!(report.counters["cluster.k_sweep_points"] > 0);
}

#[test]
fn ingest_counters_flow_into_reports() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let ds = common::dataset_at(0.2);
    let window = common::probe_window(2);
    let mut stream = record_stream(&ds, &window);
    let mut pipe = IngestPipeline::new(stream.schema(), IngestConfig::default());
    pipe.run(&mut stream).expect("clean stream");
    let ok = pipe.stats().ok;
    let report = BenchReport::build(&obs.snapshot(), "ingest-test", 0.2);
    obs.disable();
    obs.reset();
    assert!(stage_wall_ms(&report, "ingest") > 0.0);
    let c = &report.counters;
    assert_eq!(c["ingest.records_ok"], ok);
    assert_eq!(c["ingest.records_quarantined"], 0);
    assert!(c["ingest.chunks"] > 0);
    assert_eq!(
        report.spans["ingest/ingest_chunk"].calls,
        c["ingest.chunks"]
    );
}

#[test]
fn transient_retries_are_instants_on_the_ingest_span() {
    let _guard = LOCK.lock().unwrap();
    let ds = common::dataset_at(0.2);
    let window = common::probe_window(1);
    let faults = FaultConfig {
        transient: 0.2,
        ..FaultConfig::default()
    };
    let (retried, snap) = metered(None, || {
        let mut src = record_stream(&ds, &window).with_faults(faults);
        let config = IngestConfig {
            max_retries: 64,
            ..IngestConfig::default()
        };
        let mut pipe = IngestPipeline::new(src.inner().schema(), config);
        pipe.run(&mut src).expect("retries absorb the transients");
        pipe.stats().retried
    });
    assert!(retried > 0, "rate 0.2 must fire");
    assert_eq!(snap.counters["ingest.retried"], retried);
    let trace = icn_obs::chrome_trace(&snap);
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let instants: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(instants.len() as u64, retried);
    assert!(instants.iter().all(|&name| name == "transient_retry"));
    // The chunk spans still parent to the `ingest` span within the trace.
    let arg = |e: &Json, key: &str| e.get("args")?.get(key)?.as_f64().map(|v| v as u64);
    let ids: BTreeSet<u64> = events.iter().filter_map(|e| arg(e, "id")).collect();
    assert!(ids.len() > 1);
    assert!(events
        .iter()
        .filter_map(|e| arg(e, "parent"))
        .all(|p| ids.contains(&p)));
}

#[test]
fn every_span_roots_to_a_stage_at_any_thread_count() {
    let _guard = LOCK.lock().unwrap();
    let mut allowed: BTreeSet<&str> = PIPELINE_STAGES.iter().copied().collect();
    allowed.insert("generate");
    for threads in ["1", "4"] {
        let snap = metered_snapshot(7, Some(threads));
        assert!(!snap.span_tree.is_empty(), "no spans recorded");
        for span in &snap.span_tree {
            let root = snap
                .root_of(span)
                .unwrap_or_else(|| panic!("broken parent link under {}", span.path));
            assert!(
                allowed.contains(root.name.as_str()),
                "ICN_THREADS={threads}: span {} roots to {} (not a stage)",
                span.path,
                root.name
            );
            // Cross-thread workers must be adopted, never orphaned roots.
            if span.name == "fit_tree" || span.name == "shap_chunk" {
                let parent = span.parent.expect("worker span must have a parent");
                let p = snap.span_by_id(parent).expect("parent present in tree");
                assert!(
                    p.name == "forest_fit" || p.name == "shap_batch",
                    "worker span {} parented to {} instead of its stage",
                    span.path,
                    p.path
                );
            }
        }
    }
}

#[test]
fn span_paths_are_thread_count_invariant() {
    let _guard = LOCK.lock().unwrap();
    // Span *paths* (not counts: chunk sizes legitimately depend on the
    // worker count) must be identical however many threads run the
    // pipeline — worker spans always attach under the dispatching stage.
    let paths = |snap: &Snapshot| -> BTreeSet<String> {
        snap.span_tree.iter().map(|s| s.path.clone()).collect()
    };
    let seq = metered_snapshot(7, Some("1"));
    let par = metered_snapshot(7, Some("4"));
    assert_eq!(
        paths(&seq),
        paths(&par),
        "span path set changed between ICN_THREADS=1 and 4"
    );
    // The parallel run must actually have used several threads for the
    // worker spans, or this test is vacuous.
    let worker_threads: BTreeSet<u64> = par
        .span_tree
        .iter()
        .filter(|s| s.name == "fit_tree")
        .map(|s| s.thread)
        .collect();
    assert!(
        worker_threads.len() > 1,
        "expected fit_tree spans on multiple threads, got {worker_threads:?}"
    );
}

#[test]
fn chrome_trace_round_trips_and_covers_the_pipeline() {
    let _guard = LOCK.lock().unwrap();
    let snap = metered_snapshot(7, Some("2"));
    let json = icn_obs::chrome_trace(&snap);
    let text = json.to_compact();
    let back = Json::parse(&text).expect("exported trace must be valid JSON");

    let events = back
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut ids = BTreeSet::new();
    let mut names = BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        match ph {
            "X" => {
                // Complete events carry the span identity and timing.
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
                assert!(ev.get("tid").and_then(Json::as_f64).is_some());
                let args = ev.get("args").expect("args");
                let id = args.get("id").and_then(Json::as_f64).expect("args.id");
                ids.insert(id as u64);
                names.insert(ev.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            "i" | "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for stage in PIPELINE_STAGES {
        assert!(names.contains(stage), "trace missing stage {stage}");
    }
    for worker in ["fit_tree", "shap_chunk"] {
        assert!(names.contains(worker), "trace missing worker span {worker}");
    }
    // Every parent reference must resolve within the same trace.
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("X") {
            if let Some(parent) = ev.get("args").and_then(|a| a.get("parent")) {
                let p = parent.as_f64().expect("parent is numeric") as u64;
                assert!(ids.contains(&p), "dangling parent id {p}");
            }
        }
    }
}

#[test]
fn reports_carry_span_p99s_and_env() {
    let _guard = LOCK.lock().unwrap();
    let report = metered_run(7);
    assert!(report.env.threads >= 1, "env.threads not stamped");
    let back = BenchReport::parse(&report.to_json().to_pretty()).expect("round trip");
    // The per-task walls are the worker spans' occurrences, and forest
    // predict is timed under the stage that calls it.
    for path in [
        "stage3_surrogate/forest_fit/fit_tree",
        "stage3_surrogate/shap_batch/shap_chunk",
        "stage3_surrogate/predict",
        "stage5_outdoor/predict",
    ] {
        let span = report
            .spans
            .get(path)
            .unwrap_or_else(|| panic!("missing span {path}"));
        assert!(span.calls > 0, "{path} recorded no occurrences");
        assert!(
            span.p99 > Duration::ZERO && span.p99 <= span.wall,
            "{path}: p99 {:?} outside (0, total {:?}]",
            span.p99,
            span.wall
        );
        if span.calls == 1 {
            assert_eq!(span.p99, span.wall, "{path}: one call is its own p99");
        }
        let b = &back.spans[path];
        assert_eq!(b.calls, span.calls, "{path} calls");
        assert!(
            b.p99.abs_diff(span.p99) < Duration::from_micros(1),
            "{path} p99"
        );
    }
}

#[test]
fn probe_campaign_counters_flow_into_reports() {
    let _guard = LOCK.lock().unwrap();
    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let ds = common::dataset_at(0.01);
    let window = common::probe_window(2);
    let result = run_campaign(&ds, &window, &CampaignConfig::default());
    let report = BenchReport::build(&obs.snapshot(), "probe-test", 0.01);
    obs.disable();
    obs.reset();
    assert!(stage_wall_ms(&report, "probe_campaign") > 0.0);
    let c = &report.counters;
    assert_eq!(c["probe.sessions"], result.sessions as u64);
    assert_eq!(c["probe.antennas"], ds.num_antennas() as u64);
}

#[test]
fn stage6_series_is_attributed_to_weights_synth_and_median() {
    use icn_repro::icn_synth::traffic::event_schedule;
    let _guard = LOCK.lock().unwrap();
    let ds = common::dataset_at(0.05);
    let window = StudyCalendar::temporal_window();
    for threads in ["1", "2"] {
        let (st, snap) = metered(Some(threads), || {
            let config = StudyConfig {
                run_forecast: true,
                ..StudyConfig::fast()
            };
            IcnStudy::run(&ds, config)
        });
        let children: BTreeSet<&str> = snap
            .span_tree
            .iter()
            .filter(|s| s.path.rsplit_once('/').map(|(p, _)| p) == Some("stage6_forecast/series"))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            children,
            BTreeSet::from(["weights", "synth", "median"]),
            "ICN_THREADS={threads}: stage-6 series children"
        );
        // Counted independently: the distinct (template, schedule) pairs
        // and one Gaussian draw per (live antenna, service, hour).
        let mut pairs = Vec::new();
        for &row in &st.live_rows {
            let a = &ds.antennas[row];
            let pair = (
                a.archetype.template(),
                event_schedule(a, &window, ds.root_rng()),
            );
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        let draws = st.live_rows.len() * ds.num_services() * window.num_hours();
        assert_eq!(ds.num_services(), 73);
        assert_eq!(window.num_hours(), 504);
        assert_eq!(
            snap.counters["forecast.weight_tables"],
            pairs.len() as u64,
            "ICN_THREADS={threads}: weight tables"
        );
        assert_eq!(
            snap.counters["forecast.noise_draws"], draws as u64,
            "ICN_THREADS={threads}: noise draws"
        );
    }
}

#[test]
fn stage2_is_attributed_to_condensed_agglomerate_and_sweep() {
    let _guard = LOCK.lock().unwrap();
    let ds = common::dataset();
    let mut scans = Vec::new();
    for threads in ["1", "2"] {
        let (st, snap) = metered(Some(threads), || {
            let config = StudyConfig {
                run_k_sweep: true,
                ..StudyConfig::fast()
            };
            IcnStudy::run(&ds, config)
        });
        assert!(!st.k_sweep.is_empty(), "sweep must actually run");
        let children: BTreeSet<&str> = snap
            .span_tree
            .iter()
            .filter(|s| s.path.rsplit_once('/').map(|(p, _)| p) == Some("stage2_cluster"))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            children,
            BTreeSet::from(["condensed", "agglomerate", "sweep"]),
            "ICN_THREADS={threads}: stage-2 children"
        );
        // Each merge ends a scan.
        let nn_scans = snap.counters["cluster.nn_scans"];
        assert!(nn_scans >= snap.counters["cluster.merges"], "{nn_scans}");
        if threads == "1" {
            assert_eq!(snap.counters["cluster.nn_scans_shared"], 0);
        }
        scans.push(nn_scans);
    }
    assert_eq!(scans[0], scans[1], "scan count depends on ICN_THREADS");
}

#[test]
fn split_search_counters_attribute_the_prefilter() {
    let _guard = LOCK.lock().unwrap();
    let ds = common::dataset();
    let mut tallies = Vec::new();
    for threads in ["1", "2"] {
        let (_, snap) = metered(Some(threads), || {
            IcnStudy::run(&ds, StudyConfig::fast());
        });
        let boundaries = snap.counters["forest.split_boundaries"];
        let exact = snap.counters["forest.exact_scores"];
        assert!(0 < exact && exact <= boundaries, "{exact} of {boundaries}");
        // Every split a tree made was scored exactly: a binary tree with
        // `nodes` nodes has `(nodes − 1) / 2` of them.
        let splits = (snap.counters["forest.nodes"] - snap.counters["forest.trees"]) / 2;
        assert!(exact >= splits, "{exact} exact scores for {splits} splits");
        tallies.push((boundaries, exact));
    }
    assert_eq!(
        tallies[0], tallies[1],
        "split tallies depend on ICN_THREADS"
    );
}
