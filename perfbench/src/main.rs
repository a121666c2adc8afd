//! `perfbench` — the repository benchmark: a single-process, closed-loop
//! harness that runs one batch job at a time.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke [--seed <n>]
//! ```
//!
//! `--trace 0` times the workload's job end to end through the public
//! entry points at `ICN_THREADS = nproc`, with the `icn_obs` registry off,
//! and prints the end-to-end metrics. `--trace 1` replays the job layer by
//! layer (see `replay.rs`) at 1 and nproc threads and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; `failed` counts jobs
//! whose output check failed. `--smoke` runs every workload at a tiny size
//! in both modes, checks that a corrupted output is caught, and checks the
//! printed metrics against `BENCHMARK.json`.

#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

mod replay;
mod rss;
mod workloads;

use icn_obs::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Workload};

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ari_planted", "score"),
    ("surrogate_acc", "fraction"),
    ("forecast_mae", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units.
const PER_LAYER: [(&str, &str); 34] = [
    ("synth.generate_ms", "ms"),
    ("synth.feed_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("cluster.condensed_ms", "ms"),
    ("cluster.agglomerate_ms", "ms"),
    ("cluster.sweep_ms", "ms"),
    ("cluster.cut_ms", "ms"),
    ("cluster.rss_growth_mb", "MB"),
    ("forest.fit_ms", "ms"),
    ("forest.predict_ms", "ms"),
    ("forest.trees_per_s", "1/s"),
    ("shap.batch_ms", "ms"),
    ("shap.explain_ms", "ms"),
    ("shap.walks_per_s", "1/s"),
    ("core.env_ms", "ms"),
    ("core.outdoor_ms", "ms"),
    ("forecast.series_ms", "ms"),
    ("forecast.fit_ms", "ms"),
    ("ingest.run_ms", "ms"),
    ("ingest.records_per_s", "1/s"),
    ("ingest.accept_ratio", "fraction"),
    ("cluster.condensed.par_eff", "ratio"),
    ("cluster.agglomerate.par_eff", "ratio"),
    ("forest.fit.par_eff", "ratio"),
    ("shap.batch.par_eff", "ratio"),
    ("forecast.series.par_eff", "ratio"),
    ("forecast.fit.par_eff", "ratio"),
    ("ingest.run.par_eff", "ratio"),
    ("job.wall_1t_s", "s"),
    ("job.wall_s", "s"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("obs.meter_overhead", "ratio"),
];

/// Layers whose parallel efficiency is reported, with the metric name.
const PAR_EFF: [(&str, &str); 7] = [
    ("cluster.condensed", "cluster.condensed.par_eff"),
    ("cluster.agglomerate", "cluster.agglomerate.par_eff"),
    ("forest.fit", "forest.fit.par_eff"),
    ("shap.batch", "shap.batch.par_eff"),
    ("forecast.series", "forecast.series.par_eff"),
    ("forecast.fit", "forecast.fit.par_eff"),
    ("ingest.run", "ingest.run.par_eff"),
];

/// Value of a quality metric on a workload that does not produce it: the
/// output must name every metric, and a constant nonzero value never
/// reads as a change.
const NOT_APPLICABLE: f64 = 1.0;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 5;

/// Timed jobs per `--trace 0` run, at least, however short `--seconds`.
const MIN_JOBS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <study|cluster_wide|forecast|ingest_dirty> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke [--seed <n>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--seconds must be ≥ 0".into());
    }
    Ok(args)
}

fn set_threads(n: usize) {
    std::env::set_var("ICN_THREADS", n.to_string());
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Named samples, kept in insertion order.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, xs)) => xs.push(v),
            None => self.0.push((name, vec![v])),
        }
    }
    fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, xs)| xs)
    }
    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// The outcome of one benchmark run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Run {
    /// Counts one checked job; a failed check is recorded, not fatal.
    fn tally(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("perfbench: check failed ({what}): {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is declared");
        self.metrics.push((name, unit, value));
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, v)| {
                (
                    name,
                    Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failures.len() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    }
}

/// Builds the first `count` inputs of a run, setting up at least `SETUPS`
/// times: set-up `j` builds input `j % count`, replacing (after dropping)
/// any earlier copy. Records each set-up's timings.
fn setups(w: &Workload, seed: u64, count: usize, samples: &mut Samples) -> Vec<Inputs> {
    let mut slots: Vec<Option<Inputs>> = (0..count).map(|_| None).collect();
    for j in 0..SETUPS.max(count) {
        let i = j % count;
        slots[i] = None;
        let t0 = Instant::now();
        let (inputs, generate_s, feed_s) = workloads::setup(w, w.input_seed(seed, i));
        samples.push("setup_s", t0.elapsed().as_secs_f64());
        samples.push("synth.generate_ms", generate_s * 1e3);
        samples.push("synth.feed_ms", feed_s * 1e3);
        slots[i] = Some(inputs);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every input set up"))
        .collect()
}

/// Runs the job untraced and returns its wall time with its output.
fn timed_job(w: &Workload, inputs: &Inputs) -> (Duration, workloads::Output) {
    let t0 = Instant::now();
    let out = workloads::run_job(w, inputs);
    (t0.elapsed(), out)
}

/// `--trace 0`: end-to-end wall, set-up, peak RSS and result quality.
///
/// An unmeasured warm-up pass over the run's inputs gives each input's
/// reference output; timed passes follow until `seconds` have passed and
/// at least `MIN_JOBS` jobs ran, and every timed job must reproduce its
/// reference exactly. `wall_s` is the mean over inputs of each input's
/// median job wall, `peak_rss_mb` the highest job's resident high-water
/// mark; the quality metrics are means over inputs.
/// Also returns every timed job's `(wall s, peak RSS MB)` in run order.
fn run_timed(w: &Workload, seed: u64, seconds: f64, nproc: usize) -> (Run, Vec<(f64, f64)>) {
    let mut run = Run::default();
    let mut s = Samples::default();
    let inputs = setups(w, seed, w.inputs, &mut s);
    set_threads(nproc);

    let mut references = Vec::new();
    let mut quality = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let warm = workloads::run_job(w, input);
        run.tally(
            &format!("warm-up {i}"),
            workloads::check(input, &warm, None),
        );
        references.push(workloads::print(&warm));
        quality.push(workloads::quality(input, &warm));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mean_of = |f: fn(&workloads::Quality) -> Option<f64>| {
        let values: Vec<f64> = quality.iter().filter_map(f).collect();
        (!values.is_empty()).then(|| mean(&values))
    };
    let forecast_mae = mean_of(|q| q.forecast_mae);
    if let Some(share) = forecast_mae {
        // Over the run, not per job: on a single dataset at scale 0.5 ETS
        // and seasonal-naive come within a few percent for some seeds.
        let skill = if share < 1.0 {
            Ok(())
        } else {
            Err(format!(
                "ETS MAE is {share} of the seasonal-naive MAE, not below it"
            ))
        };
        run.tally("forecast skill", skill);
    }

    let start = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        for (i, input) in inputs.iter().enumerate() {
            rss::reset_peak();
            let (wall, out) = timed_job(w, input);
            let peak = rss::peak_mb();
            s.push("peak_rss_mb", peak);
            walls[i].push(wall.as_secs_f64());
            jobs.push((wall.as_secs_f64(), peak));
            let check = workloads::check(input, &out, Some(&references[i]));
            run.tally(&format!("input {i} job {}", walls[i].len()), check);
        }
    }

    let per_input: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    run.set(&END_TO_END, "wall_s", mean(&per_input));
    run.set(&END_TO_END, "setup_s", s.median("setup_s"));
    // The high-water mark climbs over the first jobs while the allocator
    // keeps freed memory, then levels off; the highest job is that level.
    let peak = s.get("peak_rss_mb").iter().copied().fold(0.0, f64::max);
    run.set(&END_TO_END, "peak_rss_mb", peak);
    let ari = mean_of(|q| q.ari_planted);
    let accuracy = mean_of(|q| q.surrogate_acc);
    run.set(&END_TO_END, "ari_planted", ari.unwrap_or(NOT_APPLICABLE));
    run.set(
        &END_TO_END,
        "surrogate_acc",
        accuracy.unwrap_or(NOT_APPLICABLE),
    );
    run.set(
        &END_TO_END,
        "forecast_mae",
        forecast_mae.unwrap_or(NOT_APPLICABLE),
    );
    (run, jobs)
}

/// `--trace 1`: per-layer numbers from the traced replay.
///
/// Each cycle runs the job untraced, metered (registry on), replayed at
/// `nproc` threads, replayed at one thread, and untraced at one thread.
/// Every output — replays layer by layer — must equal the warm-up's, so
/// the one-thread jobs also check thread-count invariance. Only the run's
/// first input is traced.
fn run_traced(w: &Workload, seed: u64, seconds: f64, nproc: usize) -> Run {
    let mut run = Run::default();
    let mut s = Samples::default();
    let inputs = setups(w, seed, 1, &mut s).pop().expect("one input");

    set_threads(nproc);
    let warm = workloads::run_job(w, &inputs);
    run.tally("warm-up", workloads::check(&inputs, &warm, None));
    let reference = workloads::print(&warm);
    drop(warm);

    let registry = icn_obs::global();
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        cycles += 1;
        let (wall, out) = timed_job(w, &inputs);
        let untraced = wall.as_secs_f64();
        s.push("job.wall_s", untraced);
        run.tally(
            "untraced",
            workloads::check(&inputs, &out, Some(&reference)),
        );
        drop(out);

        registry.reset();
        registry.enable();
        let (wall, out) = timed_job(w, &inputs);
        registry.disable();
        registry.reset();
        s.push("obs.meter_overhead", wall.as_secs_f64() / untraced);
        run.tally("metered", workloads::check(&inputs, &out, Some(&reference)));
        drop(out);

        let trace_n = replay::replay(w, &inputs);
        set_threads(1);
        let trace_1 = replay::replay(w, &inputs);
        let (wall_1t, out) = timed_job(w, &inputs);
        set_threads(nproc);
        s.push("job.wall_1t_s", wall_1t.as_secs_f64());
        run.tally(
            "untraced, 1 thread",
            workloads::check(&inputs, &out, Some(&reference)),
        );
        drop(out);
        for (what, trace) in [("replay", &trace_n), ("replay, 1 thread", &trace_1)] {
            let bad = workloads::diff(&trace.print, &reference);
            let check = if bad.is_empty() {
                Ok(())
            } else {
                Err(format!("replayed layers {bad:?} differ from the job"))
            };
            run.tally(what, check);
        }
        record_trace(&mut s, &trace_n, &trace_1, untraced, nproc);
    }

    for &(name, _) in &PER_LAYER {
        run.set(&PER_LAYER, name, s.median(name));
    }
    run
}

fn record_trace(
    s: &mut Samples,
    trace_n: &replay::Trace,
    trace_1: &replay::Trace,
    untraced_s: f64,
    nproc: usize,
) {
    const SPANS: [(&str, &str); 14] = [
        ("core.transform", "core.transform_ms"),
        ("cluster.condensed", "cluster.condensed_ms"),
        ("cluster.agglomerate", "cluster.agglomerate_ms"),
        ("cluster.sweep", "cluster.sweep_ms"),
        ("cluster.cut", "cluster.cut_ms"),
        ("forest.fit", "forest.fit_ms"),
        ("forest.predict", "forest.predict_ms"),
        ("shap.batch", "shap.batch_ms"),
        ("shap.explain", "shap.explain_ms"),
        ("core.env", "core.env_ms"),
        ("core.outdoor", "core.outdoor_ms"),
        ("forecast.series", "forecast.series_ms"),
        ("forecast.fit", "forecast.fit_ms"),
        ("ingest.run", "ingest.run_ms"),
    ];
    for (span, metric) in SPANS {
        s.push(metric, trace_n.get(span));
    }
    // A rate or ratio over a layer that did not run reads 0.
    let per_s = |work: f64, ms: f64| if ms > 0.0 { work / (ms / 1e3) } else { 0.0 };
    s.push("cluster.rss_growth_mb", trace_n.cluster_rss_growth_mb);
    s.push(
        "forest.trees_per_s",
        per_s(trace_n.trees, trace_n.get("forest.fit")),
    );
    s.push(
        "shap.walks_per_s",
        per_s(trace_n.samples * trace_n.trees, trace_n.get("shap.batch")),
    );
    s.push(
        "ingest.records_per_s",
        per_s(trace_n.records, trace_n.get("ingest.run")),
    );
    let accept = if trace_n.records > 0.0 {
        trace_n.accepted / trace_n.records
    } else {
        0.0
    };
    s.push("ingest.accept_ratio", accept);
    for (layer, metric) in PAR_EFF {
        let (t1, tn) = (trace_1.get(layer), trace_n.get(layer));
        let eff = if tn > 0.0 {
            t1 / (nproc as f64 * tn)
        } else {
            0.0
        };
        s.push(metric, eff);
    }
    s.push("trace.wall_ms", trace_n.wall_ms);
    s.push("trace.unattributed_ms", trace_n.unattributed_ms());
    s.push("trace.overhead", trace_n.wall_ms / 1e3 / untraced_s);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.smoke {
        return smoke(args.seed, nproc);
    }
    let Some(w) = workloads::workload(&args.workload, false) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} threads={nproc} nproc={nproc} trace={}",
        w.name, args.seed, args.trace as u8
    );
    let run = if args.trace {
        run_traced(&w, args.seed, args.seconds, nproc)
    } else {
        let (run, jobs) = run_timed(&w, args.seed, args.seconds, nproc);
        // Too few jobs in a run for a percentile with ten samples beyond
        // it, so the tail is the slowest job, printed with every job.
        let walls: Vec<f64> = jobs.iter().map(|j| j.0).collect();
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        let all: Vec<String> = jobs
            .iter()
            .map(|(w, p)| format!("{w:.3}s/{p:.1}MB"))
            .collect();
        println!(
            "{} timed jobs: median wall {:.4} s, slowest {slowest:.4} s; wall/peak RSS per job: {}",
            jobs.len(),
            median(&walls),
            all.join(" ")
        );
        run
    };
    print_metrics(&run);
    println!(
        "fail_ratio {} ({} of {} checked jobs)",
        run.fail_ratio(),
        run.failures.len(),
        run.attempted
    );
    println!("{}", run.json());
    ExitCode::SUCCESS
}

fn print_metrics(run: &Run) {
    for &(name, unit, v) in &run.metrics {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `(name, unit)` of every declared metric, and the workload names.
type Declared = (Vec<(String, String)>, Vec<String>);

/// Reads the metrics and workloads `BENCHMARK.json` declares.
fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text)?;
    let list = |key: &str| -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let mut metrics: Vec<(String, String)> = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        metrics.extend(
            list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"))),
        );
    }
    let names = list("workloads").iter().map(|w| field(w, "name")).collect();
    Ok((metrics, names))
}

/// Every workload at a tiny size, in both modes, plus one deliberately
/// corrupted output per workload, which must be counted as failed.
fn smoke(seed: u64, nproc: usize) -> ExitCode {
    println!(
        "perfbench smoke: seed={seed} threads={nproc} nproc={nproc} commit={}",
        git_commit()
    );
    let (declared, declared_workloads) = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut printed: Vec<(&str, &str)> = Vec::new();
    for name in &declared_workloads {
        if workloads::workload(name, true).is_none() {
            problems.push(format!("BENCHMARK.json names unknown workload `{name}`"));
        }
    }
    for name in workloads::NAMES {
        let w = workloads::workload(name, true).expect("known workload");
        set_threads(nproc);
        let (timed, _) = run_timed(&w, seed, 0.0, nproc);
        let traced = run_traced(&w, seed, 0.0, nproc);

        let (inputs, _, _) = workloads::setup(&w, seed);
        let mut out = workloads::run_job(&w, &inputs);
        let reference = workloads::print(&out);
        workloads::corrupt(&mut out);
        let mut corrupted = Run::default();
        corrupted.tally(
            "corrupted output",
            workloads::check(&inputs, &out, Some(&reference)),
        );
        if corrupted.failures.is_empty() {
            problems.push(format!("{name}: a corrupted output passed its check"));
        }

        println!("workload {name} (scale {}):", w.scale);
        for run in [&timed, &traced] {
            print_metrics(run);
            printed.extend(run.metrics.iter().map(|&(n, u, _)| (n, u)));
            if !run.failures.is_empty() {
                problems.push(format!(
                    "{name}: unchanged outputs failed {:?}",
                    run.failures
                ));
            }
        }
        for run in [&timed, &traced, &corrupted] {
            attempted += run.attempted;
            failed += run.failures.len() as u64;
        }
    }
    for (name, unit) in &declared {
        if !printed.iter().any(|(n, u)| n == name && u == unit) {
            problems.push(format!(
                "metric {name} [{unit}] is declared but not printed"
            ));
        }
    }
    println!(
        "fail_ratio {} ({failed} of {attempted} checked jobs; {} outputs were corrupted on purpose)",
        failed as f64 / attempted.max(1) as f64,
        workloads::NAMES.len()
    );
    if problems.is_empty() {
        println!("smoke ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench smoke: {p}");
        }
        ExitCode::FAILURE
    }
}
