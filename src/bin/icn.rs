//! `icn` — command-line interface to the reproduction.
//!
//! ```text
//! icn generate --scale 0.1 --out data/          # synthesize & export a campaign
//! icn run      --scale 0.1 [--sweep] [--json]   # run the full pipeline, print findings
//! icn explain  --scale 0.1 --cluster 3 --top 15 # SHAP explanation of one cluster
//! icn temporal --scale 0.1 --cluster 0          # Figure 10-style heatmap of one cluster
//! icn probe    --scale 0.05 --days 3            # Section 3 collection-path simulation
//! icn ingest   --scale 0.05 --days 3            # streaming ingest of the record feed
//! icn forecast --scale 0.1 --horizon 24         # busy-hour forecasts + anomaly scan
//! icn testkit  [--bless]                        # golden-snapshot check / regeneration
//! icn obs diff a.json b.json                    # gate report b against baseline a
//! icn obs top  report.json                      # self-time treetable of a report
//! icn obs mem  report.json                      # allocation treetable of a report
//! ```
//!
//! `icn run` is an alias of `icn study`. `--metrics-out <path>` writes an
//! `icn-obs/v5` BenchReport (one row per span path; a stage is a top-level
//! row), `--trace-out <path>` a Chrome trace-event JSON (open in
//! `chrome://tracing` or Perfetto); either flag enables the
//! observability registry for the run. `--mem-budget-mb <n>` additionally
//! enforces a ceiling on the allocator window peak — a breached budget
//! exits with status 3 after the report (with its stamped verdict) is
//! written. A dataset whose totals matrices alone exceed the budget is
//! refused before generation, also with status 3. `icn obs mem
//! report.json` prints the per-span allocation treetable of a report;
//! `obs top` and `obs mem` take exactly one report path.
//!
//! Flags are parsed by hand (the workspace deliberately avoids extra
//! dependencies); an unknown flag or a missing or bad value exits with
//! status 2. Every subcommand is deterministic in `--seed`.

use icn_repro::prelude::*;

// The binary owns the process, so it installs the counting allocator:
// metered runs then carry an allocator-measured `memory` section. While
// the registry is disabled this is a single relaxed-load branch per
// allocation (see `icn_obs::mem`), and outputs stay bit-identical.
#[global_allocator]
static ALLOC: icn_repro::icn_obs::CountingAlloc = icn_repro::icn_obs::CountingAlloc::system();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit(None);
    };
    if cmd == "obs" {
        cmd_obs(&args[1..]);
        return;
    }
    // `run` is the ergonomic alias for the full pipeline.
    let cmd = if cmd == "study" { "run" } else { cmd.as_str() };
    let opts = Opts::parse(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}\nrun `icn help` for the flags");
        std::process::exit(2);
    });
    let run = |o: &Opts| match cmd {
        "generate" => cmd_generate(o),
        "run" => cmd_study(o),
        "explain" => cmd_explain(o),
        "temporal" => cmd_temporal(o),
        "forecast" => cmd_forecast(o),
        "probe" => cmd_probe(o),
        "ingest" => cmd_ingest(o),
        "testkit" => cmd_testkit(o),
        "help" | "--help" | "-h" => usage_and_exit(None),
        other => usage_and_exit(Some(other)),
    };
    let build_report = |snap: &icn_repro::icn_obs::Snapshot| {
        let mut report = BenchReport::build(snap, &format!("icn-{cmd}"), opts.scale);
        if cmd == "ingest" {
            report.env.chunk = Some(opts.chunk as u64);
        }
        // Stamp the enforced budget and its verdict into the memory
        // section, so the report itself records whether the run fit.
        if let (Some(mb), Some(mem)) = (opts.mem_budget_mb, report.memory.as_mut()) {
            mem.budget_mb = Some(mb);
            mem.budget_verdict = Some(
                if mem.peak_bytes > mb.saturating_mul(1024 * 1024) {
                    "breached"
                } else {
                    "ok"
                }
                .to_string(),
            );
        }
        report
    };
    // Reports whether the run fit its `--mem-budget-mb`; `false` means
    // the caller must exit 3 (after every output file is written).
    let check_budget = |report: &BenchReport| -> bool {
        let Some(mb) = opts.mem_budget_mb else {
            return true;
        };
        match &report.memory {
            Some(mem) if mem.breached() => {
                eprintln!(
                    "memory budget BREACHED: allocator peak {} bytes > {mb} MiB \
                     (threads={})",
                    mem.peak_bytes, report.env.threads
                );
                false
            }
            Some(mem) => {
                eprintln!(
                    "memory budget ok: allocator peak {} bytes <= {mb} MiB (threads={})",
                    mem.peak_bytes, report.env.threads
                );
                true
            }
            None => {
                eprintln!("memory budget: no allocation data recorded; budget not enforced");
                true
            }
        }
    };
    if let Some(sweep) = &opts.threads_sweep {
        // One invocation, one report per thread count: every run shares
        // the binary and machine state, so the set is a clean scaling
        // curve. The `ICN_THREADS` override is how `par::thread_count`
        // and `EnvInfo::capture` both resolve worker counts, so each
        // member report self-describes its configuration.
        let Some(metrics_path) = &opts.metrics_out else {
            eprintln!("--threads-sweep needs --metrics-out <path> for the report set");
            std::process::exit(2);
        };
        let saved = std::env::var("ICN_THREADS").ok();
        let obs = icn_repro::icn_obs::global();
        obs.enable();
        let mut reports = Vec::with_capacity(sweep.len());
        let mut last_snap = None;
        let mut budget_ok = true;
        for &threads in sweep {
            std::env::set_var("ICN_THREADS", threads.to_string());
            // Also zeroes the allocation window, so each sweep member
            // gets — and is budget-checked against — its own peak.
            obs.reset();
            eprintln!("threads-sweep: running {cmd} with {threads} thread(s)...");
            run(&opts);
            let snap = obs.snapshot();
            let report = build_report(&snap);
            budget_ok &= check_budget(&report);
            reports.push(report);
            last_snap = Some(snap);
        }
        match saved {
            Some(v) => std::env::set_var("ICN_THREADS", v),
            None => std::env::remove_var("ICN_THREADS"),
        }
        let set = icn_repro::icn_obs::BenchReportSet { reports };
        if let Err(e) = set.write_to_file(metrics_path) {
            eprintln!("failed to write metrics to {metrics_path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "metrics set ({} reports) written to {metrics_path}",
            set.reports.len()
        );
        if let (Some(path), Some(snap)) = (&opts.trace_out, &last_snap) {
            if let Err(e) = icn_repro::icn_obs::write_chrome_trace(snap, path) {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("chrome trace (last sweep run) written to {path}");
        }
        if !budget_ok {
            std::process::exit(3);
        }
        return;
    }
    // A memory budget needs the allocation window even without report or
    // trace output, so it enables metering on its own.
    let metered =
        opts.metrics_out.is_some() || opts.trace_out.is_some() || opts.mem_budget_mb.is_some();
    if metered {
        icn_repro::icn_obs::global().enable();
    }
    run(&opts);
    if metered {
        let snap = icn_repro::icn_obs::global().snapshot();
        let report = build_report(&snap);
        if let Some(path) = &opts.metrics_out {
            if let Err(e) = report.write_to_file(path) {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics written to {path}");
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = icn_repro::icn_obs::write_chrome_trace(&snap, path) {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("chrome trace written to {path}");
        }
        // Enforced only after every requested output is on disk, so a
        // breached run still leaves its report (verdict included) behind.
        if !check_budget(&report) {
            std::process::exit(3);
        }
    }
}

/// `icn obs <diff|top|mem>` — report tooling; parses its own positional
/// arguments (the common Opts flags do not apply here).
fn cmd_obs(args: &[String]) {
    // Every report file — single reports and `icn-bench-set/1` sweeps
    // alike — loads through the set parser.
    fn load_set(path: &str) -> icn_repro::icn_obs::BenchReportSet {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match icn_repro::icn_obs::BenchReportSet::parse(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    match args.first().map(String::as_str) {
        Some("diff") => {
            let mut paths: Vec<&String> = Vec::new();
            let mut t = icn_repro::icn_obs::DiffThresholds::default();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--stage-wall-ratio" => {
                        // Repeatable `name=ratio` per-stage override; a
                        // ratio that is NaN, infinite or not positive
                        // would disable the gate, so it is a usage error.
                        match args.get(i + 1).and_then(|v| {
                            let (name, ratio) = v.split_once('=')?;
                            let ratio = ratio.parse::<f64>().ok()?;
                            (ratio.is_finite() && ratio > 0.0).then(|| (name.to_string(), ratio))
                        }) {
                            Some(pair) => t.stage_wall_ratios.push(pair),
                            None => {
                                eprintln!(
                                    "--stage-wall-ratio wants <stage>=<ratio> with a finite \
                                     ratio > 0, e.g. stage3_surrogate=1.5"
                                );
                                std::process::exit(2);
                            }
                        }
                        i += 2;
                    }
                    flag if flag.starts_with("--") => {
                        eprintln!("unknown flag: {flag}");
                        std::process::exit(2);
                    }
                    _ => {
                        paths.push(&args[i]);
                        i += 1;
                    }
                }
            }
            let [a_path, b_path] = paths[..] else {
                eprintln!(
                    "usage: icn obs diff <baseline.json> <candidate.json> \
                     [--stage-wall-ratio <stage>=<r>]..."
                );
                std::process::exit(2);
            };
            let a = load_set(a_path);
            let b = load_set(b_path);
            // An override that gates nothing is a usage error.
            if let Err(e) = t.check_overrides(&a) {
                eprintln!("--stage-wall-ratio: {e} ({a_path})");
                std::process::exit(2);
            }
            let pairs = icn_repro::icn_obs::pair_reports(&a, &b);
            if pairs.is_empty() {
                eprintln!(
                    "no comparable configuration: {a_path} (threads {:?}) vs {b_path} (threads {:?})",
                    a.reports.iter().map(|r| r.env.threads).collect::<Vec<_>>(),
                    b.reports.iter().map(|r| r.env.threads).collect::<Vec<_>>(),
                );
                std::process::exit(1);
            }
            let mut failed = false;
            for (base, cand) in &pairs {
                if pairs.len() > 1 {
                    println!("== scale={} threads={} ==", base.scale, base.env.threads);
                }
                let diff = icn_repro::icn_obs::diff_reports(base, cand, &t);
                print!("{}", diff.render());
                failed |= !diff.passed();
            }
            if failed {
                eprintln!("perf gate FAILED: {b_path} regressed against {a_path}");
                std::process::exit(1);
            }
            println!("perf gate passed: {b_path} vs {a_path}");
        }
        Some(cmd @ ("top" | "mem")) => {
            let [path] = &args[1..] else {
                eprintln!("usage: icn obs {cmd} <report.json>");
                std::process::exit(2);
            };
            let set = load_set(path);
            for report in &set.reports {
                if set.reports.len() > 1 {
                    println!(
                        "== scale={} threads={} ==",
                        report.scale, report.env.threads
                    );
                }
                if cmd == "top" {
                    print!("{}", icn_repro::icn_obs::render_top(report));
                } else {
                    print!("{}", icn_repro::icn_obs::render_mem(report));
                }
            }
        }
        _ => {
            eprintln!("usage: icn obs <diff|top|mem> ...");
            std::process::exit(2);
        }
    }
}

/// Common flags.
struct Opts {
    scale: f64,
    scale_explicit: bool,
    seed: u64,
    sweep: bool,
    json: bool,
    bless: bool,
    cluster: usize,
    top: usize,
    days: usize,
    out: Option<String>,
    golden_dir: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    mem_budget_mb: Option<u64>,
    threads_sweep: Option<Vec<usize>>,
    chunk: usize,
    lateness: u32,
    faults: Option<String>,
    fault_seed: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    halt_after: Option<u64>,
    verify: bool,
    cluster_path: ClusterPath,
    cluster_budget_mb: Option<usize>,
    horizon: usize,
    model: Model,
}

impl Opts {
    /// Parses the flags after the subcommand. Every flag but the switches
    /// takes a value. An unknown flag, a missing or unparsable value, a
    /// `--scale` that is not a positive finite number, a zero `--days`,
    /// `--chunk`, `--top`, `--horizon` or `--mem-budget-mb`, and a
    /// `--horizon` longer than the stage-6 series are usage errors.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            scale: 0.1,
            scale_explicit: false,
            seed: SynthConfig::default().seed,
            sweep: false,
            json: false,
            bless: false,
            cluster: 0,
            top: 10,
            days: 3,
            out: None,
            golden_dir: None,
            metrics_out: None,
            trace_out: None,
            mem_budget_mb: None,
            threads_sweep: None,
            chunk: 4096,
            lateness: 2,
            faults: None,
            fault_seed: None,
            checkpoint: None,
            resume: false,
            halt_after: None,
            verify: false,
            cluster_path: ClusterPath::Auto,
            cluster_budget_mb: None,
            horizon: 24,
            model: Model::Ets,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let flag = flag.as_str();
            match flag {
                "--scale" => {
                    o.scale = value(&mut iter, flag, |s: &f64| s.is_finite() && *s > 0.0)?;
                    o.scale_explicit = true;
                }
                "--seed" => o.seed = value(&mut iter, flag, any)?,
                "--cluster" => o.cluster = value(&mut iter, flag, any)?,
                "--top" => o.top = value(&mut iter, flag, positive)?,
                "--days" => o.days = value(&mut iter, flag, positive)?,
                "--out" => o.out = Some(value(&mut iter, flag, any)?),
                "--golden-dir" => o.golden_dir = Some(value(&mut iter, flag, any)?),
                "--bless" => o.bless = true,
                "--metrics-out" => o.metrics_out = Some(value(&mut iter, flag, any)?),
                "--trace-out" => o.trace_out = Some(value(&mut iter, flag, any)?),
                "--mem-budget-mb" => o.mem_budget_mb = Some(value(&mut iter, flag, positive)?),
                "--threads-sweep" => {
                    let v: String = value(&mut iter, flag, any)?;
                    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                    let parsed: Option<Vec<usize>> = v
                        .split(',')
                        .map(|part| match part.trim() {
                            "max" => Some(hw),
                            p => p.parse().ok().filter(positive),
                        })
                        .collect();
                    let Some(mut list) = parsed else {
                        return Err(format!(
                            "--threads-sweep wants a comma-separated list of thread counts \
                             (or max), e.g. 1,2 or 1,max (got {v:?})"
                        ));
                    };
                    // `1,max` on a single-core box collapses to one
                    // configuration, not two identical runs.
                    list.dedup();
                    o.threads_sweep = Some(list);
                }
                "--chunk" => o.chunk = value(&mut iter, flag, positive)?,
                "--lateness" => o.lateness = value(&mut iter, flag, any)?,
                "--faults" => o.faults = Some(value(&mut iter, flag, any)?),
                "--fault-seed" => o.fault_seed = Some(value(&mut iter, flag, any)?),
                "--checkpoint" => o.checkpoint = Some(value(&mut iter, flag, any)?),
                "--halt-after" => o.halt_after = Some(value(&mut iter, flag, any)?),
                "--resume" => o.resume = true,
                "--verify" => o.verify = true,
                "--sweep" => o.sweep = true,
                "--json" => o.json = true,
                "--cluster-path" => {
                    let v: String = value(&mut iter, flag, any)?;
                    o.cluster_path = ClusterPath::parse(&v).ok_or_else(|| {
                        format!("--cluster-path wants one of: exact, sampled, auto (got {v:?})")
                    })?;
                }
                "--horizon" => {
                    o.horizon = value(&mut iter, flag, positive)?;
                    let window = StudyCalendar::temporal_window().num_hours();
                    if o.horizon > window {
                        return Err(format!(
                            "--horizon {} exceeds the {window}-hour series stage 6 forecasts from",
                            o.horizon
                        ));
                    }
                }
                "--model" => {
                    let v: String = value(&mut iter, flag, any)?;
                    o.model = Model::parse(&v).ok_or_else(|| {
                        format!("--model wants one of: naive, ets, forest (got {v:?})")
                    })?;
                }
                "--cluster-budget-mb" => o.cluster_budget_mb = Some(value(&mut iter, flag, any)?),
                unknown => return Err(format!("unknown flag: {unknown}")),
            }
        }
        Ok(o)
    }

    /// Generates the campaign, after refusing one that cannot fit
    /// `--mem-budget-mb`: its totals matrices alone bound the footprint
    /// from below, so a budget below them exits 3 before generation.
    fn dataset(&self) -> Dataset {
        let config = SynthConfig::paper()
            .with_scale(self.scale)
            .with_seed(self.seed);
        if let Some(mb) = self.mem_budget_mb {
            let need = config.min_footprint_bytes();
            if need > mb.saturating_mul(1024 * 1024) {
                eprintln!(
                    "memory budget BREACHED before generation: the scale-{} totals \
                     matrices alone need {need} bytes > {mb} MiB",
                    self.scale
                );
                std::process::exit(3);
            }
        }
        Dataset::generate(config)
    }

    fn study(&self, ds: &Dataset) -> IcnStudy {
        let defaults = StudyConfig::paper();
        let config = StudyConfig {
            run_k_sweep: self.sweep,
            cluster_path: self.cluster_path,
            cluster_budget_mb: self.cluster_budget_mb.unwrap_or(defaults.cluster_budget_mb),
            ..defaults
        };
        match IcnStudy::try_run(ds, config) {
            Ok(study) => study,
            Err(e) => {
                eprintln!("study failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The value after `flag`, parsed as a `T` that `valid` accepts.
fn value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("bad value for {flag}: {v}"))
}

/// Accepts any value of the flag's type.
fn any<T>(_: &T) -> bool {
    true
}

/// Accepts a count above zero.
fn positive<T: Default + PartialOrd>(v: &T) -> bool {
    *v > T::default()
}

fn usage_and_exit(bad: Option<&str>) -> ! {
    if let Some(b) = bad {
        eprintln!("unknown command: {b}\n");
    }
    eprintln!(
        "icn — reproduction of 'Characterizing Mobile Service Demands at Indoor \
         Cellular Networks' (IMC '23)\n\n\
         USAGE: icn <command> [flags]\n\n\
         COMMANDS:\n  \
         generate   synthesize a measurement campaign and export CSV/JSONL\n  \
         run        run the full analysis pipeline and print the findings (alias: study)\n  \
         explain    SHAP explanation of one cluster\n  \
         temporal   Figure 10-style temporal heatmap of one cluster\n  \
         probe      simulate the Section 3 collection path\n  \
         ingest     stream the hourly record feed into T (faults, checkpoints)\n  \
         forecast   per-cluster busy-hour forecasts, backtest and anomaly scan\n  \
         testkit    check pipeline golden snapshots (--bless to regenerate)\n  \
         obs diff   gate a candidate BenchReport against a baseline (fixed thresholds)\n  \
         obs top    print a self-time treetable of a BenchReport\n  \
         obs mem    print the allocation treetable of a BenchReport\n\n\
         FLAGS:\n  \
         --scale <f>    population scale, 1.0 = 4,762 antennas (default 0.1)\n  \
         --seed <u64>   master seed\n  \
         --sweep        run the Figure 2 k-sweep (study)\n  \
         --json         machine-readable output (study)\n  \
         --cluster <n>  cluster id (explain/temporal)\n  \
         --cluster-path <p>  stage-2 path: exact, sampled, or auto (study, default auto —\n                 \
         exact while the distance matrix fits the memory budget)\n  \
         --cluster-budget-mb <n>  stage-2 memory budget steering auto selection and the\n                 \
         sampled path's sample size (study, default 512)\n  \
         --top <n>      services to list (explain, default 10)\n  \
         --days <n>     probe window length (probe, default 3)\n  \
         --out <dir>    export directory (generate)\n  \
         --bless        regenerate golden snapshots instead of checking (testkit)\n  \
         --golden-dir <dir>  golden snapshot directory (testkit, default tests/golden)\n  \
         --metrics-out <path>  write an icn-obs/v5 benchmark report (JSON)\n  \
         --mem-budget-mb <n>  enforce a ceiling on the run's allocator peak; a breach\n                 \
         stamps the report verdict and exits with status 3 (before generation when\n                 \
         the dataset's totals matrices alone exceed it)\n  \
         --threads-sweep <list>  re-run the command once per thread count (e.g. 1,2 or\n                 \
         1,max) and write an icn-bench-set/1 report set to --metrics-out\n  \
         --trace-out <path>  write a Chrome trace-event JSON (chrome://tracing, Perfetto)\n  \
         --chunk <n>    records per source pull (ingest, default 4096)\n  \
         --lateness <h> hours a record may trail the watermark (ingest, default 2)\n  \
         --faults <spec>  inject faults, e.g. drop=0.01,dup=0.1,reorder=0.2,corrupt=0.01\n  \
         --fault-seed <u64>  fault-injection seed (ingest)\n  \
         --checkpoint <path>  checkpoint file to write on halt / read on resume\n  \
         --halt-after <n>  stop after n chunks and write the checkpoint (ingest)\n  \
         --resume       resume from --checkpoint instead of starting fresh\n  \
         --verify       after ingest, compare T bitwise against the batch matrix\n  \
         --horizon <h>  forecast horizon in hours (forecast, default 24)\n  \
         --model <m>    headline forecast model: naive, ets or forest (forecast, default ets)\n  \
         --stage-wall-ratio <stage>=<r>  obs diff: per-stage wall-clock ratio override\n                 \
         (repeatable; default 2.0, the stage must take at least 5 ms in the baseline)"
    );
    std::process::exit(if bad.is_some() { 2 } else { 0 });
}

fn cmd_generate(o: &Opts) {
    let ds = o.dataset();
    let dir = o.out.clone().unwrap_or_else(|| "icn-data".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        exit_unwritable(&dir, &e);
    }
    let csv_path = format!("{dir}/indoor_totals.csv");
    let jsonl_path = format!("{dir}/antennas.jsonl");
    for (path, body) in [
        (&csv_path, ds.indoor_totals_csv()),
        (&jsonl_path, ds.antennas_jsonl()),
    ] {
        if let Err(e) = std::fs::write(path, body) {
            exit_unwritable(path, &e);
        }
    }
    println!(
        "wrote {} antennas x {} services:\n  {}\n  {}",
        ds.num_antennas(),
        ds.num_services(),
        csv_path,
        jsonl_path
    );
}

/// An output path the OS refuses is a bad input, not a bug: name the path
/// and the OS error, then exit 1.
fn exit_unwritable(path: &str, e: &std::io::Error) -> ! {
    eprintln!("cannot write {path}: {e}");
    std::process::exit(1);
}

fn cmd_study(o: &Opts) {
    let ds = o.dataset();
    let st = o.study(&ds);
    if o.json {
        let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();
        let clusters: Vec<Json> = (0..st.config.k)
            .map(|c| {
                let (env, share) = st.crosstab.dominant_environment(c);
                let top: Vec<Json> = st.explanations[c]
                    .top(5)
                    .iter()
                    .map(|i| Json::str(names[i.feature]))
                    .collect();
                Json::obj(vec![
                    ("cluster", Json::num(c as f64)),
                    ("size", Json::num(st.cluster_sizes()[c] as f64)),
                    ("dominant_environment", Json::str(env.label())),
                    ("environment_share", Json::num(share)),
                    ("paris_share", Json::num(st.crosstab.paris_share[c])),
                    ("top_shap_services", Json::Arr(top)),
                ])
            })
            .collect();
        let oob = match st.surrogate_oob {
            Some(v) => Json::num(v),
            None => Json::Null,
        };
        let out = Json::obj(vec![
            ("antennas", Json::num(st.num_antennas() as f64)),
            ("k", Json::num(st.config.k as f64)),
            ("surrogate_accuracy", Json::num(st.surrogate_accuracy)),
            ("surrogate_oob", oob),
            (
                "outdoor_dominant_cluster",
                Json::num(st.outdoor.dominant.0 as f64),
            ),
            ("outdoor_dominant_share", Json::num(st.outdoor.dominant.1)),
            ("clusters", Json::Arr(clusters)),
        ]);
        println!("{}", out.to_pretty());
        return;
    }
    println!(
        "{} antennas -> {} clusters; surrogate accuracy {:.3} (OOB {:?})",
        st.num_antennas(),
        st.config.k,
        st.surrogate_accuracy,
        st.surrogate_oob
    );
    if !st.k_sweep.is_empty() {
        for q in &st.k_sweep {
            println!(
                "k={:<3} silhouette {:.4}  dunn {:.5}",
                q.k, q.silhouette, q.dunn
            );
        }
    }
    let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();
    for c in 0..st.config.k {
        let (env, share) = st.crosstab.dominant_environment(c);
        let top: Vec<&str> = st.explanations[c]
            .top(3)
            .iter()
            .map(|i| names[i.feature])
            .collect();
        println!(
            "cluster {c}: {:>4} antennas, {} ({:.0}%), top services: {}",
            st.cluster_sizes()[c],
            env.label(),
            100.0 * share,
            top.join(", ")
        );
    }
    let (dom, share) = st.outdoor.dominant;
    println!(
        "outdoor: {:.0}% of {} antennas in cluster {dom}",
        100.0 * share,
        st.outdoor.predicted.len()
    );
}

fn cmd_explain(o: &Opts) {
    let ds = o.dataset();
    let st = o.study(&ds);
    if o.cluster >= st.config.k {
        eprintln!("cluster {} out of range (k = {})", o.cluster, st.config.k);
        std::process::exit(2);
    }
    let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();
    print!(
        "{}",
        icn_repro::icn_report::beeswarm::render(&st.explanations[o.cluster], &names, o.top, 28)
    );
}

fn cmd_temporal(o: &Opts) {
    let ds = o.dataset();
    let st = o.study(&ds);
    if o.cluster >= st.config.k {
        eprintln!("cluster {} out of range (k = {})", o.cluster, st.config.k);
        std::process::exit(2);
    }
    let window = StudyCalendar::temporal_window();
    let Some(series) = st.cluster_series(&ds, o.cluster, &window) else {
        eprintln!("cluster {} is empty", o.cluster);
        std::process::exit(1);
    };
    let hm = cluster_heatmap(&series, &window);
    let rhythm = hm.rhythm();
    println!(
        "cluster {} — {} antennas; commute {:.2}, weekend {:.2}, strike {:.2}, \
         burstiness {:.1}, ACF-24 {:.2}",
        o.cluster,
        hm.n_antennas,
        hm.commute_ratio(),
        hm.weekend_ratio(),
        hm.strike_dip(),
        hm.burstiness(),
        rhythm.daily
    );
    let labels: Vec<String> = (0..hm.values.len()).map(|d| window.date(d).iso()).collect();
    print!(
        "{}",
        icn_repro::icn_report::heatmap::render_sequential(&hm.values, Some(&labels))
    );
}

fn cmd_forecast(o: &Opts) {
    let ds = o.dataset();
    let defaults = StudyConfig::paper();
    let config = StudyConfig {
        run_k_sweep: o.sweep,
        cluster_path: o.cluster_path,
        cluster_budget_mb: o.cluster_budget_mb.unwrap_or(defaults.cluster_budget_mb),
        run_forecast: true,
        forecast_horizon: o.horizon,
        forecast_model: o.model,
        ..defaults
    };
    let st = match IcnStudy::try_run(&ds, config) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        }
    };
    let report = st.forecast.as_ref().expect("run_forecast was set");
    if o.json {
        let clusters: Vec<Json> = report
            .clusters
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("cluster", Json::num(c.cluster as f64)),
                    ("antennas", Json::num(c.n_antennas as f64)),
                    ("busy_hour", Json::num(c.busy_hour as f64)),
                    ("mae_naive", Json::num(c.backtest.naive.mae)),
                    ("mae_ets", Json::num(c.backtest.ets.mae)),
                    ("mae_forest", Json::num(c.backtest.forest.mae)),
                    (
                        "anomalous_hours",
                        Json::Arr(
                            c.anomalies
                                .flagged
                                .iter()
                                .map(|&t| Json::num(t as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "forecast",
                        Json::Arr(c.forecast.iter().map(|&v| Json::num(v)).collect()),
                    ),
                ])
            })
            .collect();
        let mean = report.mean_backtest();
        let out = Json::obj(vec![
            ("model", Json::str(report.model.as_str())),
            ("horizon", Json::num(report.horizon as f64)),
            ("mean_mae_naive", Json::num(mean.naive.mae)),
            ("mean_mae_ets", Json::num(mean.ets.mae)),
            ("mean_mae_forest", Json::num(mean.forest.mae)),
            ("clusters", Json::Arr(clusters)),
        ]);
        println!("{}", out.to_pretty());
        return;
    }
    println!(
        "forecast: model {}, horizon {} h, {} clusters",
        report.model.as_str(),
        report.horizon,
        report.clusters.len()
    );
    for c in &report.clusters {
        if c.n_antennas == 0 {
            println!("cluster {}: empty", c.cluster);
            continue;
        }
        let bursts = c.anomalies.bursts().len();
        let dips = c.anomalies.dips().len();
        println!(
            "cluster {}: {:>4} antennas, busy hour {:02}:00, backtest MAE \
             naive {:.1} / ets {:.1} / forest {:.1}, anomalies {} ({} burst, {} dip)",
            c.cluster,
            c.n_antennas,
            c.busy_hour,
            c.backtest.naive.mae,
            c.backtest.ets.mae,
            c.backtest.forest.mae,
            c.anomalies.flagged.len(),
            bursts,
            dips,
        );
    }
    let mean = report.mean_backtest();
    println!(
        "mean backtest MAE: naive {:.2}, ets {:.2}, forest {:.2}; {} anomalous hours total",
        mean.naive.mae,
        mean.ets.mae,
        mean.forest.mae,
        report.total_anomalous_hours()
    );
}

fn cmd_ingest(o: &Opts) {
    use icn_repro::icn_ingest::{
        Checkpoint, FaultConfig, FaultySource, IngestConfig, IngestPipeline, SourceError,
    };
    use icn_repro::icn_synth::RecordStream;

    // Either the raw synthetic feed or the same feed behind the
    // deterministic fault injector, unified so one code path drives both.
    enum Feed {
        Clean(RecordStream),
        Faulty(FaultySource<RecordStream>),
    }
    impl RecordSource for Feed {
        fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
            match self {
                Feed::Clean(s) => s.next_chunk(max),
                Feed::Faulty(s) => s.next_chunk(max),
            }
        }
    }

    let ds = o.dataset();
    let window = StudyCalendar::custom(icn_repro::icn_synth::Date::new(2023, 1, 9), o.days);
    let config = IngestConfig {
        chunk_size: o.chunk,
        lateness_hours: o.lateness,
        ..IngestConfig::default()
    };
    let faults = o.faults.as_deref().map(|spec| {
        let mut f = match FaultConfig::parse_spec(spec) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                std::process::exit(2);
            }
        };
        if let Some(seed) = o.fault_seed {
            f.seed = seed;
        }
        f
    });

    let stream = record_stream(&ds, &window);
    let schema = stream.schema();
    let total_records = stream.total_records();
    let mut feed = match &faults {
        Some(f) => Feed::Faulty(stream.with_faults(*f)),
        None => Feed::Clean(stream),
    };

    let mut pipe = if o.resume {
        let Some(path) = o.checkpoint.as_deref() else {
            eprintln!("--resume requires --checkpoint <path>");
            std::process::exit(2);
        };
        let ck = match Checkpoint::read_file(std::path::Path::new(path)) {
            Ok(ck) => ck,
            Err(e) => {
                eprintln!("cannot read checkpoint {path}: {e}");
                std::process::exit(1);
            }
        };
        let consumed = ck.records_consumed;
        let pipe = match IngestPipeline::from_checkpoint(ck, config) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = feed.skip_records(consumed) {
            eprintln!("cannot advance source past checkpoint: {e}");
            std::process::exit(1);
        }
        eprintln!("resumed from {path} at record {consumed}");
        pipe
    } else {
        IngestPipeline::new(schema, config)
    };

    let finished = match pipe.run_until(&mut feed, o.halt_after) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    if !finished {
        let Some(path) = o.checkpoint.as_deref() else {
            eprintln!(
                "halted after {} chunks but no --checkpoint to write",
                pipe.stats().chunks
            );
            std::process::exit(2);
        };
        let ck = pipe.checkpoint();
        if let Err(e) = ck.write_file(std::path::Path::new(path)) {
            eprintln!("cannot write checkpoint {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "halted at record {}/{total_records}; checkpoint {} -> {path}",
            ck.records_consumed,
            ck.hash(),
        );
        return;
    }

    let final_hash = pipe.checkpoint().hash();
    let stats = pipe.stats().clone();
    let result = pipe.finish();
    println!(
        "ingested {} records in {} chunks: {} ok, {} quarantined, {} retries",
        result.records_consumed,
        stats.chunks,
        stats.ok,
        stats.quarantined_total(),
        stats.retried
    );
    for (reason, count) in stats.quarantine_counts() {
        println!("  quarantine {reason}: {count}");
    }
    if let Feed::Faulty(src) = &feed {
        let r = src.report();
        println!(
            "injected faults: {} dropped, {} duplicated, {} corrupted, {} reordered blocks, \
             {} transient errors",
            r.dropped, r.duplicated, r.corrupted, r.reordered_blocks, r.transient_errors
        );
    }
    println!(
        "T: {}x{}, total volume {:.3} GB; final state hash {final_hash}",
        result.totals.rows(),
        result.totals.cols(),
        result.totals.total() / 1000.0
    );
    if o.verify {
        let batch = &ds.indoor_totals;
        let diverging = result
            .totals
            .as_slice()
            .iter()
            .zip(batch.as_slice())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if diverging == 0 {
            println!("verify: streamed T is bit-identical to the batch matrix");
        } else {
            eprintln!(
                "verify FAILED: {diverging}/{} cells diverge from the batch matrix",
                batch.as_slice().len()
            );
            std::process::exit(1);
        }
    }
}

fn cmd_testkit(o: &Opts) {
    use icn_repro::icn_testkit::golden;
    // Golden snapshots are pinned at scale 0.05 (not the CLI's usual 0.1
    // default); an explicit --scale still wins for ad-hoc comparisons.
    let scale = if o.scale_explicit {
        o.scale
    } else {
        golden::GOLDEN_SCALE
    };
    let dir = o
        .golden_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(golden::default_golden_dir);
    let snaps: Vec<_> = golden::goldens(&dir, scale)
        .into_iter()
        .map(|g| {
            eprintln!("computing {} snapshot at scale {}...", g.label, g.scale);
            let snap = g.snapshot();
            (g, snap)
        })
        .collect();
    if o.bless {
        for (g, snap) in &snaps {
            if let Err(e) = golden::write_golden(&g.path, snap) {
                eprintln!("failed to write {} golden file: {e}", g.label);
                std::process::exit(1);
            }
            println!(
                "blessed {} {} hashes -> {}",
                snap.stages.len(),
                g.label,
                g.path.display()
            );
        }
        return;
    }
    let mut drift = Vec::new();
    for (g, snap) in &snaps {
        match golden::compare_golden(&g.path, snap) {
            Ok(()) => {
                for (name, hash) in &snap.stages {
                    println!("ok  {name}  {hash}");
                }
                println!(
                    "{} {} hashes match {}",
                    snap.stages.len(),
                    g.label,
                    g.path.display()
                );
            }
            Err(lines) => drift.extend(lines),
        }
    }
    if !drift.is_empty() {
        for line in &drift {
            eprintln!("DRIFT  {line}");
        }
        eprintln!("golden drift detected; inspect the change, then re-run with --bless to accept");
        std::process::exit(1);
    }
}

fn cmd_probe(o: &Opts) {
    let ds = o.dataset();
    let window = StudyCalendar::custom(icn_repro::icn_synth::Date::new(2023, 1, 9), o.days);
    let result = run_campaign(&ds, &window, &CampaignConfig::default());
    println!(
        "probed {} antennas over {} days: {} sessions, {} unclassified, {} bad-ULI drops, \
         {:.1} GB aggregated",
        ds.num_antennas(),
        o.days,
        result.sessions,
        result.dropped_unclassified,
        result.dropped_bad_uli,
        result.totals.total() / 1000.0
    );
}
