//! Stage-2 clustering bench: sweeps the exact Ward path over population
//! scales and worker-thread counts, then exercises the sampled scalable
//! path on a synthetic large-N fixture and records exact-vs-sampled
//! agreement (ARI) at small scales.
//!
//! ```text
//! cargo run --release --bin bench_cluster -- \
//!     --scales 0.05,0.25,1.0 --threads 1,max --metrics-out bench-cluster.json
//! ```
//!
//! Only stages 1–2 of the pipeline run (the surrogate/SHAP stages are not
//! relevant here), so a full sweep completes in seconds. Every
//! configuration is measured `--repeat` times (default 3) after one
//! unmeasured warm-up, and the fastest repeat wins. The exported report
//! is the best snapshot of the **final** exact configuration (largest
//! scale, highest thread count — `stage2_cluster` is directly comparable
//! to the same stage of a metered `icn run` at that scale) overlaid with
//! the large-N sampled run and the agreement gauges:
//!
//! * `stage2_cluster` span tree — the exact path at the last scale.
//! * `stage2_sampled_large_n` span tree — sampled Ward on the synthetic
//!   fixture (`--large-n`, default 50_000 rows).
//! * gauges `cluster.sampled_ari_scale005` / `..._scale02` — sampled vs
//!   exact Ward label agreement at scales 0.05 / 0.2.
//! * gauges `cluster.large_n_rows`, `cluster.large_n_sample`,
//!   `cluster.large_n_condensed_bytes`, `cluster.budget_bytes`.

use icn_cluster::{
    adjusted_rand_index, agglomerate_condensed, sampled_ward, sweep_k, Condensed, Linkage,
    SampledWardConfig,
};
use icn_core::{filter_dead_rows, rsca, StudyConfig};
use icn_obs::BenchReport;
use icn_stats::{Matrix, Rng};
use icn_synth::{Dataset, SynthConfig};

// Count allocations so `--metrics-out` reports carry the `icn-obs/v5`
// memory section (inert single-branch overhead while metering is off).
#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

struct ClusterBenchOpts {
    scales: Vec<f64>,
    threads: Vec<Option<usize>>, // None = hardware max
    seed: u64,
    large_n: usize,
    budget_mb: usize,
    repeat: usize,
    metrics_out: Option<String>,
}

/// Parses the flags (program name excluded). Every flag takes a value;
/// an unknown argument, a missing or unparsable value, an empty list
/// entry, a scale that is not a positive finite number, a zero count and
/// a large-N fixture with fewer rows than the k clusters it is cut into
/// are errors.
fn parse_args(args: &[String]) -> Result<ClusterBenchOpts, String> {
    let mut opts = ClusterBenchOpts {
        scales: vec![0.05, 0.25, 1.0],
        threads: vec![Some(1), None],
        seed: SynthConfig::default().seed,
        large_n: 50_000,
        budget_mb: StudyConfig::paper().cluster_budget_mb,
        repeat: 3,
        metrics_out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        let count = |v: &str| {
            v.parse()
                .ok()
                .filter(|&c: &usize| c > 0)
                .ok_or_else(|| bad(v))
        };
        match flag.as_str() {
            "--scales" => {
                let v = value()?;
                opts.scales = v
                    .split(',')
                    .map(|s| s.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0))
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad(v))?;
            }
            "--threads" => {
                let v = value()?;
                opts.threads = v
                    .split(',')
                    .map(|s| match s {
                        "max" => Some(None),
                        _ => count(s).ok().map(Some),
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad(v))?;
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--large-n" => {
                let v = value()?;
                let k = StudyConfig::paper().k;
                opts.large_n = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= k)
                    .ok_or_else(|| bad(v))?;
            }
            "--budget-mb" => opts.budget_mb = count(value()?)?,
            "--repeat" => opts.repeat = count(value()?)?,
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(opts)
}

/// Stage 1 + RSCA for a scaled synthetic population.
fn rsca_at(scale: f64, seed: u64) -> Matrix {
    let ds = Dataset::generate(SynthConfig::paper().with_scale(scale).with_seed(seed));
    let (t_live, _) = filter_dead_rows(&ds.indoor_totals);
    rsca(&t_live)
}

/// The exact stage-2 path, mirroring the pipeline's span layout.
fn run_exact_stage2(rsca_m: &Matrix, config: &StudyConfig) -> Vec<usize> {
    let mut span = icn_obs::Span::enter("stage2_cluster");
    span.attr("antennas", rsca_m.rows() as u64);
    let cond = Condensed::from_rows(rsca_m, Linkage::Ward.base_metric());
    let history = agglomerate_condensed(&cond, Linkage::Ward);
    let _k_sweep = sweep_k(
        &history,
        cond.sqrt_values(),
        config.k_sweep_lo..=config.k_sweep_hi.min(history.n - 1),
    );
    let labels = history.cut(config.k);
    let _ = history.consolidation(config.k, config.k_coarse);
    labels
}

/// A synthetic large-N fixture: `k` well-separated archetype centroids in
/// the RSCA-like unit simplex geometry, Gaussian spread, seeded.
fn large_fixture(n: usize, dims: usize, k: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centers[i % k];
            c.iter().map(|&v| rng.normal(v, 0.08)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn span_ms(report: &BenchReport, path: &str) -> f64 {
    report
        .spans
        .get(path)
        .map_or(0.0, |s| s.wall.as_secs_f64() * 1e3)
}

/// Overlays `extra` (the agreement + large-N phase) onto `base` (the best
/// exact-sweep repeat) so one self-contained report can be exported. Both
/// snapshots come from their own registry sessions; name collisions (the
/// condensed-build gauges both phases set) resolve to the later phase,
/// matching the last-write-wins the registry itself would have applied
/// had the phases shared a session. Span rows carry their own allocation
/// figures, so the overlaid rows keep theirs.
fn overlay(base: &mut icn_obs::Snapshot, extra: icn_obs::Snapshot) {
    base.counters.extend(extra.counters);
    base.gauges.extend(extra.gauges);
    base.spans.extend(extra.spans);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "{e}\nflags: --scales <f64,...> --threads <n|max,...> --seed <u64> \
             --large-n <n> --budget-mb <n> --repeat <n> --metrics-out <path>"
        );
        std::process::exit(2);
    });
    for &scale in &opts.scales {
        icn_bench::refuse_unfit(&SynthConfig::paper().with_scale(scale));
    }
    let obs = icn_obs::global();
    obs.enable();
    let config = StudyConfig::paper();

    // Unmeasured warm-up at the largest scale: the first big run in a
    // process pays for faulting in the O(N²) working set (fresh kernel
    // pages); afterwards the allocator reuses the arena. Without this the
    // first measured configuration absorbs several seconds of one-off
    // page-fault cost that no steady-state run ever sees.
    {
        let warm = rsca_at(*opts.scales.last().unwrap(), opts.seed);
        obs.disable();
        let _ = run_exact_stage2(&warm, &config);
        obs.enable();
        obs.reset();
    }

    println!("=== bench cluster: exact stage-2 scale x thread sweep ===");
    println!(
        "{:>7} {:>7} {:>9} {:>11} {:>12} {:>13} {:>11}",
        "scale", "threads", "antennas", "stage2_ms", "condensed_ms", "agglomerate_ms", "sweep_ms"
    );

    let last_scale = *opts.scales.last().unwrap();
    // Thread count is the outer dimension so the final configuration is
    // the largest scale at the highest thread count. Every configuration
    // runs `--repeat` times and the fastest repeat is what gets printed
    // and (for the final configuration) exported — the box this runs on
    // shares cores, and best-of-R is the standard way to measure the code
    // rather than the neighbours.
    let mut best_final: Option<icn_obs::Snapshot> = None;
    for (ti, &threads) in opts.threads.iter().enumerate() {
        match threads {
            Some(t) => std::env::set_var("ICN_THREADS", t.to_string()),
            None => std::env::remove_var("ICN_THREADS"),
        }
        for (si, &scale) in opts.scales.iter().enumerate() {
            let rsca_m = rsca_at(scale, opts.seed);
            let n = rsca_m.rows();
            let mut best: Option<(f64, icn_obs::Snapshot)> = None;
            for _ in 0..opts.repeat {
                obs.reset();
                let _labels = run_exact_stage2(&rsca_m, &config);
                let snap = obs.snapshot();
                let wall = snap
                    .spans
                    .get("stage2_cluster")
                    .map_or(f64::INFINITY, |s| s.wall.as_secs_f64());
                if best.as_ref().is_none_or(|(bw, _)| wall < *bw) {
                    best = Some((wall, snap));
                }
            }
            let (_, snap) = best.unwrap();
            let report = BenchReport::build(&snap, "bench_cluster", scale);
            println!(
                "{:>7.2} {:>7} {:>9} {:>11.1} {:>12.1} {:>13.1} {:>11.1}",
                scale,
                report.env.threads,
                n,
                span_ms(&report, "stage2_cluster"),
                span_ms(&report, "stage2_cluster/condensed"),
                span_ms(&report, "stage2_cluster/agglomerate"),
                span_ms(&report, "stage2_cluster")
                    - span_ms(&report, "stage2_cluster/condensed")
                    - span_ms(&report, "stage2_cluster/agglomerate"),
            );
            if ti == opts.threads.len() - 1 && si == opts.scales.len() - 1 {
                best_final = Some(snap);
            }
        }
    }
    std::env::remove_var("ICN_THREADS");
    obs.reset();

    // Exact-vs-sampled agreement at small scales (the satellite ARI gate).
    // One parent span keeps the phase's inner spans (generate, condensed,
    // agglomerate, sampled_ward) out of the report's top-level stages.
    println!("=== sampled vs exact Ward agreement ===");
    let agreement_span = icn_obs::Span::enter("sampled_agreement");
    for (tag, scale) in [("scale005", 0.05), ("scale02", 0.2)] {
        let rsca_m = rsca_at(scale, opts.seed);
        let n = rsca_m.rows();
        let exact = agglomerate_condensed(
            &Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric()),
            Linkage::Ward,
        )
        .cut(config.k);
        let sw = sampled_ward(
            &rsca_m,
            config.k,
            &SampledWardConfig {
                sample: n * 3 / 5,
                seed: opts.seed,
                refine_iters: 2,
            },
        );
        let ari = adjusted_rand_index(&exact, &sw.labels);
        obs.set_gauge(&format!("cluster.sampled_ari_{tag}"), ari);
        println!(
            "scale {scale:>5}: n={n:>5} sample={} ARI={ari:.4}",
            sw.sample.len()
        );
    }
    drop(agreement_span);

    // Sampled Ward on the synthetic large-N fixture, within the budget.
    let budget_bytes = opts.budget_mb * 1024 * 1024;
    let fixture = large_fixture(opts.large_n, 73, config.k, opts.seed);
    let sample = icn_cluster::max_sample_for_budget(budget_bytes).min(opts.large_n);
    let sw = {
        let mut span = icn_obs::Span::enter("stage2_sampled_large_n");
        span.attr("rows", opts.large_n as u64);
        sampled_ward(
            &fixture,
            config.k,
            &SampledWardConfig {
                sample,
                seed: opts.seed,
                refine_iters: 2,
            },
        )
    };
    let wall = obs
        .snapshot()
        .spans
        .get("stage2_sampled_large_n")
        .map_or(0.0, |s| s.wall.as_secs_f64() * 1e3);
    obs.set_gauge("cluster.large_n_rows", opts.large_n as f64);
    obs.set_gauge("cluster.large_n_sample", sw.sample.len() as f64);
    icn_obs::gauge_bytes("cluster.large_n_condensed_bytes", sw.condensed_bytes);
    icn_obs::gauge_bytes("cluster.budget_bytes", budget_bytes);
    println!(
        "=== sampled large-N: n={} sample={} condensed={:.1} MB (budget {} MB) wall={wall:.1} ms ===",
        opts.large_n,
        sw.sample.len(),
        sw.condensed_bytes as f64 / (1024.0 * 1024.0),
        opts.budget_mb,
    );
    assert!(
        sw.condensed_bytes <= budget_bytes,
        "sampled path exceeded its memory budget"
    );

    if let Some(path) = &opts.metrics_out {
        // Export = fastest repeat of the final exact configuration, with
        // the agreement gauges and the sampled large-N phase overlaid.
        let mut snap = best_final.expect("sweep ran at least one configuration");
        overlay(&mut snap, obs.snapshot());
        let report = BenchReport::build(&snap, "bench_cluster", last_scale);
        match report.write_to_file(path) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<ClusterBenchOpts, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scales, vec![0.05, 0.25, 1.0]);
        assert_eq!(o.threads, vec![Some(1), None]);
        let o = parse(&[
            "--scales",
            "0.05,0.25",
            "--threads",
            "1,max",
            "--seed",
            "7",
            "--large-n",
            "20000",
            "--budget-mb",
            "64",
            "--repeat",
            "2",
            "--metrics-out",
            "m.json",
        ])
        .unwrap();
        assert_eq!(o.scales, vec![0.05, 0.25]);
        assert_eq!(o.threads, vec![Some(1), None]);
        assert_eq!(
            (o.seed, o.large_n, o.budget_mb, o.repeat),
            (7, 20_000, 64, 2)
        );
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--scale", "0.1"][..],
            &["0.1"],
            &["--scales", ""],
            &["--scales", "0.05,"],
            &["--scales", "0.05,x"],
            &["--scales", "0"],
            &["--scales", "-1"],
            &["--scales", "nan"],
            &["--scales", "inf"],
            &["--threads", "x"],
            &["--threads", "0"],
            &["--threads", "1,"],
            &["--seed", "-3"],
            &["--large-n", "0"],
            &["--large-n", "8"],
            &["--large-n", "many"],
            &["--budget-mb", "0"],
            &["--repeat", "0"],
            &["--repeat", "-1"],
            &["--scales"],
            &["--metrics-out"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
