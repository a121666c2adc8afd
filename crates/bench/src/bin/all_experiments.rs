//! One-shot summary of every experiment — the source of EXPERIMENTS.md.
//!
//! Runs the study once (sharing the expensive stages across all
//! figure/table summaries) and prints, per experiment id, the compact
//! numbers that DESIGN.md's index promises: enough to compare the measured
//! shape against the paper's claims.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin all_experiments \
//!     [-- --scale 1.0 --sweep --metrics-out metrics.json]
//! ```

use icn_bench::{dataset, parse_opts, study, write_metrics};
use icn_cluster::detect_drops;
use icn_core::{cluster_heatmap, distribution_entropy, filter_dead_rows, label_distribution, rca};
use icn_shap::Direction;
use icn_synth::{Environment, StudyCalendar};

// Count allocations so `--metrics-out` reports carry the `icn-obs/v5`
// memory section (inert single-branch overhead while metering is off).
#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    eprintln!(
        "running all experiments at scale {} ({} antennas; sweep {})",
        opts.scale,
        ds.num_antennas(),
        opts.sweep
    );
    let st = study(&ds, &opts);
    let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();

    println!("== population ==");
    println!(
        "indoor {} / outdoor {} antennas, {} services, scale {}",
        ds.num_antennas(),
        ds.outdoor.len(),
        ds.num_services(),
        opts.scale
    );

    // Table 1.
    println!("\n== table1 ==");
    for env in Environment::ALL {
        let n = ds.antennas.iter().filter(|a| a.environment == env).count();
        println!("{}: {}", env.label(), n);
    }

    // Fig 1.
    println!("\n== fig01 ==");
    let (t_live, _) = filter_dead_rows(&ds.indoor_totals);
    let r = rca(&t_live);
    let max_rca = r
        .as_slice()
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let frac_below_half = t_live
        .as_slice()
        .iter()
        .filter(|&&v| v / t_live.max() < 0.01)
        .count() as f64
        / (t_live.rows() * t_live.cols()) as f64;
    println!(
        "normalized traffic: {:.1}% of entries below 1% of max (spike at 0)",
        100.0 * frac_below_half
    );
    println!("max RCA: {max_rca:.2} (unbounded tail; paper sample max 75.88)");
    let rs = &st.rsca;
    let under =
        rs.as_slice().iter().filter(|&&v| v < 0.0).count() as f64 / rs.as_slice().len() as f64;
    println!(
        "RSCA balance: {:.1}% under- / {:.1}% over-utilised",
        100.0 * under,
        100.0 * (1.0 - under)
    );

    // Fig 2.
    println!("\n== fig02 ==");
    if st.k_sweep.is_empty() {
        println!("(sweep disabled; run with --sweep)");
    } else {
        for q in &st.k_sweep {
            println!(
                "k={} silhouette={:.4} dunn={:.5}",
                q.k, q.silhouette, q.dunn
            );
        }
        for d in detect_drops(&st.k_sweep, 0.05) {
            println!(
                "combined drop after k={} (magnitude {:.3})",
                d.k, d.magnitude
            );
        }
    }

    // Fig 3.
    println!("\n== fig03 ==");
    println!("cluster sizes: {:?}", st.cluster_sizes());
    let coarse3 = st.history.cut(3);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); 3];
    for c in 0..9 {
        let pos = st.labels.iter().position(|&l| l == c).unwrap();
        groups[coarse3[pos]].push(c);
    }
    println!("three super-groups: {groups:?}");
    let mut consolidated: Vec<Vec<usize>> = vec![Vec::new(); 6];
    for (fine, &coarse) in st.consolidation.iter().enumerate() {
        consolidated[coarse].push(fine);
    }
    println!("k9->k6 consolidation: {consolidated:?}");

    // Fig 4.
    println!("\n== fig04 ==");
    for p in &st.profiles {
        let over: Vec<&str> = p.top_over(3).into_iter().map(|j| names[j]).collect();
        let under: Vec<&str> = p.top_under(3).into_iter().map(|j| names[j]).collect();
        println!(
            "cluster {} (n={}, rms {:.3}): over [{}] under [{}]",
            p.cluster,
            p.size,
            p.rms(),
            over.join(", "),
            under.join(", ")
        );
    }

    // Fig 5.
    println!("\n== fig05 ==");
    println!(
        "surrogate: train acc {:.4}, OOB {:?}",
        st.surrogate_accuracy, st.surrogate_oob
    );
    for ex in &st.explanations {
        let top: Vec<String> = ex
            .top(5)
            .iter()
            .map(|i| {
                let d = match i.direction {
                    Direction::OverUtilized => "+",
                    Direction::UnderUtilized => "-",
                    Direction::Neutral => "·",
                };
                format!("{d}{}", names[i.feature])
            })
            .collect();
        println!("cluster {}: {}", ex.class, top.join(", "));
    }

    // Fig 6/7/8.
    println!("\n== fig06/07/08 ==");
    for env in Environment::ALL {
        let (c, share) = st.crosstab.dominant_cluster(env);
        println!(
            "{} -> dominant cluster {} ({:.0}%)",
            env.label(),
            c,
            100.0 * share
        );
    }
    for c in 0..9 {
        let (env, share) = st.crosstab.dominant_environment(c);
        println!(
            "cluster {c}: dominant env {} ({:.0}%), paris {:.0}%",
            env.label(),
            100.0 * share,
            100.0 * st.crosstab.paris_share[c]
        );
    }

    // Fig 9.
    println!("\n== fig09 ==");
    let (dom, share) = st.outdoor.dominant;
    println!(
        "outdoor dominant cluster {} with {:.1}% of {} antennas",
        dom,
        100.0 * share,
        st.outdoor.predicted.len()
    );
    println!(
        "entropy indoor {:.3} vs outdoor {:.3}",
        distribution_entropy(&label_distribution(&st.labels, 9)),
        distribution_entropy(&st.outdoor.distribution)
    );

    // Fig 10 (statistics only; full heatmaps via fig10_cluster_temporal).
    println!("\n== fig10 ==");
    let window = StudyCalendar::temporal_window();
    for c in 0..9 {
        let Some(series) = st.cluster_series(&ds, c, &window) else {
            continue;
        };
        let hm = cluster_heatmap(&series, &window);
        let (env, _) = st.crosstab.dominant_environment(c);
        println!(
            "cluster {c} ({}): commute {:.2}, weekend {:.2}, strike {:.2}, burst {:.1}",
            env.label(),
            hm.commute_ratio(),
            hm.weekend_ratio(),
            hm.strike_dip(),
            hm.burstiness()
        );
    }

    write_metrics(&opts, "all_experiments");
}
