//! Figure 10 (a–i) — per-cluster temporal heatmaps, 04–24 Jan 2023.
//!
//! Regenerates the normalised-median hourly-traffic heatmaps per cluster
//! over the paper's 21-day January window, plus the quantitative shape
//! statistics the prose reads off them: commute-hour bimodality for the
//! orange group, the 19 January strike collapse (milder for provincial
//! metros), event burstiness for the green group, diurnal 10–20 h activity
//! for the red group with workspaces idle on weekends.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig10_cluster_temporal [-- --scale 0.25]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_core::cluster_heatmap;
use icn_report::Table;
use icn_synth::StudyCalendar;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner(
        "Figure 10 — cluster temporal heatmaps (04–24 Jan 2023)",
        &ds,
    );
    let st = study(&ds, &opts);
    let window = StudyCalendar::temporal_window();

    let mut stats = Table::new(vec![
        "cluster",
        "dominant env",
        "commute ratio",
        "weekend ratio",
        "strike dip",
        "burstiness",
        "ACF-24h",
        "ACF-168h",
    ]);

    for c in 0..st.config.k {
        let Some(series) = st.cluster_series(&ds, c, &window) else {
            continue;
        };
        let hm = cluster_heatmap(&series, &window);
        let (env, _) = st.crosstab.dominant_environment(c);
        let rhythm = hm.rhythm();
        stats.row(vec![
            c.to_string(),
            env.label().to_string(),
            format!("{:.2}", hm.commute_ratio()),
            format!("{:.2}", hm.weekend_ratio()),
            format!("{:.2}", hm.strike_dip()),
            format!("{:.1}", hm.burstiness()),
            format!("{:.2}", rhythm.daily),
            format!("{:.2}", rhythm.weekly),
        ]);

        println!("cluster {c} ({}, {} antennas):", env.label(), hm.n_antennas);
        let labels: Vec<String> = (0..hm.values.len())
            .map(|d| {
                let date = window.date(d);
                let mark = if date == StudyCalendar::strike_day() {
                    "*"
                } else if date.weekday().is_weekend() {
                    "w"
                } else {
                    " "
                };
                format!("{}{}", date.iso(), mark)
            })
            .collect();
        print!(
            "{}",
            icn_report::heatmap::render_sequential(&hm.values, Some(&labels))
        );
        println!();
    }

    println!("shape statistics ('*' = strike day, 'w' = weekend rows above):");
    println!("{}", stats.render());
    println!(
        "expected shapes (paper): orange commute ratio >> 1 & strike dip << 1; green \
         burstiness >> red & low ACF-24 (sporadic, non-canonical bursts); cluster-3 \
         weekend ratio ~ 0; red commute ratio ~ 1 with strong daily rhythm."
    );
    write_metrics(&opts, "fig10_cluster_temporal");
}
