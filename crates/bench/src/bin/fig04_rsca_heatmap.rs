//! Figure 4 — RSCA heatmap of the clustered antennas.
//!
//! Regenerates the per-cluster RSCA structure: one column block per
//! cluster, services on the y-axis, over-utilisation positive ("blue lines"
//! in the paper) and under-utilisation negative ("dark red lines"). We
//! render the cluster-mean profile per service plus the per-cluster top
//! over-/under-utilised services the paper's prose reads off the figure.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig04_rsca_heatmap [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 4 — RSCA heatmap (cluster-mean per service)", &ds);
    let st = study(&ds, &opts);

    // services × clusters matrix of mean RSCA.
    let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();
    let rows: Vec<Vec<f64>> = (0..ds.num_services())
        .map(|j| st.profiles.iter().map(|p| p.mean_rsca[j]).collect())
        .collect();
    let labels: Vec<String> = names.iter().map(|n| format!("{n:<26}")).collect();
    println!("columns = clusters 0..8; '#/+' over-utilised, '=/-' under-utilised\n");
    print!(
        "{}",
        icn_report::heatmap::render_diverging(&rows, Some(&labels))
    );

    println!("\nper-cluster signatures (top over / under-utilised services):");
    for p in &st.profiles {
        let over: Vec<&str> = p.top_over(4).into_iter().map(|j| names[j]).collect();
        let under: Vec<&str> = p.top_under(4).into_iter().map(|j| names[j]).collect();
        println!(
            "cluster {} (n={}, rms {:.3}): over [{}] under [{}]",
            p.cluster,
            p.size,
            p.rms(),
            over.join(", "),
            under.join(", ")
        );
    }
    write_metrics(&opts, "fig04_rsca_heatmap");
}
