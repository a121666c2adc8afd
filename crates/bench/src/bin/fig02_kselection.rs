//! Figure 2 — Silhouette score and Dunn index vs number of clusters.
//!
//! Regenerates the k-selection sweep: Ward clustering cut at k = 2..15,
//! both quality indices per k, the detected combined drops (the paper's
//! stopping criterion observes drops at k = 6 and k = 9, selecting 9), and
//! the final selection.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig02_kselection [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, write_metrics};
use icn_cluster::{agglomerate_condensed, detect_drops, select_k, sweep_k, Condensed, Linkage};
use icn_core::{filter_dead_rows, rsca};
use icn_report::Table;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 2 — silhouette & Dunn vs k", &ds);

    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    let features = rsca(&t);
    eprintln!("clustering {} antennas ...", features.rows());
    // The indices read Euclidean distances as square roots of Ward's
    // matrix: one pairwise pass.
    let cond = Condensed::from_rows(&features, Linkage::Ward.base_metric());
    let history = agglomerate_condensed(&cond, Linkage::Ward);
    let sweep = sweep_k(&history, cond.sqrt_values(), 2..=15);

    let mut table = Table::new(vec!["k", "silhouette", "dunn"]);
    for q in &sweep {
        table.row(vec![
            q.k.to_string(),
            format!("{:.4}", q.silhouette),
            format!("{:.5}", q.dunn),
        ]);
    }
    println!("{}", table.render());
    let sil: Vec<f64> = sweep.iter().map(|q| q.silhouette).collect();
    let dunn: Vec<f64> = sweep.iter().map(|q| q.dunn).collect();
    println!(
        "{}",
        icn_report::spark::labeled_sparkline("silhouette", &sil)
    );
    println!(
        "{}\n",
        icn_report::spark::labeled_sparkline("dunn      ", &dunn)
    );

    let drops = detect_drops(&sweep, 0.05);
    if drops.is_empty() {
        println!("no combined drops above threshold (paper: drops at k = 6 and k = 9)");
    } else {
        for d in &drops {
            println!(
                "combined drop after k = {} (magnitude {:.3})",
                d.k, d.magnitude
            );
        }
    }
    println!(
        "selected k = {} (paper selects 9, discussing 6 qualitatively)",
        select_k(&sweep, 0.05)
    );
    write_metrics(&opts, "fig02_kselection");
}
