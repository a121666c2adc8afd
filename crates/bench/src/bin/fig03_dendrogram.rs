//! Figure 3 — the dendrogram with k = 6 and k = 9 thresholds.
//!
//! Regenerates the hierarchy view: the top of the merge tree over the nine
//! clusters, the distance bands separating the k = 6 and k = 9 cuts, the
//! per-cluster antenna counts reported along the figure's x-axis, the
//! three-group super-structure and the k = 9 → k = 6 consolidation the
//! paper describes (orange group collapses, clusters 6 and 8 merge).
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig03_dendrogram [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_report::Table;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 3 — dendrogram, thresholds, groups", &ds);
    let st = study(&ds, &opts);

    // Distance thresholds for the two cuts.
    let (lo9, hi9) = st.history.cut_band(9);
    let (lo6, hi6) = st.history.cut_band(6);
    println!("k = 9 threshold band: ({lo9:.4}, {hi9:.4})");
    println!("k = 6 threshold band: ({lo6:.4}, {hi6:.4})");

    // Dendrogram fidelity: cophenetic correlation against the RSCA
    // geometry (CPCC; 1.0 = the tree perfectly preserves distances).
    let cond = icn_cluster::Condensed::from_rows(&st.rsca, icn_stats::Metric::Euclidean);
    println!(
        "cophenetic correlation (CPCC): {:.4}\n",
        icn_cluster::cophenetic_correlation(&st.history, &cond)
    );

    // Cluster sizes along the x-axis.
    let mut t = Table::new(vec!["cluster", "antennas"]);
    for (c, size) in st.cluster_sizes().iter().enumerate() {
        t.row(vec![c.to_string(), size.to_string()]);
    }
    println!("{}", t.render());

    // The top of the tree over the 9 cluster roots.
    println!("{}", icn_report::dendro::render_top(&st.history, 9));

    // Super-group structure at k = 3 (the paper's orange/green/red).
    let coarse3 = st.history.cut(3);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); 3];
    for c in 0..9 {
        // Representative antenna of cluster c.
        let pos = st.labels.iter().position(|&l| l == c).expect("non-empty");
        groups[coarse3[pos]].push(c);
    }
    println!("three super-groups (k = 3 cut): {groups:?}");

    // k = 9 -> 6 consolidation.
    let mut consolidated: Vec<Vec<usize>> = vec![Vec::new(); 6];
    for (fine, &coarse) in st.consolidation.iter().enumerate() {
        consolidated[coarse].push(fine);
    }
    println!("k = 9 -> k = 6 consolidation (coarse cluster <- fine clusters):");
    for (coarse, fines) in consolidated.iter().enumerate() {
        println!("  coarse {coarse} <- {fines:?}");
    }
    println!(
        "(paper: moving to k = 6 consolidates the orange group into one cluster \
         and merges clusters 6 and 8)"
    );
    write_metrics(&opts, "fig03_dendrogram");
}
