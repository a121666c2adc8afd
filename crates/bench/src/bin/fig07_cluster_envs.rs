//! Figure 7 (a–c) — types of indoor environments per cluster.
//!
//! Regenerates the environment composition of each cluster, grouped by the
//! dendrogram super-groups like the paper's three panels, together with
//! the Paris-share statistics the prose quotes (">92 % of clusters 0/4 in
//! Paris", "~60 % of cluster 8 in Paris", "92 % of cluster 2 outside
//! Paris", "70 % of cluster 3 in Paris").
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig07_cluster_envs [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_report::Table;
use icn_synth::Environment;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 7 — environment composition per cluster", &ds);
    let st = study(&ds, &opts);

    let group_of = st.history.consolidation(st.config.k, 3);

    for g in 0..3 {
        println!("--- super-group {g} ---");
        let mut header: Vec<String> = vec!["cluster".into(), "n".into(), "paris%".into()];
        header.extend(Environment::ALL.iter().map(|e| e.label().to_string()));
        let mut t = Table::new(header);
        for c in (0..9).filter(|&c| group_of[c] == g) {
            let comp = st.crosstab.cluster_composition(c);
            let mut row = vec![
                c.to_string(),
                st.crosstab.cluster_sizes[c].to_string(),
                format!("{:.0}%", 100.0 * st.crosstab.paris_share[c]),
            ];
            row.extend(comp.iter().map(|&f| format!("{:.0}%", 100.0 * f)));
            t.row(row);
        }
        println!("{}", t.render());
    }
    write_metrics(&opts, "fig07_cluster_envs");
}
