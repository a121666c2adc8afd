//! Figure 9 — cluster distribution of neighbouring outdoor antennas.
//!
//! Regenerates the outdoor classification: RCA of each outdoor antenna
//! referenced against indoor usage (Eq. 5), symmetrised, and classified by
//! the surrogate forest. The paper reports ~70 % of ~20k outdoor antennas
//! in the general-use cluster 1 with transit/stadium/workspace clusters
//! nearly absent; we print the distribution, the entropy comparison and
//! the same concentration statistics.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig09_outdoor [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_core::{distribution_entropy, label_distribution};
use icn_report::Table;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner(
        "Figure 9 — outdoor antennas through the indoor surrogate",
        &ds,
    );
    let st = study(&ds, &opts);

    let indoor_dist = label_distribution(&st.labels, st.config.k);
    let mut t = Table::new(vec![
        "cluster",
        "dominant env",
        "indoor share",
        "outdoor share",
    ]);
    for c in 0..st.config.k {
        let (env, _) = st.crosstab.dominant_environment(c);
        t.row(vec![
            c.to_string(),
            env.label().to_string(),
            format!("{:.1}%", 100.0 * indoor_dist[c]),
            format!("{:.1}%", 100.0 * st.outdoor.distribution[c]),
        ]);
    }
    println!("{}", t.render());

    let (dom, share) = st.outdoor.dominant;
    let (dom_env, _) = st.crosstab.dominant_environment(dom);
    println!(
        "{:.1}% of {} outdoor antennas land in cluster {dom} (dominant env: {}) — \
         the paper reports ~70% in its general-use cluster 1",
        100.0 * share,
        st.outdoor.predicted.len(),
        dom_env.label()
    );
    println!(
        "diversity entropy: indoor {:.3} nats, outdoor {:.3} nats",
        distribution_entropy(&indoor_dist),
        distribution_entropy(&st.outdoor.distribution)
    );
    write_metrics(&opts, "fig09_outdoor");
}
