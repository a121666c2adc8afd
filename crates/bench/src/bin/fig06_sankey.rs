//! Figure 6 — Sankey diagram of cluster → environment flows.
//!
//! Regenerates the flow mass between the nine clusters and the eleven
//! indoor environment types, rendered as proportional text bands plus the
//! headline monopolies the paper reads off the diagram (metro/train
//! stations monopolised by the orange group, stadiums by the green group,
//! workspaces dominated by cluster 3's flow).
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig06_sankey [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_synth::Environment;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 6 — cluster -> environment flows", &ds);
    let st = study(&ds, &opts);

    let flows = st.crosstab.flows();
    print!("{}", icn_report::sankey::render(&flows, 2, 36));

    println!("\nheadline monopolies:");
    for env in [
        Environment::Metro,
        Environment::TrainStation,
        Environment::Stadium,
        Environment::Workspace,
        Environment::Airport,
        Environment::Tunnel,
        Environment::Hospital,
    ] {
        let (c, share) = st.crosstab.dominant_cluster(env);
        println!(
            "{:<18} -> cluster {c} holds {:.0}% of its antennas",
            env.label(),
            100.0 * share
        );
    }
    write_metrics(&opts, "fig06_sankey");
}
