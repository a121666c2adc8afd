//! Figure 8 (a–c) — cluster distributions per indoor environment type.
//!
//! Regenerates the three panels: (a) airports, tunnels, commercial centers;
//! (b) hotels, hospitals, public buildings; (c) stadiums, expo centers,
//! workplaces — each environment's antennas broken down by cluster.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig08_env_clusters [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};
use icn_report::Table;
use icn_synth::Environment;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 8 — cluster distribution per environment", &ds);
    let st = study(&ds, &opts);

    let panels: [(&str, &[Environment]); 3] = [
        (
            "(a) airports, tunnels, commercial centers",
            &[
                Environment::Airport,
                Environment::Tunnel,
                Environment::CommercialCenter,
            ],
        ),
        (
            "(b) hotels, hospitals, public buildings",
            &[
                Environment::Hotel,
                Environment::Hospital,
                Environment::PublicBuilding,
            ],
        ),
        (
            "(c) stadiums, expo centers, workplaces",
            &[
                Environment::Stadium,
                Environment::ExpoCenter,
                Environment::Workspace,
            ],
        ),
    ];

    for (title, envs) in panels {
        println!("--- {title} ---");
        let mut header: Vec<String> = vec!["environment".into(), "n".into()];
        header.extend((0..9).map(|c| format!("c{c}")));
        let mut t = Table::new(header);
        for &env in envs {
            let dist = st.crosstab.env_distribution(env);
            let e_idx = icn_core::env_index(env);
            let mut row = vec![
                env.label().to_string(),
                st.crosstab.env_sizes[e_idx].to_string(),
            ];
            row.extend(dist.iter().map(|&f| format!("{:.0}%", 100.0 * f)));
            t.row(row);
        }
        println!("{}", t.render());
    }
    write_metrics(&opts, "fig08_env_clusters");
}
