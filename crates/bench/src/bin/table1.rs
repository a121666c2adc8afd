//! Table 1 — summary of indoor environment types.
//!
//! Regenerates the paper's Table 1: the eleven indoor environment
//! categories with their example cases and the antenna count `N_env` per
//! category, as recovered by the name-mining extractor (Section 5.2.1) —
//! not just as generated, so the extraction code path is exercised.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin table1 [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, write_metrics};
use icn_report::Table;
use icn_synth::mining::{mine_all, MinedLabel};
use icn_synth::Environment;

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Table 1 — indoor environment types", &ds);

    // Mine environments from site names (the paper's extraction step).
    let names: Vec<String> = ds.antennas.iter().map(|a| a.site_name.clone()).collect();
    let (mined, unknown) = mine_all(&names);

    let mut counts = std::collections::HashMap::new();
    for label in &mined {
        if let MinedLabel::Env(e) = label {
            *counts.entry(*e).or_insert(0usize) += 1;
        }
    }

    let mut t = Table::new(vec![
        "Environment",
        "Cases",
        "N_env (mined)",
        "N_env (paper)",
    ]);
    for env in Environment::ALL {
        t.row(vec![
            env.label().to_string(),
            env.cases().to_string(),
            counts.get(&env).copied().unwrap_or(0).to_string(),
            env.paper_count().to_string(),
        ]);
    }
    println!("{}", t.render());
    let total: usize = counts.values().sum();
    println!(
        "total mined: {total} ({} unknown names); paper total: {}",
        unknown,
        icn_synth::environments::PAPER_TOTAL_ANTENNAS
    );

    // Section 3: 5G NSA deployment — "the vast majority of those antennas
    // are 4G, as apparently 5G is scarcely used for ICN at this stage".
    let nr = ds
        .antennas
        .iter()
        .filter(|a| a.rat == icn_synth::RadioTech::Nr)
        .count();
    println!(
        "radio technology: {} x 4G eNodeB, {} x 5G gNodeB ({:.1}% NR)",
        ds.antennas.len() - nr,
        nr,
        100.0 * nr as f64 / ds.antennas.len() as f64
    );
    write_metrics(&opts, "table1");
}
