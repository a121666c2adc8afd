//! Figure 5 (a–i) — SHAP beeswarm summaries per cluster.
//!
//! Regenerates the nine per-cluster explanations: the random-forest
//! surrogate trained on the clustering labels is explained with TreeSHAP;
//! for each cluster the services are ranked by mean |SHAP| (the paper shows
//! the top 25) with the over-/under-utilisation direction recovered from
//! the SHAP↔feature-value relation (the beeswarm colour axis).
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig05_shap [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, study, write_metrics};

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 5 — SHAP values per cluster", &ds);
    let st = study(&ds, &opts);

    println!(
        "surrogate fidelity: train accuracy {:.4}, OOB {:?}\n",
        st.surrogate_accuracy, st.surrogate_oob
    );

    let names: Vec<&str> = ds.services.iter().map(|s| s.name).collect();
    // Present by dendrogram group, like the paper's layout.
    let group_of = st.history.consolidation(st.config.k, 3);
    for g in 0..3 {
        println!("--- super-group {g} ---");
        for ex in st.explanations.iter().filter(|e| group_of[e.class] == g) {
            println!("{}", icn_report::beeswarm::render(ex, &names, 25, 28));
        }
    }
    write_metrics(&opts, "fig05_shap");
}
