//! Validation harness: archetype-recovery quality of the full study
//! (ARI/NMI/purity against the planted ground truth) — the check the real
//! study could never run, and the headline number of EXPERIMENTS.md.
use icn_bench::{dataset, parse_opts, study, write_metrics};
use icn_cluster::{adjusted_rand_index, normalized_mutual_info, purity};

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    let st = study(&ds, &opts);
    let planted: Vec<usize> = st
        .live_rows
        .iter()
        .map(|&i| ds.planted_labels()[i])
        .collect();
    println!(
        "scale {}: N={} ARI={:.4} NMI={:.4} purity={:.4} surrogate_acc={:.4} oob={:?}",
        opts.scale,
        st.num_antennas(),
        adjusted_rand_index(&st.labels, &planted),
        normalized_mutual_info(&st.labels, &planted),
        purity(&st.labels, &planted),
        st.surrogate_accuracy,
        st.surrogate_oob
    );
    // Cluster -> archetype mapping for the record.
    let map = st.cluster_to_archetype(&ds);
    for (c, &a) in map.iter().enumerate() {
        println!(
            "cluster {c} -> archetype {a} ({})",
            icn_synth::Archetype::from_id(a).description()
        );
    }
    write_metrics(&opts, "validate_recovery");
}
