//! Figure 1 — histograms of normalized traffic, RCA and RSCA.
//!
//! Regenerates the three panels of Figure 1 for a sample of antennas: the
//! max-normalised traffic spikes near zero, RCA is skewed with an unbounded
//! over-utilisation tail (the paper reports a max of 75.88 in its sample),
//! and RSCA is balanced in [−1, 1].
//!
//! ```sh
//! cargo run --release -p icn-bench --bin fig01_histograms [-- --scale 1.0]
//! ```

use icn_bench::{banner, dataset, parse_opts, write_metrics};
use icn_core::{filter_dead_rows, rca, rsca_from_rca};
use icn_stats::{normalize, Histogram};

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Figure 1 — normalized traffic vs RCA vs RSCA", &ds);

    let (t, _) = filter_dead_rows(&ds.indoor_totals);

    // The paper plots "some antennas": a fixed sample of 20.
    let sample: Vec<usize> = (0..t.rows())
        .step_by((t.rows() / 20).max(1))
        .take(20)
        .collect();
    let sampled = t.select_rows(&sample);

    // Panel 1: traffic normalised by the max application load in-sample.
    let norm = normalize::by_global_max(&sampled);
    let h_norm = Histogram::of(norm.as_slice(), 0.0, 1.0, 40);
    println!(
        "{}",
        icn_report::histogram_plot::render(&h_norm, "normalized traffic", 48)
    );
    let zoom = Histogram::of(norm.as_slice(), 0.0, 0.5, 20);
    println!(
        "{}",
        icn_report::histogram_plot::render(&zoom, "normalized traffic (zoom 0..0.5)", 48)
    );

    // Panel 2: RCA — referenced against the full population, like Eq. (1).
    let rca_full = rca(&t);
    let rca_sample = rca_full.select_rows(&sample);
    let h_rca = Histogram::of(rca_sample.as_slice(), 0.0, 5.0, 40);
    println!("{}", icn_report::histogram_plot::render(&h_rca, "RCA", 48));
    let max_rca = rca_sample
        .as_slice()
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!("largest RCA in sample: {max_rca:.2} (paper's sample: 75.88 — the unbounded tail)\n");

    // Panel 3: RSCA — symmetric in [-1, 1].
    let rsca_sample = rsca_from_rca(&rca_sample);
    let h_rsca = Histogram::of(rsca_sample.as_slice(), -1.0, 1.0, 40);
    println!(
        "{}",
        icn_report::histogram_plot::render(&h_rsca, "RSCA", 48)
    );

    // The balance statistic: fraction of mass on each side of 0.
    let (under, over): (usize, usize) =
        rsca_sample.as_slice().iter().fold(
            (0, 0),
            |(u, o), &v| if v < 0.0 { (u + 1, o) } else { (u, o + 1) },
        );
    println!(
        "RSCA balance: {under} under-utilised vs {over} over-utilised samples \
         (RCA in-sample max maps to RSCA {:.3})",
        (max_rca - 1.0) / (max_rca + 1.0)
    );
    write_metrics(&opts, "fig01_histograms");
}
