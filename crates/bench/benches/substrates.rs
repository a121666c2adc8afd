//! Performance benches of the substrates behind each experiment
//! (manual timing loops; `harness = false`).
//!
//! Groups are named after the figure/table whose regeneration they time:
//! the workload generator (Table 1 / all figures), the RCA/RSCA transform
//! (Figure 1), pairwise distances + Ward clustering + quality indices
//! (Figures 2–4), the surrogate forest (Figure 5/9), TreeSHAP (Figure 5)
//! and temporal synthesis (Figures 10–11).
//!
//! ```sh
//! cargo bench -p icn-bench --bench substrates
//! ```

use icn_bench::timing::bench;
use icn_cluster::{agglomerate_condensed, dunn_index, silhouette_score, Condensed, Linkage};
use icn_core::{cluster_heatmap, filter_dead_rows, rsca};
use icn_forecast::cluster_series;
use icn_forest::{ForestConfig, RandomForest, TrainSet};
use icn_shap::forest_shap;
use icn_stats::Metric;
use icn_synth::{Dataset, StudyCalendar, SynthConfig};

fn bench_dataset(scale: f64) -> Dataset {
    Dataset::generate(SynthConfig::paper().with_scale(scale))
}

fn gen_workload() {
    println!("== table1_workload_generation ==");
    for &scale in &[0.05, 0.1, 0.2] {
        bench(&format!("generate_scale_{scale}"), 5, || {
            Dataset::generate(SynthConfig::paper().with_scale(scale))
        });
    }
}

fn transform() {
    let ds = bench_dataset(0.2);
    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    println!("== fig01_rsca_transform ==");
    bench("rsca", 20, || rsca(&t));
}

fn clustering() {
    let ds = bench_dataset(0.2);
    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    let features = rsca(&t);
    println!("== fig03_ward_clustering ==");
    bench("condensed_distances", 5, || {
        Condensed::from_rows(&features, Metric::SqEuclidean)
    });
    let cond = Condensed::from_rows(&features, Metric::SqEuclidean);
    bench("nn_chain_ward", 5, || {
        agglomerate_condensed(&cond, Linkage::Ward)
    });
}

fn quality_indices() {
    let ds = bench_dataset(0.2);
    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    let features = rsca(&t);
    let cond_w = Condensed::from_rows(&features, Metric::SqEuclidean);
    let history = agglomerate_condensed(&cond_w, Linkage::Ward);
    let labels = history.cut(9);
    let cond = Condensed::from_rows(&features, Metric::Euclidean);
    println!("== fig02_quality_indices ==");
    bench("silhouette_k9", 5, || silhouette_score(&cond, &labels));
    bench("dunn_k9", 5, || dunn_index(&cond, &labels));
}

fn surrogate() {
    let ds = bench_dataset(0.2);
    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    let features = rsca(&t);
    let cond = Condensed::from_rows(&features, Metric::SqEuclidean);
    let labels = agglomerate_condensed(&cond, Linkage::Ward).cut(9);
    let ts = TrainSet::new(features.clone(), labels);
    println!("== fig05_surrogate_forest ==");
    bench("fit_100_trees", 5, || {
        RandomForest::fit(&ts, &ForestConfig::default())
    });
    let forest = RandomForest::fit(&ts, &ForestConfig::default());
    bench("predict_batch", 5, || forest.predict_batch(&ts.x));
}

fn treeshap() {
    let ds = bench_dataset(0.1);
    let (t, _) = filter_dead_rows(&ds.indoor_totals);
    let features = rsca(&t);
    let cond = Condensed::from_rows(&features, Metric::SqEuclidean);
    let labels = agglomerate_condensed(&cond, Linkage::Ward).cut(9);
    let ts = TrainSet::new(features.clone(), labels);
    let forest = RandomForest::fit(
        &ts,
        &ForestConfig {
            n_trees: 50,
            ..ForestConfig::default()
        },
    );
    println!("== fig05_treeshap ==");
    bench("one_sample_50_trees_73_features", 10, || {
        forest_shap(&forest, features.row(0))
    });
}

fn temporal() {
    let ds = bench_dataset(0.05);
    let window = StudyCalendar::temporal_window();
    // One small cluster's heatmap.
    let members: Vec<&icn_synth::Antenna> = ds
        .antennas
        .iter()
        .filter(|a| a.archetype == icn_synth::Archetype::Workspace)
        .take(20)
        .collect();
    let rows: Vec<&[f64]> = members.iter().map(|a| ds.indoor_totals.row(a.id)).collect();
    println!("== fig10_temporal_heatmap ==");
    let days = ds.calendar.num_days();
    bench("cluster_heatmap_20_antennas", 5, || {
        let series = cluster_series(
            0,
            &members,
            &rows,
            &ds.services,
            days,
            &window,
            ds.root_rng(),
        );
        cluster_heatmap(&series, &window)
    });
}

fn main() {
    gen_workload();
    transform();
    clustering();
    quality_indices();
    surrogate();
    treeshap();
    temporal();
}
