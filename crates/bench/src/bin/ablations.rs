//! Ablation benches B1–B5 (DESIGN.md): the design choices the paper
//! motivates, quantified against the planted ground truth.
//!
//! * B1 — transform ablation: raw vs max-normalised vs RCA vs RSCA input
//!   to the clustering (Section 4.1's argument).
//! * B2 — linkage ablation: Ward vs single/complete/average.
//! * B3 — k-means baseline vs agglomerative.
//! * B4 — surrogate fidelity vs forest size/depth (Section 5.1.2).
//! * B5 — SHAP estimator agreement: TreeSHAP vs KernelSHAP.
//!
//! ```sh
//! cargo run --release -p icn-bench --bin ablations [-- --scale 0.25]
//! ```

use icn_bench::{banner, dataset, parse_opts, write_metrics};
use icn_cluster::{
    adjusted_rand_index, agglomerate, agglomerate_condensed, kmeans_best_of, silhouette_score,
    Condensed, Linkage,
};
use icn_core::{filter_dead_rows, rca, rsca};
use icn_forest::{ForestConfig, MaxFeatures, RandomForest, TrainSet, TreeConfig};
use icn_report::Table;
use icn_shap::{forest_shap, kernel_shap, KernelShapConfig};
use icn_stats::{normalize, Matrix, Rng};

fn main() {
    let opts = parse_opts();
    let ds = dataset(&opts);
    banner("Ablations B1–B5", &ds);

    let (t, live_rows) = filter_dead_rows(&ds.indoor_totals);
    let planted: Vec<usize> = live_rows.iter().map(|&i| ds.planted_labels()[i]).collect();
    let features = rsca(&t);

    // ---------- B1: transform ablation ----------
    println!("B1 — input transform vs archetype recovery (Ward, k=9):");
    let mut b1 = Table::new(vec!["transform", "ARI", "silhouette"]);
    let variants: Vec<(&str, Matrix)> = vec![
        ("raw traffic", t.clone()),
        ("max-normalised", normalize::by_global_max(&t)),
        ("row shares", normalize::row_stochastic(&t)),
        ("RCA", rca(&t)),
        ("RSCA (paper)", features.clone()),
    ];
    for (name, m) in &variants {
        // Silhouette reads Euclidean distances as square roots of Ward's
        // matrix: one pairwise pass per transform.
        let cond = Condensed::from_rows(m, Linkage::Ward.base_metric());
        let labels = agglomerate_condensed(&cond, Linkage::Ward).cut(9);
        b1.row(vec![
            name.to_string(),
            format!("{:.3}", adjusted_rand_index(&labels, &planted)),
            format!("{:.3}", silhouette_score(cond.sqrt_values(), &labels)),
        ]);
    }
    println!("{}", b1.render());

    // ---------- B2: linkage ablation ----------
    println!("B2 — linkage criterion (RSCA features, k=9):");
    let mut b2 = Table::new(vec!["linkage", "ARI"]);
    for linkage in Linkage::ALL {
        let history = agglomerate(&features, linkage);
        let labels = history.cut(9);
        b2.row(vec![
            linkage.name().to_string(),
            format!("{:.3}", adjusted_rand_index(&labels, &planted)),
        ]);
    }
    println!("{}", b2.render());

    // ---------- B3: k-means baseline ----------
    println!("B3 — k-means vs agglomerative (RSCA features):");
    let mut b3 = Table::new(vec!["algorithm", "ARI"]);
    let ward_labels = agglomerate(&features, Linkage::Ward).cut(9);
    b3.row(vec![
        "agglomerative (ward)".to_string(),
        format!("{:.3}", adjusted_rand_index(&ward_labels, &planted)),
    ]);
    let mut rng = Rng::seed_from(42);
    let km = kmeans_best_of(&features, 9, 200, 8, &mut rng);
    b3.row(vec![
        "k-means++ (best of 8)".to_string(),
        format!("{:.3}", adjusted_rand_index(&km.labels, &planted)),
    ]);
    println!("{}", b3.render());

    // ---------- B4: surrogate fidelity sweep ----------
    println!("B4 — surrogate fidelity vs forest size (labels = ward cut):");
    let ts = TrainSet::new(features.clone(), ward_labels.clone());
    let mut b4 = Table::new(vec!["trees", "max depth", "train acc", "OOB acc"]);
    for (n_trees, depth) in [
        (10, usize::MAX),
        (50, usize::MAX),
        (100, usize::MAX),
        (100, 4),
    ] {
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees,
                tree: TreeConfig {
                    max_depth: depth,
                    max_features: MaxFeatures::Sqrt,
                    ..TreeConfig::default()
                },
                seed: 7,
            },
        );
        b4.row(vec![
            n_trees.to_string(),
            if depth == usize::MAX {
                "∞".into()
            } else {
                depth.to_string()
            },
            format!("{:.3}", forest.accuracy(&ts)),
            format!(
                "{:?}",
                forest.oob_accuracy.map(|x| (x * 1000.0).round() / 1000.0)
            ),
        ]);
    }
    println!("{}", b4.render());

    // Stratified 5-fold CV of the paper-sized surrogate: the sturdier
    // generalisation check next to OOB (cluster sizes are unbalanced).
    let cv = icn_forest::cross_validate(
        &ts,
        &ForestConfig {
            n_trees: 50,
            seed: 7,
            ..ForestConfig::default()
        },
        5,
        13,
    );
    println!(
        "B4b — stratified 5-fold CV: accuracy {:.3}, macro-F1 {:.3} (per-fold acc {:?})\n",
        cv.mean_accuracy(),
        cv.mean_macro_f1(),
        cv.fold_accuracy
            .iter()
            .map(|a| (a * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );

    // ---------- B2b: bootstrap stability of the k = 9 partition ----------
    println!("B2b — bootstrap stability (70% subsamples, 8 replicates):");
    let mut b2b = Table::new(vec!["k", "mean ARI", "min ARI"]);
    for k in [6usize, 9, 12] {
        let reference = agglomerate(&features, Linkage::Ward).cut(k);
        let r = icn_cluster::bootstrap_stability(
            &features,
            &reference,
            k,
            Linkage::Ward,
            0.7,
            8,
            0xB007,
        );
        b2b.row(vec![
            k.to_string(),
            format!("{:.3}", r.mean_ari()),
            format!("{:.3}", r.min_ari()),
        ]);
    }
    println!("{}", b2b.render());

    // ---------- B5: SHAP estimator agreement ----------
    println!("B5 — TreeSHAP vs KernelSHAP (one member of each of 3 clusters):");
    let forest = RandomForest::fit(
        &ts,
        &ForestConfig {
            n_trees: 50,
            seed: 7,
            ..Default::default()
        },
    );
    let mut b5 = Table::new(vec![
        "cluster",
        "sample",
        "top-feature match",
        "sign agreement (top5)",
    ]);
    for class in 0..3usize {
        let Some(idx) = ward_labels.iter().position(|&l| l == class) else {
            continue;
        };
        let x = features.row(idx);
        let tree_phi = forest_shap(&forest, x);
        let tree_class: Vec<f64> = tree_phi.iter().map(|p| p[class]).collect();
        let model = |v: &[f64]| forest.predict_proba(v)[class];
        let (kern_phi, _) = kernel_shap(
            &model,
            x,
            &features,
            &KernelShapConfig {
                n_samples: 1500,
                max_background: 16,
                seed: 11,
            },
        );
        let abs_tree: Vec<f64> = tree_class.iter().map(|v| v.abs()).collect();
        let abs_kern: Vec<f64> = kern_phi.iter().map(|v| v.abs()).collect();
        let top_tree = icn_stats::rank::argmax(&abs_tree);
        let top_kern = icn_stats::rank::argmax(&abs_kern);
        let top5 = icn_stats::rank::top_k(&abs_tree, 5);
        let signs = top5
            .iter()
            .filter(|&&f| {
                tree_class[f].signum() == kern_phi[f].signum() || kern_phi[f].abs() < 1e-4
            })
            .count();
        b5.row(vec![
            class.to_string(),
            idx.to_string(),
            if top_tree == top_kern {
                "yes".into()
            } else {
                format!(
                    "{} vs {}",
                    ds.services[top_tree].name, ds.services[top_kern].name
                )
            },
            format!("{signs}/5"),
        ]);
    }
    println!("{}", b5.render());
    write_metrics(&opts, "ablations");
}
