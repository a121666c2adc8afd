//! Thread-invariance suite for the parallel forest machinery: tree
//! training (order-preserving `map_indexed`) and the chunked OOB vote
//! accumulation must be **bit-identical at any `ICN_THREADS`** —
//! parallelism is an execution detail, never an answer detail.
//!
//! Environment discipline: `ICN_THREADS` is process-global, so every
//! mutation lives inside a single `#[test]` function that saves and
//! restores it (the same convention as
//! `icn-cluster/tests/ward_parallel.rs`).

use icn_forest::{ForestConfig, RandomForest, TrainSet};
use icn_stats::{Matrix, Rng};

struct EnvGuard {
    saved: Option<String>,
}

impl EnvGuard {
    fn capture() -> EnvGuard {
        EnvGuard {
            saved: std::env::var("ICN_THREADS").ok(),
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        // Restore even if an assertion unwinds mid-matrix.
        match &self.saved {
            Some(v) => std::env::set_var("ICN_THREADS", v),
            None => std::env::remove_var("ICN_THREADS"),
        }
    }
}

fn blobs(n_per: usize, seed: u64) -> TrainSet {
    let mut rng = Rng::seed_from(seed);
    let centers = [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [4.0, 4.0, 0.0, 0.0, 1.0],
        [0.0, 4.0, 4.0, 0.0, 2.0],
        [4.0, 0.0, 0.0, 4.0, 3.0],
    ];
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (c, center) in centers.iter().enumerate() {
        for _ in 0..n_per {
            rows.push(center.iter().map(|&m| rng.normal(m, 0.8)).collect());
            labels.push(c);
        }
    }
    TrainSet::new(Matrix::from_rows(&rows), labels)
}

/// Exact bit-level fingerprint of a fitted forest: per-tree node counts,
/// every class-probability of a probe batch, and the OOB accuracy.
fn fingerprint(forest: &RandomForest, ts: &TrainSet) -> (Vec<usize>, Vec<u64>, Option<u64>) {
    let probas: Vec<u64> = (0..ts.len())
        .flat_map(|r| {
            forest
                .predict_proba(ts.x.row(r))
                .into_iter()
                .map(|p| p.to_bits())
                .collect::<Vec<u64>>()
        })
        .collect();
    (
        forest.trees.iter().map(|t| t.num_nodes()).collect(),
        probas,
        forest.oob_accuracy.map(f64::to_bits),
    )
}

/// The invariance matrix: fits at `ICN_THREADS` ∈ {2, 8} must reproduce
/// the pinned single-thread baseline bit for bit — tree structures, soft
/// votes, and the chunk-merged OOB accuracy alike. The row count (120) is
/// comfortably above the OOB chunking floor so the parallel merge path
/// actually splits at 8 threads.
#[test]
fn forest_fit_is_bit_identical_across_threads() {
    let _guard = EnvGuard::capture();
    let ts = blobs(30, 0xF0_1234);
    let cfg = ForestConfig {
        n_trees: 40,
        ..ForestConfig::default()
    };

    std::env::set_var("ICN_THREADS", "1");
    let base = fingerprint(&RandomForest::fit(&ts, &cfg), &ts);
    assert!(base.2.is_some(), "OOB accuracy must be defined");

    for threads in ["2", "8"] {
        std::env::set_var("ICN_THREADS", threads);
        let fp = fingerprint(&RandomForest::fit(&ts, &cfg), &ts);
        assert_eq!(fp, base, "forest fit drifted at ICN_THREADS={threads}");
    }
}

/// Differential oracle for the chunked OOB accumulation: recompute the
/// OOB accuracy with the naive serial loop (per-row `Vec` of votes, trees
/// in fit order) and demand the forest's chunk-merged figure match it
/// bit for bit.
#[test]
fn oob_accuracy_matches_serial_vote_oracle() {
    let ts = blobs(25, 0xBEEF);
    let cfg = ForestConfig {
        n_trees: 24,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&ts, &cfg);

    // Replay the bootstrap partition exactly as `fit` derives it: the
    // same master seed, one forked stream per tree, OOB rows from the
    // stream *before* tree growth consumes it.
    let root = Rng::seed_from(cfg.seed);
    let mut votes: Vec<Vec<f64>> = vec![vec![0.0; ts.n_classes]; ts.len()];
    for (t, tree) in forest.trees.iter().enumerate() {
        let mut rng = root.fork(t as u64);
        let (_, oob) = ts.bootstrap(&mut rng);
        for r in oob {
            for (v, &p) in votes[r].iter_mut().zip(tree.predict_proba(ts.x.row(r))) {
                *v += p;
            }
        }
    }
    let mut correct = 0usize;
    let mut counted = 0usize;
    for (r, row) in votes.iter().enumerate() {
        if row.iter().any(|&v| v > 0.0) {
            counted += 1;
            if icn_stats::rank::argmax(row) == ts.y[r] {
                correct += 1;
            }
        }
    }
    assert!(counted > 0);
    let oracle = correct as f64 / counted as f64;
    assert_eq!(
        forest.oob_accuracy.map(f64::to_bits),
        Some(oracle.to_bits()),
        "chunk-merged OOB accuracy diverged from the serial vote oracle"
    );
}
