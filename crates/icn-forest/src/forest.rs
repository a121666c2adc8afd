//! Random forest classifier.
//!
//! The paper trains "a random forest classifier with 100 trees to infer the
//! antenna cluster based on the mobile service RSCA" (Section 5.1.2) as a
//! surrogate for the agglomerative clustering, then explains it with
//! TreeSHAP. This forest is the standard Breiman construction: bootstrap
//! bagging + per-node √M feature subsampling, soft voting over leaf class
//! distributions, and an out-of-bag error estimate.

use crate::data::TrainSet;
use crate::tree::{DecisionTree, MaxFeatures, RankTable, TreeConfig};
use icn_stats::{par, Matrix, Rng};

/// Forest hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    /// Number of trees (the paper uses 100).
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// Master seed; each tree gets an independent derived stream.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: 0xF0_5E57,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug)]
pub struct RandomForest {
    /// The member trees.
    pub trees: Vec<DecisionTree>,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of features.
    pub n_features: usize,
    /// Out-of-bag accuracy estimate (`None` if no row was ever OOB).
    pub oob_accuracy: Option<f64>,
}

impl RandomForest {
    /// Fits the forest on the full training set. Trees are trained in
    /// parallel; results are deterministic in `cfg.seed` regardless of the
    /// thread schedule (each tree owns a forked RNG stream).
    pub fn fit(ts: &TrainSet, cfg: &ForestConfig) -> RandomForest {
        assert!(cfg.n_trees >= 1, "RandomForest: need at least one tree");
        let _span = icn_obs::Span::enter("forest_fit");
        let root = Rng::seed_from(cfg.seed);
        // One rank table serves every node of every tree.
        let ranks = RankTable::build(ts);
        // One work item per tree: tree costs vary with the bootstrap, and
        // a forest has few trees per worker to balance them over.
        let mut fitted: Vec<Option<(DecisionTree, Vec<usize>)>> = vec![None; cfg.n_trees];
        par::fill_chunks(&mut fitted, 1, |range, slot| {
            let t = range.start;
            let mut tree_span = icn_obs::Span::enter("fit_tree");
            tree_span.attr("tree", t as u64);
            let mut rng = root.fork(t as u64);
            let (in_bag, oob) = ts.bootstrap(&mut rng);
            let tree = DecisionTree::fit_ranked(ts, &ranks, &in_bag, &cfg.tree, &mut rng);
            tree_span.attr("nodes", tree.num_nodes() as u64);
            slot[0] = Some((tree, oob));
        });
        let results: Vec<(DecisionTree, Vec<usize>)> = fitted
            .into_iter()
            .map(|r| r.expect("every tree fitted"))
            .collect();
        let obs = icn_obs::global();
        if obs.is_enabled() {
            obs.add_counter("forest.trees", results.len() as u64);
            obs.add_counter(
                "forest.nodes",
                results.iter().map(|(t, _)| t.num_nodes() as u64).sum(),
            );
            obs.add_counter("forest.training_rows", ts.len() as u64);
        }

        // OOB vote accumulation over one flat buffer (no per-row `Vec`s),
        // filled in parallel by disjoint row blocks. Every block walks the
        // trees in fit order and picks its rows out of each tree's OOB
        // list (ascending by construction) with a binary-searched window,
        // so each row's vote sum sees the exact tree-order additions of
        // the serial loop — bit-identical at any `ICN_THREADS`.
        let c = ts.n_classes;
        let mut votes = vec![0.0f64; ts.len() * c];
        let rows_per_chunk = ts.len().div_ceil(4 * par::thread_count()).max(64);
        par::fill_chunks(&mut votes, rows_per_chunk * c, |range, slice| {
            let (r0, r1) = (range.start / c, range.end / c);
            for (tree, oob) in &results {
                let lo = oob.partition_point(|&r| r < r0);
                let hi = oob.partition_point(|&r| r < r1);
                for &r in &oob[lo..hi] {
                    let p = tree.predict_proba(ts.x.row(r));
                    let row = &mut slice[(r - r0) * c..(r - r0 + 1) * c];
                    for (v, &pi) in row.iter_mut().zip(p) {
                        *v += pi;
                    }
                }
            }
        });
        let mut correct = 0usize;
        let mut counted = 0usize;
        for r in 0..ts.len() {
            let row = &votes[r * c..(r + 1) * c];
            // A row voted at least once iff it carries positive mass (each
            // OOB visit adds a distribution with some positive entry).
            if row.iter().any(|&v| v > 0.0) {
                counted += 1;
                if icn_stats::rank::argmax(row) == ts.y[r] {
                    correct += 1;
                }
            }
        }
        let oob_accuracy = if counted > 0 {
            Some(correct as f64 / counted as f64)
        } else {
            None
        };

        RandomForest {
            trees: results.into_iter().map(|(t, _)| t).collect(),
            n_classes: ts.n_classes,
            n_features: ts.num_features(),
            oob_accuracy,
        }
    }

    /// The forest itself, cloned. Kept only for the traced replay of the
    /// repository benchmark (`perfbench/src/replay.rs`), which still
    /// calls it; nothing in the workspace does.
    pub fn from_forest(forest: &RandomForest) -> RandomForest {
        forest.clone()
    }

    /// Soft-vote class probabilities for one sample, written into `acc`
    /// (length `n_classes`): leaf distributions summed in tree order, then
    /// scaled by `1/T`.
    pub fn predict_proba_into(&self, x: &[f64], acc: &mut [f64]) {
        assert_eq!(x.len(), self.n_features, "predict_proba: feature mismatch");
        acc.fill(0.0);
        for tree in &self.trees {
            let leaf = tree.leaf_for(x);
            for (a, &p) in acc.iter_mut().zip(tree.distribution(leaf)) {
                *a += p;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }

    /// Mean class-probability vector over all trees (soft voting).
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        self.predict_proba_into(x, &mut acc);
        acc
    }

    /// Most likely class.
    pub fn predict(&self, x: &[f64]) -> usize {
        icn_stats::rank::argmax(&self.predict_proba(x))
    }

    /// Predicts every row of a matrix in parallel (chunked so each worker
    /// reuses one probability accumulator across its samples), under a
    /// `predict` span.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        assert_eq!(x.cols(), self.n_features, "predict_batch: feature mismatch");
        let _span = icn_obs::Span::enter("predict");
        let n = x.rows();
        let chunk = predict_chunk_size(n);
        let chunks: Vec<Vec<usize>> = par::map_chunks(n, chunk, |range| {
            let mut acc = vec![0.0f64; self.n_classes];
            range
                .map(|i| {
                    self.predict_proba_into(x.row(i), &mut acc);
                    icn_stats::rank::argmax(&acc)
                })
                .collect()
        });
        chunks.into_iter().flatten().collect()
    }

    /// Training accuracy on a labelled set.
    pub fn accuracy(&self, ts: &TrainSet) -> f64 {
        let preds = self.predict_batch(&ts.x);
        let hits = preds.iter().zip(&ts.y).filter(|(p, y)| p == y).count();
        hits as f64 / ts.len() as f64
    }
}

/// Sample-chunk width for batched prediction: small enough to load-balance
/// across workers, large enough to amortize per-chunk bookkeeping. The
/// chunking never affects results — each row is classified independently.
fn predict_chunk_size(n: usize) -> usize {
    (n / (par::thread_count() * 8))
        .clamp(64, 4096)
        .min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three Gaussian blobs in 4-D.
    fn blobs(n_per: usize, seed: u64) -> TrainSet {
        let mut rng = Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [
            [0.0, 0.0, 0.0, 0.0],
            [4.0, 4.0, 0.0, 0.0],
            [0.0, 4.0, 4.0, 0.0],
        ];
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(center.iter().map(|&m| rng.normal(m, 0.6)).collect());
                labels.push(c);
            }
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_blobs_with_high_oob() {
        let ts = blobs(40, 1);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 30,
                ..ForestConfig::default()
            },
        );
        assert!(forest.accuracy(&ts) > 0.98);
        let oob = forest.oob_accuracy.expect("some OOB rows");
        assert!(oob > 0.9, "oob {oob}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ts = blobs(20, 2);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 10,
                ..ForestConfig::default()
            },
        );
        let p = forest.predict_proba(ts.x.row(0));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed_despite_parallelism() {
        let ts = blobs(20, 3);
        let cfg = ForestConfig {
            n_trees: 12,
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&ts, &cfg);
        let b = RandomForest::fit(&ts, &cfg);
        let pa = a.predict_batch(&ts.x);
        let pb = b.predict_batch(&ts.x);
        assert_eq!(pa, pb);
        assert_eq!(a.oob_accuracy, b.oob_accuracy);
        // Tree structures match too.
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            assert_eq!(ta.num_nodes(), tb.num_nodes());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let ts = blobs(20, 4);
        let a = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 5,
                seed: 1,
                ..ForestConfig::default()
            },
        );
        let b = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 5,
                seed: 2,
                ..ForestConfig::default()
            },
        );
        let differs = a
            .trees
            .iter()
            .zip(&b.trees)
            .any(|(x, y)| x.num_nodes() != y.num_nodes());
        assert!(differs || a.predict_proba(ts.x.row(0)) != b.predict_proba(ts.x.row(0)));
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let train = blobs(40, 5);
        let test = blobs(10, 99);
        let forest = RandomForest::fit(
            &train,
            &ForestConfig {
                n_trees: 30,
                ..ForestConfig::default()
            },
        );
        assert!(forest.accuracy(&test) > 0.9);
    }

    #[test]
    fn single_tree_forest_works() {
        let ts = blobs(15, 6);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 1,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.trees.len(), 1);
        assert!(forest.accuracy(&ts) > 0.6);
    }

    #[test]
    fn batch_prediction_matches_per_sample() {
        let ts = blobs(40, 3);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 9,
                ..ForestConfig::default()
            },
        );
        let batch = forest.predict_batch(&ts.x);
        let per: Vec<usize> = (0..ts.len()).map(|i| forest.predict(ts.x.row(i))).collect();
        assert_eq!(batch, per);
    }

    #[test]
    fn stump_forest_predicts() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![1.0]]), vec![0, 0]);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 2,
                ..ForestConfig::default()
            },
        );
        assert!(forest.trees.iter().all(|t| t.max_depth == 0));
        assert_eq!(
            forest.predict_batch(&Matrix::from_rows(&[vec![1.0]])),
            vec![0]
        );
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn batch_feature_mismatch_panics() {
        let ts = blobs(10, 7);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 2,
                ..ForestConfig::default()
            },
        );
        forest.predict_batch(&Matrix::zeros(3, 2));
    }
}
