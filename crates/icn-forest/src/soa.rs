//! Structure-of-arrays tree layout — the shared hot-path representation.
//!
//! The pointer-light [`crate::tree::Node`] vec is convenient to grow, but
//! the pipeline's two dominant kernels — TreeSHAP over every indoor
//! antenna (stage 3) and surrogate classification of ~20k outdoor
//! antennas (stage 5) — walk fitted trees millions of times and never
//! mutate them. [`SoaTree`] freezes a fitted tree into parallel contiguous
//! arrays (feature / threshold / children / cover ratio / leaf
//! distribution offset), so a traversal touches a handful of dense `Vec`s
//! instead of hopping across 64-byte `Node`s with embedded `Vec<f64>`
//! distributions.
//!
//! Two quantities are precomputed because the TreeSHAP kernel needs them
//! at every internal node:
//!
//! * `ratio[i]` — `cover[i] / cover[parent(i)]`, the fraction of training
//!   samples flowing into `i` (1.0 at the root). This is exactly the
//!   `zero_fraction` factor of the path-dependent algorithm, computed with
//!   the same division as the on-the-fly version so results are
//!   bit-identical.
//! * `max_depth` — sizes the explainer's flat scratch arenas up front, so
//!   the per-sample walk performs no allocation at all.
//!
//! Leaf class distributions are concatenated into one `dist` array indexed
//! by `dist_off`, shared by forest prediction and SHAP accumulation.

use crate::forest::RandomForest;
use crate::tree::DecisionTree;
use icn_stats::{par, Matrix};

/// Child index marking a leaf (mirrors `Node::is_leaf`).
const LEAF: u32 = u32::MAX;

/// A fitted decision tree frozen into structure-of-arrays form.
#[derive(Clone, Debug)]
pub struct SoaTree {
    /// Split feature per node (meaningless at leaves).
    pub feature: Vec<u32>,
    /// Split threshold per node: `x[feature] <= threshold` goes left.
    pub threshold: Vec<f64>,
    /// Left child per node, `u32::MAX` at leaves.
    pub left: Vec<u32>,
    /// Right child per node, `u32::MAX` at leaves.
    pub right: Vec<u32>,
    /// `cover[i] / cover[parent(i)]` per node (1.0 at the root) — the
    /// TreeSHAP `zero_fraction` of descending into `i`.
    pub ratio: Vec<f64>,
    /// Offset of each **leaf**'s class distribution in [`SoaTree::dist`]
    /// (`u32::MAX` at internal nodes).
    pub dist_off: Vec<u32>,
    /// Concatenated leaf class distributions, `n_classes` each.
    pub dist: Vec<f64>,
    /// Offset of each **leaf**'s nonzero distribution entries in
    /// [`SoaTree::nz_class`] / [`SoaTree::nz_val`] (`u32::MAX` at internal
    /// nodes). Fully-grown CART leaves are pure, so the sparse view is
    /// usually a single `(class, value)` pair where the dense row is
    /// `n_classes` wide — the SHAP accumulator iterates this instead.
    pub nz_off: Vec<u32>,
    /// Number of nonzero distribution entries at each leaf (0 at internal
    /// nodes).
    pub nz_len: Vec<u32>,
    /// Concatenated class indices of nonzero leaf-distribution entries.
    pub nz_class: Vec<u32>,
    /// Concatenated values of nonzero leaf-distribution entries.
    pub nz_val: Vec<f64>,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of features the tree was trained on.
    pub n_features: usize,
    /// Maximum depth of the tree (root = 0).
    pub max_depth: usize,
    /// Largest number of **unique** split features on any root→leaf path.
    /// TreeSHAP's per-leaf weight polynomial has degree `< max_unique_path`,
    /// so this bounds the quadrature order the kernel needs.
    pub max_unique_path: usize,
}

impl SoaTree {
    /// Freezes a fitted tree. Cover ratios use the identical division
    /// (`child cover / parent cover`) as the recursive TreeSHAP descent,
    /// so downstream results are bit-for-bit unchanged.
    pub fn from_tree(tree: &DecisionTree) -> SoaTree {
        let n = tree.nodes.len();
        let mut out = SoaTree {
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            ratio: vec![1.0; n],
            dist_off: Vec::with_capacity(n),
            dist: Vec::new(),
            nz_off: Vec::with_capacity(n),
            nz_len: Vec::with_capacity(n),
            nz_class: Vec::new(),
            nz_val: Vec::new(),
            n_classes: tree.n_classes,
            n_features: tree.n_features,
            max_depth: 0,
            max_unique_path: 0,
        };
        for node in &tree.nodes {
            out.feature.push(node.feature as u32);
            out.threshold.push(node.threshold);
            if node.is_leaf() {
                out.left.push(LEAF);
                out.right.push(LEAF);
                out.dist_off.push(out.dist.len() as u32);
                out.dist.extend_from_slice(&node.distribution);
                out.nz_off.push(out.nz_class.len() as u32);
                let mut nz = 0u32;
                for (c, &v) in node.distribution.iter().enumerate() {
                    if v != 0.0 {
                        out.nz_class.push(c as u32);
                        out.nz_val.push(v);
                        nz += 1;
                    }
                }
                out.nz_len.push(nz);
            } else {
                out.left.push(node.left as u32);
                out.right.push(node.right as u32);
                out.dist_off.push(u32::MAX);
                out.nz_off.push(u32::MAX);
                out.nz_len.push(0);
            }
        }
        // Cover ratios, depth and unique-path width in one iterative DFS.
        // Enter events push an exit marker that undoes the feature count,
        // so `unique` always reflects the distinct split features between
        // the root and the current node.
        let mut counts = vec![0u32; tree.n_features.max(1)];
        let mut unique = 0usize;
        enum Ev {
            Enter(usize, usize),
            Exit(usize),
        }
        let mut stack: Vec<Ev> = vec![Ev::Enter(0, 0)];
        while let Some(ev) = stack.pop() {
            match ev {
                Ev::Exit(f) => {
                    counts[f] -= 1;
                    if counts[f] == 0 {
                        unique -= 1;
                    }
                }
                Ev::Enter(i, d) => {
                    out.max_depth = out.max_depth.max(d);
                    let node = &tree.nodes[i];
                    if node.is_leaf() {
                        out.max_unique_path = out.max_unique_path.max(unique);
                    } else {
                        out.ratio[node.left] = tree.nodes[node.left].cover / node.cover;
                        out.ratio[node.right] = tree.nodes[node.right].cover / node.cover;
                        if counts[node.feature] == 0 {
                            unique += 1;
                        }
                        counts[node.feature] += 1;
                        stack.push(Ev::Exit(node.feature));
                        stack.push(Ev::Enter(node.left, d + 1));
                        stack.push(Ev::Enter(node.right, d + 1));
                    }
                }
            }
        }
        out
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.left.len()
    }

    /// True if node `i` has no children.
    #[inline]
    pub fn is_leaf(&self, i: usize) -> bool {
        self.left[i] == LEAF
    }

    /// Index of the leaf a sample lands in.
    #[inline]
    fn leaf_for(&self, x: &[f64]) -> usize {
        let mut i = 0usize;
        while self.left[i] != LEAF {
            i = if x[self.feature[i] as usize] <= self.threshold[i] {
                self.left[i] as usize
            } else {
                self.right[i] as usize
            };
        }
        i
    }

    /// The class distribution stored at leaf `i`.
    #[inline]
    fn leaf_dist(&self, i: usize) -> &[f64] {
        let off = self.dist_off[i] as usize;
        &self.dist[off..off + self.n_classes]
    }

    /// The nonzero entries of leaf `i`'s distribution as parallel
    /// `(classes, values)` slices.
    #[inline]
    pub fn leaf_nonzero(&self, i: usize) -> (&[u32], &[f64]) {
        let off = self.nz_off[i] as usize;
        let end = off + self.nz_len[i] as usize;
        (&self.nz_class[off..end], &self.nz_val[off..end])
    }
}

/// A fitted random forest frozen into structure-of-arrays trees — the
/// layout shared by batch prediction, the TreeSHAP kernel and the stage-5
/// outdoor classification.
#[derive(Clone, Debug)]
pub struct SoaForest {
    /// Frozen member trees, in the forest's tree order.
    pub trees: Vec<SoaTree>,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of features.
    pub n_features: usize,
    /// Largest `max_depth` over the member trees.
    pub max_depth: usize,
    /// Largest `max_unique_path` over the member trees.
    pub max_unique_path: usize,
}

impl SoaForest {
    /// Freezes every tree of a fitted forest.
    pub fn from_forest(forest: &RandomForest) -> SoaForest {
        let trees: Vec<SoaTree> = forest.trees.iter().map(SoaTree::from_tree).collect();
        let max_depth = trees.iter().map(|t| t.max_depth).max().unwrap_or(0);
        let max_unique_path = trees.iter().map(|t| t.max_unique_path).max().unwrap_or(0);
        SoaForest {
            trees,
            n_classes: forest.n_classes,
            n_features: forest.n_features,
            max_depth,
            max_unique_path,
        }
    }

    /// Soft-vote class probabilities for one sample, written into `acc`
    /// (length `n_classes`). Trees are accumulated in forest order with
    /// the same elementwise additions as `RandomForest::predict_proba`,
    /// so the result is bit-identical to the node-vec path.
    pub fn predict_proba_into(&self, x: &[f64], acc: &mut [f64]) {
        acc.fill(0.0);
        for tree in &self.trees {
            let leaf = tree.leaf_for(x);
            for (a, &p) in acc.iter_mut().zip(tree.leaf_dist(leaf)) {
                *a += p;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a *= inv;
        }
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
    use crate::data::TrainSet;
    use crate::forest::ForestConfig;
    use crate::tree::TreeConfig;
    use icn_stats::{Matrix, Rng};

    fn blobs(n_per: usize, seed: u64) -> TrainSet {
        let mut rng = Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [[0.0, 0.0, 0.0], [4.0, 4.0, 0.0], [0.0, 4.0, 4.0]];
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(center.iter().map(|&m| rng.normal(m, 0.7)).collect());
                labels.push(c);
            }
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn soa_tree_mirrors_node_vec() {
        let ts = blobs(30, 1);
        let rows: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut Rng::seed_from(1));
        let soa = SoaTree::from_tree(&tree);
        assert_eq!(soa.num_nodes(), tree.nodes.len());
        assert_eq!(soa.max_depth, tree.depth());
        for (i, node) in tree.nodes.iter().enumerate() {
            assert_eq!(soa.is_leaf(i), node.is_leaf(), "node {i}");
            if node.is_leaf() {
                assert_eq!(soa.leaf_dist(i), node.distribution.as_slice());
            } else {
                assert_eq!(soa.feature[i] as usize, node.feature);
                assert_eq!(soa.threshold[i], node.threshold);
                // Ratios are the exact divisions TreeSHAP performs.
                let wl = tree.nodes[node.left].cover / node.cover;
                assert_eq!(soa.ratio[node.left].to_bits(), wl.to_bits());
            }
        }
        // Same leaf for every training sample.
        for i in 0..ts.len() {
            assert_eq!(soa.leaf_for(ts.x.row(i)), tree.leaf_for(ts.x.row(i)));
        }
    }

    #[test]
    fn soa_forest_predictions_bit_match_node_vec() {
        let ts = blobs(25, 2);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 15,
                ..ForestConfig::default()
            },
        );
        let soa = SoaForest::from_forest(&forest);
        let mut acc = vec![0.0f64; soa.n_classes];
        for i in 0..ts.len() {
            let x = ts.x.row(i);
            soa.predict_proba_into(x, &mut acc);
            let want = forest.predict_proba(x);
            for (a, w) in acc.iter().zip(&want) {
                assert_eq!(a.to_bits(), w.to_bits(), "row {i}");
            }
        }
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
        let soa = SoaForest::from_forest(&forest);
        let batch = soa.predict_batch(&ts.x);
        let per: Vec<usize> = (0..ts.len()).map(|i| forest.predict(ts.x.row(i))).collect();
        assert_eq!(batch, per);
    }

    #[test]
    fn sparse_leaf_entries_reconstruct_dense_distributions() {
        let ts = blobs(30, 4);
        let rows: Vec<usize> = (0..ts.len()).collect();
        let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut Rng::seed_from(4));
        let soa = SoaTree::from_tree(&tree);
        for i in 0..soa.num_nodes() {
            if !soa.is_leaf(i) {
                assert_eq!(soa.nz_len[i], 0);
                continue;
            }
            let mut dense = vec![0.0f64; soa.n_classes];
            let (classes, vals) = soa.leaf_nonzero(i);
            assert!(!classes.is_empty(), "leaf {i} has an empty distribution");
            for (&c, &v) in classes.iter().zip(vals) {
                assert!(v != 0.0);
                dense[c as usize] = v;
            }
            assert_eq!(dense.as_slice(), soa.leaf_dist(i), "leaf {i}");
        }
    }

    #[test]
    fn max_unique_path_matches_recursive_walk() {
        fn walk(tree: &DecisionTree, i: usize, path: &mut Vec<usize>) -> usize {
            let node = &tree.nodes[i];
            if node.is_leaf() {
                let mut uniq: Vec<usize> = path.clone();
                uniq.sort_unstable();
                uniq.dedup();
                return uniq.len();
            }
            path.push(node.feature);
            let m = walk(tree, node.left, path).max(walk(tree, node.right, path));
            path.pop();
            m
        }
        for seed in 0..4u64 {
            let ts = blobs(25, 10 + seed);
            let rows: Vec<usize> = (0..ts.len()).collect();
            let tree = DecisionTree::fit(
                &ts,
                &rows,
                &TreeConfig::default(),
                &mut Rng::seed_from(seed),
            );
            let soa = SoaTree::from_tree(&tree);
            let want = walk(&tree, 0, &mut Vec::new());
            assert_eq!(soa.max_unique_path, want, "seed {seed}");
            assert!(soa.max_unique_path <= soa.max_depth);
            assert!(soa.max_unique_path <= soa.n_features);
        }
    }

    #[test]
    fn stump_forest_freezes() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![1.0]]), vec![0, 0]);
        let forest = RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 2,
                ..ForestConfig::default()
            },
        );
        let soa = SoaForest::from_forest(&forest);
        assert_eq!(soa.max_depth, 0);
        assert_eq!(soa.predict_batch(&Matrix::from_rows(&[vec![1.0]])), vec![0]);
    }
}
