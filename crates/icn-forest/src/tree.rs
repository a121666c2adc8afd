//! CART decision tree (Gini impurity, axis-aligned thresholds).
//!
//! The surrogate classifier of Section 5.1.2 is a random forest; each
//! member is this tree. The node layout is flat (`Vec<Node>`) and public
//! because the TreeSHAP explainer (`icn-shap`) walks it directly: every
//! node carries its **cover** (number of training samples that reached it)
//! and its **class distribution**, which TreeSHAP uses to weigh the paths
//! of absent features.

use crate::data::{gini, TrainSet};
use icn_stats::Rng;

/// How many features a split may consider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features at every node (plain CART).
    All,
    /// `√(num_features)` random features per node — the random-forest
    /// default for classification.
    Sqrt,
    /// A fixed number per node.
    Fixed(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `m` total features (≥ 1).
    pub(crate) fn resolve(&self, m: usize) -> usize {
        match self {
            MaxFeatures::All => m,
            MaxFeatures::Sqrt => ((m as f64).sqrt().round() as usize).clamp(1, m),
            MaxFeatures::Fixed(k) => (*k).clamp(1, m),
        }
    }
}

/// Tree growth hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0); `usize::MAX` to disable.
    pub max_depth: usize,
    /// Minimum samples a node must hold to be split further.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Feature-subsampling policy per node.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: usize::MAX,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

/// One node of a fitted tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Split feature index (meaningless for leaves).
    pub feature: usize,
    /// Split threshold: samples with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Left child index, or `usize::MAX` for a leaf.
    pub left: usize,
    /// Right child index, or `usize::MAX` for a leaf.
    pub right: usize,
    /// Number of training samples that reached this node (the "cover").
    pub cover: f64,
    /// Class probability distribution of the training samples here.
    pub distribution: Vec<f64>,
}

impl Node {
    /// True if this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.left == usize::MAX
    }
}

/// A fitted CART decision tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    /// Flat node storage; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of features the tree was trained on.
    pub n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on the rows `rows` of `ts` (duplicates allowed — pass a
    /// bootstrap sample for forests, or `0..n` for a plain tree).
    pub fn fit(ts: &TrainSet, rows: &[usize], cfg: &TreeConfig, rng: &mut Rng) -> DecisionTree {
        assert!(!rows.is_empty(), "DecisionTree::fit: empty row set");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: ts.n_classes,
            n_features: ts.num_features(),
        };
        let mut rows_scratch = rows.to_vec();
        let mut scratch = FitScratch {
            pairs: Vec::with_capacity(rows.len()),
            left: vec![0.0; ts.n_classes],
            right: vec![0.0; ts.n_classes],
            part: Vec::with_capacity(rows.len()),
        };
        tree.grow(ts, &mut rows_scratch, 0, cfg, rng, &mut scratch);
        tree
    }

    /// Recursively grows the subtree over `rows` (which it may reorder) and
    /// returns the index of the created node.
    fn grow(
        &mut self,
        ts: &TrainSet,
        rows: &mut [usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut Rng,
        scratch: &mut FitScratch,
    ) -> usize {
        let counts = ts.class_counts(rows);
        let total: f64 = counts.iter().sum();
        let distribution: Vec<f64> = counts.iter().map(|&c| c / total).collect();
        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            feature: 0,
            threshold: 0.0,
            left: usize::MAX,
            right: usize::MAX,
            cover: total,
            distribution,
        });

        let impurity = gini(&counts);
        if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || impurity <= 0.0 {
            return node_idx;
        }

        let Some((feature, threshold)) = best_split(ts, rows, &counts, cfg, rng, scratch) else {
            return node_idx;
        };

        // Partition rows in place around the threshold (stable, via the
        // reused scratch buffer).
        let mid = partition_into(rows, &mut scratch.part, |&r| {
            ts.x.get(r, feature) <= threshold
        });
        debug_assert!(mid > 0 && mid < rows.len(), "degenerate split survived");
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(ts, left_rows, depth + 1, cfg, rng, scratch);
        let right = self.grow(ts, right_rows, depth + 1, cfg, rng, scratch);
        let node = &mut self.nodes[node_idx];
        node.feature = feature;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
        node_idx
    }

    /// Index of the leaf a sample lands in.
    pub(crate) fn leaf_for(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "leaf_for: feature mismatch");
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.is_leaf() {
                return i;
            }
            i = if x[n.feature] <= n.threshold {
                n.left
            } else {
                n.right
            };
        }
    }

    /// Class probability distribution for a sample.
    pub fn predict_proba(&self, x: &[f64]) -> &[f64] {
        &self.nodes[self.leaf_for(x)].distribution
    }

    /// Most likely class for a sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        icn_stats::rank::argmax(self.predict_proba(x))
    }

    /// Maximum depth of the fitted tree (root = 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            let n = &nodes[i];
            if n.is_leaf() {
                0
            } else {
                1 + rec(nodes, n.left).max(rec(nodes, n.right))
            }
        }
        rec(&self.nodes, 0)
    }
}

/// Reusable per-fit scratch buffers: one allocation set per tree instead
/// of one per node (or per candidate feature, for `left`/`right`).
struct FitScratch {
    /// (value, label) pairs sorted per candidate feature.
    pairs: Vec<(f64, usize)>,
    /// Left-child class counts during the threshold scan.
    left: Vec<f64>,
    /// Right-child class counts during the threshold scan.
    right: Vec<f64>,
    /// Stable-partition buffer.
    part: Vec<usize>,
}

/// Finds the impurity-minimising `(feature, threshold)` over a random
/// feature subset, or `None` when no valid split exists (constant features
/// or `min_samples_leaf` unsatisfiable).
///
/// `parent_counts` must be `ts.class_counts(rows)` (the caller already has
/// it from the node's distribution).
///
/// The threshold scan is the fit's hot loop and is written for speed
/// without changing a single result bit:
///
/// * the per-feature sort is `sort_unstable_by` — tie order among equal
///   feature values is irrelevant because scores are only evaluated at
///   *distinct-value* boundaries, where the left/right class counts are
///   exact integers determined by the value multiset alone;
/// * the left and right Gini impurities are fused into one lane-widened
///   pass with four independent accumulator chains (`p_l`, `p_r` products
///   into `sl`, `sr`); each side keeps the exact per-class op order of
///   [`gini`], and the totals it would recompute (`n_left`, `n_right`) are
///   exact small integers, so every score is bit-identical to the
///   two-call form.
fn best_split(
    ts: &TrainSet,
    rows: &[usize],
    parent_counts: &[f64],
    cfg: &TreeConfig,
    rng: &mut Rng,
    scratch: &mut FitScratch,
) -> Option<(usize, f64)> {
    let m = ts.num_features();
    let k = cfg.max_features.resolve(m);
    let candidates = if k >= m {
        (0..m).collect::<Vec<usize>>()
    } else {
        rng.sample_indices(m, k)
    };

    let n = rows.len() as f64;
    let parent_gini = gini(parent_counts);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)

    let FitScratch {
        pairs, left, right, ..
    } = scratch;
    for &f in &candidates {
        pairs.clear();
        pairs.extend(rows.iter().map(|&r| (ts.x.get(r, f), ts.y[r])));
        pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        if pairs[0].0 == pairs[pairs.len() - 1].0 {
            continue; // constant feature
        }
        left.fill(0.0);
        right.copy_from_slice(parent_counts);
        let mut n_left = 0.0f64;
        for w in 0..pairs.len() - 1 {
            let (v, y) = pairs[w];
            left[y] += 1.0;
            right[y] -= 1.0;
            n_left += 1.0;
            let next_v = pairs[w + 1].0;
            if v == next_v {
                continue; // can't split between equal values
            }
            let n_right = n - n_left;
            if (n_left as usize) < cfg.min_samples_leaf || (n_right as usize) < cfg.min_samples_leaf
            {
                continue;
            }
            // Fused two-sided Gini: independent accumulator lanes per side.
            let (mut sl, mut sr) = (0.0f64, 0.0f64);
            for c in 0..left.len() {
                let pl = left[c] / n_left;
                let pr = right[c] / n_right;
                sl += pl * pl;
                sr += pr * pr;
            }
            let score = (n_left / n) * (1.0 - sl) + (n_right / n) * (1.0 - sr);
            if score < parent_gini - 1e-12 && best.as_ref().is_none_or(|&(_, _, s)| score < s) {
                // Midpoint threshold is robust to unseen values.
                best = Some((f, 0.5 * (v + next_v), score));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// Stable in-place partition using a caller-provided scratch buffer;
/// returns the number of elements satisfying the predicate (moved to the
/// front).
fn partition_into<T: Copy>(xs: &mut [T], buf: &mut Vec<T>, pred: impl Fn(&T) -> bool) -> usize {
    buf.clear();
    let mut k = 0usize;
    for &x in xs.iter() {
        if pred(&x) {
            buf.push(x);
            k += 1;
        }
    }
    for &x in xs.iter() {
        if !pred(&x) {
            buf.push(x);
        }
    }
    xs.copy_from_slice(buf);
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Matrix;

    fn xor_set() -> TrainSet {
        // XOR-ish: class = (x>0.5) ^ (y>0.5); needs depth 2.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(x, y, l) in &[
            (0.0, 0.0, 0usize),
            (0.1, 0.2, 0),
            (1.0, 1.0, 0),
            (0.9, 0.8, 0),
            (0.0, 1.0, 1),
            (0.2, 0.9, 1),
            (1.0, 0.0, 1),
            (0.8, 0.1, 1),
        ] {
            rows.push(vec![x, y]);
            labels.push(l);
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn fits_xor_exactly() {
        let ts = xor_set();
        let rows: Vec<usize> = (0..ts.len()).collect();
        let mut rng = Rng::seed_from(1);
        let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut rng);
        for i in 0..ts.len() {
            assert_eq!(tree.predict(ts.x.row(i)), ts.y[i], "row {i}");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![2.0]]), vec![0, 0]);
        let mut rng = Rng::seed_from(2);
        let tree = DecisionTree::fit(&ts, &[0, 1], &TreeConfig::default(), &mut rng);
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.nodes[0].is_leaf());
        assert_eq!(tree.predict(&[5.0]), 0);
    }

    #[test]
    fn max_depth_zero_is_majority_vote() {
        let ts = xor_set();
        let rows: Vec<usize> = (0..ts.len()).collect();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let mut rng = Rng::seed_from(3);
        let tree = DecisionTree::fit(&ts, &rows, &cfg, &mut rng);
        assert_eq!(tree.nodes.len(), 1);
        // Balanced classes: distribution is 50/50.
        assert!((tree.nodes[0].distribution[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ts = xor_set();
        let rows: Vec<usize> = (0..ts.len()).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let mut rng = Rng::seed_from(4);
        let tree = DecisionTree::fit(&ts, &rows, &cfg, &mut rng);
        for n in tree.nodes.iter().filter(|n| n.is_leaf()) {
            assert!(n.cover >= 3.0, "leaf cover {}", n.cover);
        }
    }

    #[test]
    fn covers_are_consistent() {
        let ts = xor_set();
        let rows: Vec<usize> = (0..ts.len()).collect();
        let mut rng = Rng::seed_from(5);
        let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.nodes[0].cover, ts.len() as f64);
        for n in &tree.nodes {
            if !n.is_leaf() {
                let sum = tree.nodes[n.left].cover + tree.nodes[n.right].cover;
                assert_eq!(sum, n.cover);
            }
            let s: f64 = n.distribution.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_features_yield_leaf() {
        let ts = TrainSet::new(
            Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]),
            vec![0, 1, 0],
        );
        let mut rng = Rng::seed_from(6);
        let tree = DecisionTree::fit(&ts, &[0, 1, 2], &TreeConfig::default(), &mut rng);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.predict(&[1.0]), 0); // majority
    }

    #[test]
    fn duplicate_rows_weighting() {
        // Duplicated minority rows flip the majority at the root.
        let ts = TrainSet::new(Matrix::from_rows(&[vec![0.0], vec![1.0]]), vec![0, 1]);
        let mut rng = Rng::seed_from(7);
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ts, &[1, 1, 1, 0], &cfg, &mut rng);
        assert_eq!(tree.predict(&[0.0]), 1);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(73), 73);
        assert_eq!(MaxFeatures::Sqrt.resolve(73), 9);
        assert_eq!(MaxFeatures::Sqrt.resolve(1), 1);
        assert_eq!(MaxFeatures::Fixed(5).resolve(3), 3);
        assert_eq!(MaxFeatures::Fixed(0).resolve(3), 1);
    }

    #[test]
    fn partition_is_stable() {
        let mut xs = [5, 2, 8, 1, 9, 4];
        let k = partition_into(&mut xs, &mut Vec::new(), |&x| x < 5);
        assert_eq!(k, 3);
        assert_eq!(&xs[..3], &[2, 1, 4]);
        assert_eq!(&xs[3..], &[5, 8, 9]);
    }
}
