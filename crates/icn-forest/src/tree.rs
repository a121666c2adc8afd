//! CART decision tree (Gini impurity, axis-aligned thresholds).
//!
//! The surrogate classifier of Section 5.1.2 is a random forest; each
//! member is this tree. The node layout is flat (`Vec<Node>`) and public
//! because the TreeSHAP explainer (`icn-shap`) walks it directly: every
//! node carries its **cover** (number of training samples that reached it)
//! and its **class distribution**, which TreeSHAP uses to weigh the paths
//! of absent features.

use crate::data::{gini, TrainSet};
use icn_stats::{par, Rng};

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
    /// bootstrap sample for forests, or `0..n` for a plain tree). Ranks
    /// every feature of `ts` first; a forest ranks once for all its trees.
    pub fn fit(ts: &TrainSet, rows: &[usize], cfg: &TreeConfig, rng: &mut Rng) -> DecisionTree {
        DecisionTree::fit_ranked(ts, &RankTable::build(ts), rows, cfg, rng)
    }

    /// [`DecisionTree::fit`] over a prebuilt rank table of `ts`. Flushes
    /// the tree's split-search counters when the registry is metering.
    pub(crate) fn fit_ranked(
        ts: &TrainSet,
        ranks: &RankTable,
        rows: &[usize],
        cfg: &TreeConfig,
        rng: &mut Rng,
    ) -> DecisionTree {
        assert!(!rows.is_empty(), "DecisionTree::fit: empty row set");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: ts.n_classes,
            n_features: ts.num_features(),
        };
        let mut rows_scratch = rows.to_vec();
        let mut scratch = FitScratch {
            keys: Vec::with_capacity(rows.len()),
            radix: Vec::with_capacity(rows.len()),
            candidates: Vec::with_capacity(ts.num_features()),
            left: vec![0; ts.n_classes],
            right: vec![0; ts.n_classes],
            part: Vec::with_capacity(rows.len()),
            boundaries: 0,
            exact_scores: 0,
        };
        tree.grow(ts, ranks, &mut rows_scratch, 0, cfg, rng, &mut scratch);
        let obs = icn_obs::global();
        if obs.is_enabled() {
            obs.add_counter("forest.split_boundaries", scratch.boundaries);
            obs.add_counter("forest.exact_scores", scratch.exact_scores);
        }
        tree
    }

    /// Recursively grows the subtree over `rows` (which it may reorder) and
    /// returns the index of the created node.
    #[allow(clippy::too_many_arguments)] // the recursion threads every input through
    fn grow(
        &mut self,
        ts: &TrainSet,
        ranks: &RankTable,
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

        let Some((feature, threshold)) = best_split(ts, ranks, rows, &counts, cfg, rng, scratch)
        else {
            return node_idx;
        };

        // Partition rows in place around the threshold (stable, via the
        // reused scratch buffer). The test reads values, never ranks: the
        // fitted tree is defined by what `x <= threshold` does, and the
        // threshold keeps the boundary's two values apart.
        let mid = partition_into(rows, &mut scratch.part, |&r| {
            ts.x.get(r, feature) <= threshold
        });
        debug_assert!(mid > 0 && mid < rows.len(), "degenerate split survived");
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(ts, ranks, left_rows, depth + 1, cfg, rng, scratch);
        let right = self.grow(ts, ranks, right_rows, depth + 1, cfg, rng, scratch);
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

/// Dense per-feature value ranks of every row of a training set, stored
/// feature-major (`ranks[f · n + r]`, 4·N·M bytes): ranks ascend with the
/// value, and equal values — `-0.0` and `0.0` included — share one. The
/// split search sorts and compares these integers instead of floats, so
/// a forest builds the table once and every node of every tree reads it.
pub(crate) struct RankTable {
    ranks: Vec<u32>,
    rows: usize,
}

impl RankTable {
    /// Ranks every column of `ts.x` (one sort per feature, features in
    /// parallel, filled in place).
    pub(crate) fn build(ts: &TrainSet) -> RankTable {
        let n = ts.len();
        assert!(u32::try_from(n).is_ok(), "RankTable: more than 2^32 rows");
        let mut ranks = vec![0u32; n * ts.num_features()];
        par::fill_chunks(&mut ranks, n, |range, column| {
            let f = range.start / n;
            let mut order: Vec<(f64, u32)> = (0..n).map(|r| (ts.x.get(r, f), r as u32)).collect();
            order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let mut rank = 0u32;
            let mut prev = order[0].0;
            for &(v, r) in &order {
                if v != prev {
                    rank += 1;
                    prev = v;
                }
                column[r as usize] = rank;
            }
        });
        RankTable { ranks, rows: n }
    }

    /// The ranks of feature `f`, indexed by row.
    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.rows..(f + 1) * self.rows]
    }
}

/// Nodes with at least this many rows sort their keys with an LSD radix
/// on the rank bits; smaller ones call `sort_unstable`. On rank spans of
/// 200–1,193 the two tie near 96 keys, and from 128 keys up the radix is
/// 1.1–1.7× faster; below that its histogram passes cost more than the
/// comparisons they save.
const RADIX_MIN_ROWS: usize = 128;

/// Widest radix digit, in bits: 256 buckets stay in L1, and any node's
/// rank span (< 2^32) takes at most four passes.
const RADIX_DIGIT_BITS: u32 = 8;

/// Slack of the integer Gini pre-filter. A boundary is skipped only when
/// its exact score exceeds the score it must beat (the best so far, or
/// the parent's Gini less 1e-12) by more than this.
/// The float expression rounds each score by at most ~(classes + 14)·2⁻⁵³
/// (under 4e-15 at 16 classes), five orders of magnitude below the
/// margin, so a skipped boundary could never have won the float
/// comparison.
const PREFILTER_MARGIN: f64 = 1e-9;

/// Reusable per-fit scratch buffers and split-search tallies: one
/// allocation set per tree instead of one per node or candidate feature.
struct FitScratch {
    /// `rank << 32 | row` keys of the node, sorted per candidate feature.
    keys: Vec<u64>,
    /// The radix sort's ping-pong buffer.
    radix: Vec<u64>,
    /// Candidate feature indices (a partial Fisher–Yates per node).
    candidates: Vec<usize>,
    /// Left-child class counts during the threshold scan.
    left: Vec<u32>,
    /// Right-child class counts during the threshold scan.
    right: Vec<u32>,
    /// Stable-partition buffer.
    part: Vec<usize>,
    /// Distinct-value boundaries that passed `min_samples_leaf`.
    boundaries: u64,
    /// Boundaries the pre-filter could not rule out, scored in floats.
    exact_scores: u64,
}

/// Finds the impurity-minimising `(feature, threshold)` over a random
/// feature subset, or `None` when no valid split exists (constant features
/// or `min_samples_leaf` unsatisfiable).
///
/// `parent_counts` must be `ts.class_counts(rows)` (the caller already has
/// it from the node's distribution).
///
/// No float is sorted or compared to find a boundary, yet every result
/// bit matches the per-node sort-and-scan this replaced
/// (`icn_testkit::sort_scan_tree_fit`):
///
/// * per candidate feature the node's rows become `rank << 32 | row`
///   keys from the [`RankTable`], sorted by rank (LSD radix at
///   [`RADIX_MIN_ROWS`] rows and up, `sort_unstable` below). Scores are
///   only evaluated at distinct-value (= distinct-rank) boundaries, where
///   the left/right class counts are exact integers fixed by the value
///   multiset alone, so the order within a rank is irrelevant;
/// * the scan keeps integer class counts and the integer sums of squared
///   counts `Σl²`, `Σr²`, updated in O(1) per row. The exact score is
///   `1 − (Σl²·n_r + Σr²·n_l) / (n·n_l·n_r)`; a boundary whose numerator
///   cannot beat `min(best, parent_gini − 1e-12)` by [`PREFILTER_MARGIN`]
///   is skipped without a division. The integers are exact in `f64` while
///   `n·n_l·n_r ≤ n³/4 < 2^53`; a larger node scores every boundary;
/// * a surviving boundary pays the fused two-sided Gini in the original
///   op order (per class `p = count / n_side`, `Σp²` per side in class
///   order), and the strict `<` comparisons keep the first minimum in
///   scan order;
/// * the threshold is [`split_threshold`] of the two boundary rows'
///   values; a `±0.0` representative gives the same midpoint.
fn best_split(
    ts: &TrainSet,
    ranks: &RankTable,
    rows: &[usize],
    parent_counts: &[f64],
    cfg: &TreeConfig,
    rng: &mut Rng,
    scratch: &mut FitScratch,
) -> Option<(usize, f64)> {
    let FitScratch {
        keys,
        radix,
        candidates,
        left,
        right,
        boundaries,
        exact_scores,
        ..
    } = scratch;
    // Candidates: the draws `Rng::sample_indices(m, k)` makes, without
    // its per-node `Vec`.
    let m = ts.num_features();
    let k = cfg.max_features.resolve(m);
    candidates.clear();
    candidates.extend(0..m);
    if k < m {
        for i in 0..k {
            let j = i + rng.index(m - i);
            candidates.swap(i, j);
        }
    }

    let n = rows.len();
    let nf = n as f64;
    let parent_gini = gini(parent_counts);
    let floor = parent_gini - 1e-12;
    // `n·n_l·n_r ≤ n³/4` stays below 2^53 (exact in `f64`).
    let prefilter = (n as u128).pow(3) < 1 << 55;
    let parent_sq: u64 = parent_counts.iter().map(|&c| (c as u64) * (c as u64)).sum();
    // Skip a boundary when `Σl²·n_r + Σr²·n_l < keep · n·n_l·n_r`.
    let mut keep = 1.0 - floor - PREFILTER_MARGIN;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)

    for &f in &candidates[..k] {
        let column = ranks.column(f);
        keys.clear();
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for &r in rows {
            let rank = column[r];
            lo = lo.min(rank);
            hi = hi.max(rank);
            keys.push(u64::from(rank) << 32 | r as u64);
        }
        if lo == hi {
            continue; // constant feature
        }
        sort_by_rank(keys, radix, lo, hi);
        left.fill(0);
        for (r, &c) in right.iter_mut().zip(parent_counts) {
            *r = c as u32;
        }
        let (mut sum_sq_left, mut sum_sq_right) = (0u64, parent_sq);
        for w in 0..n - 1 {
            let key = keys[w];
            let y = ts.y[key as u32 as usize];
            // (c + 1)² = c² + 2c + 1 and (c − 1)² = c² − (2(c − 1) + 1).
            sum_sq_left += 2 * u64::from(left[y]) + 1;
            left[y] += 1;
            right[y] -= 1;
            sum_sq_right -= 2 * u64::from(right[y]) + 1;
            if key >> 32 == keys[w + 1] >> 32 {
                continue; // can't split between equal values
            }
            let (n_left, n_right) = (w + 1, n - w - 1);
            if n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf {
                continue;
            }
            *boundaries += 1;
            if prefilter {
                let purity = sum_sq_left * n_right as u64 + sum_sq_right * n_left as u64;
                let scale = (n * n_left * n_right) as u64;
                if (purity as f64) < keep * scale as f64 {
                    continue;
                }
            }
            *exact_scores += 1;
            // Fused two-sided Gini: independent accumulator lanes per side.
            let (n_left, n_right) = (n_left as f64, n_right as f64);
            let (mut sl, mut sr) = (0.0f64, 0.0f64);
            for c in 0..left.len() {
                let pl = f64::from(left[c]) / n_left;
                let pr = f64::from(right[c]) / n_right;
                sl += pl * pl;
                sr += pr * pr;
            }
            let score = (n_left / nf) * (1.0 - sl) + (n_right / nf) * (1.0 - sr);
            if score < floor && best.as_ref().is_none_or(|&(_, _, s)| score < s) {
                let v = ts.x.get(key as u32 as usize, f);
                let next_v = ts.x.get(keys[w + 1] as u32 as usize, f);
                best = Some((f, split_threshold(v, next_v), score));
                keep = 1.0 - score - PREFILTER_MARGIN;
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// The threshold between adjacent distinct values `v < next_v`: their
/// midpoint, which is robust to unseen values, when `x <= threshold` keeps
/// the two apart (`v <= mid < next_v`). Between adjacent doubles the
/// midpoint can round up to `next_v`, and a sum beyond `f64::MAX` makes
/// it infinite; either would send every row to one side, so the
/// threshold is then `v` itself.
fn split_threshold(v: f64, next_v: f64) -> f64 {
    let mid = 0.5 * (v + next_v);
    if v <= mid && mid < next_v {
        mid
    } else {
        v
    }
}

/// Sorts `rank << 32 | row` keys whose ranks lie in `lo..=hi` by rank:
/// `sort_unstable` below [`RADIX_MIN_ROWS`] keys, else a stable LSD radix
/// on the bits of `rank − lo` in equal digits of at most
/// [`RADIX_DIGIT_BITS`]. Only the rank order is guaranteed.
fn sort_by_rank(keys: &mut Vec<u64>, buf: &mut Vec<u64>, lo: u32, hi: u32) {
    if keys.len() < RADIX_MIN_ROWS {
        keys.sort_unstable();
        return;
    }
    let bits = u32::BITS - (hi - lo).leading_zeros();
    let passes = bits.div_ceil(RADIX_DIGIT_BITS);
    let width = bits.div_ceil(passes);
    let mask = (1u32 << width) - 1;
    let mut counts = [0usize; 1 << RADIX_DIGIT_BITS];
    let counts = &mut counts[..=mask as usize];
    buf.resize(keys.len(), 0);
    for pass in 0..passes {
        let digit = |key: u64| ((((key >> 32) as u32 - lo) >> (pass * width)) & mask) as usize;
        counts.fill(0);
        for &key in keys.iter() {
            counts[digit(key)] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &key in keys.iter() {
            let d = digit(key);
            buf[counts[d]] = key;
            counts[d] += 1;
        }
        std::mem::swap(keys, buf);
    }
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
