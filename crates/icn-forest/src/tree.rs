//! CART decision tree (Gini impurity, axis-aligned thresholds).
//!
//! The surrogate classifier of Section 5.1.2 is a random forest; each
//! member is this tree. A fitted tree is one set of parallel per-node
//! arrays, grown in pre-order by the fit and read as they are by
//! prediction, the OOB votes and the TreeSHAP explainer (`icn-shap`):
//! every node carries its **cover** (number of training samples that
//! reached it) and its **class distribution**, which TreeSHAP uses to
//! weigh the paths of absent features.

use crate::data::{gini, TrainSet};
use icn_stats::{par, Rng};

/// Child index marking a leaf.
const LEAF: u32 = u32::MAX;

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

/// A fitted CART decision tree in structure-of-arrays form: node `i`'s
/// fields sit at index `i` of each array, node 0 is the root, and nodes
/// are numbered in pre-order (a split's left child is the next node).
#[derive(Clone, Debug, Default)]
pub struct DecisionTree {
    /// Split feature per node (0 at leaves).
    pub feature: Vec<u32>,
    /// Split threshold per node: `x[feature] <= threshold` goes left
    /// (0.0 at leaves).
    pub threshold: Vec<f64>,
    /// Left child per node, `u32::MAX` at leaves.
    pub left: Vec<u32>,
    /// Right child per node, `u32::MAX` at leaves.
    pub right: Vec<u32>,
    /// Number of training samples that reached each node (the "cover").
    pub cover: Vec<f64>,
    /// Class distribution of the training samples at each node,
    /// `n_classes` per node (see [`DecisionTree::distribution`]).
    pub dist: Vec<f64>,
    /// `cover[i] / cover[parent(i)]` per node (1.0 at the root) — the
    /// TreeSHAP `zero_fraction` of descending into `i`.
    pub ratio: Vec<f64>,
    /// Node `i`'s nonzero distribution entries are `nz_off[i]..nz_off[i +
    /// 1]` of [`DecisionTree::nz_class`] / [`DecisionTree::nz_val`] (one
    /// offset per node plus the end), empty at internal nodes. Fully-grown
    /// CART leaves are pure, so the sparse view is usually a single
    /// `(class, value)` pair where the dense row is `n_classes` wide — the
    /// SHAP accumulator iterates this instead.
    pub nz_off: Vec<u32>,
    /// Concatenated class indices of nonzero leaf-distribution entries.
    pub nz_class: Vec<u32>,
    /// Concatenated values of nonzero leaf-distribution entries.
    pub nz_val: Vec<f64>,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of features the tree was trained on.
    pub n_features: usize,
    /// Maximum depth of the tree (root = 0); sizes the TreeSHAP scratch
    /// arenas up front.
    pub max_depth: usize,
    /// Largest number of **unique** split features on any root→leaf path.
    /// TreeSHAP's per-leaf weight polynomial has degree `< max_unique_path`,
    /// so this bounds the quadrature order the kernel needs.
    pub max_unique_path: usize,
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
            n_classes: ts.n_classes,
            n_features: ts.num_features(),
            ..DecisionTree::default()
        };
        let mut scratch = FitScratch {
            keys: Vec::with_capacity(rows.len()),
            radix: Vec::with_capacity(rows.len()),
            candidates: Vec::with_capacity(ts.num_features()),
            left: vec![0; ts.n_classes],
            right: vec![0; ts.n_classes],
            part: Vec::with_capacity(rows.len()),
            on_path: vec![0; ts.num_features()],
            unique: 0,
            boundaries: 0,
            exact_scores: 0,
        };
        // The root is its own parent: its cover ratio is 1.
        let root_cover = rows.len() as f64;
        let mut rows = rows.to_vec();
        tree.grow(ts, ranks, &mut rows, 0, root_cover, cfg, rng, &mut scratch);
        tree.nz_off.push(tree.nz_len());
        // A fitted tree never grows again: drop the arrays' doubling slack,
        // which a forest would otherwise hold for as long as it lives.
        tree.feature.shrink_to_fit();
        tree.threshold.shrink_to_fit();
        tree.left.shrink_to_fit();
        tree.right.shrink_to_fit();
        tree.cover.shrink_to_fit();
        tree.dist.shrink_to_fit();
        tree.ratio.shrink_to_fit();
        tree.nz_off.shrink_to_fit();
        tree.nz_class.shrink_to_fit();
        tree.nz_val.shrink_to_fit();
        let obs = icn_obs::global();
        if obs.is_enabled() {
            obs.add_counter("forest.split_boundaries", scratch.boundaries);
            obs.add_counter("forest.exact_scores", scratch.exact_scores);
        }
        tree
    }

    /// Recursively grows the subtree over `rows` (which it may reorder),
    /// pushing its nodes in pre-order, and returns the index of the
    /// created node. `parent_cover` is the cover of the node being split.
    #[allow(clippy::too_many_arguments)] // the recursion threads every input through
    fn grow(
        &mut self,
        ts: &TrainSet,
        ranks: &RankTable,
        rows: &mut [usize],
        depth: usize,
        parent_cover: f64,
        cfg: &TreeConfig,
        rng: &mut Rng,
        scratch: &mut FitScratch,
    ) -> u32 {
        let k = self.n_classes;
        let node = u32::try_from(self.left.len()).expect("DecisionTree: node index overflow");
        let at = node as usize * k..(node as usize + 1) * k;
        // The node's distribution row is its class-count buffer: counted
        // in place, divided by the cover once the split is chosen.
        self.dist.resize(at.end, 0.0);
        ts.count_classes(rows, &mut self.dist[at.clone()]);
        let total: f64 = self.dist[at.clone()].iter().sum();
        self.feature.push(0);
        self.threshold.push(0.0);
        self.left.push(LEAF);
        self.right.push(LEAF);
        self.cover.push(total);
        self.ratio.push(total / parent_cover);
        self.nz_off.push(self.nz_len());
        self.max_depth = self.max_depth.max(depth);

        let counts = &self.dist[at.clone()];
        let impurity = gini(counts);
        let split =
            if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || impurity <= 0.0 {
                None
            } else {
                best_split(ts, ranks, rows, counts, cfg, rng, scratch)
            };
        for p in &mut self.dist[at.clone()] {
            *p /= total;
        }
        let Some((feature, threshold)) = split else {
            // A leaf: its sparse view, and the distinct split features
            // above it.
            for (c, &p) in self.dist[at].iter().enumerate() {
                if p != 0.0 {
                    self.nz_class.push(c as u32);
                    self.nz_val.push(p);
                }
            }
            self.max_unique_path = self.max_unique_path.max(scratch.unique);
            return node;
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
        scratch.unique += usize::from(scratch.on_path[feature] == 0);
        scratch.on_path[feature] += 1;
        let left = self.grow(ts, ranks, left_rows, depth + 1, total, cfg, rng, scratch);
        let right = self.grow(ts, ranks, right_rows, depth + 1, total, cfg, rng, scratch);
        scratch.on_path[feature] -= 1;
        scratch.unique -= usize::from(scratch.on_path[feature] == 0);
        let i = node as usize;
        self.feature[i] = feature as u32;
        self.threshold[i] = threshold;
        self.left[i] = left;
        self.right[i] = right;
        node
    }

    /// Number of nonzero leaf entries so far, as the next `nz_off`.
    fn nz_len(&self) -> u32 {
        u32::try_from(self.nz_class.len()).expect("DecisionTree: nonzero view overflow")
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

    /// The class distribution of the training samples at node `i`.
    #[inline]
    pub fn distribution(&self, i: usize) -> &[f64] {
        &self.dist[i * self.n_classes..(i + 1) * self.n_classes]
    }

    /// The nonzero entries of leaf `i`'s distribution as parallel
    /// `(classes, values)` slices (both empty at internal nodes).
    #[inline]
    pub fn leaf_nonzero(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.nz_off[i] as usize, self.nz_off[i + 1] as usize);
        (&self.nz_class[lo..hi], &self.nz_val[lo..hi])
    }

    /// Index of the leaf a sample lands in.
    #[inline]
    pub(crate) fn leaf_for(&self, x: &[f64]) -> usize {
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

    /// Class probability distribution for a sample.
    pub fn predict_proba(&self, x: &[f64]) -> &[f64] {
        assert_eq!(x.len(), self.n_features, "predict_proba: feature mismatch");
        self.distribution(self.leaf_for(x))
    }

    /// Most likely class for a sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        icn_stats::rank::argmax(self.predict_proba(x))
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
    /// Occurrences of each feature among the splits above the node being
    /// grown.
    on_path: Vec<u32>,
    /// Distinct features among those splits.
    unique: usize,
    /// Distinct-value boundaries that passed `min_samples_leaf`.
    boundaries: u64,
    /// Boundaries the pre-filter could not rule out, scored in floats.
    exact_scores: u64,
}

/// Finds the impurity-minimising `(feature, threshold)` over a random
/// feature subset, or `None` when no valid split exists (constant features
/// or `min_samples_leaf` unsatisfiable).
///
/// `parent_counts` must be the class counts of `rows` (the caller already
/// has them in the node's distribution row).
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
        assert!(tree.max_depth >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![2.0]]), vec![0, 0]);
        let mut rng = Rng::seed_from(2);
        let tree = DecisionTree::fit(&ts, &[0, 1], &TreeConfig::default(), &mut rng);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.is_leaf(0));
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
        assert_eq!(tree.num_nodes(), 1);
        // Balanced classes: distribution is 50/50.
        assert!((tree.distribution(0)[0] - 0.5).abs() < 1e-12);
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
        for i in (0..tree.num_nodes()).filter(|&i| tree.is_leaf(i)) {
            assert!(tree.cover[i] >= 3.0, "leaf cover {}", tree.cover[i]);
        }
    }

    #[test]
    fn covers_are_consistent() {
        let ts = xor_set();
        let rows: Vec<usize> = (0..ts.len()).collect();
        let mut rng = Rng::seed_from(5);
        let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.cover[0], ts.len() as f64);
        for i in 0..tree.num_nodes() {
            if !tree.is_leaf(i) {
                let sum = tree.cover[tree.left[i] as usize] + tree.cover[tree.right[i] as usize];
                assert_eq!(sum, tree.cover[i]);
            }
            let s: f64 = tree.distribution(i).iter().sum();
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
        assert_eq!(tree.num_nodes(), 1);
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
