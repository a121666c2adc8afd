//! The sort-and-scan CART fit — the bit-exact oracle of `icn-forest`'s
//! rank-based split search.
//!
//! This is `DecisionTree::fit` exactly as it ran before the split search
//! moved onto integer ranks: every node gathers `(value, label)` pairs per
//! candidate feature, sorts them through `partial_cmp`, and scores every
//! distinct-value boundary with the fused two-sided Gini expression. The
//! rank-based fit (one rank table per forest, radix-sorted keys, an
//! exact-integer pre-filter in front of the same float score) must
//! reproduce it **bit for bit** — same feature, threshold, children,
//! cover and distribution at every node. Keep the arithmetic and the
//! random draws here untouched: any edit turns the oracle into a
//! different function. The oracle grows its own node list, so it shares
//! no tree-building code with the fit it checks.

use icn_forest::{gini, MaxFeatures, TrainSet, TreeConfig};
use icn_stats::Rng;

/// One node of an oracle tree. Nodes are numbered in pre-order from the
/// root at index 0.
#[derive(Clone, Debug)]
pub struct CartNode {
    /// Split feature index (0 at leaves).
    pub feature: usize,
    /// Split threshold: samples with `x[feature] <= threshold` go left
    /// (0.0 at leaves).
    pub threshold: f64,
    /// Left child index, or `usize::MAX` for a leaf.
    pub left: usize,
    /// Right child index, or `usize::MAX` for a leaf.
    pub right: usize,
    /// Number of training samples that reached this node.
    pub cover: f64,
    /// Class probability distribution of the training samples here.
    pub distribution: Vec<f64>,
}

/// Fits a CART tree on the rows `rows` of `ts` (duplicates allowed) by
/// the per-node sort-and-scan split search, drawing candidate features
/// from `rng` exactly as `icn_forest::DecisionTree::fit` does. Returns
/// the tree's nodes.
pub fn sort_scan_tree_fit(
    ts: &TrainSet,
    rows: &[usize],
    cfg: &TreeConfig,
    rng: &mut Rng,
) -> Vec<CartNode> {
    assert!(!rows.is_empty(), "sort_scan_tree_fit: empty row set");
    let mut tree = Vec::new();
    let mut rows_scratch = rows.to_vec();
    let mut scratch = FitScratch {
        pairs: Vec::with_capacity(rows.len()),
        left: vec![0.0; ts.n_classes],
        right: vec![0.0; ts.n_classes],
        part: Vec::with_capacity(rows.len()),
    };
    grow(&mut tree, ts, &mut rows_scratch, 0, cfg, rng, &mut scratch);
    tree
}

/// `MaxFeatures::resolve`: the concrete candidate count for `m` features.
fn resolve(max_features: MaxFeatures, m: usize) -> usize {
    match max_features {
        MaxFeatures::All => m,
        MaxFeatures::Sqrt => ((m as f64).sqrt().round() as usize).clamp(1, m),
    }
}

/// Class counts over a set of row indices (`TrainSet::count_classes`).
fn class_counts(ts: &TrainSet, rows: &[usize]) -> Vec<f64> {
    let mut c = vec![0.0; ts.n_classes];
    for &r in rows {
        c[ts.y[r]] += 1.0;
    }
    c
}

/// Recursively grows the subtree over `rows` (which it may reorder) and
/// returns the index of the created node.
fn grow(
    tree: &mut Vec<CartNode>,
    ts: &TrainSet,
    rows: &mut [usize],
    depth: usize,
    cfg: &TreeConfig,
    rng: &mut Rng,
    scratch: &mut FitScratch,
) -> usize {
    let counts = class_counts(ts, rows);
    let total: f64 = counts.iter().sum();
    let distribution: Vec<f64> = counts.iter().map(|&c| c / total).collect();
    let node_idx = tree.len();
    tree.push(CartNode {
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
    let left = grow(tree, ts, left_rows, depth + 1, cfg, rng, scratch);
    let right = grow(tree, ts, right_rows, depth + 1, cfg, rng, scratch);
    let node = &mut tree[node_idx];
    node.feature = feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    node_idx
}

/// Reusable per-fit scratch buffers.
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
/// feature subset, or `None` when no valid split exists: per candidate, a
/// `sort_unstable_by` of the `(value, label)` pairs, then a scan that
/// scores every distinct-value boundary with the fused two-sided Gini.
fn best_split(
    ts: &TrainSet,
    rows: &[usize],
    parent_counts: &[f64],
    cfg: &TreeConfig,
    rng: &mut Rng,
    scratch: &mut FitScratch,
) -> Option<(usize, f64)> {
    let m = ts.x.cols();
    let k = resolve(cfg.max_features, m);
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
                // Midpoint threshold is robust to unseen values, unless it
                // rounds up to `next_v` or overflows: then `x <= mid` would
                // send every row to one side, and `v` splits instead.
                let mid = 0.5 * (v + next_v);
                let threshold = if v <= mid && mid < next_v { mid } else { v };
                best = Some((f, threshold, score));
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
