//! Agglomerative hierarchical clustering via the nearest-neighbour chain.
//!
//! This is the paper's clustering algorithm (Section 4.2.1): bottom-up
//! agglomeration under Ward's criterion. We use the **nearest-neighbour
//! chain** algorithm, which runs in O(N²) time and, for *reducible*
//! linkages (Ward, single, complete, average all are), produces exactly the
//! same merge hierarchy as the naive O(N³) greedy algorithm. This is the
//! same algorithmic core modern SciPy/scikit-learn use for `ward` linkage.
//!
//! The output is a [`MergeHistory`] in the familiar linkage-matrix shape:
//! step `s` merges clusters `a` and `b` (labels `< N` are original points,
//! labels `≥ N` refer to the cluster created at step `label − N`) at a
//! given height, producing a cluster of recorded size.

use crate::condensed::Condensed;
use crate::linkage::Linkage;
use icn_stats::{par, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// One merge step of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// First merged cluster label (point id if `< N`, else `N + step`).
    pub a: usize,
    /// Second merged cluster label.
    pub b: usize,
    /// Dendrogram height of this merge (Ward heights are square-rooted
    /// variance increases; see [`Linkage::to_height`]).
    pub height: f64,
    /// Size of the newly formed cluster.
    pub size: usize,
}

/// The full merge history of an agglomerative run (N − 1 merges): the
/// one merge tree the pipeline keeps. Figure 3 and the k = 9 → 6
/// consolidation navigate it directly — the root is the last merge, and
/// a label `≥ N` is an internal node whose children are that merge's `a`
/// (left) and `b` (right).
#[derive(Clone, Debug)]
pub struct MergeHistory {
    /// Number of original observations.
    pub n: usize,
    /// Linkage used.
    pub linkage: Linkage,
    /// Merges in execution order (non-decreasing heights for reducible
    /// linkages up to floating-point noise).
    pub merges: Vec<Merge>,
}

impl MergeHistory {
    /// Cluster labels obtained by cutting the hierarchy into `k` clusters.
    ///
    /// Labels are renumbered `0..k` by **decreasing cluster size** (ties by
    /// first-member order), which gives stable, human-friendly ids.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        assert!(
            k >= 1 && k <= self.n,
            "cut: k={k} out of range for n={}",
            self.n
        );
        // Apply the first n-k merges with a union-find.
        let mut uf = UnionFind::new(self.n + self.merges.len());
        for (step, m) in self.merges.iter().take(self.n - k).enumerate() {
            let new_label = self.n + step;
            uf.union(m.a, new_label);
            uf.union(m.b, new_label);
        }
        canonical_labels(self.n, |i| uf.find(i))
    }

    /// The height threshold that separates exactly `k` clusters: cutting
    /// anywhere in `[merge[n-k-1].height, merge[n-k].height)` yields `k`
    /// clusters. Returns the midpoint band `(lo, hi)`; `hi` is infinite for
    /// `k = 1`.
    pub fn cut_band(&self, k: usize) -> (f64, f64) {
        assert!(k >= 1 && k <= self.n, "cut_band: bad k");
        let lo = if self.n - k == 0 {
            0.0
        } else {
            self.merges[self.n - k - 1].height
        };
        let hi = if k == 1 {
            f64::INFINITY
        } else {
            self.merges[self.n - k].height
        };
        (lo, hi)
    }

    /// Heights in merge order.
    pub fn heights(&self) -> Vec<f64> {
        self.merges.iter().map(|m| m.height).collect()
    }

    /// Label of the root cluster (the last merge).
    pub fn root(&self) -> usize {
        self.n + self.merges.len() - 1
    }

    /// All leaf indices under cluster `label`, left to right (each merge's
    /// `a` before its `b`).
    pub fn leaves_under(&self, label: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![label];
        while let Some(l) = stack.pop() {
            if l < self.n {
                out.push(l);
            } else {
                let m = self.merges[l - self.n];
                // Push `b` first so `a` is visited first.
                stack.push(m.b);
                stack.push(m.a);
            }
        }
        out
    }

    /// The cluster roots (node labels) of the cut into `k` clusters,
    /// ordered left to right. Starting from the root, the part created
    /// last is split into its two children in place until `k` parts
    /// remain: that undoes the last `k − 1` merges, so the parts are
    /// [`MergeHistory::cut`]'s clusters even where heights tie.
    pub fn roots_at_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n, "roots_at_k: bad k");
        let mut parts = vec![self.root()];
        while parts.len() < k {
            let (idx, &label) = parts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &l)| l)
                .expect("at least one part");
            let m = self.merges[label - self.n];
            parts.splice(idx..=idx, [m.a, m.b]);
        }
        parts
    }

    /// Maps each cluster of the finer cut (`k_fine`) to its enclosing
    /// cluster of the coarser cut (`k_coarse`): `map[fine_label] =
    /// coarse_label`. This is the paper's observation that moving
    /// k = 9 → 6 consolidates the orange group and merges clusters 6 and 8.
    pub fn consolidation(&self, k_fine: usize, k_coarse: usize) -> Vec<usize> {
        assert!(k_coarse <= k_fine, "consolidation: coarse must be ≤ fine");
        let fine = self.cut(k_fine);
        let coarse = self.cut(k_coarse);
        let mut map = vec![usize::MAX; k_fine];
        for (&f, &c) in fine.iter().zip(&coarse) {
            if map[f] == usize::MAX {
                map[f] = c;
            } else {
                debug_assert_eq!(map[f], c, "cuts are not nested?");
            }
        }
        map
    }

    /// A clone. Kept only because `perfbench/src/replay.rs` still calls it
    /// through the [`crate::Dendrogram`] alias; nothing in the workspace
    /// does.
    pub fn from_history(history: &MergeHistory) -> MergeHistory {
        history.clone()
    }
}

/// An alias of [`MergeHistory`], kept only because
/// `perfbench/src/replay.rs` still names it; nothing in the workspace does.
pub type Dendrogram = MergeHistory;

/// Runs agglomerative clustering on the rows of `data` under `linkage`.
///
/// ```
/// use icn_cluster::{agglomerate, Linkage};
/// use icn_stats::Matrix;
/// // Two obvious groups on a line:
/// let m = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0], vec![9.1]]);
/// let labels = agglomerate(&m, Linkage::Ward).cut(2);
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[2], labels[3]);
/// assert_ne!(labels[0], labels[2]);
/// ```
///
/// # Panics
/// If `data` has fewer than 2 rows or contains non-finite values.
pub fn agglomerate(data: &Matrix, linkage: Linkage) -> MergeHistory {
    assert!(
        data.rows() >= 2,
        "agglomerate: need at least 2 observations"
    );
    assert!(
        !data.has_non_finite(),
        "agglomerate: non-finite values in input (filter dead antennas first)"
    );
    let cond = Condensed::from_rows(data, linkage.base_metric());
    agglomerate_condensed(&cond, linkage)
}

/// The NN-chain's working distances: a copy of the condensed matrix that
/// merges overwrite in place. Pair `(a, b)`, `a < b`, lives at
/// `base[a] + b`, where `base[a] = block_start(n, a) − a − 1` (wrapping:
/// `a = 0` underflows, and adding `b ≥ 1` lands back in range).
///
/// Cells are relaxed atomics so that the parts of one round can read and
/// write them from several threads in safe code; on x86-64 and AArch64 a
/// relaxed load or store is a plain move. The rounds of a [`par::Team`]
/// order every write before every later read.
struct Working {
    d: Vec<AtomicU64>,
    base: Vec<usize>,
}

/// Elements per parallel work item of the working-copy fill.
const COPY_CHUNK: usize = 1 << 16;

impl Working {
    /// Copies `cond` into a zeroed allocation, in parallel, so the first
    /// touch of the copy's pages is spread over the threads too, then
    /// reinterprets the bits as atomics in place (the collect reuses the
    /// buffer: `working_copy_reuses_its_buffer`).
    fn new(cond: &Condensed) -> Working {
        let n = cond.len();
        let src = cond.as_slice();
        let mut bits = vec![0u64; src.len()];
        par::fill_chunks(&mut bits, COPY_CHUNK, |range, out| {
            for (o, v) in out.iter_mut().zip(&src[range]) {
                *o = v.to_bits();
            }
        });
        Working {
            d: bits.into_iter().map(AtomicU64::new).collect(),
            base: (0..n)
                .map(|a| crate::condensed::block_start(n, a).wrapping_sub(a + 1))
                .collect(),
        }
    }

    /// The cell of pair `(a, b)`, `a < b`.
    #[inline]
    fn cell(&self, a: usize, b: usize) -> &AtomicU64 {
        &self.d[self.base[a].wrapping_add(b)]
    }

    /// Distance between slots `x != y`.
    #[inline]
    fn get(&self, x: usize, y: usize) -> f64 {
        debug_assert_ne!(x, y, "the condensed layout has no diagonal");
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        load(self.cell(a, b))
    }
}

#[inline]
fn load(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// The active slots in increasing order, and every slot's cluster size.
/// Team threads read them during a round; the caller updates them between
/// rounds.
struct Live {
    list: Vec<usize>,
    size: Vec<usize>,
}

/// One round of NN-chain work, split across the active list.
#[derive(Clone, Copy)]
enum Round {
    /// Nearest active neighbour of slot `x`.
    Scan { x: usize },
    /// Lance–Williams update of the merge of slots `i < j`.
    Update { i: usize, j: usize, d_ij: f64 },
}

/// Active-list length above which scans and updates are split across a
/// [`par::Team`]. On 2 cores a shared scan breaks even near 600 active
/// slots and saves a third of a solo one at 1,500; the margin keeps the
/// paper-config study at scale 0.25 (~1,190 live antennas) on one thread
/// (DESIGN.md §8, "Stage 2 on both cores").
const SHARED_MIN_ACTIVE: usize = 1536;

/// What a scan's read down a column (a pair in an earlier slot's row
/// block) costs, in reads along a row: the weight that balances the parts
/// of a shared scan (measured on 2 cores, DESIGN.md §8).
const SCAN_COLUMN_COST: usize = 4;

/// What an update of a slot below `j` costs (its pair with `j` is read
/// down a column), relative to one above `j`.
const UPDATE_BELOW_J_COST: usize = 2;

/// Part `part` of `parts` contiguous runs of the sorted active `list`, cut
/// so each carries about the same cost when a slot below `pivot` costs
/// `below_cost` and any other slot 1. The cuts only balance the work: a
/// round's result does not depend on them.
fn part_of(list: &[usize], pivot: usize, below_cost: usize, part: usize, parts: usize) -> &[usize] {
    if parts == 1 {
        return list;
    }
    let below = list.partition_point(|&y| y < pivot);
    let total = below_cost * below + (list.len() - below);
    let cut = |q: usize| {
        let t = q * total / parts;
        if t <= below_cost * below {
            t / below_cost
        } else {
            below + (t - below_cost * below)
        }
    };
    &list[cut(part)..cut(part + 1)]
}

/// Lowest-index argmin of the distance from active slot `x` over `part`, a
/// contiguous run of the sorted active list (skipping `x` itself): a
/// strict `<` in list order. `(usize::MAX, ∞)` when nothing beats ∞.
fn nearest_in(w: &Working, x: usize, part: &[usize]) -> (usize, f64) {
    let (below, above) = part.split_at(part.partition_point(|&y| y < x));
    let above = above.strip_prefix(&[x]).unwrap_or(above);
    let mut best = (usize::MAX, f64::INFINITY);
    // Pairs (y, x) with y < x: one entry in each earlier row block.
    for &y in below {
        let dy = load(w.cell(y, x));
        if dy < best.1 {
            best = (y, dy);
        }
    }
    // Pairs (x, y) with y > x: x's own row block, read in order.
    let row = w.base[x];
    for &y in above {
        let dy = load(&w.d[row.wrapping_add(y)]);
        if dy < best.1 {
            best = (y, dy);
        }
    }
    best
}

/// Lance–Williams update into slot `i` of the merge of slots `i < j`, for
/// the active slots `k` in `part` (skipping `i` and `j`). The slots split
/// into three runs by where the pairs `(i, k)` and `(j, k)` are stored.
fn update_in(
    w: &Working,
    live: &Live,
    linkage: Linkage,
    (i, j, d_ij): (usize, usize, f64),
    part: &[usize],
) {
    let size = &live.size;
    let (n_i, n_j) = (size[i] as f64, size[j] as f64);
    let lw = |ik: &AtomicU64, jk: &AtomicU64, k: usize| {
        let v = linkage.update(load(ik), load(jk), d_ij, n_i, n_j, size[k] as f64);
        ik.store(v.to_bits(), Ordering::Relaxed);
    };
    let pi = part.partition_point(|&k| k < i);
    let pj = part.partition_point(|&k| k < j);
    let between = &part[pi..pj];
    let between = between.strip_prefix(&[i]).unwrap_or(between);
    let after = &part[pj..];
    let after = after.strip_prefix(&[j]).unwrap_or(after);
    let Working { d, base } = w;
    let (bi, bj) = (base[i], base[j]);
    for &k in &part[..pi] {
        let bk = base[k];
        lw(&d[bk.wrapping_add(i)], &d[bk.wrapping_add(j)], k);
    }
    for &k in between {
        lw(&d[bi.wrapping_add(k)], &d[base[k].wrapping_add(j)], k);
    }
    for &k in after {
        lw(&d[bi.wrapping_add(k)], &d[bj.wrapping_add(k)], k);
    }
}

/// Runs agglomerative clustering on a precomputed condensed distance matrix
/// (must be in the linkage's base metric — squared Euclidean for Ward).
///
/// # Algorithm notes
///
/// The nearest-neighbour chain runs over a condensed working copy of
/// `cond` — the layout of SciPy's `nn_chain` and Müllner's fastcluster —
/// so the exact path holds two `N(N−1)/2` matrices at its peak (`cond`,
/// which callers keep for the k-sweep, and the copy merges overwrite),
/// never an `N²` square. Each pair has one storage slot, so a merge
/// writes every updated distance exactly once. Retired slots are removed
/// from a sorted active list, so scans and Lance–Williams updates touch
/// `O(remaining)` slots rather than all `n` with a liveness branch per
/// slot.
///
/// # Parallelism
///
/// The copy is filled on every thread. While more than 1,536 slots are
/// active, each scan and each update is one round of a [`par::Team`]: the
/// active list is cut into one contiguous part per thread, of about equal
/// cost (a read down a column weighs several reads along a row), the
/// caller runs the first part and helper threads that live for this call
/// run the others, handing rounds over by spin-then-yield (a thread spawn
/// per scan measured slower than the scan itself). Once the list is that
/// short the helpers are dismissed and the loop runs on the caller. No
/// helper starts at `ICN_THREADS=1`, and none beyond the machine's cores
/// ([`par::team_helpers`]).
///
/// The output does not depend on the split: part minima are combined in
/// list order with the same strict `<`, which picks the lowest-index
/// argmin of the whole list, and every updated cell is computed by the
/// same expression from the same inputs whichever part owns it. Merges
/// and heights are bit-identical at any `ICN_THREADS`, and to the naive
/// maintenance scheme.
///
/// Metering: `cluster.nn_scans` counts the scans and
/// `cluster.nn_scans_shared` the ones split across threads.
pub fn agglomerate_condensed(cond: &Condensed, linkage: Linkage) -> MergeHistory {
    let _span = icn_obs::Span::enter("agglomerate");
    let n = cond.len();
    assert!(n >= 2, "agglomerate: need at least 2 observations");

    let w = {
        let _matrix = icn_obs::Span::enter("matrix");
        Working::new(cond)
    };
    let live = RwLock::new(Live {
        list: (0..n).collect(),
        size: vec![1; n],
    });
    let helpers = if n > SHARED_MIN_ACTIVE {
        par::team_helpers()
    } else {
        0
    };
    // A scan part returns its nearest slot; an update part returns nothing.
    let work = |round: Round, part: usize, parts: usize| {
        let live = live.read().expect("NN-chain state poisoned");
        match round {
            Round::Scan { x } => {
                let slots = part_of(&live.list, x, SCAN_COLUMN_COST, part, parts);
                Some(nearest_in(&w, x, slots))
            }
            Round::Update { i, j, d_ij } => {
                let slots = part_of(&live.list, j, UPDATE_BELOW_J_COST, part, parts);
                update_in(&w, &live, linkage, (i, j, d_ij), slots);
                None
            }
        }
    };

    let mut label = (0..n).collect::<Vec<usize>>(); // slot -> output label
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    // Raw merge list; heights sorted at the end (NN-chain finds reciprocal
    // pairs out of height order).
    let mut raw: Vec<(usize, usize, f64, usize)> = Vec::with_capacity(n - 1);
    let (mut scans, mut shared) = (0u64, 0u64);

    par::with_team(helpers, work, |team| {
        let mut active = n;
        while active > 1 {
            if chain.is_empty() {
                // Start a new chain from the lowest active cluster.
                chain.push(live.read().expect("NN-chain state poisoned").list[0]);
            }
            loop {
                let x = *chain.last().unwrap();
                // Nearest active neighbour of x, preferring the previous
                // chain element on ties (guarantees termination).
                let prev = if chain.len() >= 2 {
                    Some(chain[chain.len() - 2])
                } else {
                    None
                };
                // Part minima folded in list order with the same strict
                // `<`: the lowest-index argmin of the whole list.
                let (mut best, mut best_d) = (usize::MAX, f64::INFINITY);
                let parts = team.run(Round::Scan { x }, |part| {
                    if let Some((y, dy)) = part {
                        if dy < best_d {
                            (best, best_d) = (y, dy);
                        }
                    }
                });
                scans += 1;
                shared += u64::from(parts > 1);
                if let Some(p) = prev {
                    // The sequential tie-break prefers `prev` over any
                    // other slot at the same distance.
                    if w.get(x, p) == best_d {
                        best = p;
                    }
                }
                debug_assert!(best != usize::MAX);
                if Some(best) == prev {
                    // Reciprocal nearest neighbours: merge x and best.
                    chain.pop();
                    chain.pop();
                    let (i, j) = (x.min(best), x.max(best));
                    let d_ij = w.get(i, j);
                    // Lance-Williams update into slot i; retire slot j.
                    team.run(Round::Update { i, j, d_ij }, drop);
                    let mut live = live.write().expect("NN-chain state poisoned");
                    let pj = live.list.partition_point(|&k| k < j);
                    live.list.remove(pj);
                    active -= 1;
                    raw.push((label[i], label[j], d_ij, live.size[i] + live.size[j]));
                    live.size[i] += live.size[j];
                    // The new cluster's output label is assigned after
                    // sorting; remember its creation index via a
                    // placeholder in `label`.
                    label[i] = n + raw.len() - 1;
                    if active <= SHARED_MIN_ACTIVE {
                        team.dismiss();
                    }
                    break;
                } else {
                    chain.push(best);
                }
            }
        }
    });

    // NN-chain emits merges out of height order; sort by height (stable) and
    // relabel so that "cluster N+s" refers to the merge at sorted step s —
    // the standard linkage-matrix convention.
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| {
        raw[a]
            .2
            .partial_cmp(&raw[b].2)
            .expect("finite heights")
            .then(a.cmp(&b))
    });
    let mut new_index = vec![0usize; raw.len()];
    for (new_pos, &old_pos) in order.iter().enumerate() {
        new_index[old_pos] = new_pos;
    }
    let relabel = |l: usize| -> usize {
        if l < n {
            l
        } else {
            n + new_index[l - n]
        }
    };
    let merges: Vec<Merge> = order
        .iter()
        .map(|&old_pos| {
            let (a, b, dist, sz) = raw[old_pos];
            Merge {
                a: relabel(a),
                b: relabel(b),
                height: linkage.to_height(dist),
                size: sz,
            }
        })
        .collect();

    let obs = icn_obs::global();
    obs.add_counter("cluster.merges", merges.len() as u64);
    obs.add_counter("cluster.nn_scans", scans);
    obs.add_counter("cluster.nn_scans_shared", shared);
    MergeHistory { n, linkage, merges }
}

/// Renumbers arbitrary representative ids into dense labels `0..k`, ordered
/// by decreasing cluster size (ties broken by first occurrence).
fn canonical_labels(n: usize, mut rep: impl FnMut(usize) -> usize) -> Vec<usize> {
    use std::collections::HashMap;
    let reps: Vec<usize> = (0..n).map(&mut rep).collect();
    let mut counts: HashMap<usize, usize> = HashMap::new();
    let mut first: HashMap<usize, usize> = HashMap::new();
    for (i, &r) in reps.iter().enumerate() {
        *counts.entry(r).or_default() += 1;
        first.entry(r).or_insert(i);
    }
    let mut uniq: Vec<usize> = counts.keys().copied().collect();
    uniq.sort_by_key(|r| (usize::MAX - counts[r], first[r]));
    let map: HashMap<usize, usize> = uniq.into_iter().enumerate().map(|(i, r)| (r, i)).collect();
    reps.into_iter().map(|r| map[&r]).collect()
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    /// Two well-separated 2-D blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from(11);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..20 {
            rows.push(vec![rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)]);
            truth.push(0);
        }
        for _ in 0..15 {
            rows.push(vec![rng.normal(10.0, 0.3), rng.normal(10.0, 0.3)]);
            truth.push(1);
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn two_blobs_recovered_by_all_linkages() {
        let (m, truth) = blobs();
        for linkage in Linkage::ALL {
            let h = agglomerate(&m, linkage);
            let labels = h.cut(2);
            // Perfect recovery up to label permutation; label 0 is the
            // bigger blob by our canonical ordering.
            assert_eq!(labels, truth, "{}", linkage.name());
        }
    }

    #[test]
    fn merge_count_and_sizes() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        assert_eq!(h.merges.len(), m.rows() - 1);
        assert_eq!(h.merges.last().unwrap().size, m.rows());
    }

    #[test]
    fn heights_monotone_for_reducible_linkages() {
        let (m, _) = blobs();
        for linkage in Linkage::ALL {
            let h = agglomerate(&m, linkage);
            let hs = h.heights();
            for w in hs.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{}: heights {w:?} not monotone",
                    linkage.name()
                );
            }
        }
    }

    #[test]
    fn cut_partitions_are_nested() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let l5 = h.cut(5);
        let l2 = h.cut(2);
        // Every k=5 cluster must live inside exactly one k=2 cluster.
        use std::collections::HashMap;
        let mut map: HashMap<usize, usize> = HashMap::new();
        for i in 0..m.rows() {
            match map.get(&l5[i]) {
                None => {
                    map.insert(l5[i], l2[i]);
                }
                Some(&c) => assert_eq!(c, l2[i], "cluster {} split across cuts", l5[i]),
            }
        }
    }

    #[test]
    fn cut_k_equals_n_is_singletons() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let labels = h.cut(m.rows());
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m.rows());
    }

    #[test]
    fn cut_k1_is_single_cluster() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        assert!(h.cut(1).iter().all(|&l| l == 0));
    }

    #[test]
    fn cut_band_brackets_merges() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let (lo, hi) = h.cut_band(2);
        assert!(lo <= hi);
        let (_, hi1) = h.cut_band(1);
        assert!(hi1.is_infinite());
    }

    #[test]
    fn ward_matches_naive_on_small_input() {
        // Brute-force greedy Ward and compare merge heights.
        let mut rng = Rng::seed_from(5);
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..3).map(|_| rng.gaussian()).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let fast = agglomerate(&m, Linkage::Ward);

        // Naive O(n^3) greedy with the same LW recurrence.
        let n = m.rows();
        let mut d = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                d[i][j] = icn_stats::distance::sq_euclidean(m.row(i), m.row(j));
            }
        }
        let mut alive: Vec<usize> = (0..n).collect();
        let mut size = vec![1f64; n];
        let mut naive_heights = Vec::new();
        while alive.len() > 1 {
            let (mut bi, mut bj, mut bd) = (0, 0, f64::INFINITY);
            for (ai, &i) in alive.iter().enumerate() {
                for &j in &alive[ai + 1..] {
                    if d[i][j] < bd {
                        bd = d[i][j];
                        bi = i;
                        bj = j;
                    }
                }
            }
            naive_heights.push(bd.sqrt());
            for &k in &alive {
                if k == bi || k == bj {
                    continue;
                }
                let v = Linkage::Ward
                    .update(d[bi][k], d[bj][k], d[bi][bj], size[bi], size[bj], size[k]);
                d[bi][k] = v;
                d[k][bi] = v;
            }
            size[bi] += size[bj];
            alive.retain(|&x| x != bj);
        }
        let fast_heights = fast.heights();
        assert_eq!(fast_heights.len(), naive_heights.len());
        for (f, g) in fast_heights.iter().zip(&naive_heights) {
            assert!((f - g).abs() < 1e-9, "heights differ: {f} vs {g}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_input_panics() {
        let mut m = Matrix::zeros(3, 2);
        m.set(1, 1, f64::NAN);
        agglomerate(&m, Linkage::Ward);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_point_panics() {
        agglomerate(&Matrix::zeros(1, 2), Linkage::Ward);
    }

    #[test]
    fn working_copy_reuses_its_buffer() {
        // The bits-to-atomics collect must not allocate a third matrix.
        let bits = vec![7u64; 1000];
        let ptr = bits.as_ptr() as usize;
        let cells: Vec<AtomicU64> = bits.into_iter().map(AtomicU64::new).collect();
        assert_eq!(cells.as_ptr() as usize, ptr);
        assert_eq!(cells[999].load(Ordering::Relaxed), 7);
    }

    /// Three well-separated 2-D blobs of 10, 13 and 16 points.
    fn three_blobs() -> (MergeHistory, Vec<usize>) {
        let mut rng = Rng::seed_from(21);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (8.0, 0.0), (4.0, 12.0)];
        for (c, &(x, y)) in centers.iter().enumerate() {
            for _ in 0..(10 + c * 3) {
                rows.push(vec![rng.normal(x, 0.4), rng.normal(y, 0.4)]);
                truth.push(c);
            }
        }
        (agglomerate(&Matrix::from_rows(&rows), Linkage::Ward), truth)
    }

    #[test]
    fn root_covers_every_leaf_once() {
        let (h, truth) = three_blobs();
        let mut order = h.leaves_under(h.root());
        assert_eq!(order.len(), truth.len());
        order.sort_unstable();
        assert!(order.iter().copied().eq(0..truth.len()));
    }

    #[test]
    fn three_blobs_recovered_at_k3() {
        let (h, truth) = three_blobs();
        // Same partition as the truth (up to relabelling).
        let mut map: std::collections::HashMap<usize, usize> = Default::default();
        for (l, t) in h.cut(3).iter().zip(&truth) {
            assert_eq!(map.entry(*l).or_insert(*t), t);
        }
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn clusters_are_contiguous_in_leaf_order() {
        let (h, _) = three_blobs();
        let labels = h.cut(3);
        let mut seen = std::collections::HashSet::new();
        let mut prev = usize::MAX;
        for l in h.leaves_under(h.root()).into_iter().map(|i| labels[i]) {
            if l != prev {
                assert!(seen.insert(l), "cluster {l} appears in two spans");
                prev = l;
            }
        }
    }

    #[test]
    fn consolidation_is_well_defined_and_nested() {
        let (h, _) = three_blobs();
        let map = h.consolidation(5, 2);
        assert_eq!(map.len(), 5);
        assert!(map.iter().all(|&c| c < 2));
        // At least one coarse cluster hosts ≥ 2 fine clusters.
        let mut counts = [0usize; 2];
        for &c in &map {
            counts[c] += 1;
        }
        assert!(counts.iter().any(|&c| c >= 2));
        let (fine, coarse) = (h.cut(5), h.cut(2));
        assert!(fine.iter().zip(&coarse).all(|(&f, &c)| map[f] == c));
    }

    #[test]
    fn roots_at_k_sizes_sum_to_n() {
        let (h, truth) = three_blobs();
        for k in [2, 3, 4, 7] {
            let roots = h.roots_at_k(k);
            assert_eq!(roots.len(), k);
            let total: usize = roots.iter().map(|&r| h.leaves_under(r).len()).sum();
            assert_eq!(total, truth.len());
        }
    }

    #[test]
    fn duplicate_points_merge_at_zero_height() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]]);
        let h = agglomerate(&m, Linkage::Ward);
        assert!(h.merges[0].height.abs() < 1e-12);
    }
}
