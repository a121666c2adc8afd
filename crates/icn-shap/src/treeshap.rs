//! TreeSHAP — polynomial-time exact Shapley values for decision trees.
//!
//! The paper uses the TreeShap model-specific approximation "employed for
//! tree-based ML algorithms such as random forests" because it is
//! "dramatically faster" than model-agnostic estimation (Section 5.1.1).
//! This module computes the same path-dependent attributions as the
//! algorithm of Lundberg et al., but through its **integral form**: for a
//! leaf with unique path features `P` (repeated splits merged), feature
//! `i`'s Shapley weight is
//!
//! ```text
//! phi_i(leaf) = (one_i − zero_i) · v_leaf · ∫₀¹ ∏_{j ∈ P∖{i}} u_j(t) dt,
//!               u_j(t) = one_j·t + zero_j·(1 − t)
//! ```
//!
//! Expanding the product and integrating term-by-term (the Beta integral
//! `∫ t^k (1−t)^{l−1−k} dt = k!(l−1−k)!/l!`) reproduces exactly the
//! `|S|!(l−1−|S|)!/l!` subset weights of the classic recurrence. The
//! integrand is a polynomial of degree `< l`, so an `m = ⌈l_max/2⌉`-point
//! Gauss–Legendre rule ([`crate::quad`]) integrates it **exactly** — this
//! is a reformulation, not an approximation (only ordinary ~1e-15 f64
//! rounding differs from the recursive formulation).
//!
//! ## Quadrature state
//!
//! The descent keeps `V_q = ∏_j u_j(t_q)` at the `m` quadrature points,
//! updated with one fused multiply per point per node — no
//! cardinality-weight recurrences, no divisions on the hot path. At a
//! leaf, with `W_q = ω_q·V_q`:
//!
//! * **absent-branch features** (`one = 0`): `u_i(t) = zero_i·(1−t)`, so
//!   `zero_i` cancels and every such feature shares one sum
//!   `−Σ_q W_q/(1−t_q)` — O(1) per feature, `1/(1−t_q)` precomputed.
//! * **present-branch features** (`one = 1`): `Σ_q W_q / u_i(t_q)` with
//!   the inverse row `1/(t_q + ratio·(1−t_q))` precomputed **once per
//!   tree** for every node; repeated-feature merges compute their own
//!   inverse row into a per-depth scratch arena.
//!
//! ## Two phases per (sample chunk, tree)
//!
//! The state at a node — path elements, product row, inverse rows —
//! depends only on the sample's *branch pattern* above it (which
//! ancestors' splits it follows), and the samples of a chunk share those
//! patterns. So no sample is walked on its own:
//!
//! * **phase 1** (`derive_states`) is one DFS over the distinct states the
//!   chunk reaches. Each internal state partitions its samples in place
//!   by `x[f] <= threshold`, derives its rows from its parent's in the
//!   per-depth arena, links its children, and emits the `(phi index,
//!   value)` credits of every leaf child it reaches — once per state, not
//!   once per sample;
//! * **phase 2** (`replay`) runs each sample through those links in the
//!   order the per-sample walk visited nodes — leaf children folded at
//!   the parent cold-then-hot, the hot subtree before the cold one — and
//!   adds the memoized credits into the sample's phi buffer.
//!
//! Every credit is the same f64 from the same operations, added in the
//! same order, so the result is bit-identical to walking each sample
//! alone (kept as the oracle `icn_testkit::walk_forest_shap`) at any
//! chunk width — a batch of one included. The m-lane quadrature work is
//! paid once per distinct state of a (chunk, tree) instead of once per
//! node visit, and phase 2 costs O(nodes) plus the sample's credit adds;
//! the gain is the number of samples sharing each state (the
//! `shap.node_visits` / `shap.walk_states` counters). A `Scratch` holds
//! the arenas, tables and memo; the batch allocates one per worker on the
//! dispatching thread and every chunk and tree reuses it. The 2^M
//! enumeration of [`crate::exact`] and the recursive formulation in
//! `icn_testkit::naive_forest_shap` remain the mathematical oracles.

use crate::quad::gauss_legendre_01;
use icn_forest::{DecisionTree, RandomForest, SoaForest, SoaTree};
use icn_stats::{par, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Marker for "no node / no slot / no state" in `u32` fields.
const NONE: u32 = u32::MAX;

/// One unique feature on the current root→node path, packed to 16 bytes —
/// the per-depth buffers are copied parent→child at every state, so
/// element size is memcpy bandwidth on the hot path.
#[derive(Clone, Copy, Debug)]
struct PathElem {
    /// Feature index.
    feature: u32,
    /// Depth whose row of the per-depth `riu` arena holds this element's
    /// inverse row `1/u(t_q)` (the depth the element was appended or last
    /// merged at). Only meaningful while the element is present-branch.
    src: u32,
    /// Product of cover ratios over the feature's occurrences, with the
    /// one-fraction folded into the sign: positive while every occurrence
    /// followed the sample's branch (`one = 1`), negated once any
    /// occurrence went the other way (`one = 0`). Cover ratios are
    /// strictly positive, so the sign is never ambiguous.
    zero: f64,
}

const EMPTY_ELEM: PathElem = PathElem {
    feature: NONE,
    src: NONE,
    zero: 0.0,
};

/// One pending state of the phase-1 DFS. The frame carries the full delta
/// to apply at its own depth — which feature the parent split on, whether
/// that feature already sat on the path (`merged_slot`), the branch
/// fractions of this child — plus the samples in the state and the parent
/// link to point at it.
#[derive(Clone, Copy, Debug)]
struct Frame {
    node: u32,
    depth: u32,
    parent_len: u32,
    feature: u32,
    /// Path slot of an earlier occurrence of `feature`, or [`NONE`].
    merged_slot: u32,
    /// 1.0 on the branch the state's samples follow, 0.0 on the other.
    one: f64,
    /// Cover ratio of descending into `node`.
    ratio: f64,
    /// The state's samples: `Scratch::idx[lo..hi]`.
    lo: u32,
    hi: u32,
    /// State whose `next[slot]` leads here ([`NONE`] at the root).
    parent: u32,
    slot: u32,
}

/// A memoized internal-node state: the split a replaying sample tests,
/// and what each outcome folds and visits next.
#[derive(Clone, Copy, Debug)]
struct State {
    feature: u32,
    /// Credits a left-goer folds here are `off[0]..off[1]` of the memo, a
    /// right-goer's `off[1]..off[2]`: its leaf children, cold then hot.
    off: [u32; 3],
    threshold: f64,
    /// Internal `[hot, cold]` child states of a left-goer, then of a
    /// right-goer; [`NONE`] where that child is a leaf or no chunk sample
    /// goes that way.
    next: [u32; 4],
}

/// Reusable per-worker scratch for the TreeSHAP kernel — phase 1 and the
/// replay allocate only when a chunk outgrows the memo. Holds the per-depth path
/// and quadrature-product arenas (a state's buffers are derived from its
/// parent's, one level up, which stays intact while the whole subtree is
/// processed), the per-tree quadrature tables installed by `prepare`, and
/// the memo phase 2 replays.
#[derive(Clone, Debug)]
pub(crate) struct Scratch {
    /// Arena depth capacity (levels = max tree depth + 1), also the slots
    /// per level of the `elems` arena.
    levels: usize,
    /// Quadrature order of the prepared tree.
    m: usize,
    /// Per-depth unique-feature path buffers.
    elems: Vec<PathElem>,
    /// Per-depth weighted products `ω_q · ∏_j u_j(t_q)`, `m` per level —
    /// the quadrature weights are folded in at the root, so leaves sum
    /// lanes directly.
    v: Vec<f64>,
    /// Per-depth inverse rows of the path's present-branch elements, `m`
    /// per level — copied from `iu` on descent (or computed, after a
    /// merge), so every leaf dot reads this one small resident arena.
    riu: Vec<f64>,
    /// Leaf staging: the product row of a leaf child, derived in place
    /// from its parent's row (leaves never get a frame or an arena level).
    vleaf: Vec<f64>,
    /// Leaf staging: inverse row of a merge happening at a leaf child.
    rleaf: Vec<f64>,
    /// Leaf staging: the shared absent-element credits `−s_cold · v` per
    /// nonzero leaf class — every absent path element adds exactly these
    /// values, so they are computed once per leaf, not once per element.
    svc: Vec<f64>,
    /// Pending phase-1 states.
    frames: Vec<Frame>,
    /// Gauss–Legendre nodes on [0, 1].
    qt: Vec<f64>,
    /// Gauss–Legendre weights (sum 1).
    qw: Vec<f64>,
    /// `1 − t_q`.
    omt: Vec<f64>,
    /// `1 / (1 − t_q)` — the shared absent-feature leaf sum folds this.
    ic: Vec<f64>,
    /// Per-node inverse rows `1/(t_q + ratio·(1−t_q))`, `m` per node of
    /// the prepared tree.
    iu: Vec<f64>,
    /// The chunk transposed to feature-major, so a partition reads one
    /// short column.
    xt: Vec<f64>,
    /// The chunk's sample indices, partitioned in place by phase 1.
    idx: Vec<u32>,
    /// Partition staging for right-goers.
    tmp: Vec<u32>,
    /// Memoized internal states; the root is state 0.
    states: Vec<State>,
    /// Memoized leaf credits.
    credits: Credits,
    /// Pending replay states.
    stack: Vec<u32>,
    /// One sample's sums for one tree, one per `credits.touched` slot;
    /// all zero between samples.
    phi: Vec<f64>,
}

/// The leaf credits phase 1 memoizes for one tree, addressed compactly:
/// a tree credits the same `feature × class` slots for every sample (each
/// sample reaches every leaf), so credits name a position in `touched`
/// and a sample's per-tree sums fit one short dense buffer.
#[derive(Clone, Debug)]
struct Credits {
    /// Position of each flat `feature * n_classes + class` slot in
    /// `touched`, or [`NONE`] while the tree has not credited it.
    pos: Vec<u32>,
    /// Flat slots the tree credits, in first-credit order.
    touched: Vec<u32>,
    /// Per credit: position of its target in `touched`.
    slot: Vec<u32>,
    /// Per credit: its value.
    val: Vec<f64>,
}

impl Credits {
    /// Empties the memo for a tree with `fc` flat slots.
    fn reset(&mut self, fc: usize) {
        assert!(
            u32::try_from(fc).is_ok(),
            "TreeSHAP: features × classes exceed u32 slot indices"
        );
        self.pos.clear();
        self.pos.resize(fc, NONE);
        self.touched.clear();
        self.slot.clear();
        self.val.clear();
    }

    /// Appends a credit of `v` to flat slot `i`.
    #[inline]
    fn push(&mut self, i: u32, v: f64) {
        let mut k = self.pos[i as usize];
        if k == NONE {
            k = self.touched.len() as u32;
            self.pos[i as usize] = k;
            self.touched.push(i);
        }
        self.slot.push(k);
        self.val.push(v);
    }

    /// Number of credits memoized so far.
    fn len(&self) -> u32 {
        u32::try_from(self.slot.len()).expect("TreeSHAP memo exceeds u32 credit offsets")
    }
}

impl Scratch {
    /// Scratch for explaining chunks of up to `rows` samples through
    /// `trees`: arenas and tables at the trees' largest depth, quadrature
    /// order and node count, and a memo that starts at one state and one
    /// path of credits per row and grows with the chunk's trees.
    ///
    /// The batch calls this on its dispatching thread, and that is what
    /// keeps memory level: a buffer grows inside the allocator arena it was
    /// first allocated from, while a memo first allocated on a worker would
    /// land in that worker's arena, which keeps the freed memory resident.
    fn new(trees: &[SoaTree], rows: usize) -> Scratch {
        let levels = trees.iter().map(|t| t.max_depth).max().unwrap_or(0) + 1;
        let unique = trees.iter().map(|t| t.max_unique_path).max().unwrap_or(0);
        let m = unique.div_ceil(2).max(1);
        let nodes = trees.iter().map(SoaTree::num_nodes).max().unwrap_or(1);
        let (fc, n_classes) = trees
            .first()
            .map_or((0, 0), |t| (t.n_features * t.n_classes, t.n_classes));
        Scratch {
            levels,
            m: 0,
            elems: Vec::with_capacity(levels * levels),
            v: Vec::with_capacity(levels * m),
            riu: Vec::with_capacity(levels * m),
            vleaf: Vec::with_capacity(m),
            rleaf: Vec::with_capacity(m),
            svc: Vec::with_capacity(n_classes),
            frames: Vec::with_capacity(4 * levels),
            qt: Vec::new(),
            qw: Vec::new(),
            omt: Vec::new(),
            ic: Vec::new(),
            iu: Vec::with_capacity(nodes * m),
            xt: Vec::with_capacity(rows * trees.first().map_or(0, |t| t.n_features)),
            idx: Vec::with_capacity(rows),
            tmp: Vec::with_capacity(rows),
            states: Vec::with_capacity(rows),
            credits: Credits {
                pos: Vec::with_capacity(fc),
                touched: Vec::with_capacity(fc),
                slot: Vec::with_capacity(rows * unique.max(1)),
                val: Vec::with_capacity(rows * unique.max(1)),
            },
            stack: Vec::with_capacity(levels),
            phi: Vec::with_capacity(fc),
        }
    }

    /// Installs the quadrature tables for `tree`: rule order
    /// `m = ⌈max_unique_path/2⌉` (exact for every leaf polynomial of this
    /// tree), derived point tables, and the per-node inverse rows shared
    /// by every state of this tree.
    fn prepare(&mut self, tree: &SoaTree) {
        self.levels = self.levels.max(tree.max_depth + 1);
        let m = tree.max_unique_path.div_ceil(2).max(1);
        if m != self.m {
            let (t, w) = gauss_legendre_01(m);
            self.omt = t.iter().map(|&t| 1.0 - t).collect();
            self.ic = self.omt.iter().map(|&o| 1.0 / o).collect();
            self.qt = t;
            self.qw = w;
            self.m = m;
        }
        self.elems.clear();
        self.elems.resize(self.levels * self.levels, EMPTY_ELEM);
        self.v.clear();
        self.v.resize(self.levels * m, 0.0);
        self.riu.clear();
        self.riu.resize(self.levels * m, 0.0);
        self.vleaf.clear();
        self.vleaf.resize(m, 0.0);
        self.rleaf.clear();
        self.rleaf.resize(m, 0.0);
        self.svc.clear();
        self.svc.resize(tree.n_classes, 0.0);
        self.credits.reset(tree.n_features * tree.n_classes);
        // The replay keeps at most one pending cold child per ancestor.
        self.stack.clear();
        self.stack.resize(self.levels, NONE);
        let n = tree.num_nodes();
        self.iu.clear();
        self.iu.resize(n * m, 0.0);
        for i in 0..n {
            let r = tree.ratio[i];
            let row = &mut self.iu[i * m..(i + 1) * m];
            for q in 0..m {
                row[q] = 1.0 / (self.qt[q] + r * self.omt[q]);
            }
        }
    }
}

/// Four-lane dot product — the quadrature sums at a leaf are short
/// (`m = ⌈l_max/2⌉`) serial reductions, so splitting the accumulator
/// breaks the add-latency chain. Deterministic: the fold order depends
/// only on the slice lengths.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let ra = ca.remainder();
    let rb = cb.remainder();
    for (x, y) in ca.zip(cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Phase 1 for one tree (already installed by `Scratch::prepare`): derives
/// every distinct state the `rows` samples of the chunk (transposed into
/// `s.xt`) reach, memoizing the leaf credits and child links [`replay`]
/// follows. Returns the number of states derived, leaf states included.
fn derive_states(tree: &SoaTree, rows: usize, s: &mut Scratch) -> u64 {
    s.states.clear();
    if tree.is_leaf(0) || rows == 0 {
        // Single-node tree: no features to credit.
        return 0;
    }
    let m = s.m;
    let stride = s.levels;
    s.idx.clear();
    s.idx.extend(0..rows as u32);
    let mut leaf_states = 0;
    s.frames.clear();
    s.frames.push(Frame {
        node: 0,
        depth: 0,
        parent_len: 0,
        feature: NONE,
        merged_slot: NONE,
        one: 1.0,
        ratio: 1.0,
        lo: 0,
        hi: rows as u32,
        parent: NONE,
        slot: 0,
    });
    while let Some(fr) = s.frames.pop() {
        let depth = fr.depth as usize;
        let ebase = depth * stride;
        let vbase = depth * m;
        let mut len = fr.parent_len as usize;
        if depth == 0 {
            // Root: empty path — seed each lane with its quadrature
            // weight, so leaf sums integrate by summing lanes directly.
            s.v[vbase..vbase + m].copy_from_slice(&s.qw[..m]);
        } else {
            // Derive this depth's path and product from the parent's
            // buffers one level up, which stay intact while the whole
            // subtree is processed (descendants only write deeper levels).
            let psrc = (depth - 1) * stride;
            s.elems.copy_within(psrc..psrc + len, ebase);
            let qt = &s.qt[..m];
            let omt = &s.omt[..m];
            let (lo, hi) = s.v.split_at_mut(vbase);
            let pv = &lo[vbase - m..];
            let vrow = &mut hi[..m];
            if fr.merged_slot == NONE {
                let r = fr.ratio;
                s.elems[ebase + len] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if fr.one != 0.0 { r } else { -r },
                };
                len += 1;
                if fr.one != 0.0 {
                    // Stage the node's precomputed inverse row in this
                    // depth's slot, so leaf dots read one resident arena.
                    let src = fr.node as usize * m;
                    let irow_src = &s.iu[src..src + m];
                    let irow = &mut s.riu[vbase..vbase + m];
                    for q in 0..m {
                        vrow[q] = pv[q] * (qt[q] + r * omt[q]);
                        irow[q] = irow_src[q];
                    }
                } else {
                    // Absent-branch elements never dereference a row.
                    for q in 0..m {
                        vrow[q] = pv[q] * (r * omt[q]);
                    }
                }
            } else {
                // The feature already sits on the path: a feature's
                // presence decision is made once, so the two occurrences
                // merge — fractions multiply, and the product swaps the
                // old factor for the merged one.
                let k = ebase + fr.merged_slot as usize;
                let old = s.elems[k];
                let old_zero = old.zero.abs();
                let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
                let one = old_one * fr.one;
                let zero = old_zero * fr.ratio;
                s.elems[k] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if one != 0.0 { zero } else { -zero },
                };
                let irow = &mut s.riu[vbase..vbase + m];
                for q in 0..m {
                    let u_old = old_one * qt[q] + old_zero * omt[q];
                    let u_new = one * qt[q] + zero * omt[q];
                    vrow[q] = pv[q] * u_new / u_old;
                    irow[q] = 1.0 / u_new;
                }
            }
        }

        let node = fr.node as usize;
        let feature = tree.feature[node];
        let threshold = tree.threshold[node];
        let id = u32::try_from(s.states.len()).expect("TreeSHAP memo exceeds u32 state ids");
        if fr.parent != NONE {
            s.states[fr.parent as usize].next[fr.slot as usize] = id;
        }
        // Partition the state's samples, left-goers first (branch-free;
        // right-goers staged in `tmp`).
        let (lo, hi) = (fr.lo as usize, fr.hi as usize);
        let col = &s.xt[feature as usize * rows..(feature as usize + 1) * rows];
        let (mut nl, mut nr) = (0, 0);
        for i in lo..hi {
            let r = s.idx[i];
            let left = col[r as usize] <= threshold;
            s.idx[lo + nl] = r;
            s.tmp[nr] = r;
            nl += usize::from(left);
            nr += usize::from(!left);
        }
        let mid = lo + nl;
        s.idx[mid..hi].copy_from_slice(&s.tmp[..nr]);
        let merged_slot = s.elems[ebase..ebase + len]
            .iter()
            .position(|e| e.feature == feature)
            .map_or(NONE, |p| p as u32);
        // Left-goers reach the left child hot and the right child cold,
        // right-goers the reverse; each (child, hotness) pair some sample
        // takes is one child state. Per direction, leaf children emit
        // their credits cold then hot — the order the sample folds them —
        // into one contiguous range, and internal ones become frames.
        let (left, right) = (tree.left[node], tree.right[node]);
        let at = Split {
            depth,
            len,
            feature,
            merged_slot,
        };
        let mut off = [s.credits.len(); 3];
        for (d, (hot, cold, a, b)) in [(left, right, lo, mid), (right, left, mid, hi)]
            .into_iter()
            .enumerate()
        {
            if a < b {
                for (slot, child, one) in [(2 * d + 1, cold, 0.0), (2 * d, hot, 1.0)] {
                    if tree.is_leaf(child as usize) {
                        emit_leaf(tree, s, &at, child as usize, one != 0.0);
                        leaf_states += 1;
                    } else {
                        s.frames.push(Frame {
                            node: child,
                            depth: fr.depth + 1,
                            parent_len: len as u32,
                            feature,
                            merged_slot,
                            one,
                            ratio: tree.ratio[child as usize],
                            lo: a as u32,
                            hi: b as u32,
                            parent: id,
                            slot: slot as u32,
                        });
                    }
                }
            }
            off[d + 1] = s.credits.len();
        }
        s.states.push(State {
            feature,
            off,
            threshold,
            next: [NONE; 4],
        });
    }
    s.states.len() as u64 + leaf_states
}

/// The state whose leaf children are being emitted: its arena depth, path
/// length, split feature, and the path slot that feature merges into.
struct Split {
    depth: usize,
    len: usize,
    feature: u32,
    merged_slot: u32,
}

/// Emits the credits of leaf child `cnode` of the state `at`, reached hot
/// or cold, in the order the per-sample walk added them to `phi`.
fn emit_leaf(tree: &SoaTree, s: &mut Scratch, at: &Split, cnode: usize, hot_child: bool) {
    let &Split {
        depth,
        len,
        feature,
        merged_slot,
    } = at;
    let m = s.m;
    let ebase = depth * s.levels;
    let vbase = depth * m;
    let n_classes = tree.n_classes;
    let r = tree.ratio[cnode];
    // Derive the leaf's product row (and, after a merge, its inverse row)
    // from the parent's without touching the arenas.
    let own_zero;
    let own_hot;
    {
        let vrow = &s.v[vbase..vbase + m];
        let qt = &s.qt[..m];
        let omt = &s.omt[..m];
        let vleaf = &mut s.vleaf[..m];
        if merged_slot == NONE {
            own_zero = r;
            own_hot = hot_child;
            if hot_child {
                for q in 0..m {
                    vleaf[q] = vrow[q] * (qt[q] + r * omt[q]);
                }
            } else {
                for q in 0..m {
                    vleaf[q] = vrow[q] * (r * omt[q]);
                }
            }
        } else {
            let old = s.elems[ebase + merged_slot as usize];
            let old_zero = old.zero.abs();
            let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
            let one_m = if hot_child { old_one } else { 0.0 };
            own_zero = old_zero * r;
            own_hot = one_m != 0.0;
            let rleaf = &mut s.rleaf[..m];
            for q in 0..m {
                let u_old = old_one * qt[q] + old_zero * omt[q];
                let u_new = one_m * qt[q] + own_zero * omt[q];
                vleaf[q] = vrow[q] * u_new / u_old;
                rleaf[q] = 1.0 / u_new;
            }
        }
    }
    // V carries ω_q, so the shared absent-feature integral is
    // Σ_q V_q/(1−t_q) (each feature's own zero fraction cancels
    // algebraically).
    let vleaf = &s.vleaf[..m];
    let s_cold = dot(&s.ic[..m], vleaf);
    let (classes, vals) = tree.leaf_nonzero(cnode);
    // Every absent element credits this leaf by the same `−s_cold · v`
    // products, computed once per leaf.
    let svc = &mut s.svc[..vals.len()];
    for (c, &v) in svc.iter_mut().zip(vals) {
        *c = -s_cold * v;
    }
    let svc = &s.svc[..vals.len()];
    let skip = if merged_slot == NONE {
        usize::MAX
    } else {
        merged_slot as usize
    };
    for (idx, e) in s.elems[ebase..ebase + len].iter().enumerate() {
        if idx == skip {
            continue;
        }
        let f = e.feature * n_classes as u32;
        if e.zero < 0.0 {
            for (&c, &sv) in classes.iter().zip(svc) {
                s.credits.push(f + c, sv);
            }
        } else {
            let off = e.src as usize * m;
            let scale = (1.0 - e.zero) * dot(vleaf, &s.riu[off..off + m]);
            for (&c, &v) in classes.iter().zip(vals) {
                s.credits.push(f + c, scale * v);
            }
        }
    }
    // The split feature's own element at this leaf.
    let f = feature * n_classes as u32;
    if !own_hot {
        for (&c, &sv) in classes.iter().zip(svc) {
            s.credits.push(f + c, sv);
        }
    } else {
        let own_scale = if merged_slot == NONE {
            let src = cnode * m;
            (1.0 - own_zero) * dot(vleaf, &s.iu[src..src + m])
        } else {
            (1.0 - own_zero) * dot(vleaf, &s.rleaf[..m])
        };
        for (&c, &v) in classes.iter().zip(vals) {
            s.credits.push(f + c, own_scale * v);
        }
    }
}

/// Phase 2 for one sample `x`: adds its credits for the tree whose memo
/// `s` holds into the (zeroed) compact `phi`. States are visited in the
/// per-sample walk's order — at each, leaf children fold cold then hot,
/// and the hot subtree runs before the cold one — so every slot sums the
/// same credits in the same order as that walk.
fn replay(s: &mut Scratch, x: &[f64]) {
    let Scratch {
        states,
        credits,
        stack,
        phi,
        ..
    } = s;
    if states.is_empty() {
        return;
    }
    // Descend into the hot child directly and keep only cold children
    // pending, so the hot subtree runs first and the cold one after it.
    let mut cur = 0u32;
    let mut top = 0;
    loop {
        let st = &states[cur as usize];
        let d = if x[st.feature as usize] <= st.threshold {
            0
        } else {
            1
        };
        let (lo, hi) = (st.off[d] as usize, st.off[d + 1] as usize);
        for (&k, &v) in credits.slot[lo..hi].iter().zip(&credits.val[lo..hi]) {
            phi[k as usize] += v;
        }
        // A NONE cold child is written but not kept.
        let (hot, cold) = (st.next[2 * d], st.next[2 * d + 1]);
        stack[top] = cold;
        top += usize::from(cold != NONE);
        if hot != NONE {
            cur = hot;
        } else if top > 0 {
            top -= 1;
            cur = stack[top];
        } else {
            break;
        }
    }
}

/// Explains the `rows` rows of the row-major chunk `x` through `trees`,
/// writing each row's tree-averaged flat `features × classes` SHAP buffer
/// into `out`. Tree-major: each tree is prepared and derived once for the
/// whole chunk, while each row's accumulator folds trees in strict forest
/// order. Returns the number of states derived.
fn explain_chunk(
    trees: &[SoaTree],
    x: &[f64],
    rows: usize,
    s: &mut Scratch,
    out: &mut [f64],
) -> u64 {
    out.fill(0.0);
    if out.is_empty() {
        return 0;
    }
    let (nf, fc) = (x.len() / rows, out.len() / rows);
    s.xt.clear();
    s.xt.resize(x.len(), 0.0);
    for (r, row) in x.chunks_exact(nf).enumerate() {
        for (f, &v) in row.iter().enumerate() {
            s.xt[f * rows + r] = v;
        }
    }
    s.tmp.clear();
    s.tmp.resize(rows, 0);
    let mut states = 0;
    for tree in trees {
        s.prepare(tree);
        states += derive_states(tree, rows, s);
        s.phi.clear();
        s.phi.resize(s.credits.touched.len(), 0.0);
        for (row, acc) in x.chunks_exact(nf).zip(out.chunks_exact_mut(fc)) {
            replay(s, row);
            // Fold the row's sums for this tree into its accumulator and
            // re-zero them for the next row. A slot the tree never credits
            // would add +0.0, which changes no bit: accumulators start at
            // +0.0, and a sum with a +0.0 operand is never −0.0.
            for (&i, p) in s.credits.touched.iter().zip(&mut s.phi) {
                acc[i as usize] += *p;
                *p = 0.0;
            }
        }
    }
    let inv = 1.0 / trees.len().max(1) as f64;
    for a in out.iter_mut() {
        *a *= inv;
    }
    states
}

/// Unflattens a row-major `features × classes` buffer into the historical
/// `phi[feature][class]` shape.
fn unflatten(flat: &[f64], n_features: usize, n_classes: usize) -> Vec<Vec<f64>> {
    (0..n_features)
        .map(|f| flat[f * n_classes..(f + 1) * n_classes].to_vec())
        .collect()
}

/// TreeSHAP explanation of one tree for one sample.
///
/// Returns `phi[feature][class]`; together with the base value (the
/// cover-weighted expectation, i.e. the root's class distribution) these
/// satisfy local accuracy:
/// `Σ_f phi[f][c] + base[c] = predict_proba(x)[c]`.
///
/// ```
/// use icn_forest::{DecisionTree, TrainSet, TreeConfig};
/// use icn_shap::tree_shap;
/// use icn_stats::{Matrix, Rng};
/// let ts = TrainSet::new(
///     Matrix::from_rows(&[vec![0.0], vec![0.2], vec![0.9], vec![1.0]]),
///     vec![0, 0, 1, 1],
/// );
/// let rows: Vec<usize> = (0..4).collect();
/// let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut Rng::seed_from(1));
/// let x = [0.95];
/// let phi = tree_shap(&tree, &x);
/// let base = &tree.nodes[0].distribution;
/// let pred = tree.predict_proba(&x);
/// for c in 0..2 {
///     assert!((phi[0][c] + base[c] - pred[c]).abs() < 1e-12); // local accuracy
/// }
/// ```
pub fn tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<Vec<f64>> {
    assert_eq!(x.len(), tree.n_features, "tree_shap: feature mismatch");
    let trees = [SoaTree::from_tree(tree)];
    let mut scratch = Scratch::new(&trees, 1);
    let mut phi = vec![0.0f64; tree.n_features * tree.n_classes];
    explain_chunk(&trees, x, 1, &mut scratch, &mut phi);
    unflatten(&phi, tree.n_features, tree.n_classes)
}

/// The base (expected) value of a tree: its output with every feature
/// absent — the cover-weighted average over leaves, which for our trees is
/// simply the root's class distribution.
fn base_value(tree: &DecisionTree) -> Vec<f64> {
    crate::exact::tree_expectation(
        tree,
        &vec![0.0; tree.n_features],
        &vec![false; tree.n_features],
    )
}

/// TreeSHAP explanation of a random forest for one sample: the average of
/// per-tree explanations (Shapley values are linear in the model).
/// Returns `phi[feature][class]`.
///
/// Freezes the forest into [`SoaForest`] form first; callers explaining
/// many samples should freeze once and use [`forest_shap_batch_soa`].
pub fn forest_shap(forest: &RandomForest, x: &[f64]) -> Vec<Vec<f64>> {
    forest_shap_soa(&SoaForest::from_forest(forest), x)
}

/// [`forest_shap`] over an already-frozen forest: the batch kernel on a
/// batch of one.
pub fn forest_shap_soa(forest: &SoaForest, x: &[f64]) -> Vec<Vec<f64>> {
    assert_eq!(x.len(), forest.n_features, "forest_shap: feature mismatch");
    let mut scratch = Scratch::new(&forest.trees, 1);
    let mut phi = vec![0.0f64; forest.n_features * forest.n_classes];
    explain_chunk(&forest.trees, x, 1, &mut scratch, &mut phi);
    unflatten(&phi, forest.n_features, forest.n_classes)
}

/// Forest base values: mean of per-tree base values.
pub fn forest_base_value(forest: &RandomForest) -> Vec<f64> {
    let mut acc = vec![0.0f64; forest.n_classes];
    for tree in &forest.trees {
        for (a, b) in acc.iter_mut().zip(base_value(tree)) {
            *a += b;
        }
    }
    let inv = 1.0 / forest.trees.len() as f64;
    acc.iter().map(|v| v * inv).collect()
}

/// SHAP values of a forest for **all output classes** across a batch of
/// samples in one parallel pass: returns one `samples × features` matrix
/// per class — the shape the Figure 5 beeswarm plots consume. The tree
/// work is shared across classes and across the samples of a chunk.
pub fn forest_shap_batch(forest: &RandomForest, x: &Matrix) -> Vec<Matrix> {
    assert_eq!(x.cols(), forest.n_features, "feature mismatch");
    forest_shap_batch_soa(&SoaForest::from_forest(forest), x)
}

/// [`forest_shap_batch`] over an already-frozen forest — the stage-3 hot
/// path. Samples are processed in parallel chunks, each tree-major
/// through the two-phase kernel (see the module docs). Each worker's
/// scratch, memo included, is allocated here on the dispatching thread
/// and lent to the chunks, so its memory comes from — and returns to —
/// one allocator arena. Chunk boundaries never enter any floating-point
/// expression, so results are bit-identical for every thread count and
/// chunk size.
pub fn forest_shap_batch_soa(forest: &SoaForest, x: &Matrix) -> Vec<Matrix> {
    assert_eq!(x.cols(), forest.n_features, "feature mismatch");
    let _span = icn_obs::Span::enter("shap_batch");
    let obs = icn_obs::global();
    let started = obs.is_enabled().then(std::time::Instant::now);

    let n = x.rows();
    let (nf, nc) = (forest.n_features, forest.n_classes);
    let fc = nf * nc;
    let chunk = shap_chunk_size(n);
    let workers = par::thread_count().min(n.div_ceil(chunk)).max(1);
    let pool = Mutex::new(
        (0..workers)
            .map(|_| Scratch::new(&forest.trees, chunk))
            .collect::<Vec<_>>(),
    );
    let states = AtomicU64::new(0);
    let mut flat = vec![0.0f64; n * fc];
    // With no feature × class slot there is nothing to fill; the width
    // only has to be nonzero.
    let stride = fc.max(1);
    par::fill_chunks(&mut flat, chunk * stride, |range, out| {
        let rows = range.start / stride..range.end / stride;
        let mut chunk_span = icn_obs::Span::enter("shap_chunk");
        chunk_span.attr("start", rows.start as u64);
        chunk_span.attr("samples", rows.len() as u64);
        let chunk_t0 = chunk_span.path().is_some().then(std::time::Instant::now);
        // At most `workers` chunks run at once, so the pool never runs dry.
        let mut scratch = pool
            .lock()
            .expect("shap scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| Scratch::new(&forest.trees, chunk));
        let xs = &x.as_slice()[rows.start * nf..rows.end * nf];
        let derived = explain_chunk(&forest.trees, xs, rows.len(), &mut scratch, out);
        pool.lock()
            .expect("shap scratch pool poisoned")
            .push(scratch);
        states.fetch_add(derived, Ordering::Relaxed);
        if let Some(t0) = chunk_t0 {
            obs.record_hist("shap.chunk_ns", t0.elapsed().as_nanos() as u64);
        }
    });

    // One flush for the whole batch. The walk a sample would take alone
    // visits every node of every tree with a split; the ratio of those
    // visits to the states phase 1 derived is the sharing the kernel
    // lives on.
    let visits: usize = forest
        .trees
        .iter()
        .filter(|t| !t.is_leaf(0))
        .map(SoaTree::num_nodes)
        .sum();
    obs.add_counter("shap.tree_walks", (n * forest.trees.len()) as u64);
    obs.add_counter("shap.node_visits", (n * visits) as u64);
    obs.add_counter("shap.walk_states", states.into_inner());
    if let Some(t0) = started {
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            obs.set_gauge("shap.samples_per_sec", n as f64 / secs);
        }
    }

    // `flat` is `[sample][feature][class]`, so every `nc`-th value from `c`
    // on is class `c`'s `samples × features` matrix in row-major order.
    (0..nc)
        .map(|c| Matrix::from_vec(n, nf, flat.iter().skip(c).step_by(nc).copied().collect()))
        .collect()
}

/// Sample-chunk width for the batched SHAP kernel: wide enough that many
/// samples share each walk state, narrow enough to load-balance chunks
/// across workers. Never affects results.
fn shap_chunk_size(n: usize) -> usize {
    (n / par::thread_count()).clamp(16, 4096)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_tree_shap;
    use icn_forest::{ForestConfig, TrainSet, TreeConfig};
    use icn_stats::{Matrix, Rng};

    fn training_set(seed: u64, m: usize, n: usize) -> TrainSet {
        let mut rng = Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..m).map(|_| rng.uniform(0.0, 1.0)).collect();
            // Nonlinear 3-class rule over the first three features.
            let score = x[0] + 0.7 * x[1 % m] - 0.5 * x[2 % m];
            let label = if score > 0.9 {
                2
            } else if score > 0.5 {
                1
            } else {
                0
            };
            rows.push(x);
            labels.push(label);
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    fn fit_tree(ts: &TrainSet, seed: u64) -> icn_forest::DecisionTree {
        let all: Vec<usize> = (0..ts.len()).collect();
        icn_forest::DecisionTree::fit(ts, &all, &TreeConfig::default(), &mut Rng::seed_from(seed))
    }

    #[test]
    fn matches_exact_enumeration() {
        // The heart of the validation: TreeSHAP == brute-force Shapley.
        for seed in [1u64, 2, 3] {
            let ts = training_set(seed, 5, 80);
            let tree = fit_tree(&ts, seed);
            for i in (0..ts.len()).step_by(17) {
                let x = ts.x.row(i);
                let fast = tree_shap(&tree, x);
                let (slow, _) = exact_tree_shap(&tree, x);
                for f in 0..5 {
                    for c in 0..tree.n_classes {
                        assert!(
                            (fast[f][c] - slow[f][c]).abs() < 1e-9,
                            "seed {seed} sample {i} feature {f} class {c}: {} vs {}",
                            fast[f][c],
                            slow[f][c]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_accuracy_single_tree() {
        let ts = training_set(4, 6, 100);
        let tree = fit_tree(&ts, 4);
        let base = base_value(&tree);
        for i in (0..ts.len()).step_by(13) {
            let x = ts.x.row(i);
            let phi = tree_shap(&tree, x);
            let pred = tree.predict_proba(x);
            for c in 0..tree.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "sample {i} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        }
    }

    #[test]
    fn local_accuracy_forest() {
        let ts = training_set(5, 6, 120);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 12,
                ..ForestConfig::default()
            },
        );
        let base = forest_base_value(&forest);
        for i in (0..ts.len()).step_by(29) {
            let x = ts.x.row(i);
            let phi = forest_shap(&forest, x);
            let pred = forest.predict_proba(x);
            for c in 0..forest.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "sample {i} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        }
    }

    #[test]
    fn repeated_feature_on_path_handled() {
        // Deep tree on a single feature: splits reuse the same feature at
        // several depths, exercising the merge/imu branch.
        let mut rng = Rng::seed_from(6);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..100 {
            let v = rng.uniform(0.0, 4.0);
            rows.push(vec![v]);
            labels.push((v as usize).min(3));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let tree = fit_tree(&ts, 6);
        assert!(tree.depth() >= 2, "need depth to reuse the feature");
        let base = base_value(&tree);
        for x in [[0.5], [1.5], [2.5], [3.5]] {
            let phi = tree_shap(&tree, &x);
            let pred = tree.predict_proba(&x);
            for c in 0..tree.n_classes {
                let total = phi[0][c] + base[c];
                assert!((total - pred[c]).abs() < 1e-9, "x {x:?} class {c}");
            }
        }
    }

    #[test]
    fn repeated_feature_matches_exact_enumeration() {
        // Two features, deep tree: features recur along paths in both hot
        // and cold positions, covering every merge combination against the
        // 2^M oracle.
        let mut rng = Rng::seed_from(13);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..150 {
            let a = rng.uniform(0.0, 4.0);
            let b = rng.uniform(0.0, 4.0);
            rows.push(vec![a, b]);
            labels.push(((a + b) as usize / 2).min(3));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let tree = fit_tree(&ts, 13);
        for i in (0..ts.len()).step_by(11) {
            let x = ts.x.row(i);
            let fast = tree_shap(&tree, x);
            let (slow, _) = exact_tree_shap(&tree, x);
            for f in 0..2 {
                for c in 0..tree.n_classes {
                    assert!(
                        (fast[f][c] - slow[f][c]).abs() < 1e-9,
                        "sample {i} feature {f} class {c}: {} vs {}",
                        fast[f][c],
                        slow[f][c]
                    );
                }
            }
        }
    }

    #[test]
    fn stump_tree_returns_zero_phi() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![1.0]]), vec![0, 0]);
        let tree = fit_tree(&ts, 7);
        assert!(tree.nodes[0].is_leaf());
        let phi = tree_shap(&tree, &[1.0]);
        assert_eq!(phi, vec![vec![0.0]]);
    }

    #[test]
    fn class_matrix_shape_and_content() {
        let ts = training_set(8, 4, 60);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 6,
                ..ForestConfig::default()
            },
        );
        let m = forest_shap_batch(&forest, &ts.x).swap_remove(1);
        assert_eq!(m.shape(), (60, 4));
        // Spot-check one row against the per-sample API.
        let phi = forest_shap(&forest, ts.x.row(7));
        for f in 0..4 {
            assert_eq!(m.get(7, f).to_bits(), phi[f][1].to_bits());
        }
    }

    #[test]
    fn base_value_is_class_prior() {
        let ts = training_set(9, 4, 200);
        let tree = fit_tree(&ts, 9);
        let base = base_value(&tree);
        // Base = training-class proportions at the root.
        let mut prior = vec![0.0; tree.n_classes];
        for &y in &ts.y {
            prior[y] += 1.0 / ts.len() as f64;
        }
        for (b, p) in base.iter().zip(&prior) {
            assert!((b - p).abs() < 1e-9);
        }
    }

    #[test]
    fn scratch_reuse_across_dissimilar_trees() {
        // One Scratch must serve trees of different depths, quadrature
        // orders and chunk widths back to back (the batch reuses it across
        // a worker's chunks and trees); stale arena or memo contents must
        // never leak into a later chunk.
        let deep_ts = training_set(10, 5, 150);
        let deep = [SoaTree::from_tree(&fit_tree(&deep_ts, 10))];
        let shallow_ts = training_set(11, 5, 12);
        let shallow = [SoaTree::from_tree(&fit_tree(&shallow_ts, 11))];
        let x = &deep_ts.x.as_slice()[..5 * 40];
        let x1 = deep_ts.x.row(3);
        let fc = |t: &[SoaTree]| 5 * t[0].n_classes;
        let mut scratch = Scratch::new(&shallow, 1);
        // Dirty the arena and memo with a wide chunk of the deep tree,
        // then explain one sample through the shallow one.
        let mut wide = vec![0.0f64; 40 * fc(&deep)];
        explain_chunk(&deep, x, 40, &mut scratch, &mut wide);
        let mut reused = vec![0.0f64; fc(&shallow)];
        explain_chunk(&shallow, x1, 1, &mut scratch, &mut reused);
        let mut fresh = vec![0.0f64; fc(&shallow)];
        explain_chunk(&shallow, x1, 1, &mut Scratch::new(&shallow, 1), &mut fresh);
        for (a, b) in reused.iter().zip(&fresh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_soa_matches_per_sample_bitwise() {
        let ts = training_set(12, 5, 90);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            },
        );
        let soa = SoaForest::from_forest(&forest);
        let batched = forest_shap_batch_soa(&soa, &ts.x);
        for i in 0..ts.len() {
            let phi = forest_shap_soa(&soa, ts.x.row(i));
            for c in 0..forest.n_classes {
                for f in 0..forest.n_features {
                    assert_eq!(
                        batched[c].get(i, f).to_bits(),
                        phi[f][c].to_bits(),
                        "sample {i} class {c} feature {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_accuracy_random_trees() {
        use icn_stats::check::{cases, len_in};
        cases(24, |case, rng| {
            let n = len_in(rng, 20, 80);
            let d = len_in(rng, 2, 6);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.uniform(0.0, 1.0)).collect())
                .collect();
            let mut labels: Vec<usize> = rows
                .iter()
                .map(|r| {
                    let s: f64 = r.iter().take(2).sum();
                    usize::from(s > 1.0)
                })
                .collect();
            labels[0] = 0;
            labels[n - 1] = 1;
            let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
            let all: Vec<usize> = (0..ts.len()).collect();
            let tree = DecisionTree::fit(&ts, &all, &TreeConfig::default(), rng);
            let base = base_value(&tree);
            let x = ts.x.row(rng.index(n));
            let phi = tree_shap(&tree, x);
            let pred = tree.predict_proba(x);
            for c in 0..tree.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "case {case} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        });
    }
}
