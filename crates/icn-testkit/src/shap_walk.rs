//! The per-sample TreeSHAP walk — the bit-exact oracle of the batch kernel.
//!
//! This is the quadrature kernel exactly as it ran before
//! `icn_shap::forest_shap_batch` became two-phase: every sample walks
//! every node of every tree on its own, deriving the per-depth path and
//! product rows from its parent's and folding each leaf child's credits
//! into `phi` as soon as the parent is processed. The two-phase kernel
//! computes each distinct walk state once per chunk and replays the
//! memoized credits, so it must reproduce this walk **bit for bit** —
//! same f64 values, added in the same order. Keep the arithmetic here
//! untouched: any edit to an expression or an addition order turns the
//! oracle into a different function.

use icn_forest::{DecisionTree, RandomForest};
use icn_shap::gauss_legendre_01;

/// Marker for "no node / no slot" in `u32` fields.
const NONE: u32 = u32::MAX;

/// One unique feature on the current root→node path.
#[derive(Clone, Copy, Debug)]
struct PathElem {
    /// Feature index.
    feature: u32,
    /// Depth whose row of the per-depth `riu` arena holds this element's
    /// inverse row (meaningful while the element is present-branch).
    src: u32,
    /// Product of cover ratios over the feature's occurrences, negated
    /// once any occurrence left the sample's branch.
    zero: f64,
}

const EMPTY_ELEM: PathElem = PathElem {
    feature: NONE,
    src: NONE,
    zero: 0.0,
};

/// One pending node visit of the iterative descent.
#[derive(Clone, Copy, Debug)]
struct Frame {
    node: u32,
    depth: u32,
    parent_len: u32,
    feature: u32,
    merged_slot: u32,
    one: f64,
    ratio: f64,
}

/// Per-walk arenas and the per-tree quadrature tables.
struct Scratch {
    elem_stride: usize,
    m: usize,
    elems: Vec<PathElem>,
    v: Vec<f64>,
    riu: Vec<f64>,
    vleaf: Vec<f64>,
    rleaf: Vec<f64>,
    svc: Vec<f64>,
    stack: Vec<Frame>,
    qt: Vec<f64>,
    qw: Vec<f64>,
    omt: Vec<f64>,
    ic: Vec<f64>,
    iu: Vec<f64>,
}

impl Scratch {
    /// Arenas and tables for `tree`: rule order `⌈max_unique_path/2⌉` and
    /// the per-node inverse rows `1/(t_q + ratio·(1−t_q))`.
    fn for_tree(tree: &DecisionTree) -> Scratch {
        let levels = tree.max_depth + 1;
        let m = tree.max_unique_path.div_ceil(2).max(1);
        let (qt, qw) = gauss_legendre_01(m);
        let omt: Vec<f64> = qt.iter().map(|&t| 1.0 - t).collect();
        let ic: Vec<f64> = omt.iter().map(|&o| 1.0 / o).collect();
        let n = tree.num_nodes();
        let mut iu = vec![0.0; n * m];
        for i in 0..n {
            let r = tree.ratio[i];
            for q in 0..m {
                iu[i * m + q] = 1.0 / (qt[q] + r * omt[q]);
            }
        }
        Scratch {
            elem_stride: levels,
            m,
            elems: vec![EMPTY_ELEM; levels * levels],
            v: vec![0.0; levels * m],
            riu: vec![0.0; levels * m],
            vleaf: vec![0.0; m],
            rleaf: vec![0.0; m],
            svc: vec![0.0; tree.n_classes],
            stack: Vec::new(),
            qt,
            qw,
            omt,
            ic,
            iu,
        }
    }
}

/// Four-lane dot product with a fold order fixed by the slice lengths.
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

/// Walks one tree for one sample, writing the flat row-major
/// `phi[feature * n_classes + class]` (zeroed first).
fn walk(tree: &DecisionTree, x: &[f64], scratch: &mut Scratch, phi: &mut [f64]) {
    phi.fill(0.0);
    if tree.is_leaf(0) {
        return;
    }
    let m = scratch.m;
    let stride = scratch.elem_stride;
    let n_classes = tree.n_classes;
    scratch.stack.clear();
    scratch.stack.push(Frame {
        node: 0,
        depth: 0,
        parent_len: 0,
        feature: NONE,
        merged_slot: NONE,
        one: 1.0,
        ratio: 1.0,
    });
    while let Some(fr) = scratch.stack.pop() {
        let depth = fr.depth as usize;
        let ebase = depth * stride;
        let vbase = depth * m;
        let mut len = fr.parent_len as usize;
        if depth == 0 {
            scratch.v[vbase..vbase + m].copy_from_slice(&scratch.qw[..m]);
        } else {
            let psrc = (depth - 1) * stride;
            scratch.elems.copy_within(psrc..psrc + len, ebase);
            let qt = &scratch.qt[..m];
            let omt = &scratch.omt[..m];
            let (lo, hi) = scratch.v.split_at_mut(vbase);
            let pv = &lo[vbase - m..];
            let vrow = &mut hi[..m];
            if fr.merged_slot == NONE {
                let r = fr.ratio;
                scratch.elems[ebase + len] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if fr.one != 0.0 { r } else { -r },
                };
                len += 1;
                if fr.one != 0.0 {
                    let src = fr.node as usize * m;
                    let irow_src = &scratch.iu[src..src + m];
                    let irow = &mut scratch.riu[vbase..vbase + m];
                    for q in 0..m {
                        vrow[q] = pv[q] * (qt[q] + r * omt[q]);
                        irow[q] = irow_src[q];
                    }
                } else {
                    for q in 0..m {
                        vrow[q] = pv[q] * (r * omt[q]);
                    }
                }
            } else {
                let k = ebase + fr.merged_slot as usize;
                let old = scratch.elems[k];
                let old_zero = old.zero.abs();
                let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
                let one = old_one * fr.one;
                let zero = old_zero * fr.ratio;
                scratch.elems[k] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if one != 0.0 { zero } else { -zero },
                };
                let irow = &mut scratch.riu[vbase..vbase + m];
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
        let (hot, cold) = if x[feature as usize] <= tree.threshold[node] {
            (tree.left[node], tree.right[node])
        } else {
            (tree.right[node], tree.left[node])
        };
        let merged_slot = scratch.elems[ebase..ebase + len]
            .iter()
            .position(|e| e.feature == feature)
            .map_or(NONE, |p| p as u32);
        // Cold pushed below hot, so the hot subtree is processed first;
        // leaf children are folded right here, cold before hot.
        for (child, one) in [(cold, 0.0f64), (hot, 1.0f64)] {
            let cnode = child as usize;
            let r = tree.ratio[cnode];
            if !tree.is_leaf(cnode) {
                scratch.stack.push(Frame {
                    node: child,
                    depth: fr.depth + 1,
                    parent_len: len as u32,
                    feature,
                    merged_slot,
                    one,
                    ratio: r,
                });
                continue;
            }
            let hot_child = one != 0.0;
            let own_zero;
            let own_hot;
            {
                let vrow = &scratch.v[vbase..vbase + m];
                let qt = &scratch.qt[..m];
                let omt = &scratch.omt[..m];
                let vleaf = &mut scratch.vleaf[..m];
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
                    let old = scratch.elems[ebase + merged_slot as usize];
                    let old_zero = old.zero.abs();
                    let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
                    let one_m = if hot_child { old_one } else { 0.0 };
                    own_zero = old_zero * r;
                    own_hot = one_m != 0.0;
                    let rleaf = &mut scratch.rleaf[..m];
                    for q in 0..m {
                        let u_old = old_one * qt[q] + old_zero * omt[q];
                        let u_new = one_m * qt[q] + own_zero * omt[q];
                        vleaf[q] = vrow[q] * u_new / u_old;
                        rleaf[q] = 1.0 / u_new;
                    }
                }
            }
            let vleaf = &scratch.vleaf[..m];
            let s_cold = dot(&scratch.ic[..m], vleaf);
            let (classes, vals) = tree.leaf_nonzero(cnode);
            let svc = &mut scratch.svc[..vals.len()];
            for (s, &v) in svc.iter_mut().zip(vals) {
                *s = -s_cold * v;
            }
            let svc = &scratch.svc[..vals.len()];
            let skip = if merged_slot == NONE {
                usize::MAX
            } else {
                merged_slot as usize
            };
            for (idx, e) in scratch.elems[ebase..ebase + len].iter().enumerate() {
                if idx == skip {
                    continue;
                }
                let f = e.feature as usize * n_classes;
                if e.zero < 0.0 {
                    for (&c, &s) in classes.iter().zip(svc) {
                        phi[f + c as usize] += s;
                    }
                } else {
                    let off = e.src as usize * m;
                    let scale = (1.0 - e.zero) * dot(vleaf, &scratch.riu[off..off + m]);
                    for (&c, &v) in classes.iter().zip(vals) {
                        phi[f + c as usize] += scale * v;
                    }
                }
            }
            let f = feature as usize * n_classes;
            if !own_hot {
                for (&c, &s) in classes.iter().zip(svc) {
                    phi[f + c as usize] += s;
                }
            } else {
                let own_scale = if merged_slot == NONE {
                    let src = cnode * m;
                    (1.0 - own_zero) * dot(vleaf, &scratch.iu[src..src + m])
                } else {
                    (1.0 - own_zero) * dot(vleaf, &scratch.rleaf[..m])
                };
                for (&c, &v) in classes.iter().zip(vals) {
                    phi[f + c as usize] += own_scale * v;
                }
            }
        }
    }
}

/// One tree's SHAP values for one sample by the per-sample walk, as a flat
/// row-major `features × classes` buffer.
pub fn walk_tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<f64> {
    let mut phi = vec![0.0f64; tree.n_features * tree.n_classes];
    walk(tree, x, &mut Scratch::for_tree(tree), &mut phi);
    phi
}

/// A forest's SHAP values for one sample by the per-sample walk: per-tree
/// buffers summed in forest order, then scaled by `1/T` — the flat
/// `features × classes` row the batch kernel must reproduce bit for bit.
pub fn walk_forest_shap(forest: &RandomForest, x: &[f64]) -> Vec<f64> {
    let fc = forest.n_features * forest.n_classes;
    let mut acc = vec![0.0f64; fc];
    let mut phi = vec![0.0f64; fc];
    for tree in &forest.trees {
        walk(tree, x, &mut Scratch::for_tree(tree), &mut phi);
        for (a, &p) in acc.iter_mut().zip(&phi) {
            *a += p;
        }
    }
    let inv = 1.0 / forest.trees.len().max(1) as f64;
    for a in &mut acc {
        *a *= inv;
    }
    acc
}
