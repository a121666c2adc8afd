//! Dendrogram structure over a merge history.
//!
//! Figure 3 of the paper shows the full merge hierarchy with two distance
//! thresholds highlighted (k = 6 and k = 9) and identifies three coarse
//! branch "groups" that each split into three sub-clusters. [`Dendrogram`]
//! turns a [`MergeHistory`] into a navigable binary tree supporting
//! cut-at-k, cut-at-height, leaf ordering (for heatmap column order), and
//! the group/sub-cluster relation: which k=9 clusters consolidate into
//! which k=6 (or k=3) super-clusters.

use crate::agglomerative::MergeHistory;
use std::collections::HashMap;

/// One node of the dendrogram: a leaf (original observation) or an internal
/// merge node.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Left child label (`< n` ⇒ leaf).
    pub left: usize,
    /// Right child label.
    pub right: usize,
    /// Merge height.
    pub height: f64,
    /// Number of leaves under this node.
    pub size: usize,
}

/// A navigable dendrogram built from a merge history.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    n: usize,
    nodes: Vec<Node>, // nodes[s] is the cluster labelled n + s
}

impl Dendrogram {
    /// Builds the tree. The history must be complete (n − 1 merges).
    pub fn from_history(h: &MergeHistory) -> Dendrogram {
        assert_eq!(h.merges.len(), h.n - 1, "incomplete merge history");
        let nodes = h
            .merges
            .iter()
            .map(|m| Node {
                left: m.a,
                right: m.b,
                height: m.height,
                size: m.size,
            })
            .collect();
        Dendrogram { n: h.n, nodes }
    }

    /// Number of leaves (original observations).
    pub fn num_leaves(&self) -> usize {
        self.n
    }

    /// Internal nodes in creation (height) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Label of the root cluster.
    pub fn root(&self) -> usize {
        self.n + self.nodes.len() - 1
    }

    /// All leaf indices under cluster `label`, in dendrogram order
    /// (left-to-right traversal).
    pub fn leaves_under(&self, label: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![label];
        while let Some(l) = stack.pop() {
            if l < self.n {
                out.push(l);
            } else {
                let node = self.nodes[l - self.n];
                // Push right first so left is visited first.
                stack.push(node.right);
                stack.push(node.left);
            }
        }
        out
    }

    /// Leaf ordering of the full tree — the x-axis order of Figure 3's
    /// dendrogram and Figure 4's heatmap columns.
    fn leaf_order(&self) -> Vec<usize> {
        self.leaves_under(self.root())
    }

    /// The cluster roots (node labels) obtained by cutting into `k`
    /// clusters, ordered left-to-right in the dendrogram.
    pub fn roots_at_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n, "roots_at_k: bad k");
        // The k cluster roots are found by starting from the root and
        // repeatedly splitting the highest node until k parts remain.
        let mut parts: Vec<usize> = vec![self.root()];
        while parts.len() < k {
            // Split the part whose node has the greatest height.
            let (idx, _) = parts
                .iter()
                .enumerate()
                .filter(|(_, &l)| l >= self.n)
                .max_by(|a, b| {
                    let ha = self.nodes[*a.1 - self.n].height;
                    let hb = self.nodes[*b.1 - self.n].height;
                    ha.partial_cmp(&hb).expect("finite heights")
                })
                .expect("enough internal nodes to split");
            let label = parts.remove(idx);
            let node = self.nodes[label - self.n];
            parts.insert(idx, node.right);
            parts.insert(idx, node.left);
        }
        // Order parts by dendrogram (leaf) position.
        let order = self.leaf_order();
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        parts.sort_by_key(|&label| {
            let first_leaf = *self.leaves_under(label).first().expect("non-empty");
            pos[&first_leaf]
        });
        parts
    }

    /// Per-leaf labels for a cut into `k` clusters, numbered by decreasing
    /// cluster size (matching [`MergeHistory::cut`]'s convention).
    pub fn cut(&self, k: usize) -> Vec<usize> {
        let roots = self.roots_at_k(k);
        let mut sized: Vec<(usize, usize)> = roots
            .iter()
            .map(|&r| {
                let size = if r < self.n {
                    1
                } else {
                    self.nodes[r - self.n].size
                };
                (r, size)
            })
            .collect();
        sized.sort_by_key(|&(r, size)| {
            let first = *self.leaves_under(r).first().unwrap();
            (usize::MAX - size, first)
        });
        let mut labels = vec![usize::MAX; self.n];
        for (ci, (r, _)) in sized.into_iter().enumerate() {
            for leaf in self.leaves_under(r) {
                labels[leaf] = ci;
            }
        }
        labels
    }

    /// Maps each cluster of the finer cut (`k_fine`) to its enclosing
    /// cluster of the coarser cut (`k_coarse`). Returns
    /// `map[fine_label] = coarse_label`. This is the paper's observation
    /// that moving k = 9 → 6 consolidates the orange group and merges
    /// clusters 6 and 8.
    pub fn consolidation(&self, k_fine: usize, k_coarse: usize) -> Vec<usize> {
        assert!(k_coarse <= k_fine, "consolidation: coarse must be ≤ fine");
        let fine = self.cut(k_fine);
        let coarse = self.cut(k_coarse);
        let mut map = vec![usize::MAX; k_fine];
        for i in 0..self.n {
            let f = fine[i];
            if map[f] == usize::MAX {
                map[f] = coarse[i];
            } else {
                debug_assert_eq!(map[f], coarse[i], "cuts are not nested?");
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::agglomerate;
    use crate::linkage::Linkage;
    use icn_stats::{Matrix, Rng};

    fn three_blobs() -> (Matrix, Vec<usize>) {
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
        (Matrix::from_rows(&rows), truth)
    }

    fn dendro() -> (Dendrogram, Matrix, Vec<usize>) {
        let (m, truth) = three_blobs();
        let h = agglomerate(&m, Linkage::Ward);
        (Dendrogram::from_history(&h), m, truth)
    }

    #[test]
    fn leaf_order_is_permutation() {
        let (d, m, _) = dendro();
        let mut order = d.leaf_order();
        assert_eq!(order.len(), m.rows());
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), m.rows());
    }

    #[test]
    fn cut_agrees_with_history_cut() {
        let (m, _) = three_blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let d = Dendrogram::from_history(&h);
        for k in [1, 2, 3, 5, 10] {
            assert_eq!(d.cut(k), h.cut(k), "k={k}");
        }
    }

    #[test]
    fn three_blobs_recovered_at_k3() {
        let (d, _, truth) = dendro();
        let labels = d.cut(3);
        // Same partition as the truth (up to relabelling).
        use std::collections::HashMap;
        let mut map: HashMap<usize, usize> = HashMap::new();
        for (l, t) in labels.iter().zip(&truth) {
            let e = map.entry(*l).or_insert(*t);
            assert_eq!(e, t);
        }
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn leaves_under_root_is_everything() {
        let (d, m, _) = dendro();
        assert_eq!(d.leaves_under(d.root()).len(), m.rows());
    }

    #[test]
    fn leaves_are_contiguous_per_cluster_in_leaf_order() {
        // In dendrogram leaf order, each k-cut cluster occupies one
        // contiguous span (that's what makes the Fig. 4 heatmap blocky).
        let (d, _, _) = dendro();
        let labels = d.cut(3);
        let order = d.leaf_order();
        let seq: Vec<usize> = order.iter().map(|&i| labels[i]).collect();
        let mut seen = std::collections::HashSet::new();
        let mut prev = usize::MAX;
        for l in seq {
            if l != prev {
                assert!(seen.insert(l), "cluster {l} appears in two spans");
                prev = l;
            }
        }
    }

    #[test]
    fn consolidation_is_well_defined_and_nested() {
        let (d, _, _) = dendro();
        let map = d.consolidation(5, 2);
        assert_eq!(map.len(), 5);
        assert!(map.iter().all(|&c| c < 2));
        // At least one coarse cluster hosts ≥ 2 fine clusters.
        let mut counts = [0usize; 2];
        for &c in &map {
            counts[c] += 1;
        }
        assert!(counts.iter().any(|&c| c >= 2));
    }

    #[test]
    fn roots_at_k_sizes_sum_to_n() {
        let (d, m, _) = dendro();
        for k in [2, 3, 4, 7] {
            let roots = d.roots_at_k(k);
            assert_eq!(roots.len(), k);
            let total: usize = roots.iter().map(|&r| d.leaves_under(r).len()).sum();
            assert_eq!(total, m.rows());
        }
    }

    #[test]
    #[should_panic(expected = "incomplete merge history")]
    fn incomplete_history_panics() {
        let (m, _) = three_blobs();
        let mut h = agglomerate(&m, Linkage::Ward);
        h.merges.pop();
        Dendrogram::from_history(&h);
    }

    #[test]
    fn leaf_order_is_permutation_on_random_matrices() {
        icn_stats::check::cases(48, |case, rng| {
            let n = icn_stats::check::len_in(rng, 2, 25);
            let d = icn_stats::check::len_in(rng, 1, 6);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..d)
                        .map(|_| rng.gaussian() + (i % 3) as f64 * 2.0)
                        .collect()
                })
                .collect();
            let m = Matrix::from_rows(&rows);
            let h = agglomerate(&m, Linkage::Complete);
            let d = Dendrogram::from_history(&h);
            let mut order = d.leaf_order();
            order.sort_unstable();
            order.dedup();
            assert_eq!(order.len(), m.rows(), "case {case}");
        });
    }
}
