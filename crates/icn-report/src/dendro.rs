//! Text dendrogram rendering (Figure 3).
//!
//! The full 4,762-leaf dendrogram is unreadable in text, so — like the
//! paper's figure, which annotates the cluster structure — we render the
//! *top* of the hierarchy: the tree over the k cluster roots, with each
//! root annotated by its size, plus the distance thresholds for the k = 6
//! and k = 9 cuts.

use icn_cluster::MergeHistory;
use std::fmt::Write as _;

/// Renders the hierarchy over the cluster roots at `k`, one line per node,
/// indented by depth, heights annotated. Cluster roots are labelled with
/// their cut label (size order) and member count.
pub fn render_top(history: &MergeHistory, k: usize) -> String {
    let roots = history.roots_at_k(k);
    let labels = history.cut(k);
    let mut out = String::new();
    let (lo, hi) = history.cut_band(k);
    let _ = writeln!(
        out,
        "dendrogram top (k={k}; cut threshold between heights {:.4} and {:.4})",
        lo, hi
    );

    // Recursive print from the overall root, stopping at cluster roots.
    fn rec(
        h: &MergeHistory,
        node: usize,
        depth: usize,
        roots: &[usize],
        labels: &[usize],
        out: &mut String,
    ) {
        let indent = "  ".repeat(depth);
        if roots.contains(&node) {
            // A root's cut label is its first leaf's.
            let size = if node < h.n {
                1
            } else {
                h.merges[node - h.n].size
            };
            let _ = writeln!(
                out,
                "{indent}cluster {} ({} antennas)",
                labels[h.leaves_under(node)[0]],
                size
            );
            return;
        }
        let m = h.merges[node - h.n];
        let _ = writeln!(out, "{indent}+- merge @ {:.4}", m.height);
        rec(h, m.a, depth + 1, roots, labels, out);
        rec(h, m.b, depth + 1, roots, labels, out);
    }
    rec(history, history.root(), 0, &roots, &labels, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_cluster::{agglomerate, Linkage};
    use icn_stats::{Matrix, Rng};

    fn dendro() -> MergeHistory {
        let mut rng = Rng::seed_from(77);
        let mut rows = Vec::new();
        for c in 0..3 {
            for _ in 0..8 {
                rows.push(vec![rng.normal(c as f64 * 10.0, 0.5), rng.normal(0.0, 0.5)]);
            }
        }
        let m = Matrix::from_rows(&rows);
        agglomerate(&m, Linkage::Ward)
    }

    #[test]
    fn renders_k_cluster_lines() {
        let d = dendro();
        let s = render_top(&d, 3);
        let cluster_lines = s.lines().filter(|l| l.contains("cluster ")).count();
        assert_eq!(cluster_lines, 3);
        assert!(s.contains("antennas)"));
    }

    #[test]
    fn sizes_sum_to_leaves() {
        let d = dendro();
        let s = render_top(&d, 3);
        let total: usize = s
            .lines()
            .filter_map(|l| {
                let open = l.find('(')?;
                let close = l.find(" antennas")?;
                l[open + 1..close].parse::<usize>().ok()
            })
            .sum();
        assert_eq!(total, d.n);
    }

    #[test]
    fn header_mentions_thresholds() {
        let d = dendro();
        let s = render_top(&d, 2);
        assert!(s.starts_with("dendrogram top (k=2"));
        assert!(s.contains("cut threshold"));
    }
}
