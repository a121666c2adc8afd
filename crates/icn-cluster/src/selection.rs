//! Cluster-count selection (the Figure 2 sweep).
//!
//! The paper selects k by sweeping the agglomerative cut over a range of
//! cluster counts, computing the Silhouette score and Dunn index at each k,
//! and looking for "a high value ... followed by an abrupt drop, which
//! suggests a substantial deterioration of the intra- and inter-clustering
//! quality" (Section 4.2.1). Figure 2 shows such drops at k = 6 and k = 9;
//! the paper picks k = 9 as the steepest combined drop. This module
//! implements the sweep and the drop-detection criterion.

use crate::agglomerative::MergeHistory;
use crate::condensed::{block_start, Distances};
use icn_stats::par;

/// Points per parallel work item of the fused sweep.
const SWEEP_CHUNK: usize = 256;

/// Folds distance `v` of a pair whose higher point is in fine cluster `fj`
/// into the min/max table rows of its lower point's cluster.
#[inline]
fn pair_extremes(pmin: &mut [f64], pmax: &mut [f64], fj: usize, v: f64) {
    if v < pmin[fj] {
        pmin[fj] = v;
    }
    if v > pmax[fj] {
        pmax[fj] = v;
    }
}

/// Quality indices at one candidate k.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KQuality {
    /// Candidate number of clusters.
    pub k: usize,
    /// Mean silhouette coefficient.
    pub silhouette: f64,
    /// Dunn index.
    pub dunn: f64,
}

/// The widest cut [`sweep_k`] scores. The sweep builds `hi × hi` min/max
/// tables over the finest cut's clusters for every work item, which a
/// sweep to the paper's k = 15 keeps tiny; `IcnStudy::try_run` refuses a
/// wider `k_sweep_hi` with a typed error.
pub const MAX_SWEEP_K: usize = 256;

/// Sweeps cuts of `history` over `k_range` (inclusive) against the
/// distances in `dist` (which must be over the same observations, in any
/// metric — the paper's geometry is Euclidean, read off Ward's matrix
/// through [`crate::Condensed::sqrt_values`]).
///
/// # Fused evaluation
///
/// Scoring each k with [`crate::silhouette_score`] and [`crate::dunn_index`]
/// would walk the full O(N²) condensed matrix twice *per candidate k* —
/// 2·|range| passes. Cuts of one hierarchy are nested, so the sweep walks
/// the matrix **once**: each
/// point accumulates its distance sums per *finest* cluster (the `k = hi`
/// cut) and per-pair min/max tables over the finest clusters, then every
/// coarser k is scored by regrouping those per-fine-cluster aggregates.
///
/// The walk reads rows only. Points go in chunks of 256, one chunk per
/// parallel work item. A chunk starting at point `first` first reads, for
/// every earlier point `j`, row `j`'s contiguous segment over the chunk's
/// columns, which starts at `block_start(n, j) + first − j − 1`, and adds
/// it to the chunk's sums for
/// `j`'s fine cluster in one vectorisable pass. Then each point's own row
/// feeds its sums, the sums of later points in the chunk (one read for
/// both ends of the pair) and the pair tables. Every point's sums thus
/// take their terms in increasing `j`, exactly as a walk down its column
/// and along its row would, so the per-point sums do not depend on the
/// chunking.
///
/// Dunn regroups by min/max — exactly associative, so the values are
/// bit-identical to [`crate::dunn_index`] per k. Silhouette regroups sums,
/// which reorders additions; values agree with [`crate::silhouette_score`]
/// to within a few ulps (≲1e-12 relative — see
/// `fused_sweep_matches_direct`). Both are bit-identical at any
/// `ICN_THREADS`: per-point results are summed in index order and the pair
/// tables merge through exact min/max.
///
/// Metered as a `sweep` span.
///
/// # Panics
/// If `k_range` starts below 2 or ends above the number of observations
/// or [`MAX_SWEEP_K`].
pub fn sweep_k<'a>(
    history: &MergeHistory,
    dist: impl Into<Distances<'a>>,
    k_range: std::ops::RangeInclusive<usize>,
) -> Vec<KQuality> {
    let _span = icn_obs::Span::enter("sweep");
    let cond = dist.into();
    let (lo, hi) = (*k_range.start(), *k_range.end());
    assert!(lo >= 2, "sweep_k: k must start at ≥ 2");
    assert!(hi <= history.n, "sweep_k: k exceeds number of observations");
    assert!(hi <= MAX_SWEEP_K, "sweep_k: k exceeds MAX_SWEEP_K");
    let n = history.n;
    assert_eq!(cond.len(), n, "sweep_k: distance matrix size mismatch");

    let ks: Vec<usize> = (lo..=hi).collect();
    let nk = ks.len();
    let nf = hi; // fine partition: the finest swept cut
    let fine = history.cut(hi);
    let mut fine_counts = vec![0usize; nf];
    for &f in &fine {
        fine_counts[f] += 1;
    }
    // Per candidate k: the fine-cluster → k-cluster grouping (cuts are
    // nested, so this is well-defined) and the member counts.
    let mut maps: Vec<Vec<usize>> = Vec::with_capacity(nk);
    let mut counts: Vec<Vec<usize>> = Vec::with_capacity(nk);
    for &k in &ks {
        let lab = history.cut(k);
        let mut map = vec![usize::MAX; nf];
        for i in 0..n {
            if map[fine[i]] == usize::MAX {
                map[fine[i]] = lab[i];
            }
            debug_assert_eq!(map[fine[i]], lab[i], "sweep_k: cuts not nested");
        }
        let mut cnt = vec![0usize; k];
        for f in 0..nf {
            cnt[map[f]] += fine_counts[f];
        }
        maps.push(map);
        counts.push(cnt);
    }

    // One parallel pass over the condensed matrix. Each chunk returns its
    // points' per-k silhouette values (in point order) plus fine-pair
    // min/max distance tables.
    let cvals = cond.stored();
    struct ChunkOut {
        sil: Vec<f64>,  // |chunk| × nk, row-major
        pmin: Vec<f64>, // nf × nf; pair (i, j), i < j, in row fine[i], slot fine[j]
        pmax: Vec<f64>,
    }
    let chunks: Vec<ChunkOut> = par::map_chunks(n, SWEEP_CHUNK, |range| {
        let (first, end) = (range.start, range.end);
        let width = end - first;
        let mut sil = Vec::with_capacity(width * nk);
        let mut pmin = vec![f64::INFINITY; nf * nf];
        let mut pmax = vec![0.0f64; nf * nf];
        // sums[f * width + t]: point first + t's distance sum to fine
        // cluster f.
        let mut sums = vec![0.0f64; nf * width];
        let mut csums = vec![0.0f64; nf];
        // Pairs (j, i), j < first ≤ i: row j's contiguous segment over the
        // chunk's columns. Rows go in increasing j, so every point's sums
        // take their terms in increasing j, as a column walk would.
        for j in 0..first {
            let start = block_start(n, j) + first - j - 1;
            let f = fine[j];
            cond.add_to(
                &mut sums[f * width..(f + 1) * width],
                &cvals[start..start + width],
            );
        }
        for i in range {
            let t = i - first;
            let fi = fine[i];
            // Row i: pairs (i, j), j > i, read in order. One read feeds
            // point i's sums, point j's when j is in the chunk (its terms
            // from rows first..j arrive in increasing row order), and the
            // pair tables (each unordered pair visited exactly once, as
            // in dunn).
            let base = block_start(n, i);
            let row = &cvals[base..base + (n - 1 - i)];
            let (near, far) = row.split_at(end - i - 1);
            let pmin_i = &mut pmin[fi * nf..(fi + 1) * nf];
            let pmax_i = &mut pmax[fi * nf..(fi + 1) * nf];
            for (c, &v) in near.iter().enumerate() {
                let v = cond.read(v);
                let j = i + 1 + c;
                let fj = fine[j];
                sums[fj * width + t] += v;
                sums[fi * width + j - first] += v;
                pair_extremes(pmin_i, pmax_i, fj, v);
            }
            for (c, &v) in far.iter().enumerate() {
                let v = cond.read(v);
                let fj = fine[end + c];
                sums[fj * width + t] += v;
                pair_extremes(pmin_i, pmax_i, fj, v);
            }
            // Point i has every term now: score it at each k.
            for s in 0..nk {
                let (map, cnt) = (&maps[s], &counts[s]);
                let own = map[fi];
                if cnt[own] <= 1 {
                    sil.push(0.0); // singleton convention
                    continue;
                }
                let k = ks[s];
                csums[..k].iter_mut().for_each(|s| *s = 0.0);
                for f in 0..nf {
                    csums[map[f]] += sums[f * width + t];
                }
                let a = csums[own] / (cnt[own] - 1) as f64;
                let b = (0..k)
                    .filter(|&c| c != own && cnt[c] > 0)
                    .map(|c| csums[c] / cnt[c] as f64)
                    .fold(f64::INFINITY, f64::min);
                sil.push(if a.max(b) == 0.0 {
                    0.0
                } else {
                    (b - a) / a.max(b)
                });
            }
        }
        ChunkOut { sil, pmin, pmax }
    });

    // Reduce: silhouette totals in point order (the order
    // `silhouette_score` sums in), pair tables through exact min/max, then
    // each table's lower triangle folded onto its upper one.
    let mut totals = vec![0.0f64; nk];
    let mut pmin = vec![f64::INFINITY; nf * nf];
    let mut pmax = vec![0.0f64; nf * nf];
    for c in &chunks {
        for row in c.sil.chunks_exact(nk) {
            for (t, &v) in row.iter().enumerate() {
                totals[t] += v;
            }
        }
        for (dst, &src) in pmin.iter_mut().zip(&c.pmin) {
            *dst = dst.min(src);
        }
        for (dst, &src) in pmax.iter_mut().zip(&c.pmax) {
            *dst = dst.max(src);
        }
    }
    for a in 0..nf {
        for b in a + 1..nf {
            pmin[a * nf + b] = pmin[a * nf + b].min(pmin[b * nf + a]);
            pmax[a * nf + b] = pmax[a * nf + b].max(pmax[b * nf + a]);
        }
    }

    ks.iter()
        .enumerate()
        .map(|(t, &k)| {
            let map = &maps[t];
            let mut min_inter = f64::INFINITY;
            let mut max_diam = 0.0f64;
            for a in 0..nf {
                for b in a..nf {
                    let idx = a * nf + b;
                    if map[a] == map[b] {
                        if pmax[idx] > max_diam {
                            max_diam = pmax[idx];
                        }
                    } else if pmin[idx] < min_inter {
                        min_inter = pmin[idx];
                    }
                }
            }
            let dunn = if max_diam == 0.0 {
                f64::INFINITY
            } else {
                min_inter / max_diam
            };
            KQuality {
                k,
                silhouette: totals[t] / n as f64,
                dunn,
            }
        })
        .collect()
}

/// One detected drop: quality at k is high, and moving to k + 1 loses a
/// substantial fraction of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Drop {
    /// The k *before* the deterioration — the candidate "optimal" count.
    pub k: usize,
    /// Combined (averaged, normalised) relative drop magnitude in `[0, 1]`.
    pub magnitude: f64,
}

/// Detects the paper's stopping criterion: ks whose silhouette **and** Dunn
/// both fall by at least `min_rel_drop` (relative) at k + 1. Returns drops
/// sorted by decreasing magnitude; the paper picks the steepest.
pub fn detect_drops(sweep: &[KQuality], min_rel_drop: f64) -> Vec<Drop> {
    assert!(
        (0.0..1.0).contains(&min_rel_drop),
        "detect_drops: min_rel_drop out of [0,1)"
    );
    let mut drops = Vec::new();
    for w in sweep.windows(2) {
        let (cur, next) = (w[0], w[1]);
        let rel = |a: f64, b: f64| -> f64 {
            if !(a.is_finite()) || a <= 0.0 {
                0.0
            } else {
                ((a - b) / a).max(0.0)
            }
        };
        let ds = rel(cur.silhouette, next.silhouette);
        let dd = rel(cur.dunn, next.dunn);
        if ds >= min_rel_drop && dd >= min_rel_drop {
            drops.push(Drop {
                k: cur.k,
                magnitude: 0.5 * (ds + dd),
            });
        }
    }
    drops.sort_by(|a, b| b.magnitude.partial_cmp(&a.magnitude).expect("finite"));
    drops
}

/// The paper's selection: the steepest combined drop, or — if no drop
/// clears the threshold — the k with the best silhouette.
pub fn select_k(sweep: &[KQuality], min_rel_drop: f64) -> usize {
    assert!(!sweep.is_empty(), "select_k: empty sweep");
    if let Some(d) = detect_drops(sweep, min_rel_drop).first() {
        return d.k;
    }
    sweep
        .iter()
        .max_by(|a, b| a.silhouette.partial_cmp(&b.silhouette).expect("finite"))
        .expect("non-empty sweep")
        .k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::agglomerate;
    use crate::condensed::Condensed;
    use crate::dunn::dunn_index;
    use crate::linkage::Linkage;
    use crate::silhouette::silhouette_score;
    use icn_stats::{Matrix, Metric, Rng};

    /// Scores every k of `sweep` on its own with the two quality indices
    /// and checks the fused values: Dunn bit for bit, silhouette to 1e-12
    /// relative.
    fn assert_matches_per_k_indices(sweep: &[KQuality], h: &MergeHistory, cond: &Condensed) {
        for f in sweep {
            let labels = h.cut(f.k);
            let (sil, dunn) = (silhouette_score(cond, &labels), dunn_index(cond, &labels));
            // Dunn regroups through exact min/max: bit-identical.
            assert_eq!(f.dunn.to_bits(), dunn.to_bits(), "k={}", f.k);
            // Silhouette regroups sums: equal to a few ulps.
            assert!(
                (f.silhouette - sil).abs() <= 1e-12 * sil.abs().max(1.0),
                "k={}: {} vs {sil}",
                f.k,
                f.silhouette
            );
        }
    }

    /// 4 well-separated blobs: quality should peak at k = 4 then drop.
    fn four_blobs() -> Matrix {
        let mut rng = Rng::seed_from(61);
        let centers = [(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)];
        let mut rows = Vec::new();
        for &(x, y) in &centers {
            for _ in 0..12 {
                rows.push(vec![rng.normal(x, 0.5), rng.normal(y, 0.5)]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn sweep_covers_requested_range() {
        let m = four_blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let sweep = sweep_k(&h, &cond, 2..=8);
        assert_eq!(sweep.len(), 7);
        assert_eq!(sweep[0].k, 2);
        assert_eq!(sweep.last().unwrap().k, 8);
    }

    #[test]
    fn four_blobs_selects_k4() {
        let m = four_blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let sweep = sweep_k(&h, &cond, 2..=8);
        assert_eq!(select_k(&sweep, 0.1), 4);
        // And the drop is detected at k=4 with the largest magnitude.
        let drops = detect_drops(&sweep, 0.1);
        assert!(!drops.is_empty());
        assert_eq!(drops[0].k, 4);
    }

    #[test]
    fn silhouette_maximal_at_true_k() {
        let m = four_blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let sweep = sweep_k(&h, &cond, 2..=8);
        let best = sweep
            .iter()
            .max_by(|a, b| a.silhouette.partial_cmp(&b.silhouette).unwrap())
            .unwrap();
        assert_eq!(best.k, 4);
    }

    #[test]
    fn no_drop_falls_back_to_best_silhouette() {
        let sweep = vec![
            KQuality {
                k: 2,
                silhouette: 0.3,
                dunn: 0.2,
            },
            KQuality {
                k: 3,
                silhouette: 0.5,
                dunn: 0.3,
            },
            KQuality {
                k: 4,
                silhouette: 0.45,
                dunn: 0.31,
            },
        ];
        // k=3→4 silhouette drops 10% but dunn rises ⇒ no combined drop.
        assert!(detect_drops(&sweep, 0.05).is_empty());
        assert_eq!(select_k(&sweep, 0.05), 3);
    }

    #[test]
    fn drop_needs_both_indices() {
        let sweep = vec![
            KQuality {
                k: 2,
                silhouette: 0.8,
                dunn: 0.5,
            },
            KQuality {
                k: 3,
                silhouette: 0.4,
                dunn: 0.6,
            }, // silhouette-only
            KQuality {
                k: 4,
                silhouette: 0.39,
                dunn: 0.1,
            }, // both drop
        ];
        let drops = detect_drops(&sweep, 0.02);
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].k, 3);
    }

    #[test]
    fn infinite_dunn_does_not_poison() {
        let sweep = vec![
            KQuality {
                k: 2,
                silhouette: 0.9,
                dunn: f64::INFINITY,
            },
            KQuality {
                k: 3,
                silhouette: 0.2,
                dunn: 1.0,
            },
        ];
        // Infinite current dunn → relative drop treated as 0.
        assert!(detect_drops(&sweep, 0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sweep")]
    fn empty_sweep_panics() {
        select_k(&[], 0.1);
    }

    #[test]
    fn fused_sweep_matches_direct() {
        // Unstructured random data: near-ties and singleton clusters show
        // up naturally across the swept range. 120 points fit one chunk;
        // 800 span four, so rows before a chunk are read as segments.
        for n in [120, 800] {
            let mut rng = Rng::seed_from(97);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..6).map(|_| rng.gaussian()).collect())
                .collect();
            let m = Matrix::from_rows(&rows);
            let h = agglomerate(&m, Linkage::Ward);
            let cond = Condensed::from_rows(&m, Metric::Euclidean);
            let fused = sweep_k(&h, &cond, 2..=15);
            assert_eq!(fused.len(), 14, "n={n}");
            assert_matches_per_k_indices(&fused, &h, &cond);
        }
    }

    #[test]
    fn fused_sweep_handles_full_singleton_range() {
        // hi = n: the finest cut is all singletons — every silhouette
        // contribution at k = n is 0 by the singleton convention.
        let m = four_blobs();
        let n = m.rows();
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let sweep = sweep_k(&h, &cond, 2..=n);
        assert_eq!(sweep.last().unwrap().silhouette, 0.0);
        assert_matches_per_k_indices(&sweep, &h, &cond);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SWEEP_K")]
    fn sweep_beyond_the_bound_panics() {
        let n = MAX_SWEEP_K + 2;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let m = Matrix::from_rows(&rows);
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        sweep_k(&h, &cond, 2..=MAX_SWEEP_K + 1);
    }
}
