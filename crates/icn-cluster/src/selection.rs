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
use crate::dunn::dunn_index;
use crate::silhouette::silhouette_score;
use icn_stats::par;

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

/// Widest fine partition the fused sweep will build `O(hi²)` pair tables
/// for; beyond this the per-k direct path is cheaper anyway.
const FUSED_MAX_HI: usize = 256;

/// Sweeps cuts of `history` over `k_range` (inclusive) against the
/// distances in `dist` (which must be over the same observations, in any
/// metric — the paper's geometry is Euclidean, read off Ward's matrix
/// through [`crate::Condensed::sqrt_values`]).
///
/// # Fused evaluation
///
/// The naive sweep walks the full O(N²) condensed matrix twice (silhouette
/// and Dunn) *per candidate k* — 2·|range| passes; at the paper scale that is
/// the stage-2 wall-clock bottleneck. Cuts of one hierarchy are nested, so
/// this implementation walks the matrix **once**: each point accumulates
/// its distance sums per *finest* cluster (the `k = hi` cut) and per-pair
/// min/max tables over the finest clusters, then every coarser k is scored
/// by regrouping those per-fine-cluster aggregates.
///
/// Dunn regroups by min/max — exactly associative, so the values are
/// bit-identical to [`dunn_index`] per k. Silhouette regroups sums, which
/// reorders additions; values agree with [`silhouette_score`] to within a
/// few ulps (≲1e-12 relative — see `fused_sweep_matches_direct`). Both are
/// bit-identical at any `ICN_THREADS`: per-point results are summed in
/// index order and the pair tables merge through exact min/max.
pub fn sweep_k<'a>(
    history: &MergeHistory,
    dist: impl Into<Distances<'a>>,
    k_range: std::ops::RangeInclusive<usize>,
) -> Vec<KQuality> {
    let cond = dist.into();
    let (lo, hi) = (*k_range.start(), *k_range.end());
    assert!(lo >= 2, "sweep_k: k must start at ≥ 2");
    assert!(hi <= history.n, "sweep_k: k exceeds number of observations");
    if hi > FUSED_MAX_HI {
        return sweep_k_direct(history, cond, lo, hi);
    }
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
        pmin: Vec<f64>, // nf × nf upper triangle (incl. diagonal)
        pmax: Vec<f64>,
    }
    let chunks: Vec<ChunkOut> = par::map_chunks(n, 256, |range| {
        let mut sil = Vec::with_capacity(range.len() * nk);
        let mut pmin = vec![f64::INFINITY; nf * nf];
        let mut pmax = vec![0.0f64; nf * nf];
        let mut sums = vec![0.0f64; nf];
        let mut csums = vec![0.0f64; hi];
        for i in range {
            sums.iter_mut().for_each(|s| *s = 0.0);
            let fi = fine[i];
            // j < i: walk column i of the condensed layout (incremental
            // offsets, no per-access multiply).
            let mut off = i.wrapping_sub(1); // block_start(n, 0) + i - 1
            for j in 0..i {
                sums[fine[j]] += cond.read(cvals[off]);
                off += n - 2 - j;
            }
            // j > i: contiguous row slice; also feeds the pair tables
            // (each unordered pair visited exactly once, as in dunn).
            let base = block_start(n, i);
            for (t, &v) in cvals[base..base + (n - 1 - i)].iter().enumerate() {
                let v = cond.read(v);
                let fj = fine[i + 1 + t];
                sums[fj] += v;
                let idx = if fi <= fj { fi * nf + fj } else { fj * nf + fi };
                if v < pmin[idx] {
                    pmin[idx] = v;
                }
                if v > pmax[idx] {
                    pmax[idx] = v;
                }
            }
            for t in 0..nk {
                let (map, cnt) = (&maps[t], &counts[t]);
                let own = map[fi];
                if cnt[own] <= 1 {
                    sil.push(0.0); // singleton convention
                    continue;
                }
                let k = ks[t];
                csums[..k].iter_mut().for_each(|s| *s = 0.0);
                for f in 0..nf {
                    csums[map[f]] += sums[f];
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

    // Reduce: silhouette totals in point order (matching the sequential
    // `par::sum_indexed` order), pair tables through exact min/max.
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

/// The straightforward two-passes-per-k sweep; reference semantics for the
/// fused path and fallback for very wide ranges.
fn sweep_k_direct(history: &MergeHistory, cond: Distances, lo: usize, hi: usize) -> Vec<KQuality> {
    (lo..=hi)
        .map(|k| {
            let labels = history.cut(k);
            KQuality {
                k,
                silhouette: silhouette_score(cond, &labels),
                dunn: dunn_index(cond, &labels),
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
    use crate::linkage::Linkage;
    use icn_stats::{Matrix, Metric, Rng};

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
        // up naturally across the swept range.
        let mut rng = Rng::seed_from(97);
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|_| (0..6).map(|_| rng.gaussian()).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let h = agglomerate(&m, Linkage::Ward);
        let cond = Condensed::from_rows(&m, Metric::Euclidean);
        let fused = sweep_k(&h, &cond, 2..=15);
        let direct = sweep_k_direct(&h, (&cond).into(), 2, 15);
        assert_eq!(fused.len(), direct.len());
        for (f, d) in fused.iter().zip(&direct) {
            assert_eq!(f.k, d.k);
            // Dunn regroups through exact min/max: bit-identical.
            assert_eq!(f.dunn.to_bits(), d.dunn.to_bits(), "k={}", f.k);
            // Silhouette regroups sums: equal to a few ulps.
            let tol = 1e-12 * d.silhouette.abs().max(1.0);
            assert!(
                (f.silhouette - d.silhouette).abs() <= tol,
                "k={}: {} vs {}",
                f.k,
                f.silhouette,
                d.silhouette
            );
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
        let direct = sweep_k_direct(&h, (&cond).into(), 2, n);
        for (f, d) in sweep.iter().zip(&direct) {
            assert_eq!(f.dunn.to_bits(), d.dunn.to_bits());
            assert!((f.silhouette - d.silhouette).abs() <= 1e-12);
        }
    }
}
