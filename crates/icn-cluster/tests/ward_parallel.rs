//! Thread-invariance suite for the parallel stage-2 machinery: the
//! condensed distance build, the merge history built on it and the
//! sampled-Ward extension must all be **bit-identical at any
//! `ICN_THREADS`** — parallelism is an execution detail, never an answer
//! detail.
//!
//! Environment discipline: `ICN_THREADS` is process-global, so every
//! test that sets it holds [`THREADS`] for its whole run and restores the
//! old value through an [`EnvGuard`]. Other tests in this binary only
//! ever read results that are thread-invariant by contract, so concurrent
//! execution is safe.

use icn_cluster::{
    agglomerate, agglomerate_condensed, dunn_index, sampled_ward, silhouette_score, sweep_k,
    Condensed, KQuality, Linkage, MergeHistory, SampledWardConfig,
};
use icn_stats::{Fnv1a, Matrix, Metric, Rng};
use icn_testkit::{naive_agglomerate, permutation, permute_rows, permute_slice, same_partition};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test that sets `ICN_THREADS`.
static THREADS: Mutex<()> = Mutex::new(());

fn blobs(n: usize, dims: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let centre = (i % 5) as f64 * 3.0;
            (0..dims).map(|_| rng.normal(centre, 1.0)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Exact bit-level fingerprint of a merge history (heights via `to_bits`,
/// labels and sizes verbatim).
fn fingerprint(h: &MergeHistory) -> Vec<(usize, usize, u64, usize)> {
    h.merges
        .iter()
        .map(|m| (m.a, m.b, m.height.to_bits(), m.size))
        .collect()
}

struct EnvGuard {
    saved: Vec<(&'static str, Option<String>)>,
}

impl EnvGuard {
    fn capture(keys: &[&'static str]) -> EnvGuard {
        EnvGuard {
            saved: keys.iter().map(|&k| (k, std::env::var(k).ok())).collect(),
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        // Restore even if an assertion unwinds mid-matrix.
        for (k, v) in &self.saved {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }
}

/// FNV-1a over the bits of a merge history and a sweep.
fn fnv1a(history: &MergeHistory, sweep: &[KQuality]) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |x: u64| {
        h.write(&x.to_le_bytes());
    };
    for m in &history.merges {
        eat(m.a as u64);
        eat(m.b as u64);
        eat(m.height.to_bits());
        eat(m.size as u64);
    }
    for q in sweep {
        eat(q.k as u64);
        eat(q.silhouette.to_bits());
        eat(q.dunn.to_bits());
    }
    h.finish()
}

/// 2,000 rows, the last 600 exact copies of the first 600: zero-distance
/// pairs and equal distances everywhere, so scans and merges meet exact
/// ties. The NN-chain splits its rounds across threads above 1,536 active
/// slots, and the k-sweep covers 8 chunks of 256 points.
fn tied_rows() -> Matrix {
    let base = blobs(1400, 4, 0x7135);
    let rows: Vec<Vec<f64>> = (0..2000).map(|i| base.row(i % 1400).to_vec()).collect();
    Matrix::from_rows(&rows)
}

/// Each linkage's merge history on [`tied_rows`], and the Ward history's
/// Fig. 2 sweep on Euclidean distances read off Ward's matrix, as the
/// pipeline runs it.
fn tied_stage2() -> Vec<(MergeHistory, Vec<KQuality>)> {
    let m = tied_rows();
    Linkage::ALL
        .iter()
        .map(|&linkage| {
            let cond = Condensed::from_rows(&m, linkage.base_metric());
            let history = agglomerate_condensed(&cond, linkage);
            let sweep = if linkage == Linkage::Ward {
                sweep_k(&history, cond.sqrt_values(), 2..=15)
            } else {
                Vec::new()
            };
            (history, sweep)
        })
        .collect()
}

/// The shared NN-chain rounds and the row-wise sweep reproduce the
/// sequential stage 2 bit for bit at any thread count, ties included.
/// The hashes were recorded before either was written, on the sequential
/// NN-chain and the column-walking sweep.
#[test]
fn shared_rounds_match_the_sequential_chain_bitwise() {
    const RECORDED: [u64; 4] = [
        0x0ffa_040d_c5d2_c5a9,
        0xaeb7_fbc2_fee1_4496,
        0xe641_39ff_9deb_b0fe,
        0x3776_6ae9_a5b5_edff,
    ];
    let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = EnvGuard::capture(&["ICN_THREADS"]);
    let mut solo = Duration::ZERO;
    for threads in ["1", "2", "3", "8"] {
        std::env::set_var("ICN_THREADS", threads);
        let obs = icn_obs::global();
        obs.reset();
        obs.enable();
        let started = Instant::now();
        let hashes: Vec<u64> = tied_stage2().iter().map(|(h, s)| fnv1a(h, s)).collect();
        let took = started.elapsed();
        obs.disable();
        let shared = obs
            .snapshot()
            .counters
            .get("cluster.nn_scans_shared")
            .copied();
        obs.reset();
        // The rounds really were split whenever a helper could start.
        if threads == "1" || icn_stats::par::team_helpers() == 0 {
            assert_eq!(shared, Some(0), "ICN_THREADS={threads}");
        } else {
            assert!(shared > Some(0), "ICN_THREADS={threads}: no shared scan");
        }
        for (linkage, (got, want)) in Linkage::ALL.iter().zip(hashes.iter().zip(RECORDED)) {
            assert_eq!(
                *got,
                want,
                "{} drifted at ICN_THREADS={threads}",
                linkage.name()
            );
        }
        if threads == "1" {
            solo = took;
        } else {
            // Never more helpers than cores: asking for 8 threads on a
            // small machine must not leave spinners fighting for a core.
            assert!(
                took < solo * 4 + Duration::from_secs(2),
                "ICN_THREADS={threads} took {took:?} against {solo:?} on one thread"
            );
        }
    }
}

/// The row-wise sweep over several 256-point chunks: Dunn equals a direct
/// evaluation of each cut bit for bit, the silhouette to reassociation
/// noise, and both are bit-identical at any thread count.
#[test]
fn multi_chunk_sweep_matches_direct_evaluation() {
    let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = EnvGuard::capture(&["ICN_THREADS"]);
    let m = blobs(900, 5, 0x5EE9);
    let cond = Condensed::from_rows(&m, Metric::SqEuclidean);
    let history = agglomerate_condensed(&cond, Linkage::Ward);
    let eucl = cond.sqrt_values();
    std::env::set_var("ICN_THREADS", "1");
    let base = sweep_k(&history, eucl, 2..=15);
    assert_eq!(base.len(), 14);
    for q in &base {
        let labels = history.cut(q.k);
        assert_eq!(
            q.dunn.to_bits(),
            dunn_index(eucl, &labels).to_bits(),
            "k={}",
            q.k
        );
        let direct = silhouette_score(eucl, &labels);
        assert!(
            (q.silhouette - direct).abs() <= 1e-12 * direct.abs().max(1.0),
            "k={}: {} vs {direct}",
            q.k,
            q.silhouette
        );
    }
    let bits = |s: &[KQuality]| -> Vec<(usize, u64, u64)> {
        s.iter()
            .map(|q| (q.k, q.silhouette.to_bits(), q.dunn.to_bits()))
            .collect()
    };
    for threads in ["2", "3"] {
        std::env::set_var("ICN_THREADS", threads);
        assert_eq!(
            bits(&sweep_k(&history, eucl, 2..=15)),
            bits(&base),
            "sweep drifted at ICN_THREADS={threads}"
        );
    }
}

/// The tentpole invariance matrix: every `ICN_THREADS` ∈ {1, 2, 8} must
/// reproduce the single-thread baseline bit for bit — condensed matrix,
/// merge history, and sampled-Ward labels alike.
#[test]
fn thread_invariance_matrix() {
    let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = EnvGuard::capture(&["ICN_THREADS"]);
    let m = blobs(257, 4, 0xA11CE);
    // Population for the sampled path: big enough that the parallel
    // nearest-centroid assignment path (gated at 4096 rows) engages.
    let big = blobs(5000, 3, 0xB0B);

    // Baseline: pinned single thread. Average linkage rides along to pin
    // a second Lance–Williams recurrence through the same working copy.
    std::env::set_var("ICN_THREADS", "1");
    let cond_base = Condensed::from_rows(&m, Metric::SqEuclidean);
    let hist_base = fingerprint(&agglomerate_condensed(&cond_base, Linkage::Ward));
    let avg_base = fingerprint(&agglomerate_condensed(&cond_base, Linkage::Average));
    let sw_cfg = SampledWardConfig {
        sample: 400,
        seed: 17,
        refine_iters: 2,
    };
    let sw_base = sampled_ward(&big, 5, &sw_cfg);

    for threads in ["1", "2", "8"] {
        std::env::set_var("ICN_THREADS", threads);
        let cond = Condensed::from_rows(&m, Metric::SqEuclidean);
        assert_eq!(
            cond.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            cond_base
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            "condensed drifted at ICN_THREADS={threads}"
        );
        let hist = fingerprint(&agglomerate_condensed(&cond, Linkage::Ward));
        assert_eq!(
            hist, hist_base,
            "merge history drifted at ICN_THREADS={threads}"
        );
        let avg = fingerprint(&agglomerate_condensed(&cond, Linkage::Average));
        assert_eq!(
            avg, avg_base,
            "average-linkage history drifted at ICN_THREADS={threads}"
        );
        let sw = sampled_ward(&big, 5, &sw_cfg);
        assert_eq!(
            sw.labels, sw_base.labels,
            "sampled-ward labels drifted at ICN_THREADS={threads}"
        );
        assert_eq!(sw.sample, sw_base.sample);
        assert_eq!(
            sw.centroids
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            sw_base
                .centroids
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            "sampled-ward centroids drifted at ICN_THREADS={threads}"
        );
    }
}

/// Differential oracle: the NN-chain (condensed working copy, active list)
/// against the testkit's O(n³) greedy agglomeration. Reducible linkages
/// make the two hierarchies equal.
#[test]
fn nn_chain_matches_greedy_oracle() {
    for seed in [1u64, 2, 3] {
        let m = blobs(60, 3, seed);
        let fast = agglomerate(&m, Linkage::Ward);
        let slow = naive_agglomerate(&m, Linkage::Ward);
        for (f, s) in fast.heights().iter().zip(&slow.heights()) {
            assert!(
                (f - s).abs() < 1e-9 * (1.0 + f.abs()),
                "seed {seed}: height {f} vs oracle {s}"
            );
        }
        for k in [2, 5, 9] {
            assert!(
                same_partition(&fast.cut(k), &slow.cut(k)),
                "seed {seed}: k={k} partitions differ"
            );
        }
    }
}

/// Metamorphic: clustering commutes with row permutation — labels of the
/// permuted input are the permuted labels of the original (up to renaming).
#[test]
fn row_permutation_equivariance() {
    let mut rng = Rng::seed_from(77);
    for seed in [11u64, 12] {
        let m = blobs(80, 4, seed);
        let p = permutation(&mut rng, m.rows());
        let base = agglomerate(&m, Linkage::Ward);
        let shuffled = agglomerate(&permute_rows(&m, &p), Linkage::Ward);
        for k in [2, 4, 7] {
            let expected = permute_slice(&base.cut(k), &p);
            assert!(
                same_partition(&shuffled.cut(k), &expected),
                "seed {seed}, k={k}: permuted clustering disagrees"
            );
        }
    }
}

/// The in-place condensed Lance–Williams updates must be value-preserving
/// for every reducible linkage, not just Ward.
#[test]
fn all_linkages_match_oracle() {
    let m = blobs(40, 3, 99);
    for linkage in Linkage::ALL {
        let fast = agglomerate(&m, linkage);
        let slow = naive_agglomerate(&m, linkage);
        for k in [2, 6] {
            assert!(
                same_partition(&fast.cut(k), &slow.cut(k)),
                "{}: k={k} differs",
                linkage.name()
            );
        }
    }
}
