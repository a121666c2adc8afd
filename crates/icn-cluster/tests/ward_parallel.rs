//! Thread-invariance suite for the parallel stage-2 machinery: the
//! condensed distance build, the merge history built on it and the
//! sampled-Ward extension must all be **bit-identical at any
//! `ICN_THREADS`** — parallelism is an execution detail, never an answer
//! detail.
//!
//! Environment discipline: `ICN_THREADS` is process-global, so every
//! mutation lives inside a single `#[test]` function
//! (`thread_invariance_matrix`) that saves and restores it.
//! Other tests in this binary only ever read results that are
//! thread-invariant by contract, so concurrent execution is safe.

use icn_cluster::{
    agglomerate, agglomerate_condensed, sampled_ward, Condensed, Linkage, MergeHistory,
    SampledWardConfig,
};
use icn_stats::{Matrix, Metric, Rng};
use icn_testkit::{naive_agglomerate, permutation, permute_rows, permute_slice, same_partition};

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

/// The tentpole invariance matrix: every `ICN_THREADS` ∈ {1, 2, 8} must
/// reproduce the single-thread baseline bit for bit — condensed matrix,
/// merge history, and sampled-Ward labels alike.
#[test]
fn thread_invariance_matrix() {
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
