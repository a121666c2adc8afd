//! Differential and metamorphic tests for the icn-obs log-bucketed
//! histogram.
//!
//! The histogram backs the latency distributions in every `icn-obs/v3`
//! report and the `icn obs diff` perf gate, so its quantiles are part of
//! the CI contract: `quantile(q)` must agree *exactly* (not approximately)
//! with a sort-based oracle at bucket resolution, and merging per-thread
//! histograms must be order-independent so multi-threaded runs stay
//! deterministic.

use icn_repro::icn_obs::Histogram;
use icn_repro::icn_stats::Rng;
use icn_repro::icn_testkit::{hist_of, sort_quantile};

const QS: [f64; 5] = [0.5, 0.9, 0.99, 0.0, 1.0];

/// Draws a latency-shaped sample set (lognormal ns with occasional huge
/// outliers), the distribution the histogram actually sees in production.
fn latency_samples(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let base = rng.lognormal(11.0, 2.0) as u64; // ~60µs median
            if rng.chance(0.01) {
                base.saturating_mul(1000) // tail outlier
            } else {
                base
            }
        })
        .collect()
}

#[test]
fn quantiles_match_sort_oracle_exactly() {
    let mut rng = Rng::seed_from(0x1157);
    for trial in 0..50 {
        let n = 1 + rng.index(2000);
        let samples = latency_samples(&mut rng, n);
        let h = hist_of(&samples);
        for q in QS {
            assert_eq!(
                h.quantile(q),
                sort_quantile(&samples, q),
                "trial {trial}: n={n} q={q} diverged from sort oracle"
            );
        }
    }
}

#[test]
fn quantiles_match_oracle_on_adversarial_shapes() {
    // Boundary-heavy inputs: all-equal, powers of two (bucket edges),
    // 0 and u64::MAX saturation, single sample.
    let shapes: Vec<Vec<u64>> = vec![
        vec![42; 100],
        (0..64).map(|i| 1u64 << i.min(63)).collect(),
        vec![0, 0, 0, u64::MAX, u64::MAX],
        vec![7],
        (0..100u64).collect(),
        vec![31, 32, 33, 63, 64, 65], // around the exact/bucketed border
    ];
    for (i, samples) in shapes.iter().enumerate() {
        let h = hist_of(samples);
        for q in QS {
            assert_eq!(
                h.quantile(q),
                sort_quantile(samples, q),
                "shape {i} q={q} diverged from sort oracle"
            );
        }
    }
}

#[test]
fn merge_is_associative_and_commutative() {
    let mut rng = Rng::seed_from(0x4e6e);
    for trial in 0..30 {
        let n = 300 + rng.index(700);
        let samples = latency_samples(&mut rng, n);

        // Split into 2..6 random parts, as per-thread locals would.
        let parts = 2 + rng.index(5);
        let mut shards: Vec<Vec<u64>> = vec![Vec::new(); parts];
        for &v in &samples {
            shards[rng.index(parts)].push(v);
        }
        let mut hists: Vec<Histogram> = shards.iter().map(|s| hist_of(s)).collect();

        let reference = hist_of(&samples);

        // Merge in a random order (commutativity) and with a random
        // association (left-fold vs pairwise tree — associativity).
        rng.shuffle(&mut hists);
        let folded = hists.iter().fold(Histogram::new(), |mut acc, h| {
            acc.merge(h);
            acc
        });
        let mut tree: Vec<Histogram> = hists.clone();
        while tree.len() > 1 {
            let b = tree.pop().unwrap();
            let i = rng.index(tree.len());
            tree[i].merge(&b);
        }
        let paired = tree.pop().unwrap();

        for h in [&folded, &paired] {
            assert_eq!(h.count(), reference.count(), "trial {trial}: count");
            assert_eq!(h.sum(), reference.sum(), "trial {trial}: sum");
            assert_eq!(h.min(), reference.min(), "trial {trial}: min");
            assert_eq!(h.max(), reference.max(), "trial {trial}: max");
            let a: Vec<_> = h.nonzero_buckets().collect();
            let b: Vec<_> = reference.nonzero_buckets().collect();
            assert_eq!(a, b, "trial {trial}: bucket contents");
            for q in QS {
                assert_eq!(h.quantile(q), reference.quantile(q), "trial {trial}: q={q}");
            }
        }
    }
}

#[test]
fn merged_quantiles_still_match_the_oracle() {
    // End-to-end restatement of what multi-threaded stages do: each
    // worker tallies locally, the registry merges, the report quotes
    // quantiles of the merge. The oracle sees the concatenated samples.
    let mut rng = Rng::seed_from(0xcafe);
    let shards: Vec<Vec<u64>> = (0..4).map(|_| latency_samples(&mut rng, 500)).collect();
    let mut merged = Histogram::new();
    for s in &shards {
        let local = hist_of(s);
        merged.merge(&local);
    }
    let all: Vec<u64> = shards.concat();
    for q in QS {
        assert_eq!(merged.quantile(q), sort_quantile(&all, q), "q={q}");
    }
}

#[test]
fn sparse_round_trip_preserves_quantiles() {
    // The v2 report serializes histograms as sparse (index, count) pairs;
    // parsing back must preserve every quantile bit-for-bit.
    let mut rng = Rng::seed_from(7);
    let samples = latency_samples(&mut rng, 1500);
    let h = hist_of(&samples);
    let sparse: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    let back = Histogram::from_sparse(&sparse, h.sum(), h.min(), h.max());
    for q in QS {
        assert_eq!(back.quantile(q), h.quantile(q), "q={q}");
    }
    assert_eq!(back.count(), h.count());
}
