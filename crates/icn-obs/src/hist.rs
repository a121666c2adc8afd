//! Log-bucketed histograms with a fixed, deterministic bucket layout.
//!
//! A [`Histogram`] records `u64` observations (by convention nanoseconds
//! for duration series, but any unit works) into HDR-style logarithmic
//! buckets: every power-of-two octave is split into [`SUB_BUCKETS`]
//! sub-buckets, giving a worst-case relative bucket width of
//! `1 / SUB_BUCKETS` (~3%). The layout is a compile-time constant — it
//! never adapts to the data — so two histograms recorded on different
//! threads, machines or runs can be merged by element-wise bucket
//! addition and the result is independent of merge order ("deterministic
//! merges"). `count`, `sum`, `min` and `max` are tracked exactly.
//!
//! Quantile extraction is **rank-based and exact with respect to the
//! bucketing**: `quantile(q)` returns the lower bound of the bucket that
//! contains the `⌈q·count⌉`-th smallest recorded value. This makes the
//! result reproducible and checkable against a sort-based oracle — sort
//! the raw samples, pick the `⌈q·count⌉`-th, and map it through
//! [`Histogram::bucket_floor`]`(`[`Histogram::bucket_index`]`(v))`; the
//! two agree *exactly* for every sample set (the cumulative bucket walk
//! and the sorted walk locate the same bucket). `icn-testkit` ships that
//! oracle and the root test-suite pins the agreement over seeded samples.

use std::fmt;

/// log2 of the number of sub-buckets per octave.
pub(crate) const LOG_SUB_BUCKETS: u32 = 5;
/// Sub-buckets per power-of-two octave (relative error ≤ 1/32 ≈ 3%).
pub(crate) const SUB_BUCKETS: u64 = 1 << LOG_SUB_BUCKETS;
/// Total number of buckets in the fixed layout. Values `0..SUB_BUCKETS`
/// get exact unit buckets; each octave above contributes `SUB_BUCKETS`
/// more, up to the full `u64` range.
pub(crate) const N_BUCKETS: usize = ((64 - LOG_SUB_BUCKETS as usize) + 1) * SUB_BUCKETS as usize;

/// A mergeable log-bucketed histogram. See the module docs for layout and
/// determinism guarantees.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("nonzero_buckets", &self.nonzero_buckets().count())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram (all buckets zero).
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The fixed bucket index of `v`. Values below `SUB_BUCKETS` (32) map to
    /// exact unit buckets; larger values map to
    /// `(octave − log₂S + 1)·S + sub` where `S` = `SUB_BUCKETS` and
    /// `sub` keeps the top `log₂S + 1` significant bits.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros(); // >= LOG_SUB_BUCKETS
        let shift = octave - LOG_SUB_BUCKETS;
        let sub = (v >> shift) - SUB_BUCKETS;
        ((octave - LOG_SUB_BUCKETS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }

    /// The smallest value that maps to bucket `idx` (the bucket's
    /// representative: quantiles report this lower bound).
    pub fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let octave = idx / SUB_BUCKETS + LOG_SUB_BUCKETS as u64 - 1;
        let sub = idx % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (octave - LOG_SUB_BUCKETS as u64)
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` by element-wise bucket addition. Because
    /// the layout is fixed, merging is associative and commutative: any
    /// merge order over any partition of the observations yields
    /// bit-identical bucket counts (pinned by the testkit metamorphic
    /// suite).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The rank a quantile `q` maps to: `clamp(⌈q·count⌉, 1, count)`.
    /// Exposed so the sort-based oracle uses the identical rule.
    pub fn quantile_rank(count: u64, q: f64) -> u64 {
        ((q * count as f64).ceil() as u64).clamp(1, count.max(1))
    }

    /// The lower bound of the bucket containing the `⌈q·count⌉`-th
    /// smallest recorded value (0 when empty). Deterministic: depends only
    /// on the bucket counts, never on recording or merge order.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = Self::quantile_rank(self.count, q);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(N_BUCKETS - 1)
    }

    /// Iterator over `(bucket_index, count)` for non-empty buckets, in
    /// index (= value) order. This is the sparse form exported to JSON.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from its exported sparse form. `count` is
    /// recomputed from the buckets; `sum`, `min` and `max` are taken as
    /// given (they are tracked exactly at record time and cannot be
    /// recovered from buckets alone).
    pub fn from_sparse(buckets: &[(usize, u64)], sum: u128, min: u64, max: u64) -> Histogram {
        let mut h = Histogram::new();
        for &(idx, c) in buckets {
            if idx < N_BUCKETS {
                h.counts[idx] += c;
                h.count += c;
            }
        }
        h.sum = sum;
        h.min = if h.count == 0 { u64::MAX } else { min };
        h.max = max;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_consistent() {
        // floor(index(v)) <= v, and v is below the next bucket's floor.
        for v in (0..2048u64).chain([
            4095,
            4096,
            4097,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let idx = Histogram::bucket_index(v);
            assert!(idx < N_BUCKETS, "index {idx} out of range for {v}");
            let lo = Histogram::bucket_floor(idx);
            assert!(lo <= v, "floor {lo} > value {v}");
            if idx + 1 < N_BUCKETS {
                assert!(
                    Histogram::bucket_floor(idx + 1) > v,
                    "value {v} not below next floor"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(Histogram::bucket_floor(Histogram::bucket_index(v)), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 30, 987_654_321_987] {
            let lo = Histogram::bucket_floor(Histogram::bucket_index(v));
            let err = (v - lo) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "error {err} for {v}");
        }
    }

    #[test]
    fn exact_aggregates() {
        let mut h = Histogram::new();
        for v in [5u64, 1000, 3, 77, 77] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1162);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 232.4).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_matches_sorted_walk() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 37) % 100_000).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let rank = Histogram::quantile_rank(sorted.len() as u64, q) as usize;
            let oracle = Histogram::bucket_floor(Histogram::bucket_index(sorted[rank - 1]));
            assert_eq!(h.quantile(q), oracle, "q = {q}");
        }
    }

    #[test]
    fn merge_equals_single_histogram() {
        let mut all = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for i in 0..1000u64 {
            let v = (i * 7919) % 1_000_000;
            all.record(v);
            parts[(i % 3) as usize].record(v);
        }
        let mut merged = Histogram::new();
        // Merge in a scrambled order.
        merged.merge(&parts[2]);
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, all);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, 123_456_789] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_sparse(&sparse, h.sum(), h.min(), h.max());
        assert_eq!(back, h);
    }
}
