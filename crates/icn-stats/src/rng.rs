//! Deterministic pseudo-random number generation and sampling.
//!
//! The synthetic measurement substrate must be bit-for-bit reproducible for a
//! fixed seed, independent of external crate versions, so we implement two
//! small, well-known generators here:
//!
//! * **SplitMix64** — used to expand a single `u64` seed into the 256-bit
//!   state of the main generator (and handy for cheap stateless hashing).
//! * **Xoshiro256++** — the main generator; fast, passes BigCrush, and has a
//!   `jump()` function allowing 2^128 non-overlapping substreams which we use
//!   to give every antenna its own independent stream.
//!
//! On top of the raw generator sit the distributions the traffic synthesiser
//! needs: uniform, Gaussian (Box–Muller, cached), log-normal, exponential,
//! Poisson (Knuth for small λ, PTRD-style normal approximation for large λ),
//! categorical, shuffling and sampling without replacement.

/// SplitMix64 step: expands a seed into a sequence of well-mixed `u64`s.
///
/// This is the standard seeding routine recommended by the Xoshiro authors.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless 64-bit mix of two values; used to derive per-entity seeds
/// (e.g. seed ⊕ antenna id) without correlations between nearby ids.
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = splitmix64(&mut s);
    splitmix64(&mut s)
}

/// Xoshiro256++ deterministic pseudo-random generator with sampling helpers.
///
/// ```
/// use icn_stats::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator for a sub-entity (antenna,
    /// tree, ...). Streams derived with distinct `tag`s are statistically
    /// independent of the parent and of each other.
    pub fn fork(&self, tag: u64) -> Self {
        Rng::seed_from(mix64(self.s[0] ^ self.s[2], tag))
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. `lo` must be `<= hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform: lo > hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    /// `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: n must be > 0");
        // Unbiased bounded generation (widening multiply with rejection).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate via the Box–Muller transform (polar-free
    /// variant, second value cached).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        debug_assert!(sd >= 0.0, "normal: negative sd");
        mean + sd * self.gaussian()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`. `mu`/`sigma` are the
    /// parameters of the underlying normal (natural-log scale).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential deviate with rate `lambda` (mean `1/lambda`).
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0, "exponential: rate must be positive");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Poisson deviate with mean `lambda`.
    ///
    /// Uses Knuth's product method for small λ and a clamped normal
    /// approximation for λ ≥ 30 (adequate for traffic burst counts).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0, "poisson: negative mean");
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.next_f64();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal(lambda, lambda.sqrt());
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }

    /// Samples an index with probability proportional to `weights[i]`.
    /// Weights must be non-negative with a positive sum.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "categorical: weights must sum to a positive finite value"
        );
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "categorical: negative weight");
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k > n");
        // Partial Fisher-Yates over an index vector; O(n) allocation is fine
        // at our scales (n ≤ tens of thousands).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 0 from the public-domain reference code.
        let mut s = 0u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        // Deterministic across runs:
        let mut s2 = 0u64;
        assert_eq!(a, splitmix64(&mut s2));
        assert_eq!(b, splitmix64(&mut s2));
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_and_deterministic() {
        let root = Rng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut c1b = root.fork(1);
        let mut c2 = root.fork(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_unbiased_small_range() {
        let mut r = Rng::seed_from(5);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.2).abs() < 0.01, "bucket freq {f} too far from 0.2");
        }
    }

    #[test]
    #[should_panic(expected = "below: n must be > 0")]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::seed_from(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = Rng::seed_from(3);
        for _ in 0..1_000 {
            assert!(r.lognormal(0.0, 2.0) > 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::seed_from(17);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut r = Rng::seed_from(23);
        let n = 50_000;
        let mean = (0..n).map(|_| r.poisson(3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut r = Rng::seed_from(29);
        let n = 20_000;
        let mean = (0..n).map(|_| r.poisson(120.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 120.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = Rng::seed_from(1);
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::seed_from(31);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[r.categorical(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.25).abs() < 0.01, "f0 {f0}");
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn categorical_zero_weights_panics() {
        Rng::seed_from(0).categorical(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(37);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::seed_from(41);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_full_population() {
        let mut r = Rng::seed_from(43);
        let mut s = r.sample_indices(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<usize>>());
    }

    #[test]
    fn mix64_spreads_nearby_inputs() {
        let a = mix64(1, 1);
        let b = mix64(1, 2);
        let c = mix64(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
