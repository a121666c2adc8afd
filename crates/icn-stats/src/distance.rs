//! Distance kernels between feature vectors.
//!
//! The paper's clustering geometry is Euclidean: Ward's criterion works on
//! squared Euclidean distances, and the quality indices (silhouette, Dunn)
//! and the CPCC read their square roots. [`Metric`] names those two
//! geometries for the condensed distance matrix; the kernels below compute
//! them (k-means reads [`sq_euclidean`] directly).

/// The geometry of a pairwise distance matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Straight-line (L2) distance.
    Euclidean,
    /// Squared L2 distance (not a metric — violates the triangle
    /// inequality — but the natural quantity for Ward's variance criterion).
    SqEuclidean,
}

/// Squared Euclidean distance as one serial sum (k-means' assignment step).
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Squared Euclidean distance over four independent accumulator lanes.
///
/// [`sq_euclidean`] is a single serial chain of dependent adds, so its
/// throughput is bounded by FP-add latency. Splitting the sum across four
/// accumulators (lane `l` takes dimensions `l, l+4, l+8, …`) breaks the
/// dependency chain — the same trick the TreeSHAP kernel uses — for a
/// ~4× throughput win on long vectors.
///
/// The summation *order* differs from [`sq_euclidean`], so results may
/// differ in the last few ulps; the function is still fully deterministic
/// (identical inputs give identical bits on every run and thread count).
/// Callers that are pinned to golden hashes must opt in deliberately.
#[inline]
pub fn sq_euclidean4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (qa, qb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = qa[0] - qb[0];
        let d1 = qa[1] - qb[1];
        let d2 = qa[2] - qb[2];
        let d3 = qa[3] - qb[3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (s0 + s1) + (s2 + s3) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [0.0, 3.0, -1.0];
    const B: [f64; 3] = [4.0, 0.0, -1.0];

    #[test]
    fn sq_euclidean_345_triangle() {
        assert_eq!(sq_euclidean(&A, &B), 25.0);
        assert_eq!(sq_euclidean(&A, &B).sqrt(), 5.0);
        assert_eq!(sq_euclidean(&A, &A), 0.0);
        assert_eq!(sq_euclidean(&A, &B), sq_euclidean(&B, &A));
    }

    #[test]
    fn four_lane_matches_scalar_closely() {
        // Deterministic pseudo-random vectors across lengths that exercise
        // every remainder case (0..=3 tail dimensions).
        for len in [1usize, 3, 4, 5, 7, 8, 73, 128] {
            let a: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.13)
                .collect();
            let b: Vec<f64> = (0..len)
                .map(|i| ((i * 53 + 29) % 97) as f64 * 0.07)
                .collect();
            let scalar = sq_euclidean(&a, &b);
            let lanes = sq_euclidean4(&a, &b);
            let tol = 1e-12 * scalar.max(1.0);
            assert!(
                (scalar - lanes).abs() <= tol,
                "len {len}: {scalar} vs {lanes}"
            );
        }
    }

    #[test]
    fn four_lane_exact_on_small_inputs() {
        assert_eq!(sq_euclidean4(&A, &B), 25.0);
        assert_eq!(sq_euclidean4(&[], &[]), 0.0);
    }
}
