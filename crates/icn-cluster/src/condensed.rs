//! Condensed pairwise-distance storage.
//!
//! Hierarchical clustering, silhouette and Dunn all need the full pairwise
//! distance matrix of the N antennas. We store only the strict upper
//! triangle (`N·(N−1)/2` entries) — at the paper's N = 4,762 that is ~11.3 M
//! `f64`s (≈ 90 MB), computed once and shared by every consumer of the
//! sweep in Figure 2.

use icn_stats::{par, Matrix, Metric};

/// Upper-triangular pairwise distance matrix over `n` points.
#[derive(Clone, Debug)]
pub struct Condensed {
    n: usize,
    d: Vec<f64>,
}

impl Condensed {
    /// Computes all pairwise distances between the rows of `data` under
    /// `metric`, in parallel: squared Euclidean for Ward (its
    /// [`crate::Linkage::base_metric`]), Euclidean for the other linkages
    /// and the CPCC.
    ///
    /// Rows are processed in chunks of the lower-triangle's i-dimension;
    /// each worker writes its chunk's contiguous window of the final
    /// condensed buffer in place (via [`par::fill_blocks`] — no per-chunk
    /// allocation, no stitch pass), and the j-dimension is tiled so a block
    /// of right-hand rows stays cache-resident across all of the chunk's
    /// left-hand rows.
    ///
    /// Both metrics go through the 4-lane accumulator kernel
    /// [`icn_stats::distance::sq_euclidean4`] (Euclidean takes its square
    /// root): four independent partial sums hide FP-add latency for a large
    /// single-thread win. The fill order and the per-pair kernel are fixed,
    /// so the result is bit-identical at any `ICN_THREADS`.
    ///
    /// Metering: the finished matrix size is published as the
    /// `cluster.condensed_bytes` gauge (the scalable sampled-Ward path is
    /// budget-gated on this gauge).
    pub fn from_rows(data: &Matrix, metric: Metric) -> Condensed {
        let _span = icn_obs::Span::enter("condensed");
        let n = data.rows();
        let rows: Vec<&[f64]> = (0..n).map(|i| data.row(i)).collect();
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            let sq = icn_stats::distance::sq_euclidean4(a, b);
            match metric {
                Metric::SqEuclidean => sq,
                Metric::Euclidean => sq.sqrt(),
            }
        };
        const TILE: usize = 64;
        let chunk = (n / (par::thread_count() * 8)).clamp(1, 256);
        // Row-chunk b covers i ∈ [b·chunk, (b+1)·chunk): unequal element
        // spans (row i holds n−1−i pairs), so the in-place parallel fill
        // uses an explicit block partition at the row boundaries.
        let n_chunks = n.div_ceil(chunk.max(1)).max(usize::from(n > 0));
        let mut bounds = Vec::with_capacity(n_chunks + 1);
        bounds.extend((0..n_chunks).map(|b| block_start(n, (b * chunk).min(n))));
        bounds.push(n * (n.max(1) - 1) / 2);
        let mut d = vec![0.0f64; n * (n.max(1) - 1) / 2];
        par::fill_blocks(&mut d, &bounds, |b, out| {
            let (lo, hi) = (b * chunk, ((b + 1) * chunk).min(n));
            let base = block_start(n, lo);
            let mut jt = lo + 1;
            while jt < n {
                let jhi = (jt + TILE).min(n);
                for i in lo..hi.min(jhi) {
                    let ri = rows[i];
                    let row_off = block_start(n, i) - base;
                    for j in jt.max(i + 1)..jhi {
                        out[row_off + (j - i - 1)] = dist(ri, rows[j]);
                    }
                }
                jt = jhi;
            }
        });
        icn_obs::global().add_counter("cluster.pairs", d.len() as u64);
        icn_obs::gauge_bytes("cluster.condensed_bytes", d.len() * 8);
        Condensed { n, d }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j` (0.0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n, "Condensed::get out of bounds");
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.d[block_start(self.n, a) + (b - a - 1)]
    }

    /// Raw condensed storage (row-block layout: pairs (0,1..n), (1,2..n)…).
    pub fn as_slice(&self) -> &[f64] {
        &self.d
    }

    /// The entry-wise square root of this matrix, as a view: every read
    /// takes the root of the stored entry on the fly, so no second matrix
    /// is allocated.
    ///
    /// [`Condensed::from_rows`] computes a Euclidean entry as the square
    /// root of the squared one, so for a matrix built with
    /// `Metric::SqEuclidean` (Ward's base metric) every read is
    /// **bit-identical** to recomputing `from_rows(data, Metric::Euclidean)`
    /// — without the second full pairwise pass. This is how the k-sweep
    /// reads Euclidean geometry off Ward's matrix.
    pub fn sqrt_values(&self) -> Distances<'_> {
        Distances {
            cond: self,
            sqrt: true,
        }
    }
}

/// The pairwise distances the quality indices ([`crate::silhouette_score`],
/// [`crate::dunn_index`], [`crate::sweep_k`]) read: a [`Condensed`]
/// matrix's entries as stored (`From<&Condensed>`), or their square roots
/// ([`Condensed::sqrt_values`]).
#[derive(Clone, Copy, Debug)]
pub struct Distances<'a> {
    cond: &'a Condensed,
    sqrt: bool,
}

impl<'a> From<&'a Condensed> for Distances<'a> {
    fn from(cond: &'a Condensed) -> Self {
        Distances { cond, sqrt: false }
    }
}

impl<'a> From<&Distances<'a>> for Distances<'a> {
    fn from(view: &Distances<'a>) -> Self {
        *view
    }
}

impl Distances<'_> {
    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.cond.n
    }

    /// Distance between points `i` and `j` (0.0 on the diagonal).
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.read(self.cond.get(i, j))
    }

    /// The distance a stored entry of [`Self::stored`] stands for.
    #[inline]
    pub(crate) fn read(&self, stored: f64) -> f64 {
        if self.sqrt {
            stored.sqrt()
        } else {
            stored
        }
    }

    /// Adds the distance each of `stored`'s entries stands for to the
    /// matching slot of `acc`.
    #[inline]
    pub(crate) fn add_to(&self, acc: &mut [f64], stored: &[f64]) {
        if self.sqrt {
            for (a, &v) in acc.iter_mut().zip(stored) {
                *a += v.sqrt();
            }
        } else {
            for (a, &v) in acc.iter_mut().zip(stored) {
                *a += v;
            }
        }
    }

    /// The underlying condensed storage; map entries through [`Self::read`].
    pub(crate) fn stored(&self) -> &[f64] {
        &self.cond.d
    }
}

#[inline]
pub(crate) fn block_start(n: usize, i: usize) -> usize {
    // Row i's pairs start after rows 0..i, which hold (n-1-r) pairs each:
    // Σ_{r<i} (n-1-r) = i(n-1) - i(i-1)/2 = i(2n - i - 1)/2.
    i * (2 * n - i - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::distance::sq_euclidean;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![3.0, 0.0],
            vec![0.0, 4.0],
            vec![3.0, 4.0],
        ])
    }

    #[test]
    fn distances_match_direct_computation() {
        let m = data();
        let c = Condensed::from_rows(&m, Metric::Euclidean);
        for i in 0..4 {
            for j in 0..4 {
                let want = sq_euclidean(m.row(i), m.row(j)).sqrt();
                assert!((c.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let c = Condensed::from_rows(&data(), Metric::SqEuclidean);
        for i in 0..4 {
            assert_eq!(c.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(c.get(i, j), c.get(j, i));
            }
        }
    }

    #[test]
    fn known_values() {
        let c = Condensed::from_rows(&data(), Metric::Euclidean);
        assert_eq!(c.get(0, 1), 3.0);
        assert_eq!(c.get(0, 2), 4.0);
        assert_eq!(c.get(0, 3), 5.0);
        assert_eq!(c.get(1, 2), 5.0);
    }

    #[test]
    fn storage_size() {
        let c = Condensed::from_rows(&data(), Metric::Euclidean);
        assert_eq!(c.as_slice().len(), 6);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn sqrt_values_matches_euclidean_bitwise() {
        let mut rng = icn_stats::Rng::seed_from(11);
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..5).map(|_| rng.gaussian()).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let sq = Condensed::from_rows(&m, Metric::SqEuclidean);
        let direct = Condensed::from_rows(&m, Metric::Euclidean);
        let derived = sq.sqrt_values();
        assert_eq!(derived.len(), direct.len());
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(direct.get(i, j).to_bits(), derived.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn larger_random_consistency() {
        let mut rng = icn_stats::Rng::seed_from(3);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..7).map(|_| rng.gaussian()).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let c = Condensed::from_rows(&m, Metric::SqEuclidean);
        for i in (0..40).step_by(7) {
            for j in (0..40).step_by(5) {
                let want = sq_euclidean(m.row(i), m.row(j));
                assert!((c.get(i, j) - want).abs() < 1e-9);
            }
        }
    }
}
