//! Fixed-width histograms.
//!
//! Figure 1 of the paper contrasts the histograms of (i) max-normalised
//! traffic, (ii) RCA and (iii) RSCA over the services of sample antennas to
//! motivate the RSCA transform. [`Histogram`] is the shared binning used by
//! that figure's harness and by report rendering.

/// A fixed-width histogram over a closed interval `[lo, hi]`.
///
/// Values exactly equal to `hi` land in the last bin; values outside the
/// range are counted separately as underflow/overflow so that no mass is
/// silently dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi]`.
    ///
    /// # Panics
    /// If `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: zero bins");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "Histogram: non-finite bounds"
        );
        assert!(lo < hi, "Histogram: lo must be < hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram directly from data.
    pub fn of(values: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Adds one observation. NaN is counted as overflow (it is out of every
    /// bin) so that mass conservation still holds.
    fn add(&mut self, v: f64) {
        if v.is_nan() {
            self.overflow += 1;
            return;
        }
        if v < self.lo {
            self.underflow += 1;
        } else if v > self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let mut idx = ((v - self.lo) / width) as usize;
            if idx >= self.counts.len() {
                idx = self.counts.len() - 1; // v == hi
            }
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above `hi` (including NaN).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `(left_edge, right_edge)` of bin `i`.
    pub fn edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "Histogram::edges: bin out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_exact() {
        let h = Histogram::of(&[0.0, 0.25, 0.5, 0.75, 1.0], 0.0, 1.0, 4);
        // 0.0 -> bin0, 0.25 -> bin1, 0.5 -> bin2, 0.75 -> bin3, 1.0 -> bin3.
        assert_eq!(h.counts(), &[1, 1, 1, 2]);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow_counted() {
        let h = Histogram::of(&[-1.0, 0.5, 2.0, f64::NAN], 0.0, 1.0, 2);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn mass_conservation() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.013 - 2.0).collect();
        let h = Histogram::of(&data, 0.0, 5.0, 17);
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn edges() {
        let h = Histogram::new(0.0, 2.0, 4);
        assert_eq!(h.edges(0), (0.0, 0.5));
        assert_eq!(h.edges(3), (1.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "zero bins")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "lo must be < hi")]
    fn inverted_bounds_panics() {
        Histogram::new(1.0, 0.0, 3);
    }
}
