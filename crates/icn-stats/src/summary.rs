//! Scalar summaries over slices: mean, median, quantiles, correlation.
//!
//! The temporal analysis of the paper (Section 6) reports the *median*
//! traffic per hour across the antennas of a cluster, and the clustering
//! diagnostics need means and correlations; these are the shared
//! implementations. All functions treat an empty slice as an error (they
//! panic with a clear message) rather than silently returning NaN — upstream
//! code guards against empty clusters explicitly.

/// Arithmetic mean. Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Minimum value. Panics on an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of empty slice");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value. Panics on an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "max of empty slice");
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (average of the two central order statistics for even length).
/// Does not modify the input. Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile by linear interpolation between order statistics (the same
/// convention as NumPy's default, `q` in `[0, 1]`). Panics on an empty slice
/// or an out-of-range `q`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile: q out of [0,1]");
    let mut v = xs.to_vec();
    // Total order: NaNs would poison sorting; forbid them loudly.
    assert!(v.iter().all(|x| !x.is_nan()), "quantile: NaN in input");
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median that is allowed to reorder its scratch input (no allocation).
pub fn median_inplace(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("median_inplace: NaN in input"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Pearson correlation coefficient of two equal-length slices.
/// Returns 0.0 when either side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    assert!(!xs.is_empty(), "pearson of empty slices");
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "mean of empty")]
    fn mean_empty_panics() {
        mean(&[]);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_inplace_agrees() {
        let xs = [9.0, -1.0, 4.0, 4.0, 0.0];
        let mut scratch = xs;
        assert_eq!(median_inplace(&mut scratch), median(&xs));
    }

    #[test]
    fn quantile_endpoints_and_interp() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        // pos = 0.25 * 3 = 0.75 -> between 10 and 20 at 75%.
        assert!((quantile(&xs, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "q out of")]
    fn quantile_bad_q_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn quantile_nan_panics() {
        quantile(&[1.0, f64::NAN], 0.5);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -2.0, 7.0];
        assert_eq!(min(&xs), -2.0);
        assert_eq!(max(&xs), 7.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let ny: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &ny) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }
}
