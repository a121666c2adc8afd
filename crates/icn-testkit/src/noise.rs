//! Fault and noise injection into a totals matrix.
//!
//! Real measurement feeds are imperfect: probes drop hours, antennas go
//! silent, classifiers misattribute sessions. These injectors corrupt a
//! totals matrix in controlled ways so that tests can verify the pipeline's
//! guards (dead-row filtering, NaN detection) and quantify the clustering's
//! robustness to classifier noise.

use icn_stats::{Matrix, Rng};

/// Zeroes out an entire antenna row (a silent antenna / dead probe) for a
/// random `fraction` of rows. Returns the indices of the killed rows.
pub fn kill_rows(t: &mut Matrix, fraction: f64, rng: &mut Rng) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "kill_rows: bad fraction");
    let n = t.rows();
    let k = ((n as f64) * fraction).round() as usize;
    let victims = rng.sample_indices(n, k.min(n));
    for &r in &victims {
        for v in t.row_mut(r) {
            *v = 0.0;
        }
    }
    victims
}

/// Reassigns a `fraction` of each row's traffic to a random other service —
/// modelling DPI classifier confusion. Row totals are preserved.
pub fn misclassify(t: &mut Matrix, fraction: f64, rng: &mut Rng) {
    assert!((0.0..=1.0).contains(&fraction), "misclassify: bad fraction");
    let cols = t.cols();
    if cols < 2 {
        return;
    }
    for r in 0..t.rows() {
        for c in 0..cols {
            let moved = t.get(r, c) * fraction;
            if moved <= 0.0 {
                continue;
            }
            let mut dst = rng.index(cols);
            if dst == c {
                dst = (dst + 1) % cols;
            }
            t.set(r, c, t.get(r, c) - moved);
            t.set(r, dst, t.get(r, dst) + moved);
        }
    }
}

/// Multiplies every entry by `exp(N(0, sigma))` — heavy multiplicative
/// measurement noise.
pub fn multiplicative_noise(t: &mut Matrix, sigma: f64, rng: &mut Rng) {
    assert!(sigma >= 0.0, "multiplicative_noise: negative sigma");
    *t = t.map(|v| v * rng.lognormal(0.0, sigma));
}

/// Poisons `count` random entries with NaN — used to test the pipeline's
/// non-finite guard.
pub fn poison_nan(t: &mut Matrix, count: usize, rng: &mut Rng) {
    for _ in 0..count {
        let r = rng.index(t.rows());
        let c = rng.index(t.cols());
        t.set(r, c, f64::NAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Matrix {
        Matrix::from_vec(4, 3, (1..=12).map(|x| x as f64).collect())
    }

    #[test]
    fn kill_rows_zeroes_victims() {
        let mut t = mat();
        let mut rng = Rng::seed_from(1);
        let victims = kill_rows(&mut t, 0.5, &mut rng);
        assert_eq!(victims.len(), 2);
        for &r in &victims {
            assert!(t.row(r).iter().all(|&v| v == 0.0));
        }
        let zero_rows = (0..t.rows()).filter(|&r| t.row(r).iter().sum::<f64>() <= 0.0);
        assert_eq!(zero_rows.count(), victims.len());
    }

    #[test]
    fn misclassify_preserves_row_totals() {
        let mut t = mat();
        let before = t.row_sums();
        let mut rng = Rng::seed_from(2);
        misclassify(&mut t, 0.3, &mut rng);
        let after = t.row_sums();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9);
        }
        // But the matrix did change.
        assert_ne!(t, mat());
    }

    #[test]
    fn misclassify_single_column_noop() {
        let mut t = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let mut rng = Rng::seed_from(3);
        misclassify(&mut t, 0.5, &mut rng);
        assert_eq!(t.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn multiplicative_noise_keeps_positivity() {
        let mut t = mat();
        let mut rng = Rng::seed_from(4);
        multiplicative_noise(&mut t, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn noise_sigma_zero_is_identity() {
        let mut t = mat();
        let mut rng = Rng::seed_from(5);
        multiplicative_noise(&mut t, 0.0, &mut rng);
        assert_eq!(t, mat());
    }

    #[test]
    fn poison_nan_detected() {
        let mut t = mat();
        let mut rng = Rng::seed_from(6);
        assert!(!t.has_non_finite());
        poison_nan(&mut t, 3, &mut rng);
        assert!(t.has_non_finite());
    }
}
