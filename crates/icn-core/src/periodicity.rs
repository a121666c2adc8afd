//! Periodicity analysis of hourly traffic series.
//!
//! Section 6 of the paper distinguishes clusters by how *regular* their
//! temporal patterns are: diurnal/weekly rhythms for commuter and daytime
//! clusters versus "sporadic, non-canonical bursts" for event venues. This
//! module quantifies that with the autocorrelation function of the hourly
//! series: a strong lag-24 peak means a daily rhythm, a strong lag-168
//! peak a weekly one, and event-driven clusters show neither. The Figure 10
//! harness reports both coefficients next to the heatmaps.

use icn_stats::summary::mean;

/// Autocorrelation of a series at a given lag — the standard *biased*
/// sample ACF (sum of `n − lag` products over the full-series variance),
/// so even a perfectly periodic series tops out at `(n − lag) / n`.
///
/// Returns 0.0 for degenerate inputs (constant series or lag ≥ length).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    let n = series.len();
    if lag == 0 {
        return 1.0;
    }
    if lag >= n {
        return 0.0;
    }
    let m = mean(series);
    let mut num = 0.0;
    let mut den = 0.0;
    for &v in series {
        den += (v - m) * (v - m);
    }
    if den <= 0.0 {
        return 0.0;
    }
    for t in 0..(n - lag) {
        num += (series[t] - m) * (series[t + lag] - m);
    }
    num / den
}

/// Rhythm profile of an hourly traffic series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rhythm {
    /// Autocorrelation at lag 24 h — the diurnal rhythm strength.
    pub daily: f64,
    /// Autocorrelation at lag 168 h — the weekly rhythm strength.
    pub weekly: f64,
}

impl Rhythm {
    /// Computes the rhythm profile of an hourly series.
    pub fn of(series: &[f64]) -> Rhythm {
        Rhythm {
            daily: autocorrelation(series, 24),
            weekly: autocorrelation(series, 168),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    /// A clean diurnal signal: sin with 24 h period plus noise.
    fn diurnal_series(days: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from(seed);
        (0..days * 24)
            .map(|h| {
                let phase = (h % 24) as f64 / 24.0 * std::f64::consts::TAU;
                10.0 + 5.0 * phase.sin() + rng.normal(0.0, noise)
            })
            .collect()
    }

    #[test]
    fn lag_zero_is_one_and_out_of_range_zero() {
        let s = diurnal_series(3, 0.1, 1);
        assert_eq!(autocorrelation(&s, 0), 1.0);
        assert_eq!(autocorrelation(&s, s.len()), 0.0);
    }

    #[test]
    fn constant_series_zero() {
        assert_eq!(autocorrelation(&[5.0; 100], 24), 0.0);
    }

    #[test]
    fn diurnal_signal_has_strong_lag24() {
        let s = diurnal_series(14, 0.5, 2);
        let r = Rhythm::of(&s);
        assert!(r.daily > 0.8, "daily {}", r.daily);
    }

    #[test]
    fn white_noise_has_no_rhythm() {
        let mut rng = Rng::seed_from(3);
        let s: Vec<f64> = (0..500).map(|_| rng.gaussian()).collect();
        let r = Rhythm::of(&s);
        assert!(r.daily.abs() < 0.15, "daily {}", r.daily);
    }

    #[test]
    fn weekly_signal_detected() {
        // Weekdays high, weekends low, across 4 weeks. The biased ACF of a
        // perfect period-168 signal over 672 samples is (672-168)/672 = 0.75.
        let s: Vec<f64> = (0..4 * 7 * 24)
            .map(|h| {
                let day = (h / 24) % 7;
                if day < 5 {
                    10.0
                } else {
                    2.0
                }
            })
            .collect();
        let r = Rhythm::of(&s);
        assert!((r.weekly - 0.75).abs() < 0.02, "weekly {}", r.weekly);
    }

    #[test]
    fn sporadic_bursts_are_aperiodic() {
        // Mostly silent with a few random bursts — the event-venue shape.
        let mut rng = Rng::seed_from(5);
        let mut s = vec![0.1; 21 * 24];
        for _ in 0..4 {
            let at = rng.index(s.len() - 6);
            for v in &mut s[at..at + 5] {
                *v = 50.0;
            }
        }
        let r = Rhythm::of(&s);
        assert!(r.daily < 0.3, "daily {}", r.daily);
    }
}
