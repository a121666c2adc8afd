//! Seasonal-baseline anomaly detection.
//!
//! The detector is unsupervised and works on one cluster series at a time:
//!
//! 1. **Baseline** — a *direction-aware* robust hour-of-week template
//!    ([`robust_template`]). The per-slot median is not enough: stadium
//!    fixtures concentrate on weekend evenings, so the same hour-of-week
//!    slot carries an event in two of the window's three weeks and the
//!    median locks onto the *event* level — event weeks score zero and
//!    the one quiet week false-flags as a dip. Instead the baseline is
//!    the per-slot **minimum over non-collapse days**: bursts only ever
//!    add traffic, so the slot minimum is the event-free level, and a
//!    day-level median-ratio guard ([`DIP_DAY_MAX`]) first removes
//!    whole-day collapses (the strike) so they cannot masquerade as the
//!    quiet baseline.
//! 2. **Relative residual** — `r[t] = (y[t] − baseline) / max(baseline,
//!    floor)`. Measurement noise is multiplicative, so the *relative*
//!    residual is homoscedastic: a strike collapse at a quiet night hour
//!    scores as strongly as at the morning peak.
//! 3. **Robust z-score** — residuals are standardised by a rolling-window
//!    median/MAD (incrementally maintained sorted window), and hours with
//!    `|z| ≥ z_threshold` are flagged. The rolling median absorbs the
//!    minimum-statistic's small downward bias, and MAD tolerates up to
//!    half the window being anomalous, so the strike's 24 consecutive
//!    hours don't poison their own scale estimate.
//!
//! The threshold is *absolute* (default 7): under the generator's 10%
//! multiplicative noise a signal-free series never reaches it (the
//! minimum-baseline's residual bias pushes the clean-series max |z| to
//! ≈6, planted signals score ≥ 28), which is what the signal-free
//! control test pins.

use std::collections::VecDeque;

/// Consistency constant scaling MAD to the standard deviation of a normal.
pub(crate) const MAD_TO_SIGMA: f64 = 1.4826;

/// Detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Seasonal period in hours (hour-of-week).
    pub period: usize,
    /// Rolling-window length (hours) for the robust scale.
    pub window: usize,
    /// Absolute robust z-score at or above which an hour is flagged.
    pub z_threshold: f64,
    /// Residual denominator floor, as a fraction of the template mean
    /// (guards the near-zero venue base hours).
    pub floor_frac: f64,
    /// Lower bound on the robust scale (relative units): windows with
    /// near-zero dispersion don't produce unbounded z-scores.
    pub min_scale: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            period: crate::models::PERIOD,
            window: 168,
            z_threshold: 7.0,
            floor_frac: 0.05,
            min_scale: 0.02,
        }
    }
}

/// Detection result for one series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Anomalies {
    /// Robust z-score per hour (positive = above template).
    pub scores: Vec<f64>,
    /// Sorted indices of flagged hours (`|z| ≥ z_threshold`).
    pub flagged: Vec<usize>,
    /// The robust hour-of-week baseline the residuals ran against
    /// (length `period`; strike-like days removed before the median).
    pub template: Vec<f64>,
}

impl Anomalies {
    /// Flagged hours with positive z (bursts).
    pub fn bursts(&self) -> Vec<usize> {
        self.flagged
            .iter()
            .copied()
            .filter(|&t| self.scores[t] > 0.0)
            .collect()
    }

    /// Flagged hours with negative z (dips).
    pub fn dips(&self) -> Vec<usize> {
        self.flagged
            .iter()
            .copied()
            .filter(|&t| self.scores[t] < 0.0)
            .collect()
    }
}

/// Day-level **upper-quartile** ratio (observed / per-slot-median
/// template) at or below which a whole day is treated as a one-off
/// collapse. A strike depresses *every* hour of the day (factors
/// 0.05–0.6, all below 0.7), so even the day's 75th-percentile ratio
/// sinks under the bound; an event only ever inflates part of a day
/// (fixtures 6 evening hours, expos 13 daytime hours), so on the quiet
/// week of an event-heavy slot more than a quarter of the day's hours
/// still sit near ratio 1 and the upper quartile stays clear.
pub(crate) const DIP_DAY_MAX: f64 = 0.7;

/// Direction-aware robust hour-of-week baseline.
///
/// Two passes over the series:
///
/// 1. Per-slot *median* template ([`seasonal_template`]) → upper-quartile
///    ratio per calendar day → days at or below [`DIP_DAY_MAX`] are
///    collapse days (the strike).
/// 2. The baseline of each slot is the **minimum across its occurrences
///    on non-collapse days** (falling back to the all-days minimum when
///    every occurrence is on a collapse day). Bursts only add traffic,
///    so the minimum recovers the event-free level even when most weeks
///    of the window carry an event at that slot; excluding collapse days
///    keeps the strike from posing as that quiet level.
pub(crate) fn robust_template(values: &[f64], period: usize, floor_frac: f64) -> Vec<f64> {
    let n = values.len();
    let med = seasonal_template(values, period);
    let med_mean = med.iter().sum::<f64>() / med.len().max(1) as f64;
    if !(med_mean > 0.0) {
        return med;
    }
    let floor = floor_frac * med_mean;
    let num_days = n.div_ceil(24);
    let mut dip_day = vec![false; num_days];
    let mut ratios: Vec<f64> = Vec::with_capacity(24);
    for (d, flag) in dip_day.iter_mut().enumerate() {
        ratios.clear();
        for t in (d * 24)..((d + 1) * 24).min(n) {
            ratios.push(values[t] / med[t % period].max(floor));
        }
        if !ratios.is_empty() {
            *flag = icn_stats::summary::quantile(&ratios, 0.75) <= DIP_DAY_MAX;
        }
    }
    (0..period)
        .map(|slot| {
            let mut clean = f64::INFINITY;
            let mut any = f64::INFINITY;
            let mut t = slot;
            while t < n {
                any = any.min(values[t]);
                if !dip_day[t / 24] {
                    clean = clean.min(values[t]);
                }
                t += period;
            }
            let v = if clean.is_finite() { clean } else { any };
            if v.is_finite() {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// Hour-of-week seasonal template: per-slot median across occurrences.
pub(crate) fn seasonal_template(values: &[f64], period: usize) -> Vec<f64> {
    assert!(period > 0, "seasonal_template: zero period");
    let mut out = Vec::with_capacity(period);
    let mut occ: Vec<f64> = Vec::with_capacity(values.len() / period + 1);
    for slot in 0..period {
        occ.clear();
        let mut t = slot;
        while t < values.len() {
            occ.push(values[t]);
            t += period;
        }
        out.push(if occ.is_empty() {
            0.0
        } else {
            icn_stats::summary::median_inplace(&mut occ)
        });
    }
    out
}

/// Incrementally maintained rolling window with exact robust statistics:
/// O(w) insert/evict (binary search + memmove in a sorted buffer), O(w)
/// median-absolute-deviation via a two-pointer walk outward from the
/// median. Exactly equivalent to re-sorting the trailing window at every
/// step — the brute-force differential oracle in `icn-testkit` pins that.
#[derive(Clone, Debug)]
pub struct RollingRobust {
    capacity: usize,
    fifo: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl RollingRobust {
    /// New window holding at most `capacity` most-recent values.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RollingRobust: zero capacity");
        RollingRobust {
            capacity,
            fifo: VecDeque::with_capacity(capacity + 1),
            sorted: Vec::with_capacity(capacity + 1),
        }
    }

    /// Pushes a value, evicting the oldest once past capacity.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "RollingRobust: NaN value");
        if self.fifo.len() == self.capacity {
            let old = self.fifo.pop_front().expect("non-empty");
            let i = self.sorted.partition_point(|&v| v < old);
            debug_assert!(self.sorted[i] == old);
            self.sorted.remove(i);
        }
        self.fifo.push_back(x);
        let i = self.sorted.partition_point(|&v| v < x);
        self.sorted.insert(i, x);
    }

    /// Median of the current window (mean of the two mid values when even).
    pub fn median(&self) -> f64 {
        let s = &self.sorted;
        assert!(!s.is_empty(), "RollingRobust: median of empty window");
        let n = s.len();
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }

    /// Median absolute deviation around [`RollingRobust::median`].
    ///
    /// The deviations `|x − med|`, in sorted order, are enumerated by two
    /// pointers walking outward from the median's position in the sorted
    /// buffer; the k-th smallest deviations are read off directly without
    /// materialising the deviation array.
    pub fn mad(&self) -> f64 {
        let s = &self.sorted;
        let n = s.len();
        assert!(n > 0, "RollingRobust: MAD of empty window");
        let med = self.median();
        // lo: largest index with s[lo] ≤ med (walk left); hi: smallest
        // index with s[hi] > med (walk right). Deviations come out in
        // nondecreasing order by always consuming the nearer side.
        let mut hi = s.partition_point(|&v| v <= med);
        let mut lo = hi as isize - 1;
        let mut kth = |k: usize| -> f64 {
            // Advances the pointers until k+1 deviations are consumed;
            // because k is called in increasing order, state carries over
            // (consumed-so-far falls out of the pointer positions).
            let mut consumed = (hi as isize - 1 - lo) as usize;
            let mut last = 0.0;
            while consumed <= k {
                let left = if lo >= 0 {
                    med - s[lo as usize]
                } else {
                    f64::INFINITY
                };
                let right = if hi < n { s[hi] - med } else { f64::INFINITY };
                if left <= right {
                    last = left;
                    lo -= 1;
                } else {
                    last = right;
                    hi += 1;
                }
                consumed += 1;
            }
            last
        };
        if n % 2 == 1 {
            kth(n / 2)
        } else {
            let a = kth(n / 2 - 1);
            let b = kth(n / 2);
            (a + b) / 2.0
        }
    }
}

/// Runs the detector over one series.
pub fn detect(values: &[f64], cfg: &DetectorConfig) -> Anomalies {
    let n = values.len();
    if n == 0 {
        return Anomalies::default();
    }
    let template = robust_template(values, cfg.period, cfg.floor_frac);
    let tmpl_mean = template.iter().sum::<f64>() / template.len() as f64;
    if !(tmpl_mean > 0.0) {
        // Silent series: nothing to deviate from.
        return Anomalies {
            scores: vec![0.0; n],
            flagged: Vec::new(),
            template,
        };
    }
    let floor = cfg.floor_frac * tmpl_mean;
    let rel: Vec<f64> = values
        .iter()
        .enumerate()
        .map(|(t, &v)| {
            let tm = template[t % cfg.period];
            (v - tm) / tm.max(floor)
        })
        .collect();
    // Trailing-window robust centre and scale. The first `window − 1`
    // positions would see a shrunken window, so they are backfilled with
    // the first full window's statistics (the detector is batch, not
    // streaming: the whole series is available).
    let w = cfg.window.min(n);
    let mut roll = RollingRobust::new(w);
    let mut med = vec![0.0f64; n];
    let mut mad = vec![0.0f64; n];
    for (t, &r) in rel.iter().enumerate() {
        roll.push(r);
        med[t] = roll.median();
        mad[t] = roll.mad();
    }
    for t in 0..w - 1 {
        med[t] = med[w - 1];
        mad[t] = mad[w - 1];
    }
    let scores: Vec<f64> = rel
        .iter()
        .zip(med.iter().zip(&mad))
        .map(|(&r, (&m, &d))| (r - m) / (MAD_TO_SIGMA * d).max(cfg.min_scale))
        .collect();
    let flagged: Vec<usize> = scores
        .iter()
        .enumerate()
        .filter(|(_, &z)| z.abs() >= cfg.z_threshold)
        .map(|(t, _)| t)
        .collect();
    Anomalies {
        scores,
        flagged,
        template,
    }
}

/// Quantile of the |z| score distribution — the threshold helper used to
/// report "top q" hours. Linear interpolation on the sorted scores,
/// matching `icn_stats::summary::quantile` (the sort-oracle test pins it).
pub fn score_quantile(scores: &[f64], q: f64) -> f64 {
    let abs: Vec<f64> = scores.iter().map(|z| z.abs()).collect();
    icn_stats::summary::quantile(&abs, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    fn noisy_weekly(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|t| {
                let how = t % 168;
                let clean = 50.0 + (how as f64 * 0.21).sin() * 20.0;
                clean * (1.0 + sigma * rng.gaussian())
            })
            .collect()
    }

    #[test]
    fn template_is_per_slot_median() {
        // Three occurrences per slot: the middle one wins.
        let mut v = vec![0.0; 3 * 168];
        for t in 0..168 {
            v[t] = 10.0;
            v[168 + t] = 30.0;
            v[2 * 168 + t] = 20.0;
        }
        let tm = seasonal_template(&v, 168);
        assert!(tm.iter().all(|&x| x == 20.0));
    }

    #[test]
    fn rolling_robust_matches_simple_cases() {
        let mut r = RollingRobust::new(3);
        r.push(1.0);
        assert_eq!(r.median(), 1.0);
        assert_eq!(r.mad(), 0.0);
        r.push(3.0);
        assert_eq!(r.median(), 2.0);
        assert_eq!(r.mad(), 1.0);
        r.push(5.0);
        assert_eq!(r.median(), 3.0);
        assert_eq!(r.mad(), 2.0);
        r.push(100.0); // evicts 1.0 → window {3, 5, 100}
        assert_eq!(r.median(), 5.0);
        assert_eq!(r.mad(), 2.0);
    }

    #[test]
    fn clean_series_flags_nothing() {
        let v = noisy_weekly(504, 0.02, 7);
        let a = detect(&v, &DetectorConfig::default());
        assert!(a.flagged.is_empty(), "{:?}", a.flagged);
    }

    #[test]
    fn planted_dip_and_burst_are_flagged() {
        let mut v = noisy_weekly(504, 0.02, 8);
        // A strike-like collapse over hours 240..264 of week 2...
        for x in &mut v[240..264] {
            *x *= 0.05;
        }
        // ...and an event burst on the evening of day 18.
        for x in &mut v[450..455] {
            *x *= 8.0;
        }
        let a = detect(&v, &DetectorConfig::default());
        for t in 240..264 {
            assert!(a.flagged.contains(&t), "dip hour {t} missed");
            assert!(a.scores[t] < 0.0);
        }
        for t in 450..455 {
            assert!(a.flagged.contains(&t), "burst hour {t} missed");
            assert!(a.scores[t] > 0.0);
        }
        // And nothing outside the planted ranges.
        for &t in &a.flagged {
            assert!((240..264).contains(&t) || (450..455).contains(&t), "{t}");
        }
        assert_eq!(a.bursts(), (450..455).collect::<Vec<_>>());
        assert_eq!(a.dips(), (240..264).collect::<Vec<_>>());
    }

    #[test]
    fn silent_series_yields_no_anomalies() {
        let v = vec![0.0; 504];
        let a = detect(&v, &DetectorConfig::default());
        assert!(a.flagged.is_empty());
        assert!(a.scores.iter().all(|&z| z == 0.0));
    }

    #[test]
    fn score_quantile_spans_min_max() {
        let v = noisy_weekly(504, 0.02, 9);
        let a = detect(&v, &DetectorConfig::default());
        let q0 = score_quantile(&a.scores, 0.0);
        let q1 = score_quantile(&a.scores, 1.0);
        assert!(q0 <= q1);
        let max = a.scores.iter().fold(0.0f64, |m, z| m.max(z.abs()));
        assert_eq!(q1, max);
    }
}
