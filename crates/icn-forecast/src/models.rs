//! The three busy-hour forecasting models.
//!
//! All three consume a raw hourly series (the cluster median built by
//! [`crate::series`]) and emit an `horizon`-hour continuation:
//!
//! * **Seasonal naive** — copy the value of the same hour-of-week one
//!   period (168 h) earlier. The baseline every other model must beat: it
//!   nails the weekly shape but replays last week's measurement noise and
//!   one-off anomalies verbatim.
//! * **ETS** — additive Holt–Winters exponential smoothing
//!   (level/trend/seasonal recurrences with a 168-hour season). Smoothing
//!   averages the noise out of the seasonal template, which is where the
//!   MAE win over the naive baseline comes from.
//! * **Forest regressor** — reuses the `icn-forest` *classifier* for
//!   regression over **residuals**: each hour's deviation from its
//!   hour-of-week template is quantile-binned, a forest is fitted on
//!   lagged residuals (1 h, 24 h, 168 h) plus calendar features, and the
//!   forecast is the template plus the probability-weighted mean of the
//!   bin means. Multi-step forecasts feed predicted residuals back in as
//!   lags.
//!
//! Everything here is sequential per series and allocation-light; the
//! parallelism lives one level up (clusters fan out via `icn_stats::par`)
//! and forest fitting is already deterministic per-tree parallel.

use icn_forest::{ForestConfig, MaxFeatures, RandomForest, SoaForest, TrainSet, TreeConfig};
use icn_stats::Matrix;

/// Hours per seasonal period: the hour-of-week cycle.
pub(crate) const PERIOD: usize = 168;

/// Which forecasting model to run as the primary output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Same hour-of-week, one period earlier.
    SeasonalNaive,
    /// Additive Holt–Winters exponential smoothing.
    Ets,
    /// Forest regressor on lagged + calendar features.
    Forest,
}

impl Model {
    /// All models, in report order.
    pub const ALL: [Model; 3] = [Model::SeasonalNaive, Model::Ets, Model::Forest];

    /// Stable identifier (CLI flag value, JSON field).
    pub fn as_str(&self) -> &'static str {
        match self {
            Model::SeasonalNaive => "naive",
            Model::Ets => "ets",
            Model::Forest => "forest",
        }
    }

    /// Parses the identifier produced by [`Model::as_str`].
    pub fn parse(s: &str) -> Option<Model> {
        match s {
            "naive" => Some(Model::SeasonalNaive),
            "ets" => Some(Model::Ets),
            "forest" => Some(Model::Forest),
            _ => None,
        }
    }
}

/// Seasonal-naive forecast: `ŷ[T+h] = y[T+h−k·period]` with the smallest
/// `k ≥ 1` that lands inside the history.
///
/// Requires `history.len() ≥ period`.
pub fn seasonal_naive_forecast(history: &[f64], period: usize, horizon: usize) -> Vec<f64> {
    assert!(period > 0, "seasonal_naive: zero period");
    assert!(
        history.len() >= period,
        "seasonal_naive: history {} shorter than period {period}",
        history.len()
    );
    let n = history.len();
    (0..horizon)
        .map(|h| {
            // Walk back whole periods until inside the observed range.
            let mut t = n + h;
            while t >= n {
                t -= period;
            }
            history[t]
        })
        .collect()
}

/// Smoothing parameters of the additive Holt–Winters recurrences.
#[derive(Clone, Copy, Debug)]
pub struct EtsParams {
    /// Level smoothing factor.
    pub alpha: f64,
    /// Trend smoothing factor.
    pub beta: f64,
    /// Seasonal smoothing factor.
    pub gamma: f64,
    /// Season length in hours.
    pub period: usize,
}

impl Default for EtsParams {
    fn default() -> Self {
        // Conservative smoothing: a 3-week history gives each of the 168
        // seasonal slots only 2–3 observations, so the robust
        // initialisation carries most of the signal and the recurrences
        // only fine-tune it. Textbook-aggressive constants (α ≈ 0.2)
        // would re-inject one draw's noise into the state and lose the
        // averaging edge over the seasonal-naive baseline.
        EtsParams {
            alpha: 0.02,
            beta: 0.001,
            gamma: 0.02,
            period: PERIOD,
        }
    }
}

/// Additive Holt–Winters forecast.
///
/// Initialisation: the trend starts from the **median same-slot
/// one-period difference** (a Theil–Sen-style robust slope — same-slot
/// differencing cancels the seasonal pattern exactly, and the median
/// keeps a residual event week from faking a trend the level recurrence
/// would then extrapolate), the level from the first period mean shifted
/// to the period's end, and each seasonal slot from the **average of its
/// deviations from
/// the global linear baseline over every occurrence in the history** —
/// trailing partial periods included, so the freshest day or two is never
/// discarded. Averaging `k` occurrences divides the measurement noise
/// baked into the seasonal state by `√k`, which is exactly the edge over
/// the seasonal-naive baseline (the naive copy carries one full noise
/// draw per slot). The recurrences then run over `t ∈ [period, n)`:
///
/// ```text
/// l[t] = α·(y[t] − s[t−m]) + (1−α)·(l[t−1] + b[t−1])
/// b[t] = β·(l[t] − l[t−1]) + (1−β)·b[t−1]
/// s[t] = γ·(y[t] − l[t]) + (1−γ)·s[t−m]
/// ŷ[T+h] = l[T] + (h+1)·b[T] + s[T+h+1−m·⌈(h+1)/m⌉]
/// ```
///
/// Requires `history.len() ≥ 2·period`.
pub fn ets_forecast(history: &[f64], params: &EtsParams, horizon: usize) -> Vec<f64> {
    let m = params.period;
    let n = history.len();
    assert!(m > 0, "ets: zero period");
    assert!(n >= 2 * m, "ets: history {n} shorter than two periods {m}");
    let first_period_mean = history[..m].iter().sum::<f64>() / m as f64;
    let mut diffs: Vec<f64> = (m..n)
        .map(|t| (history[t] - history[t - m]) / m as f64)
        .collect();
    let mut trend = icn_stats::summary::median_inplace(&mut diffs);
    let mid = (m as f64 - 1.0) / 2.0;
    // Level state as of the end of the first period (the recurrences take
    // over from t = m).
    let mut level = first_period_mean + trend * mid;
    // Seasonal ring buffer: s[t mod m] always holds the latest state of
    // that slot (slots are only ever read exactly one period after they
    // were written, so the ring never clobbers a pending value). Each slot
    // initialises to its deviation from the global linear baseline
    // `period_mean[0] + trend·(t − mid)`, averaged across every
    // occurrence in the history — including the trailing partial period.
    let mut seasonal: Vec<f64> = (0..m)
        .map(|i| {
            let mut acc = 0.0;
            let mut k = 0usize;
            let mut t = i;
            while t < n {
                acc += history[t] - (first_period_mean + trend * (t as f64 - mid));
                k += 1;
                t += m;
            }
            acc / k as f64
        })
        .collect();
    for t in m..n {
        let y = history[t];
        let s_prev = seasonal[t % m];
        let level_prev = level;
        level = params.alpha * (y - s_prev) + (1.0 - params.alpha) * (level + trend);
        trend = params.beta * (level - level_prev) + (1.0 - params.beta) * trend;
        seasonal[t % m] = params.gamma * (y - level) + (1.0 - params.gamma) * s_prev;
    }
    (0..horizon)
        .map(|h| level + (h + 1) as f64 * trend + seasonal[(n + h) % m])
        .collect()
}

/// Forest-regressor parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestParams {
    /// Trees in the regression forest.
    pub n_trees: usize,
    /// Quantile bins the target is discretised into.
    pub bins: usize,
    /// Fitting seed (forked per cluster by the caller).
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 50,
            bins: 16,
            seed: 0xF0_CA57,
        }
    }
}

/// Day-of-week index of hour `t` given the weekday index of day 0.
/// Indices are 0 = Monday … 6 = Sunday.
fn dow_of(start_dow: usize, t: usize) -> usize {
    (start_dow + t / 24) % 7
}

/// Feature row for predicting the residual at absolute hour `t`: the
/// caller guarantees `resid[t−1]`, `resid[t−24]` and `resid[t−168]` exist
/// (possibly as earlier predictions during multi-step forecasting).
fn feature_row(resid: &[f64], t: usize, start_dow: usize) -> [f64; 6] {
    let dow = dow_of(start_dow, t);
    [
        resid[t - 1],
        resid[t - 24],
        resid[t - PERIOD],
        (t % 24) as f64,
        dow as f64,
        if dow >= 5 { 1.0 } else { 0.0 },
    ]
}

/// Forest-regressor forecast.
///
/// The forest predicts the **residual** of each hour against the
/// per-slot hour-of-week template (the mean over every occurrence of the
/// slot in the history), not the absolute level: quantile-binning a
/// strongly seasonal series at absolute scale would spend all 16 bins on
/// the daily swing and quantise the forecast to bin means far coarser
/// than the measurement noise. At residual scale the bins resolve the
/// noise distribution itself, the template contributes the seasonal
/// shape with `√k`-averaged noise, and the lagged-residual features let
/// the forest pick up level drift (drift makes consecutive residuals
/// positively correlated). The forecast is `template[slot] + predicted
/// residual`, fed back recursively for multi-step horizons.
///
/// `start_dow` is the day-of-week index (0 = Monday) of the first day of
/// the series, so calendar features stay correct past the history's end.
/// Requires `history.len() ≥ period + bins` (one period of lag warm-up
/// plus at least one training row per quantile bin).
pub(crate) fn forest_forecast(
    history: &[f64],
    params: &ForestParams,
    start_dow: usize,
    horizon: usize,
) -> Vec<f64> {
    let n = history.len();
    assert!(params.bins >= 2, "forest: need at least two bins");
    assert!(
        n >= PERIOD + params.bins,
        "forest: history {n} too short for lag warm-up"
    );
    // Per-slot template: mean over all occurrences (partial periods
    // included), then the residual series the forest actually models.
    let mut slot_sum = [0.0f64; PERIOD];
    let mut slot_count = [0usize; PERIOD];
    for (t, &v) in history.iter().enumerate() {
        slot_sum[t % PERIOD] += v;
        slot_count[t % PERIOD] += 1;
    }
    let template: Vec<f64> = slot_sum
        .iter()
        .zip(&slot_count)
        .map(|(&s, &c)| s / c.max(1) as f64)
        .collect();
    let resid: Vec<f64> = history
        .iter()
        .enumerate()
        .map(|(t, &v)| v - template[t % PERIOD])
        .collect();
    // Quantile-bin the residual targets. Edges are the sorted targets at
    // bin boundaries; duplicate edges collapse, so bin ids are remapped
    // dense before fitting (TrainSet infers n_classes = max(y)+1).
    let targets: Vec<f64> = resid[PERIOD..].to_vec();
    let mut sorted = targets.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("forest: NaN target"));
    let edges: Vec<f64> = (1..params.bins)
        .map(|b| sorted[b * sorted.len() / params.bins])
        .collect();
    let raw_bin = |y: f64| edges.partition_point(|&e| e <= y);
    let mut used = vec![false; params.bins];
    for &y in &targets {
        used[raw_bin(y)] = true;
    }
    let remap: Vec<usize> = used
        .iter()
        .scan(0usize, |next, &u| {
            let id = *next;
            if u {
                *next += 1;
            }
            Some(id)
        })
        .collect();
    let n_classes = used.iter().filter(|&&u| u).count();
    if n_classes < 2 {
        // Degenerate residuals (the template explains everything up to a
        // constant): forecast template + that constant.
        return (0..horizon)
            .map(|h| template[(n + h) % PERIOD] + targets[0])
            .collect();
    }
    let y: Vec<usize> = targets.iter().map(|&v| remap[raw_bin(v)]).collect();
    // Bin value = mean of the training targets that landed in the bin.
    let mut bin_sum = vec![0.0f64; n_classes];
    let mut bin_count = vec![0usize; n_classes];
    for (&v, &b) in targets.iter().zip(&y) {
        bin_sum[b] += v;
        bin_count[b] += 1;
    }
    let bin_mean: Vec<f64> = bin_sum
        .iter()
        .zip(&bin_count)
        .map(|(&s, &c)| s / c.max(1) as f64)
        .collect();
    let rows = targets.len();
    let mut x = Matrix::zeros(rows, 6);
    for (i, t) in (PERIOD..n).enumerate() {
        for (j, v) in feature_row(&resid, t, start_dow).into_iter().enumerate() {
            x.set(i, j, v);
        }
    }
    // Leaf-size regularisation is what makes the regressor beat the naive
    // baseline: every leaf averages ≥6 noisy hours, so leaf predictions
    // carry ~σ/√6 of the measurement noise instead of memorising one draw
    // the way the seasonal-naive copy does.
    let forest = RandomForest::fit(
        &TrainSet::new(x, y),
        &ForestConfig {
            n_trees: params.n_trees,
            seed: params.seed,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                min_samples_leaf: 6,
                min_samples_split: 12,
                max_depth: usize::MAX,
            },
        },
    );
    // Recursive multi-step: predicted residuals extend the residual
    // series and feed the short lags of later steps (the 168 h lag stays
    // inside the history for any horizon ≤ period). The forest is frozen
    // into its structure-of-arrays form once and probed through a reused
    // scratch buffer — `SoaForest::predict_proba_into` is bit-identical to
    // `RandomForest::predict_proba`, without the per-step allocation.
    let soa = SoaForest::from_forest(&forest);
    let mut proba = vec![0.0f64; soa.n_classes];
    let mut extended = resid;
    let mut out = Vec::with_capacity(horizon);
    for h in 0..horizon {
        let feats = feature_row(&extended, n + h, start_dow);
        soa.predict_proba_into(&feats, &mut proba);
        let pred: f64 = proba.iter().zip(&bin_mean).map(|(p, m)| p * m).sum();
        extended.push(pred);
        out.push(template[(n + h) % PERIOD] + pred);
    }
    out
}

/// Dispatches to the model's forecast function.
pub(crate) fn forecast_with(
    model: Model,
    history: &[f64],
    ets: &EtsParams,
    forest: &ForestParams,
    start_dow: usize,
    horizon: usize,
) -> Vec<f64> {
    match model {
        Model::SeasonalNaive => seasonal_naive_forecast(history, ets.period, horizon),
        Model::Ets => ets_forecast(history, ets, horizon),
        Model::Forest => forest_forecast(history, forest, start_dow, horizon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noiseless weekly pattern: value depends only on hour-of-week.
    fn weekly(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let how = t % PERIOD;
                10.0 + (how as f64 * 0.13).sin() * 4.0 + (how / 24) as f64
            })
            .collect()
    }

    #[test]
    fn model_ids_round_trip() {
        for m in Model::ALL {
            assert_eq!(Model::parse(m.as_str()), Some(m));
        }
        assert_eq!(Model::parse("bogus"), None);
    }

    #[test]
    fn naive_replays_last_period() {
        let h = weekly(3 * PERIOD);
        let f = seasonal_naive_forecast(&h, PERIOD, 24);
        for (i, &v) in f.iter().enumerate() {
            assert_eq!(v, h[2 * PERIOD + i]);
        }
    }

    #[test]
    fn naive_wraps_horizons_beyond_one_period() {
        let h = weekly(PERIOD);
        let f = seasonal_naive_forecast(&h, PERIOD, PERIOD + 5);
        assert_eq!(f[PERIOD + 2], h[2]);
    }

    #[test]
    fn ets_is_exact_on_noiseless_seasonal_series() {
        // With zero noise and zero trend the recurrences converge onto the
        // pattern; the forecast must track it closely.
        let h = weekly(3 * PERIOD);
        let f = ets_forecast(&h, &EtsParams::default(), 24);
        for (i, &v) in f.iter().enumerate() {
            let truth = 10.0
                + (((3 * PERIOD + i) % PERIOD) as f64 * 0.13).sin() * 4.0
                + (((3 * PERIOD + i) % PERIOD) / 24) as f64;
            assert!((v - truth).abs() < 0.8, "h{i}: {v} vs {truth}");
        }
    }

    #[test]
    fn ets_tracks_a_linear_trend() {
        let h: Vec<f64> = (0..3 * PERIOD).map(|t| 5.0 + 0.01 * t as f64).collect();
        let f = ets_forecast(&h, &EtsParams::default(), 10);
        let expect = 5.0 + 0.01 * (3 * PERIOD) as f64;
        assert!((f[0] - expect).abs() < 0.5, "{} vs {expect}", f[0]);
        assert!(f[9] > f[0]);
    }

    #[test]
    fn forest_learns_a_seasonal_pattern() {
        let h = weekly(3 * PERIOD);
        let f = forest_forecast(&h, &ForestParams::default(), 2, 24);
        // Leaf-size regularisation smooths over neighbouring hours, so
        // judge the day as a whole rather than pointwise.
        let mae: f64 = f
            .iter()
            .enumerate()
            .map(|(i, &v)| (v - h[PERIOD + i]).abs()) // same hour-of-week
            .sum::<f64>()
            / f.len() as f64;
        assert!(mae < 1.5, "mae {mae}");
    }

    #[test]
    fn forest_constant_series_forecasts_the_constant() {
        let h = vec![7.5; 2 * PERIOD];
        let f = forest_forecast(&h, &ForestParams::default(), 0, 8);
        assert!(f.iter().all(|&v| v == 7.5));
    }

    #[test]
    fn forecasts_are_deterministic() {
        let h = weekly(3 * PERIOD);
        let p = ForestParams::default();
        assert_eq!(
            forest_forecast(&h, &p, 2, 24),
            forest_forecast(&h, &p, 2, 24)
        );
        let e = EtsParams::default();
        assert_eq!(ets_forecast(&h, &e, 24), ets_forecast(&h, &e, 24));
    }
}
