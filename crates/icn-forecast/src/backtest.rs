//! Rolling-origin backtesting.
//!
//! Each origin truncates the series at a training length, forecasts the
//! next `horizon` hours with every model, and scores the forecasts against
//! the held-out actuals with MAE and sMAPE. Scores aggregate as the mean
//! over origins — the standard time-series cross-validation that keeps
//! test hours strictly after training hours.
//!
//! This is where the tentpole's evaluation gate lives: the seasonal-naive
//! baseline replays last week's noise and anomalies verbatim, so a model
//! that actually smooths (ETS) or learns the seasonal structure (forest)
//! must post a lower MAE. `tests/forecast_signals.rs` pins that ordering.

use crate::models::{self, EtsParams, ForestParams, Model};
use icn_stats::par;

/// Backtest configuration: training lengths (in hours) and horizon.
#[derive(Clone, Debug)]
pub(crate) struct BacktestConfig {
    /// Training lengths; each must be ≥ 2 periods and leave `horizon`
    /// hours of actuals after it.
    pub origins: Vec<usize>,
    /// Forecast horizon scored at each origin.
    pub horizon: usize,
}

impl BacktestConfig {
    /// Default splits for an `n`-hour series: three origins across the
    /// final week, 24-hour horizon. Returns `None` when the series is too
    /// short to leave two full periods of training data.
    pub(crate) fn standard(n: usize) -> Option<BacktestConfig> {
        let horizon = 24;
        let min_train = 2 * models::PERIOD;
        if n < min_train + horizon {
            return None;
        }
        // Latest origin leaves exactly `horizon` actuals; earlier ones
        // step back a day at a time while enough training data remains.
        let origins: Vec<usize> = (0..3)
            .map(|i| n - horizon - 48 * i)
            .filter(|&o| o >= min_train)
            .collect();
        Some(BacktestConfig { origins, horizon })
    }
}

/// MAE/sMAPE pair for one model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelScore {
    /// Mean absolute error over all origin × horizon points.
    pub mae: f64,
    /// Symmetric mean absolute percentage error (0..2).
    pub smape: f64,
}

/// Backtest scores for the three models.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BacktestScores {
    /// Seasonal-naive baseline.
    pub naive: ModelScore,
    /// Holt–Winters ETS.
    pub ets: ModelScore,
    /// Forest regressor.
    pub forest: ModelScore,
}

/// Mean absolute error between a forecast and the actuals.
pub(crate) fn mae(forecast: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(forecast.len(), actual.len(), "mae: length mismatch");
    assert!(!forecast.is_empty(), "mae: empty");
    forecast
        .iter()
        .zip(actual)
        .map(|(f, a)| (f - a).abs())
        .sum::<f64>()
        / forecast.len() as f64
}

/// Symmetric MAPE: `mean(2·|f−a| / (|f|+|a|))`, with an exact-zero pair
/// contributing zero error.
pub fn smape(forecast: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(forecast.len(), actual.len(), "smape: length mismatch");
    assert!(!forecast.is_empty(), "smape: empty");
    forecast
        .iter()
        .zip(actual)
        .map(|(f, a)| {
            let denom = f.abs() + a.abs();
            if denom > 0.0 {
                2.0 * (f - a).abs() / denom
            } else {
                0.0
            }
        })
        .sum::<f64>()
        / forecast.len() as f64
}

/// Robust rolling-origin backtest: models are **fit** on `train_values`
/// (typically the anomaly-imputed series) and **scored** against
/// `actual_values` (the raw observations), with the hours listed in
/// `excluded` left out of the error aggregation.
///
/// This is the standard "score on normal hours" convention: an hour the
/// detector flagged as anomalous is unforecastable by construction (a
/// strike or a one-off fixture), so it belongs in neither the training
/// state nor the score. Origins whose entire horizon is excluded drop
/// out of the aggregate. With `train_values == actual_values` and an
/// empty exclusion list it is the plain rolling-origin backtest.
pub(crate) fn backtest_masked(
    train_values: &[f64],
    actual_values: &[f64],
    excluded: &[usize],
    cfg: &BacktestConfig,
    ets: &EtsParams,
    forest: &ForestParams,
    start_dow: usize,
) -> BacktestScores {
    assert!(!cfg.origins.is_empty(), "backtest: no origins");
    assert_eq!(
        train_values.len(),
        actual_values.len(),
        "backtest: train/actual length mismatch"
    );
    // Scorable origins and their kept (non-excluded) horizon offsets.
    let scorable: Vec<(usize, Vec<usize>)> = cfg
        .origins
        .iter()
        .map(|&origin| {
            assert!(
                origin + cfg.horizon <= actual_values.len(),
                "backtest: origin {origin} + horizon {} exceeds series {}",
                cfg.horizon,
                actual_values.len()
            );
            let kept: Vec<usize> = (0..cfg.horizon)
                .filter(|h| !excluded.contains(&(origin + h)))
                .collect();
            (origin, kept)
        })
        .filter(|(_, kept)| !kept.is_empty())
        .collect();
    // The model refits dominate the cost, so the (origin × model)
    // forecast vectors are produced in parallel; each is a pure function
    // of its truncated training slice. The error *accumulation* below
    // stays serial in the original (origin, model) order — the flat f64
    // `sums` chains are not reassociable — so the scores are bit-identical
    // to the fully serial loop at any `ICN_THREADS`.
    let n_models = Model::ALL.len();
    let forecasts: Vec<Vec<f64>> = par::map_indexed(scorable.len() * n_models, |j| {
        let (origin, _) = scorable[j / n_models];
        let model = Model::ALL[j % n_models];
        let train = &train_values[..origin];
        models::forecast_with(model, train, ets, forest, start_dow, cfg.horizon)
    });
    let mut sums = [(0.0f64, 0.0f64); 3]; // (mae, smape) per model
    let scored_origins = scorable.len();
    let mut f_kept: Vec<f64> = Vec::with_capacity(cfg.horizon);
    let mut a_kept: Vec<f64> = Vec::with_capacity(cfg.horizon);
    for (oi, (origin, kept)) in scorable.iter().enumerate() {
        for i in 0..n_models {
            let f = &forecasts[oi * n_models + i];
            f_kept.clear();
            a_kept.clear();
            for &h in kept {
                f_kept.push(f[h]);
                a_kept.push(actual_values[origin + h]);
            }
            sums[i].0 += mae(&f_kept, &a_kept);
            sums[i].1 += smape(&f_kept, &a_kept);
        }
    }
    if scored_origins == 0 {
        return BacktestScores::default();
    }
    let k = scored_origins as f64;
    let score = |i: usize| ModelScore {
        mae: sums[i].0 / k,
        smape: sums[i].1 / k,
    };
    BacktestScores {
        naive: score(0),
        ets: score(1),
        forest: score(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    #[test]
    fn standard_splits_respect_bounds() {
        let cfg = BacktestConfig::standard(504).unwrap();
        assert_eq!(cfg.horizon, 24);
        assert_eq!(cfg.origins, vec![480, 432, 384]);
        assert!(BacktestConfig::standard(300).is_none());
    }

    #[test]
    fn mae_and_smape_basics() {
        assert_eq!(mae(&[1.0, 3.0], &[2.0, 1.0]), 1.5);
        assert_eq!(smape(&[0.0], &[0.0]), 0.0);
        assert!((smape(&[3.0], &[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_models_beat_naive_on_noisy_seasonal_series() {
        // The synthetic case mirroring the real gate: strong weekly shape
        // + multiplicative noise. Naive MAE carries two noise draws per
        // point; ETS and the forest smooth one away.
        let mut rng = Rng::seed_from(42);
        let v: Vec<f64> = (0..504)
            .map(|t| {
                let how = t % 168;
                let clean = 60.0 + (how as f64 * 0.19).sin() * 25.0 + ((how / 24) as f64) * 3.0;
                clean * (1.0 + 0.10 * rng.gaussian())
            })
            .collect();
        let cfg = BacktestConfig::standard(v.len()).unwrap();
        let s = backtest_masked(
            &v,
            &v,
            &[],
            &cfg,
            &EtsParams::default(),
            &ForestParams::default(),
            2,
        );
        assert!(
            s.ets.mae < s.naive.mae,
            "ets {} naive {}",
            s.ets.mae,
            s.naive.mae
        );
        assert!(
            s.forest.mae < s.naive.mae,
            "forest {} naive {}",
            s.forest.mae,
            s.naive.mae
        );
    }

    #[test]
    fn backtest_is_deterministic() {
        let v: Vec<f64> = (0..504)
            .map(|t| ((t % 168) as f64 * 0.3).cos() + 5.0)
            .collect();
        let cfg = BacktestConfig::standard(v.len()).unwrap();
        let a = backtest_masked(
            &v,
            &v,
            &[],
            &cfg,
            &EtsParams::default(),
            &ForestParams::default(),
            0,
        );
        let b = backtest_masked(
            &v,
            &v,
            &[],
            &cfg,
            &EtsParams::default(),
            &ForestParams::default(),
            0,
        );
        assert_eq!(a, b);
    }

    /// Differential oracle: the parallel (origin × model) forecast fan-out
    /// plus serial accumulation must reproduce the naive fully-serial
    /// backtest loop **bit for bit** — including the masked variant, where
    /// kept-hour filtering interleaves with the error sums.
    #[test]
    fn parallel_backtest_matches_serial_oracle_bitwise() {
        fn serial_oracle(
            train_values: &[f64],
            actual_values: &[f64],
            excluded: &[usize],
            cfg: &BacktestConfig,
            ets: &EtsParams,
            forest: &ForestParams,
            start_dow: usize,
        ) -> BacktestScores {
            let mut sums = [(0.0f64, 0.0f64); 3];
            let mut scored = 0usize;
            for &origin in &cfg.origins {
                let kept: Vec<usize> = (0..cfg.horizon)
                    .filter(|h| !excluded.contains(&(origin + h)))
                    .collect();
                if kept.is_empty() {
                    continue;
                }
                scored += 1;
                for (i, &model) in Model::ALL.iter().enumerate() {
                    let f = models::forecast_with(
                        model,
                        &train_values[..origin],
                        ets,
                        forest,
                        start_dow,
                        cfg.horizon,
                    );
                    let f_kept: Vec<f64> = kept.iter().map(|&h| f[h]).collect();
                    let a_kept: Vec<f64> =
                        kept.iter().map(|&h| actual_values[origin + h]).collect();
                    sums[i].0 += mae(&f_kept, &a_kept);
                    sums[i].1 += smape(&f_kept, &a_kept);
                }
            }
            let k = scored as f64;
            let score = |i: usize| ModelScore {
                mae: sums[i].0 / k,
                smape: sums[i].1 / k,
            };
            BacktestScores {
                naive: score(0),
                ets: score(1),
                forest: score(2),
            }
        }

        let mut rng = Rng::seed_from(7);
        let v: Vec<f64> = (0..504)
            .map(|t| {
                let how = t % 168;
                (80.0 + (how as f64 * 0.21).sin() * 30.0) * (1.0 + 0.08 * rng.gaussian())
            })
            .collect();
        let cfg = BacktestConfig::standard(v.len()).unwrap();
        let ets = EtsParams::default();
        let forest = ForestParams::default();
        let bits = |s: BacktestScores| {
            [s.naive, s.ets, s.forest].map(|m| (m.mae.to_bits(), m.smape.to_bits()))
        };
        // Plain backtest and a masked one with a few excluded hours
        // straddling the latest origin's horizon.
        let excluded = [481usize, 482, 490];
        for exc in [&[][..], &excluded[..]] {
            let fast = backtest_masked(&v, &v, exc, &cfg, &ets, &forest, 2);
            let slow = serial_oracle(&v, &v, exc, &cfg, &ets, &forest, 2);
            assert_eq!(bits(fast), bits(slow), "excluded={exc:?}");
        }
    }
}
