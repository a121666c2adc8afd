//! Study configuration.

use icn_cluster::ClusterPath;
use icn_forecast::{ForecastConfig, Model};
use icn_forest::ForestConfig;

/// Configuration of the end-to-end study pipeline.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    /// Number of clusters for the primary cut (the paper selects 9).
    pub k: usize,
    /// Coarse cut discussed qualitatively by the paper (6).
    pub k_coarse: usize,
    /// Range of k swept for the Figure 2 quality indices.
    pub k_sweep_lo: usize,
    /// Upper end of the sweep (inclusive), at most
    /// [`icn_cluster::MAX_SWEEP_K`].
    pub k_sweep_hi: usize,
    /// Number of surrogate forest trees (the paper uses 100).
    pub n_trees: usize,
    /// Surrogate training seed.
    pub seed: u64,
    /// Whether to run the Figure 2 sweep (slowest step; the cut at `k`
    /// works without it).
    pub run_k_sweep: bool,
    /// Stage-2 clustering implementation (`Auto` resolves against the
    /// memory budget; paper-scale populations stay on the exact path).
    pub cluster_path: ClusterPath,
    /// Memory budget in MiB for the stage-2 distance structures; bounds
    /// the sample size on the sampled path and drives `Auto` selection.
    pub cluster_budget_mb: usize,
    /// Whether to run the stage-6 forecasting/anomaly phase. Off by
    /// default: the five-stage pipeline and its goldens stay untouched
    /// unless a consumer opts in (`icn forecast` does).
    pub run_forecast: bool,
    /// Forecast horizon in hours past the temporal window.
    pub forecast_horizon: usize,
    /// Primary forecasting model (all three are always backtested).
    pub forecast_model: Model,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            k: 9,
            k_coarse: 6,
            k_sweep_lo: 2,
            k_sweep_hi: 15,
            n_trees: 100,
            seed: 0x1C9_5EED,
            run_k_sweep: true,
            cluster_path: ClusterPath::Auto,
            cluster_budget_mb: 512,
            run_forecast: false,
            forecast_horizon: 24,
            forecast_model: Model::Ets,
        }
    }
}

impl StudyConfig {
    /// Paper-faithful configuration.
    pub fn paper() -> Self {
        StudyConfig::default()
    }

    /// Faster configuration for tests: fewer trees, no sweep.
    pub fn fast() -> Self {
        StudyConfig {
            n_trees: 30,
            run_k_sweep: false,
            ..StudyConfig::default()
        }
    }

    /// The stage-6 forecast configuration.
    pub fn forecast_config(&self) -> ForecastConfig {
        ForecastConfig {
            horizon: self.forecast_horizon,
            model: self.forecast_model,
        }
    }

    /// The surrogate forest configuration.
    pub fn forest_config(&self) -> ForestConfig {
        ForestConfig {
            n_trees: self.n_trees,
            seed: self.seed,
            ..ForestConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = StudyConfig::paper();
        assert_eq!(c.k, 9);
        assert_eq!(c.k_coarse, 6);
        assert_eq!(c.n_trees, 100);
        assert!(c.run_k_sweep);
    }

    #[test]
    fn fast_disables_sweep() {
        let c = StudyConfig::fast();
        assert!(!c.run_k_sweep);
        assert!(c.n_trees < 100);
    }

    #[test]
    fn forest_config_propagates() {
        let c = StudyConfig {
            n_trees: 7,
            seed: 3,
            ..StudyConfig::fast()
        };
        let f = c.forest_config();
        assert_eq!(f.n_trees, 7);
        assert_eq!(f.seed, 3);
    }
}
