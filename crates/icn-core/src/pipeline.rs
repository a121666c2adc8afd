//! The end-to-end study pipeline.
//!
//! [`IcnStudy::run`] executes the paper's whole analysis on a dataset:
//!
//! 1. filter dead antennas and compute RSCA (Section 4.1);
//! 2. agglomerative Ward clustering, optional Figure 2 k-sweep, cut at
//!    k = 9 plus the coarse k = 6 view (Section 4.2);
//! 3. train the random-forest surrogate on the cluster labels
//!    (Section 5.1.2) and extract the per-cluster SHAP explanations
//!    (Figure 5);
//! 4. mine environments from antenna names and build the
//!    cluster ↔ environment crosstab (Section 5.2, Figures 6–8);
//! 5. classify the outdoor antennas through the surrogate (Section 5.3,
//!    Figure 9);
//! 6. optionally (`run_forecast`), forecast each cluster's median hourly
//!    series and scan it for anomalies (Section 6, `icn-forecast`).
//!
//! The Section 6 figures read the same per-cluster series through
//! [`IcnStudy::cluster_series`]; [`crate::temporal`] turns it into the
//! Figure 10 heatmaps.

use crate::compare::{classify_outdoor_with, OutdoorComparison};
use crate::config::StudyConfig;
use crate::insights::EnvCrosstab;
use crate::profiles::{cluster_profiles, ClusterProfile};
use crate::rca::{filter_dead_rows, rsca};
use icn_cluster::{
    adjusted_rand_index, agglomerate_condensed, max_sample_for_budget, sampled_ward, sweep_k,
    ClusterPath, Condensed, KQuality, Linkage, MergeHistory, SampledWardConfig,
};
use icn_forecast::ClusterSeries;
use icn_forest::{RandomForest, TrainSet};
use icn_ingest::IngestResult;
use icn_shap::ClassExplanation;
use icn_stats::Matrix;
use icn_synth::{Antenna, Dataset, StudyCalendar};

/// All artefacts of one study run.
pub struct IcnStudy {
    /// Configuration used.
    pub config: StudyConfig,
    /// Row indices of the totals matrix that survived dead-row filtering.
    pub live_rows: Vec<usize>,
    /// RSCA feature matrix of the live antennas (N × M).
    pub rsca: Matrix,
    /// Full agglomerative merge history: the Figure 3 tree, its cuts and
    /// the k = 9 → 6 consolidation.
    pub history: MergeHistory,
    /// Figure 2 sweep results (empty when `run_k_sweep` is off).
    pub k_sweep: Vec<KQuality>,
    /// Primary labels at `config.k` (per live antenna).
    pub labels: Vec<usize>,
    /// Coarse labels at `config.k_coarse`.
    pub labels_coarse: Vec<usize>,
    /// Map fine cluster → coarse cluster (the k = 9 → 6 consolidation).
    pub consolidation: Vec<usize>,
    /// Per-cluster mean-RSCA profiles (Figure 4).
    pub profiles: Vec<ClusterProfile>,
    /// The trained surrogate forest.
    pub surrogate: RandomForest,
    /// Surrogate accuracy against the clustering labels.
    pub surrogate_accuracy: f64,
    /// Surrogate out-of-bag accuracy.
    pub surrogate_oob: Option<f64>,
    /// Per-cluster SHAP explanations (Figure 5).
    pub explanations: Vec<ClassExplanation>,
    /// Cluster ↔ environment crosstab (Figures 6–8).
    pub crosstab: EnvCrosstab,
    /// Outdoor classification (Figure 9).
    pub outdoor: OutdoorComparison,
    /// Stage-6 forecasting & anomaly report (`Some` only when
    /// `config.run_forecast` is set; the default pipeline skips it).
    pub forecast: Option<icn_forecast::ForecastReport>,
}

impl IcnStudy {
    /// Fallible entry point: validates the dataset and configuration
    /// before running, reporting data problems as [`crate::StudyError`]
    /// values instead of panics. Prefer this in library consumers; the
    /// panicking [`IcnStudy::run`] is the convenience for examples and
    /// harnesses that control their inputs.
    pub fn try_run(dataset: &Dataset, config: StudyConfig) -> Result<IcnStudy, crate::StudyError> {
        if dataset.num_antennas() == 0 {
            return Err(crate::StudyError::EmptyDataset);
        }
        validate_totals(&dataset.indoor_totals, &config)?;
        Ok(IcnStudy::run(dataset, config))
    }

    /// Runs the pipeline on a **streaming-built** totals matrix: the
    /// `icn-ingest` entry point. The dataset still supplies the antenna
    /// metadata, service catalog and outdoor matrices; `ingest.totals`
    /// replaces `dataset.indoor_totals` as the study's `T`. For a clean
    /// stream the two are bit-identical and so is the whole study.
    pub fn from_ingest(
        dataset: &Dataset,
        ingest: &IngestResult,
        config: StudyConfig,
    ) -> Result<IcnStudy, crate::StudyError> {
        use crate::StudyError;
        if dataset.num_antennas() == 0 {
            return Err(StudyError::EmptyDataset);
        }
        if ingest.totals.shape() != dataset.indoor_totals.shape() {
            let (ir, ic) = ingest.totals.shape();
            let (dr, dc) = dataset.indoor_totals.shape();
            return Err(StudyError::BadConfig(format!(
                "ingest totals are {ir}×{ic} but the dataset is {dr}×{dc}"
            )));
        }
        validate_totals(&ingest.totals, &config)?;
        Ok(IcnStudy::run_on(dataset, &ingest.totals, config))
    }

    /// Runs the full pipeline on a dataset.
    ///
    /// When the global [`icn_obs`] registry is enabled, each of the five
    /// stages below runs under its own top-level span (named
    /// `stage1_transform` … `stage5_outdoor`, the set exported as
    /// [`icn_obs::PIPELINE_STAGES`]) and feeds stage-scoped counters, so a
    /// [`icn_obs::BenchReport`] snapshot covers the whole pipeline.
    pub fn run(dataset: &Dataset, config: StudyConfig) -> IcnStudy {
        IcnStudy::run_on(dataset, &dataset.indoor_totals, config)
    }

    /// The shared pipeline body: `totals` is the `T` matrix to analyse —
    /// `dataset.indoor_totals` for [`IcnStudy::run`], a streaming-built
    /// matrix for [`IcnStudy::from_ingest`].
    fn run_on(dataset: &Dataset, totals: &Matrix, config: StudyConfig) -> IcnStudy {
        let obs = icn_obs::global();

        // 1. Transform.
        let (t_live, live_rows, rsca_m) = {
            let mut span = icn_obs::Span::enter("stage1_transform");
            let (t_live, live_rows) = filter_dead_rows(totals);
            let rsca_m = rsca(&t_live);
            if obs.is_enabled() {
                obs.add_counter("transform.input_rows", totals.rows() as u64);
                obs.add_counter("transform.live_rows", live_rows.len() as u64);
                obs.add_counter("transform.services", rsca_m.cols() as u64);
                span.attr("input_rows", totals.rows() as u64);
                span.attr("live_rows", live_rows.len() as u64);
            }
            (t_live, live_rows, rsca_m)
        };

        // 2. Cluster.
        let (history, k_sweep, labels, labels_coarse, consolidation, profiles) = {
            let mut span = icn_obs::Span::enter("stage2_cluster");
            span.attr("k", config.k as u64);
            let budget_bytes = config.cluster_budget_mb.saturating_mul(1024 * 1024);
            let path = config.cluster_path.resolve(rsca_m.rows(), budget_bytes);
            // Each arm yields a hierarchy, the Ward matrix it was built on
            // and the fine labels.
            let (history, cond, labels) = match path {
                ClusterPath::Exact | ClusterPath::Auto => {
                    let cond = Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric());
                    let history = agglomerate_condensed(&cond, Linkage::Ward);
                    let labels = history.cut(config.k);
                    (history, cond, labels)
                }
                ClusterPath::Sampled => {
                    // Large-N escape hatch: exact Ward on a budget-sized
                    // seeded sample, nearest-centroid extension to the
                    // rest. The hierarchy artefacts (history, sweep)
                    // describe the sample; the labels cover the full
                    // population.
                    let sample = sampled_sample_size(
                        max_sample_for_budget(budget_bytes),
                        config.k_sweep_hi,
                        rsca_m.rows(),
                    );
                    let sw = sampled_ward(
                        &rsca_m,
                        config.k,
                        &SampledWardConfig {
                            sample,
                            seed: config.seed,
                            refine_iters: SAMPLED_REFINE_ITERS,
                        },
                    );
                    (sw.history, sw.sample_condensed, sw.labels)
                }
            };
            let k_sweep = if config.run_k_sweep {
                // Quality indices use Euclidean geometry (not the squared
                // distances Ward works in): the sweep reads square roots
                // of Ward's matrix on the fly — no second pairwise pass
                // and no second matrix.
                sweep_k(
                    &history,
                    cond.sqrt_values(),
                    config.k_sweep_lo..=config.k_sweep_hi.min(history.n - 1),
                )
            } else {
                Vec::new()
            };
            drop(cond);
            let consolidation = history.consolidation(config.k, config.k_coarse);
            // Coarse labels through the nested fine → coarse map: the
            // coarse cut itself on the exact path, its extension to the
            // population on the sampled one.
            let labels_coarse: Vec<usize> = labels.iter().map(|&l| consolidation[l]).collect();
            let profiles = cluster_profiles(&rsca_m, &labels, config.k);
            if obs.is_enabled() {
                obs.add_counter("cluster.k_sweep_points", k_sweep.len() as u64);
                obs.add_counter("cluster.clusters", config.k as u64);
                let planted = dataset.planted_labels();
                let truth: Vec<usize> = live_rows.iter().map(|&i| planted[i]).collect();
                obs.set_gauge("cluster.ari_planted", adjusted_rand_index(&labels, &truth));
                if let Some(q) = k_sweep.iter().find(|q| q.k == config.k) {
                    obs.set_gauge("cluster.silhouette", q.silhouette);
                }
            }
            (
                history,
                k_sweep,
                labels,
                labels_coarse,
                consolidation,
                profiles,
            )
        };

        // 3. Surrogate + SHAP.
        let (surrogate, surrogate_accuracy, surrogate_oob, explanations) = {
            let mut span = icn_obs::Span::enter("stage3_surrogate");
            span.attr("trees", config.n_trees as u64);
            span.attr("samples", rsca_m.rows() as u64);
            let ts = TrainSet::new(rsca_m.clone(), labels.clone());
            let surrogate = RandomForest::fit(&ts, &config.forest_config());
            let preds = surrogate.predict_batch(&ts.x);
            let hits = preds.iter().zip(&ts.y).filter(|(p, y)| p == y).count();
            let surrogate_accuracy = hits as f64 / ts.len() as f64;
            let surrogate_oob = surrogate.oob_accuracy;
            if obs.is_enabled() {
                obs.set_gauge("surrogate.accuracy", surrogate_accuracy);
                if let Some(oob) = surrogate_oob {
                    obs.set_gauge("surrogate.oob_accuracy", oob);
                }
            }
            // One batched SHAP pass serves all k classes at once, and
            // within each sample chunk derives every distinct tree-walk
            // state once, replaying it for the samples that share it
            // (`icn_shap::treeshap`).
            let shap_per_class = icn_shap::forest_shap_batch(&surrogate, &rsca_m);
            let explanations: Vec<ClassExplanation> = shap_per_class
                .iter()
                .enumerate()
                .map(|(c, shap)| icn_shap::explain_class(shap, &rsca_m, &labels, c))
                .collect();
            (surrogate, surrogate_accuracy, surrogate_oob, explanations)
        };

        // 4. Environments.
        let crosstab = {
            let _span = icn_obs::Span::enter("stage4_environments");
            let live_antennas: Vec<Antenna> = live_rows
                .iter()
                .map(|&i| dataset.antennas[i].clone())
                .collect();
            let crosstab = EnvCrosstab::build(&live_antennas, &labels, config.k);
            if obs.is_enabled() {
                obs.add_counter("env.environments", crosstab.env_sizes.len() as u64);
            }
            crosstab
        };

        // 5. Outdoor.
        let outdoor = {
            let _span = icn_obs::Span::enter("stage5_outdoor");
            let outdoor = classify_outdoor_with(&dataset.outdoor_totals, &t_live, &surrogate);
            if obs.is_enabled() {
                obs.add_counter("outdoor.antennas", outdoor.predicted.len() as u64);
                obs.set_gauge("outdoor.dominant_share", outdoor.dominant.1);
            }
            outdoor
        };

        // 6. Forecast (opt-in; off by default so the five-stage span set
        // and its goldens are untouched).
        let forecast = if config.run_forecast {
            let mut span = icn_obs::Span::enter(icn_obs::FORECAST_STAGE);
            let live_antennas: Vec<Antenna> = live_rows
                .iter()
                .map(|&i| dataset.antennas[i].clone())
                .collect();
            let rows: Vec<&[f64]> = (0..t_live.rows()).map(|i| t_live.row(i)).collect();
            let window = StudyCalendar::temporal_window();
            let series = {
                let _span = icn_obs::Span::enter("series");
                icn_forecast::study_cluster_series(
                    &live_antennas,
                    &rows,
                    &labels,
                    config.k,
                    &dataset.services,
                    dataset.calendar.num_days(),
                    &window,
                    dataset.root_rng(),
                )
            };
            let report = {
                let _span = icn_obs::Span::enter("models");
                icn_forecast::forecast_series(&series, &window, &config.forecast_config())
            };
            if obs.is_enabled() {
                span.attr("clusters", report.clusters.len() as u64);
                span.attr("horizon", report.horizon as u64);
            }
            Some(report)
        } else {
            None
        };

        IcnStudy {
            config,
            live_rows,
            rsca: rsca_m,
            history,
            k_sweep,
            labels,
            labels_coarse,
            consolidation,
            profiles,
            surrogate,
            surrogate_accuracy,
            surrogate_oob,
            explanations,
            crosstab,
            outdoor,
            forecast,
        }
    }

    /// Number of live antennas analysed.
    pub fn num_antennas(&self) -> usize {
        self.labels.len()
    }

    /// Size of each primary cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.config.k];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Cluster `c`'s median hourly series over `window`, synthesised from
    /// `dataset` (its members' antennas and totals rows, services and root
    /// RNG, over the dataset's full recording period): the series stage 6
    /// forecasts and, max-normalised, the Figure 10 heatmap. `None` when
    /// the cluster is empty. Metered as a `cluster_series` span over the
    /// builder's `weights`, `synth` and `median` spans.
    pub fn cluster_series(
        &self,
        dataset: &Dataset,
        c: usize,
        window: &StudyCalendar,
    ) -> Option<ClusterSeries> {
        let _span = icn_obs::Span::enter("cluster_series");
        let (members, rows): (Vec<&Antenna>, Vec<&[f64]>) = self
            .live_rows
            .iter()
            .zip(&self.labels)
            .filter(|&(_, &label)| label == c)
            .map(|(&row, _)| (&dataset.antennas[row], dataset.indoor_totals.row(row)))
            .unzip();
        (!members.is_empty()).then(|| {
            icn_forecast::cluster_series(
                c,
                &members,
                &rows,
                &dataset.services,
                dataset.calendar.num_days(),
                window,
                dataset.root_rng(),
            )
        })
    }

    /// Matches discovered clusters to planted archetypes by majority vote:
    /// `map[discovered_cluster] = archetype_id`. Validation-only helper.
    pub fn cluster_to_archetype(&self, dataset: &Dataset) -> Vec<usize> {
        let planted = dataset.planted_labels();
        let mut votes = vec![vec![0usize; 9]; self.config.k];
        for (pos, &row) in self.live_rows.iter().enumerate() {
            votes[self.labels[pos]][planted[row]] += 1;
        }
        votes
            .into_iter()
            .map(|v| icn_stats::rank::argmax(&v.iter().map(|&x| x as f64).collect::<Vec<_>>()))
            .collect()
    }
}

/// Centroid-refinement rounds on the sampled stage-2 path.
const SAMPLED_REFINE_ITERS: usize = 2;

/// Rows the sampled path clusters exactly: the `budgeted` sample, at least
/// `k_sweep_hi + 1` so the k-sweep has a cut to score at every k, and
/// never more than the `live` rows there are.
fn sampled_sample_size(budgeted: usize, k_sweep_hi: usize, live: usize) -> usize {
    budgeted.max(k_sweep_hi + 1).min(live)
}

/// Validates a totals matrix and configuration pair: the shared checks
/// behind [`IcnStudy::try_run`] and [`IcnStudy::from_ingest`].
fn validate_totals(totals: &Matrix, config: &StudyConfig) -> Result<(), crate::StudyError> {
    use crate::StudyError;
    if config.k < 2 {
        return Err(StudyError::BadConfig(format!(
            "k = {} must be ≥ 2",
            config.k
        )));
    }
    if config.k_coarse < 1 || config.k_coarse > config.k {
        return Err(StudyError::BadConfig(format!(
            "k_coarse = {} must be in 1..=k ({})",
            config.k_coarse, config.k
        )));
    }
    if config.n_trees == 0 {
        return Err(StudyError::BadConfig("n_trees = 0".into()));
    }
    if config.run_k_sweep && config.k_sweep_lo < 2 {
        return Err(StudyError::BadConfig(format!(
            "k_sweep_lo = {} must be ≥ 2",
            config.k_sweep_lo
        )));
    }
    if config.run_k_sweep && config.k_sweep_hi < config.k_sweep_lo {
        return Err(StudyError::BadConfig(format!(
            "k_sweep_hi = {} is below k_sweep_lo = {}",
            config.k_sweep_hi, config.k_sweep_lo
        )));
    }
    let window = StudyCalendar::temporal_window().num_hours();
    if config.run_forecast && config.forecast_horizon > window {
        return Err(StudyError::BadConfig(format!(
            "forecast_horizon = {} h exceeds the {window}-hour stage-6 series",
            config.forecast_horizon
        )));
    }
    if totals.has_non_finite() {
        return Err(StudyError::NonFiniteTraffic);
    }
    if totals.total() <= 0.0 {
        return Err(StudyError::NoTraffic);
    }
    let live = totals.row_sums().iter().filter(|&&s| s > 0.0).count();
    if live < config.k {
        return Err(StudyError::TooFewAntennas { live, k: config.k });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_cluster::adjusted_rand_index;
    use icn_synth::SynthConfig;

    fn run_small() -> (Dataset, IcnStudy) {
        let d = Dataset::generate(SynthConfig::small());
        let s = IcnStudy::run(&d, StudyConfig::fast());
        (d, s)
    }

    #[test]
    fn forecast_stage_is_off_by_default_and_opt_in() {
        let (_, s) = run_small();
        assert!(s.forecast.is_none());

        let d = Dataset::generate(SynthConfig::small());
        let cfg = StudyConfig {
            run_forecast: true,
            ..StudyConfig::fast()
        };
        let s = IcnStudy::run(&d, cfg);
        let report = s.forecast.as_ref().expect("forecast report");
        assert_eq!(report.clusters.len(), cfg.k);
        assert_eq!(report.horizon, cfg.forecast_horizon);
        for c in &report.clusters {
            if c.n_antennas > 0 {
                assert_eq!(c.forecast.len(), cfg.forecast_horizon);
                assert!(c.backtest.naive.mae > 0.0);
            }
        }
        let mean = report.mean_backtest();
        assert!(mean.ets.mae < mean.naive.mae, "{mean:?}");
    }

    #[test]
    fn forecast_horizon_is_bounded_by_the_series_window() {
        let d = Dataset::generate(SynthConfig::small());
        let window = StudyCalendar::temporal_window().num_hours();
        let cfg = |run_forecast, forecast_horizon| StudyConfig {
            run_forecast,
            forecast_horizon,
            ..StudyConfig::fast()
        };
        match IcnStudy::try_run(&d, cfg(true, window + 1)) {
            Err(crate::StudyError::BadConfig(msg)) => assert!(msg.contains("forecast_horizon")),
            other => panic!("horizon {} accepted: {:?}", window + 1, other.err()),
        }
        // The bound only applies when stage 6 runs.
        assert!(IcnStudy::try_run(&d, cfg(false, window + 1)).is_ok());
        let st = IcnStudy::try_run(&d, cfg(true, window)).expect("horizon = window runs");
        assert_eq!(st.forecast.expect("forecast report").horizon, window);
    }

    #[test]
    fn fig10_heatmap_is_the_stage6_series() {
        let d = Dataset::generate(SynthConfig::small());
        let cfg = StudyConfig {
            run_forecast: true,
            ..StudyConfig::fast()
        };
        let s = IcnStudy::run(&d, cfg);
        let report = s.forecast.as_ref().expect("forecast report");
        let window = StudyCalendar::temporal_window();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut compared = 0;
        for c in 0..cfg.k {
            let Some(series) = s.cluster_series(&d, c, &window) else {
                assert_eq!(report.clusters[c].n_antennas, 0);
                continue;
            };
            let heatmap = crate::cluster_heatmap(&series, &window);
            let stage6 = icn_stats::normalize::by_max(&report.clusters[c].series);
            assert_eq!(bits(&heatmap.flat_series()), bits(&stage6), "cluster {c}");
            compared += 1;
        }
        assert!(compared > 0);
    }

    #[test]
    fn pipeline_produces_k_clusters() {
        let (_, s) = run_small();
        let sizes = s.cluster_sizes();
        assert_eq!(sizes.len(), 9);
        assert!(sizes.iter().all(|&x| x > 0), "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), s.num_antennas());
    }

    #[test]
    fn clustering_recovers_planted_archetypes() {
        let (d, s) = run_small();
        let planted: Vec<usize> = s.live_rows.iter().map(|&i| d.planted_labels()[i]).collect();
        let ari = adjusted_rand_index(&s.labels, &planted);
        assert!(ari > 0.6, "ARI {ari}");
    }

    #[test]
    fn surrogate_is_faithful() {
        let (_, s) = run_small();
        assert!(s.surrogate_accuracy > 0.95, "acc {}", s.surrogate_accuracy);
        if let Some(oob) = s.surrogate_oob {
            assert!(oob > 0.7, "oob {oob}");
        }
    }

    #[test]
    fn explanations_cover_all_clusters() {
        let (_, s) = run_small();
        assert_eq!(s.explanations.len(), 9);
        for (c, ex) in s.explanations.iter().enumerate() {
            assert_eq!(ex.class, c);
            assert_eq!(ex.influences.len(), 73);
        }
    }

    #[test]
    fn consolidation_maps_fine_to_coarse() {
        let (_, s) = run_small();
        assert_eq!(s.consolidation.len(), 9);
        assert!(s.consolidation.iter().all(|&c| c < 6));
    }

    #[test]
    fn outdoor_distribution_is_concentrated() {
        let (_, s) = run_small();
        let d = &s.outdoor.distribution;
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let (_, share) = s.outdoor.dominant;
        assert!(share > 0.4, "dominant share {share}");
    }

    #[test]
    fn try_run_validates_inputs() {
        use crate::StudyError;
        let d = Dataset::generate(SynthConfig::small().with_scale(0.02));
        // Valid inputs succeed.
        assert!(IcnStudy::try_run(&d, StudyConfig::fast()).is_ok());
        // Bad k.
        let bad_k = StudyConfig {
            k: 1,
            ..StudyConfig::fast()
        };
        assert!(matches!(
            IcnStudy::try_run(&d, bad_k),
            Err(StudyError::BadConfig(_))
        ));
        // Coarse above fine.
        let bad_coarse = StudyConfig {
            k_coarse: 99,
            ..StudyConfig::fast()
        };
        assert!(matches!(
            IcnStudy::try_run(&d, bad_coarse),
            Err(StudyError::BadConfig(_))
        ));
        // A sweep range that starts below 2 or ends before it starts.
        for (k_sweep_lo, k_sweep_hi) in [(1, 15), (0, 15), (9, 8)] {
            let bad_sweep = StudyConfig {
                run_k_sweep: true,
                k_sweep_lo,
                k_sweep_hi,
                ..StudyConfig::fast()
            };
            assert!(
                matches!(
                    IcnStudy::try_run(&d, bad_sweep),
                    Err(StudyError::BadConfig(msg)) if msg.contains("k_sweep")
                ),
                "sweep {k_sweep_lo}..={k_sweep_hi} accepted"
            );
            // The range only matters when the sweep runs.
            let unswept = StudyConfig {
                run_k_sweep: false,
                ..bad_sweep
            };
            assert!(IcnStudy::try_run(&d, unswept).is_ok());
        }
        // NaN traffic.
        let mut poisoned = d.clone();
        poisoned.indoor_totals.set(0, 0, f64::NAN);
        assert_eq!(
            IcnStudy::try_run(&poisoned, StudyConfig::fast()).err(),
            Some(StudyError::NonFiniteTraffic)
        );
        // All-dead matrix.
        let mut silent = d.clone();
        silent.indoor_totals.map_inplace(|_| 0.0);
        assert_eq!(
            IcnStudy::try_run(&silent, StudyConfig::fast()).err(),
            Some(StudyError::NoTraffic)
        );
    }

    #[test]
    fn sampled_sample_is_capped_at_the_live_rows() {
        // Where the old clamp was valid the sample is unchanged.
        assert_eq!(sampled_sample_size(4000, 15, 9000), 4000);
        assert_eq!(sampled_sample_size(10, 15, 9000), 16);
        assert_eq!(sampled_sample_size(4000, 15, 300), 300);
        // Fewer live rows than the sweep's lower bound: all of them.
        assert_eq!(sampled_sample_size(4000, 15, 15), 15);
        let d = Dataset::generate(SynthConfig::paper().with_scale(0.002));
        let cfg = StudyConfig {
            run_k_sweep: true,
            cluster_path: ClusterPath::Sampled,
            ..StudyConfig::fast()
        };
        let st = IcnStudy::try_run(&d, cfg).expect("tiny sampled run");
        assert!(st.live_rows.len() <= cfg.k_sweep_hi, "not a tiny dataset");
        assert_eq!(st.history.n, st.live_rows.len());
        assert_eq!(st.labels.len(), st.live_rows.len());
    }

    #[test]
    fn deterministic_end_to_end() {
        let d = Dataset::generate(SynthConfig::small());
        let a = IcnStudy::run(&d, StudyConfig::fast());
        let b = IcnStudy::run(&d, StudyConfig::fast());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.outdoor.predicted, b.outdoor.predicted);
        assert_eq!(a.surrogate_accuracy, b.surrogate_accuracy);
    }
}
