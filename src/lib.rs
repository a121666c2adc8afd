//! # icn-repro — reproduction of "Characterizing Mobile Service Demands at
//! Indoor Cellular Networks" (IMC '23)
//!
//! Facade crate re-exporting the whole workspace. Typical use:
//!
//! ```
//! use icn_repro::prelude::*;
//!
//! // A scaled-down synthetic nationwide measurement campaign...
//! let dataset = Dataset::generate(SynthConfig::small());
//! // ...analysed with the paper's full pipeline.
//! let study = IcnStudy::run(&dataset, StudyConfig::fast());
//! assert_eq!(study.cluster_sizes().len(), 9);
//! ```
//!
//! See the crate-level docs of the members for details:
//! [`icn_synth`] (measurement substrate), [`icn_ingest`] (streaming record
//! ingest with fault injection), [`icn_cluster`] (agglomerative
//! clustering), [`icn_forest`] (random forest), [`icn_shap`] (TreeSHAP /
//! KernelSHAP), [`icn_core`] (the study pipeline), [`icn_forecast`]
//! (busy-hour forecasting and anomaly detection), [`icn_report`]
//! (terminal figures), [`icn_stats`] (numerics), [`icn_obs`]
//! (stage tracing, metrics and benchmark reports), [`icn_testkit`]
//! (differential oracles, metamorphic helpers, golden snapshots).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use icn_cluster;
pub use icn_core;
pub use icn_forecast;
pub use icn_forest;
pub use icn_ingest;
pub use icn_obs;
pub use icn_probe;
pub use icn_report;
pub use icn_shap;
pub use icn_stats;
pub use icn_synth;
pub use icn_testkit;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use icn_cluster::{
        adjusted_rand_index, agglomerate, exact_memory_bytes, kmeans_best_of,
        max_sample_for_budget, normalized_mutual_info, purity, sampled_ward, ClusterPath,
        Condensed, Linkage, SampledWardConfig,
    };
    pub use icn_core::{
        cluster_heatmap, distribution_entropy, filter_dead_rows, label_distribution, rca, rsca,
        service_heatmap, IcnStudy, StudyConfig, TemporalHeatmap,
    };
    pub use icn_forecast::{
        detect, ets_forecast, seasonal_naive_forecast, Anomalies, DetectorConfig, ForecastReport,
        Model,
    };
    pub use icn_ingest::{
        Checkpoint, FaultConfig, FaultySource, HourlyRecord, IngestConfig, IngestPipeline,
        IngestResult, QuarantineReason, RecordSource,
    };
    pub use icn_obs::{BenchReport, Json};
    pub use icn_probe::{run_campaign, CampaignConfig, DpiConfig};
    pub use icn_shap::{forest_shap, kernel_shap, Direction};
    pub use icn_stats::{Matrix, Rng};
    pub use icn_synth::{
        record_stream, Archetype, Dataset, Date, Environment, RecordStream, Service, StudyCalendar,
        SynthConfig,
    };
}
