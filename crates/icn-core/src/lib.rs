//! # icn-core — the paper's analysis pipeline
//!
//! This crate implements the primary contribution of *Characterizing
//! Mobile Service Demands at Indoor Cellular Networks* (IMC '23): the
//! methodology that turns a nationwide per-antenna, per-service traffic
//! matrix into interpretable indoor-usage profiles.
//!
//! * [`rca()`] / [`rsca`] — the RCA / RSCA transforms (Eqs. 1–2) and the
//!   indoor-referenced outdoor RCA ([`outdoor_rca`], Eq. 5).
//! * [`IcnStudy`] — transform → Ward clustering → k-selection → surrogate
//!   forest → TreeSHAP → environment crosstabs → outdoor comparison, in one
//!   deterministic call.
//! * [`cluster_profiles`] — per-cluster mean-RSCA profiles (Figure 4) and
//!   over-/under-utilisation rankings.
//! * [`EnvCrosstab`] — cluster ↔ environment correlation (Figures 6–8) and
//!   Paris-share statistics.
//! * [`classify_outdoor_with`] — the outdoor classification and
//!   diversity-entropy statistics (Figure 9).
//! * [`cluster_heatmap`] / [`service_heatmap`] — per-cluster and per-service
//!   median-traffic heatmaps (Figures 10–11) with
//!   commute/strike/weekend/burstiness summaries.
//! * [`Rhythm`] — autocorrelation rhythm analysis (diurnal/weekly strength
//!   per cluster, separating event venues from regular sites).
//! * [`StudyConfig`] — study configuration (k = 9, 100 trees, ... as in the
//!   paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod config;
mod error;
mod insights;
mod periodicity;
mod pipeline;
mod profiles;
mod rca;
mod temporal;

pub use compare::{
    classify_outdoor_with, distribution_entropy, label_distribution, OutdoorComparison,
};
pub use config::StudyConfig;
pub use error::StudyError;
pub use insights::{env_index, EnvCrosstab, Flow};
pub use periodicity::{autocorrelation, Rhythm};
pub use pipeline::IcnStudy;
pub use profiles::{cluster_profiles, ClusterProfile};
pub use rca::{filter_dead_rows, outdoor_rca, rca, rsca, rsca_from_rca};
pub use temporal::{cluster_heatmap, service_heatmap, TemporalHeatmap};
