//! # icn-core — the paper's analysis pipeline
//!
//! This crate implements the primary contribution of *Characterizing
//! Mobile Service Demands at Indoor Cellular Networks* (IMC '23): the
//! methodology that turns a nationwide per-antenna, per-service traffic
//! matrix into interpretable indoor-usage profiles.
//!
//! * [`mod@rca`] — the RCA / RSCA transforms (Eqs. 1–2) and the
//!   indoor-referenced outdoor RCA (Eq. 5).
//! * [`pipeline`] — [`pipeline::IcnStudy`]: transform → Ward clustering →
//!   k-selection → surrogate forest → TreeSHAP → environment crosstabs →
//!   outdoor comparison, in one deterministic call.
//! * [`profiles`] — per-cluster mean-RSCA profiles (Figure 4) and
//!   over-/under-utilisation rankings.
//! * [`insights`] — cluster ↔ environment correlation (Figures 6–8) and
//!   Paris-share statistics.
//! * [`compare`] — the outdoor classification and diversity-entropy
//!   statistics (Figure 9).
//! * [`temporal`] — per-cluster and per-service median-traffic heatmaps
//!   (Figures 10–11) with commute/strike/weekend/burstiness summaries.
//! * [`periodicity`] — autocorrelation rhythm analysis (diurnal/weekly
//!   strength per cluster, separating event venues from regular sites).
//! * [`config`] — study configuration (k = 9, 100 trees, ... as in the
//!   paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod config;
pub mod error;
pub mod insights;
pub mod periodicity;
pub mod pipeline;
pub mod profiles;
pub mod rca;
pub mod temporal;

pub use compare::{
    classify_outdoor, classify_outdoor_with, distribution_entropy, label_distribution,
    OutdoorComparison,
};
pub use config::StudyConfig;
pub use error::StudyError;
pub use insights::{env_index, EnvCrosstab, Flow};
pub use periodicity::{autocorrelation, dominant_period, Rhythm};
pub use pipeline::IcnStudy;
pub use profiles::{cluster_profiles, profile_similarity, ClusterProfile};
pub use rca::{filter_dead_rows, outdoor_rca, outdoor_rsca, rca, rsca, rsca_from_rca};
pub use temporal::{cluster_heatmap, service_heatmap, TemporalHeatmap};
