//! # icn-forest — supervised-learning substrate
//!
//! A from-scratch random forest, the surrogate classifier of Section 5.1.2
//! of the paper: trained on the clustering labels, it both generalises the
//! unsupervised result to unseen antennas (the outdoor comparison of
//! Section 5.3 classifies ~20k outdoor antennas through it) and provides a
//! tree ensemble that `icn-shap`'s TreeSHAP implementation can explain.
//!
//! * [`TrainSet`] — labelled training sets, bootstrap sampling, [`gini`]
//!   impurity.
//! * [`DecisionTree`] — CART decision trees with public flat node layout
//!   (cover + class distribution per node, as TreeSHAP requires), grown
//!   by a split search that sorts integer value ranks, never floats.
//! * [`RandomForest`] — bagging, √M feature subsampling, soft voting, OOB
//!   error, deterministic parallel training.
//! * [`accuracy`] — the surrogate-fidelity score (confusion matrices and
//!   macro-F1 back the cross-validation).
//! * [`SoaForest`] — fitted trees frozen into structure-of-arrays form, the
//!   hot-path layout shared by batch prediction, TreeSHAP and the stage-5
//!   outdoor classification.
//! * [`cross_validate`] — stratified k-fold cross-validation, the sturdier
//!   generalisation estimate next to OOB error (B4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossval;
mod data;
mod forest;
mod metrics;
mod soa;
mod tree;

pub use crossval::{cross_validate, CvResult};
pub use data::{gini, TrainSet};
pub use forest::{ForestConfig, RandomForest};
pub use metrics::accuracy;
pub use soa::{SoaForest, SoaTree};
pub use tree::{DecisionTree, MaxFeatures, Node, TreeConfig};
