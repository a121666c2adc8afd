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
//! * [`DecisionTree`] — CART decision trees grown straight into public
//!   structure-of-arrays form (split, children, cover, class distribution
//!   and cover ratio per node, as TreeSHAP requires) by a split search
//!   that sorts integer value ranks, never floats; prediction and
//!   TreeSHAP read the same arrays.
//! * [`RandomForest`] — bagging, √M feature subsampling, soft voting, OOB
//!   error, deterministic parallel training, batched parallel prediction
//!   (training accuracy and the stage-5 outdoor classification).
//! * [`accuracy`] — the surrogate-fidelity score (confusion matrices and
//!   macro-F1 back the cross-validation).
//! * [`cross_validate`] — stratified k-fold cross-validation, the sturdier
//!   generalisation estimate next to OOB error (B4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossval;
mod data;
mod forest;
mod metrics;
mod tree;

pub use crossval::{cross_validate, CvResult};
pub use data::{gini, TrainSet};
pub use forest::{ForestConfig, RandomForest};
pub use metrics::accuracy;
pub use tree::{DecisionTree, MaxFeatures, TreeConfig};

/// The forest under the name the traced replay of the repository
/// benchmark (`perfbench/src/replay.rs`) still imports; nothing in the
/// workspace names it.
pub type SoaForest = RandomForest;
