//! # icn-shap — explainable-ML substrate
//!
//! From-scratch Shapley-additive-explanation machinery for the paper's
//! Section 5.1: the clustering result is made interpretable by training a
//! random-forest surrogate (`icn-forest`) and attributing each antenna's
//! predicted cluster to its per-service RSCA features.
//!
//! * [`tree_shap`] / [`forest_shap_batch`] — the polynomial-time,
//!   path-dependent TreeSHAP algorithm for single trees and forests, exact
//!   for the tree's conditional expectation and validated against brute
//!   force.
//! * [`gauss_legendre_01`] — Gauss–Legendre nodes/weights on [0, 1]; the
//!   TreeSHAP kernel evaluates the Shapley subset weights in integral form,
//!   which an `⌈l/2⌉`-point rule integrates exactly.
//! * [`exact_tree_shap`] — the 2^M Shapley definition (Eq. 4 of the paper)
//!   for small feature counts; the oracle the fast algorithm is tested
//!   against.
//! * [`kernel_shap`] — model-agnostic Kernel SHAP: coalition sampling with
//!   Shapley-kernel weights and a constrained weighted-least-squares fit (a
//!   small dense solver kept inside the crate).
//! * [`explain_class`] — the Figure 5 statistics: per-cluster mean-|SHAP|
//!   service rankings with over-/under-utilisation directions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod explain;
mod kernelshap;
mod linalg;
mod quad;
mod treeshap;

pub use exact::{exact_tree_shap, tree_expectation};
pub use explain::{explain_class, ClassExplanation, Direction, FeatureInfluence};
pub use kernelshap::{kernel_shap, KernelShapConfig, ScalarModel};
pub use quad::gauss_legendre_01;
pub use treeshap::{forest_base_value, forest_shap, forest_shap_batch, tree_shap};

/// [`forest_shap_batch`] under the name the traced replay of the
/// repository benchmark (`perfbench/src/replay.rs`) still calls; nothing
/// in the workspace does.
pub use treeshap::forest_shap_batch as forest_shap_batch_soa;
