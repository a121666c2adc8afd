//! # icn-testkit — correctness tooling for the ICN reproduction
//!
//! The analysis pipeline (RCA/RSCA → Ward agglomeration → k-selection →
//! RF surrogate → TreeSHAP) is a chain of numeric stages where a silent
//! regression in any link corrupts every downstream figure. This crate is
//! the workspace's defence in depth, three tiers of checks that every
//! pipeline crate pulls in as a dev-dependency:
//!
//! * `oracle` — **differential oracles**: small, obviously-correct naive
//!   reference implementations (per-cell RCA/RSCA, O(n³) greedy Ward,
//!   brute-force silhouette/Dunn, per-sample SHAP recomputation, Gini
//!   importance) that the optimized paths are compared against over seeded
//!   random inputs.
//! * `metamorphic` — **metamorphic invariants**: input-transformation helpers
//!   (row/column permutations, uniform row rescales, label relabelings) plus
//!   the partition/equivalence predicates that assert the pipeline commutes
//!   with them.
//! * [`golden`] — **golden snapshots**: a stable canonical hash
//!   (fixed-precision float formatting, sorted keys) of every pipeline
//!   stage's output at a pinned synthetic scale, stored under `tests/golden/`
//!   and regenerated via `icn testkit --bless`.
//! * [`ingest`] — the batch-vs-streaming differential oracle for
//!   `icn-ingest`: a naive sequential reference implementation, a
//!   bounded-reorder metamorphic transformation, and the pinned
//!   checkpoint/kill/resume golden recipe.
//! * `forecast` — oracles for `icn-forecast`: hand-walked seasonal-naive and
//!   Holt–Winters recurrences, a brute-force re-sorting rolling median/MAD,
//!   and the F1 set metric the anomaly detector is scored with.
//! * [`noise`] — fault injectors for a totals matrix (dead antennas, DPI
//!   misclassification, multiplicative noise, NaN poisoning).
//! * `shap_walk` — the per-sample TreeSHAP walk, kept verbatim as the
//!   bit-exact oracle of the two-phase batch kernel in `icn-shap`.
//! * `cart` — the per-node sort-and-scan CART fit, kept verbatim as the
//!   bit-exact oracle of `icn-forest`'s rank-based split search.
//!
//! The shrinking/persistence side of the property harness lives in
//! [`icn_stats::check`] so that even the zero-dependency numeric substrate
//! can use it; this crate builds the pipeline-aware tiers on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cart;
mod forecast;
pub mod golden;
pub mod ingest;
mod metamorphic;
pub mod noise;
mod oracle;
mod shap_walk;

pub use cart::sort_scan_tree_fit;
pub use forecast::{brute_rolling_median_mad, oracle_ets, oracle_seasonal_naive, set_f1};
pub use golden::{
    compare_golden, default_golden_dir, goldens, render_golden, snapshot_pipeline,
    snapshot_pipeline_sampled, write_golden, Golden, PipelineSnapshot,
};
pub use ingest::{
    assert_bits_eq, ingest_via_pipeline, naive_ingest, shuffle_within_blocks, NaiveIngest,
};
pub use metamorphic::{
    invert_permutation, permutation, permute_cols, permute_forest_features, permute_labels,
    permute_rows, permute_slice, same_partition, scale_rows,
};
pub use oracle::{
    gini_importance, naive_accuracy, naive_agglomerate, naive_ari, naive_dunn, naive_forest_shap,
    naive_nmi, naive_predict_batch, naive_predict_proba, naive_rca, naive_rsca, naive_silhouette,
    naive_tree_shap, per_sample_shap_batch,
};
pub use shap_walk::{walk_forest_shap, walk_tree_shap};
