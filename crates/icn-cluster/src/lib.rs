//! # icn-cluster — unsupervised-learning substrate
//!
//! From-scratch implementations of everything Section 4.2 of the paper
//! needs:
//!
//! * [`Condensed`] — the shared pairwise-distance matrix (upper triangle,
//!   computed in parallel) reused across the Figure 2 sweep.
//! * [`Linkage`] — Ward / single / complete / average criteria with their
//!   Lance–Williams recurrences.
//! * [`agglomerate_condensed`] — the nearest-neighbour-chain algorithm
//!   (O(N²), exact for reducible linkages), producing a SciPy-style merge
//!   history.
//! * [`MergeHistory`] — the one merge tree: cut-at-k, the height band of a
//!   cut, the cluster roots and leaves Figure 3 draws, and the k = 9 → 6
//!   consolidation map.
//! * [`silhouette_score`] / [`dunn_index`] — the two quality indices of
//!   Figure 2.
//! * [`cophenetic_correlation`] — the CPCC dendrogram-fidelity diagnostic
//!   reported alongside Figure 3.
//! * [`sweep_k`] / [`detect_drops`] — the sweep-and-detect-drop stopping
//!   criterion, scoring every k up to [`MAX_SWEEP_K`] in one pass.
//! * [`bootstrap_stability`] — bootstrap cluster-stability analysis ("the
//!   profiles are inherent, not sampling artefacts").
//! * [`sampled_ward`] — the sampled Ward path for populations too large for
//!   the O(N²) condensed matrix (exact Ward on a seeded sample, nearest-
//!   centroid extension, memory-budget-driven path selection).
//! * [`kmeans_best_of`] — the k-means++ baseline for the ablation benches.
//! * [`adjusted_rand_index`], [`normalized_mutual_info`], [`purity`] —
//!   agreement against the planted archetypes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agglomerative;
mod condensed;
mod cophenetic;
mod dunn;
mod kmeans;
mod linkage;
mod scalable;
mod selection;
mod silhouette;
mod stability;
mod validation;

pub use agglomerative::{agglomerate, agglomerate_condensed, Dendrogram, Merge, MergeHistory};
pub use condensed::{Condensed, Distances};
pub use cophenetic::cophenetic_correlation;
pub use dunn::dunn_index;
pub use kmeans::{kmeans_best_of, KMeansResult};
pub use linkage::Linkage;
pub use scalable::{
    exact_memory_bytes, max_sample_for_budget, sampled_ward, ClusterPath, SampledWardConfig,
    SampledWardResult,
};
pub use selection::{detect_drops, select_k, sweep_k, Drop, KQuality, MAX_SWEEP_K};
pub use silhouette::silhouette_score;
pub use stability::{bootstrap_stability, StabilityResult};
pub use validation::{adjusted_rand_index, normalized_mutual_info, purity};
