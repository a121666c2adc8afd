//! # icn-cluster — unsupervised-learning substrate
//!
//! From-scratch implementations of everything Section 4.2 of the paper
//! needs:
//!
//! * [`condensed`] — the shared pairwise-distance matrix (upper triangle,
//!   computed in parallel) reused across the Figure 2 sweep.
//! * [`linkage`] — Ward / single / complete / average criteria with their
//!   Lance–Williams recurrences.
//! * [`agglomerative`] — the nearest-neighbour-chain algorithm (O(N²),
//!   exact for reducible linkages), producing a SciPy-style merge history.
//! * [`dendrogram`] — navigable hierarchy: cut-at-k, leaf ordering for the
//!   Figure 4 heatmap, k = 9 → k = 6 consolidation maps.
//! * [`silhouette`] / [`dunn`] — the two quality indices of Figure 2.
//! * [`cophenetic`] — cophenetic distances and the CPCC dendrogram-fidelity
//!   diagnostic reported alongside Figure 3.
//! * [`selection`] — the sweep-and-detect-drop stopping criterion.
//! * [`stability`] — bootstrap cluster-stability analysis ("the profiles
//!   are inherent, not sampling artefacts").
//! * [`scalable`] — the sampled Ward path for populations too large for
//!   the O(N²) condensed matrix (exact Ward on a seeded sample, nearest-
//!   centroid extension, memory-budget-driven path selection).
//! * [`mod@kmeans`] — the k-means++ baseline for the ablation benches.
//! * [`validation`] — ARI, NMI, purity and contingency tables against the
//!   planted archetypes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod condensed;
pub mod cophenetic;
pub mod dendrogram;
pub mod dunn;
pub mod kmeans;
pub mod linkage;
pub mod scalable;
pub mod selection;
pub mod silhouette;
pub mod stability;
pub mod validation;

pub use agglomerative::{agglomerate, agglomerate_condensed, Merge, MergeHistory};
pub use condensed::{Condensed, Distances};
pub use cophenetic::{cophenetic_correlation, cophenetic_distances};
pub use dendrogram::Dendrogram;
pub use dunn::dunn_index;
pub use kmeans::{kmeans, kmeans_best_of, KMeansResult};
pub use linkage::Linkage;
pub use scalable::{
    exact_memory_bytes, max_sample_for_budget, sampled_ward, ClusterPath, SampledWardConfig,
    SampledWardResult,
};
pub use selection::{detect_drops, select_k, sweep_k, Drop, KQuality};
pub use silhouette::silhouette_score;
pub use stability::{bootstrap_stability, StabilityResult};
pub use validation::{adjusted_rand_index, contingency, normalized_mutual_info, purity};
