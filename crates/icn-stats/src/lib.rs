//! # icn-stats — numeric substrate for the ICN reproduction
//!
//! Small, dependency-free numerical building blocks shared by every other
//! crate in the workspace:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix with row/column views and
//!   aggregation helpers; the canonical container for the antenna × service
//!   traffic matrix `T` of the paper (Section 4.1).
//! * [`rng`] — deterministic pseudo-random generators (SplitMix64 and
//!   Xoshiro256++) plus the sampling distributions the synthetic measurement
//!   substrate needs (uniform, normal, log-normal, exponential, Poisson,
//!   categorical). Bit-for-bit reproducible for a fixed seed on every
//!   platform.
//! * [`summary`] — mean / median / quantiles / min / max / Pearson
//!   correlation over slices, with NaN-hostile assertions.
//! * [`Histogram`] — fixed-width binning used by Figure 1 of the paper.
//! * [`distance`] — squared-Euclidean kernels, and the [`Metric`]
//!   (Euclidean or squared Euclidean) of the clustering substrate's
//!   pairwise distance matrix.
//! * [`normalize`] — global-max, per-slice max and row-stochastic
//!   normalisation (the "normalized traffic" panel of Figure 1).
//! * [`rank`] — argsort / top-k / argmax used for feature importance
//!   orderings.
//! * [`par`] — order-preserving scoped-thread parallel map (the workspace's
//!   zero-dependency stand-in for rayon); results never depend on the thread
//!   schedule.
//! * [`check`] — a deterministic property-test harness over [`rng::Rng`]
//!   seeded case streams.
//! * [`Fnv1a`] — the stable 64-bit hash behind golden snapshots,
//!   checkpoint hashes and per-service noise seeds.
//!
//! The crate is intentionally free of external dependencies so that numeric
//! results are stable across toolchains, which the integration tests rely on
//! for byte-for-byte determinism of the whole study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod distance;
mod fnv;
mod histogram;
mod matrix;
pub mod normalize;
pub mod par;
pub mod rank;
pub mod rng;
pub mod summary;

pub use distance::Metric;
pub use fnv::Fnv1a;
pub use histogram::Histogram;
pub use matrix::Matrix;
pub use rng::Rng;
