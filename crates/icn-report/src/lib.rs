//! # icn-report — terminal rendering of the paper's figures
//!
//! The reproduction's deliverable is the *data series* behind every figure;
//! these renderers make the shapes inspectable in a terminal or CI log:
//!
//! * [`Table`] — aligned text tables (Table 1, k-sweep rows, ...).
//! * [`heatmap`] — shaded Unicode heatmaps, sequential for temporal data
//!   (Figures 10–11) and diverging for RSCA (Figure 4).
//! * [`dendro`] — top-of-hierarchy dendrograms with cut thresholds (Figure
//!   3).
//! * [`histogram_plot`] — horizontal-bar histograms (Figure 1).
//! * [`sankey`] — proportional cluster→environment flow bands (Figure 6).
//! * [`beeswarm`] — ranked SHAP influence lists with over-/under-use markers
//!   (Figure 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beeswarm;
pub mod dendro;
pub mod heatmap;
pub mod histogram_plot;
pub mod sankey;
pub mod spark;
mod table;

pub use table::{num, Table};
