//! # icn-probe — measurement-plane substrate
//!
//! The paper's dataset is produced by "passive measurement probes" on the
//! Gi/SGi/Gn interfaces of a nationwide Evolved Packet Core: every TCP/UDP
//! session is geo-referenced to a BTS via the GTP-C User Location
//! Information field, attributed to a mobile service by DPI classifiers,
//! and aggregated hourly (Section 3; the Ethics appendix adds that
//! identifiers are deleted on aggregation). This crate rebuilds that
//! collection path against the synthetic population, so the totals matrix
//! can be produced *the way the operator produced theirs* — including the
//! failure modes (malformed ULIs, DPI confusion, unclassified flows) and
//! the privacy suppression step:
//!
//! * [`sessions_for_cell_hour`] — IP-session synthesis: Poisson session
//!   counts, heavy-tailed sizes, down/uplink split and TCP/UDP mix per
//!   service category.
//! * [`Uli`] — ULI (TAC + ECI) numbering plan and resolution back to
//!   antennas, rejecting inconsistent or foreign records.
//! * [`DpiConfig`] — the service classifier with a category-structured
//!   confusion model and an unclassified fraction.
//! * [`HourlyCube`] — one antenna's hourly service × hour cube, k-anonymity
//!   suppression, and folding into the antenna's row of the totals matrix.
//! * [`run_campaign`] — end-to-end orchestration, one antenna's cube at a
//!   time, with conservation tests against the direct generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod campaign;
mod dpi;
mod flows;
mod uli;

pub use aggregate::HourlyCube;
pub use campaign::{run_campaign, CampaignConfig, CampaignResult};
pub use dpi::{DpiConfig, DpiLabel};
pub use flows::{sessions_for_cell_hour, Protocol, SessionRecord};
pub use uli::{antenna_for_uli, uli_for_antenna, Uli};
