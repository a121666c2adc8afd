//! # icn-synth — synthetic nationwide ICN measurement substrate
//!
//! The paper analyses a proprietary measurement feed from a French mobile
//! network operator: per-hour, per-service traffic at 4,762 indoor antennas
//! over two months, plus ~20,000 nearby outdoor antennas. That data cannot
//! be redistributed, so this crate builds the closest synthetic equivalent:
//! a generative model that plants exactly the latent structure the paper
//! reports, with realistic heavy-tailed volumes, noise, calendar effects
//! and event schedules — so that the analysis pipeline (`icn-core` and its
//! substrates) must *recover* the structure rather than replay it.
//!
//! Components:
//!
//! * [`services`] — the 73-service catalog with categories, popularity and
//!   per-engagement volume scales (streaming ≫ messaging).
//! * [`environments`] — the eleven indoor environment types with the exact
//!   Table 1 antenna counts, plus the Paris/provincial geography.
//! * [`archetypes`] — the nine planted usage archetypes matching the
//!   paper's clusters 0–8 (service affinities, temporal templates, volume
//!   regimes, dendrogram groups).
//! * [`calendar`] — the 21 Nov 2022 – 24 Jan 2023 study period, weekends,
//!   holidays and the 19 Jan 2023 national strike. The one-off days are
//!   calendar data: [`StudyCalendar::without_signals`] is the same period
//!   with no strike, holidays or site events, and every generator path
//!   below honours it.
//! * [`temporal`] — commute/event/office/retail hour-weight templates,
//!   per-site event schedules (NBA night, 4-day Lyon expo) and the
//!   per-service modulations behind Figure 11.
//! * [`antennas`] — population generation: sites, names with environment
//!   keywords, environment-conditional archetype mixtures.
//! * [`traffic`] — the totals matrix `T` and consistent hourly series.
//! * [`outdoor`] — the outdoor macro population (general-use mixtures with
//!   faint local leakage) for the Section 5.3 comparison.
//! * [`mining`] — the antenna-name → environment extraction step.
//! * [`noise`] — fault injection (dead antennas, DPI misclassification,
//!   NaN poisoning) for robustness tests.
//! * [`dataset`] — one-call campaign assembly + CSV/JSON export.
//! * [`signals`] — ground-truth labels for the planted temporal anomalies
//!   (strike, events, holidays): the planted template weight divided by
//!   the weight on the calendar without signals. The known-signal oracle
//!   for `icn-forecast`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antennas;
pub mod archetypes;
pub mod calendar;
pub mod config;
pub mod dataset;
pub mod emerging;
pub mod environments;
pub mod geo;
pub mod mining;
pub mod noise;
pub mod outdoor;
pub mod record_stream;
pub mod services;
pub mod signals;
pub mod temporal;
pub mod traffic;

pub use antennas::Antenna;
pub use archetypes::{Archetype, Group};
pub use calendar::{Date, StudyCalendar, Weekday};
pub use config::SynthConfig;
pub use dataset::Dataset;
pub use environments::{City, Environment};
pub use geo::{haversine_m, Coord, RadioTech};
pub use record_stream::{adversarial_record_stream, record_stream, RecordStream};
pub use services::{Category, Service};
pub use signals::{
    antenna_planted_hours, cluster_planted_hours, cluster_planted_hours_any, PlantedHours,
    BURST_MIN_RATIO, DIP_MAX_RATIO,
};
