//! # icn-obs — zero-dependency observability for the ICN reproduction
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows"; this crate is how the workspace *measures* that. It is built
//! from `std` only (the workspace must compile fully offline) and has
//! four layers:
//!
//! * [`Span`] — an RAII stage timer with per-thread nesting
//!   (`stage2_cluster/condensed`), key=value attributes and point events.
//!   Spans form a real tree ([`SpanData`]): parent/child by id, linked
//!   **across threads** when work fans out through `icn_stats::par` (the
//!   dispatching stage hands a [`span::Handoff`] to each worker). Inert
//!   and allocation-free while collection is disabled.
//! * [`Registry`] — a thread-safe store of counters, gauges, log-bucketed
//!   [`Histogram`]s and structured logs (ring-buffered, `ICN_LOG`-filtered
//!   — see [`obs_log!`]). The process-global instance ([`global`]) starts
//!   disabled; every mutating call short-circuits on one relaxed atomic
//!   load, so instrumented library code costs nothing unless a harness
//!   opts in. Hot loops tally locally and flush once per call, so enabling
//!   metrics can never perturb numeric results either.
//! * [`mem`] — allocation accounting: [`CountingAlloc`], a counting
//!   `#[global_allocator]` wrapper over `System` that harness binaries
//!   install, tracking window live/peak bytes globally and attributing
//!   allocation churn to the span open on the allocating thread. Gated
//!   on the same single-flag contract as the registry.
//! * Exporters — [`BenchReport`], a stable JSON schema (`icn-obs/v3`)
//!   that explains a single metered run (`--metrics-out`); and
//!   [`chrome::chrome_trace`], a Chrome trace-event export
//!   (`chrome://tracing` / Perfetto) of the full span tree.
//! * Tooling — [`diff::diff_reports`] compares two reports against
//!   fixed per-metric thresholds (the CI regression gate on live runs,
//!   including the asymmetric peak-memory gate), [`diff::render_top`]
//!   prints a self-time treetable and [`diff::render_mem`] the
//!   allocation treetable behind `icn obs mem`.
//!
//! Typical harness usage:
//!
//! ```
//! let reg = icn_obs::global();
//! reg.reset();
//! reg.enable();
//! {
//!     let mut span = icn_obs::Span::enter("stage1_transform");
//!     span.attr("rows", 123u64);
//!     reg.add_counter("transform.live_rows", 123);
//! }
//! let report = icn_obs::BenchReport::build(&reg.snapshot(), "doc-test", 0.1);
//! assert!(report.stage("stage1_transform").is_some());
//! reg.disable();
//! reg.reset();
//! ```

// `deny`, not `forbid`: the counting global-allocator wrapper in `mem`
// is the workspace's one sanctioned `unsafe` block and carries its own
// scoped allow + SAFETY argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod diff;
pub mod hist;
pub mod json;
pub mod log;
pub mod mem;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use diff::{diff_reports, render_mem, render_top, DiffReport, DiffStatus, DiffThresholds};
pub use hist::Histogram;
pub use json::Json;
pub use log::{Level, LogFilter, LogRecord};
pub use mem::{gauge_bytes, vm_hwm_bytes, CountingAlloc, MemStats};
pub use registry::{Registry, Snapshot};
pub use report::{
    pair_reports, stage_for_counter, BenchReport, BenchReportSet, EnvInfo, MemoryReport, SpanAlloc,
    StageReport, FORECAST_STAGE, PIPELINE_STAGES, SCHEMA, SET_SCHEMA,
};
pub use span::{current_handoff, Handoff, Span};
pub use trace::{self_times, AttrValue, SpanData, SpanEvent};

static GLOBAL: Registry = Registry::new();

/// Serializes unit tests that touch the process-global allocation
/// window (`mem` counters are process state, like the global registry).
#[cfg(test)]
pub(crate) static MEM_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The process-global registry that library instrumentation reports to.
/// Disabled (and therefore free) by default; harness binaries enable it
/// behind `--metrics-out` / `--trace-out`.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Convenience: time a closure as a named span on the global registry.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(name);
    f()
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_starts_disabled() {
        // Other tests enable/disable the global registry under a lock; this
        // only asserts the accessor is stable.
        assert!(std::ptr::eq(super::global(), super::global()));
    }
}
