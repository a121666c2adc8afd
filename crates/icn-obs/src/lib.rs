//! # icn-obs — zero-dependency observability for the ICN reproduction
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows"; this crate is how the workspace *measures* that. It is built
//! from `std` only (the workspace must compile fully offline) and has
//! four layers:
//!
//! * [`Span`] — an RAII stage timer with per-thread nesting
//!   (`stage2_cluster/condensed`), integer key=value attributes (counts
//!   and indices) and point events.
//!   Spans form a real tree ([`SpanData`]): parent/child by id, linked
//!   **across threads** when work fans out through `icn_stats::par` (the
//!   dispatching stage hands a [`Handoff`] to each worker). Inert and
//!   allocation-free while collection is disabled.
//! * [`Registry`] — a thread-safe store of counters, gauges and finished
//!   span occurrences. Spans are the only timing record: a report's span
//!   row carries calls, total wall and the exact p99 occurrence wall
//!   ([`SpanStats`]). The process-global instance ([`global`]) starts
//!   disabled; every mutating call short-circuits on one relaxed atomic load,
//!   so instrumented library code costs nothing unless a harness opts in. Hot
//!   loops tally locally and flush once per call, so enabling metrics can
//!   never perturb numeric results either.
//! * [`mem`] — allocation accounting: [`CountingAlloc`], a counting
//!   `#[global_allocator]` wrapper over `System` that harness binaries
//!   install, tracking window live/peak bytes globally and attributing
//!   allocation churn to the span open on the allocating thread. Gated on the
//!   same single-flag contract as the registry.
//! * Exporters — [`BenchReport`], a stable JSON schema (`icn-obs/v5`) that
//!   explains a single metered run (`--metrics-out`); and [`chrome_trace`], a
//!   Chrome trace-event export (`chrome://tracing` / Perfetto) of the full
//!   span tree. A report's span row is its one per-span record: calls,
//!   wall, p99, self time and, when allocations were counted, self
//!   allocation figures. A stage is a top-level row; counters live once, at
//!   the root.
//! * Tooling — [`diff_reports`] compares two reports against fixed per-metric
//!   thresholds in one walk over the span rows (the CI regression gate on
//!   live runs, including the asymmetric peak-memory gate); [`render_top`]
//!   prints a self-time treetable and [`render_mem`] the allocation
//!   treetable behind `icn obs mem`, both by one depth-first walk.
//!
//! Typical harness usage:
//!
//! ```
//! let reg = icn_obs::global();
//! reg.reset();
//! reg.enable();
//! {
//!     let mut span = icn_obs::Span::enter("stage1_transform");
//!     span.attr("rows", 123);
//!     reg.add_counter("transform.live_rows", 123);
//! }
//! let report = icn_obs::BenchReport::build(&reg.snapshot(), "doc-test", 0.1);
//! assert_eq!(report.spans["stage1_transform"].calls, 1); // a stage
//! assert_eq!(report.counters["transform.live_rows"], 123);
//! reg.disable();
//! reg.reset();
//! ```

// `deny`, not `forbid`: the counting global-allocator wrapper in `mem`
// is the workspace's one sanctioned `unsafe` block and carries its own
// scoped allow + SAFETY argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod diff;
mod json;
pub mod mem;
mod registry;
mod report;
mod span;
mod trace;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use diff::{
    diff_reports, render_mem, render_top, DiffLine, DiffReport, DiffStatus, DiffThresholds,
};
pub use json::Json;
pub use mem::{gauge_bytes, mem_total_bytes, CountingAlloc, MemStats};
pub use registry::{Registry, Snapshot};
pub use report::{
    pair_reports, BenchReport, BenchReportSet, EnvInfo, MemoryReport, FORECAST_STAGE,
    PIPELINE_STAGES,
};
pub use span::{current_handoff, AdoptGuard, Handoff, Span};
pub use trace::{SpanData, SpanEvent, SpanStats};

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

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_starts_disabled() {
        // Other tests enable/disable the global registry under a lock; this
        // only asserts the accessor is stable.
        assert!(std::ptr::eq(super::global(), super::global()));
    }
}
