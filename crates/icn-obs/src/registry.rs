//! Thread-safe metrics and trace registry.
//!
//! A [`Registry`] collects named counters, gauges and finished
//! [`crate::Span`] occurrences (with full tree linkage — see
//! [`SpanData`]). Spans are the only timing record: a task's latency
//! distribution is its span path's occurrences ([`SpanStats`]). The
//! process-global instance returned by [`crate::global`] starts
//! **disabled**: every mutating call first checks one relaxed atomic load
//! and returns immediately, so code paths instrumented against the global
//! registry pay nothing measurable unless a harness opts in with
//! [`Registry::enable`].
//!
//! Hot loops should tally into a local variable and flush once per stage
//! call (`registry.add_counter("cluster.merges", local_tally)`). This
//! keeps instrumentation both cheap and incapable of perturbing results:
//! the library never branches on metric values.

use crate::trace::{SpanData, SpanStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: Vec<SpanData>,
    /// Time origin for span starts; set when collection starts, cleared
    /// by [`Registry::reset`].
    epoch: Option<Instant>,
}

impl Inner {
    fn offset_from_epoch(&mut self, at: Instant) -> Duration {
        let epoch = *self.epoch.get_or_insert(at);
        at.checked_duration_since(epoch).unwrap_or(Duration::ZERO)
    }
}

/// A thread-safe collection of metrics and trace data. See the module
/// docs.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    next_span_id: AtomicU64,
    inner: Mutex<Inner>,
}

/// An immutable copy of a registry's state.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Span occurrences aggregated by path — the report's `spans` view,
    /// derived from [`Snapshot::span_tree`].
    pub spans: BTreeMap<String, SpanStats>,
    /// Every finished span occurrence with tree linkage, in completion
    /// order.
    pub span_tree: Vec<SpanData>,
}

impl Snapshot {
    /// Looks up a span occurrence by id in [`Snapshot::span_tree`].
    pub fn span_by_id(&self, id: u64) -> Option<&SpanData> {
        self.span_tree.iter().find(|s| s.id == id)
    }

    /// The root ancestor (a span with no parent) of the given occurrence,
    /// found by walking `parent` links. Returns `span` itself when it has
    /// no parent; `None` if a parent id is missing from the tree (a
    /// broken link — the shape tests treat that as a failure).
    pub fn root_of<'a>(&'a self, span: &'a SpanData) -> Option<&'a SpanData> {
        let mut cur = span;
        let mut hops = 0;
        while let Some(pid) = cur.parent {
            cur = self.span_by_id(pid)?;
            hops += 1;
            if hops > 1_000 {
                return None; // cycle guard; cannot happen with monotonic ids
            }
        }
        Some(cur)
    }
}

impl Registry {
    /// A fresh, disabled registry.
    pub const fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            next_span_id: AtomicU64::new(1),
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                spans: Vec::new(),
                epoch: None,
            }),
        }
    }

    /// Starts collecting and anchors the trace epoch (if not already
    /// set). Previously collected data is kept; call [`Registry::reset`]
    /// for a clean slate. On the process-global registry this also
    /// starts allocation counting (see [`crate::mem`]) — private
    /// registries never touch the process-wide allocator window.
    pub fn enable(&self) {
        {
            let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
            inner.epoch.get_or_insert_with(Instant::now);
        }
        if self.is_global() {
            crate::mem::set_enabled(true);
        }
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops collecting (mutating calls become single-load no-ops again,
    /// and — on the global registry — the allocator counting branch goes
    /// back to its disabled fast path).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        if self.is_global() {
            crate::mem::set_enabled(false);
        }
    }

    fn is_global(&self) -> bool {
        std::ptr::eq(self, crate::global())
    }

    /// Whether the registry is currently collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clears all collected data and the trace epoch (enabled state is
    /// unchanged; span ids keep growing so ids never repeat within a
    /// process). On the global registry this also zeroes the allocation
    /// window (`mem::reset_window`), so a threads-sweep loop gets one
    /// clean byte window per member run.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
        *inner = Inner::default();
        if self.is_enabled() {
            inner.epoch = Some(Instant::now());
        }
        if self.is_global() {
            crate::mem::reset_window();
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add_counter(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge (last write wins).
    #[inline]
    pub fn set_gauge(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Allocates a process-unique span id (monotonic from 1).
    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span occurrence. `start` is the wall-clock
    /// instant the span was entered; the registry converts it into an
    /// epoch offset under the lock.
    pub(crate) fn record_span(&self, mut data: SpanData, start: Instant) {
        // Callers (Span::drop) already checked enablement at entry; check
        // again so a span straddling a disable() can't record.
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
        data.start = inner.offset_from_epoch(start);
        inner.spans.push(data);
    }

    /// Test helper: records a minimal span occurrence with just a path and
    /// wall time (no tree linkage).
    #[cfg(test)]
    pub(crate) fn record_span_parts(&self, path: String, wall: Duration) {
        if !self.is_enabled() {
            return;
        }
        let id = self.alloc_span_id();
        let name = path.rsplit('/').next().unwrap_or(&path).to_string();
        let mut inner = self.inner.lock().expect("icn-obs registry poisoned");
        inner.spans.push(SpanData {
            id,
            parent: None,
            name,
            path,
            thread: 0,
            start: Duration::ZERO,
            wall,
            alloc_bytes: 0,
            allocs: 0,
            peak_growth_bytes: 0,
            attrs: Vec::new(),
            events: Vec::new(),
        });
    }

    /// Copies out the current state.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("icn-obs registry poisoned");
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            spans: crate::trace::span_stats(&inner.spans),
            span_tree: inner.spans.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_collects_nothing() {
        let r = Registry::new();
        r.add_counter("a", 5);
        r.set_gauge("g", 1.0);
        r.record_span_parts("s".into(), Duration::from_millis(1));
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty());
        assert!(s.spans.is_empty() && s.span_tree.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let r = Registry::new();
        r.enable();
        r.add_counter("x", 2);
        r.add_counter("x", 1);
        assert_eq!(r.snapshot().counters["x"], 3);
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let r = std::sync::Arc::new(Registry::new());
        r.enable();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.add_counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counters["hits"], 8000);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        r.enable();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", 2.5);
        assert_eq!(r.snapshot().gauges["g"], 2.5);
    }
}
