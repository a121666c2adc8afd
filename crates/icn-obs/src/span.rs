//! RAII stage timers with nesting, attributes and cross-thread adoption.
//!
//! ```
//! let reg = icn_obs::global();
//! reg.enable();
//! {
//!     let _outer = icn_obs::Span::enter("stage2_cluster");
//!     let mut inner = icn_obs::Span::enter("condensed");
//!     inner.attr("pairs", 42u64);
//!     inner.event("allocated");
//!     // ... work ...
//! } // both spans record their wall time on drop
//! let snap = reg.snapshot();
//! assert!(snap.spans.contains_key("stage2_cluster/condensed"));
//! reg.disable();
//! reg.reset();
//! ```
//!
//! Nesting is tracked per thread: a span entered while another is open on
//! the same thread records under the parent's path joined with `/`, and
//! links to it by id in the span tree ([`crate::SpanData`]).
//!
//! **Cross-thread adoption.** Worker threads spawned by `icn_stats::par`
//! have empty span stacks, so their spans would become disconnected
//! roots. Instead, the dispatching thread captures a [`Handoff`] of its
//! innermost open span ([`current_handoff`]) and each worker installs it
//! with [`Handoff::adopt`]; the first span the worker opens then parents
//! to the dispatching span — by id *and* by path — so e.g. per-chunk
//! SHAP spans appear under `stage3_surrogate/shap_batch` at any
//! `ICN_THREADS`, exactly as they do on the sequential fallback path.
//!
//! When the global registry is disabled, [`Span::enter`] is a no-op that
//! takes no timestamp and touches no thread-local state, and
//! [`current_handoff`] returns `None` after a single relaxed load.

use crate::registry::Registry;
use crate::trace::{AttrValue, SpanData, SpanEvent};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct Frame {
    id: u64,
    path: String,
    /// Allocation bytes attributed to already-dropped same-thread child
    /// spans, accumulated so this span can report *self* attribution
    /// (its own thread delta minus its children's).
    child_alloc_bytes: u64,
    /// Allocation count attributed to same-thread child spans.
    child_allocs: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static ADOPTED: RefCell<Option<Handoff>> = const { RefCell::new(None) };
    static THREAD_INDEX: Cell<Option<u64>> = const { Cell::new(None) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Dense per-process index of the calling OS thread (0 for the first
/// thread that asks, usually the main thread). Used to label spans;
/// stable for the lifetime of the thread.
pub(crate) fn thread_index() -> u64 {
    THREAD_INDEX.with(|cell| match cell.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(i));
            i
        }
    })
}

/// A capture of the dispatching thread's innermost open span, used to
/// parent worker spans across threads. Obtained with [`current_handoff`]
/// on the dispatching thread; installed on a worker with
/// [`Handoff::adopt`].
#[derive(Clone, Debug)]
pub struct Handoff {
    id: u64,
    path: String,
}

impl Handoff {
    /// Installs this handoff on the current thread: until the returned
    /// guard drops, the first span opened with an empty stack parents to
    /// the captured span.
    pub fn adopt(&self) -> AdoptGuard {
        let previous = ADOPTED.with(|a| a.borrow_mut().replace(self.clone()));
        AdoptGuard { previous }
    }
}

/// Restores the thread's previous adoption state on drop. See
/// [`Handoff::adopt`].
#[must_use = "adoption lasts only while the guard is alive"]
pub struct AdoptGuard {
    previous: Option<Handoff>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ADOPTED.with(|a| *a.borrow_mut() = previous);
    }
}

/// Captures the innermost open span on the current thread for cross-thread
/// parenting. Returns `None` when the global registry is disabled (one
/// relaxed load, no thread-local access) or when no span is open.
///
/// A worker thread that has adopted a [`Handoff`] but not opened any span
/// of its own re-exports that adoption: nested parallel sections (a
/// parallel model fit inside a parallel per-cluster loop) chain the
/// dispatcher's span through every level instead of dropping to
/// disconnected roots one level down.
pub fn current_handoff() -> Option<Handoff> {
    if !crate::global().is_enabled() {
        return None;
    }
    STACK
        .with(|stack| {
            stack.borrow().last().map(|f| Handoff {
                id: f.id,
                path: f.path.clone(),
            })
        })
        .or_else(|| ADOPTED.with(|a| a.borrow().clone()))
}

/// An RAII timer that records one [`SpanData`] into the global registry
/// when dropped. Create with [`Span::enter`]; hold it for the duration of
/// the stage (`let _span = Span::enter("stage");`).
#[must_use = "a span records on drop; bind it to a variable for the stage's duration"]
pub struct Span {
    state: Option<SpanState>,
}

struct SpanState {
    registry: &'static Registry,
    id: u64,
    parent: Option<u64>,
    name: String,
    path: String,
    start: Instant,
    /// Thread-cumulative allocation counters at enter; the drop-time
    /// difference is this span's allocation delta (self + same-thread
    /// children). Zero-cost when no counting allocator is installed —
    /// the counters just stay at zero.
    bytes_at_enter: u64,
    allocs_at_enter: u64,
    /// Window peak at enter, so the drop can report how far the
    /// process-wide high-water mark rose during the span.
    peak_at_enter: u64,
    attrs: Vec<(String, AttrValue)>,
    events: Vec<SpanEvent>,
}

impl Span {
    /// Opens a span on the global registry. No-op (and allocation-free)
    /// while the registry is disabled.
    pub fn enter(name: &str) -> Span {
        Span::enter_on(crate::global(), name)
    }

    /// Opens a span on a specific (static) registry.
    fn enter_on(registry: &'static Registry, name: &str) -> Span {
        if !registry.is_enabled() {
            return Span { state: None };
        }
        let id = registry.alloc_span_id();
        let (parent, path) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, path) = match stack.last() {
                Some(top) => (Some(top.id), format!("{}/{name}", top.path)),
                None => match ADOPTED.with(|a| a.borrow().clone()) {
                    Some(h) => (Some(h.id), format!("{}/{name}", h.path)),
                    None => (None, name.to_string()),
                },
            };
            stack.push(Frame {
                id,
                path: path.clone(),
                child_alloc_bytes: 0,
                child_allocs: 0,
            });
            (parent, path)
        });
        let (bytes_at_enter, allocs_at_enter) = crate::mem::thread_totals();
        Span {
            state: Some(SpanState {
                registry,
                id,
                parent,
                name: name.to_string(),
                path,
                start: Instant::now(),
                bytes_at_enter,
                allocs_at_enter,
                peak_at_enter: crate::mem::window_peak(),
                attrs: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    /// The full nesting path of this span (`None` when disabled).
    pub fn path(&self) -> Option<&str> {
        self.state.as_ref().map(|s| s.path.as_str())
    }

    /// Attaches a key = value attribute (last write appends; keys are not
    /// deduplicated). No-op while disabled.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(state) = self.state.as_mut() {
            state.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Records a named point event at the current offset into the span.
    /// No-op while disabled.
    pub fn event(&mut self, name: &str) {
        if let Some(state) = self.state.as_mut() {
            state.events.push(SpanEvent {
                name: name.to_string(),
                at: state.start.elapsed(),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let wall = state.start.elapsed();
        // This thread's allocation delta over the span covers self plus
        // same-thread children; subtracting the child frames' deltas
        // leaves self attribution. Cross-thread (adopted) children keep
        // their own deltas, so nothing is double-counted — subtree sums
        // stay consistent at any thread count.
        let (bytes_now, allocs_now) = crate::mem::thread_totals();
        let delta_bytes = bytes_now.saturating_sub(state.bytes_at_enter);
        let delta_allocs = allocs_now.saturating_sub(state.allocs_at_enter);
        let peak_growth = crate::mem::window_peak().saturating_sub(state.peak_at_enter);
        let (child_bytes, child_allocs) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop up to and including this span's frame; tolerates
            // out-of-order drops without panicking.
            let children = match stack.iter().rposition(|f| f.id == state.id) {
                Some(pos) => {
                    let own = (stack[pos].child_alloc_bytes, stack[pos].child_allocs);
                    stack.truncate(pos);
                    own
                }
                None => (0, 0),
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_alloc_bytes += delta_bytes;
                parent.child_allocs += delta_allocs;
            }
            children
        });
        state.registry.record_span(
            SpanData {
                id: state.id,
                parent: state.parent,
                name: state.name,
                path: state.path,
                thread: thread_index(),
                start: std::time::Duration::ZERO, // set from epoch by the registry
                wall,
                alloc_bytes: delta_bytes.saturating_sub(child_bytes),
                allocs: delta_allocs.saturating_sub(child_allocs),
                peak_growth_bytes: peak_growth,
                attrs: state.attrs,
                events: state.events,
            },
            state.start,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global registry; serialise them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn nested_spans_record_paths() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _a = Span::enter("outer");
            {
                let _b = Span::enter("inner");
            }
            let _c = Span::enter("inner");
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        assert_eq!(snap.spans["outer"].calls, 1);
        assert_eq!(snap.spans["outer/inner"].calls, 2);
    }

    #[test]
    fn nested_spans_link_by_id() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _a = Span::enter("outer");
            let _b = Span::enter("inner");
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        let outer = snap.span_tree.iter().find(|s| s.path == "outer").unwrap();
        let inner = snap
            .span_tree
            .iter()
            .find(|s| s.path == "outer/inner")
            .unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.name, "inner");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        let mut s = Span::enter("ghost");
        assert!(s.path().is_none());
        s.attr("k", 1u64);
        s.event("e");
        drop(s);
        assert!(reg.snapshot().spans.is_empty());
        assert!(current_handoff().is_none());
    }

    #[test]
    fn sibling_spans_share_parent_path() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _p = Span::enter("pipeline");
            {
                let _s1 = Span::enter("s1");
            }
            {
                let _s2 = Span::enter("s2");
            }
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        assert!(snap.spans.contains_key("pipeline/s1"));
        assert!(snap.spans.contains_key("pipeline/s2"));
    }

    #[test]
    fn attrs_and_events_survive_to_snapshot() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let mut s = Span::enter("work");
            s.attr("rows", 128u64);
            s.attr("ratio", 0.5f64);
            s.attr("mode", "batch");
            s.event("halfway");
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        let s = &snap.span_tree[0];
        let attr = |k: &str| s.attrs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(attr("rows"), Some(&AttrValue::U64(128)));
        assert_eq!(attr("ratio"), Some(&AttrValue::F64(0.5)));
        assert_eq!(attr("mode"), Some(&AttrValue::Str("batch".into())));
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].name, "halfway");
    }

    #[test]
    fn adopted_spans_parent_across_threads() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _stage = Span::enter("stage");
            let handoff = current_handoff().expect("span open, registry enabled");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _adopt = handoff.adopt();
                    let _w = Span::enter("worker");
                    let _inner = Span::enter("step");
                });
            });
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        let stage = snap.span_tree.iter().find(|s| s.path == "stage").unwrap();
        let worker = snap
            .span_tree
            .iter()
            .find(|s| s.path == "stage/worker")
            .unwrap();
        let step = snap
            .span_tree
            .iter()
            .find(|s| s.path == "stage/worker/step")
            .unwrap();
        assert_eq!(worker.parent, Some(stage.id));
        assert_eq!(step.parent, Some(worker.id));
        assert_ne!(worker.thread, stage.thread);
        // Top-level aggregation is unchanged: only "stage" is a root.
        assert_eq!(
            snap.span_tree.iter().filter(|s| s.parent.is_none()).count(),
            1
        );
    }

    #[test]
    fn handoff_chains_through_nested_dispatch() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _stage = Span::enter("stage");
            let outer = current_handoff().expect("span open");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // Outer worker adopts but opens no span of its own —
                    // exactly what a dispatch-only parallel layer does.
                    let _adopt = outer.adopt();
                    let inner =
                        current_handoff().expect("adoption must re-export as the current handoff");
                    std::thread::scope(|scope2| {
                        scope2.spawn(|| {
                            let _adopt2 = inner.adopt();
                            let _leaf = Span::enter("leaf");
                        });
                    });
                });
            });
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        // Two levels of worker threads down, the leaf still roots to the
        // dispatching stage instead of becoming a disconnected root.
        assert!(snap.spans.contains_key("stage/leaf"));
        assert_eq!(
            snap.span_tree.iter().filter(|s| s.parent.is_none()).count(),
            1
        );
    }

    #[test]
    fn alloc_deltas_attribute_self_vs_children() {
        let _guard = LOCK.lock().unwrap();
        // Also drives the process-global mem counters (always span LOCK
        // first, then the mem lock — same order everywhere).
        let _mem = crate::MEM_TEST_LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _outer = Span::enter("outer");
            crate::mem::on_alloc(1000); // outer self
            {
                let _inner = Span::enter("inner");
                crate::mem::on_alloc(300); // inner self
            }
            crate::mem::on_alloc(50); // outer self, after the child closed
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        let outer = snap.span_tree.iter().find(|s| s.path == "outer").unwrap();
        let inner = snap
            .span_tree
            .iter()
            .find(|s| s.path == "outer/inner")
            .unwrap();
        assert_eq!(inner.alloc_bytes, 300);
        assert_eq!(inner.allocs, 1);
        // The child's 300 bytes are subtracted from the parent's delta.
        assert_eq!(outer.alloc_bytes, 1050);
        assert_eq!(outer.allocs, 2);
    }

    #[test]
    fn cross_thread_worker_spans_carry_their_own_deltas() {
        let _guard = LOCK.lock().unwrap();
        let _mem = crate::MEM_TEST_LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _stage = Span::enter("stage");
            crate::mem::on_alloc(500);
            let handoff = current_handoff().expect("span open");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _adopt = handoff.adopt();
                    let _w = Span::enter("worker");
                    crate::mem::on_alloc(200);
                });
            });
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        let stage = snap.span_tree.iter().find(|s| s.path == "stage").unwrap();
        let worker = snap
            .span_tree
            .iter()
            .find(|s| s.path == "stage/worker")
            .unwrap();
        // The worker allocated on its own thread: its bytes show up under
        // its own path and are NOT double-counted in the dispatcher's
        // self figure (subtree sum = 700, exactly what was allocated).
        assert_eq!(worker.alloc_bytes, 200);
        assert_eq!(stage.alloc_bytes, 500);
    }

    #[test]
    fn adopt_guard_restores_previous_state() {
        let _guard = LOCK.lock().unwrap();
        let reg = crate::global();
        reg.reset();
        reg.enable();
        {
            let _a = Span::enter("a");
            let ha = current_handoff().unwrap();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    {
                        let _adopt = ha.adopt();
                        let _w = Span::enter("w1");
                    }
                    // Guard dropped: a fresh span is a root again.
                    let _w2 = Span::enter("w2");
                });
            });
        }
        reg.disable();
        let snap = reg.snapshot();
        reg.reset();
        assert!(snap.spans.contains_key("a/w1"));
        assert!(snap.spans.contains_key("w2"));
        let w2 = snap.span_tree.iter().find(|s| s.path == "w2").unwrap();
        assert_eq!(w2.parent, None);
    }
}
