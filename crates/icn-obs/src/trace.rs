//! Structured trace data: finished spans with tree linkage, attributes
//! and point events.
//!
//! [`crate::Span`] timers record one [`SpanData`] each into the registry
//! when dropped. Unlike the flat path aggregation of a report's `spans`, a
//! `SpanData` carries the full tree structure — a unique `id`, the
//! `parent` id (linked **across threads** when the span ran on an
//! `icn_stats::par` worker, via the handoff mechanism in
//! [`crate::span`]), the thread it ran on, and its start offset from the
//! registry epoch — which is exactly what the Chrome trace-event exporter
//! ([`crate::chrome`]) and the span-tree shape tests need.

use std::collections::BTreeMap;
use std::time::Duration;

/// An attribute value attached to a span (key = value pairs).
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, indices).
    U64(u64),
    /// Floating-point attribute (ratios, throughputs).
    F64(f64),
    /// String attribute.
    Str(String),
}

impl AttrValue {
    /// Renders the value as a [`crate::Json`] node.
    pub(crate) fn to_json(&self) -> crate::Json {
        match self {
            AttrValue::U64(v) => crate::Json::Num(*v as f64),
            AttrValue::F64(v) => crate::Json::Num(*v),
            AttrValue::Str(s) => crate::Json::Str(s.clone()),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

/// A point event recorded inside a span (`span.event("sealed")`).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Event name.
    pub name: String,
    /// Offset from the owning span's start.
    pub at: Duration,
}

/// One finished span occurrence with full tree linkage.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanData {
    /// Unique id within the registry (monotonic, assigned at enter).
    pub id: u64,
    /// Id of the enclosing span: the previous span on the same thread's
    /// stack, or — for the first span opened on an `icn_stats::par`
    /// worker — the span that was open on the *dispatching* thread.
    pub parent: Option<u64>,
    /// Leaf name (`shap_chunk`).
    pub name: String,
    /// Slash-joined nesting path (`stage3_surrogate/shap_batch/shap_chunk`);
    /// identical to the report's span aggregation key.
    pub path: String,
    /// Small dense index of the OS thread the span ran on (0 is the first
    /// thread that ever opened a span, usually the main thread).
    pub thread: u64,
    /// Start offset from the registry epoch (set at `enable`).
    pub start: Duration,
    /// Wall time of this occurrence.
    pub wall: Duration,
    /// *Self* allocation bytes: bytes allocated on this span's thread
    /// while it was open, minus the bytes attributed to same-thread
    /// child spans. Zero unless a [`crate::mem::CountingAlloc`] is
    /// installed and counting. Attribution is threads-advisory — see
    /// the [`crate::mem`] module docs.
    pub alloc_bytes: u64,
    /// *Self* allocation count, same attribution rules as
    /// [`SpanData::alloc_bytes`].
    pub allocs: u64,
    /// How far the process-wide allocation window peak rose while this
    /// span was open (its peak contribution; zero when the high-water
    /// mark was set elsewhere).
    pub peak_growth_bytes: u64,
    /// Attached key = value attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Point events recorded inside the span, in time order.
    pub events: Vec<SpanEvent>,
}

/// Every occurrence of one span path, aggregated: one row of a report's
/// `spans` table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of occurrences.
    pub calls: u64,
    /// Total wall time over all occurrences.
    pub wall: Duration,
    /// The 99th-percentile occurrence wall: exactly the
    /// `clamp(⌈0.99·calls⌉, 1, calls)`-th smallest, so the largest for
    /// up to 99 calls and the 99th smallest of 100.
    pub p99: Duration,
}

/// Aggregates span occurrences by path: calls, total wall and the exact
/// p99 occurrence wall (see [`SpanStats::p99`]).
pub(crate) fn span_stats(span_tree: &[SpanData]) -> BTreeMap<String, SpanStats> {
    let mut walls: BTreeMap<&str, Vec<Duration>> = BTreeMap::new();
    for s in span_tree {
        walls.entry(&s.path).or_default().push(s.wall);
    }
    walls
        .into_iter()
        .map(|(path, mut w)| {
            let calls = w.len();
            let wall = w.iter().sum();
            // ⌈0.99·calls⌉ in integers, so no float rounding moves the rank.
            let rank = (calls * 99).div_ceil(100).clamp(1, calls);
            let p99 = *w.select_nth_unstable(rank - 1).1;
            let stats = SpanStats {
                calls: calls as u64,
                wall,
                p99,
            };
            (path.to_string(), stats)
        })
        .collect()
}

/// Aggregates per-occurrence *self* allocation attribution by span path:
/// `path → (self bytes, self allocs, max peak growth)`. Because every
/// occurrence carries self (not cumulative) figures — cross-thread
/// children subtract nothing from their dispatcher — a path's cumulative
/// bytes are simply the sum of self bytes over its subtree, which the
/// treetable renderers compute by path prefix.
pub(crate) fn alloc_by_path(span_tree: &[SpanData]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in span_tree {
        let e = out.entry(s.path.clone()).or_insert((0, 0, 0));
        e.0 += s.alloc_bytes;
        e.1 += s.allocs;
        e.2 = e.2.max(s.peak_growth_bytes);
    }
    out
}

/// Computes per-path self time (total wall minus the wall of direct
/// children) from the path aggregation. Returns
/// `path → (calls, total, self)` in path order. Self time is clamped at
/// zero: concurrent children (worker spans adopted from several threads)
/// can legitimately sum to more wall time than their parent.
pub(crate) fn self_times(
    spans: &BTreeMap<String, SpanStats>,
) -> BTreeMap<String, (u64, Duration, Duration)> {
    let mut child_sum: BTreeMap<&str, Duration> = BTreeMap::new();
    for (path, s) in spans {
        if let Some(cut) = path.rfind('/') {
            let parent = &path[..cut];
            *child_sum.entry(parent).or_default() += s.wall;
        }
    }
    spans
        .iter()
        .map(|(path, s)| {
            let children = child_sum.get(path.as_str()).copied().unwrap_or_default();
            let own = s.wall.saturating_sub(children);
            (path.clone(), (s.calls, s.wall, own))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(calls: u64, wall_ms: u64) -> SpanStats {
        SpanStats {
            calls,
            wall: Duration::from_millis(wall_ms),
            p99: Duration::ZERO,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        spans.insert("a".into(), stats(1, 100));
        spans.insert("a/b".into(), stats(2, 60));
        spans.insert("a/b/c".into(), stats(2, 10));
        spans.insert("d".into(), stats(1, 5));
        let t = self_times(&spans);
        assert_eq!(t["a"].2, Duration::from_millis(40));
        assert_eq!(t["a/b"].2, Duration::from_millis(50));
        assert_eq!(t["a/b/c"].2, Duration::from_millis(10));
        assert_eq!(t["d"].2, Duration::from_millis(5));
    }

    #[test]
    fn concurrent_children_clamp_to_zero_self() {
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        spans.insert("p".into(), stats(1, 10));
        // 4 workers x 8ms wall under a 10ms parent: self clamps to 0.
        spans.insert("p/w".into(), stats(4, 32));
        let t = self_times(&spans);
        assert_eq!(t["p"].2, Duration::ZERO);
    }

    fn span_at(path: &str, alloc_bytes: u64, allocs: u64, peak: u64) -> SpanData {
        timed(path, Duration::ZERO, alloc_bytes, allocs, peak)
    }

    fn timed(path: &str, wall: Duration, alloc_bytes: u64, allocs: u64, peak: u64) -> SpanData {
        SpanData {
            id: 1,
            parent: None,
            name: path.rsplit('/').next().unwrap_or(path).into(),
            path: path.into(),
            thread: 0,
            start: Duration::ZERO,
            wall,
            alloc_bytes,
            allocs,
            peak_growth_bytes: peak,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn alloc_by_path_sums_self_and_maxes_peak_growth() {
        let tree = vec![
            span_at("a", 100, 2, 50),
            span_at("a/b", 30, 1, 10),
            span_at("a/b", 20, 1, 40),
            span_at("c", 0, 0, 0),
        ];
        let agg = alloc_by_path(&tree);
        assert_eq!(agg["a"], (100, 2, 50));
        // Repeated occurrences sum bytes/allocs but keep the max peak
        // growth — peaks are high-water marks, not additive.
        assert_eq!(agg["a/b"], (50, 2, 40));
        assert_eq!(agg["c"], (0, 0, 0));
    }

    #[test]
    fn p99_is_the_exact_rank_of_the_occurrence_walls() {
        let tree = |path: &str, walls_ms: &[u64]| -> Vec<SpanData> {
            walls_ms
                .iter()
                .map(|&ms| timed(path, Duration::from_millis(ms), 0, 0, 0))
                .collect()
        };
        // 3 occurrences: ⌈2.97⌉ = 3, the largest.
        let three = span_stats(&tree("a", &[7, 30, 2]));
        assert_eq!(three["a"].calls, 3);
        assert_eq!(three["a"].wall, Duration::from_millis(39));
        assert_eq!(three["a"].p99, Duration::from_millis(30));
        // 100 occurrences, walls 1..=100 ms in scrambled order: ⌈99⌉ = 99,
        // the 99th smallest, not the largest.
        let walls: Vec<u64> = (1..=100).map(|i| (i * 37) % 100 + 1).collect();
        let hundred = span_stats(&tree("b", &walls));
        assert_eq!(hundred["b"].p99, Duration::from_millis(99));
        // 101 occurrences: ⌈99.99⌉ = 100, one below the largest.
        let mut walls: Vec<u64> = (1..=101).collect();
        walls.reverse();
        assert_eq!(
            span_stats(&tree("c", &walls))["c"].p99,
            Duration::from_millis(100)
        );
        // One occurrence: its own wall.
        let one = span_stats(&tree("d", &[5]));
        assert_eq!(one["d"].p99, one["d"].wall);
    }
}
