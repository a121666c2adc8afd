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
    pub fn to_json(&self) -> crate::Json {
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

impl SpanData {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Aggregates per-occurrence *self* allocation attribution by span path:
/// `path → (self bytes, self allocs, max peak growth)`. Because every
/// occurrence carries self (not cumulative) figures — cross-thread
/// children subtract nothing from their dispatcher — a path's cumulative
/// bytes are simply the sum of self bytes over its subtree, which the
/// treetable renderers compute by path prefix.
pub fn alloc_by_path(
    span_tree: &[SpanData],
) -> std::collections::BTreeMap<String, (u64, u64, u64)> {
    let mut out: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for s in span_tree {
        let e = out.entry(s.path.clone()).or_insert((0, 0, 0));
        e.0 += s.alloc_bytes;
        e.1 += s.allocs;
        e.2 = e.2.max(s.peak_growth_bytes);
    }
    out
}

/// Computes per-path self time (total wall minus the wall of direct
/// children) from the v1-style path aggregation. Returns
/// `path → (calls, total, self)` in path order. Self time is clamped at
/// zero: concurrent children (worker spans adopted from several threads)
/// can legitimately sum to more wall time than their parent.
pub fn self_times(
    spans: &std::collections::BTreeMap<String, (u64, Duration)>,
) -> std::collections::BTreeMap<String, (u64, Duration, Duration)> {
    let mut child_sum: std::collections::BTreeMap<&str, Duration> =
        std::collections::BTreeMap::new();
    for (path, &(_, wall)) in spans {
        if let Some(cut) = path.rfind('/') {
            let parent = &path[..cut];
            *child_sum.entry(parent).or_default() += wall;
        }
    }
    spans
        .iter()
        .map(|(path, &(calls, wall))| {
            let children = child_sum.get(path.as_str()).copied().unwrap_or_default();
            let own = wall.saturating_sub(children);
            (path.clone(), (calls, wall, own))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans: BTreeMap<String, (u64, Duration)> = BTreeMap::new();
        spans.insert("a".into(), (1, Duration::from_millis(100)));
        spans.insert("a/b".into(), (2, Duration::from_millis(60)));
        spans.insert("a/b/c".into(), (2, Duration::from_millis(10)));
        spans.insert("d".into(), (1, Duration::from_millis(5)));
        let t = self_times(&spans);
        assert_eq!(t["a"].2, Duration::from_millis(40));
        assert_eq!(t["a/b"].2, Duration::from_millis(50));
        assert_eq!(t["a/b/c"].2, Duration::from_millis(10));
        assert_eq!(t["d"].2, Duration::from_millis(5));
    }

    #[test]
    fn concurrent_children_clamp_to_zero_self() {
        let mut spans: BTreeMap<String, (u64, Duration)> = BTreeMap::new();
        spans.insert("p".into(), (1, Duration::from_millis(10)));
        // 4 workers x 8ms wall under a 10ms parent: self clamps to 0.
        spans.insert("p/w".into(), (4, Duration::from_millis(32)));
        let t = self_times(&spans);
        assert_eq!(t["p"].2, Duration::ZERO);
    }

    fn span_at(path: &str, alloc_bytes: u64, allocs: u64, peak: u64) -> SpanData {
        SpanData {
            id: 1,
            parent: None,
            name: path.rsplit('/').next().unwrap_or(path).into(),
            path: path.into(),
            thread: 0,
            start: Duration::ZERO,
            wall: Duration::ZERO,
            alloc_bytes,
            allocs,
            peak_growth_bytes: peak,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn attr_lookup() {
        let mut d = span_at("x", 0, 0, 0);
        d.attrs = vec![("rows".into(), AttrValue::U64(9))];
        assert_eq!(d.attr("rows"), Some(&AttrValue::U64(9)));
        assert_eq!(d.attr("missing"), None);
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
}
