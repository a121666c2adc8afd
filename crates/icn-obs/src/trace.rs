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
    /// Attached integer key = value attributes (counts, indices), in
    /// insertion order.
    pub attrs: Vec<(String, u64)>,
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
    /// *Self* allocation bytes ([`SpanData::alloc_bytes`]) summed over the
    /// occurrences. Self figures never double count, so a path's
    /// cumulative bytes are the sum over its subtree's rows.
    pub alloc_bytes: u64,
    /// *Self* allocation count, summed over the occurrences.
    pub allocs: u64,
    /// The largest single-occurrence peak contribution
    /// ([`SpanData::peak_growth_bytes`]): a max, not a sum, since peaks are
    /// high-water marks.
    pub peak_growth_bytes: u64,
}

/// Aggregates span occurrences by path in one pass: calls, total wall, the
/// exact p99 occurrence wall (see [`SpanStats::p99`]) and the self
/// allocation figures.
pub(crate) fn span_stats(span_tree: &[SpanData]) -> BTreeMap<String, SpanStats> {
    let mut rows: BTreeMap<&str, (SpanStats, Vec<Duration>)> = BTreeMap::new();
    for s in span_tree {
        let (stats, walls) = rows.entry(&s.path).or_default();
        stats.alloc_bytes += s.alloc_bytes;
        stats.allocs += s.allocs;
        stats.peak_growth_bytes = stats.peak_growth_bytes.max(s.peak_growth_bytes);
        walls.push(s.wall);
    }
    rows.into_iter()
        .map(|(path, (mut stats, mut w))| {
            let calls = w.len();
            stats.calls = calls as u64;
            stats.wall = w.iter().sum();
            // ⌈0.99·calls⌉ in integers, so no float rounding moves the rank.
            let rank = (calls * 99).div_ceil(100).clamp(1, calls);
            stats.p99 = *w.select_nth_unstable(rank - 1).1;
            (path.to_string(), stats)
        })
        .collect()
}

/// Per-path self time: total wall minus the wall of direct children.
/// Clamped at zero: concurrent children (worker spans adopted from
/// several threads) can legitimately sum to more wall time than their
/// parent.
pub(crate) fn self_times(spans: &BTreeMap<String, SpanStats>) -> BTreeMap<&str, Duration> {
    let mut child_sum: BTreeMap<&str, Duration> = BTreeMap::new();
    for (path, s) in spans {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *child_sum.entry(parent).or_default() += s.wall;
        }
    }
    spans
        .iter()
        .map(|(path, s)| {
            let children = child_sum.get(path.as_str()).copied().unwrap_or_default();
            (path.as_str(), s.wall.saturating_sub(children))
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
            ..SpanStats::default()
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
        assert_eq!(t["a"], Duration::from_millis(40));
        assert_eq!(t["a/b"], Duration::from_millis(50));
        assert_eq!(t["a/b/c"], Duration::from_millis(10));
        assert_eq!(t["d"], Duration::from_millis(5));
    }

    #[test]
    fn concurrent_children_clamp_to_zero_self() {
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        spans.insert("p".into(), stats(1, 10));
        // 4 workers x 8ms wall under a 10ms parent: self clamps to 0.
        spans.insert("p/w".into(), stats(4, 32));
        let t = self_times(&spans);
        assert_eq!(t["p"], Duration::ZERO);
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
    fn span_rows_sum_self_allocations_and_max_peak_growth() {
        let tree = vec![
            span_at("a", 100, 2, 50),
            span_at("a/b", 30, 1, 10),
            span_at("a/b", 20, 1, 40),
            span_at("c", 0, 0, 0),
        ];
        let rows = span_stats(&tree);
        let alloc = |p: &str| {
            (
                rows[p].alloc_bytes,
                rows[p].allocs,
                rows[p].peak_growth_bytes,
            )
        };
        assert_eq!(alloc("a"), (100, 2, 50));
        // Repeated occurrences sum bytes/allocs but keep the max peak
        // growth — peaks are high-water marks, not additive.
        assert_eq!(alloc("a/b"), (50, 2, 40));
        assert_eq!(rows["a/b"].calls, 2);
        assert_eq!(alloc("c"), (0, 0, 0));
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
