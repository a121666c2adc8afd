//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto).
//!
//! [`chrome_trace`] renders a registry snapshot into the Trace Event
//! Format's JSON object form: a `traceEvents` array of
//!
//! * `"ph": "X"` *complete* events — one per finished span, with `ts`
//!   (start offset from the registry epoch) and `dur` in **microseconds**
//!   as the format requires, `tid` = the dense icn-obs thread index, and
//!   the span id/parent/path plus all attributes under `args`;
//! * `"ph": "i"` *instant* events — span point events (thread-scoped);
//! * `"ph": "M"` *metadata* events naming the process and each thread.
//!
//! Load the written file directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) to see the stage → worker span
//! tree laid out per thread over time. The export is lossless with
//! respect to span structure: a consumer can rebuild the exact tree from
//! `args.id` / `args.parent`, which is what the round-trip test in
//! `tests/observability.rs` pins.

use crate::json::Json;
use crate::registry::Snapshot;
use std::collections::BTreeSet;

/// The process id used for all events (the export covers one process).
const PID: f64 = 1.0;

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Renders a snapshot as a Chrome trace-event JSON document.
pub fn chrome_trace(snapshot: &Snapshot) -> Json {
    let mut events: Vec<Json> = Vec::new();

    // Metadata: name the process and every thread that appears.
    let threads: BTreeSet<u64> = snapshot.span_tree.iter().map(|s| s.thread).collect();
    events.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::num(PID)),
        ("tid", Json::num(0.0)),
        ("args", Json::obj(vec![("name", Json::str("icn pipeline"))])),
    ]));
    for &tid in &threads {
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(PID)),
            ("tid", Json::num(tid as f64)),
            ("args", Json::obj(vec![("name", Json::str(&label))])),
        ]));
    }

    for span in &snapshot.span_tree {
        let cat = span.path.split('/').next().unwrap_or("span");
        let mut args = vec![
            ("id", Json::num(span.id as f64)),
            ("path", Json::str(&span.path)),
        ];
        if let Some(parent) = span.parent {
            args.push(("parent", Json::num(parent as f64)));
        }
        // Allocation attribution from the counting allocator, when the
        // producing binary counted (zero otherwise — omitted to keep
        // uncounted traces byte-stable).
        if span.alloc_bytes > 0 {
            args.push(("alloc_bytes", Json::num(span.alloc_bytes as f64)));
        }
        for (key, value) in &span.attrs {
            args.push((key.as_str(), Json::num(*value as f64)));
        }
        events.push(Json::obj(vec![
            ("name", Json::str(&span.name)),
            ("cat", Json::str(cat)),
            ("ph", Json::str("X")),
            ("ts", Json::num(micros(span.start))),
            ("dur", Json::num(micros(span.wall))),
            ("pid", Json::num(PID)),
            ("tid", Json::num(span.thread as f64)),
            ("args", Json::Obj(own_entries(args))),
        ]));
        for event in &span.events {
            events.push(Json::obj(vec![
                ("name", Json::str(&event.name)),
                ("cat", Json::str("event")),
                ("ph", Json::str("i")),
                ("ts", Json::num(micros(span.start + event.at))),
                ("pid", Json::num(PID)),
                ("tid", Json::num(span.thread as f64)),
                ("s", Json::str("t")),
                ("args", Json::obj(vec![("span", Json::num(span.id as f64))])),
            ]));
        }
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

fn own_entries(entries: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Writes the Chrome trace rendering of `snapshot` to `path` (pretty
/// JSON; both `chrome://tracing` and Perfetto accept it).
pub fn write_chrome_trace(snapshot: &Snapshot, path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(snapshot).to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanData, SpanEvent};
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.span_tree.push(SpanData {
            id: 1,
            parent: None,
            name: "stage3_surrogate".into(),
            path: "stage3_surrogate".into(),
            thread: 0,
            start: Duration::from_micros(100),
            wall: Duration::from_micros(900),
            alloc_bytes: 2048,
            allocs: 2,
            peak_growth_bytes: 2048,
            attrs: vec![("rows".into(), 64)],
            events: vec![SpanEvent {
                name: "fitted".into(),
                at: Duration::from_micros(400),
            }],
        });
        snap.span_tree.push(SpanData {
            id: 2,
            parent: Some(1),
            name: "shap_chunk".into(),
            path: "stage3_surrogate/shap_chunk".into(),
            thread: 3,
            start: Duration::from_micros(200),
            wall: Duration::from_micros(300),
            alloc_bytes: 0,
            allocs: 0,
            peak_growth_bytes: 0,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        snap
    }

    #[test]
    fn trace_has_complete_events_with_parent_links() {
        let doc = chrome_trace(&sample_snapshot());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let chunk = complete
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("shap_chunk"))
            .unwrap();
        let args = chunk.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(1.0));
        // Zero allocation attribution is omitted; nonzero is exported.
        assert!(args.get("alloc_bytes").is_none());
        let surrogate = complete
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("stage3_surrogate"))
            .unwrap();
        assert_eq!(
            surrogate
                .get("args")
                .unwrap()
                .get("alloc_bytes")
                .and_then(Json::as_f64),
            Some(2048.0)
        );
        assert_eq!(chunk.get("tid").and_then(Json::as_f64), Some(3.0));
        assert_eq!(chunk.get("ts").and_then(Json::as_f64), Some(200.0));
        assert_eq!(chunk.get("dur").and_then(Json::as_f64), Some(300.0));
    }

    #[test]
    fn trace_includes_events_and_metadata() {
        let doc = chrome_trace(&sample_snapshot());
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let instants: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        // The one span point event.
        assert_eq!(instants.len(), 1);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")));
        // The export parses back as JSON (what the browser does).
        let text = doc.to_pretty();
        assert!(Json::parse(&text).is_ok());
    }
}
