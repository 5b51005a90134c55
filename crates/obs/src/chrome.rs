//! Chrome Trace Event / Perfetto export of the in-memory span buffer.
//!
//! [`trace_chrome_json`] serializes a [`TraceEvent`] stream into the
//! [Trace Event Format] consumed by `chrome://tracing` and
//! [ui.perfetto.dev]: one duration-begin (`"B"`) / duration-end
//! (`"E"`) pair per span, thread-scoped instants (`"i"`) for point
//! events, and `"M"` metadata records naming each lane. Lanes map 1:1
//! onto trace lanes ([`crate::current_tid`]): pool chunks occupy
//! stable `worker <k>` lanes at [`crate::WORKER_LANE_BASE`]` + k`
//! (`k` is the chunk index, whichever thread claimed the chunk),
//! everything else a small per-OS-thread id — so a parallel kernel
//! renders as a real multi-lane timeline.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! Timestamps are the recorder's monotonic nanoseconds (one `Instant`
//! origin shared by every thread) converted to the format's
//! microseconds with fractional precision kept, so cross-lane ordering
//! is exact.

use std::collections::BTreeSet;

use crate::json::Writer;
use crate::{TraceEvent, TraceKind, WORKER_LANE_BASE};

/// The fixed process id every exported event carries (the trace is
/// single-process by construction).
const PID: u64 = 1;

/// Renders `events` as a complete Chrome Trace Event JSON document
/// (the object form: `{"traceEvents": [...]}`).
///
/// Span enters become `"B"`, exits `"E"` (carrying the exit outcome as
/// an arg), point events thread-scoped `"i"` instants, and every
/// distinct lane gets a `thread_name` metadata record so Perfetto
/// shows `worker 0`, `worker 1`, … instead of raw ids.
pub fn trace_chrome_json(events: &[TraceEvent]) -> String {
    Writer::render(|w| {
        w.begin_obj();
        w.key("traceEvents").begin_arr();
        let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        for tid in tids {
            w.begin_obj();
            w.key("ph").str("M");
            w.key("name").str("thread_name");
            w.key("pid").u64(PID);
            w.key("tid").u64(tid);
            w.key("args").begin_obj();
            w.key("name").str(&lane_name(tid));
            w.end_obj();
            w.end_obj();
        }
        for e in events {
            let (ph, detail_key) = match e.kind {
                TraceKind::Enter => ("B", "detail"),
                TraceKind::Exit => ("E", "outcome"),
                TraceKind::Event => ("i", "detail"),
            };
            w.begin_obj();
            w.key("ph").str(ph);
            if e.kind == TraceKind::Event {
                // Thread-scoped instant.
                w.key("s").str("t");
            }
            w.key("name").str(&e.name);
            w.key("cat").str("lip");
            w.key("pid").u64(PID);
            w.key("tid").u64(e.tid);
            // Nanoseconds as the format's microseconds, sub-µs
            // precision kept.
            w.key("ts")
                .number_fmt(format_args!("{}.{:03}", e.at_ns / 1_000, e.at_ns % 1_000));
            if !e.detail.is_empty() {
                w.key("args").begin_obj();
                w.key(detail_key).str(&e.detail);
                w.end_obj();
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    })
}

/// The display name of a trace lane: `worker <k>` for pool-worker
/// lanes, `thread <k>` otherwise.
fn lane_name(tid: u64) -> String {
    if tid >= WORKER_LANE_BASE {
        format!("worker {}", tid - WORKER_LANE_BASE)
    } else {
        format!("thread {tid}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, ObsLevel};

    #[test]
    fn exports_spans_events_and_lane_metadata() {
        let obs = Obs::with_level(ObsLevel::Trace);
        let outer = obs.span("run.loop", || "do1".into());
        obs.event("pool.fork", || "2 chunks".into());
        crate::with_lane(WORKER_LANE_BASE + 3, || {
            let s = obs.span("pool.chunk", String::new);
            obs.exit_span(s, "ok");
        });
        obs.exit_span(outer, "parallel");
        let json = trace_chrome_json(&obs.trace_events());
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"name\": \"worker 3\""));
        assert!(json.contains("\"args\": {\"outcome\": \"parallel\"}"));
        // Two lanes: this thread and worker 3.
        let parsed = crate::json::Json::parse(&json).expect("valid JSON");
        let evs = parsed.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let tids: std::collections::BTreeSet<String> = evs
            .iter()
            .filter_map(|e| e.get("tid").map(|t| format!("{t:?}")))
            .collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn empty_buffer_is_still_valid() {
        let json = trace_chrome_json(&[]);
        assert_eq!(json, "{\"traceEvents\": []}");
        assert!(crate::json::Json::parse(&json).is_some());
    }
}
