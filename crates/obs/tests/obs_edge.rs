//! Edge cases of the `lip_obs` substrate: histogram bucket boundaries
//! and saturation, zero-duration spans, and concurrent counting across
//! threads sharing one `Obs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lip_obs::{Obs, ObsLevel, TraceKind};

#[test]
fn histogram_bucket_boundaries_are_exact_powers_of_two() {
    let obs = Obs::with_level(ObsLevel::Metrics);
    // A power of two lands in the bucket whose upper bound it is; one
    // above it spills into the next. Record each boundary and its
    // neighbours across the full range.
    for exp in 0..63u32 {
        let v = 1u64 << exp;
        obs.record_ns("lat", v);
        obs.record_ns("lat", v + 1);
    }
    obs.record_ns("lat", 0);
    obs.record_ns("lat", u64::MAX);
    let snap = obs.snapshot();
    let h = &snap.histograms[0];
    assert_eq!(h.count, 2 * 63 + 2);
    let recorded: u64 = h.buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(recorded, h.count, "every sample lands in some bucket");
    // Bucket upper bounds are non-decreasing and the last bucket
    // (saturation) holds the overflow samples — u64::MAX and the
    // large boundary values beyond the last finite bound.
    assert!(h.buckets.windows(2).all(|w| w[0].0 <= w[1].0));
    let (_, last) = h.buckets.last().expect("buckets");
    assert!(*last >= 1, "saturation bucket caught u64::MAX");
    // sum_ns saturates rather than wrapping.
    assert!(h.sum_ns >= u64::MAX / 2, "sum saturated high, not wrapped");
}

#[test]
fn histogram_saturates_dont_wrap_on_repeated_max() {
    let obs = Obs::with_level(ObsLevel::Metrics);
    obs.record_ns("lat", u64::MAX);
    obs.record_ns("lat", u64::MAX);
    let h = &obs.snapshot().histograms[0];
    assert_eq!(h.count, 2);
    assert_eq!(h.sum_ns, u64::MAX, "sum_ns saturates at u64::MAX");
}

#[test]
fn zero_duration_spans_are_well_formed() {
    let obs = Obs::with_level(ObsLevel::Trace);
    // Enter and exit with no work between: duration may be 0 ns.
    let s = obs.span("instant", String::new);
    obs.exit_span(s, "ok");
    let ev = obs.trace_events();
    assert_eq!(ev.len(), 2);
    assert_eq!(ev[0].kind, TraceKind::Enter);
    assert_eq!(ev[1].kind, TraceKind::Exit);
    assert!(ev[1].at_ns >= ev[0].at_ns);
    assert_eq!(ev[0].depth, ev[1].depth);
    assert_eq!(ev[0].tid, ev[1].tid);

    // The profile folds it without underflow and the export stays
    // valid JSON.
    let p = lip_obs::ProfileReport::from_events(&ev);
    let e = p.flat.iter().find(|e| e.name == "instant").expect("entry");
    assert_eq!(e.count, 1);
    assert!(e.self_ns <= e.total_ns);
    let json = lip_obs::trace_chrome_json(&ev);
    assert!(lip_obs::json::Json::parse(&json).is_some());
}

#[test]
fn concurrent_counters_share_one_obs_without_losing_increments() {
    let obs = Arc::new(Obs::with_level(ObsLevel::Metrics));
    let spans_done = Arc::new(AtomicU64::new(0));
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let obs = Arc::clone(&obs);
            let spans_done = Arc::clone(&spans_done);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    obs.count("shared", 1);
                    obs.count(&format!("per_thread.{t}"), 2);
                    if i % 100 == 0 {
                        obs.record_ns("lat", i);
                        spans_done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("shared"),
        Some(THREADS as u64 * PER_THREAD),
        "no lost increments on the shared counter"
    );
    for t in 0..THREADS {
        assert_eq!(
            snap.counter(&format!("per_thread.{t}")),
            Some(2 * PER_THREAD)
        );
    }
    let h = &snap.histograms[0];
    assert_eq!(h.count, spans_done.load(Ordering::Relaxed));
}

#[test]
fn concurrent_spans_keep_per_lane_depths_consistent() {
    let obs = Arc::new(Obs::with_level(ObsLevel::Trace));
    const THREADS: u64 = 4;
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let obs = Arc::clone(&obs);
            scope.spawn(move || {
                lip_obs::with_lane(lip_obs::WORKER_LANE_BASE + w, || {
                    for _ in 0..50 {
                        let outer = obs.span("outer", String::new);
                        let inner = obs.span("inner", String::new);
                        obs.exit_span(inner, "ok");
                        obs.exit_span(outer, "ok");
                    }
                });
            });
        }
    });
    let ev = obs.trace_events();
    assert_eq!(ev.len(), THREADS as usize * 50 * 4);
    // Per lane, the event stream must nest exactly like a single
    // thread's would: outer at depth 0, inner at depth 1.
    for w in 0..THREADS {
        let lane: Vec<_> = ev
            .iter()
            .filter(|e| e.tid == lip_obs::WORKER_LANE_BASE + w)
            .collect();
        assert_eq!(lane.len(), 200);
        for e in &lane {
            let want = match e.name.as_str() {
                "outer" => 0,
                _ => 1,
            };
            assert_eq!(e.depth, want, "lane {w} event {}: bad depth", e.name);
        }
    }
}

#[test]
fn with_lane_restores_the_previous_lane_after_a_panic() {
    // The fork-join pool's caller and workers outlive the region, so a
    // chunk that panics must not leave its lane override behind.
    let own = lip_obs::current_tid();
    lip_obs::with_lane(7, || {
        let caught = std::panic::catch_unwind(|| {
            lip_obs::with_lane(lip_obs::WORKER_LANE_BASE + 3, || panic!("chunk body"))
        });
        assert!(caught.is_err());
        assert_eq!(lip_obs::current_tid(), 7, "nested override restored");
    });
    assert_eq!(lip_obs::current_tid(), own, "outer override restored");
}
