//! The presentation layer over `lip_obs`, end to end on real kernels:
//! the Chrome Trace Event export must be valid JSON with one lane per
//! pool worker on a parallel kernel, the profile must fold the span
//! tree into sane self/total figures, and a fissioned loop's explain
//! report must carry per-fragment sub-decisions.

use std::collections::BTreeSet;
use std::rc::Rc;

use lip_obs::json::Json;
use lip_obs::ObsLevel;
use lip_runtime::Session;
use lip_symbolic::sym;

fn traced_session(nthreads: usize) -> Session {
    Session::builder()
        .fission(true)
        .nthreads(nthreads)
        .par_min(64)
        .observer(ObsLevel::Trace)
        .build()
}

/// Runs one suite kernel through `session`.
fn run_kernel(session: &Session, shape: &'static lip_suite::KernelShape, n: usize) {
    let mut p = shape.prepared(n);
    let handle = session.load(p.machine.program().clone());
    let handle = handle.prepare(sym(p.sub), p.label).expect("loop");
    handle.run(&mut p.frame).expect("runs");
}

#[test]
fn chrome_export_is_valid_json_with_worker_lanes_on_a_parallel_kernel() {
    let session = traced_session(4);
    run_kernel(&session, &lip_suite::STENCIL, 1024);
    let json = session.trace_chrome_json();
    let doc = Json::parse(&json).expect("export is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut tids = BTreeSet::new();
    let mut worker_lanes = BTreeSet::new();
    let mut phases = BTreeSet::new();
    for e in events {
        // Required Trace Event Format keys on every record.
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        phases.insert(ph.to_owned());
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        tids.insert(tid);
        if tid >= lip_obs::WORKER_LANE_BASE {
            worker_lanes.insert(tid);
        }
        if ph != "M" {
            e.get("ts").expect("ts on non-metadata events");
        }
    }
    assert!(
        tids.len() >= 2,
        "a parallel kernel must render ≥2 lanes, got {tids:?}"
    );
    assert!(
        worker_lanes.len() >= 2,
        "≥2 pool-worker lanes expected, got {worker_lanes:?}"
    );
    assert!(phases.contains("B") && phases.contains("E") && phases.contains("M"));

    // Per-chunk spans populate the worker lanes, with lane names.
    assert!(json.contains("\"pool.chunk\""));
    assert!(json.contains("\"worker 0\""));
    assert!(json.contains("\"worker 1\""));
}

#[test]
fn worker_lanes_are_stable_across_repeated_forks() {
    let session = traced_session(2);
    run_kernel(&session, &lip_suite::STENCIL, 512);
    run_kernel(&session, &lip_suite::STENCIL, 512);
    let lanes: BTreeSet<u64> = session
        .trace_events()
        .iter()
        .filter(|e| e.tid >= lip_obs::WORKER_LANE_BASE)
        .map(|e| e.tid)
        .collect();
    // Fresh OS threads per fork, but the same worker-index lanes.
    assert_eq!(
        lanes,
        BTreeSet::from([lip_obs::WORKER_LANE_BASE, lip_obs::WORKER_LANE_BASE + 1])
    );
}

#[test]
fn profile_folds_spans_with_consistent_self_and_total_times() {
    let session = traced_session(4);
    run_kernel(&session, &lip_suite::STENCIL, 1024);
    let p = session.profile();
    assert!(p.lanes >= 2);
    assert!(p.wall_ns > 0);
    let chunk = p
        .flat
        .iter()
        .find(|e| e.name == "pool.chunk")
        .expect("chunk spans profiled");
    assert!(chunk.count >= 2, "one span per executed chunk");
    for e in &p.flat {
        assert!(e.self_ns <= e.total_ns, "{}: self > total", e.name);
        assert!(e.count > 0);
    }
    let text = p.render_text();
    assert!(text.contains("hot phases"));
    assert!(text.contains("pool.chunk"));
    let json = Json::parse(&p.to_json()).expect("profile JSON parses");
    assert_eq!(
        json.get("flat").unwrap().as_arr().unwrap().len(),
        p.flat.len()
    );
}

#[test]
fn fissioned_explain_carries_per_fragment_sub_decisions() {
    let session = traced_session(2);
    run_kernel(&session, &lip_suite::HOIST_INDIRECT, 512);
    let d = session
        .explain_decision("do20")
        .expect("decision for the fissioned loop");
    let fission = d.fission.as_ref().expect("fission report");
    assert_eq!(fission.fragments.len(), 2);

    // The rescued fragment re-ran the cascade: its sub-decision must
    // carry the stages tried and the exact-test verdict that finally
    // admitted it to the parallel path.
    let rescued = fission
        .fragments
        .iter()
        .find(|f| f.parallel)
        .expect("one parallel fragment");
    assert!(
        !rescued.stages.is_empty() || rescued.exact_test.is_some(),
        "parallel fragment must expose how it was decided"
    );
    let seq = fission
        .fragments
        .iter()
        .find(|f| !f.parallel)
        .expect("one sequential fragment");
    assert!(seq.units > 0);

    // Rendered views expose the sub-decisions and per-fragment share.
    let text = d.render_text();
    assert!(text.contains("of loop)"), "per-fragment share rendered");
    let json = Json::parse(&d.to_json()).expect("decision JSON parses");
    let per_fragment = json
        .path(&["fission", "per_fragment"])
        .and_then(Json::as_arr)
        .expect("per_fragment array");
    assert_eq!(per_fragment.len(), 2);
    for f in per_fragment {
        f.get("stages").and_then(Json::as_arr).expect("stages key");
        f.get("share").and_then(Json::as_f64).expect("share key");
        f.get("exact_test").expect("exact_test key");
    }
    let rescued_json = per_fragment
        .iter()
        .find(|f| f.get("parallel").and_then(Json::as_bool) == Some(true))
        .expect("parallel fragment in JSON");
    let decided = !rescued_json
        .get("stages")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty()
        || rescued_json.get("exact_test") != Some(&Json::Null);
    assert!(decided);
}

/// The exact USR test at every observer level: counted at `metrics`,
/// a `run.exact` span under `run.loop` at `trace`, and explained with
/// its units, its memo hit and one `test : loop` line per fragment and
/// per loop.
#[test]
fn exact_test_is_counted_spanned_and_explained() {
    for level in [ObsLevel::Metrics, ObsLevel::Trace] {
        let session = Session::builder().nthreads(2).observer(level).build();
        let p = lip_suite::HOIST_INDIRECT.prepared(256);
        let loaded = session.load(p.machine.program().clone());
        let handle = loaded.prepare(sym(p.sub), p.label).expect("loop");
        // Twice on the same inputs (fresh buffers): a miss, then a hit.
        let units: Vec<u64> = (0..2)
            .map(|_| {
                let mut frame = lip_suite::HOIST_INDIRECT.prepared(256).frame;
                handle.run(&mut frame).expect("runs").test_units
            })
            .collect();
        assert_eq!(units[0], units[1], "a memo hit is charged like a miss");

        let m = session.metrics();
        assert_eq!(m.counter("run.exact_evals"), Some(1), "{level}");
        assert_eq!(m.counter("run.exact_memo_hits"), Some(1), "{level}");
        let exact_units = m.counter("run.exact_units").expect("units counted");
        assert!(exact_units > 0 && exact_units.is_multiple_of(2));
        assert!(exact_units < m.counter("run.test_units").expect("test units"));

        if level != ObsLevel::Trace {
            assert!(session.explain("do20").is_none());
            continue;
        }
        fn has_child(node: &lip_obs::profile::TreeNode, parent: &str, child: &str) -> bool {
            (node.name == parent && node.children.iter().any(|c| c.name == child))
                || node.children.iter().any(|c| has_child(c, parent, child))
        }
        let profile = session.profile();
        assert!(
            profile
                .roots
                .iter()
                .any(|r| has_child(r, "run.loop", "run.exact")),
            "run.exact must fold under run.loop:\n{}",
            profile.render_text()
        );
        let d = session.explain_decision("do20").expect("decision");
        let rescued = &d.fission.as_ref().expect("fissioned").fragments[0];
        assert_eq!(rescued.exact_test, Some(true));
        assert_eq!(rescued.exact_units, exact_units / 2);
        assert!(
            rescued.exact_memo_hit,
            "the second run is the one on record"
        );
        assert!(rescued.test_units > rescued.exact_units, "cascade + exact");
        let text = d.render_text();
        assert!(
            text.contains(&format!(
                "exact USR test: independent ({} units, memo hit)",
                rescued.exact_units
            )),
            "{text}"
        );
        assert_eq!(text.matches("test : loop = ").count(), 3, "{text}");
        assert!(text.contains(&format!(
            "  test : loop = {} : {} units",
            d.test_units, d.loop_units
        )));
    }
}

/// The dispatch counters come from one helper whatever path ran the
/// loop: a sequential fallback (forced here by overriding the class)
/// must report its reduction superinstructions like a parallel run.
#[test]
fn sequential_fallback_reports_reduction_dispatches_at_trace_level() {
    let dispatches = |class: Option<lip_analysis::LoopClass>| {
        let session = traced_session(2);
        let mut p = lip_suite::INDEX_REDUCTION.prepared(256);
        let loaded = session.load(p.machine.program().clone());
        let (sub, label) = (sym(p.sub), p.label);
        let mut analysis = session
            .analyze(loaded.program(), sub, label)
            .expect("analysis");
        if let Some(class) = class {
            analysis.class = class;
        }
        let handle = loaded.prepare_analyzed(sub, label, Rc::new(analysis));
        let stats = handle.expect("loop").run(&mut p.frame).expect("runs");
        let m = session.metrics();
        let count = |name: &str| m.counter(name).unwrap_or(0);
        let counts = [count("vm.ops"), count("vm.fused_ops"), count("vm.red_ops")];
        (stats.outcome, counts, format!("{m:?}"))
    };
    let (outcome, [ops, fused, red], m) =
        dispatches(Some(lip_analysis::LoopClass::StaticSequential));
    assert_eq!(outcome, lip_runtime::ExecOutcome::Sequential);
    assert!(red > 0, "vm.red_ops missing: {m}");
    assert!(fused >= red);
    assert!(ops >= fused);
    let (outcome, parallel, _) = dispatches(None);
    assert_eq!(outcome, lip_runtime::ExecOutcome::StaticParallel);
    assert_eq!(
        [ops, fused, red],
        parallel,
        "the sequential run's dispatches"
    );
}
