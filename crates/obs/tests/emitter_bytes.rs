//! The JSON the `lip_obs` emitters write, byte for byte. They were
//! hand-`format!`ed strings until `lip_obs::json::Writer`; the bytes
//! pinned here were captured from those (commit 90826ed), so the three
//! `to_json`s kept theirs. The Chrome trace export did not, on purpose:
//! its events used to be separated by `",\n"` and are now separated like
//! everything else, by `", "`. A decision has since gained its plan's
//! three members (`sequential_reason`, `arrays`, `test_units_by`), on a
//! loop and on each fragment; every other byte is as captured.

use lip_obs::{
    FissionReport, FragmentReport, LoopDecision, MetricsSnapshot, Obs, ObsLevel, PlanReport,
    ProfileReport, StageReport, TestUnits, TraceEvent, TraceKind, WORKER_LANE_BASE,
};

fn stage(index: usize, complexity: u32, verdict: Option<bool>) -> StageReport {
    StageReport {
        index,
        complexity,
        cost_units: 10 * index as u64 + 7,
        predicate: Some("M >= \"N\"".to_owned()),
        verdict,
    }
}

fn events() -> Vec<TraceEvent> {
    let ev = |at_ns, tid, depth, kind, name: &str, detail: &str| TraceEvent {
        at_ns,
        tid,
        depth,
        kind,
        name: name.to_owned(),
        detail: detail.to_owned(),
    };
    vec![
        ev(0, 1, 0, TraceKind::Enter, "run.loop", "do \"1\""),
        ev(1_500, 1, 1, TraceKind::Event, "pool.fork", "2 chunks"),
        ev(
            2_000,
            WORKER_LANE_BASE,
            0,
            TraceKind::Enter,
            "pool.chunk",
            "",
        ),
        ev(
            9_040,
            WORKER_LANE_BASE,
            0,
            TraceKind::Exit,
            "pool.chunk",
            "ok",
        ),
        ev(12_345_678, 1, 0, TraceKind::Exit, "run.loop", "parallel\n"),
    ]
}

#[test]
fn the_three_to_jsons_keep_their_bytes() {
    let mut d = LoopDecision::new("do1");
    d.kernel = Some("hoist \"indirect\"".to_owned());
    d.class = "Predicated".to_owned();
    d.stages = vec![stage(0, 0, Some(false)), stage(1, 1, None)];
    d.exact_test = Some(false);
    d.exact_units = 8822;
    d.fission = Some(FissionReport {
        fragments: vec![
            FragmentReport {
                label: "do1~f0".to_owned(),
                class: "StaticParallel".to_owned(),
                parallel: true,
                units: 104,
                test_units: 0,
                stages: Vec::new(),
                exact_test: None,
                exact_units: 0,
                exact_memo_hit: false,
                plan: PlanReport {
                    arrays: vec![("A".to_owned(), "shared".to_owned())],
                    ..PlanReport::default()
                },
            },
            FragmentReport {
                label: "do1~f1".to_owned(),
                class: "Predicated".to_owned(),
                parallel: false,
                units: 107,
                test_units: 623,
                stages: vec![stage(0, 2, Some(true))],
                exact_test: Some(true),
                exact_units: 40,
                exact_memo_hit: true,
                plan: PlanReport {
                    sequential_reason: Some("its tests failed".to_owned()),
                    arrays: Vec::new(),
                    units: TestUnits {
                        slice: Some(576),
                        stages: Some(7),
                        exact: Some(40),
                        fragments: 0,
                    },
                },
            },
        ],
        rescued_units: 104,
        loop_units: 211,
    });
    d.plan.units = TestUnits {
        slice: None,
        stages: Some(24),
        exact: None,
        fragments: 623,
    };
    d.executor = "fissioned".to_owned();
    d.test_units = 623;
    d.loop_units = 211;
    assert_eq!(
        d.to_json(),
        "{\"label\": \"do1\", \"kernel\": \"hoist \\\"indirect\\\"\", \"class\": \"Predicated\", \"stages\": [{\"index\": 0, \"complexity\": 0, \"cost_units\": 7, \"verdict\": \"fail\"}, {\"index\": 1, \"complexity\": 1, \"cost_units\": 17, \"verdict\": null}], \"passed_stage\": null, \"exact_test\": \"dependent\", \"exact_units\": 8822, \"exact_memo\": \"miss\", \"sequential_reason\": null, \"arrays\": [], \"test_units_by\": {\"slice\": null, \"stages\": 24, \"exact\": null, \"fragments\": 623}, \"fission\": {\"fragments\": 2, \"parallel_fragments\": 1, \"rescued_units\": 104, \"loop_units\": 211, \"rescued_fraction\": 0.493, \"per_fragment\": [{\"label\": \"do1~f0\", \"class\": \"StaticParallel\", \"parallel\": true, \"units\": 104, \"test_units\": 0, \"share\": 0.493, \"stages\": [], \"exact_test\": null, \"exact_units\": 0, \"exact_memo\": null, \"sequential_reason\": null, \"arrays\": [{\"array\": \"A\", \"treatment\": \"shared\"}], \"test_units_by\": {\"slice\": null, \"stages\": null, \"exact\": null, \"fragments\": 0}}, {\"label\": \"do1~f1\", \"class\": \"Predicated\", \"parallel\": false, \"units\": 107, \"test_units\": 623, \"share\": 0.507, \"stages\": [{\"index\": 0, \"complexity\": 2, \"cost_units\": 7, \"verdict\": \"pass\"}], \"exact_test\": \"independent\", \"exact_units\": 40, \"exact_memo\": \"hit\", \"sequential_reason\": \"its tests failed\", \"arrays\": [], \"test_units_by\": {\"slice\": 576, \"stages\": 7, \"exact\": 40, \"fragments\": 0}}]}, \"executor\": \"fissioned\", \"test_units\": 623, \"loop_units\": 211}"
    );
    let mut plain = LoopDecision::new("l");
    plain.passed_stage = Some(3);
    assert_eq!(
        plain.to_json(),
        "{\"label\": \"l\", \"kernel\": null, \"class\": \"\", \"stages\": [], \"passed_stage\": 3, \"exact_test\": null, \"exact_units\": 0, \"exact_memo\": null, \"sequential_reason\": null, \"arrays\": [], \"test_units_by\": {\"slice\": null, \"stages\": null, \"exact\": null, \"fragments\": 0}, \"fission\": null, \"executor\": \"\", \"test_units\": 0, \"loop_units\": 0}"
    );

    let obs = Obs::with_level(ObsLevel::Metrics);
    obs.count("server.requests", 3);
    obs.count("a \"quoted\" name", u64::MAX);
    obs.record_ns("serve.request_ns", 1_000);
    obs.record_ns("serve.request_ns", 1_000_000);
    obs.record_ns("empty\tname", 0);
    assert_eq!(
        obs.snapshot().to_json(),
        "{\"counters\": {\"a \\\"quoted\\\" name\": 18446744073709551615, \"server.requests\": 3}, \"histograms\": [{\"name\": \"empty\\tname\", \"count\": 1, \"sum_ns\": 0, \"buckets\": [{\"le_ns\": 1, \"count\": 1}]}, {\"name\": \"serve.request_ns\", \"count\": 2, \"sum_ns\": 1001000, \"buckets\": [{\"le_ns\": 1024, \"count\": 1}, {\"le_ns\": 1048576, \"count\": 1}]}]}"
    );
    assert_eq!(
        MetricsSnapshot::default().to_json(),
        "{\"counters\": {}, \"histograms\": []}"
    );

    assert_eq!(
        ProfileReport::from_events(&events()).to_json(),
        "{\"wall_ns\": 12345678, \"lanes\": 2, \"flat\": [{\"name\": \"run.loop\", \"count\": 1, \"total_ns\": 12345678, \"self_ns\": 12345678}, {\"name\": \"pool.chunk\", \"count\": 1, \"total_ns\": 7040, \"self_ns\": 7040}], \"tree\": [{\"name\": \"pool.chunk\", \"count\": 1, \"total_ns\": 7040, \"children\": []}, {\"name\": \"run.loop\", \"count\": 1, \"total_ns\": 12345678, \"children\": []}]}"
    );
}

#[test]
fn the_chrome_trace_keeps_its_events_and_changes_its_separator() {
    let before = "{\"traceEvents\": [{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"thread 1\"}},\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 4294967296, \"args\": {\"name\": \"worker 0\"}},\n{\"ph\": \"B\", \"name\": \"run.loop\", \"cat\": \"lip\", \"pid\": 1, \"tid\": 1, \"ts\": 0.000, \"args\": {\"detail\": \"do \\\"1\\\"\"}},\n{\"ph\": \"i\", \"s\": \"t\", \"name\": \"pool.fork\", \"cat\": \"lip\", \"pid\": 1, \"tid\": 1, \"ts\": 1.500, \"args\": {\"detail\": \"2 chunks\"}},\n{\"ph\": \"B\", \"name\": \"pool.chunk\", \"cat\": \"lip\", \"pid\": 1, \"tid\": 4294967296, \"ts\": 2.000},\n{\"ph\": \"E\", \"name\": \"pool.chunk\", \"cat\": \"lip\", \"pid\": 1, \"tid\": 4294967296, \"ts\": 9.040, \"args\": {\"outcome\": \"ok\"}},\n{\"ph\": \"E\", \"name\": \"run.loop\", \"cat\": \"lip\", \"pid\": 1, \"tid\": 1, \"ts\": 12345.678, \"args\": {\"outcome\": \"parallel\\n\"}}]}";
    assert_eq!(
        lip_obs::trace_chrome_json(&events()),
        before.replace(",\n", ", ")
    );
}
