//! `LoopHandle::run` against the `Machine`-taking `Session::run_loop`
//! compat wrapper on every suite kernel: one driver behind two entry
//! points, so outcome, test units, loop units and the final store must
//! be bit-identical — which keeps the wrapper from drifting until the
//! `benchmark` PR that deletes it.

use lip_ir::{Store, Value};
use lip_runtime::{ExecOutcome, LrpdOutcome, RunStats, Session};
use lip_symbolic::sym;

const N: usize = 64;

/// Every scalar and array element of `frame`, as bits, in name order.
fn bits(frame: &Store) -> Vec<(String, Vec<u64>)> {
    let bits = |v: Value| match v {
        Value::Int(i) => i as u64,
        Value::Real(r) => r.to_bits(),
    };
    let mut out: Vec<(String, Vec<u64>)> = frame
        .scalars()
        .map(|(s, v)| (s.name(), vec![bits(v)]))
        .chain(frame.arrays().map(|(s, view)| {
            let elems = (0..view.buf.len()).map(|k| bits(view.buf.get(k))).collect();
            (s.name(), elems)
        }))
        .collect();
    out.sort();
    out
}

#[test]
fn handle_run_is_bit_identical_to_the_compat_run_loop() {
    for nthreads in [1, 2] {
        for shape in lip_suite::all_shapes() {
            let name = shape.name;
            let via_handle = {
                let mut p = shape.prepared(N);
                let stats = Session::builder()
                    .nthreads(nthreads)
                    .build()
                    .load(p.machine.program().clone())
                    .prepare(sym(p.sub), p.label)
                    .expect("loop")
                    .run(&mut p.frame);
                (stats, bits(&p.frame))
            };
            let via_compat = {
                let mut p = shape.prepared(N);
                let session = Session::builder().nthreads(nthreads).build();
                let prog = p.machine.program();
                let sub = prog.subroutine(sym(p.sub)).expect("sub");
                let target = sub.find_loop(p.label).expect("loop");
                let analysis = session.analyze(prog, sub.name, p.label).expect("analysis");
                let stats = session.run_loop(&p.machine, sub, target, &analysis, &mut p.frame);
                (stats, bits(&p.frame))
            };
            let unwrap = |r: Result<RunStats, _>| r.map_err(|e: lip_ir::RunError| e.to_string());
            match (unwrap(via_handle.0), unwrap(via_compat.0)) {
                (Ok(h), Ok(c)) => {
                    assert_eq!(h.outcome, c.outcome, "{name} at {nthreads}");
                    assert_eq!(h.test_units, c.test_units, "{name} at {nthreads}");
                    // An aborted speculation's units depend on where the
                    // chunks stopped, which the schedule decides.
                    let aborted = h.outcome == ExecOutcome::Speculated(LrpdOutcome::Aborted);
                    if nthreads == 1 || !aborted {
                        assert_eq!(h.loop_units, c.loop_units, "{name} at {nthreads}");
                    }
                }
                (h, c) => assert_eq!(h.err(), c.err(), "{name} at {nthreads}"),
            }
            assert!(
                via_handle.1 == via_compat.1,
                "{name} at {nthreads}: final stores differ"
            );
        }
    }
}
