//! Production sessions against the reference semantics, in one
//! process. A session runs one execution path (fused bytecode,
//! compiled predicates); what it can still be configured with —
//! fission on/off, the observer level, the chunk count — must be
//! observationally inert: every combination measures the same table
//! rows, and those rows are what the tree-walking `lip_ir::Machine`
//! (per-iteration costs, outputs, work units) and `Pdag::eval`
//! (cascade verdict, charged test units) give for the same kernel —
//! including when the sessions run concurrently from separate threads.
//! On the kernels below the whole-loop verdict already decides
//! execution, so the fission knob must be inert too
//! (fissioned-vs-sequential equivalence on rescued kernels lives in
//! `fission_differential.rs`).

use std::sync::{Arc, Mutex};

use lip_analysis::LoopClass;
use lip_ir::{ExecState, Stmt, StoreCtx, Value};
use lip_obs::ObsLevel;
use lip_runtime::{ExecOutcome, Session, TEST_BUDGET};
use lip_suite::{measure_loop, KernelShape, LoopMeasurement};
use lip_symbolic::{sym, Sym};

/// Every configuration a session can differ in: `fission {on, off} ×
/// observer {off, metrics, trace} × nthreads {1, 2, 3, 7}` (one chunk,
/// an even split, uneven splits, more chunks than CPUs).
fn matrix() -> Vec<(bool, ObsLevel, usize)> {
    let mut m = Vec::new();
    for fission in [true, false] {
        for obs in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Trace] {
            for nthreads in [1, 2, 3, 7] {
                m.push((fission, obs, nthreads));
            }
        }
    }
    m
}

fn session(fission: bool, obs: ObsLevel, nthreads: usize) -> Session {
    Session::builder()
        .fission(fission)
        .observer(obs)
        .nthreads(nthreads)
        .par_min(64) // small threshold so the parallel predicate path runs
        .build()
}

/// The kernels the differential sweep measures: a static-parallel
/// stencil, O(1)/O(N) predicated loops, an interprocedural kernel, an
/// index reduction, a CIV compaction, and a loop whose cascade fails
/// into the exact test (which finds it dependent).
fn kernels() -> Vec<(&'static KernelShape, usize)> {
    vec![
        (&lip_suite::STENCIL, 96),
        (&lip_suite::OFFSET_CROSSOVER, 96),
        (&lip_suite::MONOTONE_WINDOWS, 48),
        (&lip_suite::SOLVH, 24),
        (&lip_suite::INDEX_REDUCTION, 64),
        (&lip_suite::CIV_CONDITIONAL, 64),
        (&lip_suite::HOIST_INDIRECT, 48),
    ]
}

/// The observable table row of one measurement (everything Tables 1–3
/// derive from).
type Row = (String, String, bool, bool, Vec<u64>, u64);

fn row(m: &LoopMeasurement) -> Row {
    (
        format!("{}_{} {:?}", m.shape, m.label, m.class),
        m.techniques.clone(),
        m.parallel,
        m.baseline_parallel,
        m.per_iter.clone(),
        m.test_units,
    )
}

fn measure_all(session: &Session) -> Vec<Row> {
    kernels()
        .into_iter()
        .map(|(shape, n)| row(&measure_loop(session, shape, n, 0.3, "-")))
        .collect()
}

/// One session's rows, checked against the reference semantics:
/// per-iteration costs from a loop over `Machine::exec_block`, the
/// cascade verdict and charge from `Pdag::eval`, plus the exact test's
/// own count where a cascade fails. (The CIV kernel's
/// test units add the slice's cost; `crates/vm/tests/differential.rs`
/// pins that against an interpreter-run slice on every kernel.)
fn oracle_checked_rows() -> Vec<Row> {
    let sess = session(true, ObsLevel::Off, 2);
    let rows = measure_all(&sess);
    for ((shape, n), got) in kernels().into_iter().zip(&rows) {
        let mut p = shape.prepared(n);
        let prog = p.machine.program().clone();
        let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
        let target = sub.find_loop(p.label).expect("loop").clone();
        let analysis = sess.analyze(&prog, sub.name, p.label).expect("analysis");

        if analysis.civs.is_empty() {
            let ctx = StoreCtx(&p.frame);
            let (passes, units) = match analysis.class {
                LoopClass::Predicated { .. } => {
                    let hit = analysis.cascade.first_success(&ctx, TEST_BUDGET);
                    let evaluated = hit.map_or(analysis.cascade.stages.len(), |k| k + 1);
                    let units: u64 = analysis.cascade.stages[..evaluated]
                        .iter()
                        .map(|stage| stage.pred.eval_cost(&ctx))
                        .sum();
                    // A failed cascade falls into the exact test,
                    // charged what it counts.
                    match (hit, &analysis.ind_usr) {
                        (None, Some(u)) => {
                            let exact = lip_usr::exact::independent(u, &ctx, TEST_BUDGET);
                            (exact.verdict == Some(true), units + exact.units)
                        }
                        _ => (hit.is_some(), units),
                    }
                }
                _ => (true, 0),
            };
            assert_eq!(
                passes,
                shape.name != "hoist_indirect",
                "{}: pick a workload whose cascade passes",
                shape.name
            );
            assert_eq!(got.2, passes, "{}: verdict diverged", shape.name);
            assert_eq!(got.5, units, "{}: charged test units", shape.name);
        }

        let Stmt::Do {
            var, lo, hi, body, ..
        } = &target
        else {
            panic!("{}: not a DO loop", shape.name)
        };
        let mut st = ExecState::default();
        let lo = p.machine.eval(&sub, &p.frame, lo, &mut st).expect("lo");
        let hi = p.machine.eval(&sub, &p.frame, hi, &mut st).expect("hi");
        let per_iter: Vec<u64> = (lo.as_i64()..=hi.as_i64())
            .map(|i| {
                p.frame.set_scalar(*var, Value::Int(i));
                let before = st.cost;
                p.machine
                    .exec_block(&sub, &mut p.frame, body, &mut st)
                    .expect("oracle iteration");
                st.cost - before
            })
            .collect();
        assert_eq!(got.4, per_iter, "{}: per-iteration costs", shape.name);
    }
    rows
}

#[test]
fn all_session_combinations_match_the_oracle_in_one_process() {
    let reference = oracle_checked_rows();
    for (fission, obs, nthreads) in matrix() {
        let got = measure_all(&session(fission, obs, nthreads));
        assert_eq!(
            reference, got,
            "tables diverged under (fission={fission}, {obs}, nthreads={nthreads})"
        );
    }
}

#[test]
fn observer_legs_measure_identically() {
    let off = measure_all(&session(true, ObsLevel::Off, 2));
    for level in [ObsLevel::Metrics, ObsLevel::Trace] {
        let sess = session(true, level, 2);
        let got = measure_all(&sess);
        assert_eq!(off, got, "tables diverged under observer level {level}");
        // The observer must actually have observed — identical tables
        // with empty metrics would mean the level is silently off.
        let counted = sess.metrics().counter("pred.evals").unwrap_or(0);
        assert!(counted > 0, "no predicate evaluations counted at {level}");
    }
}

/// Records every traced access, in order.
#[derive(Default)]
struct AccessLog {
    events: Mutex<Vec<(char, Sym, usize)>>,
}

impl lip_ir::AccessTracer for AccessLog {
    fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('r', arr, idx));
    }
    fn write(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('w', arr, idx));
    }
}

#[test]
fn observer_execution_is_bit_identical_including_access_streams() {
    // Actually *execute* a predicated loop and a fission-rescued loop
    // under each observer level with an access tracer installed:
    // outcome, work units, final array state and the exact traced
    // access stream must match the off leg. Single-threaded so the
    // stream order is deterministic.
    for (shape, n) in [
        (&lip_suite::OFFSET_CROSSOVER, 128usize),
        (&lip_suite::HOIST_INDIRECT, 64),
    ] {
        let run = |level: ObsLevel| {
            let sess = session(true, level, 1);
            let mut p = shape.prepared(n);
            let prog = p.machine.program().clone();
            let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
            let target = sub.find_loop(p.label).expect("loop").clone();
            let analysis = sess.analyze(&prog, sub.name, p.label).expect("analysis");
            let log = Arc::new(AccessLog::default());
            let traced = p.machine.with_tracer(log.clone());
            let stats = sess
                .run_loop(&traced, &sub, &target, &analysis, &mut p.frame)
                .expect("runs");
            let a = p.frame.array(sym("A")).expect("A");
            let snapshot: Vec<u64> = (0..a.buf.len()).map(|i| a.get_f64(i).to_bits()).collect();
            let events = log.events.lock().unwrap().clone();
            (
                format!("{:?}", stats.outcome),
                stats.test_units,
                stats.loop_units,
                snapshot,
                events,
            )
        };
        let reference = run(ObsLevel::Off);
        for level in [ObsLevel::Metrics, ObsLevel::Trace] {
            assert_eq!(
                reference,
                run(level),
                "{}: execution diverged under observer level {level}",
                shape.name
            );
        }
    }
}

/// `solvh`'s privatized `XE` has a dynamic last value, so its chunks
/// run under the executor's write-mask tracer, which forwards every
/// access to the tracer the caller installed. At one chunk the
/// session's stream is the interpreter's, access for access; at more
/// chunks it holds the same accesses in another order.
#[test]
fn an_installed_tracer_sees_every_dynamic_last_value_chunk() {
    let shape = &lip_suite::SOLVH;
    let n = 24;
    let mut p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let log = Arc::new(AccessLog::default());
    p.machine
        .with_tracer(log.clone())
        .exec_stmt(&sub, &mut p.frame, &target, &mut ExecState::default())
        .expect("oracle runs");
    let mut want = log.events.lock().unwrap().clone();
    assert!(want.iter().any(|&(rw, a, _)| rw == 'w' && a == sym("XE")));
    for nthreads in [1, 2, 3] {
        let sess = session(true, ObsLevel::Off, nthreads);
        let mut p = shape.prepared(n);
        let analysis = sess.analyze(&prog, sub.name, p.label).expect("analysis");
        let log = Arc::new(AccessLog::default());
        let traced = p.machine.with_tracer(log.clone());
        let stats = sess
            .run_loop(&traced, &sub, &target, &analysis, &mut p.frame)
            .expect("runs");
        assert!(
            matches!(
                stats.outcome,
                ExecOutcome::StaticParallel | ExecOutcome::PredicatePassed { .. }
            ),
            "{:?} at nthreads = {nthreads}",
            stats.outcome
        );
        let mut got = log.events.lock().unwrap().clone();
        if nthreads > 1 {
            got.sort_unstable();
            want.sort_unstable();
        }
        assert!(
            got == want,
            "access stream diverged at nthreads = {nthreads}"
        );
    }
}

#[test]
fn concurrent_sessions_with_different_seams_are_bit_identical() {
    let reference = oracle_checked_rows();

    // Every combination measuring the same kernels at the same time
    // from separate threads — differently configured callers in one
    // process, sharing the worker pool and nothing else.
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = matrix()
            .into_iter()
            .map(|(f, o, t)| scope.spawn(move || measure_all(&session(f, o, t))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement thread panicked"))
            .collect()
    });

    for (k, conc) in concurrent.iter().enumerate() {
        assert_eq!(
            &reference, conc,
            "combination {k} diverged under concurrency"
        );
    }
}

#[test]
fn concurrent_executions_produce_identical_frames() {
    // Beyond the tables: actually *execute* a predicated loop through
    // run_loop from concurrent sessions and compare the final array
    // state element for element, and the work units, against the loop
    // run sequentially on the interpreter.
    let shape = &lip_suite::OFFSET_CROSSOVER;
    let n = 256usize;
    let snapshot = |frame: &lip_ir::Store| {
        let a = frame.array(sym("A")).expect("A");
        (0..a.buf.len()).map(|i| a.get_f64(i)).collect::<Vec<_>>()
    };
    let mut p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let mut st = ExecState::default();
    p.machine
        .exec_stmt(&sub, &mut p.frame, &target, &mut st)
        .expect("oracle runs");
    // The parallel path does not charge the DO statement's own unit.
    let reference = (st.cost - 1, snapshot(&p.frame));

    let run = |fission: bool, obs: ObsLevel, nthreads: usize| {
        let sess = session(fission, obs, nthreads);
        let mut p = shape.prepared(n);
        let analysis = sess.analyze(&prog, sub.name, p.label).expect("analysis");
        let stats = sess
            .run_loop(&p.machine, &sub, &target, &analysis, &mut p.frame)
            .expect("runs");
        assert!(matches!(stats.outcome, ExecOutcome::PredicatePassed { .. }));
        (stats.loop_units, snapshot(&p.frame))
    };

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = matrix()
            .into_iter()
            .map(|(f, o, t)| scope.spawn(move || run(f, o, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for (k, got) in results.iter().enumerate() {
        assert_eq!(&reference, got, "combination {k} diverged");
    }
}
