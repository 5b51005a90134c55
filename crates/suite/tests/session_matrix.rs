//! Every suite kernel, and the hand-written rows below, through
//! `lip_suite::check`: a session's run of each loop must be the
//! sequential loop — store, units, access multiset, outcome — under
//! every configuration a session can differ in (fission on/off, the
//! observer level, the chunk count), also from concurrent sessions in
//! one process. The measurement table built on the same runs
//! (per-iteration costs, verdicts, charged test units) must not depend
//! on the configuration either, but for the fission knob, which decides
//! whether production runs `hoist_indirect`'s exact test. The cascade's pass, fail and exact rows
//! are `pred_backend.rs`'s.

mod common;

use common::{check_source, matrix, session};
use lip_ir::{ExecState, Stmt, Store, Value};
use lip_obs::ObsLevel;
use lip_runtime::{ExecOutcome, LrpdOutcome, Route, SeqReason, Session};
use lip_suite::check;
use lip_suite::{measure_loop, KernelShape, LoopMeasurement};
use lip_symbolic::sym;

#[test]
fn all_session_combinations_match_the_oracle_in_one_process() {
    for (fission, obs, nthreads) in matrix() {
        let sess = session(fission, obs, nthreads);
        for shape in lip_suite::all_shapes() {
            check::kernel(&sess, &shape.prepared(64)).assert_sequential();
        }
    }
}

/// `tls_feedback`'s loop speculates. On the kernel's own input every
/// iteration reads what the next one writes, and the attempt aborts; on
/// `W(i) = 2i + 1` no two iterations meet, and it commits. A committed
/// attempt is the run: its accesses are the loop's. The same loop with
/// scalars the caller sees afterwards — an affine `K`, which each chunk
/// must start where the sequential loop has it, the privatized `pos`,
/// and the sum `S` — leaves them as the sequential loop does; so does
/// the loop with `K` counted under a condition, a CIV, which each chunk
/// must start from its trace.
#[test]
fn speculation_commits_and_aborts_like_the_sequential_loop() {
    let with_civ = "
SUBROUTINE t(A, B, W, K, N)
  DIMENSION A(*), B(*), W(*)
  INTEGER i, N, K, pos
  DO l1 i = 1, N
    IF (B(i) .GT. 0.0) K = K + 1
    pos = INT(W(i))
    A(pos) = A(pos + 1) * 0.5 + K
  ENDDO
END
";
    let with_scalars = "
SUBROUTINE t(A, W, K, N)
  DIMENSION A(*), W(*)
  INTEGER i, N, K, pos
  DO l1 i = 1, N
    K = K + 1
    pos = INT(W(i))
    A(pos) = A(pos + 1) * 0.5 + K
    S = S + W(i)
  ENDDO
END
";
    let n = 64;
    let commit = {
        let mut p = lip_suite::TLS_FEEDBACK.prepared(n);
        p.frame.alloc_real(sym("A"), 2 * n + 4);
        let w = &p.frame.array(sym("W")).expect("W").buf;
        (0..n).for_each(|i| w.set(i, Value::Real((2 * i + 1) as f64)));
        p
    };
    let abort = lip_suite::TLS_FEEDBACK.prepared(n);
    for (fission, obs, nthreads) in matrix() {
        let sess = session(fission, obs, nthreads);
        for (p, want) in [
            (&abort, LrpdOutcome::Aborted),
            (&commit, LrpdOutcome::Committed),
        ] {
            let mut input = p.frame.clone();
            input.set_int(sym("K"), 0).set_int(sym("pos"), 0);
            input.set_scalar(sym("S"), Value::Real(0.25));
            let b = input.alloc_real(sym("B"), n);
            (0..n).for_each(|k| b.set(k, Value::Real(if k % 3 == 0 { 1.0 } else { -1.0 })));
            let reports = [
                check::kernel(&sess, p),
                check_source(&sess, with_scalars, "l1", &input),
                check_source(&sess, with_civ, "l1", &input),
            ];
            for report in reports {
                report.assert_sequential();
                assert_eq!(report.stats.outcome, ExecOutcome::Speculated(want.clone()));
            }
        }
    }
}

/// A loop most superinstructions fire in, per iteration: indexed
/// read-modify-writes with constant and scalar operands, a scalar
/// reduction, an inner loop and a conditional. Fusion folds `Charge`
/// ops into them, so what is charged is what it must not change.
#[test]
fn a_loop_the_peephole_pass_fuses_throughout_matches_the_oracle() {
    let mut input = Store::new();
    input.set_int(sym("N"), 64).set_int(sym("M"), 4);
    input.set_scalar(sym("x"), Value::Real(1.5));
    input.set_scalar(sym("s"), Value::Real(0.0));
    let a = input.alloc_real(sym("A"), 64);
    (0..64).for_each(|i| a.set(i, Value::Real(i as f64)));
    input.alloc_real(sym("W"), 4);
    let src = "
SUBROUTINE t(A, W, N, M)
  DIMENSION A(*), W(*)
  INTEGER i, j, N, M
  s = 0.0
  DO l1 i = 1, N
    A(i) = A(i) + 0.5
    A(i) = A(i) * x
    DO j = 1, M
      W(j) = A(i) * 0.25 + j
    ENDDO
    IF (A(i) .GT. 2.0) THEN
      s = s + A(i)
    ENDIF
  ENDDO
END
";
    for (fission, obs, nthreads) in matrix() {
        let report = check_source(&session(fission, obs, nthreads), src, "l1", &input);
        report.assert_sequential();
        assert_eq!(report.stats.outcome, ExecOutcome::StaticParallel);
    }
}

/// Scalars a loop carries or leaves behind: an affine induction
/// variable read in the body (each chunk must start where the
/// sequential loop has it), a `REAL` carried from one iteration into
/// the next (its trace must not truncate it), a privatized scalar the
/// caller sees afterwards (the last iteration's value, restored), one
/// assigned only under a condition that no iteration of the second
/// half meets (the value an iteration of the first half left), and a
/// DO written with its step, `, 1`, which runs in chunks like one
/// without and is charged its step once, as the interpreter charges
/// it. A counter under a condition, a CIV, in a loop from 5: its trace
/// is read at the loop variable's index, by the tests of the first row
/// and by the chunks' seeding of the second, which the analysis proves
/// parallel outright; from 0, no trace is so indexed, and the loop runs
/// sequentially, as the counter's loop with a step of 2 does. A loop
/// its shape sends sequential pays no slice and no test.
#[test]
fn scalars_a_loop_carries_or_leaves_are_the_sequential_ones() {
    let mut input = Store::new();
    input.set_int(sym("N"), 40).set_int(sym("K"), 5);
    input.set_scalar(sym("T"), Value::Real(0.5));
    let a = input.alloc_real(sym("A"), 42);
    (0..42).for_each(|k| a.set(k, Value::Real(k as f64 * 0.75)));
    let b = input.alloc_real(sym("B"), 42);
    (0..42).for_each(|k| b.set(k, Value::Real((20.0 - k as f64) * 0.75)));
    let c = input.alloc_int(sym("C"), 42);
    (0..42).for_each(|k| c.set(k, Value::Int(20 - k as i64)));
    let civ = |cond: &str| format!("IF ({cond}) THEN\n K = K + 1\n A(K) = K\n ENDIF");
    let (tested, proved) = (civ("C(i) .GT. 0"), civ("B(i) .LT. 16.0"));
    let from_zero = civ("C(i + 1) .GT. 0");
    for (bounds, body, chunked) in [
        ("1, N", "K = K + 2\n    A(i) = K", true),
        ("1, N", "A(i) = T\n    T = B(i)", true),
        ("1, N", "T = B(i) + 1.0\n    A(i) = T", true),
        (
            "1, N",
            "A(i) = B(i) * 2.0\n    IF (B(i) .GT. 0) T = B(i)",
            true,
        ),
        ("5, N", &tested, true),
        ("5, N", &proved, true),
        ("0, N", &from_zero, false),
        ("1, N, 1", "A(i) = B(i) * 2.0 + 1.0", true),
        ("1, INT(B(1))", "A(i) = B(i) * 2.0 + 1.0", true),
        ("1, INT(B(1))", "A(i + 1) = A(i) + B(i)", false),
        ("2, INT(B(1))", &proved, true),
        (
            "1, N, 2",
            "IF (B(i) .GT. 0.0) THEN\n K = K + 1\n A(K) = B(i)\n ENDIF",
            false,
        ),
    ] {
        let src = format!(
            "
SUBROUTINE t(A, B, C, T, K, N)
  DIMENSION A(*), B(*)
  INTEGER C(*)
  INTEGER i, N, K
  DO l1 i = {bounds}
    {body}
  ENDDO
END
"
        );
        for (fission, obs, nthreads) in matrix() {
            let report = check_source(&session(fission, obs, nthreads), &src, "l1", &input);
            report.assert_sequential();
            let sequential = report.stats.outcome == ExecOutcome::Sequential;
            assert_eq!(sequential, !chunked, "{bounds}: {body}");
            let plan = &report.stats.plan;
            if let Route::Sequential(SeqReason::Step | SeqReason::Traces) = plan.route {
                assert_eq!(report.stats.test_units, 0, "{bounds}: {body}");
            }
            if *body == tested {
                assert!(plan.units.stages.is_some(), "{bounds}: {body} is tested");
            }
        }
    }
}

/// A counter under a condition, a CIV, addressing a write after the
/// condition: each value of `K` has an element of its own, so the last
/// iteration's write does not cover the loop's, and `A` cannot take
/// its last values from the last chunk (a static last value left 8 of
/// 26 elements wrong at two chunks). The same with a step of 2 under
/// the condition, with the write one element on, and as one fragment of
/// a loop from 5 whose scan beside it is sequential, so that fission
/// rescues the counter's half.
#[test]
fn a_civ_addressed_write_after_its_update_has_no_static_last_value() {
    let n = 24;
    let mut input = Store::new();
    input.set_int(sym("N"), n as i64).set_int(sym("K"), 1);
    let a = input.alloc_real(sym("A"), 2 * n + 2);
    (0..2 * n + 2).for_each(|k| a.set(k, Value::Real(0.5)));
    let b = input.alloc_real(sym("B"), n);
    (0..n).for_each(|k| b.set(k, Value::Real(if k % 3 == 2 { -1.0 } else { k as f64 })));
    input.alloc_real(sym("C"), n);
    for (bounds, body) in [
        ("1, N", "IF (B(i) .GT. 0.0) K = K + 1\n    A(K) = B(i)"),
        ("1, N", "IF (B(i) .GT. 0.0) K = K + 2\n    A(K) = B(i)"),
        ("1, N", "IF (B(i) .GT. 0.0) K = K + 1\n    A(K + 1) = B(i)"),
        (
            "5, N",
            "IF (B(i) .GT. 0.0) K = K + 1\n    A(K) = B(i)\n    C(i) = C(i - 1) + B(i)",
        ),
    ] {
        let src = format!(
            "
SUBROUTINE t(A, B, C, K, N)
  DIMENSION A(*), B(*), C(*)
  INTEGER i, N, K
  DO l1 i = {bounds}
    {body}
  ENDDO
END
"
        );
        for (fission, obs, nthreads) in matrix() {
            let report = check_source(&session(fission, obs, nthreads), &src, "l1", &input);
            report.assert_sequential();
        }
    }
}

#[test]
fn observer_execution_is_bit_identical_including_access_streams() {
    // The `metrics` level too, which the matrix leaves out: a level that
    // only counts must not change a run either.
    for (shape, n) in [
        (&lip_suite::OFFSET_CROSSOVER, 128usize),
        (&lip_suite::HOIST_INDIRECT, 64),
    ] {
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Trace] {
            check::kernel(&session(true, level, 1), &shape.prepared(n)).assert_sequential();
        }
    }
}

/// `solvh`'s privatized `XE` has a dynamic last value, so its chunks
/// run under the executor's write-mask tracer, which must forward every
/// access to the tracer the caller installed.
#[test]
fn an_installed_tracer_sees_every_dynamic_last_value_chunk() {
    for nthreads in [1, 2, 3] {
        let report = check::kernel(
            &session(true, ObsLevel::Off, nthreads),
            &lip_suite::SOLVH.prepared(24),
        );
        report.assert_sequential();
        assert!(
            matches!(
                report.stats.outcome,
                ExecOutcome::StaticParallel | ExecOutcome::PredicatePassed { .. }
            ),
            "{report}"
        );
    }
}

#[test]
fn concurrent_executions_produce_identical_frames() {
    // Every configuration at once, from separate threads, sharing the
    // worker pool and nothing else.
    let shape = &lip_suite::OFFSET_CROSSOVER;
    std::thread::scope(|scope| {
        for (f, o, t) in matrix() {
            scope.spawn(move || {
                let report = check::kernel(&session(f, o, t), &shape.prepared(256));
                report.assert_sequential();
                assert!(matches!(
                    report.stats.outcome,
                    ExecOutcome::PredicatePassed { .. }
                ));
            });
        }
    });
}

/// The kernels the measurement table covers: a static-parallel
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

/// One session's rows, with `fission` on or off, checked against the
/// reference: the verdict and the charged test units of each loop
/// without a CIV slice against `check::reference_tests` (less the exact
/// test where production skips it), the per-iteration costs against a
/// loop over `Machine::exec_block`.
fn reference_rows(fission: bool) -> Vec<Row> {
    let sess = session(fission, ObsLevel::Off, 2);
    let rows = measure_all(&sess);
    for ((shape, n), got) in kernels().into_iter().zip(&rows) {
        let mut p = shape.prepared(n);
        let prog = p.machine.program().clone();
        let analysis = sess.analyze(&prog, sym(p.sub), p.label).expect("analysis");
        if analysis.civs.is_empty() {
            let reference = check::reference_tests(&analysis, &p.frame);
            assert_eq!(
                reference.passes,
                shape.name != "hoist_indirect",
                "{}: pick a workload whose cascade passes",
                shape.name
            );
            assert_eq!(got.2, reference.passes, "{}: verdict diverged", shape.name);
            // With fission on, `hoist_indirect`'s plan holds a
            // statically sequential fragment, so the loop is
            // distributed without the exact test, and the table charges
            // what production charges.
            let skipped = reference
                .exact
                .filter(|_| fission && shape.name == "hoist_indirect");
            let charged = reference.units - skipped.map_or(0, |e| e.units);
            assert_eq!(got.5, charged, "{}: charged test units", shape.name);
        }
        let sub = prog.subroutine(sym(p.sub)).expect("sub");
        let Some(Stmt::Do {
            var, lo, hi, body, ..
        }) = sub.find_loop(p.label)
        else {
            panic!("{}: not a DO loop", shape.name)
        };
        let mut st = ExecState::default();
        let lo = p.machine.eval(sub, &p.frame, lo, &mut st).expect("lo");
        let hi = p.machine.eval(sub, &p.frame, hi, &mut st).expect("hi");
        let per_iter: Vec<u64> = (lo.as_i64()..=hi.as_i64())
            .map(|i| {
                p.frame.set_scalar(*var, Value::Int(i));
                let before = st.cost;
                p.machine
                    .exec_block(sub, &mut p.frame, body, &mut st)
                    .expect("oracle iteration");
                st.cost - before
            })
            .collect();
        assert_eq!(got.4, per_iter, "{}: per-iteration costs", shape.name);
    }
    rows
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

/// The table follows production, and production skips
/// `hoist_indirect`'s exact test only when it may distribute the loop,
/// so each combination is held to the reference rows of its fission
/// setting.
#[test]
fn concurrent_sessions_with_different_seams_are_bit_identical() {
    let reference = [reference_rows(false), reference_rows(true)];

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

    for (k, ((fission, ..), conc)) in matrix().into_iter().zip(&concurrent).enumerate() {
        assert_eq!(
            &reference[usize::from(fission)],
            conc,
            "combination {k} diverged under concurrency"
        );
    }
}
