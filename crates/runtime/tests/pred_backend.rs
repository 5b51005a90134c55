//! The predicate engine end to end: a session (compiled predicates,
//! bytecode loop) must produce the outcome, charged test units and
//! program state of the reference backends — `Pdag::eval` for the
//! cascade, the tree-walking `lip_ir::Machine` for the loop — across
//! the cascade-pass, cascade-fail and exact-USR-fallback paths, and
//! the session-owned caches must make repeat invocations cheap.

use lip_analysis::{analyze_loop, AnalysisConfig, LoopAnalysis};
use lip_ir::{parse_program, ExecState, Machine, Stmt, Store, StoreCtx, Value};
use lip_runtime::{ExecOutcome, Session, TEST_BUDGET};
use lip_symbolic::sym;

fn setup(src: &str, label: &str) -> (Machine, lip_ir::Subroutine, Stmt, LoopAnalysis) {
    let prog = parse_program(src).expect("parses");
    let sub = prog.units[0].clone();
    let target = sub.find_loop(label).expect("loop").clone();
    let analysis =
        analyze_loop(&prog, sub.name, label, &AnalysisConfig::default()).expect("analyzed");
    (Machine::new(prog), sub, target, analysis)
}

fn session() -> Session {
    Session::builder().nthreads(2).build()
}

const OFFSET_SRC: &str = "
SUBROUTINE t(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO l1 i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";

fn offset_frame(n: i64, m: i64) -> Store {
    let mut frame = Store::new();
    frame.set_int(sym("N"), n).set_int(sym("M"), m);
    let len = (n + n.max(m) + 1) as usize;
    let a = frame.alloc_real(sym("A"), len);
    for i in 0..len {
        a.set(i, Value::Real(i as f64));
    }
    frame
}

/// Runs one analyzed loop through a session and through the oracle
/// (the cascade on `Pdag::eval`, the exact test's own count where the
/// cascade fails, the loop on the interpreter) and asserts stats and
/// final state agree element for element.
fn assert_matches_oracle(
    machine: &Machine,
    sub: &lip_ir::Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    mk_frame: impl Fn() -> Store,
) -> ExecOutcome {
    let mut oracle_frame = mk_frame();
    let ctx = StoreCtx(&oracle_frame);
    let hit = analysis.cascade.first_success(&ctx, TEST_BUDGET);
    let evaluated = hit.map_or(analysis.cascade.stages.len(), |k| k + 1);
    let mut test_units: u64 = analysis.cascade.stages[..evaluated]
        .iter()
        .map(|stage| stage.pred.eval_cost(&ctx))
        .sum();
    // A failed cascade falls into the exact test (one-statement loops:
    // no fission plan pre-empts it), charged what it counts.
    assert!(analysis.fission.is_none());
    if let (None, Some(u)) = (hit, &analysis.ind_usr) {
        test_units += lip_usr::exact::independent(u, &ctx, TEST_BUDGET).units;
    }
    let mut st = ExecState::default();
    machine
        .exec_stmt(sub, &mut oracle_frame, target, &mut st)
        .expect("oracle runs");

    let mut frame = mk_frame();
    let stats = session()
        .load(machine.program().clone())
        .prepare(sub.name, &analysis.label)
        .expect("loop")
        .run(&mut frame)
        .expect("session runs");
    match stats.outcome {
        ExecOutcome::PredicatePassed { stage } => assert_eq!(Some(stage), hit),
        _ => assert_eq!(hit, None, "a stage passed on the oracle"),
    }
    assert_eq!(stats.test_units, test_units, "charged units diverged");
    // The parallel path does not charge the DO statement's own unit.
    let parallel = stats.outcome != ExecOutcome::Sequential;
    assert_eq!(stats.loop_units, st.cost - u64::from(parallel));
    for (name, view) in oracle_frame.arrays() {
        let other = frame.array(name).expect("array bound on both");
        for i in 0..view.buf.len() {
            assert_eq!(
                view.buf.get_f64(i),
                other.buf.get_f64(i),
                "{name}({i}) diverged"
            );
        }
    }
    stats.outcome
}

#[test]
fn predicate_pass_and_fail_agree_across_backends() {
    let (machine, sub, target, analysis) = setup(OFFSET_SRC, "l1");
    // M >= N: the cascade passes.
    let out = assert_matches_oracle(&machine, &sub, &target, &analysis, || {
        offset_frame(400, 400)
    });
    assert!(matches!(out, ExecOutcome::PredicatePassed { .. }));
    // M = 1: the cascade fails, sequential execution.
    let out = assert_matches_oracle(&machine, &sub, &target, &analysis, || offset_frame(400, 1));
    assert_eq!(out, ExecOutcome::Sequential);
}

#[test]
fn exact_usr_fallback_reports_its_own_outcome() {
    // A(P(i)) = A(Q(i)) + 1: no cascade stage can decide (the index
    // arrays are opaque), but the hoisted exact USR evaluation proves
    // the sets disjoint on this workload (paper §5's last resort).
    let src = "
SUBROUTINE run20(A, P, Q, N)
  DIMENSION A(*)
  INTEGER P(*), Q(*)
  INTEGER i, N
  DO do20 i = 1, N
    A(P(i)) = A(Q(i)) + 1.0
  ENDDO
END
";
    let (machine, sub, target, analysis) = setup(src, "do20");
    let n = 96i64;
    let mk_frame = || {
        let mut frame = Store::new();
        frame.set_int(sym("N"), n);
        frame.alloc_real(sym("A"), (2 * n + 1) as usize);
        let p = frame.alloc_int(sym("P"), n as usize);
        let q = frame.alloc_int(sym("Q"), n as usize);
        for i in 0..n {
            p.set(i as usize, Value::Int(i + 1));
            q.set(i as usize, Value::Int(i + n + 1)); // disjoint from P
        }
        frame
    };
    let out = assert_matches_oracle(&machine, &sub, &target, &analysis, mk_frame);
    assert_eq!(out, ExecOutcome::ExactPredicatePassed);
}

#[test]
fn repeat_invocations_hit_the_session_caches() {
    let loaded = session().load(parse_program(OFFSET_SRC).expect("parses"));
    let handle = loaded.prepare(sym("t"), "l1").expect("loop");
    let run = || handle.run(&mut offset_frame(256, 256)).expect("runs");
    let first = run();
    let stats_after_first = loaded.pred_stats();
    let second = run();
    let stats_after_second = loaded.pred_stats();
    assert_eq!(first.outcome, second.outcome);
    assert_eq!(first.test_units, second.test_units);
    assert_eq!(
        stats_after_first.compiles, stats_after_second.compiles,
        "second invocation must not recompile predicates"
    );
    assert!(
        stats_after_second.memo_hits > stats_after_first.memo_hits,
        "unchanged inputs must memo-hit"
    );
    assert_eq!(stats_after_second.evals, stats_after_first.evals);
}

#[test]
fn sessions_do_not_share_predicate_state() {
    // A fresh session must start cold even after another session ran
    // the same program: caches are owned per load, not process-global.
    let prog = parse_program(OFFSET_SRC).expect("parses");
    let warm = session().load(prog.clone());
    let handle = warm.prepare(sym("t"), "l1").expect("loop");
    handle.run(&mut offset_frame(128, 128)).expect("runs");
    assert!(warm.pred_stats().compiles > 0);
    let cold = session().load(prog);
    assert_eq!(
        cold.pred_stats().compiles,
        0,
        "a fresh session must own a fresh predicate engine"
    );
}
