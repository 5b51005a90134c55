//! Charge-accounting invariants across opt levels: the peephole pass
//! folds `Charge` ops into superinstructions, so the one thing it must
//! never change is what gets charged. Every figure the repo reproduces
//! is denominated in work units, so per-iteration costs, test units
//! and loop units have to be bit-identical on the tree-walking
//! `lip_ir::Machine`, on the compiler's raw stream and on the fused
//! stream. A session only runs the last; the raw stream is reached
//! through `lip_vm` directly.

use lip_ir::{parse_program, ExecState, Machine, Stmt, Store, Subroutine, Value};
use lip_runtime::{ExecOutcome, Session};
use lip_symbolic::{sym, Sym};
use lip_vm::{BlockId, CompiledProgram};

fn session() -> Session {
    Session::builder().nthreads(2).build()
}

/// `stmts` lowered into the machine's program, unfused.
fn unfused_block(
    machine: &Machine,
    sub: &Subroutine,
    stmts: &[Stmt],
    extra: &[Sym],
) -> (CompiledProgram, BlockId) {
    let mut compiled = lip_vm::compile_program(machine.program()).expect("compiles");
    let block = lip_vm::add_block(&mut compiled, sub, stmts, extra).expect("block compiles");
    (compiled, block)
}

/// A kernel that exercises most fusion rules per iteration: indexed
/// RMW (both constant and scalar operands), scalar reductions, an
/// inner loop, and a conditional.
const SRC: &str = "
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

fn prepared(n: i64, m: i64) -> (Machine, lip_ir::Subroutine, lip_ir::Stmt, Store) {
    let prog = parse_program(SRC).expect("parses");
    let sub = prog.units[0].clone();
    let target = sub.find_loop("l1").expect("loop").clone();
    let machine = Machine::new(prog);
    let mut frame = Store::new();
    frame.set_int(sym("N"), n).set_int(sym("M"), m);
    frame.set_scalar(sym("x"), Value::Real(1.5));
    frame.set_scalar(sym("s"), Value::Real(0.0));
    let a = frame.alloc_real(sym("A"), n as usize);
    for i in 0..n as usize {
        a.set(i, Value::Real(i as f64));
    }
    frame.alloc_real(sym("W"), m as usize);
    (machine, sub, target, frame)
}

#[test]
fn per_iteration_costs_identical_at_every_opt_level() {
    let (machine, sub, target, mut frame) = prepared(48, 6);
    let Stmt::Do { var, body, .. } = &target else {
        panic!("l1 is a DO loop")
    };
    let mut reference = Vec::new();
    let mut oracle_frame = prepared(48, 6).3;
    let mut st = ExecState::default();
    for i in 1..=48 {
        oracle_frame.set_scalar(*var, Value::Int(i));
        let before = st.cost;
        machine
            .exec_block(&sub, &mut oracle_frame, body, &mut st)
            .expect("oracle");
        reference.push(st.cost - before);
    }

    let (compiled, block) = unfused_block(&machine, &sub, body, &[*var]);
    let chunk = &compiled.block(block).chunk;
    let slot = chunk.scalar_slot(*var).expect("loop variable interned");
    let mut f = lip_vm::Frame::for_chunk(chunk, &prepared(48, 6).3);
    let mut st = ExecState::default();
    let unfused: Vec<u64> = (1..=48)
        .map(|i| {
            f.set_scalar(slot, Value::Int(i));
            let before = st.cost;
            lip_vm::Vm::for_machine(&compiled, &machine)
                .run_block(block, &mut f, &mut st, None)
                .expect("unfused iteration");
            st.cost - before
        })
        .collect();
    assert_eq!(reference, unfused, "unfused stream diverged");

    let fused = session()
        .load(machine.program().clone())
        .prepare(sub.name, "l1")
        .expect("loop")
        .per_iteration_costs(&mut frame)
        .expect("costs");
    assert_eq!(reference, fused, "fused session diverged");
}

#[test]
fn run_loop_stats_and_frames_identical_at_every_opt_level() {
    let bits = |frame: &Store| {
        let a = frame.array(sym("A")).expect("A");
        let snap: Vec<u64> = (0..64).map(|i| a.get_f64(i).to_bits()).collect();
        (frame.scalar(sym("s")).map(|v| v.as_f64().to_bits()), snap)
    };
    let (machine, sub, target, mut oracle_frame) = prepared(64, 4);
    let mut st = ExecState::default();
    machine
        .exec_stmt(&sub, &mut oracle_frame, &target, &mut st)
        .expect("oracle");

    let mut raw_frame = prepared(64, 4).3;
    let (compiled, block) = unfused_block(&machine, &sub, std::slice::from_ref(&target), &[]);
    let chunk = &compiled.block(block).chunk;
    let mut f = lip_vm::Frame::for_chunk(chunk, &raw_frame);
    let mut raw_st = ExecState::default();
    lip_vm::Vm::for_machine(&compiled, &machine)
        .run_block(block, &mut f, &mut raw_st, None)
        .expect("unfused loop");
    f.writeback_scalars(chunk, &mut raw_frame);
    assert_eq!(bits(&oracle_frame), bits(&raw_frame), "unfused stream");
    assert_eq!(st.cost, raw_st.cost, "unfused stream");

    let mut frame = prepared(64, 4).3;
    let stats = session()
        .load(machine.program().clone())
        .prepare(sub.name, "l1")
        .expect("loop")
        .run(&mut frame)
        .expect("runs");
    assert_eq!(bits(&oracle_frame), bits(&frame), "fused session");
    assert_eq!(stats.outcome, ExecOutcome::StaticParallel);
    assert_eq!(stats.test_units, 0);
    // The parallel path does not charge the DO statement's own unit.
    assert_eq!(stats.loop_units, st.cost - 1);
}

/// The fused stream must charge exactly like the unfused one even when
/// a budget trips mid-loop: same error, same point, same accumulated
/// cost (charge folding moves charges onto fused ops but never merges
/// or reorders them).
#[test]
fn budget_trips_identically_on_fused_and_unfused_streams() {
    let prog = parse_program(SRC).expect("parses");
    let mut compiled = lip_vm::compile_program(&prog).expect("compiles");
    let mut fused = compiled.clone();
    lip_vm::optimize_program(&mut fused);
    // Entry is the whole subroutine; run with a budget that trips
    // mid-iteration.
    compiled.entry = Some(0);
    fused.entry = Some(0);
    let run = |cp: &lip_vm::CompiledProgram| {
        let mut store = Store::new();
        store.set_int(sym("N"), 32).set_int(sym("M"), 4);
        store.set_scalar(sym("x"), Value::Real(1.5));
        store.alloc_real(sym("A"), 32);
        store.alloc_real(sym("W"), 4);
        let mut state = lip_ir::ExecState::with_budget(500);
        let r = lip_vm::Vm::new(cp).run_with_state(&mut store, &mut state, None);
        (r, state.cost)
    };
    let (ru, cu) = run(&compiled);
    let (rf, cf) = run(&fused);
    assert_eq!(ru, rf, "error diverged");
    assert_eq!(cu, cf, "trip-point cost diverged");
    assert_eq!(ru, Err(lip_ir::RunError::StepLimit));
}
