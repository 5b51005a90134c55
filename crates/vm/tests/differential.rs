//! Interpreter ⟷ VM differential suite.
//!
//! The bytecode VM is only admissible if it is *observationally
//! identical* to the tree-walk interpreter: same outputs, same stream
//! of traced array accesses, same work-unit counts. These tests check
//! all three on every suite kernel shape and on the example programs,
//! and send the full predicate-guarded executor (parallel chunks, CIV
//! slices, LRPD speculation) through `lip_suite::check`, which holds it
//! to the interpreter and the reference tests.
//!
//! The second half pins the range entry point: [`Vm::run_range`] — one
//! activation for a whole DO range, at steps 1, 2, 3, −1 and −2 —
//! against the per-iteration `set_scalar` + `run_block` loop over the
//! same values that it replaced in every driver, down to the final
//! frame, the cost and the access stream, on success and on a
//! mid-range error alike, on the unfused, fused and typed streams.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lip_ir::{
    AccessTracer, ArrayBuf, ExecState, Machine, Program, RunError, Stmt, Store, Subroutine, Value,
};
use lip_runtime::{ExecOutcome, Session};
use lip_suite::{check, KernelShape, Prepared};
use lip_symbolic::{sym, Sym};
use lip_vm::{add_block, compile_program, CompiledProgram, Frame, Unobserved, Vm};

/// Records every traced access in order.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<(char, Sym, usize)>>,
}

impl AccessTracer for Recorder {
    fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('r', arr, idx));
    }
    fn write(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('w', arr, idx));
    }
}

/// Every element of `buf`, in order.
fn cells(buf: &ArrayBuf) -> Vec<Value> {
    (0..buf.len()).map(|i| buf.get(i)).collect()
}

/// Flattens a store for comparison: every scalar and every array
/// element, keyed by name.
fn observe(store: &Store) -> (BTreeMap<String, Value>, BTreeMap<String, Vec<Value>>) {
    let scalars = store
        .scalars()
        .map(|(s, v)| (s.name().to_string(), v))
        .collect();
    let arrays = store
        .arrays()
        .map(|(s, view)| (s.name().to_string(), cells(&view.buf)))
        .collect();
    (scalars, arrays)
}

fn assert_stores_match(interp: &Store, vm: &Store, ctx: &str) {
    let (is, ia) = observe(interp);
    let (vs, va) = observe(vm);
    assert_eq!(is, vs, "{ctx}: scalars diverged");
    assert_eq!(
        ia.keys().collect::<Vec<_>>(),
        va.keys().collect::<Vec<_>>(),
        "{ctx}: array sets diverged"
    );
    for (name, ivals) in &ia {
        let vvals = &va[name];
        assert_eq!(ivals.len(), vvals.len(), "{ctx}: {name} length");
        for (k, (x, y)) in ivals.iter().zip(vvals.iter()).enumerate() {
            assert_eq!(x, y, "{ctx}: {name}[{k}]");
        }
    }
}

/// Runs a prepared kernel's target loop sequentially under the
/// interpreter, the unfused VM and the peephole-fused VM with full
/// tracing; asserts identical everything, three ways.
fn differential_sequential(mk: impl Fn() -> Prepared, ctx: &str) {
    let mut p = mk();
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();

    let interp_rec = Arc::new(Recorder::default());
    let traced = p.machine.with_tracer(interp_rec.clone());
    let mut interp_state = ExecState::default();
    traced
        .exec_stmt(&sub, &mut p.frame, &target, &mut interp_state)
        .unwrap_or_else(|e| panic!("{ctx}: interp failed: {e}"));

    for fused in [false, true] {
        let leg = if fused { "fused vm" } else { "vm" };
        let mut q = mk();
        let mut compiled = compile_program(&prog).expect("compiles");
        let block = add_block(&mut compiled, &sub, std::slice::from_ref(&target), &[])
            .expect("block compiles");
        if fused {
            lip_vm::optimize_block(&mut compiled, block);
        }
        let vm = Vm::for_machine(&compiled, &q.machine);
        let chunk = &compiled.block(block).chunk;
        let mut frame = Frame::for_chunk(chunk, &q.frame);
        let vm_rec = Recorder::default();
        let mut vm_state = ExecState::default();
        vm.run_block(block, &mut frame, &mut vm_state, Some(&vm_rec))
            .unwrap_or_else(|e| panic!("{ctx}: {leg} failed: {e}"));
        frame.writeback_scalars(chunk, &mut q.frame);

        assert_eq!(
            interp_state.cost, vm_state.cost,
            "{ctx}: {leg} work units diverged"
        );
        assert_eq!(
            *interp_rec.events.lock().unwrap(),
            *vm_rec.events.lock().unwrap(),
            "{ctx}: {leg} observable access trace diverged"
        );
        assert_stores_match(&p.frame, &q.frame, &format!("{ctx} ({leg})"));
    }
}

#[test]
fn all_suite_kernels_match_sequentially() {
    for shape in lip_suite::all_shapes() {
        for n in [16usize, 64] {
            differential_sequential(|| shape.prepared(n), &format!("{} (n={n})", shape.name));
        }
    }
}

/// A prepared kernel through the full analyzed executor on `nthreads`
/// chunks, checked by `lip_suite::check` against the interpreter and
/// the reference tests.
fn check_run_loop(shape: &KernelShape, n: usize, nthreads: usize) {
    let session = Session::builder().nthreads(nthreads).build();
    check::kernel(&session, &shape.prepared(n)).assert_sequential();
}

#[test]
fn executor_paths_match_on_all_kernels() {
    for shape in lip_suite::all_shapes() {
        check_run_loop(shape, 32, 2);
    }
}

/// The executor hands each chunk to `Vm::run_range`: one chunk, uneven
/// chunks, and more chunks than some kernels have iterations to fill.
#[test]
fn executor_paths_match_across_chunk_counts() {
    for shape in lip_suite::all_shapes() {
        for nthreads in [1, 3, 7] {
            check_run_loop(shape, 32, nthreads);
        }
    }
}

/// The quickstart example's kernel: the O(1)-predicate loop, on both a
/// passing (parallel) and failing (sequential) workload.
#[test]
fn quickstart_example_matches() {
    let src = "
SUBROUTINE kernel(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO main_loop i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";
    let prog = lip_ir::parse_program(src).expect("parses");
    let session = Session::builder().nthreads(2).build();
    for (m, expected) in [
        (200, ExecOutcome::PredicatePassed { stage: 0 }),
        (1, ExecOutcome::Sequential),
    ] {
        let mut input = Store::new();
        input.set_int(sym("N"), 200).set_int(sym("M"), m);
        let a = input.alloc_real(sym("A"), 400);
        (0..400).for_each(|i| a.set(i, Value::Real(i as f64)));
        let report = check::cold(&session, &prog, sym("kernel"), "main_loop", &input);
        report.assert_sequential();
        assert_eq!(report.stats.outcome, expected, "quickstart M={m}");
    }
}

/// The worked example's whole program (the paper's Figure 1 around
/// SOLVH): interprocedural calls, array reshaping and section actual
/// arguments through `Machine::run` vs `Vm::run`.
#[test]
fn figure1_whole_program_matches() {
    let src = "
SUBROUTINE main()
  INTEGER IA(8), IB(8)
  DIMENSION HE(25600), XE(64)
  INTEGER i, N, NS, NP, SYM
  N = 8
  NS = 16
  NP = 2
  SYM = 0
  DO i = 1, N
    IA(i) = 2
    IB(i) = 2 * i - 1
  ENDDO
  CALL solvh(HE, XE, IA, IB, N, NS, NP, SYM)
END

SUBROUTINE solvh(HE, XE, IA, IB, N, NS, NP, SYM)
  DIMENSION HE(32, *), XE(*)
  INTEGER IA(*), IB(*)
  INTEGER i, k, id, N, NS, NP, SYM
  DO do20 i = 1, N
    DO k = 1, IA(i)
      id = IB(i) + k - 1
      CALL geteu(XE, SYM, NP)
      CALL matmult(HE(1, id), XE, NS)
      CALL solvhe(HE(1, id), NP)
    ENDDO
  ENDDO
END

SUBROUTINE geteu(XE, SYM, NP)
  DIMENSION XE(16, *)
  INTEGER i, j, SYM, NP
  IF (SYM .NE. 1) THEN
    DO i = 1, NP
      DO j = 1, 16
        XE(j, i) = 1.5
      ENDDO
    ENDDO
  ENDIF
END

SUBROUTINE matmult(HE, XE, NS)
  DIMENSION HE(*), XE(*)
  INTEGER j, NS
  DO j = 1, NS
    HE(j) = XE(j)
    XE(j) = 2.0
  ENDDO
END

SUBROUTINE solvhe(HE, NP)
  DIMENSION HE(8, *)
  INTEGER i, j, NP
  DO j = 1, 3
    DO i = 1, NP
      HE(j, i) = HE(j, i) + 1.0
    ENDDO
  ENDDO
END
";
    let prog = lip_ir::parse_program(src).expect("parses");

    let machine = Machine::new(prog.clone());
    let interp_rec = Arc::new(Recorder::default());
    let traced = machine.with_tracer(interp_rec.clone());
    let mut interp_store = Store::new();
    let interp_cost = traced.run(&mut interp_store).expect("interp runs");

    let compiled = compile_program(&prog).expect("compiles");
    let vm = Vm::new(&compiled);
    let mut vm_store = Store::new();
    let mut vm_state = ExecState::default();
    let vm_rec = Recorder::default();
    vm.run_with_state(&mut vm_store, &mut vm_state, Some(&vm_rec))
        .expect("vm runs");

    assert_eq!(interp_cost, vm_state.cost, "figure1: work units");
    assert_eq!(
        *interp_rec.events.lock().unwrap(),
        *vm_rec.events.lock().unwrap(),
        "figure1: access trace"
    );
    assert_stores_match(&interp_store, &vm_store, "figure1");
    // And the figure's ground truth holds on both.
    assert_eq!(vm_store.array(sym("HE")).expect("HE").get_f64(0), 2.5);
}

/// The irregular-reduction and CIV examples drive `INDEX_REDUCTION`
/// and `CIV_CONDITIONAL` through the executor — covered per-kernel
/// above; here the example-sized workloads run end to end.
#[test]
fn example_workloads_match_through_executor() {
    check_run_loop(&lip_suite::INDEX_REDUCTION, 64, 2);
    check_run_loop(&lip_suite::CIV_CONDITIONAL, 64, 2);
    check_run_loop(&lip_suite::CIV_WHILE, 64, 2);
    check_run_loop(&lip_suite::SOLVH, 24, 2);
}

/// Tag and payload bits: NaNs and signed zeros compare exactly.
fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// Everything a loop-body driver leaves behind.
#[derive(Debug, PartialEq)]
struct Driven {
    result: Result<(), RunError>,
    /// Every scalar slot of the frame, the loop variable included.
    scalars: Vec<Option<(u8, u64)>>,
    /// The loop variable's slot.
    var: Option<(u8, u64)>,
    /// The frame's `Debug` rendering: registers and bindings too.
    frame: String,
    arrays: BTreeMap<String, Vec<(u8, u64)>>,
    cost: u64,
    events: Vec<(char, Sym, usize)>,
}

/// A loop body to drive over `lo..=hi`: the program, the subroutine
/// owning the body, the loop variable, and a builder of fresh inputs
/// (a `Store::clone` would share the array buffers between runs).
struct RangeCase<'a> {
    prog: &'a Program,
    sub: &'a Subroutine,
    body: &'a [Stmt],
    var: Sym,
    inputs: &'a dyn Fn() -> (Machine, Store),
}

/// The steps every range test runs at.
const STEPS: [i64; 5] = [1, 2, 3, -1, -2];

/// The range over `lo..=hi` at `step`: up from `lo`, or down from `hi`.
fn stepped(lo: i64, hi: i64, step: i64) -> (i64, i64, i64) {
    if step > 0 {
        (lo, hi, step)
    } else {
        (hi, lo, step)
    }
}

/// The values a DO from `lo` to `hi` by `step` gives its variable, as
/// the interpreter steps it, stopping where the next value would leave
/// the `i64` range.
fn do_values(lo: i64, hi: i64, step: i64) -> impl Iterator<Item = i64> {
    std::iter::successors(Some(lo), move |i| i.checked_add(step)).take_while(move |&i| {
        if step > 0 {
            i <= hi
        } else {
            i >= hi
        }
    })
}

/// `c` with every typed stream removed: the fused `Value` stream.
fn strip_typed(c: &mut CompiledProgram) {
    let chunks = c.subs.iter_mut().map(|s| &mut s.chunk);
    chunks
        .chain(c.blocks.iter_mut().map(|b| &mut b.chunk))
        .for_each(|chunk| chunk.typed = None);
}

impl RangeCase<'_> {
    /// Runs the body over the DO range `(lo, hi, step)` through
    /// `run_range` and through the per-iteration `set_scalar` +
    /// `run_block` loop over [`do_values`], on the unfused stream, the
    /// fused `Value` stream and the typed stream; asserts the two
    /// drivers leave identical everything and returns what `run_range`
    /// left (typed stream).
    fn check(&self, ctx: &str, (lo, hi, step): (i64, i64, i64), budget: Option<u64>) -> Driven {
        let mut last = None;
        for leg in ["unfused", "fused", "typed"] {
            let mut compiled = compile_program(self.prog).expect("compiles");
            let block =
                add_block(&mut compiled, self.sub, self.body, &[self.var]).expect("block compiles");
            if leg != "unfused" {
                lip_vm::optimize_program(&mut compiled);
                lip_vm::optimize_block(&mut compiled, block);
            }
            if leg == "fused" {
                strip_typed(&mut compiled);
            }
            let drive = |ranged: bool| {
                let (machine, store) = (self.inputs)();
                let vm = Vm::for_machine(&compiled, &machine);
                let chunk = &compiled.block(block).chunk;
                let slot = chunk.scalar_slot(self.var).expect("loop variable interned");
                let mut frame = Frame::for_chunk(chunk, &store);
                let rec = Recorder::default();
                let mut state = budget.map_or_else(ExecState::default, ExecState::with_budget);
                let result = if ranged {
                    let range = Some((slot, lo, hi, step));
                    let obs = &mut Unobserved;
                    vm.run_range(block, &mut frame, range, &mut state, Some(&rec), None, obs)
                } else {
                    do_values(lo, hi, step).try_for_each(|i| {
                        frame.set_scalar(slot, Value::Int(i));
                        vm.run_block(block, &mut frame, &mut state, Some(&rec))
                    })
                };
                Driven {
                    result,
                    scalars: (0..chunk.scalars.len())
                        .map(|s| frame.scalar(s as u16).map(value_bits))
                        .collect(),
                    var: frame.scalar(slot).map(value_bits),
                    frame: format!("{frame:?}"),
                    arrays: store
                        .arrays()
                        .map(|(s, view)| {
                            let vals = cells(&view.buf).into_iter().map(value_bits).collect();
                            (s.name().to_string(), vals)
                        })
                        .collect(),
                    cost: state.cost,
                    events: rec.events.into_inner().unwrap(),
                }
            };
            let (per_iteration, ranged) = (drive(false), drive(true));
            assert_eq!(
                per_iteration, ranged,
                "{ctx} (step {step}, {leg}): run_range diverged from the per-iteration driver"
            );
            last = Some(ranged);
        }
        last.expect("three legs ran")
    }
}

#[test]
fn run_range_matches_per_iteration_on_all_suite_kernels() {
    for shape in lip_suite::all_shapes() {
        for n in [16usize, 64] {
            let p = shape.prepared(n);
            let prog = p.machine.program().clone();
            let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
            let Stmt::Do {
                var, lo, hi, body, ..
            } = sub.find_loop(p.label).expect("loop").clone()
            else {
                continue; // WHILE targets have no iteration range.
            };
            let mut st = ExecState::default();
            let lo = p.machine.eval(&sub, &p.frame, &lo, &mut st).expect("lo");
            let hi = p.machine.eval(&sub, &p.frame, &hi, &mut st).expect("hi");
            let case = RangeCase {
                prog: &prog,
                sub: &sub,
                body: &body,
                var,
                inputs: &|| {
                    let p = shape.prepared(n);
                    (p.machine, p.frame)
                },
            };
            let ctx = format!("{} (n={n})", shape.name);
            let (lo, hi) = (lo.as_i64(), hi.as_i64());
            for step in STEPS {
                let full = case.check(&ctx, stepped(lo, hi, step), None).cost;
                // A chunk-shaped interior range, and a budget that trips
                // somewhere inside the full one.
                let interior = stepped(lo + (hi - lo) / 3, hi - (hi - lo) / 3, step);
                case.check(&ctx, interior, None);
                let tripped = case.check(&ctx, stepped(lo, hi, step), Some(full / 2));
                assert_eq!(
                    tripped.result,
                    Err(RunError::StepLimit),
                    "{ctx} (step {step})"
                );
            }
        }
    }
}

const RANGE_SRC: &str = "
SUBROUTINE t(A, B, N)
  DIMENSION A(*), B(*)
  INTEGER i, k, s, N
  DO l1 i = 1, N
    s = s + 1
    IF (MOD(i, 3) .EQ. 0) THEN
      A(i) = 1.0
    ELSE
      DO k = 1, 3
        A(i) = A(i) + k
      ENDDO
    ENDIF
    CALL bump(B(i), i)
  ENDDO
END

SUBROUTINE bump(V, n)
  DIMENSION V(*)
  INTEGER n
  V(1) = V(1) + n
END
";

/// Runs `f` on the `RANGE_SRC` body with `A` and `B` of `len` elements.
fn with_range_case(len: usize, f: impl FnOnce(&RangeCase<'_>)) {
    let prog = lip_ir::parse_program(RANGE_SRC).expect("parses");
    let sub = prog.units[0].clone();
    let Stmt::Do { var, body, .. } = sub.find_loop("l1").expect("loop").clone() else {
        panic!("l1 is a DO loop")
    };
    f(&RangeCase {
        prog: &prog,
        sub: &sub,
        body: &body,
        var,
        inputs: &|| {
            let mut store = Store::new();
            store.set_int(sym("N"), len as i64).set_int(sym("s"), 0);
            store.set_int(sym("i"), 77);
            store.alloc_real(sym("A"), len);
            store.alloc_real(sym("B"), len);
            (Machine::new(prog.clone()), store)
        },
    });
}

/// A body that ends at a different instruction from one iteration to
/// the next (IF arm, inner-DO exit, after a CALL) restarts at its first
/// instruction every time, at every step, and at step 1 matches the
/// interpreter's loop.
#[test]
fn run_range_restarts_the_body_each_iteration() {
    with_range_case(24, |case| {
        for step in STEPS {
            let d = case.check("if/do/call body", stepped(1, 24, step), None);
            assert_eq!(d.result, Ok(()), "step {step}");
        }
        let d = case.check("if/do/call body", (1, 24, 1), None);
        let (machine, mut store) = (case.inputs)();
        let target = case.sub.find_loop("l1").expect("loop");
        machine
            .exec_stmt(case.sub, &mut store, target, &mut ExecState::default())
            .expect("interp runs");
        for name in ["A", "B"] {
            let want = cells(&store.array(sym(name)).expect("bound").buf);
            let want: Vec<_> = want.into_iter().map(value_bits).collect();
            assert_eq!(d.arrays[name], want, "{name} vs the interpreter");
        }
    });
}

#[test]
fn run_range_with_lo_above_hi_runs_nothing() {
    with_range_case(8, |case| {
        for step in STEPS {
            // `lo > hi` walked up, `lo < hi` walked down.
            let d = case.check("empty range", stepped(5, 4, step), None);
            assert_eq!((&d.result, d.cost, d.events.len()), (&Ok(()), 0, 0));
            // The variable keeps the value it came in with.
            assert_eq!(d.var, Some(value_bits(Value::Int(77))), "step {step}");
            case.check("far-empty range", stepped(i64::MAX, i64::MIN, step), None);
        }
    });
}

#[test]
fn run_range_stops_at_a_bad_index_like_the_per_iteration_driver() {
    with_range_case(10, |case| {
        for step in STEPS {
            // The first iteration past 10 subscripts past `A`.
            let (lo, hi, step) = stepped(1, 20, step);
            let d = case.check("bad index", (lo, hi, step), None);
            assert_eq!(d.result, Err(RunError::BadIndex(sym("A"))), "step {step}");
            let first_bad = do_values(lo, hi, step).find(|&i| i > 10);
            assert_eq!(d.var, first_bad.map(|i| value_bits(Value::Int(i))));
        }
    });
}

#[test]
fn run_range_trips_the_step_budget_mid_range() {
    with_range_case(64, |case| {
        for step in STEPS {
            let range = stepped(1, 64, step);
            let full = case.check("unbudgeted", range, None).cost;
            for budget in [1, full / 3, full - 1] {
                let d = case.check("budget", range, Some(budget));
                assert_eq!(
                    d.result,
                    Err(RunError::StepLimit),
                    "step {step} budget {budget}"
                );
            }
            assert_eq!(case.check("exact budget", range, Some(full)).result, Ok(()));
        }
    });
}

/// Runs `f` on the body `s = s + 1`.
fn with_counting_case(f: impl FnOnce(&RangeCase<'_>)) {
    let prog = lip_ir::parse_program(
        "
SUBROUTINE t()
  INTEGER i, s
  DO l1 i = 1, 2
    s = s + 1
  ENDDO
END
",
    )
    .expect("parses");
    let sub = prog.units[0].clone();
    let Stmt::Do { var, body, .. } = sub.find_loop("l1").expect("loop").clone() else {
        panic!("l1 is a DO loop")
    };
    f(&RangeCase {
        prog: &prog,
        sub: &sub,
        body: &body,
        var,
        inputs: &|| {
            let mut store = Store::new();
            store.set_int(sym("s"), 0);
            (Machine::new(prog.clone()), store)
        },
    });
}

/// A range ending at `i64::MAX` stops after its last iteration instead
/// of stepping the counter past the end, as does one whose next value
/// would pass it; the whole positive range is ended by the budget.
#[test]
fn run_range_ending_at_i64_max_terminates() {
    with_counting_case(|case| {
        let d = case.check("last three", (i64::MAX - 2, i64::MAX, 1), Some(10_000));
        assert_eq!(d.result, Ok(()));
        assert_eq!(d.var, Some(value_bits(Value::Int(i64::MAX))));
        let d = case.check("last three by 2", (i64::MAX - 5, i64::MAX, 2), Some(10_000));
        assert_eq!(
            (d.result, d.cost),
            (Ok(()), case.check("", (1, 3, 1), None).cost)
        );
        assert_eq!(d.var, Some(value_bits(Value::Int(i64::MAX - 1))));
        let d = case.check("whole range", (1, i64::MAX, 1), Some(10_000));
        assert_eq!(d.result, Err(RunError::StepLimit));
    });
}

/// The stepped twin: a range counting down to `i64::MIN` stops at its
/// last value, whether it lands on `i64::MIN` or would step past it;
/// the whole negative range is ended by the budget.
#[test]
fn run_range_counting_down_to_i64_min_terminates() {
    with_counting_case(|case| {
        let three = case.check("", (1, 3, 1), None).cost;
        let d = case.check("last three", (i64::MIN + 4, i64::MIN, -2), Some(10_000));
        assert_eq!((&d.result, d.cost), (&Ok(()), three));
        assert_eq!(d.var, Some(value_bits(Value::Int(i64::MIN))));
        let d = case.check(
            "last three, past",
            (i64::MIN + 5, i64::MIN, -2),
            Some(10_000),
        );
        assert_eq!((&d.result, d.cost), (&Ok(()), three));
        assert_eq!(d.var, Some(value_bits(Value::Int(i64::MIN + 1))));
        let d = case.check("whole range", (-1, i64::MIN, -1), Some(10_000));
        assert_eq!(d.result, Err(RunError::StepLimit));
    });
}
