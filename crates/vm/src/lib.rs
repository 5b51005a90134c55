//! `lip_vm` — a register bytecode compiler and VM for the mini-Fortran
//! kernels.
//!
//! The paper's premise is that runtime independence tests are cheap
//! *relative to the loop's execution* — which only holds if loop
//! execution itself is not dominated by interpretation overhead. This
//! crate compiles the `lip_ir` AST once into compact register bytecode
//! ([`compile`]) and executes it through a dispatch loop ([`vm`]),
//! replacing per-node `HashMap` lookups and allocation with slot
//! indices and a flat register file, while keeping the interpreter's
//! observable semantics *exactly*: identical outputs, identical
//! [`lip_ir::AccessTracer`] event streams, and identical work-unit
//! counts (expression costs are folded into static
//! [`chunk::Op::Charge`] instructions at compile time).
//!
//! Every `lip_runtime` session executes loops on this engine, with
//! `lip_ir::Machine` as the differential reference; per-thread
//! [`Frame`]s are `Send`, so the parallel executor runs compiled loop
//! bodies directly on its worker threads. [`Vm::run_range`] runs a
//! compiled block as one activation of the dispatch loop: once, or once
//! per value of a DO's variable at any step — a parallel chunk, an LRPD
//! chunk, a sequential DO, a CIV slice, the measurement pass. A driver
//! that must see each iteration (LRPD's iteration ordinal, the CIV
//! slice's recorded scalars, per-iteration costs) passes an
//! [`IterObserver`], called at each iteration's start. [`Vm::run_block`]
//! is its single pass with nothing to tally or observe: a WHILE trip, a
//! whole statement run as one block.
//!
//! # Two streams, one guard
//!
//! The optimize passes ([`optimize_program`], [`optimize_block`]) fuse
//! each chunk ([`peephole`]) and then type it once against the
//! program's declared and implicit types ([`typed`]): a second stream,
//! [`Typed`], runs `Int` / `Real` ops on raw 64-bit registers with the
//! operand types fixed per instruction. Every activation — a block, a
//! chunk range, the entry subroutine, each callee body — checks its
//! live-in scalars and addressed arrays against the declared types
//! (O(live-ins)) and runs the typed stream when they match, the `Value`
//! stream when they do not, or when the chunk is genuinely dynamic (a
//! `READ` target used afterwards, `Int` and `Real` meeting at a join).
//! There is no switch: the bindings decide. Both streams charge, trace
//! and fail identically, so which one ran is visible only in
//! [`DispatchCounts`] (`typed_runs` / `untyped_runs`).
//!
//! # Example
//!
//! ```
//! use lip_ir::{parse_program, Machine, Store};
//! use lip_symbolic::sym;
//! use lip_vm::{compile_program, Vm};
//!
//! let src = "
//! SUBROUTINE main()
//!   INTEGER i, N, s
//!   N = 10
//!   s = 0
//!   DO i = 1, N
//!     s = s + i
//!   ENDDO
//! END
//! ";
//! let prog = parse_program(src).expect("parses");
//! let compiled = compile_program(&prog).expect("compiles");
//!
//! // Interpreter and VM agree on outputs *and* work units.
//! let mut interp_store = Store::new();
//! let interp_cost = Machine::new(prog).run(&mut interp_store).expect("interp");
//! let mut vm_store = Store::new();
//! let vm_cost = Vm::new(&compiled).run(&mut vm_store).expect("vm");
//! assert_eq!(interp_cost, vm_cost);
//! assert_eq!(interp_store.scalar(sym("s")), vm_store.scalar(sym("s")));
//! ```

pub mod chunk;
pub mod compile;
pub mod peephole;
pub mod typed;
pub mod vm;

pub use chunk::{BlockId, Chunk, CompileError, CompiledProgram, Op};
pub use compile::{add_block, add_block_with_exprs, compile_program, expr_cost};
pub use peephole::{optimize_block, optimize_chunk, optimize_program};
pub use typed::Typed;
pub use vm::{DispatchCounts, Frame, IterObserver, Scalars, Unobserved, Vm};

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::{parse_program, Machine, RunError, Store, Value};
    use lip_symbolic::sym;

    fn both(src: &str) -> ((Store, u64), (Store, u64)) {
        let prog = parse_program(src).expect("parses");
        let machine = Machine::new(prog.clone());
        let mut is = Store::new();
        let ic = machine.run(&mut is).expect("interp runs");
        let compiled = compile_program(&prog).expect("compiles");
        let mut vs = Store::new();
        let vc = Vm::new(&compiled).run(&mut vs).expect("vm runs");
        ((is, ic), (vs, vc))
    }

    #[test]
    fn scalar_arithmetic_matches() {
        let ((is, ic), (vs, vc)) = both(
            "
SUBROUTINE main()
  INTEGER i, N, s
  N = 10
  s = 0
  DO i = 1, N
    s = s + i * i - 1
  ENDDO
END
",
        );
        assert_eq!(is.scalar(sym("s")), vs.scalar(sym("s")));
        assert_eq!(ic, vc, "work units differ");
    }

    #[test]
    fn array_writes_and_locals_match() {
        let ((is, ic), (vs, vc)) = both(
            "
SUBROUTINE main()
  DIMENSION A(4, 3)
  INTEGER i, j
  DO j = 1, 3
    DO i = 1, 4
      A(i, j) = i * 10 + j
    ENDDO
  ENDDO
END
",
        );
        let ia = is.array(sym("A")).expect("A");
        let va = vs.array(sym("A")).expect("A");
        for k in 0..12 {
            assert_eq!(ia.get_f64(k), va.get_f64(k), "element {k}");
        }
        assert_eq!(ic, vc);
    }

    #[test]
    fn calls_sections_and_reshape_match() {
        let src = "
SUBROUTINE main()
  DIMENSION A(4, 3)
  INTEGER i, j
  DO j = 1, 3
    DO i = 1, 4
      A(i, j) = 0.0
    ENDDO
  ENDDO
  CALL fill(A(1, 2), 5)
END

SUBROUTINE fill(V, n)
  DIMENSION V(*)
  INTEGER k, n
  DO k = 1, n
    V(k) = k
  ENDDO
END
";
        let ((is, ic), (vs, vc)) = both(src);
        let ia = is.array(sym("A")).expect("A");
        let va = vs.array(sym("A")).expect("A");
        for k in 0..12 {
            assert_eq!(ia.get_f64(k), va.get_f64(k), "element {k}");
        }
        assert_eq!(ic, vc);
    }

    #[test]
    fn scalar_copy_out_matches() {
        let ((is, _), (vs, _)) = both(
            "
SUBROUTINE main()
  INTEGER n
  n = 1
  CALL bump(n)
END

SUBROUTINE bump(k)
  INTEGER k
  k = k + 41
END
",
        );
        assert_eq!(is.scalar(sym("n")), Some(Value::Int(42)));
        assert_eq!(vs.scalar(sym("n")), Some(Value::Int(42)));
    }

    #[test]
    fn while_loop_costs_match() {
        let ((is, ic), (vs, vc)) = both(
            "
SUBROUTINE main()
  INTEGER k
  k = 1
  DO WHILE (k .LT. 100)
    k = k + 3
  ENDDO
END
",
        );
        assert_eq!(is.scalar(sym("k")), vs.scalar(sym("k")));
        assert_eq!(ic, vc);
    }

    #[test]
    fn read_inputs_flow_through() {
        let prog = parse_program(
            "
SUBROUTINE main()
  INTEGER n
  READ(*,*) n
  m = n * 2
END
",
        )
        .expect("parses");
        let mut machine = Machine::new(prog.clone());
        machine.set_input(sym("n"), Value::Int(21));
        let compiled = compile_program(&prog).expect("compiles");
        let vm = Vm::for_machine(&compiled, &machine);
        let mut store = Store::new();
        vm.run(&mut store).expect("runs");
        assert_eq!(store.scalar(sym("m")).map(Value::as_i64), Some(42));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let prog = parse_program(
            "
SUBROUTINE main()
  DIMENSION A(4)
  A(5) = 1.0
END
",
        )
        .expect("parses");
        let compiled = compile_program(&prog).expect("compiles");
        let mut store = Store::new();
        assert_eq!(
            Vm::new(&compiled).run(&mut store),
            Err(RunError::BadIndex(sym("A")))
        );
    }

    #[test]
    fn step_budget_stops_runaway() {
        let prog = parse_program(
            "
SUBROUTINE main()
  INTEGER i
  i = 0
  DO WHILE (i .LT. 1000000000)
    i = i + 1
  ENDDO
END
",
        )
        .expect("parses");
        let compiled = compile_program(&prog).expect("compiles");
        let mut store = Store::new();
        let mut state = lip_ir::ExecState::with_budget(10_000);
        assert_eq!(
            Vm::new(&compiled).run_with_state(&mut store, &mut state, None),
            Err(RunError::StepLimit)
        );
    }

    #[test]
    fn unknown_callee_fails_late_like_the_interpreter() {
        let src = "
SUBROUTINE main()
  INTEGER n
  n = 2
  IF (n .LT. 0) THEN
    CALL nosuch(n)
  ENDIF
END
";
        // The call is dead at runtime: both backends succeed.
        let ((_, ic), (_, vc)) = both(src);
        assert_eq!(ic, vc);

        let live = "
SUBROUTINE main()
  INTEGER n
  CALL nosuch(n)
END
";
        let prog = parse_program(live).expect("parses");
        let compiled = compile_program(&prog).expect("compiles");
        let mut store = Store::new();
        assert_eq!(
            Vm::new(&compiled).run(&mut store),
            Err(RunError::NoSuchSubroutine(sym("nosuch")))
        );
    }

    #[test]
    fn negative_step_loops_match() {
        let ((is, ic), (vs, vc)) = both(
            "
SUBROUTINE main()
  INTEGER i, s
  s = 0
  DO i = 10, 1, -2
    s = s + i
  ENDDO
END
",
        );
        assert_eq!(is.scalar(sym("s")), Some(Value::Int(30)));
        assert_eq!(vs.scalar(sym("s")), Some(Value::Int(30)));
        assert_eq!(ic, vc);
    }

    /// `i64::MIN / -1`, `-i64::MIN`, `ABS(i64::MIN)` and an overflowing
    /// integer `**` are `RunError::IntOverflow` on the interpreter, the
    /// `Value` stream and the typed stream alike, on every build
    /// profile; `MOD(i64::MIN, -1)` is 0.
    #[test]
    fn integer_overflow_is_an_error_on_every_engine() {
        let run = |stmt: &str| {
            let src = format!(
                "
SUBROUTINE main()
  INTEGER m, k
  m = -9223372036854775807 - 1
  {stmt}
END
"
            );
            let prog = parse_program(&src).expect("parses");
            let interp = Machine::new(prog.clone()).run(&mut Store::new());
            let value = compile_program(&prog).expect("compiles");
            let mut typed = value.clone();
            optimize_program(&mut typed);
            assert!(typed.subs[0].chunk.typed.is_some(), "{stmt}: not typed");
            let runs = [&value, &typed].map(|c| {
                let mut store = Store::new();
                let r = Vm::new(c).run(&mut store);
                (r, store.scalar(sym("k")))
            });
            assert_eq!(runs[0], runs[1], "{stmt}: Value vs typed stream");
            assert_eq!(interp, runs[0].0, "{stmt}: interpreter vs VM");
            runs[0].clone()
        };
        for stmt in [
            "k = m / (0 - 1)",
            "k = -m",
            "k = ABS(m)",
            "k = m ** 2",
            "k = 3 ** 40",
        ] {
            assert_eq!(run(stmt), (Err(RunError::IntOverflow), None), "{stmt}");
        }
        let (units, k) = run("k = MOD(m, 0 - 1)");
        assert!(units.is_ok());
        assert_eq!(k, Some(Value::Int(0)));
    }

    #[test]
    fn intrinsics_match() {
        let ((is, ic), (vs, vc)) = both(
            "
SUBROUTINE main()
  INTEGER i
  x = 0.0
  DO i = 1, 20
    x = x + SQRT(DBLE(i)) + MIN(i, 7) + MAX(SIN(0.5 * i), COS(0.5 * i)) + MOD(i, 3) + ABS(1 - i)
  ENDDO
END
",
        );
        assert_eq!(
            is.scalar(sym("x")).map(Value::as_f64),
            vs.scalar(sym("x")).map(Value::as_f64)
        );
        assert_eq!(ic, vc);
    }
}
