//! The typed stream's guard, at the bindings it must refuse: a
//! REAL-declared dummy bound to an INTEGER actual, an INTEGER scalar
//! seeded with a `Real`, a `READ` target, and an `IF` whose arms leave
//! a scalar `Int` on one path and `Real` on the other. Each activation
//! concerned must run the `Value` stream — counted — and the run must
//! be bit-identical to the tree-walk interpreter and to the same program
//! with its typed streams removed: outputs, work units, traced accesses.
//! (A register join of `Int` and `Real`, which the compiler never emits,
//! is `typed::tests`' hand-built chunk.)

use std::sync::{Arc, Mutex};

use lip_ir::{parse_program, AccessTracer, ExecState, Machine, RunError, Store, Value};
use lip_symbolic::{sym, Sym};
use lip_vm::{compile_program, optimize_program, CompiledProgram, DispatchCounts, Vm};

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

/// Result, the named scalars and array elements as `(tag, bits)`, work
/// units, trace.
type Observed = (
    Result<(), RunError>,
    Vec<Option<(u8, u64)>>,
    u64,
    Vec<(char, Sym, usize)>,
);

fn bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// A program, the store it starts from and the READ inputs it gets.
struct Case {
    src: &'static str,
    seed: Vec<(&'static str, Value)>,
    inputs: Vec<(&'static str, Value)>,
    /// Scalars and arrays compared after the run.
    scalars: &'static [&'static str],
    arrays: &'static [&'static str],
}

impl Case {
    fn machine(&self) -> Machine {
        let mut m = Machine::new(parse_program(self.src).expect("parses"));
        for (name, v) in &self.inputs {
            m.set_input(sym(name), *v);
        }
        m
    }

    fn store(&self) -> Store {
        let mut store = Store::new();
        for (name, v) in &self.seed {
            store.set_scalar(sym(name), *v);
        }
        store
    }

    fn observe(
        &self,
        store: &Store,
        result: Result<(), RunError>,
        cost: u64,
        rec: &Recorder,
    ) -> Observed {
        let mut vals: Vec<Option<(u8, u64)>> = self
            .scalars
            .iter()
            .map(|s| store.scalar(sym(s)).map(bits))
            .collect();
        for a in self.arrays {
            let view = store.array(sym(a)).expect("array bound");
            vals.extend((0..view.buf.len()).map(|k| Some(bits(view.buf.get(k)))));
        }
        let events = std::mem::take(&mut *rec.events.lock().unwrap());
        (result, vals, cost, events)
    }

    fn interp(&self) -> Observed {
        let rec = Arc::new(Recorder::default());
        let machine = self.machine().with_tracer(rec.clone());
        let mut store = self.store();
        let mut state = ExecState::default();
        let result = machine.run_with_state(&mut store, &mut state);
        self.observe(&store, result, state.cost, &rec)
    }

    fn vm(&self, typed: bool) -> (Observed, DispatchCounts) {
        let machine = self.machine();
        let mut compiled = compile_program(machine.program()).expect("compiles");
        optimize_program(&mut compiled);
        if !typed {
            strip_typed(&mut compiled);
        }
        let rec = Recorder::default();
        let mut store = self.store();
        let mut state = ExecState::default();
        let mut counts = DispatchCounts::default();
        let result = Vm::for_machine(&compiled, &machine).run_program_counting(
            &mut store,
            &mut state,
            Some(&rec),
            &mut counts,
        );
        (self.observe(&store, result, state.cost, &rec), counts)
    }

    /// Runs all three and returns the `(typed, untyped)` activations
    /// of the run with typed streams.
    fn check(&self) -> (u64, u64) {
        let interp = self.interp();
        let (typed, counts) = self.vm(true);
        let (value, value_counts) = self.vm(false);
        assert_eq!(value_counts.typed_runs, 0);
        assert_eq!(typed, value, "typed-enabled vs Value-only run diverged");
        assert_eq!(typed, interp, "VM vs interpreter diverged");
        (counts.typed_runs, counts.untyped_runs)
    }
}

fn strip_typed(c: &mut CompiledProgram) {
    for sub in &mut c.subs {
        sub.chunk.typed = None;
    }
}

#[test]
fn a_real_dummy_bound_to_an_integer_actual_runs_the_value_stream() {
    let case = Case {
        src: "
SUBROUTINE main()
  INTEGER k
  DIMENSION A(2)
  k = 3
  CALL half(k, A)
END

SUBROUTINE half(x, A)
  REAL x
  DIMENSION A(*)
  A(1) = x / 2
  x = x / 2
  A(2) = x
END
",
        seed: vec![],
        inputs: vec![],
        scalars: &["k"],
        arrays: &["A"],
    };
    // `main` runs typed; `half` sees an Int where it declares REAL.
    assert_eq!(case.check(), (1, 1));
}

#[test]
fn an_integer_scalar_seeded_with_a_real_runs_the_value_stream() {
    let case = Case {
        src: "
SUBROUTINE main()
  INTEGER n, i
  DIMENSION A(4)
  DO i = 1, 4
    A(i) = n + i
  ENDDO
END
",
        seed: vec![("n", Value::Real(2.5))],
        inputs: vec![],
        scalars: &["n", "i"],
        arrays: &["A"],
    };
    assert_eq!(case.check(), (0, 1));
    // The same program seeded as declared is admitted.
    let declared = Case {
        seed: vec![("n", Value::Int(2))],
        ..case
    };
    assert_eq!(declared.check(), (1, 0));
}

#[test]
fn a_read_target_makes_the_block_dynamic() {
    let case = Case {
        src: "
SUBROUTINE main()
  INTEGER n, m
  READ(*,*) n
  m = n * 2
  y = n * 2
END
",
        seed: vec![],
        inputs: vec![("n", Value::Real(2.75))],
        scalars: &["n", "m", "y"],
        arrays: &[],
    };
    assert_eq!(case.check(), (0, 1));
}

#[test]
fn if_arms_leaving_int_and_real_make_the_block_dynamic() {
    // The THEN arm's copy-out leaves `k` Real (`half` declares its
    // dummy REAL), the fall-through leaves it Int: the read after the
    // join sees both.
    let case = Case {
        src: "
SUBROUTINE main()
  INTEGER k, m
  k = 3
  IF (m .GT. 0) THEN
    CALL half(k)
  ENDIF
  y = k + 1
END

SUBROUTINE half(x)
  REAL x
  x = x / 2
END
",
        seed: vec![("m", Value::Int(1))],
        inputs: vec![],
        scalars: &["k", "y"],
        arrays: &[],
    };
    assert_eq!(case.check(), (0, 2));
    let skipped = Case {
        seed: vec![("m", Value::Int(0))],
        ..case
    };
    assert_eq!(skipped.check(), (0, 1));
}

/// `main` with `y` set from a nest of `MAX`es that holds `nregs`
/// registers at its deepest point (each level keeps 31 arguments live
/// while the 32nd, the next level, evaluates; at most 32 arguments
/// each, so every intrinsic has a typed form), after a read-modify-write
/// whose `REAL` subscript expands its superinstruction onto the two
/// scratch registers (which, were they allowed past the file, would
/// alias `r0` and `r1`, the element's value among them).
fn wide(nregs: usize) -> Case {
    let args = |n: usize| -> Vec<&str> { (0..n).map(|j| ["k", "m"][j % 2]).collect() };
    let mut max = format!("MAX({})", args(nregs % 31).join(", "));
    for _ in 0..nregs / 31 {
        max = format!("MAX({}, {max})", args(31).join(", "));
    }
    let src = format!(
        "
SUBROUTINE main()
  INTEGER k, m
  REAL x, z, y, w
  DIMENSION A(4)
  A(2) = 7.25
  A(x) = A(x) + 1.5
  w = z + A(x)
  y = {max}
END
"
    );
    Case {
        src: Box::leak(src.into_boxed_str()),
        seed: vec![
            ("k", Value::Int(3)),
            ("m", Value::Int(5)),
            ("x", Value::Real(2.5)),
            ("z", Value::Real(1.5)),
        ],
        inputs: vec![],
        scalars: &["y", "w"],
        arrays: &["A"],
    }
}

#[test]
fn a_chunk_past_the_typed_register_file_runs_the_value_stream() {
    for (nregs, runs) in [(254, (1, 0)), (255, (0, 1)), (256, (0, 1))] {
        let case = wide(nregs);
        let mut compiled = compile_program(case.machine().program()).expect("compiles");
        assert_eq!(compiled.subs[0].chunk.nregs, nregs);
        optimize_program(&mut compiled);
        assert_eq!(
            compiled.subs[0].chunk.typed.is_some(),
            runs.0 == 1,
            "{nregs} registers and 2 scratch in a 256-entry file"
        );
        assert_eq!(case.check(), runs, "{nregs} registers");
    }
}
