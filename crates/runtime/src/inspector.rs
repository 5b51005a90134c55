//! The inspector half of the inspector/executor runtime test (paper §1,
//! citing Rauchwerger, Amato & Padua \[26\]).
//!
//! Where LRPD speculates on shared state (and must restore on
//! conflict), the inspector *dry-runs* the loop on a disposable copy of
//! the written arrays while the shadow detector it shares with
//! [`crate::lrpd`] records accesses; no cross-iteration conflict means
//! the real loop may execute in parallel directly on the shared state —
//! no backup, no restore, at the cost of executing the loop body twice
//! (which is why the paper prefers predicates and uses
//! reference-proportional tests last). No [`crate::Session`] path runs
//! it: the dry run is on the tree-walking `lip_ir::Machine`, and its
//! one caller is the `bench_e2e` probe behind `runtime.exact_test_us`.

use std::sync::Arc;

use lip_ir::{ArrayView, ExecState, Machine, RunError, Stmt, Store, Subroutine, Value};
use lip_symbolic::Sym;

use crate::lrpd::{IterTracer, SpecState};
use crate::merge::clone_buf;

/// Result of the inspection pass.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum InspectVerdict {
    /// No cross-iteration conflicts: the loop may run in parallel.
    Independent,
    /// Conflicts observed: run sequentially.
    Dependent,
}

/// Dry-runs the DO loop `target` against disposable copies of
/// `arrays`, recording cross-iteration conflicts. The shared state in
/// `frame` is left untouched. Returns the verdict and the inspection's
/// work units.
///
/// # Errors
///
/// Propagates interpreter failures from the inspection run.
pub fn inspect(
    machine: &Machine,
    sub: &Subroutine,
    target: &Stmt,
    frame: &Store,
    arrays: &[Sym],
) -> Result<(InspectVerdict, u64), RunError> {
    let Stmt::Do {
        var, lo, hi, body, ..
    } = target
    else {
        return Ok((InspectVerdict::Dependent, 0));
    };
    let mut state = ExecState::default();
    let lo_v = machine.eval(sub, frame, lo, &mut state)?.as_i64();
    let hi_v = machine.eval(sub, frame, hi, &mut state)?.as_i64();

    // Disposable copies of the monitored arrays + shadows.
    let mut scratch = frame.clone();
    for a in arrays {
        if let Some(view) = frame.array(*a) {
            scratch.bind_array(
                *a,
                ArrayView {
                    buf: clone_buf(&view.buf),
                    offset: view.offset,
                    extents: view.extents.clone(),
                },
            );
        }
    }
    let st = SpecState::new(frame, arrays);

    for i in lo_v..=hi_v {
        let tracer = Arc::new(IterTracer {
            state: st.clone(),
            iter: i,
        });
        let traced = machine.with_tracer(tracer);
        scratch.set_scalar(*var, Value::Int(i));
        traced.exec_block(sub, &mut scratch, body, &mut state)?;
        if st.conflict() {
            return Ok((InspectVerdict::Dependent, state.cost));
        }
    }
    Ok((InspectVerdict::Independent, state.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    fn setup(src: &str, label: &str) -> (Machine, Subroutine, Stmt) {
        let prog = parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop(label).expect("loop").clone();
        (Machine::new(prog), sub, target)
    }

    #[test]
    fn inspection_leaves_shared_state_untouched() {
        let (machine, sub, target) = setup(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = A(i) + 1.0
  ENDDO
END
",
            "l1",
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 32);
        let a = frame.alloc_real(sym("A"), 32);
        for i in 0..32 {
            a.set(i, Value::Real(7.0));
        }
        let (verdict, cost) =
            inspect(&machine, &sub, &target, &frame, &[sym("A")]).expect("inspects");
        assert_eq!(verdict, InspectVerdict::Independent);
        assert!(cost > 0);
        // Shared A untouched by the dry run.
        for i in 0..32 {
            assert_eq!(a.get_f64(i), 7.0);
        }
    }

    #[test]
    fn conflicting_loop_is_dependent() {
        let (machine, sub, target) = setup(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(1) = A(1) + i
  ENDDO
END
",
            "l1",
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 50);
        frame.alloc_real(sym("A"), 4);
        let (verdict, _) = inspect(&machine, &sub, &target, &frame, &[sym("A")]).expect("inspects");
        assert_eq!(verdict, InspectVerdict::Dependent);
        // The dry run stopped at the second iteration, on its own copy.
        assert_eq!(frame.array(sym("A")).expect("A").get_f64(0), 0.0);
    }
}
