//! The inspector/executor runtime test (paper §1, citing Rauchwerger,
//! Amato & Padua \[26\]).
//!
//! Where LRPD speculates on shared state (and must restore on
//! conflict), the inspector first *dry-runs* the loop on a disposable
//! copy of the written arrays while shadow-recording accesses; if no
//! cross-iteration conflict is observed, the real loop executes in
//! parallel directly on the shared state — no backup, no restore, at
//! the cost of executing the loop body twice (which is why the paper
//! prefers predicates and uses reference-proportional tests last).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use lip_ir::{
    AccessTracer, ArrayBuf, ArrayView, ExecState, Machine, RunError, Stmt, Store, Subroutine, Ty,
    Value,
};
use lip_symbolic::Sym;

use crate::pool::parallel_chunks;

struct Shadow {
    writer: Vec<AtomicI64>,
    reader: Vec<AtomicI64>,
}

struct InspectState {
    shadows: HashMap<Sym, Shadow>,
    conflict: AtomicBool,
}

struct IterTracer {
    state: Arc<InspectState>,
    iter: i64,
}

impl AccessTracer for IterTracer {
    fn read(&self, arr: Sym, idx: usize) {
        if let Some(sh) = self.state.shadows.get(&arr) {
            if let Some(w) = sh.writer.get(idx) {
                let prev = w.load(Ordering::Relaxed);
                if prev >= 0 && prev != self.iter {
                    self.state.conflict.store(true, Ordering::Relaxed);
                }
                sh.reader[idx].store(self.iter, Ordering::Relaxed);
            }
        }
    }

    fn write(&self, arr: Sym, idx: usize) {
        if let Some(sh) = self.state.shadows.get(&arr) {
            if let Some(w) = sh.writer.get(idx) {
                let prev = w.swap(self.iter, Ordering::Relaxed);
                let r = sh.reader[idx].load(Ordering::Relaxed);
                if (prev >= 0 && prev != self.iter) || (r >= 0 && r != self.iter) {
                    self.state.conflict.store(true, Ordering::Relaxed);
                }
            }
        }
    }
}

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
    let mut shadows = HashMap::new();
    for a in arrays {
        if let Some(view) = frame.array(*a) {
            let copy = clone_buf(&view.buf);
            scratch.bind_array(
                *a,
                ArrayView {
                    buf: copy,
                    offset: view.offset,
                    extents: view.extents.clone(),
                },
            );
            let len = view.buf.len();
            shadows.insert(
                *a,
                Shadow {
                    writer: (0..len).map(|_| AtomicI64::new(-1)).collect(),
                    reader: (0..len).map(|_| AtomicI64::new(-1)).collect(),
                },
            );
        }
    }
    let st = Arc::new(InspectState {
        shadows,
        conflict: AtomicBool::new(false),
    });

    for i in lo_v..=hi_v {
        let tracer = Arc::new(IterTracer {
            state: st.clone(),
            iter: i,
        });
        let traced = machine.with_tracer(tracer);
        scratch.set_scalar(*var, Value::Int(i));
        traced.exec_block(sub, &mut scratch, body, &mut state)?;
        if st.conflict.load(Ordering::Relaxed) {
            return Ok((InspectVerdict::Dependent, state.cost));
        }
    }
    Ok((InspectVerdict::Independent, state.cost))
}

/// Inspector/executor: inspect on disposable state, then execute the
/// loop — in parallel when independent, sequentially otherwise. Unlike
/// [`crate::Session::lrpd_execute`] there is never anything to roll
/// back.
///
/// Returns the verdict and total work units (inspection + execution).
///
/// # Errors
///
/// Propagates interpreter failures.
pub fn inspect_execute(
    machine: &Machine,
    sub: &Subroutine,
    target: &Stmt,
    frame: &mut Store,
    arrays: &[Sym],
    nthreads: usize,
) -> Result<(InspectVerdict, u64), RunError> {
    let (verdict, inspect_cost) = inspect(machine, sub, target, frame, arrays)?;
    let Stmt::Do {
        var, lo, hi, body, ..
    } = target
    else {
        return Ok((verdict, inspect_cost));
    };
    let mut state = ExecState::default();
    match verdict {
        InspectVerdict::Independent => {
            let lo_v = machine.eval(sub, frame, lo, &mut state)?.as_i64();
            let hi_v = machine.eval(sub, frame, hi, &mut state)?.as_i64();
            let cost = std::sync::Mutex::new(state.cost + inspect_cost);
            parallel_chunks(nthreads, lo_v, hi_v, |_, c_lo, c_hi| {
                let mut local = frame.clone();
                let mut st = ExecState::default();
                for i in c_lo..=c_hi {
                    local.set_scalar(*var, Value::Int(i));
                    machine.exec_block(sub, &mut local, body, &mut st)?;
                }
                *cost.lock().unwrap() += st.cost;
                Ok::<(), RunError>(())
            })?;
            Ok((verdict, cost.into_inner().unwrap()))
        }
        InspectVerdict::Dependent => {
            machine.exec_stmt(sub, frame, target, &mut state)?;
            Ok((verdict, inspect_cost + state.cost))
        }
    }
}

fn clone_buf(buf: &Arc<ArrayBuf>) -> Arc<ArrayBuf> {
    let snap = buf.snapshot();
    match buf.ty() {
        Ty::Int => ArrayBuf::from_i64(&snap.iter().map(|v| v.as_i64()).collect::<Vec<_>>()),
        Ty::Real => ArrayBuf::from_f64(&snap.iter().map(|v| v.as_f64()).collect::<Vec<_>>()),
    }
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
    fn executor_runs_parallel_after_clean_inspection() {
        let (machine, sub, target) = setup(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = A(B(i)) + 1.0
  ENDDO
END
",
            "l1",
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 64);
        frame.alloc_real(sym("A"), 128);
        let b = frame.alloc_int(sym("B"), 64);
        for i in 0..64 {
            b.set(i, Value::Int(2 * i as i64 + 1)); // injective
        }
        let (verdict, _) =
            inspect_execute(&machine, &sub, &target, &mut frame, &[sym("A")], 2).expect("runs");
        assert_eq!(verdict, InspectVerdict::Independent);
        let a = frame.array(sym("A")).expect("A");
        assert_eq!(a.get_f64(0), 1.0);
        assert_eq!(a.get_f64(1), 0.0);
    }

    #[test]
    fn conflicting_loop_detected_and_run_sequentially() {
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
        let (verdict, _) =
            inspect_execute(&machine, &sub, &target, &mut frame, &[sym("A")], 2).expect("runs");
        assert_eq!(verdict, InspectVerdict::Dependent);
        let a = frame.array(sym("A")).expect("A");
        assert_eq!(a.get_f64(0), (50 * 51 / 2) as f64);
    }
}
