//! LRPD-style thread-level speculation (the paper's last-resort test,
//! citing Rauchwerger & Padua \[25\]).
//!
//! The loop runs speculatively in parallel while *shadow arrays* record,
//! per element, which iteration last wrote it and whether any other
//! iteration read it. A cross-iteration conflict (write/write or
//! read-write between distinct iterations) marks the speculation failed;
//! the arrays are then restored from a backup and the loop re-runs
//! sequentially.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use lip_ir::{AccessTracer, ExecState, Machine, RunError, Stmt, Store, Subroutine, Value};
use lip_symbolic::Sym;
use std::sync::Mutex;

use crate::backend::{exec_stmt_seq, CompiledBody, ExecEnv};
use crate::pool::parallel_chunks;

/// Per-array shadow state.
struct Shadow {
    /// Last writing iteration per element (-1 = none).
    writer: Vec<AtomicI64>,
    /// Any reading iteration per element (-1 = none; only one witness is
    /// needed to detect a cross-iteration read/write pair).
    reader: Vec<AtomicI64>,
}

/// The shadow detector both reference-proportional tests share (LRPD
/// here, the dry run in [`crate::inspector`]): per-element shadows for
/// the monitored arrays plus the conflict flag.
pub(crate) struct SpecState {
    shadows: HashMap<Sym, Shadow>,
    conflict: AtomicBool,
}

impl SpecState {
    /// Clean shadows for every one of `arrays` that `frame` binds.
    pub(crate) fn new(frame: &Store, arrays: &[Sym]) -> Arc<SpecState> {
        let fresh = |len: usize| (0..len).map(|_| AtomicI64::new(-1)).collect();
        let shadows = arrays
            .iter()
            .filter_map(|a| {
                let len = frame.array(*a)?.buf.len();
                let shadow = Shadow {
                    writer: fresh(len),
                    reader: fresh(len),
                };
                Some((*a, shadow))
            })
            .collect();
        Arc::new(SpecState {
            shadows,
            conflict: AtomicBool::new(false),
        })
    }

    /// Whether any two distinct iterations touched one element, one of
    /// them writing.
    pub(crate) fn conflict(&self) -> bool {
        self.conflict.load(Ordering::Relaxed)
    }
}

/// The tracer bound to one iteration.
pub(crate) struct IterTracer {
    pub(crate) state: Arc<SpecState>,
    pub(crate) iter: i64,
}

impl AccessTracer for IterTracer {
    fn read(&self, arr: Sym, idx: usize) {
        let Some(sh) = self.state.shadows.get(&arr) else {
            return;
        };
        let Some(w) = sh.writer.get(idx) else { return };
        let prev_writer = w.load(Ordering::Relaxed);
        if prev_writer >= 0 && prev_writer != self.iter {
            self.state.conflict.store(true, Ordering::Relaxed);
        }
        sh.reader[idx].store(self.iter, Ordering::Relaxed);
    }

    fn write(&self, arr: Sym, idx: usize) {
        let Some(sh) = self.state.shadows.get(&arr) else {
            return;
        };
        let Some(w) = sh.writer.get(idx) else { return };
        let prev_writer = w.swap(self.iter, Ordering::Relaxed);
        if prev_writer >= 0 && prev_writer != self.iter {
            self.state.conflict.store(true, Ordering::Relaxed);
        }
        let r = sh.reader[idx].load(Ordering::Relaxed);
        if r >= 0 && r != self.iter {
            self.state.conflict.store(true, Ordering::Relaxed);
        }
    }
}

/// Result of a speculative run.
#[derive(Clone, Debug, PartialEq)]
pub enum LrpdOutcome {
    /// Speculation committed: the loop ran in parallel.
    Committed,
    /// A conflict was detected; the loop re-ran sequentially after
    /// restoring the backup.
    Aborted,
}

/// The speculation driver behind [`crate::Session::lrpd_execute`]:
/// both the speculative parallel run and the sequential recovery
/// execute compiled bytecode, with the shadow-array instrumentation on
/// the per-iteration access stream. The body compiles at most once per
/// machine (the session's [`crate::cache::MachineCache`]), so repeated
/// speculation on the same loop skips straight to execution.
pub(crate) fn lrpd_execute_impl(
    env: &ExecEnv<'_>,
    machine: &Machine,
    sub: &Subroutine,
    target: &Stmt,
    frame: &Store,
    arrays: &[Sym],
) -> Result<(LrpdOutcome, u64), RunError> {
    let Stmt::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = target
    else {
        return Err(RunError::Unsupported(lip_symbolic::sym(
            "LRPD speculation takes a DO loop",
        )));
    };
    let mut state = ExecState::default();
    // The chunked speculative driver assumes a unit-stride iteration
    // space; any other step executes sequentially instead (correct by
    // construction, so the "speculation" trivially commits).
    if let Some(e) = step {
        if machine.eval(sub, frame, e, &mut state)?.as_i64() != 1 {
            let mut seq_frame = frame.clone();
            let mut st = ExecState::default();
            exec_stmt_seq(env, machine, sub, target, &mut seq_frame, &mut st)?;
            return Ok((LrpdOutcome::Committed, state.cost + st.cost));
        }
    }
    let cb = CompiledBody::new(env.cache, machine, sub, body, &[], &[*var])?;
    let lo_v = machine.eval(sub, frame, lo, &mut state)?.as_i64();
    let hi_v = machine.eval(sub, frame, hi, &mut state)?.as_i64();

    // Backup + shadow allocation.
    let backups: Vec<(Sym, Vec<Value>)> = arrays
        .iter()
        .filter_map(|a| Some((*a, frame.array(*a)?.buf.snapshot())))
        .collect();
    let spec = SpecState::new(frame, arrays);

    // Speculative parallel execution.
    let var_slot = cb.chunk().scalar_slot(*var).expect("interned");
    let cost = Mutex::new(state.cost);
    parallel_chunks(env.nthreads, lo_v, hi_v, |_, c_lo, c_hi| {
        let mut st = ExecState::default();
        let mut f = cb.frame(frame);
        for i in c_lo..=c_hi {
            if spec.conflict() {
                break;
            }
            let tracer = IterTracer {
                state: spec.clone(),
                iter: i,
            };
            f.set_scalar(var_slot, Value::Int(i));
            cb.vm(machine)
                .run_block(cb.block, &mut f, &mut st, Some(&tracer))?;
        }
        *cost.lock().unwrap() += st.cost;
        Ok::<(), RunError>(())
    })?;
    let mut total_cost = cost.into_inner().unwrap();

    if spec.conflict() {
        // Restore and re-run sequentially.
        for (a, snap) in &backups {
            if let Some(view) = frame.array(*a) {
                view.buf.restore(snap);
            }
        }
        let mut seq_frame = frame.clone();
        let mut st = ExecState::default();
        exec_stmt_seq(env, machine, sub, target, &mut seq_frame, &mut st)?;
        total_cost += st.cost;
        return Ok((LrpdOutcome::Aborted, total_cost));
    }
    Ok((LrpdOutcome::Committed, total_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    fn session2() -> Session {
        Session::builder().nthreads(2).build()
    }

    fn setup(src: &str) -> (Machine, Subroutine, Stmt) {
        let prog = parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        (Machine::new(prog), sub, target)
    }

    #[test]
    fn independent_loop_commits() {
        let (machine, sub, target) = setup(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = i * 2
  ENDDO
END
",
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 64);
        frame.alloc_real(sym("A"), 64);
        let (outcome, _) = session2()
            .lrpd_execute(&machine, &sub, &target, &frame, &[sym("A")])
            .expect("runs");
        assert_eq!(outcome, LrpdOutcome::Committed);
        let a = frame.array(sym("A")).expect("A");
        assert_eq!(a.get_f64(9), 20.0);
        assert_eq!(a.get_f64(63), 128.0);
    }

    #[test]
    fn conflicting_loop_aborts_and_recovers() {
        // A(1) accumulates: every iteration writes the same element.
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
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 100);
        frame.alloc_real(sym("A"), 4);
        let (outcome, _) = session2()
            .lrpd_execute(&machine, &sub, &target, &frame, &[sym("A")])
            .expect("runs");
        assert_eq!(outcome, LrpdOutcome::Aborted);
        // The sequential re-run must produce the exact sum.
        let a = frame.array(sym("A")).expect("A");
        assert_eq!(a.get_f64(0), 5050.0);
    }

    #[test]
    fn non_unit_step_loops_execute_sequentially_and_correctly() {
        // DO i = 10, 1, -2: the chunked driver assumes unit stride, so
        // this must take the sequential path — and produce the right
        // answer (regression: it used to run zero iterations and
        // "commit").
        let (machine, sub, target) = setup(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = N, 1, -2
    A(i) = 1.0
  ENDDO
END
",
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 10);
        frame.alloc_real(sym("A"), 10);
        let (outcome, _) = session2()
            .lrpd_execute(&machine, &sub, &target, &frame, &[sym("A")])
            .expect("runs");
        assert_eq!(outcome, LrpdOutcome::Committed);
        let a = frame.array(sym("A")).expect("A");
        for i in 1..=10usize {
            let expected = if i % 2 == 0 { 1.0 } else { 0.0 };
            assert_eq!(a.get_f64(i - 1), expected, "A({i})");
        }
    }

    #[test]
    fn indirect_accesses_commit_when_injective() {
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
        );
        let mut frame = Store::new();
        frame.set_int(sym("N"), 32);
        frame.alloc_real(sym("A"), 64);
        let b = frame.alloc_int(sym("B"), 32);
        for i in 0..32 {
            b.set(i, Value::Int((i as i64) * 2 + 1)); // injective
        }
        let (outcome, _) = session2()
            .lrpd_execute(&machine, &sub, &target, &frame, &[sym("A")])
            .expect("runs");
        assert_eq!(outcome, LrpdOutcome::Committed);
    }
}
