//! LRPD-style thread-level speculation (the paper's last-resort test,
//! citing Rauchwerger & Padua \[25\]).
//!
//! The loop runs speculatively in chunks, through the executor's one
//! chunked-DO driver (`exec::run_chunks`): each chunk starts from the
//! scalars the sequential loop has at its first iteration, and a commit
//! leaves the loop's scalars as the parallel path's does. Every
//! monitored array is shared; what LRPD adds is the chunk's runner: one
//! VM activation under an `IterTracer`, which is also the activation's
//! observer and takes each iteration's ordinal as it starts, while
//! *shadow arrays* mark, per element, the last iteration that wrote it
//! and the least and the greatest that read it. An element written by
//! one iteration and read by another (its reader witnesses are not both
//! the writer), or written by two (the second swap of the writer sees
//! the first: swaps of one element are totally ordered), is a
//! cross-iteration dependence: the arrays are restored from a backup and
//! the loop re-runs sequentially.
//! Shadows are per buffer: each monitored array's buffer gets one, and
//! an access finds it by the buffer's address, so an access through a
//! callee's formal, whatever its name, is marked like one through the
//! loop's own name.
//! The verdict is a scan of the shadows *after the join*, which orders
//! every mark before it, so no interleaving can hide a conflict; what
//! the marks notice on the fly only lets chunks stop early.
//! A caller's tracer sees a committed attempt, which is the run, access
//! for access: each chunk holds its accesses until the verdict. An
//! aborted attempt's writes are rolled back, so it reports nothing; the
//! sequential re-run reports its own.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use lip_ir::{AccessTracer, ArrayBuf, ArrayView, RunError, Stmt, Store, Subroutine};
use lip_symbolic::Sym;
use lip_vm::{IterObserver, Scalars};

use crate::backend::{DoShape, ExecEnv};
use crate::exec::{run_chunks, run_seq_do, BodyPlan, Chunks};
use crate::merge::{clone_buf, copy_back};

/// No writer / no reader yet: iterations are ordinals from 0.
const NONE: i64 = -1;

/// Per-array shadow state, per element: the last writing iteration
/// (swapped in) and the least and greatest reading one.
struct Shadow {
    writer: Vec<AtomicI64>,
    min_reader: Vec<AtomicI64>,
    max_reader: Vec<AtomicI64>,
}

impl Shadow {
    /// Whether element `k` was read by an iteration other than `iter`.
    fn read_by_other(&self, k: usize, iter: i64) -> bool {
        let hi = self.max_reader[k].load(Ordering::Relaxed);
        hi != NONE && (hi != iter || self.min_reader[k].load(Ordering::Relaxed) != iter)
    }
}

/// The shadow detector of LRPD and the inspector's [`dry_run`]: one
/// shadow per monitored buffer, and whether a mark noticed a conflict
/// on the fly — a sure one, not every one: it stops chunks early and
/// holds the write/write conflicts.
struct SpecState {
    shadows: Vec<(Arc<ArrayBuf>, Shadow)>,
    noticed: AtomicBool,
}

impl SpecState {
    /// Clean shadows for the buffers `frame` binds to `arrays`, one per
    /// buffer however many of the names share it.
    fn new(frame: &Store, arrays: &[Sym]) -> SpecState {
        let fill = |len: usize, v: i64| (0..len).map(|_| AtomicI64::new(v)).collect();
        let mut shadows: Vec<(Arc<ArrayBuf>, Shadow)> = Vec::new();
        for view in arrays.iter().filter_map(|a| frame.array(*a)) {
            if shadows.iter().any(|(b, _)| Arc::ptr_eq(b, &view.buf)) {
                continue;
            }
            let len = view.buf.len();
            let shadow = Shadow {
                writer: fill(len, NONE),
                min_reader: fill(len, i64::MAX),
                max_reader: fill(len, NONE),
            };
            shadows.push((view.buf.clone(), shadow));
        }
        SpecState {
            shadows,
            noticed: AtomicBool::new(false),
        }
    }

    fn noticed(&self) -> bool {
        self.noticed.load(Ordering::Relaxed)
    }

    /// The verdict, once every mark happened before this call (after
    /// the join): whether two distinct iterations touched one element,
    /// one of them writing.
    fn conflict(&self) -> bool {
        self.noticed()
            || self.shadows.iter().any(|(_, sh)| {
                let writers = sh.writer.iter().map(|w| w.load(Ordering::Relaxed));
                (writers.enumerate()).any(|(k, w)| w != NONE && sh.read_by_other(k, w))
            })
    }
}

/// One chunk's accesses, held for the caller's tracer until the
/// verdict is in.
struct Held {
    /// The buffers the events name, by the address an access reached:
    /// the input's own, or a copy taken at its first access of one the
    /// run drops (a callee's local).
    bufs: Vec<(usize, Arc<ArrayBuf>)>,
    /// `(write, name, buffer, element)`, in order.
    events: Vec<(bool, Sym, usize, usize)>,
}

impl Held {
    fn new(frame: &Store) -> Held {
        let bufs = frame
            .arrays()
            .map(|(_, view)| (Arc::as_ptr(&view.buf) as usize, view.buf.clone()));
        Held {
            bufs: bufs.collect(),
            events: Vec::new(),
        }
    }

    fn push(&mut self, write: bool, arr: Sym, buf: &ArrayBuf, idx: usize) {
        let at = buf as *const ArrayBuf as usize;
        let k = match self.bufs.iter().position(|(a, _)| *a == at) {
            Some(k) => k,
            None => {
                self.bufs.push((at, clone_buf(buf)));
                self.bufs.len() - 1
            }
        };
        self.events.push((write, arr, k, idx));
    }

    fn replay(&self, to: &dyn AccessTracer) {
        for &(write, arr, k, idx) in &self.events {
            let buf = &self.bufs[k].1;
            if write {
                to.write(arr, buf, idx);
            } else {
                to.read(arr, buf, idx);
            }
        }
    }
}

/// One chunk's tracer: it marks as the iteration that runs, by its
/// ordinal from the loop's `lo`, and holds its accesses for the
/// caller's tracer when there is one.
struct IterTracer<'s> {
    state: &'s SpecState,
    lo: i64,
    iter: AtomicI64,
    held: Option<&'s Mutex<Held>>,
}

/// The chunk's observer: each iteration's start sets the ordinal the
/// tracer marks as, and a conflict noticed anywhere ends the chunk.
impl IterObserver for &IterTracer<'_> {
    fn enter(&mut self, i: i64, _: u64, _: Scalars<'_>) -> bool {
        self.iter.store(i.wrapping_sub(self.lo), Ordering::Relaxed);
        !self.state.noticed()
    }
}

impl IterTracer<'_> {
    /// The shadow of `buf`, if it is monitored.
    fn shadow(&self, buf: &ArrayBuf) -> Option<&Shadow> {
        let shadows = &self.state.shadows;
        let found = shadows.iter().find(|(b, _)| std::ptr::eq(&**b, buf));
        found.map(|(_, sh)| sh)
    }
}

impl AccessTracer for IterTracer<'_> {
    fn read(&self, arr: Sym, buf: &ArrayBuf, idx: usize) {
        if let Some(held) = self.held {
            held.lock().unwrap().push(false, arr, buf, idx);
        }
        let Some(sh) = self.shadow(buf) else {
            return;
        };
        let iter = self.iter.load(Ordering::Relaxed);
        sh.min_reader[idx].fetch_min(iter, Ordering::Relaxed);
        sh.max_reader[idx].fetch_max(iter, Ordering::Relaxed);
        let w = sh.writer[idx].load(Ordering::Relaxed);
        if w != NONE && w != iter {
            self.state.noticed.store(true, Ordering::Relaxed);
        }
    }

    fn write(&self, arr: Sym, buf: &ArrayBuf, idx: usize) {
        if let Some(held) = self.held {
            held.lock().unwrap().push(true, arr, buf, idx);
        }
        let Some(sh) = self.shadow(buf) else {
            return;
        };
        let iter = self.iter.load(Ordering::Relaxed);
        let prev = sh.writer[idx].swap(iter, Ordering::Relaxed);
        if (prev != NONE && prev != iter) || sh.read_by_other(idx, iter) {
            self.state.noticed.store(true, Ordering::Relaxed);
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

/// The speculation driver on the unit-step DO `shape` over `body`: a
/// chunked run under the shadows of `arrays`, committed when no two
/// iterations met, otherwise restored from a backup and re-run
/// sequentially. Either way `frame` ends as the sequential loop leaves
/// it, the scalars `plan` names and the loop variable included.
///
/// The units are the body's in the run that produced the result. An
/// aborted attempt's units depend on how far each chunk got before the
/// conflict stopped it — on the schedule — so they are not charged to
/// the loop but counted apart, as `lrpd.aborted_units`.
pub(crate) fn lrpd_execute_impl(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    shape: &DoShape,
    body: &[Stmt],
    frame: &mut Store,
    arrays: &[Sym],
    plan: &BodyPlan<'_>,
) -> Result<(LrpdOutcome, u64), RunError> {
    let backups: Vec<(Arc<ArrayBuf>, Arc<ArrayBuf>)> = arrays
        .iter()
        .filter_map(|a| frame.array(*a))
        .map(|view| (view.buf.clone(), clone_buf(&view.buf)))
        .collect();
    let tracer = env.tracer();
    let (conflict, chunks) = marked(env, sub, shape, body, frame, arrays, plan, tracer)?;
    if !conflict {
        return Ok((LrpdOutcome::Committed, chunks.commit(frame)));
    }
    for (buf, backup) in &backups {
        copy_back(buf, backup);
    }
    env.cache.obs.count("lrpd.aborted_units", chunks.units);
    Ok((
        LrpdOutcome::Aborted,
        run_seq_do(env, sub, shape, body, frame)?,
    ))
}

/// The inspector's dry run (paper §1, citing Rauchwerger, Amato &
/// Padua \[26\]): LRPD's marking run of the unit-step DO `shape` on
/// disposable copies of `arrays`, `frame` untouched. Whether it found a
/// conflict, and the units.
pub(crate) fn dry_run(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    shape: &DoShape,
    body: &[Stmt],
    frame: &Store,
    arrays: &[Sym],
) -> Result<(bool, u64), RunError> {
    let mut scratch = frame.clone();
    for (a, view) in frame.arrays().filter(|(a, _)| arrays.contains(a)) {
        let buf = clone_buf(&view.buf);
        scratch.bind_array(
            a,
            ArrayView {
                buf,
                ..view.clone()
            },
        );
    }
    let plan = BodyPlan::default();
    let (conflict, chunks) = marked(env, sub, shape, body, &scratch, arrays, &plan, None)?;
    Ok((conflict, shape.units + chunks.units))
}

/// `shape` run in chunks on `frame`, each chunk one activation under
/// its [`IterTracer`], marking the shadows of `arrays`; a chunk stops
/// at its next iteration once a mark noticed a conflict. The verdict
/// and the chunks. Without a conflict, the accesses go to `report` in
/// chunk order.
#[allow(clippy::too_many_arguments)]
fn marked<'a>(
    env: &'a ExecEnv<'_>,
    sub: &'a Subroutine,
    shape: &DoShape,
    body: &[Stmt],
    frame: &Store,
    arrays: &[Sym],
    plan: &BodyPlan<'a>,
    report: Option<&dyn AccessTracer>,
) -> Result<(bool, Chunks<'a>), RunError> {
    let spec = SpecState::new(frame, arrays);
    let held = Mutex::new(Vec::new());
    let chunks = run_chunks(env, sub, shape, body, frame, plan, |c| {
        let chunk = report.map(|_| Mutex::new(Held::new(frame)));
        let tracer = IterTracer {
            state: &spec,
            lo: shape.lo,
            iter: AtomicI64::new(NONE),
            held: chunk.as_ref(),
        };
        let range = (c.var, c.lo, c.hi, 1);
        c.cb.run(env, &mut c.f, range, &mut c.st, Some(&tracer), &mut &tracer)?;
        if let Some(chunk) = chunk {
            held.lock()
                .unwrap()
                .push((c.idx, chunk.into_inner().unwrap()));
        }
        Ok(())
    })?;
    let conflict = spec.conflict();
    if let (Some(to), false) = (report, conflict) {
        let mut held = held.into_inner().unwrap();
        held.sort_by_key(|(k, _)| *k);
        held.iter().for_each(|(_, chunk)| chunk.replay(to));
    }
    Ok((conflict, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use lip_ir::{parse_program, ExecState, Machine, Stmt, Value};
    use lip_symbolic::sym;

    /// The order the on-the-fly detector missed: a later iteration
    /// reads the element, then the writer reads it and writes it. The
    /// writer's own read hides the first reader from a one-witness
    /// shadow; the least / greatest witnesses keep both, and the scan
    /// after the join finds them.
    #[test]
    fn a_read_before_the_writers_own_read_is_a_conflict() {
        let mut frame = Store::new();
        let a = frame.alloc_real(sym("A"), 4);
        let spec = SpecState::new(&frame, &[sym("A")]);
        let later = IterTracer {
            state: &spec,
            lo: 0,
            iter: AtomicI64::new(32),
            held: None,
        };
        let writer = IterTracer {
            state: &spec,
            lo: 0,
            iter: AtomicI64::new(0),
            held: None,
        };
        later.read(sym("A"), &a, 0);
        writer.read(sym("A"), &a, 0);
        writer.write(sym("A"), &a, 0);
        assert!(spec.conflict(), "iteration 32 read what iteration 0 wrote");
        // An element only its writer touches is no conflict.
        let spec = SpecState::new(&frame, &[sym("A")]);
        let own = IterTracer {
            state: &spec,
            lo: 0,
            iter: AtomicI64::new(5),
            held: None,
        };
        own.read(sym("A"), &a, 1);
        own.write(sym("A"), &a, 1);
        own.read(sym("A"), &a, 1);
        assert!(!spec.conflict());
    }

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
        let (outcome, units) = session2()
            .lrpd_execute(&machine, &sub, &target, &frame, &[sym("A")])
            .expect("runs");
        assert_eq!(outcome, LrpdOutcome::Committed);
        let a = frame.array(sym("A")).expect("A");
        for i in 1..=10usize {
            let expected = if i % 2 == 0 { 1.0 } else { 0.0 };
            assert_eq!(a.get_f64(i - 1), expected, "A({i})");
        }
        // Charged as the interpreter charges the loop: the step once.
        let mut st = ExecState::default();
        machine
            .exec_stmt(&sub, &mut frame.clone(), &target, &mut st)
            .expect("interpreter");
        assert_eq!(units, st.cost);
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
