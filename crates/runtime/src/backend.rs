//! The one execution path: compiled, fused register bytecode.
//!
//! Every driver a [`crate::Plan`] sends a run to — the chunked DO of
//! the predicate-guarded parallel path and of LRPD speculation, the
//! fission fragments, the sequential fallbacks — and those the plan
//! runs itself (the CIV slice) or the cost model does (the measurement
//! pass) take one [`ExecEnv`] and run loop iterations on the `lip_vm` VM
//! through a `CompiledBody` fetched from the program's compile cache:
//! a DO's iterations at any step — a chunk, a sequential DO, a CIV
//! slice, the measured loop — as one VM activation, a WHILE trip by
//! trip.
//! The VM shares `lip_ir`'s value/runtime model (`Value`, `ArrayBuf`,
//! `AccessTracer`, work-unit accounting), so outputs, traced access
//! streams and work-unit counts are those of the tree-walking
//! `lip_ir::Machine` — which is what the differential suites check. The
//! environment's machine delivers READ inputs and the tracer, and
//! evaluates a DO's bounds once per run ([`ExecEnv::do_shape`]) into the
//! [`DoShape`] the plan carries and every driver reads; no statement
//! runs on it. A program beyond the VM's static limits is an explicit
//! [`RunError::Unsupported`]; `Machine::exec_stmt` remains the way to
//! run one.

use std::sync::Arc;

use lip_ir::{AccessTracer, ExecState, Expr, Machine, RunError, Stmt, Store, Subroutine};
use lip_symbolic::Sym;
use lip_vm::{DispatchCounts, Frame, IterObserver, Unobserved, Vm};

use crate::cache::{CompiledBody, ProgramCache};

/// The one execution context every driver takes: the program with its
/// READ inputs and tracer (a `Machine`, which evaluates a DO's bounds,
/// never a statement) and the program's cache, which carries the
/// session settings it runs under.
pub(crate) struct ExecEnv<'a> {
    pub machine: &'a Machine,
    pub cache: &'a ProgramCache,
}

impl<'a> ExecEnv<'a> {
    /// The machine's tracer, which VM paths honor like the interpreter.
    pub fn tracer(&self) -> Option<&'a dyn AccessTracer> {
        self.machine.tracer().map(|t| &**t as &dyn AccessTracer)
    }

    /// The evaluated iteration space of `target`, `None` unless it is a
    /// DO: `lo`, `hi` and `step` in `frame`, each charged to `st` as the
    /// interpreter charges them. The one place the runtime evaluates an
    /// expression on the tree-walker.
    pub fn do_shape(
        &self,
        sub: &Subroutine,
        target: &Stmt,
        frame: &Store,
        st: &mut ExecState,
    ) -> Result<Option<DoShape>, RunError> {
        let Stmt::Do {
            var, lo, hi, step, ..
        } = target
        else {
            return Ok(None);
        };
        let before = st.cost;
        let mut eval = |e: &Expr| Ok::<_, RunError>(self.machine.eval(sub, frame, e, st)?.as_i64());
        let (lo, hi) = (eval(lo)?, eval(hi)?);
        let step = step.as_ref().map_or(Ok(1), eval)?;
        if step == 0 {
            return Err(RunError::BadIndex(*var));
        }
        Ok(Some(DoShape {
            var: *var,
            lo,
            hi,
            step,
            units: st.cost - before,
        }))
    }

    /// `stmts` in `sub`'s context plus attached expression fragments
    /// and extra scalar slots, compiled at most once per program and
    /// shape; [`RunError::Unsupported`] when the program or block
    /// exceeds the VM's static limits.
    pub fn body(
        &self,
        sub: &Subroutine,
        stmts: &[Stmt],
        exprs: &[&Expr],
        extra: &[Sym],
    ) -> Result<Arc<CompiledBody>, RunError> {
        let prog = self.machine.program();
        self.cache.body(prog, sub, stmts, exprs, extra)
    }
}

/// The evaluated iteration space of a DO loop, as a run evaluates it
/// once, before it plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoShape {
    /// The loop variable.
    pub var: Sym,
    /// The first value of the variable.
    pub lo: i64,
    /// The bound it runs to.
    pub hi: i64,
    /// The step (never 0).
    pub step: i64,
    /// What evaluating `lo`, `hi` and `step` charged.
    pub units: u64,
}

/// The body of the DO statement `target`.
pub(crate) fn do_body(target: &Stmt) -> &[Stmt] {
    match target {
        Stmt::Do { body, .. } => body,
        _ => &[],
    }
}

impl DoShape {
    /// Whether this DO's CIV traces are indexed by its variable
    /// (`civ::civ_traces`): a unit step from `lo` ≥ 1, padded by no
    /// more elements than the trace holds. Only then do CIVs run
    /// chunked. The one statement of the rule.
    pub fn traces_by_var(&self) -> bool {
        let trip = (self.hi as i128 - self.lo as i128 + 1).max(0);
        self.step == 1 && self.lo >= 1 && self.lo as i128 - 1 <= trip + 1
    }

    /// This DO's iterations as the VM runs them ([`Vm::run_range`]),
    /// its variable in scalar slot `slot`.
    pub fn range(&self, slot: u16) -> (u16, i64, i64, i64) {
        (slot, self.lo, self.hi, self.step)
    }
}

impl CompiledBody {
    /// The block chunk (slot lookups, frame construction).
    pub fn chunk(&self) -> &lip_vm::Chunk {
        &self.prog.block(self.block).chunk
    }

    /// A frame over the block resolved from `store`.
    pub fn frame(&self, store: &Store) -> Frame {
        Frame::for_chunk(self.chunk(), store)
    }

    /// A VM delivering the program's READ inputs.
    pub fn vm<'p>(&'p self, env: &ExecEnv<'p>) -> Vm<'p> {
        Vm::for_machine(&self.prog, env.machine)
    }

    /// The body over a DO's iterations as one activation
    /// ([`Vm::run_range`]): `range` is `(slot, lo, hi, step)`
    /// ([`DoShape::range`]), and `obs` is called at each iteration's
    /// start ([`Unobserved`] when the driver has nothing to do there).
    /// At trace level through the counting dispatch loops — the typed
    /// stream or the `Value` stream, whichever the guard picks, as in
    /// production — publishing their tally (~2 extra ALU ops per
    /// dispatch, so `metrics` skips it) and the activation counts
    /// `vm.typed_runs` / `vm.untyped_runs`, callee bodies included.
    pub fn run<O: IterObserver>(
        &self,
        env: &ExecEnv<'_>,
        f: &mut Frame,
        range: (u16, i64, i64, i64),
        st: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        obs: &mut O,
    ) -> Result<(), RunError> {
        let vm = self.vm(env);
        env.tallied(|dc| vm.run_range(self.block, f, Some(range), st, tracer, dc, obs))
    }

    /// The body once — a WHILE trip, a whole statement — counted as
    /// [`CompiledBody::run`] counts.
    pub fn run_once(
        &self,
        env: &ExecEnv<'_>,
        f: &mut Frame,
        st: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<(), RunError> {
        let (vm, obs) = (self.vm(env), &mut Unobserved);
        env.tallied(|dc| vm.run_range(self.block, f, None, st, tracer, dc, obs))
    }
}

impl ExecEnv<'_> {
    /// `run` with a dispatch tally at trace level (none below it),
    /// published when it succeeds.
    fn tallied(
        &self,
        run: impl FnOnce(Option<&mut DispatchCounts>) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        let obs = &self.cache.obs;
        let mut tally = obs.trace_enabled().then(DispatchCounts::default);
        run(tally.as_mut())?;
        if let Some(dc) = tally {
            obs.count("vm.ops", dc.ops);
            obs.count("vm.fused_ops", dc.fused_ops);
            obs.count("vm.red_ops", dc.red_ops);
            obs.count("vm.typed_runs", dc.typed_runs);
            obs.count("vm.untyped_runs", dc.untyped_runs);
        }
        Ok(())
    }
}

/// Executes one statement sequentially (a WHILE loop, which the
/// executor never runs in chunks, and the measurement pass's target
/// when it is not a loop).
pub(crate) fn exec_stmt_seq(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    target: &Stmt,
    frame: &mut Store,
    state: &mut ExecState,
) -> Result<(), RunError> {
    let cb = env.body(sub, std::slice::from_ref(target), &[], &[])?;
    let mut f = cb.frame(frame);
    cb.run_once(env, &mut f, state, env.tracer())?;
    f.writeback_scalars(cb.chunk(), frame);
    Ok(())
}

/// A one-chunk cache with the observer off, for the drivers' unit tests.
#[cfg(test)]
pub(crate) fn test_cache() -> ProgramCache {
    let cfg = crate::SessionConfig {
        nthreads: 1,
        ..crate::SessionConfig::default()
    };
    ProgramCache::new(&cfg, lip_obs::Obs::off())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stmt_seq_matches_interpreter() {
        let prog = lip_ir::parse_program(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = A(i) * 2.0 + 1.0
  ENDDO
END
",
        )
        .expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        let machine = Machine::new(prog);
        let mk = || {
            let mut s = Store::new();
            s.set_int(lip_symbolic::sym("N"), 50);
            let a = s.alloc_real(lip_symbolic::sym("A"), 50);
            for i in 0..50 {
                a.set(i, lip_ir::Value::Real(i as f64));
            }
            s
        };
        let cache = test_cache();
        let env = ExecEnv {
            machine: &machine,
            cache: &cache,
        };
        let mut tw = mk();
        let mut st_tw = ExecState::default();
        machine
            .exec_stmt(&sub, &mut tw, &target, &mut st_tw)
            .expect("interpreter");
        let mut bc = mk();
        let mut st_bc = ExecState::default();
        exec_stmt_seq(&env, &sub, &target, &mut bc, &mut st_bc).expect("bytecode");
        assert_eq!(st_tw.cost, st_bc.cost);
        let (a, b) = (
            tw.array(lip_symbolic::sym("A")).expect("A"),
            bc.array(lip_symbolic::sym("A")).expect("A"),
        );
        for i in 0..50 {
            assert_eq!(a.get_f64(i), b.get_f64(i), "element {i}");
        }
    }
}
