//! The one execution path: compiled, fused register bytecode.
//!
//! Every driver — the predicate-guarded parallel path, CIV slice
//! precomputation, LRPD speculation, the measurement pass and the
//! sequential fallbacks — runs loop iterations on the `lip_vm` VM
//! through a `CompiledBody` fetched from the session's per-machine
//! cache. The VM shares `lip_ir`'s value/runtime model (`Value`,
//! `ArrayBuf`, `AccessTracer`, work-unit accounting), so outputs,
//! traced access streams and work-unit counts are those of the
//! tree-walking `lip_ir::Machine` — which is what the differential
//! suites check, and why the interpreter is reached from tests, not
//! from here. A program beyond the VM's static limits is an explicit
//! [`RunError::Unsupported`]; `Machine::exec_stmt` remains the way to
//! run one.

use std::sync::Arc;

use lip_ir::{AccessTracer, ExecState, Expr, Machine, RunError, Stmt, Store, Subroutine};
use lip_symbolic::Sym;
use lip_vm::{Frame, Vm};

use crate::cache::{CachedBody, MachineCache};

/// Everything one executor entry point needs beyond the loop itself:
/// the session's per-machine compile cache, the pool width and the
/// observer. Built by [`crate::Session`] per call and threaded through
/// the internal drivers.
pub(crate) struct ExecEnv<'a> {
    /// The session's compile/predicate cache for the machine at hand.
    pub cache: &'a MachineCache,
    /// Fork-join pool width.
    pub nthreads: usize,
    /// The session's observability handle (decision recording, pool
    /// events, dispatch counters; disabled = one branch per check).
    pub obs: &'a lip_obs::Obs,
}

/// A loop body (or statement block) compiled for VM execution: the
/// whole program (for CALLs out of the block) plus the block itself.
/// Backed by the session's per-machine [`crate::cache::MachineCache`],
/// so a given block shape compiles once per machine no matter how many
/// times `Session::run_loop`, CIV slicing or LRPD construct it.
pub(crate) struct CompiledBody {
    body: Arc<CachedBody>,
    pub block: lip_vm::BlockId,
}

impl CompiledBody {
    /// Fetches (or compiles on first use) `stmts` in `sub`'s context
    /// plus attached expression fragments; [`RunError::Unsupported`]
    /// when the program or block exceeds the VM's static limits.
    pub fn new(
        cache: &MachineCache,
        machine: &Machine,
        sub: &Subroutine,
        stmts: &[Stmt],
        exprs: &[&Expr],
        extra: &[Sym],
    ) -> Result<CompiledBody, RunError> {
        let body = cache.body(machine, sub, stmts, exprs, extra)?;
        let block = body.block;
        Ok(CompiledBody { body, block })
    }

    /// The block chunk (slot lookups, frame construction).
    pub fn chunk(&self) -> &lip_vm::Chunk {
        &self.body.prog.block(self.block).chunk
    }

    /// A frame over the block resolved from `store`.
    pub fn frame(&self, store: &Store) -> Frame {
        Frame::for_chunk(self.chunk(), store)
    }

    /// A VM delivering `machine`'s READ inputs.
    pub fn vm<'p>(&'p self, machine: &'p Machine) -> Vm<'p> {
        Vm::for_machine(&self.body.prog, machine)
    }

    /// Runs the body once per `var` in `lo..=hi` as one VM activation
    /// ([`Vm::run_range`]): the entry point for every driver with no
    /// work to do between iterations.
    pub fn run_range(
        &self,
        env: &ExecEnv<'_>,
        machine: &Machine,
        f: &mut Frame,
        (var, lo, hi): (Sym, i64, i64),
        st: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<(), RunError> {
        let slot = self.chunk().scalar_slot(var).expect("interned");
        self.run(env, machine, f, Some((slot, lo, hi)), st, tracer)
    }

    /// [`Vm::run_block`] / [`Vm::run_range`]; at trace level through
    /// the counting dispatch loop, publishing its tally. Per-op
    /// counting is measurable (~2 extra ALU ops per dispatch), so
    /// `metrics` skips it.
    pub fn run(
        &self,
        env: &ExecEnv<'_>,
        machine: &Machine,
        f: &mut Frame,
        range: Option<(u16, i64, i64)>,
        st: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<(), RunError> {
        let (vm, b) = (self.vm(machine), self.block);
        if !env.obs.trace_enabled() {
            return match range {
                Some((slot, lo, hi)) => vm.run_range(b, f, slot, lo, hi, st, tracer),
                None => vm.run_block(b, f, st, tracer),
            };
        }
        let mut dc = lip_vm::DispatchCounts::default();
        vm.run_counting(b, f, range, st, tracer, &mut dc)?;
        env.obs.count("vm.ops", dc.ops);
        env.obs.count("vm.fused_ops", dc.fused_ops);
        env.obs.count("vm.red_ops", dc.red_ops);
        Ok(())
    }
}

/// The machine's own tracer as a trait object (VM paths must honor the
/// same instrumentation `Machine::with_tracer` installs).
pub(crate) fn machine_tracer(machine: &Machine) -> Option<&dyn AccessTracer> {
    machine.tracer().map(|t| &**t as &dyn AccessTracer)
}

/// Executes one statement sequentially (sequential loop fallbacks and
/// LRPD recovery re-runs).
pub(crate) fn exec_stmt_seq(
    env: &ExecEnv<'_>,
    machine: &Machine,
    sub: &Subroutine,
    target: &Stmt,
    frame: &mut Store,
    state: &mut ExecState,
) -> Result<(), RunError> {
    let stmts = std::slice::from_ref(target);
    let cb = CompiledBody::new(env.cache, machine, sub, stmts, &[], &[])?;
    let mut f = cb.frame(frame);
    cb.run(env, machine, &mut f, None, state, machine_tracer(machine))?;
    f.writeback_scalars(cb.chunk(), frame);
    Ok(())
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
        let cache = MachineCache::default();
        let obs = lip_obs::Obs::off();
        let env = ExecEnv {
            cache: &cache,
            nthreads: 1,
            obs: &obs,
        };
        let mut tw = mk();
        let mut st_tw = ExecState::default();
        machine
            .exec_stmt(&sub, &mut tw, &target, &mut st_tw)
            .expect("interpreter");
        let mut bc = mk();
        let mut st_bc = ExecState::default();
        exec_stmt_seq(&env, &machine, &sub, &target, &mut bc, &mut st_bc).expect("bytecode");
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
