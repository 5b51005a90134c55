//! Execution backend selection: tree-walk interpretation vs. compiled
//! register bytecode.
//!
//! Both backends share one value/runtime model (`lip_ir`'s `Value`,
//! `ArrayBuf`, `AccessTracer`, work-unit accounting), so they are
//! interchangeable everywhere the executor runs loop iterations: the
//! predicate-guarded parallel path, CIV slice precomputation, LRPD
//! speculation and the sequential fallbacks. Outputs, traced access
//! streams and work-unit counts are identical; only wall-clock speed
//! differs.
//!
//! Selection is per-[`crate::Session`]: the builder field
//! `Session::builder().backend(..)`, or the `LIP_BACKEND` environment
//! variable read in exactly one place (`SessionConfig::from_env`,
//! strict parsing). Programs the bytecode compiler cannot handle fall
//! back to tree-walk interpretation transparently.
//!
//! Runtime *predicate* evaluation has its own seam on the same model:
//! [`PredBackend`] (`.pred(PredBackend::Compiled)` for the `lip_pred`
//! engine, tree-walking `Pdag::eval` as the default reference),
//! threaded through the cascade evaluation in `exec` and the suite
//! harness. Verdicts and charged work units are identical on both;
//! only wall-clock differs.

use std::sync::Arc;

use lip_ir::{AccessTracer, ExecState, Expr, Machine, RunError, Stmt, Store, Subroutine};
use lip_symbolic::Sym;
use lip_vm::{Frame, Vm};

use crate::cache::{CachedBody, MachineCache};

pub use lip_pred::PredBackend;
pub use lip_vm::OptLevel;

/// Which execution engine runs loop iterations.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// The `lip_ir` tree-walk interpreter (the reference semantics).
    #[default]
    TreeWalk,
    /// The `lip_vm` register bytecode VM.
    Bytecode,
}

impl Backend {
    /// Whether this is the bytecode VM.
    pub fn is_bytecode(self) -> bool {
        self == Backend::Bytecode
    }
}

/// Strict parsing for configuration seams (`LIP_BACKEND` is read in
/// exactly one place — [`crate::SessionConfig::from_env`] — and a typo
/// like `bytecoed` is an error there, never a silent fallback to the
/// tree-walk default).
impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        if s.eq_ignore_ascii_case("tree") || s.eq_ignore_ascii_case("treewalk") {
            Ok(Backend::TreeWalk)
        } else if s.eq_ignore_ascii_case("bytecode") || s.eq_ignore_ascii_case("vm") {
            Ok(Backend::Bytecode)
        } else {
            Err(format!(
                "unknown backend `{s}` (expected `tree`/`treewalk` or `bytecode`/`vm`)"
            ))
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::TreeWalk => write!(f, "treewalk"),
            Backend::Bytecode => write!(f, "bytecode"),
        }
    }
}

/// Everything one executor entry point needs beyond the loop itself:
/// the session's per-machine compile cache plus the configured seams.
/// Built by [`crate::Session`] per call and threaded through the
/// internal drivers, replacing what used to be a trailing
/// `(nthreads, backend, pred)` argument sprawl.
pub(crate) struct ExecEnv<'a> {
    /// The session's compile/predicate cache for the machine at hand.
    pub cache: &'a MachineCache,
    /// Which engine runs loop iterations.
    pub backend: Backend,
    /// Which engine evaluates runtime predicates.
    pub pred: PredBackend,
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
    /// plus attached expression fragments; `None` means "fall back to
    /// tree-walk".
    pub fn new(
        cache: &MachineCache,
        machine: &Machine,
        sub: &Subroutine,
        stmts: &[Stmt],
        exprs: &[&Expr],
        extra: &[Sym],
    ) -> Option<CompiledBody> {
        let body = cache.body(machine, sub, stmts, exprs, extra)?;
        let block = body.block;
        Some(CompiledBody { body, block })
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

/// Executes one statement sequentially under the selected backend
/// (used for sequential loop fallbacks and LRPD recovery re-runs).
pub(crate) fn exec_stmt_seq(
    env: &ExecEnv<'_>,
    machine: &Machine,
    sub: &Subroutine,
    target: &Stmt,
    frame: &mut Store,
    state: &mut ExecState,
) -> Result<(), RunError> {
    if env.backend.is_bytecode() {
        if let Some(cb) = CompiledBody::new(
            env.cache,
            machine,
            sub,
            std::slice::from_ref(target),
            &[],
            &[],
        ) {
            let mut f = cb.frame(frame);
            cb.run(env, machine, &mut f, None, state, machine_tracer(machine))?;
            f.writeback_scalars(cb.chunk(), frame);
            return Ok(());
        }
    }
    machine.exec_stmt(sub, frame, target, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_strictly() {
        assert_eq!(Backend::default(), Backend::TreeWalk);
        assert!(Backend::Bytecode.is_bytecode());
        assert_eq!(Backend::Bytecode.to_string(), "bytecode");
        assert_eq!("treewalk".parse::<Backend>(), Ok(Backend::TreeWalk));
        assert_eq!("VM".parse::<Backend>(), Ok(Backend::Bytecode));
        assert_eq!("Bytecode".parse::<Backend>(), Ok(Backend::Bytecode));
        // A typo must be an error, not a silent tree-walk fallback.
        let err = "bytecoed".parse::<Backend>().unwrap_err();
        assert!(err.contains("bytecoed"), "{err}");
        assert!("".parse::<Backend>().is_err());
    }

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
        let env_for = |backend| ExecEnv {
            cache: &cache,
            backend,
            pred: PredBackend::Tree,
            nthreads: 1,
            obs: &obs,
        };
        let mut tw = mk();
        let mut st_tw = ExecState::default();
        exec_stmt_seq(
            &env_for(Backend::TreeWalk),
            &machine,
            &sub,
            &target,
            &mut tw,
            &mut st_tw,
        )
        .expect("tree-walk");
        let mut bc = mk();
        let mut st_bc = ExecState::default();
        exec_stmt_seq(
            &env_for(Backend::Bytecode),
            &machine,
            &sub,
            &target,
            &mut bc,
            &mut st_bc,
        )
        .expect("bytecode");
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
