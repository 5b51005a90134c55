//! Per-program compilation and predicate caches.
//!
//! One loop run used to compile the whole program up to three
//! times (once each for the CIV slice, the parallel body and
//! the sequential fallback), and every invocation re-did it from
//! scratch. [`ProgramCache`] fixes both: the `lip_vm` program is
//! compiled once per program, each distinct statement block is lowered
//! once and reused across invocations, and the [`PredEngine`] does the
//! same for cascade predicates (plus verdict memoization keyed on the
//! loop-invariant inputs).
//!
//! Both lookups cost less than what they find. A block is found by a
//! structural hash of its statements (the [`crate::digest`] state as
//! the `Hasher`), confirmed by `==` against the stored copy — no rendering
//! per run. A verdict is found under a 128-bit digest of the
//! inputs the predicate reads ([`store_fingerprint`]; within a run,
//! [`crate::digest::InputDigests`] reads each array once however many
//! tests name it); the collision argument is in [`crate::digest`].
//!
//! A cache belongs to one loaded program ([`crate::Loaded`]): created
//! with it under its session's settings, found by holding it, freed
//! with it. Two sessions never share caches, so concurrent sessions
//! with different configurations cannot observe each other.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use lip_ir::{Expr, Program, RunError, Stmt, Store, Subroutine};
use lip_obs::Obs;
use lip_pred::PredEngine;
use lip_symbolic::Sym;
use lip_vm::{BlockId, CompileError, CompiledProgram};

use crate::digest::{Digest, InputDigests, KeyCost};
use crate::SessionConfig;

/// A loop body (or statement block) compiled for VM execution: the
/// whole program (for CALLs out of the block) plus the block itself.
/// Shared (`Arc`) across invocations and worker threads; the executor's
/// entry points to it are in [`crate::backend`].
pub(crate) struct CompiledBody {
    /// The compiled program (whole-program subs + this block).
    pub prog: Arc<CompiledProgram>,
    /// The block within `prog`.
    pub block: BlockId,
}

/// Compilation caches scoped to one program, plus the session settings
/// every run through them uses.
pub(crate) struct ProgramCache {
    /// The program's subroutines compiled and fused once (`Err`: the
    /// program exceeds the bytecode's static limits — remembered so
    /// callers fail without recompiling).
    base: OnceLock<Result<Arc<CompiledProgram>, RunError>>,
    /// Lowered statement blocks by structural hash; a bucket holds the
    /// blocks themselves, which a lookup compares before it answers.
    blocks: Mutex<HashMap<u128, Vec<KeyedBlock>>>,
    /// The predicate engine (compile cache + verdict memo).
    pub pred: PredEngine,
    /// The owning session's pool width.
    pub nthreads: usize,
    /// Whether the executor may honor loop-fission plans (the session's
    /// `fission` knob, threaded here so the drivers read one source of
    /// truth — the cache never reads the environment).
    pub fission: bool,
    /// The owning session's observability handle (compile timings,
    /// block hit/miss counters; `Obs::off()` costs one branch per
    /// lookup).
    pub obs: Obs,
}

/// One cached block with the shape it was compiled from.
struct KeyedBlock {
    sub: Sym,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    extra: Vec<Sym>,
    built: Result<Arc<CompiledBody>, RunError>,
}

impl ProgramCache {
    /// An empty cache under `cfg`'s pool width, predicate fork
    /// threshold and fission knob; `obs` receives compile timings and
    /// cache hit/miss counters.
    pub fn new(cfg: &SessionConfig, obs: Obs) -> ProgramCache {
        ProgramCache {
            base: OnceLock::new(),
            blocks: Mutex::new(HashMap::new()),
            pred: PredEngine::with_par_min_obs(cfg.par_min, obs.clone()),
            nthreads: cfg.nthreads.max(1),
            fission: cfg.fission,
            obs,
        }
    }

    /// The compiled block for `stmts` (+ attached expression fragments
    /// and extra scalar slots) in `sub`'s context, compiling at most
    /// once per distinct shape.
    ///
    /// # Errors
    ///
    /// [`RunError::Unsupported`] when the program or the block exceeds
    /// the bytecode's static limits.
    pub fn body(
        &self,
        prog: &Program,
        sub: &Subroutine,
        stmts: &[Stmt],
        exprs: &[&Expr],
        extra: &[Sym],
    ) -> Result<Arc<CompiledBody>, RunError> {
        // A hash finds the bucket, structural equality picks the block:
        // a key that aliased two bodies would execute the wrong code,
        // so a match is never taken on the hash's word.
        let mut key = Digest::default();
        (sub.name, stmts, exprs, extra).hash(&mut key);
        let key = key.finish128();
        let same = |b: &KeyedBlock| {
            b.sub == sub.name
                && b.stmts == stmts
                && b.exprs.iter().eq(exprs.iter().copied())
                && b.extra == extra
        };
        if let Some(cached) = self
            .blocks
            .lock()
            .expect("cache lock")
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|b| same(b)))
        {
            self.obs.count("vm.block_hits", 1);
            return cached.built.clone();
        }
        self.obs.count("vm.block_compiles", 1);
        let built = self.base(prog).and_then(|base| {
            // Clone the compiled subs (cheap next to recompiling the
            // whole program) and lower just this block into the copy.
            // The cloned subs are already fused; only the fresh block
            // needs the pass.
            let mut prog = (*base).clone();
            let block = lip_vm::add_block_with_exprs(&mut prog, sub, stmts, exprs, extra)
                .map_err(unsupported)?;
            lip_vm::optimize_block(&mut prog, block);
            Ok(Arc::new(CompiledBody {
                prog: Arc::new(prog),
                block,
            }))
        });
        let mut blocks = self.blocks.lock().expect("cache lock");
        let bucket = blocks.entry(key).or_default();
        if !bucket.iter().any(same) {
            bucket.push(KeyedBlock {
                sub: sub.name,
                stmts: stmts.to_vec(),
                exprs: exprs.iter().map(|e| (*e).clone()).collect(),
                extra: extra.to_vec(),
                built: built.clone(),
            });
        }
        built
    }

    /// The whole program compiled and fused once.
    fn base(&self, prog: &Program) -> Result<Arc<CompiledProgram>, RunError> {
        self.base
            .get_or_init(|| {
                self.obs.count("vm.program_compiles", 1);
                self.obs.timed("vm.compile_ns", || {
                    lip_vm::compile_program(prog)
                        .map(|mut prog| {
                            lip_vm::optimize_program(&mut prog);
                            Arc::new(prog)
                        })
                        .map_err(unsupported)
                })
            })
            .clone()
    }
}

fn unsupported(e: CompileError) -> RunError {
    RunError::Unsupported(lip_symbolic::sym(&e.to_string()))
}

/// Fingerprints the loop-invariant inputs a compiled predicate reads
/// from `frame`: free scalar values and the contents of the arrays it
/// indexes, both projected to the `i64` view `StoreCtx` exposes. Equal
/// fingerprints ⇒ the predicate sees identical inputs, so its verdict
/// can be memoized (the `PredEngine` result cache).
///
/// This is the one-shot form of [`InputDigests::key`] (same value); a
/// run that tests several predicates shares one table instead. Why 128
/// bits, and what a collision would take: [`crate::digest`].
pub fn store_fingerprint(frame: &Store, scalars: &[Sym], arrays: &[Sym]) -> u128 {
    InputDigests::new(frame, &mut KeyCost::default()).key(scalars, arrays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::{parse_program, LValue, Value};
    use lip_obs::ObsLevel;
    use lip_symbolic::sym;

    const STENCIL: &str = "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 1, N
    UNEW(i) = 0.25 * (U(i) + V(i)) + 0.5 * U(i)
  ENDDO
END
";

    #[test]
    fn blocks_compile_once_per_shape() {
        let prog = parse_program(STENCIL).expect("parses");
        let sub = &prog.units[0];
        let target = std::slice::from_ref(sub.find_loop("sweep").expect("loop"));
        let cache = ProgramCache::new(&SessionConfig::default(), Obs::off());
        let b1 = cache.body(&prog, sub, target, &[], &[]).expect("compiles");
        let b2 = cache.body(&prog, sub, target, &[], &[]).expect("compiles");
        assert!(Arc::ptr_eq(&b1, &b2), "same shape must reuse the block");
    }

    /// Equal bodies from different `clone()`s (or parses) share a
    /// block; one literal or one extra symbol apart, they do not.
    #[test]
    fn block_keys_are_structural() {
        let prog = parse_program(STENCIL).expect("parses");
        let sub = &prog.units[0];
        let Stmt::Do { body, var, .. } = sub.find_loop("sweep").expect("loop").clone() else {
            panic!("stencil is a DO loop")
        };
        let obs = Obs::with_level(ObsLevel::Metrics);
        let cache = ProgramCache::new(&SessionConfig::default(), obs.clone());
        let counts = || {
            let snap = obs.snapshot();
            let c = |name| snap.counter(name).unwrap_or(0);
            (c("vm.block_hits"), c("vm.block_compiles"))
        };
        let block = |stmts: &[Stmt], extra: &[Sym]| {
            cache.body(&prog, sub, stmts, &[], extra).expect("compiles")
        };

        let first = block(&body, &[var]);
        assert_eq!(counts(), (0, 1));
        // Two separately allocated copies of the same statements.
        let again = block(&body.clone(), &[var]);
        assert!(Arc::ptr_eq(&first, &again));
        let reparsed = parse_program(STENCIL).expect("parses");
        let Stmt::Do { body: twin, .. } =
            reparsed.units[0].find_loop("sweep").expect("loop").clone()
        else {
            panic!("stencil is a DO loop")
        };
        assert!(Arc::ptr_eq(&first, &block(&twin, &[var])));
        assert_eq!(counts(), (2, 1));

        // One literal apart.
        let mut edited = body.clone();
        let Some(Stmt::Assign {
            rhs: Expr::Bin(_, lhs_term, _),
            lhs,
        }) = edited.first_mut()
        else {
            panic!("stencil's body starts with a binary assignment")
        };
        assert!(matches!(lhs, LValue::Element(..)));
        let Expr::Bin(_, literal, _) = &mut **lhs_term else {
            panic!("0.25 * (...)")
        };
        **literal = Expr::Real(1.25);
        assert!(!Arc::ptr_eq(&first, &block(&edited, &[var])));
        // One extra symbol apart.
        assert!(!Arc::ptr_eq(&first, &block(&body, &[var, sym("zz_extra")])));
        assert_eq!(counts(), (2, 3));
    }

    #[test]
    fn fingerprint_tracks_inputs() {
        let mut frame = Store::new();
        frame.set_int(sym("N"), 4);
        let b = frame.alloc_int(sym("B"), 4);
        let f1 = store_fingerprint(&frame, &[sym("N")], &[sym("B")]);
        assert_eq!(f1, store_fingerprint(&frame, &[sym("N")], &[sym("B")]));
        b.set(2, Value::Int(7));
        assert_ne!(f1, store_fingerprint(&frame, &[sym("N")], &[sym("B")]));
        let f2 = store_fingerprint(&frame, &[sym("N")], &[sym("B")]);
        frame.set_int(sym("N"), 5);
        assert_ne!(f2, store_fingerprint(&frame, &[sym("N")], &[sym("B")]));
    }
}
