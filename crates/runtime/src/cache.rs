//! Per-`Machine` compilation and predicate caches.
//!
//! One `run_loop` call used to compile the whole program up to three
//! times (`CompiledBody::new` for the CIV slice, the parallel body and
//! the sequential fallback), and every invocation re-did it from
//! scratch. [`MachineCache`] fixes both: the `lip_vm` program is
//! compiled once per machine, each distinct statement block is lowered
//! once and reused across invocations, and the [`PredEngine`] does the
//! same for cascade predicates (plus verdict memoization keyed on the
//! loop-invariant inputs).
//!
//! Both lookups cost less than what they find. A block is found by a
//! structural hash of its statements (the [`crate::digest`] state as
//! the `Hasher`), confirmed by `==` against the stored copy — no rendering
//! per `run_loop`. A verdict is found under a 128-bit digest of the
//! inputs the predicate reads ([`store_fingerprint`]; within a run,
//! [`crate::digest::InputDigests`] reads each array once however many
//! tests name it); the collision argument is in [`crate::digest`].
//!
//! Caches are owned by a [`crate::Session`], keyed on the identity of
//! the machine's shared `Program` handle (`Machine::program_handle`):
//! machines cloned from one another — e.g. tracer-instrumented copies
//! — share one cache, distinct programs never collide, and entries die
//! with their program (the session's registry holds weak handles and
//! prunes on lookup). Two sessions never share caches, so concurrent
//! sessions with different configurations cannot observe each other.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use lip_ir::{Expr, Machine, RunError, Stmt, Store, Subroutine};
use lip_obs::Obs;
use lip_pred::PredEngine;
use lip_symbolic::Sym;
use lip_vm::{BlockId, CompileError, CompiledProgram};

use crate::digest::{Digest, InputDigests, KeyCost};

/// A cached standalone block: the compiled program it lives in plus its
/// block id. Shared (`Arc`) across invocations and worker threads.
pub struct CachedBody {
    /// The compiled program (whole-program subs + this block).
    pub prog: Arc<CompiledProgram>,
    /// The block within `prog`.
    pub block: BlockId,
}

/// Compilation caches scoped to one program.
pub struct MachineCache {
    /// The machine's subroutines compiled and fused once (`Err`: the
    /// program exceeds the bytecode's static limits — remembered so
    /// callers fail without recompiling).
    base: OnceLock<Result<Arc<CompiledProgram>, RunError>>,
    /// Lowered statement blocks by structural hash; a bucket holds the
    /// blocks themselves, which a lookup compares before it answers.
    blocks: Mutex<HashMap<u128, Vec<KeyedBlock>>>,
    /// The predicate engine (compile cache + verdict memo).
    pred: PredEngine,
    /// Whether the executor may honor loop-fission plans (the session's
    /// `fission` knob, threaded here so the drivers read one source of
    /// truth — the cache never reads the environment).
    fission: bool,
    /// The owning session's observability handle (compile timings,
    /// block hit/miss counters; `Obs::off()` costs one branch per
    /// lookup).
    obs: Obs,
}

/// One cached block with the shape it was compiled from.
struct KeyedBlock {
    sub: Sym,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    extra: Vec<Sym>,
    built: Result<Arc<CachedBody>, RunError>,
}

impl Default for MachineCache {
    fn default() -> MachineCache {
        MachineCache::new(lip_pred::engine::DEFAULT_PAR_MIN, true, Obs::off())
    }
}

impl MachineCache {
    /// A cache whose predicate engine parallelizes quantifiers of at
    /// least `par_min` iterations and whose executors honor fission
    /// plans iff `fission` (the owning session injects both — the
    /// cache never reads the environment). `obs` receives compile
    /// timings and cache hit/miss counters.
    pub fn new(par_min: i64, fission: bool, obs: Obs) -> MachineCache {
        MachineCache {
            base: OnceLock::new(),
            blocks: Mutex::new(HashMap::new()),
            pred: PredEngine::with_par_min_obs(par_min, obs.clone()),
            fission,
            obs,
        }
    }

    /// The predicate engine for this machine.
    pub fn pred(&self) -> &PredEngine {
        &self.pred
    }

    /// Whether the executor honors loop-fission plans.
    pub fn fission(&self) -> bool {
        self.fission
    }

    /// The owning session's observer.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
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
        machine: &Machine,
        sub: &Subroutine,
        stmts: &[Stmt],
        exprs: &[&Expr],
        extra: &[Sym],
    ) -> Result<Arc<CachedBody>, RunError> {
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
        let built = self.base(machine).and_then(|base| {
            // Clone the compiled subs (cheap next to recompiling the
            // whole program) and lower just this block into the copy.
            // The cloned subs are already fused; only the fresh block
            // needs the pass.
            let mut prog = (*base).clone();
            let block = lip_vm::add_block_with_exprs(&mut prog, sub, stmts, exprs, extra)
                .map_err(unsupported)?;
            lip_vm::optimize_block(&mut prog, block);
            Ok(Arc::new(CachedBody {
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
    fn base(&self, machine: &Machine) -> Result<Arc<CompiledProgram>, RunError> {
        self.base
            .get_or_init(|| {
                self.obs.count("vm.program_compiles", 1);
                self.obs.timed("vm.compile_ns", || {
                    lip_vm::compile_program(machine.program())
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
    use lip_ir::{parse_program, Value};
    use lip_symbolic::sym;

    #[test]
    fn blocks_compile_once_per_shape() {
        let src = "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = A(i) + 1.0
  ENDDO
END
";
        let machine = Machine::new(parse_program(src).expect("parses"));
        let sub = machine.program().units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        let cache = MachineCache::default();
        let b1 = cache
            .body(&machine, &sub, std::slice::from_ref(&target), &[], &[])
            .expect("compiles");
        let b2 = cache
            .body(&machine, &sub, std::slice::from_ref(&target), &[], &[])
            .expect("compiles");
        assert!(Arc::ptr_eq(&b1, &b2), "same shape must reuse the block");
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
