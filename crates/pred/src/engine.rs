//! The runtime predicate engine: per-program compile cache and
//! loop-invariant result memoization.
//!
//! A [`PredEngine`] is owned by one loaded program (`lip_runtime`'s
//! `Loaded`) and amortizes the two costs the paper's runtime
//! cascade pays on every loop invocation:
//!
//! * **compilation** — each cascade stage's `Pdag` is compiled to
//!   predicate bytecode once and reused across loop runs, CIV
//!   slicing and LRPD decisions;
//! * **evaluation** — stage verdicts are memoized against a fingerprint
//!   of the loop-invariant inputs the predicate reads (its free scalars
//!   and the contents of the arrays it indexes), so re-invoking the
//!   same loop on unchanged inputs skips the O(N) re-test entirely. The
//!   exact USR test (`lip_usr::exact`, the cascade's last resort) files
//!   its verdict *and* the units it counted in the same memo
//!   ([`PredEngine::exact_memo`]) — the "hoist" of HOIST-USR.
//!
//! Memoization is a *wall-clock* optimization only: charged work units
//! (`Pdag::eval_cost`) are accounted identically on hits and misses, so
//! every simulated table and figure is bit-identical to what
//! tree-walking `Pdag::eval` (the reference the differential suites
//! compare against, and the fallback for a predicate that does not
//! compile) would charge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use lip_core::{Cascade, Pdag};
use lip_obs::{Obs, StageReport};
use lip_symbolic::EvalCtx;

use crate::compile::compile_pred;
use crate::prog::PredProgram;
use crate::vm::{eval_compiled_obs, EvalParams};
use std::sync::Arc;

/// Monotonic engine counters (observability + cache tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Predicate compilations performed.
    pub compiles: u64,
    /// Compile-cache hits.
    pub program_hits: u64,
    /// Compiled evaluations executed.
    pub evals: u64,
    /// Result-memo hits (evaluation skipped).
    pub memo_hits: u64,
    /// Exact USR tests evaluated ([`PredEngine::exact_memo`] misses).
    pub exact_evals: u64,
    /// Exact USR tests answered from the memo.
    pub exact_memo_hits: u64,
}

#[derive(Default)]
struct Counters {
    compiles: AtomicU64,
    program_hits: AtomicU64,
    evals: AtomicU64,
    memo_hits: AtomicU64,
    exact_evals: AtomicU64,
    exact_memo_hits: AtomicU64,
}

/// Bound on memoized verdicts. Workloads whose inputs change every
/// invocation would otherwise grow the memo forever (one entry per
/// distinct fingerprint); at the cap the memo resets wholesale — a
/// generation flip, cheap and hit-path-free.
const RESULT_MEMO_CAP: usize = 4096;

/// Default trip-count threshold past which quantified O(N) stages fork
/// across the pool (a `Session` overrides it via
/// [`PredEngine::with_par_min`]; `LIP_PRED_PAR_MIN` feeds it through
/// `SessionConfig::from_env`, the single environment seam).
pub const DEFAULT_PAR_MIN: i64 = 1024;

/// (test rendering, 128-bit input fingerprint, iteration / unit budget).
type VerdictKey = (Arc<str>, u128, u64);

/// A memoized answer and the work units finding it counted. A cascade
/// stage files 0: its charge is `Pdag::eval_cost`, which the caller
/// computes from the bindings, hit or miss.
type Verdict = (Option<bool>, u64);

/// The per-program predicate engine.
pub struct PredEngine {
    /// Compiled programs keyed by the predicate's canonical rendering
    /// (`Pdag` holds `Rc`s, so the key must be owned plain data; a
    /// cascade stage renders itself once — `Stage::key`).
    programs: RwLock<HashMap<Arc<str>, Option<Arc<PredProgram>>>>,
    /// Memoized verdicts.
    results: Mutex<HashMap<VerdictKey, Verdict>>,
    par_min: i64,
    stats: Counters,
    /// Observability handle (shared with the owning session): engine
    /// counters mirror into its metrics registry, stage evaluations
    /// open trace spans. `Obs::off()` by default — one branch per call.
    obs: Obs,
}

impl Default for PredEngine {
    fn default() -> PredEngine {
        PredEngine::new()
    }
}

impl PredEngine {
    /// An engine with the default parallelization threshold
    /// ([`DEFAULT_PAR_MIN`]). The threshold is *injected* — the engine
    /// never reads the environment; sessions pass their configured
    /// `par_min` through [`PredEngine::with_par_min`].
    pub fn new() -> PredEngine {
        PredEngine::with_par_min(DEFAULT_PAR_MIN)
    }

    /// An engine parallelizing quantifiers of at least `par_min`
    /// iterations (tests force small thresholds).
    pub fn with_par_min(par_min: i64) -> PredEngine {
        PredEngine::with_par_min_obs(par_min, Obs::off())
    }

    /// [`PredEngine::with_par_min`] with an observability handle: the
    /// engine's compile/hit/eval/memo counters mirror into `obs`'s
    /// metrics and each cascade stage evaluation opens a trace span.
    pub fn with_par_min_obs(par_min: i64, obs: Obs) -> PredEngine {
        PredEngine {
            programs: RwLock::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            par_min,
            stats: Counters::default(),
            obs,
        }
    }

    /// The observer, when it records anything (for passing down to
    /// the evaluator's fork/cancellation events).
    fn obs_opt(&self) -> Option<&Obs> {
        self.obs.enabled().then_some(&self.obs)
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            compiles: self.stats.compiles.load(Ordering::Relaxed),
            program_hits: self.stats.program_hits.load(Ordering::Relaxed),
            evals: self.stats.evals.load(Ordering::Relaxed),
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            exact_evals: self.stats.exact_evals.load(Ordering::Relaxed),
            exact_memo_hits: self.stats.exact_memo_hits.load(Ordering::Relaxed),
        }
    }

    /// The compiled program for `pred`, from cache or compiled now.
    /// `None` when the predicate exceeds the bytecode's static limits
    /// (callers tree-walk instead).
    pub fn program(&self, pred: &Pdag) -> Option<Arc<PredProgram>> {
        self.program_keyed(&pred.to_string().into(), pred)
    }

    fn program_keyed(&self, key: &Arc<str>, pred: &Pdag) -> Option<Arc<PredProgram>> {
        if let Some(cached) = self.programs.read().expect("engine lock").get(key) {
            self.stats.program_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.count("pred.program_hits", 1);
            return cached.clone();
        }
        let compiled = self
            .obs
            .timed("pred.compile_ns", || compile_pred(pred).ok().map(Arc::new));
        self.stats.compiles.fetch_add(1, Ordering::Relaxed);
        self.obs.count("pred.compiles", 1);
        let mut w = self.programs.write().expect("engine lock");
        w.entry(key.clone()).or_insert_with(|| compiled.clone());
        compiled
    }

    /// Evaluates the cascade stage-by-stage (cheapest first), charging
    /// each evaluated stage's `eval_cost` — identically on memo hits,
    /// so simulated timings don't depend on the memo. Returns the
    /// index of the first succeeding stage (`None`: all failed or
    /// undecidable) plus the charged units. `fingerprint` maps a
    /// compiled stage's inputs to a memo key; returning `None` disables
    /// memoization for that stage. `trace`, when given, receives one
    /// [`StageReport`] per *evaluated* stage (index, complexity,
    /// rendered predicate, charged units, verdict) — the raw material
    /// of a `Session::explain` decision report; verdicts and charged
    /// units do not depend on it.
    pub fn first_success(
        &self,
        cascade: &Cascade,
        ctx: &(dyn EvalCtx + Sync),
        iter_limit: u64,
        nthreads: usize,
        fingerprint: &mut dyn FnMut(&PredProgram) -> Option<u128>,
        mut trace: Option<&mut Vec<StageReport>>,
    ) -> (Option<usize>, u64) {
        let mut units = 0u64;
        for (k, stage) in cascade.stages.iter().enumerate() {
            let cost = stage.pred.eval_cost(ctx);
            units += cost;
            let span = self.obs.span("pred.stage", || {
                format!("stage {k} O(N^{})", stage.complexity)
            });
            let key = stage.key();
            let verdict = match self.program_keyed(key, &stage.pred) {
                Some(prog) => {
                    let fp = fingerprint(&prog);
                    self.eval_memo(key.clone(), &prog, ctx, iter_limit, nthreads, fp)
                }
                None => stage.pred.eval(ctx, iter_limit),
            };
            self.obs.exit_span(
                span,
                match verdict {
                    Some(true) => "pass",
                    Some(false) => "fail",
                    None => "unknown",
                },
            );
            self.obs.count(
                match verdict {
                    Some(true) => "pred.stage_passes",
                    Some(false) => "pred.stage_fails",
                    None => "pred.stage_unknowns",
                },
                1,
            );
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(StageReport {
                    index: k,
                    complexity: stage.complexity,
                    cost_units: cost,
                    predicate: Some(stage.describe()),
                    verdict,
                });
            }
            if verdict == Some(true) {
                return (Some(k), units);
            }
        }
        (None, units)
    }

    fn eval_memo(
        &self,
        pred_key: Arc<str>,
        prog: &Arc<PredProgram>,
        ctx: &(dyn EvalCtx + Sync),
        iter_limit: u64,
        nthreads: usize,
        fp: Option<u128>,
    ) -> Option<bool> {
        let key = fp.map(|f| (pred_key, f, iter_limit));
        let ((verdict, _), hit) = self.memoized(key, || {
            let verdict = eval_compiled_obs(
                prog,
                ctx,
                iter_limit,
                EvalParams {
                    nthreads: nthreads.max(1),
                    par_min: self.par_min,
                },
                self.obs_opt(),
            );
            (verdict, 0)
        });
        let (counter, name) = if hit {
            (&self.stats.memo_hits, "pred.memo_hits")
        } else {
            (&self.stats.evals, "pred.evals")
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.obs.count(name, 1);
        verdict
    }

    /// The exact USR test's way into the verdict memo: the verdict and
    /// units filed under `(key, fingerprint, budget)`, or `eval`'s,
    /// filed now. Returns them with whether it was a hit — the units
    /// are the evaluation's own count either way, so a caller charges
    /// the same on hit and miss. Counted in
    /// [`EngineStats::exact_evals`] / [`EngineStats::exact_memo_hits`].
    pub fn exact_memo(
        &self,
        key: &Arc<str>,
        fingerprint: u128,
        budget: u64,
        eval: impl FnOnce() -> (Option<bool>, u64),
    ) -> ((Option<bool>, u64), bool) {
        let (verdict, hit) = self.memoized(Some((key.clone(), fingerprint, budget)), eval);
        let counter = if hit {
            &self.stats.exact_memo_hits
        } else {
            &self.stats.exact_evals
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (verdict, hit)
    }

    /// The one entry point of the verdict memo: the answer filed under
    /// `key`, or `eval`'s, filed now (`None`: not memoizable, just
    /// evaluate). The lock is not held while `eval` runs.
    fn memoized(&self, key: Option<VerdictKey>, eval: impl FnOnce() -> Verdict) -> (Verdict, bool) {
        if let Some(key) = &key {
            if let Some(hit) = self.results.lock().expect("engine lock").get(key) {
                return (*hit, true);
            }
        }
        let verdict = eval();
        if let Some(key) = key {
            let mut memo = self.results.lock().expect("engine lock");
            if memo.len() >= RESULT_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, verdict);
        }
        (verdict, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_engine_uses_the_injected_default_threshold() {
        // `new` must be pure configuration (no environment read): the
        // same engine as an explicit `with_par_min(DEFAULT_PAR_MIN)`.
        let a = PredEngine::new();
        let b = PredEngine::with_par_min(DEFAULT_PAR_MIN);
        assert_eq!(a.par_min, b.par_min);
        assert_eq!(a.par_min, DEFAULT_PAR_MIN);
    }
}
