//! The conditional-parallelization executor (paper §5).
//!
//! [`crate::LoopHandle::run`] puts everything together for one
//! analyzed loop:
//!
//! 1. precompute CIV traces via the loop slice (CIV-COMP),
//! 2. evaluate the predicate cascade against live state (cheapest
//!    stage first; the first success disables the rest), and when
//!    every stage fails the hoisted exact USR test —
//!    every verdict memoized under a key over the inputs it read, built
//!    from one [`InputDigests`] table per test phase (the whole loop's
//!    cascade, exact test and reduction cascades; each fission
//!    fragment's), so a warm run reads each index array once, at memory
//!    speed, and `run.fingerprint_ns` says what that cost,
//! 3. execute: in parallel — with privatized copies (+ static/dynamic
//!    last value), per-thread reduction buffers (or direct shared
//!    updates when the runtime test proved independence) — or through
//!    LRPD speculation when every predicate failed, or sequentially.
//!    A dynamic last value merges, in chunk order, the elements each
//!    chunk's write mask marks; the mask is keyed by the chunk's private
//!    buffer, so writes through a callee's formal count.
//!
//! The parallel path and LRPD run a DO's chunks through one driver,
//! [`run_chunks`], which sets up every chunk, and leave what the loop
//! leaves through one [`Chunks::commit`].
//!
//! Every access hook the runtime installs — those masks, LRPD's shadows
//! — finds its array by the buffer the access reaches, never by name.
//! A DLV chunk passes each access on to the caller's tracer, when one
//! is installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lip_analysis::{ArrayPlan, FissionFragment, LastValue, LoopAnalysis, LoopClass};
use lip_ir::{
    AccessTracer, ArrayBuf, ArrayView, BinOp, ExecState, RunError, Stmt, Store, StoreCtx, Ty, Value,
};
use lip_obs::{FissionReport, FragmentReport, LoopDecision, StageReport};
use lip_symbolic::Sym;
use lip_usr::Exact;

use crate::backend::{exec_stmt_seq, DoShape, ExecEnv};
use crate::cache::CompiledBody;
use crate::digest::{InputDigests, KeyCost};
use crate::lrpd::{lrpd_execute_impl, LrpdOutcome};
use crate::merge::{clone_buf, copy_back, identity_buf, merge_into};
use crate::pool::{chunk_bounds, parallel_chunks_obs};
use lip_vm::Frame;

/// What any one runtime test may spend before it gives up: cascade
/// stage iterations, exact-test work units, CIV-slice and measurement
/// trip counts. A constant, not a knob — a budget proportional to the
/// guarded loop's work is ROADMAP's cost gate.
pub const TEST_BUDGET: u64 = 100_000_000;

/// [`crate::LoopHandle::cascade_test`] of any cascade (a loop's, a
/// fragment's, a reduction plan's).
pub(crate) fn cascade_test(
    env: &ExecEnv<'_>,
    cascade: &lip_core::Cascade,
    inputs: &mut InputDigests<'_>,
    report: Option<&mut Vec<StageReport>>,
) -> (Option<usize>, u64) {
    let ctx = StoreCtx(inputs.frame());
    let mut fp =
        |prog: &lip_pred::PredProgram| Some(inputs.key(prog.scalar_syms(), prog.array_syms()));
    env.cache.pred.first_success(
        cascade,
        &ctx,
        TEST_BUDGET,
        env.cache.nthreads,
        &mut fp,
        report,
    )
}

/// [`crate::LoopHandle::exact_test`] of `analysis`: the one-pass
/// evaluator ([`lip_usr::exact`]) behind the program's memo.
pub(crate) fn exact_test(
    env: &ExecEnv<'_>,
    analysis: &LoopAnalysis,
    inputs: &mut InputDigests<'_>,
) -> (Exact, bool) {
    let (Some(usr), Some(key)) = (&analysis.ind_usr, analysis.exact_key()) else {
        let undecided = Exact {
            verdict: None,
            units: 0,
        };
        return (undecided, false);
    };
    let obs = &env.cache.obs;
    let span = obs.span("run.exact", || analysis.label.clone());
    // Each free symbol is looked up both ways: the frame binds it as a
    // scalar or as an array, and the side it does not bind hashes as
    // "unbound".
    let fingerprint = inputs.key(&key.syms, &key.syms);
    let frame = inputs.frame();
    let ((verdict, units), hit) =
        env.cache
            .pred
            .exact_memo(&key.key, fingerprint, TEST_BUDGET, || {
                let e = lip_usr::exact::independent(usr, &StoreCtx(frame), TEST_BUDGET);
                (e.verdict, e.units)
            });
    obs.exit_span(
        span,
        match (verdict, hit) {
            (Some(true), false) => "independent",
            (Some(false), false) => "dependent",
            (None, false) => "undecided",
            (Some(true), true) => "independent (memo)",
            (Some(false), true) => "dependent (memo)",
            (None, true) => "undecided (memo)",
        },
    );
    obs.count(
        if hit {
            "run.exact_memo_hits"
        } else {
            "run.exact_evals"
        },
        1,
    );
    obs.count("run.exact_units", units);
    (Exact { verdict, units }, hit)
}

/// One fission fragment's runtime decision.
pub struct FragmentTests {
    /// Whether the fragment may run parallel.
    pub parallel: bool,
    /// Units its cascade and its exact test charged.
    pub units: u64,
    /// The cascade stages evaluated (empty unless asked for).
    pub stages: Vec<StageReport>,
    /// The exact test's result and memo hit, when it ran.
    pub exact: Option<(Exact, bool)>,
}

/// [`crate::LoopHandle::fragment_tests`] of `a`, against `inputs` — a
/// fresh table over the store as the fragments before it left it,
/// shared with the fragment's reduction cascades (fragments never
/// speculate).
pub(crate) fn fragment_tests(
    env: &ExecEnv<'_>,
    a: &LoopAnalysis,
    inputs: &mut InputDigests<'_>,
    report: bool,
) -> FragmentTests {
    let mut t = FragmentTests {
        parallel: false,
        units: 0,
        stages: Vec::new(),
        exact: None,
    };
    let cascade_passed = match &a.class {
        LoopClass::StaticParallel => true,
        LoopClass::Predicated { .. } => {
            let stages = report.then_some(&mut t.stages);
            let (passed, units) = cascade_test(env, &a.cascade, inputs, stages);
            t.units += units;
            passed.is_some()
        }
        LoopClass::NeedsFallback(lip_analysis::FallbackKind::HoistUsr) => false,
        _ => return t,
    };
    t.parallel = cascade_passed || {
        let (exact, hit) = exact_test(env, a, inputs);
        t.units += exact.units;
        t.exact = Some((exact, hit));
        exact.verdict == Some(true)
    };
    t
}

impl FragmentTests {
    /// The explain record of `frag`, fragment number `k`, once it ran
    /// (`parallel` or not) for `units` after `test_units` of tests.
    pub fn report(
        self,
        frag: &FissionFragment,
        k: usize,
        parallel: bool,
        units: u64,
        test_units: u64,
    ) -> FragmentReport {
        let label = match &frag.target {
            Stmt::Do { label: Some(l), .. } => l.clone(),
            _ => format!("fragment {k}"),
        };
        let (exact_test, exact_units, exact_memo_hit) = exact_report(self.exact);
        FragmentReport {
            label,
            class: format!("{:?}", frag.analysis.class),
            parallel,
            units,
            test_units,
            stages: self.stages,
            exact_test,
            exact_units,
            exact_memo_hit,
        }
    }
}

/// An exact test's result as decision records carry it: `exact_test`,
/// `exact_units`, `exact_memo_hit` (all blank when it did not run).
pub fn exact_report(exact: Option<(Exact, bool)>) -> (Option<bool>, u64, bool) {
    match exact {
        Some((found, memo_hit)) => (found.verdict, found.units, memo_hit),
        None => (None, 0, false),
    }
}

/// How the loop ended up being executed.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecOutcome {
    /// Ran in parallel without any runtime test.
    StaticParallel,
    /// A cascade stage passed; ran in parallel.
    PredicatePassed {
        /// Index of the first successful stage.
        stage: usize,
    },
    /// Every cascade stage failed, but the exact (hoisted) USR
    /// evaluation proved the dependence set empty; ran in parallel
    /// (the §5 last resort before speculation).
    ExactPredicatePassed,
    /// All predicates failed; speculation decided.
    Speculated(LrpdOutcome),
    /// Ran sequentially (classified sequential, or empty plan).
    Sequential,
    /// The loop was distributed: the listed fragments executed in
    /// program order, the parallel ones with the full privatization /
    /// reduction machinery and the residue sequentially.
    Fissioned {
        /// Total fragments executed.
        fragments: usize,
        /// How many of them ran in parallel.
        parallel: usize,
        /// Work units spent inside the parallel fragments (the
        /// "rescued" share of `loop_units`).
        rescued_units: u64,
    },
}

/// Execution statistics (work units are the deterministic interpreter
/// cost model shared with the simulator).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// How the loop executed.
    pub outcome: ExecOutcome,
    /// Units spent on runtime tests (CIV slices, cascade stages and
    /// the exact test's own count, memo hit or miss).
    pub test_units: u64,
    /// Units spent executing the loop body.
    pub loop_units: u64,
}

/// Per-array parallel-execution mode derived from the analysis.
#[derive(Clone, Debug)]
pub(crate) enum ExecPlan {
    /// Access the shared buffer directly.
    Shared,
    /// Per-chunk private copy; `true` = static last value (the chunk
    /// holding the last iteration writes back), `false` = dynamic last
    /// value (chunk-ordered merge of written elements).
    Private(bool),
    /// Per-chunk identity-initialized buffer merged with the operator.
    ReductionBuffer(BinOp),
}

/// Decision evidence of one run — stages, exact test, fragments (kept
/// only when the observer keeps decisions) and what keying the tests
/// cost — folded into a [`LoopDecision`] by [`run_loop_impl`].
#[derive(Default)]
struct DecisionTrace {
    stages: Vec<StageReport>,
    exact: Option<(Exact, bool)>,
    fragments: Vec<FragmentReport>,
    keys: KeyCost,
}

/// How the chosen execution path reads in a decision report.
fn executor_name(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::StaticParallel => "parallel (static)".to_owned(),
        ExecOutcome::PredicatePassed { stage } => format!("parallel (stage {stage} passed)"),
        ExecOutcome::ExactPredicatePassed => "parallel (exact test passed)".to_owned(),
        ExecOutcome::Speculated(out) => format!("speculated ({out:?})"),
        ExecOutcome::Sequential => "sequential".to_owned(),
        ExecOutcome::Fissioned {
            fragments,
            parallel,
            ..
        } => format!("fissioned ({parallel}/{fragments} fragments parallel)"),
    }
}

/// The executor driver behind [`crate::LoopHandle::run`]. When the
/// session's observer is on, every run additionally records a
/// [`LoopDecision`] under the loop's label (cascade stage verdicts,
/// exact-test outcome, fission accounting, final executor).
pub(crate) fn run_loop_impl(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    frame: &mut Store,
) -> Result<RunStats, RunError> {
    let mut dt = DecisionTrace::default();
    dt.keys.timed = env.cache.obs.enabled();
    let span = env.cache.obs.span("run.loop", || analysis.label.clone());
    let result = run_loop_inner(env, sub, target, analysis, frame, &mut dt);
    match &result {
        Ok(stats) => {
            env.cache
                .obs
                .exit_span(span, &executor_name(&stats.outcome));
            if env.cache.obs.enabled() {
                env.cache.obs.count("run.loops", 1);
                env.cache.obs.count("run.test_units", stats.test_units);
                env.cache.obs.count("run.loop_units", stats.loop_units);
                // Key time apart from evaluation time: one sample per
                // run that keyed a test, whatever the memo then answered.
                if dt.keys.ns > 0 {
                    env.cache.obs.count("run.fingerprint_elems", dt.keys.elems);
                    env.cache.obs.record_ns("run.fingerprint_ns", dt.keys.ns);
                }
            }
            // Decision records allocate (stage strings, map inserts);
            // like spans, they are a `trace`-level instrument so the
            // `metrics` level stays pure cheap aggregates.
            if env.cache.obs.trace_enabled() {
                let mut d = LoopDecision::new(&analysis.label);
                d.class = format!("{:?}", analysis.class);
                d.stages = std::mem::take(&mut dt.stages);
                d.passed_stage = match stats.outcome {
                    ExecOutcome::PredicatePassed { stage } => Some(stage),
                    _ => None,
                };
                (d.exact_test, d.exact_units, d.exact_memo_hit) = exact_report(dt.exact);
                d.executor = executor_name(&stats.outcome);
                d.test_units = stats.test_units;
                d.loop_units = stats.loop_units;
                d.key_elems = dt.keys.elems;
                d.key_ns = dt.keys.ns;
                if let ExecOutcome::Fissioned { rescued_units, .. } = stats.outcome {
                    d.fission = Some(FissionReport {
                        fragments: std::mem::take(&mut dt.fragments),
                        rescued_units,
                        loop_units: stats.loop_units,
                    });
                }
                env.cache.obs.record_decision(d);
            }
        }
        Err(e) => env.cache.obs.exit_span(span, &format!("error: {e:?}")),
    }
    result
}

/// Where a unit-stride DO loop's tests sent it.
enum Route<'a> {
    Parallel(ExecOutcome),
    Sequential,
    Speculate,
    Fission(&'a lip_analysis::FissionPlan),
}

fn run_loop_inner(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    frame: &mut Store,
    dt: &mut DecisionTrace,
) -> Result<RunStats, RunError> {
    let shape = env.do_shape(sub, target, frame, &mut ExecState::default())?;
    // CIV-COMP: materialize traces + while-loop trip counts.
    let mut test_units =
        crate::civ::loop_traces(env, sub, target, shape.as_ref(), analysis, frame)?;

    // While loops execute sequentially in this executor (their parallel
    // form requires iteration re-indexing); the simulator models their
    // parallel execution from the traces.
    let Some(shape) = shape else {
        let mut st = ExecState::default();
        exec_stmt_seq(env, sub, target, frame, &mut st)?;
        return Ok(RunStats {
            outcome: ExecOutcome::Sequential,
            test_units,
            loop_units: st.cost,
        });
    };

    // The whole-loop test phase: cascade, exact test and the reduction
    // cascades of the plans all read this frame before anything writes
    // it, so they share one digest table.
    let mut inputs = InputDigests::new(frame, &mut dt.keys);
    // The analysis' fission plan, iff the session's fission knob is on.
    let fission = analysis.fission.as_deref().filter(|_| env.cache.fission);
    let tracing = env.cache.obs.trace_enabled();
    let holds_sequential = |p: &lip_analysis::FissionPlan| {
        (p.fragments.iter()).any(|f| f.analysis.class == LoopClass::StaticSequential)
    };
    let route = match &analysis.class {
        // The chunked driver assumes a unit stride, and seeds CIVs from
        // traces indexed by the loop variable; anything else runs
        // sequentially rather than silently mis-iterating.
        _ if shape.step != 1 || !(analysis.civs.is_empty() || shape.traces_by_var()) => {
            Route::Sequential
        }
        LoopClass::StaticParallel => Route::Parallel(ExecOutcome::StaticParallel),
        LoopClass::StaticSequential => Route::Sequential,
        // Straight to speculation on the written arrays.
        LoopClass::NeedsFallback(_) => Route::Speculate,
        // Knob off at run time (or a plan-less class, which the
        // analysis never produces): plain sequential execution.
        LoopClass::Fissioned { .. } => fission.map_or(Route::Sequential, Route::Fission),
        LoopClass::Predicated { .. } => {
            // Stage reports render predicate strings — only pay for
            // that when the observer keeps decision records (trace).
            let report = tracing.then_some(&mut dt.stages);
            let (passed, units) = cascade_test(env, &analysis.cascade, &mut inputs, report);
            test_units += units;
            match (passed, fission) {
                (Some(stage), _) => Route::Parallel(ExecOutcome::PredicatePassed { stage }),
                // A fragment already classified statically sequential
                // carries a dependence the whole-loop exact test is
                // certain to find again, so distribute right away:
                // fragments that can be rescued run their own, smaller
                // tests, and the sequential residue runs as it would
                // have anyway.
                (None, Some(fp)) if holds_sequential(fp) => Route::Fission(fp),
                // Last resort (§5): exact USR evaluation, then TLS.
                (None, _) => {
                    let (exact, hit) = exact_test(env, analysis, &mut inputs);
                    test_units += exact.units;
                    if tracing {
                        dt.exact = Some((exact, hit));
                    }
                    match exact.verdict {
                        Some(true) => Route::Parallel(ExecOutcome::ExactPredicatePassed),
                        // Genuine dependences: the whole loop can't run
                        // parallel, but a fission plan may still
                        // salvage the independent fragments.
                        Some(false) => fission.map_or(Route::Sequential, Route::Fission),
                        None => Route::Speculate,
                    }
                }
            }
        }
    };
    let (outcome, loop_units) = match route {
        Route::Fission(fp) => return run_fissioned(env, sub, &shape, fp, frame, test_units, dt),
        Route::Sequential => {
            let units = run_seq_do(env, sub, &shape, frame)?;
            (ExecOutcome::Sequential, 1 + shape.units + units)
        }
        Route::Speculate => {
            let arrays: Vec<Sym> = analysis.arrays.keys().copied().collect();
            let plan = BodyPlan::of(analysis, &[]);
            let (out, units) = lrpd_execute_impl(env, sub, &shape, frame, &arrays, &plan)?;
            (ExecOutcome::Speculated(out), units)
        }
        Route::Parallel(outcome) => {
            let plans = build_exec_plans(env, analysis, &mut inputs);
            let plan = BodyPlan::of(analysis, &plans);
            let units = run_parallel_do(env, sub, &shape, frame, &plan)?;
            (outcome, units + shape.units)
        }
    };
    Ok(RunStats {
        outcome,
        test_units,
        loop_units,
    })
}

/// Lowers the per-array analysis plans to execution modes against live
/// state (reduction cascades are evaluated here: a pass means direct
/// shared updates, a fail means buffered merge).
fn build_exec_plans(
    env: &ExecEnv<'_>,
    analysis: &LoopAnalysis,
    inputs: &mut InputDigests<'_>,
) -> Vec<(Sym, ExecPlan)> {
    let mut plans = Vec::new();
    for (arr, plan) in &analysis.arrays {
        let mode = match plan {
            ArrayPlan::ReadOnly | ArrayPlan::Independent | ArrayPlan::Predicated(_) => {
                ExecPlan::Shared
            }
            ArrayPlan::Privatized { last_value, .. } => {
                ExecPlan::Private(matches!(last_value, LastValue::Static))
            }
            ArrayPlan::Reduction { op, cascade, .. } => {
                // No cascade stored = statically independent; a passing
                // cascade proves distinct iterations touch distinct
                // elements. Either way direct shared updates are safe;
                // otherwise buffer per thread and merge. Reduction
                // cascades were never charged to test_units (the plan
                // decision is part of the codegen template).
                let passes = |c| cascade_test(env, c, inputs, None).0.is_some();
                if cascade.as_ref().is_none_or(passes) {
                    ExecPlan::Shared
                } else {
                    ExecPlan::ReductionBuffer(*op)
                }
            }
            ArrayPlan::Fallback(_) => ExecPlan::Shared, // handled above
        };
        plans.push((*arr, mode));
    }
    plans
}

/// Executes a distributed loop: fragments in program order, parallel
/// where each fragment's own verdict (cascade / exact test) allows,
/// sequentially otherwise.
///
/// Work-unit accounting reproduces the sequential interpreter exactly —
/// one unit for the DO statement, bounds evaluated once, then every
/// body statement charged per iteration (just partitioned across
/// fragments) — so `loop_units` of a fissioned run equals the
/// unfissioned sequential run on the same state. Fragments never enter
/// speculation: LRPD's misspeculation re-runs would break that
/// determinism for no model payoff. Each fragment's run, in chunks or
/// sequential, leaves the loop variable where the sequential loop does.
fn run_fissioned(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape<'_>,
    plan: &lip_analysis::FissionPlan,
    frame: &mut Store,
    mut test_units: u64,
    dt: &mut DecisionTrace,
) -> Result<RunStats, RunError> {
    // Mirror the interpreter's DO accounting: the statement itself,
    // then its bounds, once.
    let mut loop_units = 1 + shape.units;
    let mut rescued_units = 0u64;
    let mut parallel = 0usize;

    for frag in &plan.fragments {
        let a = &frag.analysis;
        let Stmt::Do { body, .. } = &frag.target else {
            continue;
        };
        let fshape = DoShape { body, ..*shape };
        let tests_before = test_units;
        // CIV traces first: a fragment's cascade may reference them.
        test_units += crate::civ::loop_traces(env, sub, &frag.target, Some(&fshape), a, frame)?;
        // The fragment's own tests, against the store as the fragments
        // before it left it; stage reports only for the explain record.
        let tracing = env.cache.obs.trace_enabled();
        let mut inputs = InputDigests::new(frame, &mut dt.keys);
        let tests = fragment_tests(env, a, &mut inputs, tracing);
        test_units += tests.units;
        let ran_parallel = tests.parallel && shape.hi >= shape.lo;
        let frag_units = if ran_parallel {
            let plans = build_exec_plans(env, a, &mut inputs);
            let units = run_parallel_do(env, sub, &fshape, frame, &BodyPlan::of(a, &plans))?;
            rescued_units += units;
            parallel += 1;
            units
        } else {
            run_seq_do(env, sub, &fshape, frame)?
        };
        loop_units += frag_units;
        if tracing {
            let (k, tested) = (dt.fragments.len(), test_units - tests_before);
            let report = tests.report(frag, k, ran_parallel, frag_units, tested);
            let how = if ran_parallel {
                "parallel"
            } else {
                "sequential"
            };
            let what = || format!("{}: {how} ({frag_units} units)", report.label);
            env.cache.obs.event("run.fragment", what);
            dt.fragments.push(report);
        }
    }
    Ok(RunStats {
        outcome: ExecOutcome::Fissioned {
            fragments: plan.fragments.len(),
            parallel,
            rescued_units,
        },
        test_units,
        loop_units,
    })
}

/// The DO `shape` run sequentially, charging only the body's
/// per-iteration costs (the DO and its bounds are the caller's): a
/// loop whose step or tests sent it sequential, a fissioned loop's
/// sequential residue, an aborted speculation's re-run. A unit step
/// runs as one activation, any other one per iteration.
pub(crate) fn run_seq_do(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape<'_>,
    frame: &mut Store,
) -> Result<u64, RunError> {
    let cb = env.body(sub, shape.body, &[], &[shape.var])?;
    let mut f = cb.frame(frame);
    let slot = cb.chunk().scalar_slot(shape.var).expect("interned");
    let mut st = ExecState::default();
    let mut run = |lo, hi| cb.run(env, &mut f, Some((slot, lo, hi)), &mut st, env.tracer());
    match shape.step {
        1 if shape.lo <= shape.hi => run(shape.lo, shape.hi)?,
        1 => {}
        _ => shape.iters().try_for_each(|i| run(i, i))?,
    }
    f.writeback_scalars(cb.chunk(), frame);
    Ok(st.cost)
}

/// How the loop body's state splits across chunks: per-array execution
/// plans, scalar reduction accumulators and CIV trace seeds.
#[derive(Clone, Copy, Default)]
pub(crate) struct BodyPlan<'a> {
    arrays: &'a [(Sym, ExecPlan)],
    scalar_reds: &'a [Sym],
    civs: &'a [(Sym, Sym)],
    /// Privatized scalars whose sequential-final values (the last
    /// chunk's, which executed iteration `hi` last) are restored after
    /// the run, so the run stays observationally identical to its
    /// sequential execution.
    scalar_finals: &'a [Sym],
    /// Affine induction scalars and their steps: each chunk's copy
    /// starts where the sequential loop has it on entry to the chunk's
    /// first iteration.
    affine: &'a [(Sym, lip_symbolic::SymExpr)],
}

impl<'a> BodyPlan<'a> {
    /// `a`'s scalars, with `arrays`' execution modes (an array not
    /// listed is shared).
    pub(crate) fn of(a: &'a LoopAnalysis, arrays: &'a [(Sym, ExecPlan)]) -> BodyPlan<'a> {
        BodyPlan {
            arrays,
            scalar_reds: &a.scalar_reductions,
            civs: &a.civs,
            scalar_finals: &a.private_scalars,
            affine: &a.affine_ivs,
        }
    }
}

/// Each affine scalar's value on loop entry and its step, when both
/// are bound (otherwise the body's own update fails as it would
/// sequentially).
fn affine_entries(
    frame: &Store,
    affine: &[(Sym, lip_symbolic::SymExpr)],
) -> Vec<(Sym, Value, i64)> {
    affine
        .iter()
        .filter_map(|(s, step)| Some((*s, frame.scalar(*s)?, step.eval(&StoreCtx(frame))?)))
        .collect()
}

/// An affine scalar's value `k` iterations in: a chunk's copy starts
/// there, stepped as the body steps it (`i64` wraps, `f64` rounds at
/// every step).
fn stepped(entry: Value, step: i64, k: i64) -> Value {
    match entry {
        Value::Int(v) => Value::Int(v.wrapping_add(step.wrapping_mul(k))),
        Value::Real(v) => Value::Real((0..k).fold(v, |v, _| v + step as f64)),
    }
}

/// The typed zero a reduction accumulator starts from.
fn zero(ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(0),
        Ty::Real => Value::Real(0.0),
    }
}

/// A scalar reduction after a chunked run: its entry value (zero when
/// unbound) plus each chunk's partial sum, accumulated in the scalar's
/// declared type (the `Int` path wraps, matching `apply_bin`'s in-loop
/// arithmetic).
fn reduced(ty: Ty, entry: Option<Value>, partials: impl Iterator<Item = Value>) -> Value {
    match ty {
        Ty::Int => {
            let init = entry.map_or(0, Value::as_i64);
            Value::Int(partials.fold(init, |a, v| a.wrapping_add(v.as_i64())))
        }
        Ty::Real => {
            let init = entry.map_or(0.0, Value::as_f64);
            Value::Real(partials.fold(init, |a, v| a + v.as_f64()))
        }
    }
}

/// One chunk's dynamic-last-value write marks: per DLV array, the
/// chunk's private buffer and a mask of one byte per element, set when
/// the chunk wrote that element. A write finds its mask by comparing
/// buffer addresses over the one or two DLV arrays, so a write through
/// any name — a callee's formal included — marks it; the store is a
/// relaxed byte store, with no lock and no hashing (the tracer is the
/// chunk's own, and the join orders every mark before the merge reads
/// it). Every access is forwarded to the session's tracer, when one is
/// installed, so a recorder sees the chunk as it sees any other.
struct WriteMasks<'t> {
    masks: Vec<(Sym, Arc<ArrayBuf>, Box<[AtomicBool]>)>,
    session: Option<&'t dyn AccessTracer>,
}

impl WriteMasks<'_> {
    /// The write mask of `buf`, when it is a DLV array's private buffer.
    fn mask(&self, buf: &ArrayBuf) -> Option<&[AtomicBool]> {
        self.masks
            .iter()
            .find(|(_, b, _)| std::ptr::eq(&**b, buf))
            .map(|(.., mask)| &**mask)
    }
}

impl AccessTracer for WriteMasks<'_> {
    fn read(&self, arr: Sym, buf: &ArrayBuf, idx: usize) {
        if let Some(t) = self.session {
            t.read(arr, buf, idx);
        }
    }

    /// Reads are only forwarded: without a session tracer that wants
    /// them, the VM skips the hook for every read.
    fn wants_reads(&self) -> bool {
        self.session.is_some_and(|t| t.wants_reads())
    }

    /// A mask buffer's writes are marked; any other buffer's only
    /// forwarded, so without a session tracer that wants them the VM
    /// skips the hook for every write to it (a shared array's, say).
    fn wants_writes(&self, buf: &ArrayBuf) -> bool {
        self.mask(buf).is_some() || self.session.is_some_and(|t| t.wants_writes(buf))
    }

    fn write(&self, arr: Sym, buf: &ArrayBuf, idx: usize) {
        if let Some(mask) = self.mask(buf) {
            mask[idx].store(true, Ordering::Relaxed);
        }
        if let Some(t) = self.session {
            t.write(arr, buf, idx);
        }
    }
}

/// The unit-step DO `shape` run in chunks on `frame` under `plan`,
/// then committed: the chunks' units.
fn run_parallel_do(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape<'_>,
    frame: &mut Store,
    plan: &BodyPlan<'_>,
) -> Result<u64, RunError> {
    let chunks = run_chunks(env, sub, shape, frame, plan, |c| {
        let range = Some((c.var, c.lo, c.hi));
        c.cb.run(env, &mut c.f, range, &mut c.st, c.tracer)
    })?;
    Ok(chunks.commit(frame))
}

/// One chunk of a chunked DO as [`run_chunks`] hands it to its runner:
/// the chunk's iterations, the compiled body, a frame seeded for the
/// chunk's first iteration, and the tracer its accesses go to (the
/// caller's, or the write masks that forward to it).
pub(crate) struct ChunkRun<'c> {
    pub idx: usize,
    pub lo: i64,
    pub hi: i64,
    pub cb: &'c CompiledBody,
    pub f: Frame,
    /// The loop variable's slot.
    pub var: u16,
    pub st: ExecState,
    pub tracer: Option<&'c dyn AccessTracer>,
}

/// What one chunk left behind.
#[derive(Default)]
struct ChunkOut {
    red: Vec<(Sym, Arc<ArrayBuf>, BinOp)>,
    /// Static-last-value private copies.
    slv: Vec<(Sym, Arc<ArrayBuf>)>,
    /// Dynamic-last-value private copies and their write masks.
    dlv: Vec<(Sym, Arc<ArrayBuf>, Box<[AtomicBool]>)>,
    /// Each scalar reduction's partial sum.
    sums: Vec<(Sym, Value)>,
    /// The last chunk's only: the loop variable, the privatized scalars
    /// and the CIVs as the sequential loop leaves them.
    finals: Vec<(Sym, Value)>,
}

/// A chunked run's outputs in chunk order, for [`Chunks::commit`] or
/// to be dropped.
pub(crate) struct Chunks<'a> {
    outs: Vec<ChunkOut>,
    /// The units the chunks spent.
    pub units: u64,
    sub: &'a lip_ir::Subroutine,
    scalar_reds: &'a [Sym],
    obs: &'a lip_obs::Obs,
}

/// The one driver of a chunked, unit-step DO — the parallel path's and
/// LRPD's. Each chunk gets its own privatized and reduction buffers,
/// its CIVs seeded from their traces and its affine scalars stepped in
/// from their entry values, at its first iteration, and its scalar
/// reductions from zero; `runner` runs it, and the chunk's outputs and
/// units are collected. Shared arrays are written in place; nothing
/// else reaches `frame` before [`Chunks::commit`].
pub(crate) fn run_chunks<'a>(
    env: &'a ExecEnv<'_>,
    sub: &'a lip_ir::Subroutine,
    shape: &DoShape<'_>,
    frame: &Store,
    plan: &BodyPlan<'a>,
    runner: impl Fn(&mut ChunkRun<'_>) -> Result<(), RunError> + Sync,
) -> Result<Chunks<'a>, RunError> {
    let DoShape {
        var, lo, hi, body, ..
    } = *shape;
    let mut chunks = Chunks {
        outs: Vec::new(),
        units: 0,
        sub,
        scalar_reds: plan.scalar_reds,
        obs: &env.cache.obs,
    };
    if hi < lo {
        return Ok(chunks);
    }
    let affine = affine_entries(frame, plan.affine);
    // Compile the loop body once; every worker thread then executes
    // bytecode through its own `Send` frame.
    let mut extra: Vec<Sym> = vec![var];
    extra.extend(plan.scalar_reds.iter().copied());
    extra.extend(plan.civs.iter().map(|(s, _)| *s));
    extra.extend(plan.scalar_finals.iter().copied());
    let cb = env.body(sub, body, &[], &extra)?;
    let slot = |s: Sym| cb.chunk().scalar_slot(s).expect("interned");
    let nchunks = chunk_bounds(env.cache.nthreads, lo, hi).len();
    let outs: Mutex<Vec<(usize, ChunkOut)>> = Mutex::new(Vec::new());
    let units = Mutex::new(0u64);
    let obs = env.cache.obs.enabled().then_some(&env.cache.obs);
    parallel_chunks_obs(env.cache.nthreads, lo, hi, obs, |idx, c_lo, c_hi| {
        let mut out = ChunkOut::default();
        let mut masks = WriteMasks {
            masks: Vec::new(),
            session: env.tracer(),
        };
        // Rebind privatized (copied in) / reduction arrays, on a copy
        // of the store only when there is one to rebind.
        let mut local: Option<Store> = None;
        for (arr, mode) in plan.arrays {
            let Some(view) = frame.array(*arr) else {
                continue;
            };
            let buf = match mode {
                ExecPlan::Shared => continue,
                ExecPlan::Private(true) => {
                    let buf = clone_buf(&view.buf);
                    out.slv.push((*arr, buf.clone()));
                    buf
                }
                ExecPlan::Private(false) => {
                    let buf = clone_buf(&view.buf);
                    let mask = (0..buf.len()).map(|_| AtomicBool::new(false)).collect();
                    masks.masks.push((*arr, buf.clone(), mask));
                    buf
                }
                ExecPlan::ReductionBuffer(op) => {
                    let buf = identity_buf(&view.buf, *op);
                    out.red.push((*arr, buf.clone(), *op));
                    buf
                }
            };
            let view = ArrayView {
                buf,
                ..view.clone()
            };
            local
                .get_or_insert_with(|| frame.clone())
                .bind_array(*arr, view);
        }
        let mut f = cb.frame(local.as_ref().unwrap_or(frame));
        // CIV-COMP: seed loop-carried scalars from their precomputed
        // traces at the chunk's first iteration (the whole point of the
        // slice precomputation — chunks become independent).
        for (s, trace) in plan.civs {
            if let Some(v) = frame.array(*trace).and_then(|t| t.get_lin(c_lo)) {
                f.set_scalar(slot(*s), v);
            }
        }
        for &(s, entry, step) in &affine {
            f.set_scalar(slot(s), stepped(entry, step, c_lo - lo));
        }
        // Scalar reductions start from the identity.
        for &s in plan.scalar_reds {
            f.set_scalar(slot(s), zero(sub.ty_of(s)));
        }
        // Dynamic last values need the chunk's write masks.
        let tracer: Option<&dyn AccessTracer> = if masks.masks.is_empty() {
            env.tracer()
        } else {
            Some(&masks)
        };
        let mut c = ChunkRun {
            idx,
            lo: c_lo,
            hi: c_hi,
            cb: &cb,
            f,
            var: slot(var),
            st: ExecState::default(),
            tracer,
        };
        runner(&mut c)?;
        let value = |s: &Sym| Some((*s, c.f.scalar(slot(*s))?));
        out.sums = plan.scalar_reds.iter().filter_map(value).collect();
        // The last chunk ran its iterations in order ending at `hi`, so
        // its copies of the privatized scalars and the CIVs hold the
        // sequential loop's final values; the interpreter leaves the
        // loop variable at its last value.
        if idx == nchunks - 1 {
            let finals = plan.scalar_finals.iter();
            let finals = finals.chain(plan.civs.iter().map(|(s, _)| s));
            out.finals = std::iter::once((var, Value::Int(hi)))
                .chain(finals.filter_map(value))
                .collect();
        }
        *units.lock().unwrap() += c.st.cost;
        out.dlv = masks.masks;
        outs.lock().unwrap().push((idx, out));
        Ok::<(), RunError>(())
    })?;
    let mut outs = outs.into_inner().unwrap();
    outs.sort_by_key(|(idx, _)| *idx);
    chunks.outs = outs.into_iter().map(|(_, out)| out).collect();
    chunks.units = units.into_inner().unwrap();
    Ok(chunks)
}

impl Chunks<'_> {
    /// Leaves `frame` as the sequential loop leaves it, in chunk order:
    /// reduction buffers merged, each dynamic-last-value element from
    /// the last chunk that wrote it, static last values and the final
    /// scalars from the last chunk, each scalar reduction its entry
    /// value plus every chunk's partial sum. Typed flat-slice kernels
    /// from [`crate::merge`] — Int buffers merge in `i64`, Real buffers
    /// in `f64`, never through a boxed round-trip. The chunks' units.
    pub(crate) fn commit(self, frame: &mut Store) -> u64 {
        let Some(last) = self.outs.last() else {
            return self.units;
        };
        let merge_start = self.obs.enabled().then(std::time::Instant::now);
        for out in &self.outs {
            // Reductions merge in any order.
            for (arr, buf, op) in &out.red {
                let shared = frame.array(*arr).expect("bound").buf.clone();
                merge_into(&shared, buf, *op);
            }
            for (arr, buf, mask) in &out.dlv {
                let shared = &frame.array(*arr).expect("bound").buf;
                for (idx, written) in mask.iter().enumerate() {
                    if written.load(Ordering::Relaxed) {
                        shared.set(idx, buf.get(idx));
                    }
                }
            }
        }
        for (arr, buf) in &last.slv {
            copy_back(&frame.array(*arr).expect("bound").buf, buf);
        }
        for (s, v) in &last.finals {
            frame.set_scalar(*s, *v);
        }
        for &s in self.scalar_reds {
            let sums = self
                .outs
                .iter()
                .flat_map(|o| &o.sums)
                .filter(|(t, _)| *t == s);
            let v = reduced(self.sub.ty_of(s), frame.scalar(s), sums.map(|(_, v)| *v));
            frame.set_scalar(s, v);
        }
        if let Some(start) = merge_start {
            (self.obs).record_ns("exec.merge_ns", start.elapsed().as_nanos() as u64);
        }
        self.units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use lip_analysis::{analyze_loop, AnalysisConfig};
    use lip_ir::{parse_program, Machine};
    use lip_symbolic::sym;

    fn full_setup(src: &str, label: &str) -> (Machine, lip_ir::Subroutine, Stmt, LoopAnalysis) {
        let prog = parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop(label).expect("loop").clone();
        let analysis =
            analyze_loop(&prog, sub.name, label, &AnalysisConfig::default()).expect("analyzed");
        (Machine::new(prog), sub, target, analysis)
    }

    /// A default two-thread session.
    fn session2() -> Session {
        Session::builder().nthreads(2).build()
    }

    #[test]
    fn static_parallel_matches_sequential() {
        let src = "
SUBROUTINE t(A, B, N)
  DIMENSION A(*), B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = B(i) * 2.0 + 1.0
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 1000usize;
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), n);
        let b = frame.alloc_real(sym("B"), n);
        for i in 0..n {
            b.set(i, Value::Real(i as f64));
        }
        let stats = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        assert_eq!(stats.outcome, ExecOutcome::StaticParallel);
        let a = frame.array(sym("A")).expect("A");
        for i in 0..n {
            assert_eq!(a.get_f64(i), (i as f64) * 2.0 + 1.0);
        }
    }

    #[test]
    fn predicate_pass_then_parallel() {
        // A(i) = A(i+M): parallel iff M >= N.
        let src = "
SUBROUTINE t(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO l1 i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 500i64;
        let mut frame = Store::new();
        frame.set_int(sym("N"), n).set_int(sym("M"), n);
        let a = frame.alloc_real(sym("A"), 2 * n as usize);
        for i in 0..(2 * n) as usize {
            a.set(i, Value::Real(i as f64));
        }
        let stats = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        assert!(matches!(stats.outcome, ExecOutcome::PredicatePassed { .. }));
        let av = frame.array(sym("A")).expect("A");
        assert_eq!(av.get_f64(0), (n as f64) + 1.0);
        assert!(stats.test_units > 0);

        // Failing predicate: runs sequentially, still correct.
        let mut frame2 = Store::new();
        frame2.set_int(sym("N"), n).set_int(sym("M"), 1);
        let a2 = frame2.alloc_real(sym("A"), (n + 1) as usize);
        for i in 0..=(n as usize) {
            a2.set(i, Value::Real(0.0));
        }
        a2.set(n as usize, Value::Real(7.0));
        let stats2 = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame2)
            .expect("runs");
        assert_eq!(stats2.outcome, ExecOutcome::Sequential);
        // Sequential anti-dependence semantics: each A(i) reads the OLD
        // A(i+1), so only A(N) sees the seeded 7.0.
        let av2 = frame2.array(sym("A")).expect("A");
        assert_eq!(av2.get_f64(0), 1.0);
        assert_eq!(av2.get_f64((n - 1) as usize), 8.0);
    }

    #[test]
    fn buffered_reduction_is_exact() {
        // Non-injective index array: the cascade fails, buffers merge.
        let src = "
SUBROUTINE t(A, B, N)
  DIMENSION A(100)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = A(B(i)) + 1.0
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 1000usize;
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), 100);
        let b = frame.alloc_int(sym("B"), n);
        for i in 0..n {
            b.set(i, Value::Int((i % 10 + 1) as i64)); // heavy collisions
        }
        let stats = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        // Regardless of path, the histogram must be exact.
        let a = frame.array(sym("A")).expect("A");
        for k in 0..10 {
            assert_eq!(
                a.get_f64(k),
                100.0,
                "bucket {k} (outcome {:?})",
                stats.outcome
            );
        }
    }

    /// Int reductions must merge in `i64`: addends above 2^53 and
    /// totals near `i64::MAX` are corrupted by any `f64` round-trip in
    /// the merge phase. The parallel result must be bit-identical to
    /// the sequential interpreter's.
    #[test]
    fn int_buffered_reduction_is_bit_identical_to_sequential() {
        let src = "
SUBROUTINE t(A, B, N)
  INTEGER A(100)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = A(B(i)) + 9007199254740993
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 1000usize;
        let setup = |frame: &mut Store| {
            frame.set_int(sym("N"), n as i64);
            let a = frame.alloc_int(sym("A"), 100);
            for k in 0..100 {
                a.set(k, Value::Int((1 << 62) + k as i64));
            }
            let b = frame.alloc_int(sym("B"), n);
            for i in 0..n {
                b.set(i, Value::Int((i % 10 + 1) as i64)); // heavy collisions
            }
        };
        let mut par = Store::new();
        setup(&mut par);
        let stats = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut par)
            .expect("runs");
        let mut seq = Store::new();
        setup(&mut seq);
        machine
            .exec_block(
                &sub,
                &mut seq,
                std::slice::from_ref(&target),
                &mut ExecState::default(),
            )
            .expect("sequential");
        let ap = par.array(sym("A")).expect("A");
        let asq = seq.array(sym("A")).expect("A");
        for k in 0..100 {
            assert_eq!(
                ap.buf.get(k),
                asq.buf.get(k),
                "A[{k}] diverged from sequential (outcome {:?})",
                stats.outcome
            );
        }
        // Each of the 10 hot buckets took 100 additions of 2^53 + 1 —
        // a total no `f64` can represent.
        assert_eq!(
            ap.buf.get(0),
            Value::Int((1 << 62) + 100 * 9007199254740993i64)
        );
    }

    /// Int MIN/MAX reductions over values near `i64::MAX`: the typed
    /// identities (`i64::MAX`/`i64::MIN`) and the `i64` merge must
    /// reproduce the sequential result exactly — an `f64` round-trip
    /// rounds these values to 2^63 and saturates.
    #[test]
    fn int_min_max_reduction_is_bit_identical_to_sequential() {
        for intr in ["MIN", "MAX"] {
            let src = format!(
                "
SUBROUTINE t(A, B, C, N)
  INTEGER A(10)
  INTEGER B(*), C(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = {intr}(A(B(i)), C(i))
  ENDDO
END
"
            );
            let (machine, sub, target, analysis) = full_setup(&src, "l1");
            let n = 400usize;
            let seed = if intr == "MIN" { i64::MAX } else { i64::MIN };
            let setup = |frame: &mut Store| {
                frame.set_int(sym("N"), n as i64);
                let a = frame.alloc_int(sym("A"), 10);
                for k in 0..10 {
                    a.set(k, Value::Int(seed));
                }
                let b = frame.alloc_int(sym("B"), n);
                let c = frame.alloc_int(sym("C"), n);
                for i in 0..n {
                    b.set(i, Value::Int((i % 10 + 1) as i64));
                    // Distinct values within 2^53 of i64::MAX — an f64
                    // cannot tell them apart.
                    c.set(i, Value::Int(i64::MAX - 1000 * i as i64 - 1));
                }
            };
            let mut par = Store::new();
            setup(&mut par);
            let stats = session2()
                .run_loop(&machine, &sub, &target, &analysis, &mut par)
                .expect("runs");
            let mut seq = Store::new();
            setup(&mut seq);
            machine
                .exec_block(
                    &sub,
                    &mut seq,
                    std::slice::from_ref(&target),
                    &mut ExecState::default(),
                )
                .expect("sequential");
            let ap = par.array(sym("A")).expect("A");
            let asq = seq.array(sym("A")).expect("A");
            for k in 0..10 {
                assert_eq!(
                    ap.buf.get(k),
                    asq.buf.get(k),
                    "{intr} A[{k}] diverged (outcome {:?})",
                    stats.outcome
                );
            }
        }
    }

    /// Int scalar reductions accumulate in `i64` with wrapping adds
    /// (matching `apply_bin`'s in-loop arithmetic): overflow past
    /// `i64::MAX` must wrap bit-identically to sequential execution,
    /// not panic or detour through `f64`.
    #[test]
    fn int_scalar_reduction_wraps_like_sequential() {
        let src = "
SUBROUTINE t(A, N)
  INTEGER A(*)
  INTEGER i, N, s
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 100usize;
        let setup = |frame: &mut Store| {
            frame.set_int(sym("N"), n as i64);
            frame.set_scalar(sym("s"), Value::Int(i64::MAX - 50));
            let a = frame.alloc_int(sym("A"), n);
            for i in 0..n {
                a.set(i, Value::Int((1 << 53) + 1));
            }
        };
        let mut par = Store::new();
        setup(&mut par);
        session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut par)
            .expect("runs");
        let mut seq = Store::new();
        setup(&mut seq);
        machine
            .exec_block(
                &sub,
                &mut seq,
                std::slice::from_ref(&target),
                &mut ExecState::default(),
            )
            .expect("sequential");
        assert_eq!(par.scalar(sym("s")), seq.scalar(sym("s")));
        assert_eq!(
            par.scalar(sym("s")),
            Some(Value::Int(
                (i64::MAX - 50).wrapping_add(100 * ((1 << 53) + 1))
            ))
        );
    }

    /// An unbound Int accumulator seeds from `Int(0)` — the declared
    /// type — not a `Real(0.0)` default that would flip the merged
    /// scalar to `f64`.
    #[test]
    fn unbound_int_scalar_reduction_seeds_typed_zero() {
        let src = "
SUBROUTINE t(A, N)
  INTEGER A(*)
  INTEGER i, N, s
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let n = 100usize;
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        let a = frame.alloc_int(sym("A"), n);
        for i in 0..n {
            a.set(i, Value::Int((1 << 53) + 1));
        }
        session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        assert_eq!(
            frame.scalar(sym("s")),
            Some(Value::Int(100 * ((1 << 53) + 1)))
        );
    }

    #[test]
    fn scalar_reduction_merges() {
        let src = "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  s = 10.0
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
";
        let prog = parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        let analysis =
            analyze_loop(&prog, sub.name, "l1", &AnalysisConfig::default()).expect("analyzed");
        let machine = Machine::new(prog);
        let n = 100usize;
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.set_scalar(sym("s"), Value::Real(10.0));
        let a = frame.alloc_real(sym("A"), n);
        for i in 0..n {
            a.set(i, Value::Real(1.0));
        }
        session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        assert_eq!(frame.scalar(sym("s")).map(Value::as_f64), Some(110.0));
    }

    #[test]
    fn privatized_array_with_last_value() {
        // T is written [1,M] then read each iteration: PRIV; its final
        // content must be iteration N's (static last value).
        let src = "
SUBROUTINE t(A, T, N, M)
  DIMENSION A(*), T(*)
  INTEGER i, j, N, M
  DO l1 i = 1, N
    DO j = 1, M
      T(j) = i + j
    ENDDO
    DO j = 1, M
      A(i) = A(i) + T(j)
    ENDDO
  ENDDO
END
";
        let (machine, sub, target, analysis) = full_setup(src, "l1");
        let (n, m) = (64i64, 8i64);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n).set_int(sym("M"), m);
        frame.alloc_real(sym("A"), n as usize);
        frame.alloc_real(sym("T"), m as usize);
        let stats = session2()
            .run_loop(&machine, &sub, &target, &analysis, &mut frame)
            .expect("runs");
        assert_ne!(stats.outcome, ExecOutcome::Sequential);
        // A(i) = Σ_j (i + j); T's final = last iteration's values.
        let a = frame.array(sym("A")).expect("A");
        for i in 1..=n {
            let expected: f64 = (1..=m).map(|j| (i + j) as f64).sum();
            assert_eq!(a.get_f64((i - 1) as usize), expected, "A({i})");
        }
        let t = frame.array(sym("T")).expect("T");
        for j in 1..=m {
            assert_eq!(t.get_f64((j - 1) as usize), (n + j) as f64, "T({j})");
        }
    }
}
