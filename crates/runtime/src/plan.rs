//! The executor's decision for one run of one loop, as one value.
//!
//! The paper's runtime (§5) makes one decision per run: evaluate the
//! cheapest sufficient test, then run the loop in parallel, speculate,
//! distribute it or run it sequentially. `plan` makes it into a
//! [`Plan`]: the DO's bounds, evaluated once; what the shape and the
//! class decide before any test; the CIV slice, when the route or the
//! tests read its traces; the cascade, then the exact test, every
//! verdict memoized under a key from one [`InputDigests`] table per
//! test phase; and on a parallel route each array's treatment.
//! `exec::execute` runs the plan and decides nothing, but that a
//! fissioned run plans each fragment on the store the fragments before
//! it left. `explain` ([`Plan::decision`]), `lip_suite`'s check and its
//! cost model read the plan instead of deciding again.

use std::fmt;

use lip_analysis::{ArrayPlan, FallbackKind, FissionFragment, FissionPlan, LastValue};
use lip_analysis::{LoopAnalysis, LoopClass};
use lip_ir::{BinOp, ExecState, RunError, Stmt, Store, StoreCtx, Subroutine};
use lip_obs::{FissionReport, FragmentReport, LoopDecision, PlanReport, StageReport, TestUnits};
use lip_symbolic::Sym;
use lip_usr::Exact;

use crate::backend::{DoShape, ExecEnv};
use crate::civ::civ_traces;
use crate::digest::{Digests, InputDigests, KeyCost};
use crate::exec::TEST_BUDGET;

/// How one run of a loop executes, decided before it runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The DO's iteration space as the run evaluated it; `None` for a
    /// WHILE.
    pub shape: Option<DoShape>,
    /// Where the run goes.
    pub route: Route,
    /// Each array's treatment on a parallel route, in the analysis'
    /// order; empty on every other route (speculation shares and
    /// shadows every array).
    pub arrays: Vec<(Sym, ExecPlan)>,
    /// What the tests charged, by component: `units.slice` is `Some`
    /// exactly when the CIV slice ran.
    pub units: TestUnits,
    /// The cascade stages evaluated, kept when the observer keeps
    /// decision records (a report renders its predicate).
    pub stages: Vec<StageReport>,
    /// The exact test's result and whether the memo answered it, when
    /// it ran.
    pub exact: Option<(Exact, bool)>,
    /// A fissioned run's fragments in program order, each planned on
    /// the store the fragments before it left (empty until the run).
    pub fragments: Vec<Fragment>,
    /// What keying the tests cost, a fissioned run's fragments' included.
    pub keys: KeyCost,
}

/// Where a run goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// In chunks, with no runtime test: a `StaticParallel` class.
    Static,
    /// In chunks: this cascade stage passed.
    Stage(usize),
    /// In chunks: every stage failed, and the exact test found the loop
    /// independent.
    Exact,
    /// LRPD speculation: the class needs a fallback, or the exact test
    /// could not decide.
    Speculate,
    /// Distributed by the analysis' fission plan.
    Fission,
    /// Sequentially, for the reason given.
    Sequential(SeqReason),
}

/// Why a run is sequential.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqReason {
    /// A WHILE loop: the executor has no chunked form of one.
    While,
    /// A DO with a step other than 1: the chunk driver assumes a unit
    /// stride.
    Step,
    /// A CIV loop whose variable cannot index its traces
    /// ([`DoShape::traces_by_var`]).
    Traces,
    /// No test could license a parallel run: a `StaticSequential`
    /// class, or a fragment that would need speculation.
    StaticSequential,
    /// The tests found a dependence (a fragment's, or could not decide).
    TestsFailed,
    /// A `Fissioned` class while the session's fission knob is off.
    FissionOff,
}

/// Per-array parallel-execution mode, from the analysis' plan and, for
/// a reduction, its runtime test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPlan {
    /// Access the shared buffer directly.
    Shared,
    /// Per-chunk private copy; `true` = static last value (the chunk
    /// holding the last iteration writes back), `false` = dynamic last
    /// value (chunk-ordered merge of written elements).
    Private(bool),
    /// Per-chunk identity-initialized buffer merged with the operator.
    ReductionBuffer(BinOp),
}

/// One fragment of a fissioned run.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Its plan (its route is parallel or sequential).
    pub plan: Plan,
    /// Whether it ran in chunks: a parallel route, and iterations to run.
    pub parallel: bool,
    /// The units its body charged.
    pub units: u64,
}

impl Route {
    /// Whether the route runs the body in chunks under the plan's array
    /// treatment, licensed before the run (LRPD's chunks are licensed
    /// after it).
    pub fn parallel(self) -> bool {
        matches!(self, Route::Static | Route::Stage(_) | Route::Exact)
    }
}

impl fmt::Display for SeqReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeqReason::While => "a WHILE loop",
            SeqReason::Step => "a step other than 1",
            SeqReason::Traces => "CIV traces its variable cannot index",
            SeqReason::StaticSequential => "classified sequential",
            SeqReason::TestsFailed => "its tests failed",
            SeqReason::FissionOff => "fission is off",
        })
    }
}

impl fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecPlan::Shared => f.write_str("shared"),
            ExecPlan::Private(true) => f.write_str("private, static last value"),
            ExecPlan::Private(false) => f.write_str("private, dynamic last value"),
            ExecPlan::ReductionBuffer(op) => write!(f, "reduction buffer ({op:?})"),
        }
    }
}

/// Plans a run of `target` under `analysis` on `frame`, binding what
/// its CIV slice computes into `frame`; with the plan, the digests its
/// tests took of `frame` (a fissioned run's first fragment keys its
/// tests with them).
pub(crate) fn plan(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    frame: &mut Store,
) -> Result<(Plan, Digests), RunError> {
    let shape = env.do_shape(sub, target, frame, &mut ExecState::default())?;
    let fission = analysis.fission.as_deref().filter(|_| env.cache.fission);
    let mut digests = Digests::new();
    let p = decide(
        env,
        sub,
        target,
        shape,
        analysis,
        frame,
        fission,
        false,
        &mut digests,
    )?;
    Ok((p, digests))
}

/// [`plan`] of a loop whose bounds `shape` holds: a whole loop, which
/// may speculate and distribute by `fission` (its plan, when the session
/// honours it), or a `fragment` of a fissioned run, which does neither.
/// The tests key their memo lookups with `digests`, digests of `frame`
/// as it is when they run, extended with what they digest.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    target: &Stmt,
    shape: Option<DoShape>,
    a: &LoopAnalysis,
    frame: &mut Store,
    fission: Option<&FissionPlan>,
    fragment: bool,
    digests: &mut Digests,
) -> Result<Plan, RunError> {
    use Route::*;
    // What the shape and the class decide before any test. The chunk
    // driver assumes a unit stride and seeds CIVs from traces indexed
    // by the loop variable; anything else runs sequentially rather
    // than silently mis-iterating.
    let decided = match (shape, &a.class) {
        (None, _) => Some(Sequential(SeqReason::While)),
        (Some(s), _) if s.step != 1 => Some(Sequential(SeqReason::Step)),
        (Some(s), _) if !a.civs.is_empty() && !s.traces_by_var() => {
            Some(Sequential(SeqReason::Traces))
        }
        (_, LoopClass::StaticParallel) => Some(Static),
        (_, LoopClass::Predicated { .. }) => None,
        (_, LoopClass::NeedsFallback(FallbackKind::HoistUsr)) if fragment => None,
        // Straight to speculation on the written arrays.
        (_, LoopClass::NeedsFallback(_)) if !fragment => Some(Speculate),
        // Knob off at run time (or a plan-less class, which the
        // analysis never produces): plain sequential execution.
        (_, LoopClass::Fissioned { .. }) if !fragment => {
            Some(fission.map_or(Sequential(SeqReason::FissionOff), |_| Fission))
        }
        _ => Some(Sequential(SeqReason::StaticSequential)),
    };
    let mut p = Plan {
        shape,
        route: Sequential(SeqReason::StaticSequential),
        arrays: Vec::new(),
        units: TestUnits::default(),
        stages: Vec::new(),
        exact: None,
        fragments: Vec::new(),
        keys: KeyCost::default(),
    };
    // CIV-COMP, for a route that reads the traces: the tests, the
    // chunks' seeding.
    if shape.is_none() || (!a.civs.is_empty() && matches!(decided, None | Some(Static | Speculate)))
    {
        let niters = shape.is_none().then(|| LoopAnalysis::niters_sym(&a.label));
        let (civs, state) = (&a.civs, ExecState::default());
        let slice = civ_traces(env, sub, target, shape.as_ref(), civs, frame, niters, state)?;
        p.units.slice = Some(slice);
    }
    // One test phase: the cascade, the exact test and the reduction
    // cascades all read this frame before anything writes it, so they
    // share one digest table.
    let mut keys = KeyCost {
        timed: env.cache.obs.enabled(),
        ..KeyCost::default()
    };
    let mut inputs = InputDigests::resume(frame, &mut keys, std::mem::take(digests));
    p.route = match decided {
        Some(route) => route,
        None => tested(env, a, fission, fragment, &mut inputs, &mut p),
    };
    if p.route.parallel() {
        p.arrays = exec_plans(env, a, &mut inputs);
    }
    *digests = inputs.into_digests();
    p.keys = keys;
    Ok(p)
}

/// The route the tests give: the cascade of a predicated class, then,
/// when it fails, the exact test — unless the fission plan distributes
/// the loop first.
fn tested(
    env: &ExecEnv<'_>,
    a: &LoopAnalysis,
    fission: Option<&FissionPlan>,
    fragment: bool,
    inputs: &mut InputDigests<'_>,
    p: &mut Plan,
) -> Route {
    if matches!(a.class, LoopClass::Predicated { .. }) {
        // Stage reports render predicate strings — only pay for that
        // when the observer keeps decision records (trace).
        let report = env.cache.obs.trace_enabled().then_some(&mut p.stages);
        let (passed, units) = cascade_test(env, &a.cascade, inputs, report);
        p.units.stages = Some(units);
        if let Some(stage) = passed {
            return Route::Stage(stage);
        }
    }
    // A statically sequential fragment carries a dependence the exact
    // test is certain to find again, so distribute right away:
    // fragments that can be rescued run their own, smaller tests, and
    // the sequential residue runs as it would have anyway.
    if fission.is_some_and(FissionPlan::holds_sequential) {
        return Route::Fission;
    }
    // Last resort (§5): exact USR evaluation, then TLS.
    let (exact, hit) = exact_test(env, a, inputs);
    p.units.exact = Some(exact.units);
    p.exact = Some((exact, hit));
    match exact.verdict {
        Some(true) => Route::Exact,
        // Genuine dependences: the whole loop can't run parallel, but a
        // fission plan may still salvage the independent fragments.
        Some(false) => fission.map_or(Route::Sequential(SeqReason::TestsFailed), |_| {
            Route::Fission
        }),
        // Fragments never speculate.
        None if fragment => Route::Sequential(SeqReason::TestsFailed),
        None => Route::Speculate,
    }
}

/// Lowers the per-array analysis plans to execution modes against live
/// state (reduction cascades are evaluated here: a pass means direct
/// shared updates, a fail means buffered merge).
fn exec_plans(
    env: &ExecEnv<'_>,
    a: &LoopAnalysis,
    inputs: &mut InputDigests<'_>,
) -> Vec<(Sym, ExecPlan)> {
    let mut mode = |plan: &ArrayPlan| match plan {
        ArrayPlan::Privatized { last_value, .. } => {
            ExecPlan::Private(matches!(last_value, LastValue::Static))
        }
        // No cascade stored = statically independent; a passing cascade
        // proves distinct iterations touch distinct elements. Either way
        // direct shared updates are safe; otherwise buffer per thread
        // and merge. Reduction cascades were never charged to
        // test_units (the plan decision is part of the codegen
        // template).
        ArrayPlan::Reduction { op, cascade, .. } => {
            let passes = |c| cascade_test(env, c, inputs, None).0.is_some();
            if cascade.as_ref().is_none_or(passes) {
                ExecPlan::Shared
            } else {
                ExecPlan::ReductionBuffer(*op)
            }
        }
        _ => ExecPlan::Shared,
    };
    (a.arrays.iter())
        .map(|(arr, plan)| (*arr, mode(plan)))
        .collect()
}

/// Any cascade (a loop's, a fragment's, a reduction plan's) on
/// `inputs.frame()`: the first passing stage and the units charged.
/// Verdicts are memoized under keys from `inputs`, one test phase's
/// digest table, so an array several tests read is read once. `report`
/// gets a [`StageReport`] per evaluated stage; verdict and charge do
/// not depend on it.
fn cascade_test(
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

/// The cascade's last resort (§5; HOIST-USR, §7): whether `analysis`'
/// `ind_usr` is empty on `inputs.frame()`, by the one-pass evaluator
/// ([`lip_usr::exact`], on the plan the analysis lowered once) behind
/// the program's memo, under the USR and a key over what it reads. The units are the evaluation's count,
/// charged on memo hit (the `bool`) and miss alike; no `ind_usr` is
/// undecided at no cost.
fn exact_test(
    env: &ExecEnv<'_>,
    analysis: &LoopAnalysis,
    inputs: &mut InputDigests<'_>,
) -> (Exact, bool) {
    let Some(key) = analysis.exact_key() else {
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
                let e = key.plan.independent(&StoreCtx(frame), TEST_BUDGET);
                (e.verdict, e.units)
            });
    let fresh = ["undecided", "dependent", "independent"];
    let memo = ["undecided (memo)", "dependent (memo)", "independent (memo)"];
    let said = [fresh, memo][usize::from(hit)][verdict.map_or(0, |v| 1 + usize::from(v))];
    obs.exit_span(span, said);
    obs.count(
        ["run.exact_evals", "run.exact_memo_hits"][usize::from(hit)],
        1,
    );
    obs.count("run.exact_units", units);
    (Exact { verdict, units }, hit)
}

impl Plan {
    /// The decision record of a run of `a`'s loop under this plan: the
    /// class, the stages, the passed stage, the exact test, the plan's
    /// own report (sequential reason, arrays, test units by component),
    /// what keying the tests cost and, for a fissioned run, each
    /// fragment's record. The caller adds the executor and the units.
    pub fn decision(&self, a: &LoopAnalysis) -> LoopDecision {
        let mut d = LoopDecision::new(&a.label);
        d.class = format!("{:?}", a.class);
        d.stages = self.stages.clone();
        d.passed_stage = match self.route {
            Route::Stage(k) => Some(k),
            _ => None,
        };
        (d.exact_test, d.exact_units, d.exact_memo_hit) = self.exact_fields();
        d.plan = self.report();
        d.test_units = self.units.total();
        (d.key_elems, d.key_ns) = (self.keys.elems, self.keys.ns);
        if !self.fragments.is_empty() {
            let frags = a.fission.iter().flat_map(|p| &p.fragments);
            let runs = frags.zip(&self.fragments).enumerate();
            let fragments: Vec<_> = runs.map(|(k, (frag, run))| run.report(frag, k)).collect();
            d.fission = Some(FissionReport {
                rescued_units: (fragments.iter().filter(|f| f.parallel))
                    .map(|f| f.units)
                    .sum(),
                loop_units: fragments.iter().map(|f| f.units).sum(),
                fragments,
            });
        }
        d
    }

    /// The exact test as decision records carry it: `exact_test`,
    /// `exact_units`, `exact_memo_hit` (all blank when it did not run).
    fn exact_fields(&self) -> (Option<bool>, u64, bool) {
        self.exact
            .map_or((None, 0, false), |(e, hit)| (e.verdict, e.units, hit))
    }

    fn report(&self) -> PlanReport {
        PlanReport {
            sequential_reason: match self.route {
                Route::Sequential(why) => Some(why.to_string()),
                _ => None,
            },
            arrays: (self.arrays.iter())
                .map(|(a, mode)| (a.to_string(), mode.to_string()))
                .collect(),
            units: self.units,
        }
    }
}

impl Fragment {
    /// The explain record of `frag`, fragment number `k`, as it ran.
    fn report(&self, frag: &FissionFragment, k: usize) -> FragmentReport {
        let (exact_test, exact_units, exact_memo_hit) = self.plan.exact_fields();
        FragmentReport {
            label: fragment_label(frag, k),
            class: format!("{:?}", frag.analysis.class),
            parallel: self.parallel,
            units: self.units,
            test_units: self.plan.units.total(),
            stages: self.plan.stages.clone(),
            exact_test,
            exact_units,
            exact_memo_hit,
            plan: self.plan.report(),
        }
    }
}

/// Fragment `k`'s label: its loop's, or `fragment k`.
pub(crate) fn fragment_label(frag: &FissionFragment, k: usize) -> String {
    match &frag.target {
        Stmt::Do { label: Some(l), .. } => l.clone(),
        _ => format!("fragment {k}"),
    }
}
