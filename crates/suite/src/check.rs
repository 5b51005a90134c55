//! One check that a loop a [`Session`] runs is the sequential loop.
//!
//! The paper's promise is that a loop run in parallel under a passed
//! test is observationally the loop run sequentially.
//! [`observationally_sequential`] defends it for one loop on one input.
//! It runs three legs, each on its own deep copy of the input:
//!
//! - **the oracle**: the tree-walking interpreter,
//!   `lip_ir::Machine::exec_stmt`, under a recording tracer;
//! - **the handle leg**: the production path, `LoopHandle::run` on the
//!   caller's handle, untraced. A handle that has run before answers
//!   from its memo, and that run is checked as a cold one is ([`cold`]
//!   loads a fresh one);
//! - **the traced leg**: the same drivers through the `Machine`-taking
//!   `Session::run_loop`, on `Machine::with_tracer`. It is the only
//!   entry into the drivers that can trace.
//!
//! The check reads the route from the traced leg's `Plan` rather than
//! deciding it again, and its [`Report`] holds one [`Verdict`] per
//! comparison:
//!
//! 1. **store**: each session leg's store against the oracle's, on
//!    every scalar and array the input binds and on a DO's variable, as
//!    tagged bits (`Int` or `Real`, then the 64 bits). Names the run
//!    mints, such as CIV trace arrays, are not outputs and are skipped;
//! 2. **loop units**: the oracle's cost, less the DO statement's own
//!    unit when the body ran as chunks;
//! 3. **test units**: the reference of each test the plan ran — the
//!    CIV slice on the interpreter (which binds the traces the cascade
//!    reads), the cascade's charge by `Pdag::eval`,
//!    `lip_usr::exact::independent`'s units ([`reference_tests`]) — and
//!    for a fissioned run each fragment's, on the store the fragments
//!    before it left;
//! 4. **accesses**: per array name, the sorted `(kind, index)` events
//!    of the traced leg against the oracle's;
//! 5. **plan**: each claim of the plan, the loop's and each fragment's:
//!    its shape is the interpreter's evaluation of the bounds, a route
//!    that runs in chunks has the unit step and traces the chunk driver
//!    assumes, and the route's licence or reason holds ("step ≠ 1" of
//!    the shape, "fission off" of the session, "stage k passed" and
//!    "tests failed" of the reference tests);
//! 6. **legs**: the handle leg and the traced leg agree on route,
//!    outcome and units.
//!
//! ROADMAP item 4's race oracle goes beside `accesses`, and would check
//! the plan's per-array claims on the oracle's per-iteration accesses.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use lip_analysis::{fragment_rescuable, FissionPlan, LoopAnalysis, LoopClass};
use lip_ir::{
    AccessTracer, ArrayBuf, ArrayView, ExecState, Machine, Program, Stmt, Store, StoreCtx,
    Subroutine, Ty, Value,
};
use lip_runtime::{DoShape, LoopHandle, Plan, Route, RunStats, SeqReason, Session, TEST_BUDGET};
use lip_symbolic::Sym;
use lip_usr::Exact;

/// How one comparison ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Both sides agree.
    Equal,
    /// They disagree, as described.
    Differs(String),
}

/// What [`observationally_sequential`] found.
pub struct Report {
    /// The loop and the session configuration it ran under.
    context: String,
    /// The traced leg's outcome, units and plan.
    pub stats: RunStats,
    /// The traced leg's store after the run.
    pub after: Store,
    /// Each session leg's store against the oracle's, as tagged bits.
    pub store: Verdict,
    /// `loop_units` against the oracle's cost.
    pub loop_units: Verdict,
    /// `test_units` against the reference of each test the plan ran.
    pub test_units: Verdict,
    /// The traced access multiset against the oracle's.
    pub accesses: Verdict,
    /// The plan's claims against the bounds, the analysis, the session
    /// and the reference tests.
    pub plan: Verdict,
    /// The handle leg's route, outcome and units against the traced
    /// leg's.
    pub legs: Verdict,
}

impl Report {
    fn verdicts(&self) -> [(&'static str, &Verdict); 6] {
        [
            ("store", &self.store),
            ("loop units", &self.loop_units),
            ("test units", &self.test_units),
            ("accesses", &self.accesses),
            ("plan", &self.plan),
            ("legs", &self.legs),
        ]
    }

    /// Whether any comparison differs.
    pub fn differs(&self) -> bool {
        self.verdicts()
            .iter()
            .any(|(_, v)| matches!(v, Verdict::Differs(_)))
    }

    /// Panics, printing the report, when any comparison differs.
    #[track_caller]
    pub fn assert_sequential(&self) {
        assert!(!self.differs(), "not the sequential loop: {self}");
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let route = self.stats.plan.route;
        write!(f, "{}: {:?} by {route:?}", self.context, self.stats.outcome)?;
        for (name, v) in self.verdicts() {
            match v {
                Verdict::Equal => write!(f, "\n  {name}: equal")?,
                Verdict::Differs(d) => write!(f, "\n  {name}: DIFFERS: {d}")?,
            }
        }
        Ok(())
    }
}

/// Runs `handle`'s loop on copies of `input` three ways and compares
/// them (see the module docs). The handle leg runs on `handle` as the
/// caller left it, so a run its memo answers is checked like a cold
/// one; the traced leg always starts cold. `session` is the one
/// `handle` was loaded into. Panics when a leg fails to run.
pub fn observationally_sequential(session: &Session, handle: &LoopHandle, input: &Store) -> Report {
    let cfg = session.config();
    let (unit, target, analysis) = (handle.sub(), handle.target(), handle.analysis());
    let label = analysis.label.as_str();
    let context = format!(
        "{}/{label} (fission {}, nthreads {}, observer {})",
        unit.name, cfg.fission, cfg.nthreads, cfg.obs
    );

    let machine = Machine::new(handle.program().clone());
    let seen = Arc::new(Recorder::default());
    let mut want = deep_copy(input);
    let mut st = ExecState::default();
    let oracle = machine.with_tracer(seen.clone());
    if let Err(e) = oracle.exec_stmt(unit, &mut want, target, &mut st) {
        panic!("{context}: the oracle failed: {e}")
    }

    let mut untraced = deep_copy(input);
    let plain = handle.run(&mut untraced);
    let plain = plain.unwrap_or_else(|e| panic!("{context}: LoopHandle::run failed: {e}"));

    let traced = Arc::new(Recorder::default());
    let mut after = deep_copy(input);
    let run = session.run_loop(
        &machine.with_tracer(traced.clone()),
        unit,
        target,
        analysis,
        &mut after,
    );
    let stats = run.unwrap_or_else(|e| panic!("{context}: the traced run failed: {e}"));

    let fission = analysis.fission.as_deref().filter(|_| cfg.fission);
    let (charged, plan) = reference_run(&machine, unit, target, analysis, fission, input, &stats);
    let legs = [
        compare("route", &stats.plan.route, &plain.plan.route),
        compare("outcome", &stats.outcome, &plain.outcome),
        compare("test units", &stats.test_units, &plain.test_units),
        compare("loop units", &stats.loop_units, &plain.loop_units),
    ];
    // What the DO leaves in its variable is an output whether or not
    // the input binds it.
    let var = match target {
        Stmt::Do { var, .. } => Some(*var),
        _ => None,
    };
    let stores = [
        ("traced leg", compare_stores(input, var, &want, &after)),
        ("handle leg", compare_stores(input, var, &want, &untraced)),
    ];
    let do_unit = u64::from(stats.outcome.ran_in_chunks());
    Report {
        store: first_difference(stores.into_iter().map(|(leg, v)| match v {
            Verdict::Differs(d) => Verdict::Differs(format!("{leg}: {d}")),
            v => v,
        })),
        loop_units: compare("loop units", &(st.cost - do_unit), &stats.loop_units),
        test_units: compare("test units", &charged, &stats.test_units),
        accesses: compare_accesses(&seen.by_array(), &traced.by_array()),
        plan,
        legs: first_difference(legs),
        context,
        stats,
        after,
    }
}

/// [`observationally_sequential`] on loop `label` of subroutine `sub`
/// of `prog`, freshly loaded into `session`: every cache cold. Panics
/// when there is no such loop.
pub fn cold(session: &Session, prog: &Program, sub: Sym, label: &str, input: &Store) -> Report {
    let handle = session.load(prog.clone()).prepare(sub, label);
    let handle = handle.unwrap_or_else(|| panic!("no loop {sub}/{label}"));
    observationally_sequential(session, &handle, input)
}

/// [`cold`] on a prepared suite kernel.
pub fn kernel(session: &Session, p: &crate::Prepared) -> Report {
    let prog = p.machine.program();
    cold(session, prog, lip_symbolic::sym(p.sub), p.label, &p.frame)
}

/// The test units a run of `target` under `a` on `input` must charge
/// for the tests `stats`' plan says it ran, and whether the plan's
/// claims hold: the loop's, then, for a fissioned run, each fragment's,
/// on the store the fragments before it left. `fission` is the
/// analysis' fission plan when the session honours it.
fn reference_run(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    fission: Option<&FissionPlan>,
    input: &Store,
    stats: &RunStats,
) -> (u64, Verdict) {
    let plan = &stats.plan;
    let bounds = |s: DoShape| (s.var, s.lo, s.hi, s.step, s.units);
    let shape = match target {
        Stmt::Do {
            var, lo, hi, step, ..
        } => {
            let mut st = ExecState::default();
            let mut eval = |e| {
                let v = machine.eval(unit, input, e, &mut st);
                v.expect("the oracle evaluates the bounds").as_i64()
            };
            let (lo, hi, step) = (eval(lo), eval(hi), step.as_ref().map_or(1, &mut eval));
            Some((*var, lo, hi, step, st.cost))
        }
        _ => None,
    };
    let mut frame = deep_copy(input);
    let (mut units, r) = planned(machine, unit, target, a, &mut frame, plan);
    let mut claims = route_holds(plan, a, &r, fission, false);
    if plan.shape.map(bounds) != shape {
        claims = Err(format!("shape {:?} against {shape:?}", plan.shape));
    }
    let frags = match (plan.route, fission) {
        (Route::Fission, Some(f)) => &f.fragments[..],
        _ => &[],
    };
    if frags.len() != plan.fragments.len() {
        let n = plan.fragments.len();
        claims = Err(format!("{n} fragment plans for {} fragments", frags.len()));
    }
    for (k, (frag, run)) in frags.iter().zip(&plan.fragments).enumerate() {
        let (fa, ft, fp) = (&frag.analysis, &frag.target, &run.plan);
        let (u, r) = planned(machine, unit, ft, fa, &mut frame, fp);
        units += u;
        let holds = if fp.shape == plan.shape {
            route_holds(fp, fa, &r, None, true)
        } else {
            Err(format!("shape {:?}", fp.shape))
        };
        claims = claims.and(holds.map_err(|e| format!("fragment {k}: {e}")));
        let ran = machine.exec_stmt(unit, &mut frame, ft, &mut ExecState::default());
        ran.unwrap_or_else(|e| panic!("a fragment failed on the oracle: {e}"));
    }
    (
        units,
        claims.map_or_else(Verdict::Differs, |()| Verdict::Equal),
    )
}

/// One plan, a loop's or a fragment's, against the interpreter on
/// `frame`: the slice the plan ran, run on the interpreter, which binds
/// its traces into `frame`, and the reference of the tests the plan
/// ran. Their units, and that reference.
fn planned(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    frame: &mut Store,
    plan: &Plan,
) -> (u64, Reference) {
    let slice = match plan.units.slice {
        Some(_) => slice_reference(machine, unit, target, a, plan.shape, frame),
        None => 0,
    };
    let (cascade, exact) = (plan.units.stages.is_some(), plan.units.exact.is_some());
    let r = tests_reference(a, frame, cascade, exact);
    (slice + r.units, r)
}

/// Whether `plan`'s route holds of `a`'s loop, a `fragment` of a
/// fissioned run or not: a route that runs in chunks has the unit step
/// and traces the chunk driver assumes, and each licence or reason is
/// true of the shape, the class, the session (`fission`: the analysis'
/// plan when the session honours it) and the reference `r` of the
/// tests the plan ran. A test-decided route of a predicated class ran
/// its cascade.
fn route_holds(
    plan: &Plan,
    a: &LoopAnalysis,
    r: &Reference,
    fission: Option<&FissionPlan>,
    fragment: bool,
) -> Result<(), String> {
    use LoopClass as C;
    use Route::*;
    use SeqReason as Why;
    let exact = r.exact.map(|e| e.verdict);
    let holds = plan
        .shape
        .map_or(plan.route == Sequential(Why::While), |s| {
            let chunkable = s.step == 1 && (a.civs.is_empty() || s.traces_by_var());
            let tested = plan.units.stages.is_some();
            // No stage passed, and the cascade ran iff the class has one.
            let failed =
                r.first_success.is_none() && tested == matches!(a.class, C::Predicated { .. });
            let fissioned = matches!(a.class, C::Fissioned { .. });
            let dependent = exact == Some(Some(false));
            match plan.route {
                Sequential(Why::Step) => s.step != 1,
                Sequential(Why::Traces) => s.step == 1 && !chunkable,
                _ if !chunkable => false,
                Sequential(Why::While) => false,
                Sequential(Why::StaticSequential) => {
                    a.class == C::StaticSequential || fragment && !fragment_rescuable(a)
                }
                Sequential(Why::FissionOff) => fissioned && fission.is_none(),
                Sequential(Why::TestsFailed) => {
                    failed && fission.is_none() && (dependent || fragment && exact == Some(None))
                }
                Static => a.class == C::StaticParallel,
                Stage(k) => tested && r.first_success == Some(k),
                Exact => failed && exact == Some(Some(true)),
                Speculate => {
                    let undecided = failed && exact == Some(None);
                    !fragment && (matches!(a.class, C::NeedsFallback(_)) || undecided)
                }
                Fission => fission.is_some_and(|f| {
                    let skipped = exact.is_none() && f.holds_sequential();
                    fissioned || failed && (dependent || skipped)
                }),
            }
        });
    let why = || format!("first success {:?}, exact test {exact:?}", r.first_success);
    (holds.then_some(())).ok_or_else(|| format!("{:?} does not hold ({})", plan.route, why()))
}

/// The CIV slice of `target` under `a` run on the interpreter, as the
/// executor runs it before its tests: each CIV's value at every
/// iteration entry and after the loop, bound in `frame` under its trace
/// name in the CIV's declared type (a DO's at the index of its loop
/// variable, the elements before `lo` padded with the entry value), and
/// a WHILE's trip count under `<label>@niters`. Its units, a DO's
/// bounds (`shape`, evaluated once) included.
fn slice_reference(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    shape: Option<DoShape>,
    frame: &mut Store,
) -> u64 {
    let (Stmt::Do { body, .. } | Stmt::While { body, .. }) = target else {
        return 0;
    };
    let slice = lip_runtime::extract_slice(body, &a.civs.iter().map(|(s, _)| *s).collect());
    let (mut f, mut st) = (frame.clone(), ExecState::default());
    let mut traces = vec![Vec::new(); a.civs.len()];
    let mut record = |f: &Store| {
        for ((s, _), values) in a.civs.iter().zip(&mut traces) {
            values.push(f.scalar(*s).unwrap_or(Value::Int(0)));
        }
    };
    let failed = "the oracle's CIV slice failed";
    let run = |f: &mut Store, st: &mut ExecState| {
        machine.exec_block(unit, f, &slice, st).expect(failed);
    };
    if let Some(s) = shape {
        st.cost = s.units;
        if s.traces_by_var() {
            (1..s.lo).for_each(|_| record(&f));
        }
        let (step, hi, mut i) = (s.step, s.hi, Some(s.lo));
        while let Some(v) = i.filter(|&v| (step > 0 && v <= hi) || (step < 0 && v >= hi)) {
            f.set_scalar(s.var, Value::Int(v));
            record(&f);
            run(&mut f, &mut st);
            i = v.checked_add(step);
        }
        record(&f);
    } else if let Stmt::While { cond, .. } = target {
        let mut n = 0;
        loop {
            let c = machine.eval(unit, &f, cond, &mut st).expect(failed);
            record(&f);
            if !c.truthy() {
                break;
            }
            n += 1;
            run(&mut f, &mut st);
        }
        frame.set_scalar(LoopAnalysis::niters_sym(&a.label), Value::Int(n));
    }
    for ((s, trace), values) in a.civs.iter().zip(traces) {
        let buf = match unit.ty_of(*s) {
            Ty::Int => ArrayBuf::from_i64(&values.iter().map(|v| v.as_i64()).collect::<Vec<_>>()),
            Ty::Real => ArrayBuf::from_f64(&values.iter().map(|v| v.as_f64()).collect::<Vec<_>>()),
        };
        let view = ArrayView {
            buf,
            offset: 0,
            extents: vec![i64::MAX],
        };
        frame.bind_array(*trace, view);
    }
    st.cost
}

/// What a loop's tests decide and charge on an input, computed apart
/// from the executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// The cascade's first passing stage, by `Pdag::eval`.
    pub first_success: Option<usize>,
    /// The exact test's verdict and units, when it ran: every stage
    /// failed.
    pub exact: Option<Exact>,
    /// Whether the tests license a parallel run: a stage passes, or
    /// else the exact test finds the loop independent. A loop with no
    /// cascade has no test to fail.
    pub passes: bool,
    /// The units of the stages evaluated up to the first success, plus
    /// the exact test's count when no stage passes.
    pub units: u64,
}

/// The reference of `a`'s tests on `input`: a predicated loop's
/// cascade and, when it fails, its exact test. What the measurement
/// table records for a loop without a CIV slice (unless production
/// skips the exact test), and what the check's "tests failed" claims
/// are held to.
pub fn reference_tests(a: &LoopAnalysis, input: &Store) -> Reference {
    let predicated = matches!(a.class, LoopClass::Predicated { .. });
    tests_reference(a, input, predicated, predicated)
}

/// The reference of the tests a plan ran: the cascade when `cascade`
/// (and `a` has one), then the exact test when `exact` and no stage
/// passed.
fn tests_reference(a: &LoopAnalysis, input: &Store, cascade: bool, exact: bool) -> Reference {
    let ctx = StoreCtx(input);
    let mut r = Reference {
        first_success: None,
        exact: None,
        passes: true,
        units: 0,
    };
    if cascade && matches!(a.class, LoopClass::Predicated { .. }) {
        r.first_success = a.cascade.first_success(&ctx, TEST_BUDGET);
        let evaluated = r.first_success.map_or(a.cascade.stages.len(), |k| k + 1);
        let stages = a.cascade.stages[..evaluated].iter();
        r.units = stages.map(|stage| stage.pred.eval_cost(&ctx)).sum();
        r.passes = r.first_success.is_some();
    }
    if exact && r.first_success.is_none() {
        let undecided = Exact {
            verdict: None,
            units: 0,
        };
        let e = (a.ind_usr.as_ref()).map_or(undecided, |u| {
            lip_usr::exact::independent(u, &ctx, TEST_BUDGET)
        });
        r.units += e.units;
        r.passes = e.verdict == Some(true);
        r.exact = Some(e);
    }
    r
}

/// The first verdict that is not `Equal`, if any.
fn first_difference(verdicts: impl IntoIterator<Item = Verdict>) -> Verdict {
    let mut verdicts = verdicts.into_iter();
    verdicts
        .find(|v| *v != Verdict::Equal)
        .unwrap_or(Verdict::Equal)
}

fn compare<T: PartialEq + fmt::Debug>(what: &str, want: &T, got: &T) -> Verdict {
    if want == got {
        Verdict::Equal
    } else {
        Verdict::Differs(format!("{what} {got:?} against {want:?}"))
    }
}

/// A value as its type and its bits: an `Int` and a `Real` with equal
/// bits differ, and so do two `INTEGER`s apart only above 2^53.
fn tagged(v: Value) -> (char, u64) {
    match v {
        Value::Int(i) => ('i', i as u64),
        Value::Real(r) => ('r', r.to_bits()),
    }
}

/// `got` against `want` on every scalar and array `input` binds, and on
/// `var`.
fn compare_stores(input: &Store, var: Option<Sym>, want: &Store, got: &Store) -> Verdict {
    let mut scalars: Vec<Sym> = input.scalars().map(|(s, _)| s).chain(var).collect();
    let mut arrays: Vec<Sym> = input.arrays().map(|(s, _)| s).collect();
    scalars.sort_unstable();
    scalars.dedup();
    arrays.sort_unstable();
    for s in scalars {
        let (w, g) = (want.scalar(s).map(tagged), got.scalar(s).map(tagged));
        if w != g {
            return Verdict::Differs(format!("scalar {s}: {g:?} against {w:?}"));
        }
    }
    for a in arrays {
        let cells = |store: &Store| -> Vec<(char, u64)> {
            let buf = &store.array(a).expect("bound on every leg").buf;
            (0..buf.len()).map(|k| tagged(buf.get(k))).collect()
        };
        let (w, g) = (cells(want), cells(got));
        let wrong: Vec<usize> = (0..w.len()).filter(|&k| w.get(k) != g.get(k)).collect();
        if let Some(&k) = wrong.first() {
            return Verdict::Differs(format!(
                "{} of {} elements of {a}, first [{k}]: {:?} against {:?}",
                wrong.len(),
                w.len(),
                g.get(k),
                w[k]
            ));
        }
    }
    Verdict::Equal
}

fn compare_accesses(
    want: &BTreeMap<Sym, Vec<(char, usize)>>,
    got: &BTreeMap<Sym, Vec<(char, usize)>>,
) -> Verdict {
    let names = want.keys().chain(got.keys());
    for a in names {
        let (w, g) = (want.get(a), got.get(a));
        if w != g {
            let len = |e: Option<&Vec<_>>| e.map_or(0, Vec::len);
            return Verdict::Differs(format!(
                "{a}: {} traced events against the oracle's {}",
                len(g),
                len(w)
            ));
        }
    }
    Verdict::Equal
}

/// Records every traced access.
#[derive(Default)]
struct Recorder(Mutex<Vec<(Sym, char, usize)>>);

impl AccessTracer for Recorder {
    fn read(&self, arr: Sym, _: &ArrayBuf, idx: usize) {
        self.0.lock().unwrap().push((arr, 'r', idx));
    }
    fn write(&self, arr: Sym, _: &ArrayBuf, idx: usize) {
        self.0.lock().unwrap().push((arr, 'w', idx));
    }
}

impl Recorder {
    /// Per array name, the sorted `(kind, index)` events.
    fn by_array(&self) -> BTreeMap<Sym, Vec<(char, usize)>> {
        let mut out: BTreeMap<Sym, Vec<(char, usize)>> = BTreeMap::new();
        for &(arr, kind, idx) in self.0.lock().unwrap().iter() {
            out.entry(arr).or_default().push((kind, idx));
        }
        out.values_mut().for_each(|events| events.sort_unstable());
        out
    }
}

/// `input` with every array buffer copied: `Store::clone` shares the
/// buffers, so one run's writes would reach the next run's input. Names
/// that share a buffer share its copy.
pub fn deep_copy(input: &Store) -> Store {
    let mut out = Store::new();
    for (s, v) in input.scalars() {
        out.set_scalar(s, v);
    }
    let mut copies: Vec<(&Arc<ArrayBuf>, Arc<ArrayBuf>)> = Vec::new();
    for (s, view) in input.arrays() {
        let buf = match copies.iter().find(|(b, _)| Arc::ptr_eq(b, &view.buf)) {
            Some((_, copy)) => copy.clone(),
            None => {
                let copy = lip_runtime::clone_buf(&view.buf);
                copies.push((&view.buf, copy.clone()));
                copy
            }
        };
        let view = ArrayView {
            buf,
            ..view.clone()
        };
        out.bind_array(s, view);
    }
    out
}
