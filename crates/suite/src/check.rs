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
//! The [`Report`] holds one [`Verdict`] per comparison:
//!
//! 1. **store**: each session leg's store against the oracle's, on
//!    every scalar and array the input binds and on a DO's variable, as
//!    tagged bits (`Int` or `Real`, then the 64 bits). Names the run
//!    mints, such as CIV trace arrays, are not outputs and are skipped;
//! 2. **loop units**: the oracle's cost, less the DO statement's own
//!    unit on the paths that run the body in chunks;
//! 3. **test units**: the CIV slice run on the interpreter (which binds
//!    the traces the cascade reads), then the cascade's charge by
//!    `Pdag::eval`, plus `lip_usr::exact::independent`'s units when the
//!    cascade fails ([`reference_tests`], which the measurement table's
//!    tests also compare with); for a fissioned run, each fragment's
//!    slice and tests too, on the store the fragments before it left;
//! 4. **accesses**: per array name, the sorted `(kind, index)` events
//!    of the traced leg against the oracle's;
//! 5. **stage**: for a predicated loop, the stage that passed is the
//!    reference's first success;
//! 6. **legs**: the handle leg and the traced leg agree on outcome
//!    and units.
//!
//! A comparison that cannot be made for a run says why, and every such
//! reason is written in one function (`not_compared`), so no caller can
//! switch a comparison off. ROADMAP item 1(b)'s race oracle goes beside
//! `accesses`: the oracle leg already sees every access, and would
//! record them per iteration to check the plan's claims.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use lip_analysis::{FallbackKind, LoopAnalysis, LoopClass};
use lip_ir::{
    AccessTracer, ArrayBuf, ArrayView, ExecState, Machine, Program, Stmt, Store, StoreCtx,
    Subroutine, Ty, Value,
};
use lip_runtime::{ExecOutcome, LoopHandle, LrpdOutcome, RunStats, Session, TEST_BUDGET};
use lip_symbolic::Sym;

/// How one comparison ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Both sides agree.
    Equal,
    /// They disagree, as described.
    Differs(String),
    /// Not compared on this run, for the reason given.
    NotCompared(&'static str),
}

/// What [`observationally_sequential`] found.
pub struct Report {
    /// The loop and the session configuration it ran under.
    context: String,
    /// The traced leg's outcome and units.
    pub stats: RunStats,
    /// The traced leg's store after the run.
    pub after: Store,
    /// Each session leg's store against the oracle's, as tagged bits.
    pub store: Verdict,
    /// `loop_units` against the oracle's cost.
    pub loop_units: Verdict,
    /// `test_units` against the reference: the CIV slice, the cascade,
    /// the exact test, and a fissioned run's fragments.
    pub test_units: Verdict,
    /// The traced access multiset against the oracle's.
    pub accesses: Verdict,
    /// The stage that passed against the reference's first success.
    pub stage: Verdict,
    /// The handle leg's outcome and units against the traced leg's.
    pub legs: Verdict,
}

impl Report {
    fn verdicts(&self) -> [(&'static str, &Verdict); 6] {
        [
            ("store", &self.store),
            ("loop units", &self.loop_units),
            ("test units", &self.test_units),
            ("accesses", &self.accesses),
            ("stage", &self.stage),
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
        write!(f, "{}: {:?}", self.context, self.stats.outcome)?;
        for (name, v) in self.verdicts() {
            match v {
                Verdict::Equal => write!(f, "\n  {name}: equal")?,
                Verdict::Differs(d) => write!(f, "\n  {name}: DIFFERS: {d}")?,
                Verdict::NotCompared(why) => write!(f, "\n  {name}: not compared: {why}")?,
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

    let chunked = chunked(&machine, unit, target, analysis, input);
    let outcome = &stats.outcome;
    let (reference, charged) =
        reference_run(&machine, unit, target, analysis, input, chunked, outcome);
    let passed = match stats.outcome {
        ExecOutcome::PredicatePassed { stage } => Some(stage),
        _ => None,
    };
    // The paths that run the body in chunks evaluate the bounds but do
    // not charge the DO statement itself.
    let do_unit = match stats.outcome {
        ExecOutcome::StaticParallel
        | ExecOutcome::PredicatePassed { .. }
        | ExecOutcome::ExactPredicatePassed
        | ExecOutcome::Speculated(LrpdOutcome::Committed) => 1,
        ExecOutcome::Sequential
        | ExecOutcome::Fissioned { .. }
        | ExecOutcome::Speculated(LrpdOutcome::Aborted) => 0,
    };
    let legs = [
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
    Report {
        store: first_difference(stores.into_iter().map(|(leg, v)| match v {
            Verdict::Differs(d) => Verdict::Differs(format!("{leg}: {d}")),
            v => v,
        })),
        loop_units: compare("loop units", &(st.cost - do_unit), &stats.loop_units),
        test_units: compare("test units", &charged, &stats.test_units),
        accesses: compare_accesses(&seen.by_array(), &traced.by_array()),
        stage: not_compared(analysis, chunked).map_or_else(
            || compare("passed stage", &reference.first_success, &passed),
            Verdict::NotCompared,
        ),
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

/// Why the stage comparison is not made for a run under `a`, if it is
/// not: the one place such a reason is written.
fn not_compared(a: &LoopAnalysis, chunked: bool) -> Option<&'static str> {
    if !chunked {
        Some("a WHILE, a DO with a step other than 1, or a CIV loop its variable cannot index, runs sequentially, untested")
    } else if !matches!(a.class, LoopClass::Predicated { .. }) {
        Some("the loop has no cascade")
    } else {
        None
    }
}

/// The whole loop's [`Reference`], read after its CIV slice bound the
/// traces, and the test units the executor must charge for a run of
/// `target` under `a` on `input` that ended in `outcome`: the slice,
/// then — for a DO it may run in chunks — the whole loop's tests and,
/// when the run was fissioned, each fragment's slice and tests on the
/// store the fragments before it left. The exact test is left out where the
/// executor skips it: after a failed cascade, a plan that holds a
/// statically sequential fragment distributes the loop without asking.
fn reference_run(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    input: &Store,
    chunked: bool,
    outcome: &ExecOutcome,
) -> (Reference, u64) {
    let mut frame = deep_copy(input);
    let mut units = slice_reference(machine, unit, target, a, &mut frame);
    let plan = match outcome {
        ExecOutcome::Fissioned { .. } => a.fission.as_deref(),
        _ => None,
    };
    let sequential_fragment = |p: &lip_analysis::FissionPlan| {
        (p.fragments.iter()).any(|f| f.analysis.class == LoopClass::StaticSequential)
    };
    let exact = !plan.is_some_and(sequential_fragment);
    let whole = tests_reference(a, &frame, exact);
    if chunked {
        units += whole.units;
    }
    for frag in plan.iter().flat_map(|p| &p.fragments) {
        let fa = &frag.analysis;
        units += slice_reference(machine, unit, &frag.target, fa, &mut frame);
        units += match fa.class {
            // A fragment the exact test may rescue runs it.
            LoopClass::NeedsFallback(FallbackKind::HoistUsr) => exact_units(fa, &frame),
            _ => tests_reference(fa, &frame, true).units,
        };
        let ran = machine.exec_stmt(unit, &mut frame, &frag.target, &mut ExecState::default());
        ran.unwrap_or_else(|e| panic!("a fragment failed on the oracle: {e}"));
    }
    (whole, units)
}

/// Whether `target` under `a` is a DO the executor may run in chunks
/// on `input`: step 1, and its CIVs' traces, if any, indexed by its
/// variable.
fn chunked(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    input: &Store,
) -> bool {
    let Stmt::Do { lo, hi, step, .. } = target else {
        return false;
    };
    let eval = |e| machine.eval(unit, input, e, &mut ExecState::default());
    let (lo, hi) = (eval(lo).map(Value::as_i64), eval(hi).map(Value::as_i64));
    let step = step.as_ref().map_or(Ok(1), |e| eval(e).map(Value::as_i64));
    match (lo, hi, step) {
        (Ok(lo), Ok(hi), Ok(1)) => a.civs.is_empty() || traces_by_var(lo, hi),
        _ => false,
    }
}

/// Whether the CIV traces of a unit-step DO from `lo` to `hi` are
/// indexed by its variable: it starts at 1 or after, and the `lo - 1`
/// elements that pad each trace are no more than the trace holds.
fn traces_by_var(lo: i64, hi: i64) -> bool {
    let trip = (hi as i128 - lo as i128 + 1).max(0);
    lo >= 1 && lo as i128 - 1 <= trip + 1
}

/// The CIV slice of `target` under `a` run on the interpreter, as the
/// executor runs it before its tests: each CIV's value at every
/// iteration entry and after the loop, bound in `frame` under its trace
/// name in the CIV's declared type (a chunked DO's at the index of its
/// loop variable, the elements before `lo` padded with the entry
/// value), and a WHILE's trip count under `<label>@niters`. Its units;
/// none when the loop has no slice.
fn slice_reference(
    machine: &Machine,
    unit: &Subroutine,
    target: &Stmt,
    a: &LoopAnalysis,
    frame: &mut Store,
) -> u64 {
    let (Stmt::Do { body, .. } | Stmt::While { body, .. }) = target else {
        return 0;
    };
    if a.civs.is_empty() && matches!(target, Stmt::Do { .. }) {
        return 0;
    }
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
    if let Stmt::Do {
        var, lo, hi, step, ..
    } = target
    {
        let mut eval = |e| machine.eval(unit, &f, e, &mut st).expect(failed).as_i64();
        let (lo, hi) = (eval(lo), eval(hi));
        let step = step.as_ref().map_or(1, eval);
        if step == 1 && traces_by_var(lo, hi) {
            (1..lo).for_each(|_| record(&f));
        }
        let mut i = Some(lo);
        while let Some(v) = i.filter(|&v| (step > 0 && v <= hi) || (step < 0 && v >= hi)) {
            f.set_scalar(*var, Value::Int(v));
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
    /// Whether the tests license a parallel run: a stage passes, or
    /// else the exact test finds the loop independent. A loop with no
    /// cascade has no test to fail.
    pub passes: bool,
    /// The units of the stages evaluated up to the first success, plus
    /// the exact test's count when no stage passes.
    pub units: u64,
}

/// The reference of `a`'s tests on `input`: what the measurement table
/// records for a loop without a CIV slice, and the whole loop's share
/// of the check's `test units`.
pub fn reference_tests(a: &LoopAnalysis, input: &Store) -> Reference {
    tests_reference(a, input, true)
}

/// [`reference_tests`], with the exact test after a failed cascade only
/// when `exact`.
fn tests_reference(a: &LoopAnalysis, input: &Store, exact: bool) -> Reference {
    if !matches!(a.class, LoopClass::Predicated { .. }) {
        return Reference {
            first_success: None,
            passes: true,
            units: 0,
        };
    }
    let ctx = StoreCtx(input);
    let hit = a.cascade.first_success(&ctx, TEST_BUDGET);
    let evaluated = hit.map_or(a.cascade.stages.len(), |k| k + 1);
    let stages = a.cascade.stages[..evaluated].iter();
    let mut units: u64 = stages.map(|stage| stage.pred.eval_cost(&ctx)).sum();
    let mut passes = hit.is_some();
    if let (None, Some(u), true) = (hit, &a.ind_usr, exact) {
        let exact = lip_usr::exact::independent(u, &ctx, TEST_BUDGET);
        units += exact.units;
        passes = exact.verdict == Some(true);
    }
    Reference {
        first_success: hit,
        passes,
        units,
    }
}

/// The exact test's units for `a` on `input`.
fn exact_units(a: &LoopAnalysis, input: &Store) -> u64 {
    let exact = |u| lip_usr::exact::independent(u, &StoreCtx(input), TEST_BUDGET).units;
    a.ind_usr.as_ref().map_or(0, exact)
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
