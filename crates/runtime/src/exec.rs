//! The conditional-parallelization executor (paper §5).
//!
//! [`crate::LoopHandle::run`] is a [`crate::plan`] and its `execute`:
//! the [`Plan`] sends the run in parallel — with privatized copies (+
//! static/dynamic last value), per-thread reduction buffers (or direct
//! shared updates when the runtime test proved independence) — through
//! LRPD speculation, into fission fragments (each planned on the store
//! the fragments before it left), or sequentially. A dynamic last value
//! merges, in chunk order, the elements each chunk's write mask marks;
//! the mask is keyed by the chunk's private buffer, so writes through a
//! callee's formal count.
//!
//! The parallel path and LRPD run a DO's chunks through one driver,
//! `run_chunks`, which sets up every chunk, and leave what the loop
//! leaves through one `Chunks::commit`. Each chunk, like a sequential
//! DO at any step, is one VM activation.
//!
//! Every access hook the runtime installs — those masks, LRPD's shadows
//! — finds its array by the buffer the access reaches, never by name.
//! A DLV chunk passes each access on to the caller's tracer, when one
//! is installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lip_analysis::{FissionPlan, LoopAnalysis};
use lip_ir::{
    AccessTracer, ArrayBuf, ArrayView, BinOp, ExecState, RunError, Stmt, Store, StoreCtx, Ty, Value,
};
use lip_symbolic::Sym;

use crate::backend::{do_body, exec_stmt_seq, DoShape, ExecEnv};
use crate::cache::CompiledBody;
use crate::digest::Digests;
use crate::lrpd::{lrpd_execute_impl, LrpdOutcome};
use crate::merge::{clone_buf, copy_back, identity_buf, merge_into};
use crate::plan::{decide, fragment_label, plan, ExecPlan, Fragment, Plan, Route};
use crate::pool::{chunk_bounds, parallel_chunks_obs};
use lip_vm::{Frame, Unobserved};

/// What any one runtime test may spend before it gives up: cascade
/// stage iterations, exact-test work units, CIV-slice and measurement
/// trip counts. A constant, not a knob — a budget proportional to the
/// guarded loop's work is ROADMAP's cost gate.
pub const TEST_BUDGET: u64 = 100_000_000;

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

impl ExecOutcome {
    /// Whether the loop's iterations ran as chunks: a parallel run, or
    /// a speculation that committed. Such a run charges the DO's bounds
    /// but not the DO statement's own unit, which every other run
    /// charges, as the interpreter does.
    pub fn ran_in_chunks(&self) -> bool {
        matches!(
            self,
            ExecOutcome::StaticParallel
                | ExecOutcome::PredicatePassed { .. }
                | ExecOutcome::ExactPredicatePassed
                | ExecOutcome::Speculated(LrpdOutcome::Committed)
        )
    }
}

/// Execution statistics (work units are the deterministic interpreter
/// cost model shared with the simulator).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// How the loop executed.
    pub outcome: ExecOutcome,
    /// Units spent on runtime tests (CIV slices, cascade stages and
    /// the exact test's own count, memo hit or miss): the plan's.
    pub test_units: u64,
    /// Units spent executing the loop body.
    pub loop_units: u64,
    /// The run's plan, a fissioned run's fragments included.
    pub plan: Plan,
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

/// The executor driver behind [`crate::LoopHandle::run`]: [`plan`],
/// then [`execute`]. When the session's observer is on, every run
/// additionally records a [`lip_obs::LoopDecision`] under the loop's
/// label (the plan, fission accounting, final executor).
pub(crate) fn run_loop_impl(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    frame: &mut Store,
) -> Result<RunStats, RunError> {
    let obs = &env.cache.obs;
    let span = obs.span("run.loop", || analysis.label.clone());
    let result = plan(env, sub, target, analysis, frame).and_then(|(mut plan, digests)| {
        let (outcome, loop_units, fragments) =
            execute(env, sub, target, analysis, &plan, digests, frame)?;
        for f in &fragments {
            plan.units.fragments += f.plan.units.total();
            plan.keys.elems += f.plan.keys.elems;
            plan.keys.ns += f.plan.keys.ns;
        }
        plan.fragments = fragments;
        Ok(RunStats {
            outcome,
            test_units: plan.units.total(),
            loop_units,
            plan,
        })
    });
    let stats = match &result {
        Ok(stats) => stats,
        Err(e) => {
            obs.exit_span(span, &format!("error: {e:?}"));
            return result;
        }
    };
    obs.exit_span(span, &executor_name(&stats.outcome));
    if obs.enabled() {
        obs.count("run.loops", 1);
        obs.count("run.test_units", stats.test_units);
        obs.count("run.loop_units", stats.loop_units);
        // Key time apart from evaluation time: one sample per run that
        // keyed a test, whatever the memo then answered.
        let keys = stats.plan.keys;
        if keys.ns > 0 {
            obs.count("run.fingerprint_elems", keys.elems);
            obs.record_ns("run.fingerprint_ns", keys.ns);
        }
    }
    // Decision records allocate (stage strings, map inserts); like
    // spans, they are a `trace`-level instrument so the `metrics` level
    // stays pure cheap aggregates.
    if obs.trace_enabled() {
        let mut d = stats.plan.decision(analysis);
        d.executor = executor_name(&stats.outcome);
        d.loop_units = stats.loop_units;
        if let Some(f) = &mut d.fission {
            f.loop_units = stats.loop_units;
        }
        obs.record_decision(d);
    }
    result
}

/// Runs `plan` for `target` on `frame`: the outcome, the loop units —
/// the DO statement's own unit, unless the body ran as chunks, its
/// bounds and the body's units, as the interpreter charges them — and
/// a fissioned run's fragments (the first keying its tests with
/// `digests`, the plan's).
fn execute(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    target: &Stmt,
    analysis: &LoopAnalysis,
    plan: &Plan,
    digests: Digests,
    frame: &mut Store,
) -> Result<(ExecOutcome, u64, Vec<Fragment>), RunError> {
    // While loops execute sequentially in this executor (their parallel
    // form requires iteration re-indexing); the simulator models their
    // parallel execution from the traces.
    let Some(shape) = plan.shape else {
        let mut st = ExecState::default();
        exec_stmt_seq(env, sub, target, frame, &mut st)?;
        return Ok((ExecOutcome::Sequential, st.cost, Vec::new()));
    };
    let body = do_body(target);
    let mut fragments = Vec::new();
    let (outcome, units) = match plan.route {
        Route::Sequential(_) => (
            ExecOutcome::Sequential,
            run_seq_do(env, sub, &shape, body, frame)?,
        ),
        Route::Speculate => {
            let arrays: Vec<Sym> = analysis.arrays.keys().copied().collect();
            let plan = BodyPlan::of(analysis, &[]);
            let (out, units) = lrpd_execute_impl(env, sub, &shape, body, frame, &arrays, &plan)?;
            (ExecOutcome::Speculated(out), units)
        }
        Route::Fission => {
            let fp = analysis.fission.as_deref().expect("fissioned");
            run_fissioned(env, sub, &shape, fp, digests, frame, &mut fragments)?
        }
        route => {
            let outcome = match route {
                Route::Stage(stage) => ExecOutcome::PredicatePassed { stage },
                Route::Exact => ExecOutcome::ExactPredicatePassed,
                _ => ExecOutcome::StaticParallel,
            };
            let plan = BodyPlan::of(analysis, &plan.arrays);
            (
                outcome,
                run_parallel_do(env, sub, &shape, body, frame, &plan)?,
            )
        }
    };
    let do_unit = u64::from(!outcome.ran_in_chunks());
    Ok((outcome, do_unit + shape.units + units, fragments))
}

/// Executes a distributed loop: fragments in program order, each
/// planned on the store the fragments before it left (its plan and
/// units pushed on `runs`), parallel where its own tests allow,
/// sequentially otherwise. The body's units,
/// every statement charged per iteration as the sequential loop charges
/// it (just partitioned across fragments). Fragments never enter
/// speculation: LRPD's misspeculation re-runs would break that
/// determinism for no model payoff. Each fragment's run, in chunks or
/// sequential, leaves the loop variable where the sequential loop does.
fn run_fissioned(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape,
    fp: &FissionPlan,
    mut digests: Digests,
    frame: &mut Store,
    runs: &mut Vec<Fragment>,
) -> Result<(ExecOutcome, u64), RunError> {
    let (mut units, mut rescued_units, mut parallel) = (0u64, 0u64, 0usize);
    runs.reserve_exact(fp.fragments.len());
    for (k, frag) in fp.fragments.iter().enumerate() {
        let (target, a) = (&frag.target, &frag.analysis);
        // The whole loop's digests hold for the first fragment's tests
        // unless its CIV slice rebinds traces first; every later
        // fragment tests the store its predecessors wrote.
        if k > 0 || !a.civs.is_empty() {
            digests.clear();
        }
        let plan = decide(
            env,
            sub,
            target,
            Some(*shape),
            a,
            frame,
            None,
            true,
            &mut digests,
        )?;
        let body = do_body(&frag.target);
        let ran_parallel = plan.route.parallel() && shape.hi >= shape.lo;
        let frag_units = if ran_parallel {
            let body_plan = BodyPlan::of(&frag.analysis, &plan.arrays);
            let units = run_parallel_do(env, sub, shape, body, frame, &body_plan)?;
            rescued_units += units;
            parallel += 1;
            units
        } else {
            run_seq_do(env, sub, shape, body, frame)?
        };
        units += frag_units;
        env.cache.obs.event("run.fragment", || {
            let how = ["sequential", "parallel"][usize::from(ran_parallel)];
            format!("{}: {how} ({frag_units} units)", fragment_label(frag, k))
        });
        runs.push(Fragment {
            plan,
            parallel: ran_parallel,
            units: frag_units,
        });
    }
    let outcome = ExecOutcome::Fissioned {
        fragments: fp.fragments.len(),
        parallel,
        rescued_units,
    };
    Ok((outcome, units))
}

/// The DO `shape` over `body` run sequentially, charging only the
/// body's per-iteration costs (the DO and its bounds are the caller's):
/// a loop whose step or tests sent it sequential, a fissioned loop's
/// sequential residue, an aborted speculation's re-run: one activation
/// at any step.
pub(crate) fn run_seq_do(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape,
    body: &[Stmt],
    frame: &mut Store,
) -> Result<u64, RunError> {
    let cb = env.body(sub, body, &[], &[shape.var])?;
    let (mut f, mut st) = (cb.frame(frame), ExecState::default());
    let range = shape.range(cb.chunk().scalar_slot(shape.var).expect("interned"));
    cb.run(env, &mut f, range, &mut st, env.tracer(), &mut Unobserved)?;
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

/// The unit-step DO `shape` over `body` run in chunks on `frame` under
/// `plan`, then committed: the chunks' units.
fn run_parallel_do(
    env: &ExecEnv<'_>,
    sub: &lip_ir::Subroutine,
    shape: &DoShape,
    body: &[Stmt],
    frame: &mut Store,
    plan: &BodyPlan<'_>,
) -> Result<u64, RunError> {
    let chunks = run_chunks(env, sub, shape, body, frame, plan, |c| {
        let range = (c.var, c.lo, c.hi, 1);
        c.cb.run(env, &mut c.f, range, &mut c.st, c.tracer, &mut Unobserved)
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
    shape: &DoShape,
    body: &[Stmt],
    frame: &Store,
    plan: &BodyPlan<'a>,
    runner: impl Fn(&mut ChunkRun<'_>) -> Result<(), RunError> + Sync,
) -> Result<Chunks<'a>, RunError> {
    let DoShape { var, lo, hi, .. } = *shape;
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
    // Slots for the loop variable and the scalars the chunks seed or
    // leave, in a list only when there is more than the variable.
    let (reds, civs, finals) = (plan.scalar_reds, plan.civs, plan.scalar_finals);
    let extra: std::borrow::Cow<[Sym]> = if reds.is_empty() && civs.is_empty() && finals.is_empty()
    {
        std::slice::from_ref(&var).into()
    } else {
        let scalars = reds.iter().chain(civs.iter().map(|(s, _)| s)).chain(finals);
        std::iter::once(var).chain(scalars.copied()).collect()
    };
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
