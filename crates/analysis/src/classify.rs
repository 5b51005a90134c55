//! Loop classification: the paper's end-to-end driver (§5).
//!
//! For a target loop, [`analyze_loop`] builds per-iteration summaries,
//! poses the flow/output independence equations per array, factorizes
//! them into predicate cascades, and decides how the loop is to be
//! executed: statically parallel, parallel under a runtime predicate
//! cascade, or through an exact fallback (hoisted USR evaluation or
//! thread-level speculation) — recording the enabling techniques
//! (privatization, last value, reductions, CIV, BOUNDS-COMP) that the
//! paper's Tables 1–3 report per benchmark.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use lip_core::{complexity, ArrayExtent, Cascade, FactorConfig, Factorizer, Pdag, PredCtx};
use lip_ir::{BinOp, Program, Stmt, Subroutine};
use lip_symbolic::{BoolExpr, RangeEnv, Sym, SymExpr};
use lip_usr::exact::ExactPlan;
use lip_usr::{
    flow_independence, output_independence, reshape, slv_equation, ReshapeConfig, Usr, UsrNode,
};

use crate::baseline::affine_definitely_dependent;
use crate::summarize::{IterationSummary, ScalarKind, Summarizer};
use crate::symbridge::{declared_size, SymEnv};

/// Parallelization-enabling techniques (the paper's table vocabulary).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Technique {
    /// Array privatization.
    Priv,
    /// Static last value.
    Slv,
    /// Dynamic last value.
    Dlv,
    /// Statically recognized reduction.
    Sred,
    /// Runtime-validated reduction.
    Rred,
    /// Extended reduction (writes outside reduction statements).
    ExtRred,
    /// Runtime bounds estimation for reduction arrays.
    BoundsComp,
    /// Monotonicity-based disambiguation.
    Mon,
    /// CIV flow-sensitive aggregation.
    CivAgg,
    /// Parallel precomputation of CIV values (loop slice).
    CivComp,
    /// UMEG-preserving USR reshaping.
    Umeg,
    /// Hoisted exact USR evaluation.
    HoistUsr,
    /// Thread-level speculation.
    Tls,
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Technique::Priv => "PRIV",
            Technique::Slv => "SLV",
            Technique::Dlv => "DLV",
            Technique::Sred => "SRED",
            Technique::Rred => "RRED",
            Technique::ExtRred => "EXT-RRED",
            Technique::BoundsComp => "BOUNDS-COMP",
            Technique::Mon => "MON",
            Technique::CivAgg => "CIVagg",
            Technique::CivComp => "CIV-COMP",
            Technique::Umeg => "UMEG",
            Technique::HoistUsr => "HOIST-USR",
            Technique::Tls => "TLS",
        };
        f.write_str(s)
    }
}

/// How the last value of a privatized array is restored.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LastValue {
    /// The array is not live-out / every iteration overwrites fully.
    NotNeeded,
    /// The last iteration's writes cover the loop's (SLV).
    Static,
    /// Per-element last-writer tracking (DLV).
    Dynamic,
}

/// Reduction implementation flavor.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RedKind {
    /// Bounds known statically: private buffers, merged after the loop.
    Static,
    /// Runtime test may prove direct (shared) updates safe.
    Runtime,
    /// Writes outside reduction statements (paper §4 EXT-RRED).
    Extended,
    /// Bounds estimated at runtime (paper §4 BOUNDS-COMP).
    Bounds,
}

/// Exact fallbacks when all predicates fail.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FallbackKind {
    /// Evaluate the independence USR (hoistable / amortizable).
    HoistUsr,
    /// LRPD-style thread-level speculation.
    Tls,
}

/// The execution plan for one array.
#[derive(Clone, Debug)]
pub enum ArrayPlan {
    /// Only read.
    ReadOnly,
    /// Proven independent statically.
    Independent,
    /// Independent iff the cascade passes at runtime.
    Predicated(Cascade),
    /// Privatized per iteration, with a last-value policy.
    Privatized {
        /// Last-value restoration policy.
        last_value: LastValue,
        /// Flow-independence cascade that must still pass (empty =
        /// statically fine).
        cascade: Option<Cascade>,
    },
    /// A reduction array.
    Reduction {
        /// Implementation flavor.
        kind: RedKind,
        /// The (consistent) reduction operator — what per-thread
        /// buffers must be merged with (`Lt`/`Gt` encode MIN/MAX).
        op: BinOp,
        /// Optional independence cascade: when it passes, direct shared
        /// updates are safe (no buffers).
        cascade: Option<Cascade>,
    },
    /// Needs an exact runtime test.
    Fallback(FallbackKind),
}

/// Loop-level classification (the tables' `PAR/SEQ/RT TEST` column).
#[derive(Clone, PartialEq, Debug)]
pub enum LoopClass {
    /// Provably parallel at compile time.
    StaticParallel,
    /// Provably (or heuristically) dependent: left sequential.
    StaticSequential,
    /// Parallel under a runtime predicate cascade.
    Predicated {
        /// Complexity of the first stage (0 = O(1), 1 = O(N), …).
        first_stage_complexity: u32,
    },
    /// Requires an exact fallback test.
    NeedsFallback(FallbackKind),
    /// Distributed into legally ordered sub-loops, at least one of
    /// which runs parallel (the [`crate::fission`] rescue of a
    /// sequential verdict). The carried [`LoopAnalysis::fission`] plan
    /// has the fragments.
    Fissioned {
        /// Number of fragments in the plan.
        fragments: usize,
    },
}

/// The complete analysis result for one loop.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    /// The loop's label.
    pub label: String,
    /// Loop index variable.
    pub var: Sym,
    /// Symbolic bounds.
    pub lo: SymExpr,
    /// Symbolic bounds.
    pub hi: SymExpr,
    /// Final classification.
    pub class: LoopClass,
    /// Techniques employed.
    pub techniques: BTreeSet<Technique>,
    /// Per-array plans.
    pub arrays: BTreeMap<Sym, ArrayPlan>,
    /// The merged runtime cascade (empty when static).
    pub cascade: Cascade,
    /// CIV traces the runtime must precompute: `(scalar, trace array)`.
    pub civs: Vec<(Sym, Sym)>,
    /// Whether any scalar is a reduction accumulator.
    pub scalar_reductions: Vec<Sym>,
    /// The scalars the body assigns that are neither reductions nor
    /// CIVs, so every iteration assigns them (one an iteration may skip
    /// is a CIV). A parallel run gives each chunk its own copy, and the
    /// copy of the chunk that ran the last iteration holds the final
    /// value.
    pub private_scalars: Vec<Sym>,
    /// The affine induction scalars among them (`s = s + step` once per
    /// iteration, `step` invariant): a chunk's copy starts at the value
    /// the scalar has on entry to the chunk's first iteration.
    pub affine_ivs: Vec<(Sym, SymExpr)>,
    /// The union of the unresolved arrays' independence USRs: the exact
    /// last-resort test (hoisted USR evaluation, paper §5). `None` when
    /// everything is statically resolved.
    pub ind_usr: Option<Usr>,
    /// Loop-distribution rescue plan, when the body splits into legal
    /// fragments with at least one parallel win. For
    /// [`LoopClass::Fissioned`] this is the primary plan; for
    /// [`LoopClass::Predicated`] it is the backup used when the exact
    /// test reports genuine dependences.
    pub fission: Option<std::rc::Rc<crate::fission::FissionPlan>>,
    /// [`LoopAnalysis::exact_key`], on first use.
    exact_key: OnceCell<ExactKey>,
}

/// What the runtime memoizes the exact test's verdict under: `ind_usr`
/// rendered, and the symbols whose bindings it reads — and, beside
/// them, the USR lowered once for the test itself.
#[derive(Clone, Debug)]
pub struct ExactKey {
    /// The USR's rendering (structural, so equal keys denote equal
    /// sets), marked so it cannot meet a predicate's in a shared table.
    pub key: Arc<str>,
    /// `Usr::free_syms()` — scalars and index arrays alike; which is
    /// which is the frame's to say.
    pub syms: Vec<Sym>,
    /// `ind_usr`'s evaluation plan: what a memo miss evaluates.
    pub plan: ExactPlan,
}

impl LoopAnalysis {
    /// `<label>@niters`, the trip count of the WHILE loop `label`: its
    /// analysis bounds the iteration space by it, the runtime's CIV
    /// slice binds it before the cascade reads it.
    pub fn niters_sym(label: &str) -> Sym {
        lip_symbolic::sym(&format!("{label}@niters"))
    }

    /// The memo key and evaluation plan of the exact test over
    /// [`LoopAnalysis::ind_usr`], computed once per analysis (as
    /// `Stage::key` is per stage) and only if the executor ever gets
    /// that far.
    pub fn exact_key(&self) -> Option<&ExactKey> {
        let u = self.ind_usr.as_ref()?;
        Some(self.exact_key.get_or_init(|| ExactKey {
            key: format!("exact {u}").into(),
            syms: u.free_syms().into_iter().collect(),
            plan: ExactPlan::new(u),
        }))
    }
}

/// Options controlling the analysis (ablation switches).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// USR reshaping (Figure 8) on/off.
    pub reshape: ReshapeConfig,
    /// Factorization options.
    pub factor: FactorConfig,
    /// Extra facts known about the inputs (e.g. `N ≥ 1`).
    pub facts: Vec<BoolExpr>,
    /// Loop-fission rescue pass on/off.
    pub fission: bool,
    /// Observability handle: classification spans and fission-planning
    /// events record through it (`Obs::off()` by default — the
    /// disabled path is one branch per analyzed loop).
    pub obs: lip_obs::Obs,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            reshape: ReshapeConfig::default(),
            factor: FactorConfig::default(),
            facts: Vec::new(),
            fission: true,
            obs: lip_obs::Obs::off(),
        }
    }
}

/// Analyzes the loop labelled `label` in subroutine `sub_name`.
/// Returns `None` when the loop cannot be found.
pub fn analyze_loop(
    prog: &Program,
    sub_name: Sym,
    label: &str,
    cfg: &AnalysisConfig,
) -> Option<LoopAnalysis> {
    let sub = prog.subroutine(sub_name)?;
    let target = sub.find_loop(label)?;
    let span = cfg.obs.span("analysis.loop", || label.to_owned());
    let entry_env = cfg.obs.in_span("analysis.summarize", || {
        env_at_loop(&mut Summarizer::new(prog), sub, label).unwrap_or_default()
    });

    // Everything the predicate layer interns and memoizes while this
    // loop (and its fission fragments) is analysed lives here, and
    // dies with this call.
    let mut cx = PredCtx::new();
    let analysis = cfg.obs.timed("analysis.classify_ns", || {
        analyze_do(prog, sub, target, label, cfg, &entry_env, &mut cx)
    });
    let Some(mut analysis) = analysis else {
        cfg.obs.exit_span(span, "not analyzable");
        return None;
    };
    // Fission rescue: whenever the verdict falls short of static
    // parallelism, try to distribute the body. A sequential verdict is
    // upgraded outright; predicated / fallback verdicts keep their
    // class and carry the plan as the executor's backup for the day
    // the exact test reports genuine dependences.
    if cfg.fission && analysis.class != LoopClass::StaticParallel {
        let plan = cfg.obs.in_span("analysis.fission_plan", || {
            crate::fission::plan_fission(prog, sub, target, label, cfg, &entry_env, &mut cx)
        });
        if let Some(plan) = plan {
            if analysis.class == LoopClass::StaticSequential {
                analysis.class = LoopClass::Fissioned {
                    fragments: plan.fragments.len(),
                };
            }
            analysis.fission = Some(std::rc::Rc::new(plan));
        }
    }
    if cfg.obs.enabled() {
        let stats = cx.stats();
        cfg.obs.count("core.simplify_evals", stats.simplify_evals);
        cfg.obs.count("core.simplify_hits", stats.simplify_hits);
        cfg.obs.count("core.factor_evals", stats.factor_evals);
        cfg.obs.count("core.factor_hits", stats.factor_hits);
        cfg.obs.count("core.estimate_evals", stats.estimate_evals);
        cfg.obs.count("core.estimate_hits", stats.estimate_hits);
        cfg.obs.count("symbolic.decide_evals", stats.decide_evals);
        cfg.obs.count("symbolic.decide_hits", stats.decide_hits);
        cfg.obs.count("core.pdag_interned", stats.interned);
    }
    // Dropping the tables is part of what this analysis cost.
    drop(cx);
    cfg.obs.count("analysis.loops", 1);
    cfg.obs.count(
        match &analysis.class {
            LoopClass::StaticParallel => "analysis.static_parallel",
            LoopClass::StaticSequential => "analysis.static_sequential",
            LoopClass::Predicated { .. } => "analysis.predicated",
            LoopClass::NeedsFallback(_) => "analysis.needs_fallback",
            LoopClass::Fissioned { .. } => "analysis.fissioned",
        },
        1,
    );
    cfg.obs.exit_span(span, &format!("{:?}", analysis.class));
    Some(analysis)
}

/// The fission-free core of [`analyze_loop`]: classifies `target`
/// (found in or synthesized over `sub`) against a precomputed entry
/// environment. Fragment analysis re-enters here with synthetic loops
/// that don't exist in `sub`'s body.
pub(crate) fn analyze_do(
    prog: &Program,
    sub: &Subroutine,
    target: &Stmt,
    label: &str,
    cfg: &AnalysisConfig,
    entry_env: &SymEnv,
    cx: &mut PredCtx,
) -> Option<LoopAnalysis> {
    let mut summarizer = Summarizer::new(prog);
    let mut summarize = |var: Sym, lo, hi, body| {
        cfg.obs.in_span("analysis.summarize", || {
            summarizer.iteration_summary(sub, var, lo, hi, body, entry_env)
        })
    };

    if affine_definitely_dependent(sub, target) {
        // Provably dependent in the affine domain: report STATIC-SEQ
        // without emitting runtime tests (paper Table 1's qcd rows).
        if let Stmt::Do {
            var, lo, hi, body, ..
        } = target
        {
            let it = summarize(*var, lo, hi, body);
            return Some(LoopAnalysis {
                label: label.to_owned(),
                var: it.var,
                lo: it.lo,
                hi: it.hi,
                class: LoopClass::StaticSequential,
                techniques: BTreeSet::new(),
                arrays: BTreeMap::new(),
                cascade: Cascade::default(),
                civs: Vec::new(),
                scalar_reductions: Vec::new(),
                private_scalars: Vec::new(),
                affine_ivs: Vec::new(),
                ind_usr: None,
                fission: None,
                exact_key: OnceCell::new(),
            });
        }
    }
    let it = match target {
        Stmt::Do {
            var, lo, hi, body, ..
        } => summarize(*var, lo, hi, body),
        Stmt::While { .. } => {
            // While loops go through CIV-COMP: trip count and traces are
            // runtime slice outputs; model as a counted loop.
            return analyze_while(prog, sub, target, label, cfg, entry_env.clone(), cx);
        }
        _ => return None,
    };
    Some(classify(sub, label, it, cfg, cx))
}

fn analyze_while(
    prog: &Program,
    sub: &Subroutine,
    target: &Stmt,
    label: &str,
    cfg: &AnalysisConfig,
    entry_env: SymEnv,
    cx: &mut PredCtx,
) -> Option<LoopAnalysis> {
    let Stmt::While { body, cond, .. } = target else {
        return None;
    };
    let mut summarizer = Summarizer::new(prog);
    // Iteration space 1..=niters with every assigned scalar traced; the
    // iteration variable is a binder the entry values do not mention.
    let itvar = entry_env.binders().first_free();
    let niters = LoopAnalysis::niters_sym(label);
    let mut iter_env = entry_env;
    let mut civs = Vec::new();
    for s in crate::summarize::assigned_scalars(body) {
        let trace = iter_env.bind_trace(s, itvar);
        civs.push((s, trace));
    }
    let mut pre = crate::summarize::ScopeSummary::default();
    let _ = cond;
    let body_sum = summarizer.summarize_block(sub, body, iter_env);
    pre.arrays.extend(body_sum.arrays.clone());
    let it = IterationSummary {
        var: itvar,
        lo: SymExpr::konst(1),
        hi: SymExpr::var(niters),
        body: body_sum,
        civs,
        kinds: BTreeMap::new(),
    };
    let mut analysis = classify(sub, label, it, cfg, cx);
    analysis.techniques.insert(Technique::CivComp);
    analysis.techniques.insert(Technique::CivAgg);
    Some(analysis)
}

/// The scalar environment just before the labelled loop, obtained by
/// summarizing the statements that precede it (top level and inside
/// branches).
fn env_at_loop(summarizer: &mut Summarizer, sub: &Subroutine, label: &str) -> Option<SymEnv> {
    fn walk(
        summarizer: &mut Summarizer,
        sub: &Subroutine,
        stmts: &[Stmt],
        label: &str,
        env: SymEnv,
    ) -> Result<SymEnv, SymEnv> {
        // Ok(env) = found (env at loop entry); Err(env) = not found.
        let mut env = env;
        for s in stmts {
            match s {
                Stmt::Do { label: Some(l), .. } | Stmt::While { label: Some(l), .. }
                    if l == label =>
                {
                    return Ok(env);
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    // Search branches with the current env.
                    if let Ok(found) = walk(summarizer, sub, then_body, label, env.clone()) {
                        return Ok(found);
                    }
                    if let Ok(found) = walk(summarizer, sub, else_body, label, env.clone()) {
                        return Ok(found);
                    }
                }
                Stmt::Do { body, .. } | Stmt::While { body, .. } => {
                    // A loop nested inside another: analyze relative to
                    // one iteration of the outer loop (outer var opaque).
                    let mut inner_env = env.clone();
                    if let Stmt::Do { var, .. } = s {
                        inner_env.bind(*var, SymExpr::var(*var));
                    }
                    if let Ok(found) = walk(summarizer, sub, body, label, inner_env) {
                        return Ok(found);
                    }
                }
                _ => {}
            }
            let next = summarizer.summarize_stmt(sub, s, env);
            env = next.env;
        }
        Err(env)
    }
    walk(summarizer, sub, &sub.body, label, SymEnv::new()).ok()
}

fn classify(
    sub: &Subroutine,
    label: &str,
    it: IterationSummary,
    cfg: &AnalysisConfig,
    cx: &mut PredCtx,
) -> LoopAnalysis {
    let scope = cx.scope(&loop_env(it.var, &it.lo, &it.hi, cfg));
    let obs = &cfg.obs;
    // One equation of one array: factorize, then simplify under the
    // loop's scope. `f` is the array's factorizer, shared by its flow,
    // output and last-value equations (cut from one summary, they share
    // most sub-summaries).
    let prove_empty = |cx: &mut PredCtx, f: &mut Factorizer, u: &Usr| {
        let raw = obs.in_span("core.factor", || f.factor_in(cx, u));
        obs.in_span("core.simplify", || cx.simplify(&raw, scope))
    };
    let cascade_of =
        |cx: &mut PredCtx, p: &Pdag| obs.in_span("core.cascade", || cx.build_cascade(p, scope));

    let mut techniques: BTreeSet<Technique> = BTreeSet::new();
    let mut arrays: BTreeMap<Sym, ArrayPlan> = BTreeMap::new();
    let mut required: Vec<Pdag> = Vec::new();
    let mut fallback: Option<FallbackKind> = None;
    let mut scalar_reductions = Vec::new();
    let mut affine_ivs = Vec::new();
    let mut exact_usrs: Vec<Usr> = Vec::new();

    if !it.civs.is_empty() {
        techniques.insert(Technique::CivAgg);
        techniques.insert(Technique::CivComp);
    }
    for (s, kind) in &it.kinds {
        match kind {
            ScalarKind::Reduction => {
                techniques.insert(Technique::Sred);
                scalar_reductions.push(*s);
            }
            ScalarKind::Recomputed => {
                techniques.insert(Technique::Priv);
            }
            ScalarKind::AffineIv { step } => {
                techniques.insert(Technique::Priv);
                affine_ivs.push((*s, step.clone()));
            }
            _ => {}
        }
    }
    let private_scalars = (it.kinds.keys().copied())
        .filter(|s| !scalar_reductions.contains(s) && !it.civs.iter().any(|(c, _)| c == s))
        .collect();

    for (arr, facts) in &it.body.arrays {
        let s = &facts.summary;
        if s.written().is_empty() {
            arrays.insert(*arr, ArrayPlan::ReadOnly);
            continue;
        }
        let extent = declared_size(sub, &SymEnv::new(), *arr);
        let mut fcfg = cfg.factor.clone();
        fcfg.array_extent = extent.clone().map(|size| ArrayExtent {
            base: SymExpr::konst(1),
            size,
        });

        // Reduction arrays.
        if facts.all_reduction && !s.rw.is_empty() && s.wf.is_empty() && s.ro.is_empty() {
            let oind = reshaped(
                &output_independence(it.var, &it.lo, &it.hi, &s.rw),
                cfg,
                &mut techniques,
            );
            let pred = prove_empty(cx, &mut Factorizer::new(fcfg), &oind);
            let mut cascade = cascade_of(cx, &pred);
            // Same bound as the loop-level cascade below (§3.6): past
            // O(N) the fallback is cheaper — here the buffered merge,
            // O(extent), which no O(N²) scan beats at size.
            cascade.stages.retain(|s| s.complexity <= 1);
            mark_monotonicity(&cascade, &mut techniques);
            // Statically-independent reductions update shared storage
            // directly; only buffered reductions with unknown extents
            // need BOUNDS-COMP.
            let kind = if cascade.statically_true() {
                RedKind::Static
            } else if extent.is_some() {
                RedKind::Runtime
            } else {
                RedKind::Bounds
            };
            techniques.insert(match kind {
                RedKind::Static => Technique::Sred,
                RedKind::Runtime => Technique::Rred,
                RedKind::Bounds => Technique::BoundsComp,
                RedKind::Extended => Technique::ExtRred,
            });
            arrays.insert(
                *arr,
                ArrayPlan::Reduction {
                    kind,
                    // `all_reduction` implies at least one reduction
                    // statement was summarized, so the op is present.
                    op: facts.red_op.unwrap_or(BinOp::Add),
                    cascade: (!cascade.statically_true()).then_some(cascade),
                },
            );
            continue;
        }

        // Extended reduction: WF + reduction RW, no exposed reads.
        let extended =
            facts.red_op.is_some() && !s.rw.is_empty() && !s.wf.is_empty() && s.ro.is_empty();

        // Flow/anti independence.
        let find = reshaped(
            &flow_independence(it.var, &it.lo, &it.hi, s),
            cfg,
            &mut techniques,
        );
        let mut f = Factorizer::new(fcfg);
        let flow_pred = prove_empty(cx, &mut f, &find);
        let flow_cascade = cascade_of(cx, &flow_pred);
        mark_monotonicity(&flow_cascade, &mut techniques);

        // Output independence of the write-first set.
        let oind = reshaped(
            &output_independence(it.var, &it.lo, &it.hi, &s.wf),
            cfg,
            &mut techniques,
        );
        let out_pred = prove_empty(cx, &mut f, &oind);
        let out_cascade = cascade_of(cx, &out_pred);
        mark_monotonicity(&out_cascade, &mut techniques);

        // Coverage: every read is covered by a same-iteration prior
        // write, so privatization resolves all cross-iteration WAR/WAW.
        let covered = s.ro.is_empty() && s.rw.is_empty();

        // A write-first region whose *addresses* don't vary with the
        // loop variable (solvh's gated XE scratch, paper Fig. 1): every
        // writing iteration hits the same locations, so an
        // output-independence predicate can only pass in the degenerate
        // "no iteration ever writes" case. Emitting it buries the
        // cascade under a constant-fail stage; privatization (§5) is
        // the sound plan, so the predicated arms below step aside.
        let wf_invariant = !s.wf.is_empty() && !addresses_mention(&s.wf, Some(it.var));

        // Static last value. An opaque address (`A(K)` after an IF
        // that may have bumped `K`) stands for a value that may differ
        // per iteration, so substituting `hi` for the loop variable
        // does not make it the last iteration's: the equation would
        // see every iteration write where the last one does.
        let slv = slv_equation(it.var, &it.lo, &it.hi, &s.wf);
        let slv_static = !addresses_mention(&s.wf, None) && prove_empty(cx, &mut f, &slv).is_true();

        if extended {
            techniques.insert(Technique::ExtRred);
        }

        let flow_ok_static = flow_pred.is_true();

        // CIV device (§3.3): when the write-first hull is parametrized
        // by a trace atom and the plain OIND predicate is unusable,
        // emit the per-iteration window check
        // `empty_i ∨ (tr(i) < lo_i ∧ hi_i ≤ tr(i+1))`, sound given the
        // slice-computed, increment-generated trace.
        let (out_pred, out_cascade) = if !it.civs.is_empty() {
            match civ_output_pred(it.var, &it.lo, &it.hi, &s.wf, &it.civs) {
                Some(p) => {
                    techniques.insert(Technique::CivAgg);
                    let ored = Pdag::or(vec![out_pred.clone(), p]);
                    let c = cascade_of(cx, &ored);
                    (ored, c)
                }
                None => (out_pred, out_cascade),
            }
        } else {
            (out_pred, out_cascade)
        };
        let out_ok_static = out_pred.is_true();

        // Policy order (cheapest execution first): static independence;
        // privatization with *static* last value; an output-independence
        // predicate (shared direct writes); privatization with dynamic
        // last value; then the same ladder under a flow predicate.
        let out_usable = runtime_evaluable(&out_pred) && !out_pred.is_false();
        let plan = if flow_ok_static && out_ok_static {
            ArrayPlan::Independent
        } else if flow_ok_static && covered && slv_static {
            techniques.insert(Technique::Priv);
            techniques.insert(Technique::Slv);
            ArrayPlan::Privatized {
                last_value: LastValue::Static,
                cascade: None,
            }
        } else if flow_ok_static && out_usable && !wf_invariant {
            required.push(out_pred.clone());
            ArrayPlan::Predicated(out_cascade)
        } else if flow_ok_static {
            // Flow independence alone makes copy-in privatization sound
            // (uncovered reads see pre-loop values, which no earlier
            // iteration was allowed to overwrite); dynamic last value
            // restores live-out state. This is the paper's conditional
            // privatization (§5).
            techniques.insert(Technique::Priv);
            techniques.insert(Technique::Dlv);
            ArrayPlan::Privatized {
                last_value: LastValue::Dynamic,
                cascade: None,
            }
        } else if runtime_evaluable(&flow_pred) && !flow_pred.is_false() {
            let mut pred_parts = vec![flow_pred.clone()];
            let plan = if out_ok_static {
                ArrayPlan::Predicated(flow_cascade)
            } else if covered && slv_static {
                techniques.insert(Technique::Priv);
                techniques.insert(Technique::Slv);
                ArrayPlan::Privatized {
                    last_value: LastValue::Static,
                    cascade: Some(flow_cascade),
                }
            } else if out_usable && !wf_invariant {
                pred_parts.push(out_pred.clone());
                ArrayPlan::Predicated(cascade_of(cx, &Pdag::and(pred_parts.clone())))
            } else {
                // Conditional privatization: sound whenever the flow
                // predicate passes at runtime.
                techniques.insert(Technique::Priv);
                techniques.insert(Technique::Dlv);
                ArrayPlan::Privatized {
                    last_value: LastValue::Dynamic,
                    cascade: Some(flow_cascade),
                }
            };
            if !matches!(plan, ArrayPlan::Fallback(_)) {
                required.extend(pred_parts);
            }
            plan
        } else {
            fallback = Some(pick_fallback(&find, fallback));
            ArrayPlan::Fallback(fallback.expect("just set"))
        };
        match &plan {
            ArrayPlan::Predicated(_) => {
                exact_usrs.push(Usr::union(find.clone(), oind.clone()));
            }
            ArrayPlan::Privatized {
                cascade: Some(_), ..
            } => {
                exact_usrs.push(find.clone());
            }
            ArrayPlan::Fallback(_) => {
                exact_usrs.push(Usr::union(find.clone(), oind.clone()));
            }
            _ => {}
        }
        arrays.insert(*arr, plan);
    }

    // Merge per-array requirements into the loop-level cascade. The
    // paper bounds runtime-test complexity at compile time (§3.6): we
    // keep stages up to O(N); anything deeper is the exact fallback's
    // job, not a predicate's.
    let merged = Pdag::and(required);
    let mut cascade = cascade_of(cx, &merged);
    cascade.stages.retain(|s| s.complexity <= 1);

    let ind_usr = (!exact_usrs.is_empty()).then(|| Usr::union_all(exact_usrs));
    // Every runtime test reads the frame as the loop finds it. An array
    // the loop (or a callee) writes that a test also reads — in a
    // subscript, a gate or a bound — may hold other values by the time
    // an iteration reads it, so no verdict on its pre-loop contents
    // licenses a parallel run. Until the summarizer substitutes the
    // written value (ROADMAP item 1) such a loop stays sequential.
    let tested = |w: Sym| {
        cascade.stages.iter().any(|st| st.pred.contains_sym(w))
            || ind_usr.as_ref().is_some_and(|u| u.contains_sym(w))
            || it.lo.contains_sym(w)
            || it.hi.contains_sym(w)
            || arrays.values().any(|plan| {
                matches!(plan, ArrayPlan::Reduction { cascade: Some(c), .. }
                    if c.stages.iter().any(|st| st.pred.contains_sym(w)))
            })
    };
    let tests_own_writes = it
        .body
        .arrays
        .iter()
        .any(|(arr, facts)| !facts.summary.written().is_empty() && tested(*arr));

    let class = if tests_own_writes {
        LoopClass::StaticSequential
    } else if let Some(kind) = fallback {
        techniques.insert(match kind {
            FallbackKind::HoistUsr => Technique::HoistUsr,
            FallbackKind::Tls => Technique::Tls,
        });
        LoopClass::NeedsFallback(kind)
    } else if merged.is_true() {
        LoopClass::StaticParallel
    } else if cascade.needs_fallback() {
        if ind_usr.is_none() {
            // All predicates constant-false: heuristically dependent.
            LoopClass::StaticSequential
        } else {
            // Predicates gone, but the exact test remains viable.
            LoopClass::Predicated {
                first_stage_complexity: 1,
            }
        }
    } else {
        LoopClass::Predicated {
            first_stage_complexity: cascade.stages.first().map(|s| s.complexity).unwrap_or(0),
        }
    };
    LoopAnalysis {
        label: label.to_owned(),
        var: it.var,
        lo: it.lo,
        hi: it.hi,
        class,
        techniques,
        arrays,
        cascade,
        civs: it.civs,
        scalar_reductions,
        private_scalars,
        affine_ivs,
        ind_usr,
        fission: None,
        exact_key: OnceCell::new(),
    }
}

/// The static environment of one loop: its index range, the
/// configured facts, and a non-empty iteration space — the loop is only
/// interesting when it runs (runtime guards still check it).
pub(crate) fn loop_env(var: Sym, lo: &SymExpr, hi: &SymExpr, cfg: &AnalysisConfig) -> RangeEnv {
    let mut env = RangeEnv::new();
    env.set_range(var, lo.clone(), hi.clone());
    for f in &cfg.facts {
        env.assume(f.clone());
    }
    env.assume(BoolExpr::le(lo.clone(), hi.clone()));
    env
}

fn reshaped(u: &Usr, cfg: &AnalysisConfig, techniques: &mut BTreeSet<Technique>) -> Usr {
    let r = reshape(u, cfg.reshape);
    if cfg.reshape.umeg && r != *u {
        techniques.insert(Technique::Umeg);
    }
    r
}

/// The §3.3 CIV output-independence predicate: per-iteration write
/// windows must sit inside `(trace(i), trace(i+1)]`. Sound because the
/// runtime slice generates the trace from the loop's own increments.
fn civ_output_pred(
    var: Sym,
    lo: &SymExpr,
    hi: &SymExpr,
    wf_i: &Usr,
    civs: &[(Sym, Sym)],
) -> Option<Pdag> {
    let over = lip_core::overestimate(wf_i)?;
    let (l, h) = over.set.hull()?;
    let (_, trace) = civs
        .iter()
        .find(|(_, t)| l.contains_sym(*t) || h.contains_sym(*t))?;
    let tr_i = SymExpr::elem(*trace, SymExpr::var(var));
    let tr_next = SymExpr::elem(*trace, &SymExpr::var(var) + &SymExpr::konst(1));
    let body = Pdag::or(vec![
        over.empty_if,
        Pdag::and(vec![
            Pdag::leaf(BoolExpr::lt(tr_i, l)),
            Pdag::leaf(BoolExpr::le(h, tr_next)),
        ]),
    ]);
    Some(Pdag::forall(var, lo.clone(), hi.clone(), body))
}

/// Heuristic: monotonicity predicates compare consecutive-iteration
/// hulls, recognizable by a leaf relating `trace(i)` and `trace(i+1)`.
fn mark_monotonicity(cascade: &Cascade, techniques: &mut BTreeSet<Technique>) {
    for stage in &cascade.stages {
        if complexity(&stage.pred) == 1 && format!("{}", stage.pred).contains("+ 1)") {
            techniques.insert(Technique::Mon);
            return;
        }
    }
}

/// Whether any access *address* in `u` depends on `var`, or (with no
/// `var`, only) on an opaque value. Gate predicates are skipped on
/// purpose: a gate decides whether the accesses happen, not where they
/// land, and for output independence only the landing sites matter.
/// Recurrence bounds count as address-varying (different iterations
/// produce different index sets).
fn addresses_mention(u: &Usr, var: Option<Sym>) -> bool {
    match u.node() {
        UsrNode::Empty => false,
        // An opaque sym is a havoc placeholder for a runtime value the
        // summarizer couldn't express — one name standing for a
        // possibly-different value each iteration (tls_feedback's
        // `pos = INT(W(i))`). Addresses built on one are never
        // loop-invariant, whatever syms they mention textually.
        UsrNode::Leaf(set) => {
            var.is_some_and(|v| set.contains_sym(v))
                || set.syms().iter().any(|s| opaque_sym(&s.name()))
        }
        UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
            addresses_mention(a, var) || addresses_mention(b, var)
        }
        UsrNode::Gate(_, s) | UsrNode::Call(_, s) => addresses_mention(s, var),
        UsrNode::RecTotal {
            var: rv,
            lo,
            hi,
            body,
        }
        | UsrNode::RecPartial {
            var: rv,
            lo,
            hi,
            body,
        } => {
            // An inner recurrence bound that mentions `var` (solvh's
            // `U[k=1..IA(i)]`) varies the *set size* per iteration, not
            // the landing sites: every non-empty range starts at the
            // same first element, so collisions persist. Only when the
            // body's addresses track the recurrence variable does an
            // outer-variant bound make the addresses outer-variant.
            let bounds_vary = var.is_some_and(|v| lo.contains_sym(v) || hi.contains_sym(v));
            addresses_mention(body, var) || (bounds_vary && addresses_mention(body, Some(*rv)))
        }
    }
}

/// Whether a symbol name denotes an opaque unknown the runtime cannot
/// reproduce (as opposed to program scalars, arrays and CIV traces).
fn opaque_sym(n: &str) -> bool {
    n.contains("@u")
        || n.contains("cond@")
        || n.contains("@idx")
        || n.contains("@arg")
        || n.contains("@sec")
        || n.contains("@opaque")
        || n.contains("@ridx")
}

/// Whether a predicate's free symbols can all be produced at runtime
/// (program scalars, arrays, CIV traces — but not opaque unknowns).
fn runtime_evaluable(p: &Pdag) -> bool {
    p.free_syms().iter().all(|s| !opaque_sym(&s.name()))
}

/// Fallback choice: hoisted USR evaluation when the equation's inputs
/// are runtime-computable, TLS otherwise.
fn pick_fallback(usr: &Usr, prior: Option<FallbackKind>) -> FallbackKind {
    if prior == Some(FallbackKind::Tls) {
        return FallbackKind::Tls;
    }
    let evaluable = usr.free_syms().iter().all(|s| !opaque_sym(&s.name()));
    if evaluable {
        FallbackKind::HoistUsr
    } else {
        FallbackKind::Tls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    fn analyze(src: &str, sub: &str, label: &str) -> LoopAnalysis {
        let prog = parse_program(src).expect("parses");
        analyze_loop(&prog, sym(sub), label, &AnalysisConfig::default()).expect("loop found")
    }

    #[test]
    fn disjoint_writes_are_static_parallel() {
        let a = analyze(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*), B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = B(i) + 1.0
  ENDDO
END
",
            "t",
            "l1",
        );
        assert_eq!(a.class, LoopClass::StaticParallel);
        assert!(matches!(a.arrays[&sym("A")], ArrayPlan::Independent));
        assert!(matches!(a.arrays[&sym("B")], ArrayPlan::ReadOnly));
    }

    #[test]
    fn loop_carried_flow_is_not_parallel() {
        let a = analyze(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 2, N
    A(i) = A(i - 1) + 1.0
  ENDDO
END
",
            "t",
            "l1",
        );
        assert_ne!(a.class, LoopClass::StaticParallel);
    }

    #[test]
    fn offset_crossover_yields_o1_predicate() {
        // A(i) = A(i + M): independent iff M >= N (or M <= -N); the
        // factorization must produce a runtime predicate, not give up.
        let a = analyze(
            "
SUBROUTINE t(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO l1 i = 1, N
    A(i) = A(i + M) * 0.5
  ENDDO
END
",
            "t",
            "l1",
        );
        match &a.class {
            LoopClass::Predicated {
                first_stage_complexity,
            } => assert_eq!(*first_stage_complexity, 0),
            other => panic!("expected predicated, got {other:?}"),
        }
        // The cascade passes for M >= N and fails for 0 < M < N.
        let mut ctx = lip_symbolic::MapCtx::new();
        ctx.set_scalar(sym("N"), 100).set_scalar(sym("M"), 100);
        assert_eq!(a.cascade.first_success(&ctx, 10_000), Some(0));
        ctx.set_scalar(sym("M"), 5);
        assert_eq!(a.cascade.first_success(&ctx, 10_000), None);
    }

    #[test]
    fn privatizable_scratch_array() {
        // T is written then read per iteration: PRIV applies.
        let a = analyze(
            "
SUBROUTINE t(A, T, N, M)
  DIMENSION A(*), T(*)
  INTEGER i, j, N, M
  DO l1 i = 1, N
    DO j = 1, M
      T(j) = 1.0
    ENDDO
    DO j = 1, M
      A(i) = A(i) + T(j)
    ENDDO
  ENDDO
END
",
            "t",
            "l1",
        );
        assert!(
            a.techniques.contains(&Technique::Priv),
            "{:?}",
            a.techniques
        );
        assert!(matches!(a.arrays[&sym("T")], ArrayPlan::Privatized { .. }));
    }

    #[test]
    fn index_array_reduction_is_runtime_or_bounds() {
        let a = analyze(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = A(B(i)) + 1.0
  ENDDO
END
",
            "t",
            "l1",
        );
        match &a.arrays[&sym("A")] {
            ArrayPlan::Reduction { kind, op, cascade } => {
                // A(*) has unknown extent: BOUNDS-COMP flavor.
                assert_eq!(*kind, RedKind::Bounds);
                assert_eq!(*op, BinOp::Add);
                // The monotonicity predicate over B should exist.
                assert!(cascade.is_some());
            }
            other => panic!("expected reduction, got {other:?}"),
        }
        assert!(a.techniques.contains(&Technique::BoundsComp));
    }

    /// MIN/MAX reduction statements carry their operator onto the plan
    /// (`Lt`/`Gt` encoding), so the executor merges buffers correctly.
    #[test]
    fn min_reduction_plan_carries_its_operator() {
        let a = analyze(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = MIN(A(B(i)), 7.5)
  ENDDO
END
",
            "t",
            "l1",
        );
        match &a.arrays[&sym("A")] {
            ArrayPlan::Reduction { op, .. } => assert_eq!(*op, BinOp::Lt),
            other => panic!("expected reduction, got {other:?}"),
        }
    }

    /// Mixed operators on the same array are NOT a reduction: neither
    /// op merges the other's partial results correctly, so the array
    /// must fall out of the reduction classification entirely.
    #[test]
    fn mixed_operator_updates_are_not_a_reduction() {
        let a = analyze(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = A(B(i)) + 1.0
    A(B(i)) = A(B(i)) * 2.0
  ENDDO
END
",
            "t",
            "l1",
        );
        assert!(
            !matches!(&a.arrays[&sym("A")], ArrayPlan::Reduction { .. }),
            "mixed-op array classified as reduction: {:?}",
            a.arrays[&sym("A")]
        );
    }

    #[test]
    fn monotonic_index_windows_get_on_predicate() {
        // The paper's §3.3 shape: per-iteration window [B(i), B(i)+L-1].
        let a = analyze(
            "
SUBROUTINE t(A, B, N, L)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, k, N, L
  DO l1 i = 1, N
    DO k = 1, L
      A(B(i) + k - 1) = 1.0
    ENDDO
  ENDDO
END
",
            "t",
            "l1",
        );
        match &a.class {
            LoopClass::Predicated { .. } => {}
            other => panic!("expected predicated, got {other:?}"),
        }
        // Runtime: monotone bases pass, overlapping bases fail.
        let mut ctx = lip_symbolic::MapCtx::new();
        ctx.set_scalar(sym("N"), 4).set_scalar(sym("L"), 3);
        ctx.set_array(sym("B"), 1, vec![1, 4, 7, 10]);
        assert!(a.cascade.first_success(&ctx, 10_000).is_some());
        ctx.set_array(sym("B"), 1, vec![1, 2, 3, 4]);
        assert_eq!(a.cascade.first_success(&ctx, 10_000), None);
    }

    #[test]
    fn civ_loop_uses_traces() {
        let a = analyze(
            "
SUBROUTINE t(A, C, N)
  DIMENSION A(*)
  INTEGER C(*)
  INTEGER i, civ, N
  civ = 0
  DO l1 i = 1, N
    IF (C(i) .GT. 0) THEN
      civ = civ + 1
      A(civ) = 1.0
    ENDIF
  ENDDO
END
",
            "t",
            "l1",
        );
        assert!(a.techniques.contains(&Technique::CivAgg));
        assert_eq!(a.civs.len(), 1);
    }

    #[test]
    fn while_loop_is_civ_comp() {
        let a = analyze(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER k, N
  k = 1
  DO w1 WHILE (k .LT. N)
    A(k) = 1.0
    k = k + 2
  ENDDO
END
",
            "t",
            "w1",
        );
        assert!(a.techniques.contains(&Technique::CivComp));
    }

    #[test]
    fn quadratic_indexing_proved_by_monotonicity() {
        // The trfd OLDA class (paper §7, Range-test comparison):
        // windows [i²+1, i²+2i] are strictly increasing, so the §3.3
        // monotonicity rule proves output independence *statically* —
        // the hull comparison (i²+2i < (i+1)²+1) folds to true.
        let a = analyze(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, j, N
  DO l1 i = 1, N
    DO j = 1, 2 * i
      A(i * i + j) = 1.0
    ENDDO
  ENDDO
END
",
            "t",
            "l1",
        );
        assert_eq!(a.class, LoopClass::StaticParallel, "{:?}", a.class);
    }

    #[test]
    fn overlapping_quadratic_windows_not_static_parallel() {
        // Same shape but windows widened past the next base: the
        // monotone argument must NOT prove it.
        let a = analyze(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, j, N
  DO l1 i = 1, N
    DO j = 1, 2 * i + 5
      A(i * i + j) = 1.0
    ENDDO
  ENDDO
END
",
            "t",
            "l1",
        );
        assert_ne!(a.class, LoopClass::StaticParallel);
    }

    #[test]
    fn scalar_sum_is_reduction() {
        let a = analyze(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  s = 0.0
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
",
            "t",
            "l1",
        );
        assert!(a.techniques.contains(&Technique::Sred));
        assert_eq!(a.scalar_reductions, vec![sym("s")]);
        assert_eq!(a.class, LoopClass::StaticParallel);
    }
}
