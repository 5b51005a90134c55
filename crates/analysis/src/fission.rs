//! Loop fission (distribution) rescue pass.
//!
//! When the whole-loop cascade verdict degrades to sequential — the
//! worst outcome the paper's framework allows — this pass splits the
//! loop body into statement groups with no cross-group dependences,
//! re-packages each group as a standalone DO over the same iteration
//! space, and re-runs the full analysis per fragment. A loop the
//! cascade gave up on then executes as "parallel fragments + sequential
//! residue" instead of fully sequential (the distribution rescue the
//! ROADMAP attributes to Aubert et al. and Nuriyev's parallel-step
//! detection).
//!
//! Legality is established conservatively from the same USR/LMAD
//! machinery the classifier uses:
//!
//! - **Scalars.** Two statements stay together when they share a scalar
//!   at least one of them may write (including DO headers, `READ`
//!   targets and scalar call arguments, which the interpreter copies
//!   back). A pure upward-exposed *use* against another statement's def
//!   merges too; a use the statement itself dominates with a def (an
//!   inner loop's `id = …` first thing in its body) does not.
//! - **Arrays.** For every cross-statement pair sharing an array that
//!   at least one side writes, the aggregated (whole-iteration-space)
//!   write set of each side must be *provably disjoint* from the
//!   other's aggregated access set, via the factorizer: fission
//!   reorders entire fragments, so per-iteration disjointness is not
//!   enough. Anything not provably disjoint is a conflict and merges
//!   the statements.
//!
//! Statement groups are the connected components of that conflict
//! relation (every edge is kept symmetric, so components coincide with
//! SCCs of the dependence graph) and execute in program order, which
//! preserves every remaining dependence direction.

use std::collections::{BTreeMap, BTreeSet};

use lip_core::{Factorizer, PredCtx};
use lip_ir::{Expr, LValue, Program, Stmt, Subroutine};
use lip_symbolic::Sym;
use lip_usr::{Summary, Usr};

use crate::classify::{
    analyze_do, loop_env, AnalysisConfig, FallbackKind, LoopAnalysis, LoopClass,
};
use crate::summarize::{use_before_def, Summarizer};
use crate::symbridge::SymEnv;

/// One fragment of a distributed loop: a subset of the original body,
/// re-packaged as a standalone DO over the same iteration space.
#[derive(Clone, Debug)]
pub struct FissionFragment {
    /// Indices of the original top-level body statements (program
    /// order).
    pub stmts: Vec<usize>,
    /// The fragment as a loop of its own (same variable and bounds,
    /// unit step).
    pub target: Stmt,
    /// The fragment's own analysis (computed with fission disabled —
    /// fragments don't recurse).
    pub analysis: LoopAnalysis,
    /// Scalars the fragment may write (loop variable excluded). The
    /// executor restores their sequential-final values after a parallel
    /// fragment run, so fissioned execution stays observationally
    /// identical to the sequential loop even for privatized scalars.
    pub assigned: Vec<Sym>,
}

/// An ordered fragment sequence covering the original body exactly
/// once; executing the fragments in order is equivalent to the
/// original loop.
#[derive(Clone, Debug)]
pub struct FissionPlan {
    /// Fragments in execution (= program) order.
    pub fragments: Vec<FissionFragment>,
}

impl FissionPlan {
    /// How many fragments the executor can hope to run in parallel
    /// (deterministically — speculation is not re-entered per
    /// fragment).
    pub fn rescuable(&self) -> usize {
        self.fragments
            .iter()
            .filter(|f| fragment_rescuable(&f.analysis))
            .count()
    }

    /// Whether a fragment is statically sequential: it carries a
    /// dependence the whole loop's exact test is certain to find again,
    /// so a loop whose cascade failed is distributed without that test.
    pub fn holds_sequential(&self) -> bool {
        (self.fragments.iter()).any(|f| f.analysis.class == LoopClass::StaticSequential)
    }
}

/// Whether a fragment classification admits deterministic parallel
/// execution (statically, under a cascade, or through the hoisted
/// exact test).
pub fn fragment_rescuable(a: &LoopAnalysis) -> bool {
    matches!(
        a.class,
        LoopClass::StaticParallel
            | LoopClass::Predicated { .. }
            | LoopClass::NeedsFallback(FallbackKind::HoistUsr)
    )
}

/// Attempts to distribute `target` (the loop labelled `label`). Returns
/// a plan only when the body splits into ≥ 2 legal fragments and at
/// least one of them is rescuable — otherwise fission would be pure
/// overhead.
pub(crate) fn plan_fission(
    prog: &Program,
    sub: &Subroutine,
    target: &Stmt,
    label: &str,
    cfg: &AnalysisConfig,
    entry_env: &SymEnv,
    cx: &mut PredCtx,
) -> Option<FissionPlan> {
    let Stmt::Do {
        var,
        lo,
        hi,
        step: None,
        body,
        ..
    } = target
    else {
        return None;
    };
    if body.len() < 2 {
        return None;
    }
    let n = body.len();

    // Per-statement scalar footprints. The loop variable is implicitly
    // shared read-only; a body that writes it defeats the iteration
    // model entirely.
    let mut assigned: Vec<BTreeSet<Sym>> = Vec::with_capacity(n);
    for st in body {
        let mut out = BTreeSet::new();
        stmt_assigned(st, sub, &mut out);
        out.remove(var);
        assigned.push(out);
    }
    if body.iter().any(|st| {
        let mut out = BTreeSet::new();
        stmt_assigned(st, sub, &mut out);
        out.contains(var)
    }) {
        return None;
    }
    let all_assigned: BTreeSet<Sym> = assigned.iter().flatten().copied().collect();

    // Per-statement array summaries. Scalars another statement may
    // write are havocked first: summarizing `X(t) = …` alone would
    // otherwise bind `t` to its loop-entry value and could "prove"
    // disjointness from addresses the real (per-iteration) `t` visits.
    let mut summarizer = Summarizer::new(prog);
    let mut stmt_arrays: Vec<BTreeMap<Sym, Summary>> = Vec::with_capacity(n);
    let (mut it_lo, mut it_hi) = (None, None);
    for (i, st) in body.iter().enumerate() {
        let mut env = entry_env.clone();
        for s in all_assigned.difference(&assigned[i]) {
            env.bind_opaque(*s);
        }
        let it = summarizer.iteration_summary(sub, *var, lo, hi, std::slice::from_ref(st), &env);
        it_lo.get_or_insert(it.lo.clone());
        it_hi.get_or_insert(it.hi.clone());
        stmt_arrays.push(
            it.body
                .arrays
                .iter()
                .map(|(a, f)| (*a, f.summary.clone()))
                .collect(),
        );
    }
    let (it_lo, it_hi) = (it_lo?, it_hi?);

    let scope = cx.scope(&loop_env(*var, &it_lo, &it_hi, cfg));
    let aggregate = |u: &Usr| Usr::rec_total(*var, it_lo.clone(), it_hi.clone(), u.clone());
    let mut provably_empty = |u: &Usr| {
        let mut f = Factorizer::new(cfg.factor.clone());
        let raw = f.factor_in(cx, u);
        cx.simplify(&raw, scope).is_true()
    };

    // Union-find over statements; every dependence edge merges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    };

    // Scalar dependences first (they also mark which pairs the array
    // summaries are trustworthy for).
    for p in 0..n {
        for q in (p + 1)..n {
            let shared_def = assigned[p].intersection(&assigned[q]).next().is_some();
            let exposed = |d: &BTreeSet<Sym>, u: usize| {
                d.iter()
                    .any(|s| use_before_def(std::slice::from_ref(&body[u]), *s))
            };
            if shared_def || exposed(&assigned[p], q) || exposed(&assigned[q], p) {
                union(&mut parent, p, q);
            }
        }
    }
    // Array conflicts.
    for p in 0..n {
        for q in (p + 1)..n {
            if find(&mut parent, p) == find(&mut parent, q) {
                continue;
            }
            let conflict = stmt_arrays[p].iter().any(|(arr, sp)| {
                let Some(sq) = stmt_arrays[q].get(arr) else {
                    return false;
                };
                let (wp, wq) = (sp.written(), sq.written());
                if wp.is_empty() && wq.is_empty() {
                    return false;
                }
                !(provably_empty(&Usr::intersect(aggregate(&wp), aggregate(&sq.all())))
                    && provably_empty(&Usr::intersect(aggregate(&wq), aggregate(&sp.all()))))
            });
            if conflict {
                union(&mut parent, p, q);
            }
        }
    }

    // Components in program order.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    if groups.len() < 2 {
        cfg.obs.count("fission.indivisible", 1);
        cfg.obs.event("fission.indivisible", || {
            format!("{label}: {n} statements form one dependence component")
        });
        return None;
    }
    let mut sets: Vec<Vec<usize>> = groups.into_values().collect();
    sets.sort_by_key(|g| g[0]);

    let mut fcfg = cfg.clone();
    fcfg.fission = false;
    let mut fragments = Vec::with_capacity(sets.len());
    for (k, set) in sets.into_iter().enumerate() {
        let flabel = format!("{label}~f{k}");
        let ftarget = Stmt::Do {
            label: Some(flabel.clone()),
            var: *var,
            lo: lo.clone(),
            hi: hi.clone(),
            step: None,
            body: set.iter().map(|&i| body[i].clone()).collect(),
        };
        let analysis = analyze_do(prog, sub, &ftarget, &flabel, &fcfg, entry_env, cx)?;
        let fragment_assigned: Vec<Sym> = set
            .iter()
            .flat_map(|&i| assigned[i].iter().copied())
            .collect::<BTreeSet<Sym>>()
            .into_iter()
            .collect();
        cfg.obs.event("fission.fragment", || {
            format!("{flabel}: {} statements, {:?}", set.len(), analysis.class)
        });
        fragments.push(FissionFragment {
            stmts: set,
            target: ftarget,
            analysis,
            assigned: fragment_assigned,
        });
    }
    let plan = FissionPlan { fragments };
    let rescuable = plan.rescuable();
    if rescuable >= 1 {
        cfg.obs.count("fission.plans", 1);
        cfg.obs
            .count("fission.fragments", plan.fragments.len() as u64);
        cfg.obs
            .count("fission.rescuable_fragments", rescuable as u64);
        cfg.obs.event("fission.plan", || {
            format!(
                "{label}: {} fragments, {rescuable} rescuable",
                plan.fragments.len()
            )
        });
        Some(plan)
    } else {
        cfg.obs.count("fission.unrescuable", 1);
        cfg.obs.event("fission.unrescuable", || {
            format!(
                "{label}: {} fragments but none rescuable",
                plan.fragments.len()
            )
        });
        None
    }
}

/// Scalars `st` may write: assignment targets, DO headers, `READ`
/// targets — and bare scalar call arguments, which the interpreter
/// passes copy-in/copy-out.
fn stmt_assigned(st: &Stmt, sub: &Subroutine, out: &mut BTreeSet<Sym>) {
    match st {
        Stmt::Assign {
            lhs: LValue::Scalar(v),
            ..
        } => {
            out.insert(*v);
        }
        Stmt::Assign { .. } => {}
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            for s in then_body.iter().chain(else_body) {
                stmt_assigned(s, sub, out);
            }
        }
        Stmt::Do { var, body, .. } => {
            out.insert(*var);
            for s in body {
                stmt_assigned(s, sub, out);
            }
        }
        Stmt::While { body, .. } => {
            for s in body {
                stmt_assigned(s, sub, out);
            }
        }
        Stmt::Read { targets } => out.extend(targets.iter().copied()),
        Stmt::Call { args, .. } => {
            for a in args {
                if let Expr::Var(v) = a {
                    if sub.decl(*v).is_none() {
                        out.insert(*v);
                    }
                }
            }
        }
    }
}
