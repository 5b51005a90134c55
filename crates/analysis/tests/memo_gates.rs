//! Gates on what one analysis remembers and what it leaves behind.
//!
//! `solvh` is the kernel whose cold analysis the predicate memo tables
//! were built for, `hoist_indirect` the one whose fission fragments ask
//! its factorizers the same questions again. Their evaluation counts are
//! exact and repeat from run to run, so they are gated as counts; and
//! once `analyze_loop` has returned, nothing in `lip_core` /
//! `lip_symbolic` may still hold a node the analysis built — the tables
//! live in a context `analyze_loop` owns, not in a global or a
//! thread-local.
//!
//! The tests of this binary take [`LOCK`] in turn: the interner gate
//! counts process-wide entries, which another test's analysis running
//! meanwhile would add to.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use lip_analysis::{analyze_loop, AnalysisConfig, ArrayPlan, LoopAnalysis};
use lip_core::{Cascade, Pdag, PdagNode};
use lip_ir::parse_program;
use lip_obs::{Obs, ObsLevel};
use lip_suite::KernelShape;
use lip_symbolic::sym;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn analyze(shape: &KernelShape, obs: Obs) -> LoopAnalysis {
    let prog = parse_program(shape.source).expect("parses");
    let cfg = AnalysisConfig {
        obs,
        ..AnalysisConfig::default()
    };
    analyze_loop(&prog, sym(shape.sub), shape.label, &cfg).expect("analyzable")
}

fn analyze_solvh(obs: Obs) -> LoopAnalysis {
    analyze(&lip_suite::SOLVH, obs)
}

/// The memo counters of one metrics-level analysis of `shape`, in
/// `NAMES` order, checked to repeat exactly on a second analysis.
fn counts(shape: &KernelShape) -> [u64; 9] {
    const NAMES: [&str; 9] = [
        "symbolic.decide_evals",
        "symbolic.decide_hits",
        "core.simplify_evals",
        "core.simplify_hits",
        "core.factor_evals",
        "core.factor_hits",
        "core.estimate_evals",
        "core.estimate_hits",
        "core.pdag_interned",
    ];
    let once = || {
        let obs = Obs::with_level(ObsLevel::Metrics);
        analyze(shape, obs.clone());
        let snap = obs.snapshot();
        NAMES.map(|name| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} recorded"))
        })
    };
    let first = once();
    assert_eq!(
        once(),
        first,
        "{}: the counts are not deterministic",
        shape.name
    );
    println!("{}: {NAMES:?} = {first:?}", shape.name);
    first
}

/// Before the memo tables: 31 382 `decide` and 54 598 `simplify`
/// evaluations for this one loop. Before canonical binders and
/// structural factorizer keys: 1 406 factorizer evaluations, about half
/// of them a question already answered under other binder names.
#[test]
fn solvh_evaluation_counts_are_bounded_and_repeat() {
    let _serial = serial();
    let [decide_evals, _, simplify_evals, _, factor_evals, factor_hits, estimate_evals, _, interned] =
        counts(&lip_suite::SOLVH);
    assert!(decide_evals <= 500, "{decide_evals} decide evaluations");
    assert!(
        simplify_evals <= 1_900,
        "{simplify_evals} simplify evaluations"
    );
    assert!(factor_evals <= 800, "{factor_evals} factorizer evaluations");
    assert!(factor_hits > 0);
    assert!(estimate_evals <= 110, "{estimate_evals} estimates");
    assert!(interned > 0);
}

/// Fission planning re-poses, per statement pair, questions the
/// loop's own factorizers answered: 546 factorizer evaluations while
/// every factorizer kept a memo of its own, keyed by node identity.
#[test]
fn hoist_indirect_factorizer_counts_are_bounded_and_repeat() {
    let _serial = serial();
    let [_, _, _, _, factor_evals, _, estimate_evals, _, _] = counts(&lip_suite::HOIST_INDIRECT);
    assert!(factor_evals <= 450, "{factor_evals} factorizer evaluations");
    assert!(estimate_evals <= 55, "{estimate_evals} estimates");
}

/// Every cascade of the analysis, fission fragments included.
fn cascades<'a>(a: &'a LoopAnalysis, out: &mut Vec<&'a Cascade>) {
    out.push(&a.cascade);
    for plan in a.arrays.values() {
        match plan {
            ArrayPlan::Predicated(c)
            | ArrayPlan::Privatized {
                cascade: Some(c), ..
            }
            | ArrayPlan::Reduction {
                cascade: Some(c), ..
            } => out.push(c),
            _ => {}
        }
    }
    if let Some(plan) = &a.fission {
        for f in &plan.fragments {
            cascades(&f.analysis, out);
        }
    }
}

/// Asserts that every node reachable from `a` is referenced exactly as
/// often as `a` itself references it: a surviving intern or memo table
/// would hold extra handles.
fn assert_nothing_else_holds_its_nodes(a: &LoopAnalysis) {
    let mut held: HashMap<usize, (Pdag, usize)> = HashMap::new();
    fn hold(p: &Pdag, held: &mut HashMap<usize, (Pdag, usize)>) {
        if let Some((_, n)) = held.get_mut(&p.id()) {
            *n += 1;
            return;
        }
        held.insert(p.id(), (p.clone(), 1));
        match p.node() {
            PdagNode::Bool(_) | PdagNode::Leaf(_) => {}
            PdagNode::And(ps) | PdagNode::Or(ps) => ps.iter().for_each(|q| hold(q, held)),
            PdagNode::ForAll { body, .. } | PdagNode::AtCall(_, body) => hold(body, held),
        }
    }
    let mut all = Vec::new();
    cascades(a, &mut all);
    for stage in all.iter().flat_map(|c| &c.stages) {
        hold(&stage.pred, &mut held);
    }
    assert!(held.len() > 100, "solvh's cascades are not this small");
    for (node, from_analysis) in held.values() {
        // `held` itself owns one more handle.
        assert_eq!(
            node.ref_count(),
            from_analysis + 1,
            "a table outlived analyze_loop: it still holds {node}"
        );
    }
}

#[test]
fn nothing_outlives_analyze_loop() {
    let _serial = serial();
    assert_nothing_else_holds_its_nodes(&analyze_solvh(Obs::off()));
    // A server shard analyses never-seen programs forever, on one thread.
    for _ in 0..50 {
        analyze_solvh(Obs::off());
    }
    assert_nothing_else_holds_its_nodes(&analyze_solvh(Obs::off()));
}

/// What the one process-global table keeps per analysis: no name — the
/// strings are bounded by the program texts seen — and one stringless
/// entry per opaque unknown, a value the analysis cannot name (`@u`,
/// `@idx`, `cond@`, …). Bound variables are pool binders and add none:
/// while every binder was a fresh symbol, each repeated analysis of
/// solvh / hoist_indirect / offset_crossover left 120 / 54 / 18 entries.
#[test]
fn a_repeated_analysis_interns_no_new_name() {
    let _serial = serial();
    for (shape, max_fresh) in [
        (&lip_suite::SOLVH, 10),
        (&lip_suite::CIV_WHILE, 0),
        (&lip_suite::HOIST_INDIRECT, 0),
        (&lip_suite::OFFSET_CROSSOVER, 0),
    ] {
        // The first analysis interns the kernel's names.
        analyze(shape, Obs::off());
        let (names, fresh) = lip_symbolic::interner_size();
        const REPEATS: usize = 10;
        for _ in 0..REPEATS {
            analyze(shape, Obs::off());
        }
        let (names_after, fresh_after) = lip_symbolic::interner_size();
        let minted = fresh_after - fresh;
        println!(
            "{}: {minted} fresh symbols in {REPEATS} analyses",
            shape.name
        );
        assert_eq!(
            names_after, names,
            "{}: a repeated analysis interned names",
            shape.name
        );
        assert!(
            minted <= max_fresh * REPEATS,
            "{}: {minted} fresh symbols in {REPEATS} analyses, bound {max_fresh} each",
            shape.name
        );
    }
}
