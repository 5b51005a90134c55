//! Gates on what one analysis remembers and what it leaves behind.
//!
//! `solvh` is the kernel whose cold analysis the predicate memo tables
//! were built for. Its evaluation counts are exact and repeat from run
//! to run, so they are gated as counts; and once `analyze_loop` has
//! returned, nothing in `lip_core` / `lip_symbolic` may still hold a
//! node the analysis built — the tables live in a context `analyze_loop`
//! owns, not in a global or a thread-local.

use std::collections::HashMap;

use lip_analysis::{analyze_loop, AnalysisConfig, ArrayPlan, LoopAnalysis};
use lip_core::{Cascade, Pdag, PdagNode};
use lip_ir::parse_program;
use lip_obs::{Obs, ObsLevel};
use lip_symbolic::sym;

fn analyze_solvh(obs: Obs) -> LoopAnalysis {
    let shape = &lip_suite::SOLVH;
    let prog = parse_program(shape.source).expect("parses");
    let cfg = AnalysisConfig {
        obs,
        ..AnalysisConfig::default()
    };
    analyze_loop(&prog, sym(shape.sub), shape.label, &cfg).expect("analyzable")
}

/// Before the memo tables: 31 382 `decide` and 54 598 `simplify`
/// evaluations for this one loop.
#[test]
fn solvh_evaluation_counts_are_bounded_and_repeat() {
    let counts = || {
        let obs = Obs::with_level(ObsLevel::Metrics);
        analyze_solvh(obs.clone());
        let snap = obs.snapshot();
        [
            "symbolic.decide_evals",
            "symbolic.decide_hits",
            "core.simplify_evals",
            "core.simplify_hits",
            "core.pdag_interned",
        ]
        .map(|name| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} recorded"))
        })
    };
    let first = counts();
    let [decide_evals, _, simplify_evals, _, interned] = first;
    assert!(decide_evals <= 2_000, "{decide_evals} decide evaluations");
    assert!(
        simplify_evals <= 5_000,
        "{simplify_evals} simplify evaluations"
    );
    assert!(interned > 0);
    assert_eq!(counts(), first, "the counts are not deterministic");
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
    assert_nothing_else_holds_its_nodes(&analyze_solvh(Obs::off()));
    // A server shard analyses never-seen programs forever, on one thread.
    for _ in 0..50 {
        analyze_solvh(Obs::off());
    }
    assert_nothing_else_holds_its_nodes(&analyze_solvh(Obs::off()));
}

/// What the one process-global table keeps per analysis: no name — the
/// strings are bounded by the program texts seen — and one stringless
/// entry per fresh symbol. (While `Sym::fresh` interned `i$35`,
/// `i$35k$80`, … as strings, 20 s of `bench_e2e cold_pipeline` grew the
/// process by 1.5 KB per analysis; other tests intern names of their
/// own meanwhile, hence its own process below a bound, not `== 0`.)
#[test]
fn a_repeated_analysis_interns_no_new_name() {
    let shapes = [
        &lip_suite::SOLVH,
        &lip_suite::CIV_WHILE,
        &lip_suite::HOIST_INDIRECT,
    ];
    let programs = shapes.map(|shape| parse_program(shape.source).expect("parses"));
    let analyze_all = || {
        for (shape, prog) in shapes.iter().zip(&programs) {
            let cfg = AnalysisConfig::default();
            analyze_loop(prog, sym(shape.sub), shape.label, &cfg).expect("analyzable");
        }
    };
    analyze_all();
    let (names, fresh) = lip_symbolic::interner_size();
    for _ in 0..40 {
        analyze_all();
    }
    let (names_after, fresh_after) = lip_symbolic::interner_size();
    assert!(fresh_after > fresh, "analyses mint fresh symbols");
    // The other tests of this binary analyse solvh too: a handful of
    // names on their first run, none per repetition here.
    assert!(
        names_after - names < 40,
        "{} names interned by 40 repetitions of three analyses",
        names_after - names
    );
}
