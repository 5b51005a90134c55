//! Targeted differentials: compiled (sequential and chunk-parallel)
//! predicate evaluation must match `Pdag::eval` verdict for verdict —
//! including tri-state unknowns, overflow and budget exhaustion — and
//! the engine caches must actually cache.

use lip_core::{build_cascade, Pdag, PdagNode};
use lip_pred::{compile_pred, eval_compiled, EvalParams, PredEngine};
use lip_symbolic::{sym, BoolExpr, MapCtx, RangeEnv, SymExpr};

fn v(name: &str) -> SymExpr {
    SymExpr::var(sym(name))
}

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

/// Every backend shape (tree, compiled ×1 thread, compiled ×4 threads
/// with an aggressive fork threshold) must agree.
fn assert_agree(p: &Pdag, ctx: &MapCtx, limit: u64) {
    let tree = p.eval(ctx, limit);
    let prog = compile_pred(p).expect("compiles");
    let seq = eval_compiled(
        &prog,
        ctx,
        limit,
        EvalParams {
            nthreads: 1,
            par_min: 1024,
        },
    );
    let par = eval_compiled(
        &prog,
        ctx,
        limit,
        EvalParams {
            nthreads: 4,
            par_min: 2,
        },
    );
    assert_eq!(tree, seq, "sequential diverged on {p} (limit {limit})");
    assert_eq!(tree, par, "parallel diverged on {p} (limit {limit})");
}

#[test]
fn forall_over_array_elements() {
    // ∧_{i=1}^{N} B(i) < B(i+1)
    let body = Pdag::leaf(BoolExpr::lt(
        SymExpr::elem(sym("B"), v("i")),
        SymExpr::elem(sym("B"), v("i") + k(1)),
    ));
    let p = Pdag::forall(sym("i"), k(1), v("N"), body);
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 63);
    ctx.set_array(sym("B"), 1, (0..64).map(|x| x * 3).collect());
    assert_agree(&p, &ctx, 1_000);
    assert_eq!(p.eval(&ctx, 1_000), Some(true));

    // A violation in the middle: the parallel first-failure verdict
    // must match the sequential one.
    let mut data: Vec<i64> = (0..64).map(|x| x * 3).collect();
    data[40] = -1;
    ctx.set_array(sym("B"), 1, data);
    assert_agree(&p, &ctx, 1_000);
    assert_eq!(p.eval(&ctx, 1_000), Some(false));
}

#[test]
fn unknowns_propagate_identically() {
    // Unbound scalar in one disjunct, decidable truth in the other.
    let unknown = Pdag::leaf(BoolExpr::gt0(v("UNBOUND_PRED_X")));
    let truth = Pdag::leaf(BoolExpr::gt0(v("N")));
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 5);
    assert_agree(&Pdag::or(vec![unknown.clone(), truth.clone()]), &ctx, 100);
    assert_agree(&Pdag::and(vec![unknown.clone(), truth]), &ctx, 100);
    // Out-of-range element access.
    let oob = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), k(99))));
    ctx.set_array(sym("B"), 1, vec![1, 2, 3]);
    assert_agree(&oob, &ctx, 100);
}

#[test]
fn overflow_is_unknown_on_both() {
    // N * N * K with huge values overflows i64 in eval: tree reports
    // None, the compiled checked ops must too.
    let p = Pdag::leaf(BoolExpr::gt0(v("N") * v("N") * v("K")));
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), i64::MAX / 2)
        .set_scalar(sym("K"), 3);
    assert_agree(&p, &ctx, 100);
    assert_eq!(p.eval(&ctx, 100), None);
}

#[test]
fn budget_exhaustion_matches_even_in_parallel() {
    let body = Pdag::leaf(BoolExpr::gt0(v("i") + v("N")));
    let p = Pdag::forall(sym("i"), k(1), k(1000), body);
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 1);
    // Exhausted, exactly at the boundary, and comfortable budgets.
    for limit in [0, 1, 10, 999, 1000, 1001, 100_000] {
        assert_agree(&p, &ctx, limit);
    }
    assert_eq!(p.eval(&ctx, 10), None);
    assert_eq!(p.eval(&ctx, 100_000), Some(true));
}

#[test]
fn nested_quantifiers_and_divisibility() {
    // ∧_{i=1}^{N} (2 | B(i)  ∨  ∧_{j=1}^{i} B(j) + j > 0)
    let inner = Pdag::forall(
        sym("j"),
        k(1),
        v("i"),
        Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("j")) + v("j"))),
    );
    let body = Pdag::or(vec![
        Pdag::leaf(BoolExpr::divides(2, SymExpr::elem(sym("B"), v("i")))),
        inner,
    ]);
    let p = Pdag::forall(sym("i"), k(1), v("N"), body);
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 12);
    ctx.set_array(sym("B"), 1, vec![2, 3, 4, 5, 6, 1, 8, 9, 2, 7, 4, 3]);
    for limit in [3, 20, 1_000] {
        assert_agree(&p, &ctx, limit);
    }
}

#[test]
fn min_max_atoms_and_compound_leaves() {
    // The DISJOINT_LMAD_1D interval shape: hi1 < lo2 ∨ hi2 < lo1,
    // with min/max atoms in the bounds.
    let leaf = BoolExpr::or(vec![
        BoolExpr::lt(SymExpr::max(v("A1"), v("A2")), v("B1")),
        BoolExpr::lt(v("B2"), SymExpr::min(v("A1"), v("A2"))),
    ]);
    let p = Pdag::leaf(leaf);
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("A1"), 3)
        .set_scalar(sym("A2"), 7)
        .set_scalar(sym("B1"), 10)
        .set_scalar(sym("B2"), 20);
    assert_agree(&p, &ctx, 100);
    assert_eq!(p.eval(&ctx, 100), Some(true));
    ctx.set_scalar(sym("B1"), 5);
    assert_agree(&p, &ctx, 100);
    assert_eq!(p.eval(&ctx, 100), Some(false));
}

#[test]
fn shadowed_quantifier_variable_resolves_innermost() {
    // ∀_{i=1}^{1} ∀_{i=2}^{2} B(i) > 0: the inner binding shadows the
    // outer one (ScopedCtx semantics), so only B(2) is read.
    let inner = Pdag::raw(PdagNode::ForAll {
        var: sym("i"),
        lo: k(2),
        hi: k(2),
        body: Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i")))),
    });
    let p = Pdag::raw(PdagNode::ForAll {
        var: sym("i"),
        lo: k(1),
        hi: k(1),
        body: inner,
    });
    let mut ctx = MapCtx::new();
    ctx.set_array(sym("B"), 1, vec![0, 5]);
    assert_eq!(p.eval(&ctx, 100), Some(true));
    assert_agree(&p, &ctx, 100);
    ctx.set_array(sym("B"), 1, vec![5, 0]);
    assert_eq!(p.eval(&ctx, 100), Some(false));
    assert_agree(&p, &ctx, 100);
}

#[test]
fn engine_compile_cache_hits() {
    let body = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
    let p = Pdag::forall(sym("i"), k(1), v("N"), body);
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 8);
    ctx.set_array(sym("B"), 1, vec![1; 8]);

    let engine = PredEngine::with_par_min(1024);
    for _ in 0..2 {
        let prog = engine.program(&p).expect("compiles");
        assert_eq!(
            eval_compiled(&prog, &ctx, 1_000, EvalParams::default()),
            Some(true)
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.compiles, 1, "second eval must reuse the program");
    assert!(stats.program_hits >= 1);
    // The tree-walk reference never touches the engine.
    assert_eq!(p.eval(&ctx, 1_000), Some(true));
    assert_eq!(engine.stats().compiles, 1);
}

#[test]
fn engine_memoizes_and_invalidates_on_input_change() {
    let body = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
    let p = Pdag::forall(sym("i"), k(1), v("N"), body);
    let cascade = build_cascade(&p, &RangeEnv::new());
    assert!(!cascade.stages.is_empty());

    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 8);
    ctx.set_array(sym("B"), 1, vec![1; 8]);
    let engine = PredEngine::with_par_min(1024);
    let fp_of = |f: u128| move |_: &lip_pred::PredProgram| Some(f);

    let (hit1, units1) = engine.first_success(&cascade, &ctx, 100_000, 1, &mut fp_of(7), None);
    let evals_after_first = engine.stats().evals;
    let (hit2, units2) = engine.first_success(&cascade, &ctx, 100_000, 1, &mut fp_of(7), None);
    assert_eq!(hit1, hit2);
    // Charged units are identical on the memo hit: the memo is a
    // wall-clock optimization, never a cost-model change.
    assert_eq!(units1, units2);
    assert_eq!(engine.stats().evals, evals_after_first, "memo hit re-ran");
    assert!(engine.stats().memo_hits >= 1);

    // A different fingerprint (changed inputs) must re-evaluate.
    ctx.set_array(sym("B"), 1, vec![-1; 8]);
    let (hit3, _) = engine.first_success(&cascade, &ctx, 100_000, 1, &mut fp_of(8), None);
    assert_ne!(hit1, hit3, "changed inputs must change the verdict here");
    assert!(engine.stats().evals > evals_after_first);
}

#[test]
fn first_success_parity_with_cascade() {
    // An O(1)-able invariant ∨ a per-iteration test (the cascade test
    // from lip_core): the engine against the tree-walk cascade.
    let inv = Pdag::leaf(BoolExpr::lt(v("NP").scale(8), v("NS") + k(6)));
    let per_iter = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
    let p = Pdag::forall(sym("i"), k(1), v("N"), Pdag::or(vec![inv, per_iter]));
    let cascade = build_cascade(&p, &RangeEnv::new());

    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("NP"), 1)
        .set_scalar(sym("NS"), 1)
        .set_scalar(sym("N"), 3);
    ctx.set_array(sym("B"), 1, vec![1, 2, 3]);

    let reference = cascade.first_success(&ctx, 1_000);
    let manual_units: u64 = cascade
        .stages
        .iter()
        .take(reference.map_or(cascade.stages.len(), |i| i + 1))
        .map(|s| s.pred.eval_cost(&ctx))
        .sum();
    let engine = PredEngine::with_par_min(2);
    let (hit, units) = engine.first_success(&cascade, &ctx, 1_000, 4, &mut |_| None, None);
    assert_eq!(hit, reference);
    assert_eq!(units, manual_units);
}
