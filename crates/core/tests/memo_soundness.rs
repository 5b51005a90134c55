//! Memo soundness: what a shared [`PredCtx`] remembers must never
//! change an answer.
//!
//! Random USR equations are factorized, simplified and cascaded twice —
//! all of them through one shared context, and each through a fresh
//! context of its own. The two routes must build identical nodes, and
//! everything they build must agree with the unsimplified predicate
//! under `Pdag::eval` (the oracle) on random concrete inputs that
//! satisfy the environment's facts.

use lip_core::{build_cascade, simplify, Cascade, Factorizer, PredCtx};
use lip_lmad::{Lmad, LmadSet};
use lip_symbolic::{sym, BoolExpr, MapCtx, RangeEnv, SymExpr};
use lip_usr::{output_independence, Usr};
use proptest::prelude::*;

fn v(name: &str) -> SymExpr {
    SymExpr::var(sym(name))
}

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

/// A tape of small integers read front to back; an exhausted tape
/// reads zeros, which bottoms every recursion out in a leaf.
struct Tape<'a>(std::slice::Iter<'a, i64>);

impl Tape<'_> {
    fn next(&mut self) -> i64 {
        self.0.next().copied().unwrap_or(0)
    }
}

/// An offset built from the free symbols the inputs bind: constants,
/// `N`, `M`, the loop index `i` and the index array `B`.
fn offset(t: &mut Tape, idx: &SymExpr) -> SymExpr {
    let c = k(t.next() % 4);
    match t.next() % 5 {
        0 => c,
        1 => v("M") + c,
        2 => idx.clone() + c,
        3 => SymExpr::elem(sym("B"), idx.clone()) + c,
        _ => idx.scale(2) + v("M"),
    }
}

/// A random summary over `idx` (the enclosing recurrence variable).
fn usr(t: &mut Tape, idx: &SymExpr, depth: u32) -> Usr {
    let op = if depth == 0 { 0 } else { t.next() % 8 };
    match op {
        0 | 1 => {
            let lo = offset(t, idx);
            let width = k(t.next() % 3);
            Usr::leaf(LmadSet::single(Lmad::interval(lo.clone(), lo + width)))
        }
        2 => Usr::gate(
            BoolExpr::gt0(v("M") - k(t.next() % 3)),
            usr(t, idx, depth - 1),
        ),
        3 => Usr::gate(
            BoolExpr::ne(SymExpr::elem(sym("B"), idx.clone()), k(t.next() % 3)),
            usr(t, idx, depth - 1),
        ),
        4 => Usr::union(usr(t, idx, depth - 1), usr(t, idx, depth - 1)),
        5 => Usr::intersect(usr(t, idx, depth - 1), usr(t, idx, depth - 1)),
        6 => Usr::subtract(usr(t, idx, depth - 1), usr(t, idx, depth - 1)),
        _ => {
            let body = usr(t, &v("kq"), depth - 1);
            Usr::rec_total(sym("kq"), k(1), idx.clone(), body)
        }
    }
}

/// Three equations cut from one tape: a per-iteration summary's output
/// independence (the monotonicity and unshadow rules), and two
/// aggregates that share it as a sub-summary.
fn equations(tape: &[i64]) -> Vec<Usr> {
    let mut t = Tape(tape.iter());
    let wf = usr(&mut t, &v("i"), 3);
    let other = usr(&mut t, &v("i"), 2);
    let agg = |u: &Usr| Usr::rec_total(sym("i"), k(1), v("N"), u.clone());
    vec![
        output_independence(sym("i"), &k(1), &v("N"), &wf),
        Usr::intersect(agg(&wf), agg(&other)),
        Usr::subtract(agg(&other), agg(&wf)),
    ]
}

/// Renumbers `Sym::fresh` suffixes by first appearance: the two routes
/// draw different fresh names for the same bound variables.
fn canon(p: &impl ToString) -> String {
    let s = p.to_string();
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::new();
    let mut rest = s.as_str();
    while let Some(at) = rest.find('$') {
        let digits = rest[at + 1..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - at - 1);
        let suffix = &rest[at + 1..at + 1 + digits];
        let n = seen.iter().position(|x| *x == suffix).unwrap_or_else(|| {
            seen.push(suffix);
            seen.len() - 1
        });
        out.push_str(&rest[..=at]);
        out.push_str(&n.to_string());
        rest = &rest[at + 1 + digits..];
    }
    out.push_str(rest);
    out
}

fn canon_cascade(c: &Cascade) -> Vec<(u32, String)> {
    c.stages
        .iter()
        .map(|s| (s.complexity, canon(&s.pred)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_context_builds_what_fresh_contexts_build(
        tape in proptest::collection::vec(0i64..64, 12..40),
        n in 1i64..5,
        m in -1i64..4,
        b in proptest::collection::vec(0i64..6, 8..9),
    ) {
        let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("N") - k(1)));
        let eqs = equations(&tape);

        let mut cx = PredCtx::new();
        let scope = cx.scope(&env);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("N"), n).set_scalar(sym("M"), m);
        ctx.set_array(sym("B"), 0, b.clone());

        for u in &eqs {
            // One context for every equation …
            let raw = Factorizer::with_defaults().factor_in(&mut cx, u);
            let simp = cx.simplify(&raw, scope);
            let cascade = cx.build_cascade(&simp, scope);
            // … against a fresh one per call.
            let raw_alone = Factorizer::with_defaults().factor(u);
            let simp_alone = simplify(&raw_alone, &env);
            let cascade_alone = build_cascade(&simp_alone, &env);
            prop_assert_eq!(canon(&raw), canon(&raw_alone));
            prop_assert_eq!(canon(&simp), canon(&simp_alone));
            prop_assert_eq!(canon_cascade(&cascade), canon_cascade(&cascade_alone));

            // The oracle: simplification is an equivalence under the
            // facts, every stage a sufficient condition, and the
            // exact stage is among them.
            let Some(want) = raw.eval(&ctx, 1_000_000) else { continue };
            prop_assert_eq!(simp.eval(&ctx, 1_000_000), Some(want), "{} vs {}", &raw, &simp);
            for stage in &cascade.stages {
                if stage.pred.eval(&ctx, 1_000_000) == Some(true) {
                    prop_assert!(want, "stage passed, predicate did not: {}", &stage.pred);
                }
            }
            if want {
                prop_assert!(
                    cascade.first_success(&ctx, 1_000_000).is_some(),
                    "no stage passes, the predicate does: {}", &simp
                );
            }
        }
    }

    /// One factorizer for every equation cut from one summary (as the
    /// classifier shares it per array): memo hits on shared
    /// sub-summaries must not change what the predicates mean.
    #[test]
    fn shared_factorizer_means_what_fresh_factorizers_mean(
        tape in proptest::collection::vec(0i64..64, 12..40),
        n in 1i64..5,
        m in -1i64..4,
        b in proptest::collection::vec(0i64..6, 8..9),
    ) {
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("N"), n).set_scalar(sym("M"), m);
        ctx.set_array(sym("B"), 0, b.clone());
        let mut cx = PredCtx::new();
        let mut shared = Factorizer::with_defaults();
        for u in &equations(&tape) {
            let together = shared.factor_in(&mut cx, u);
            let alone = Factorizer::with_defaults().factor(u);
            prop_assert_eq!(
                together.eval(&ctx, 1_000_000),
                alone.eval(&ctx, 1_000_000),
                "{} vs {}", &together, &alone
            );
        }
    }
}
