//! Alpha-equal summaries are one factorization problem.
//!
//! Random nested recurrences are built twice from one tape, each copy
//! naming its recurrence variables after a placeholder of its own and
//! then renaming them to the binder the analysis would mint — the
//! lowest pool symbol occurring nowhere in the body or the bounds. The
//! two inputs to that step are alpha-equal; what comes out, and every
//! equation posed over it, must be one term: equal, factoring to equal
//! PDAGs in contexts of their own, and answered from the memo when both
//! are factorized in one context.

use lip_core::{Factorizer, PredCtx};
use lip_lmad::{Lmad, LmadSet};
use lip_symbolic::{sym, BoolExpr, Sym, SymExpr};
use lip_usr::{flow_independence, output_independence, Summary, Usr};
use proptest::prelude::*;

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

fn v(s: Sym) -> SymExpr {
    SymExpr::var(s)
}

/// A tape of small integers read front to back (zeros past its end).
struct Tape<'a>(std::slice::Iter<'a, u8>);

impl Tape<'_> {
    fn next(&mut self, n: u8) -> u8 {
        self.0.next().copied().unwrap_or(0) % n
    }
}

/// A random summary over `scope`; recurrences are built over the
/// placeholder `{name}{depth}` and then bound by a minted binder.
fn usr(t: &mut Tape, scope: &[Sym], depth: u32, name: &str) -> Usr {
    let at = |t: &mut Tape| v(scope[usize::from(t.next(scope.len() as u8))]);
    match if depth == 0 { 0 } else { t.next(7) } {
        0 | 1 => {
            let lo = if t.next(2) == 0 {
                SymExpr::elem(sym("B"), at(t))
            } else {
                at(t)
            };
            let hi = &lo + &k(i64::from(t.next(2)));
            Usr::leaf(LmadSet::single(Lmad::interval(lo, hi)))
        }
        2 => Usr::gate(
            BoolExpr::gt0(&at(t) - &v(sym("M"))),
            usr(t, scope, depth - 1, name),
        ),
        3 => Usr::union(
            usr(t, scope, depth - 1, name),
            usr(t, scope, depth - 1, name),
        ),
        4 => Usr::intersect(
            usr(t, scope, depth - 1, name),
            usr(t, scope, depth - 1, name),
        ),
        5 => Usr::subtract(
            usr(t, scope, depth - 1, name),
            usr(t, scope, depth - 1, name),
        ),
        _ => {
            let placeholder = sym(&format!("{name}{depth}"));
            let hi = at(t);
            let mut inner = scope.to_vec();
            inner.push(placeholder);
            let body = usr(t, &inner, depth - 1, name);
            let var = (body.binders() | hi.binders()).first_free();
            Usr::rec_total(var, k(1), hi, body.rename_bound(placeholder, var))
        }
    }
}

/// The equations the classifier poses over a per-iteration summary of
/// loop `i` cut from the tape.
fn equations(tape: &[u8], name: &str) -> Vec<Usr> {
    let (i, n) = (sym("i"), v(sym("N")));
    let mut t = Tape(tape.iter());
    let scope = [i, sym("M")];
    let s = Summary {
        wf: usr(&mut t, &scope, 3, name),
        ro: usr(&mut t, &scope, 2, name),
        rw: usr(&mut t, &scope, 2, name),
    };
    let agg = s.aggregate_loop(i, &k(1), &n);
    vec![
        output_independence(i, &k(1), &n, &s.wf),
        flow_independence(i, &k(1), &n, &s),
        Usr::intersect(agg.wf, agg.rw),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn alpha_equal_inputs_factor_to_equal_pdags(
        tape in proptest::collection::vec(0u8..=255, 12..48),
    ) {
        let (ours, theirs) = (equations(&tape, "pa"), equations(&tape, "pb"));
        let mut cx = PredCtx::new();
        for (a, b) in ours.iter().zip(&theirs) {
            prop_assert_eq!(a, b);
            prop_assert!(a.id() != b.id(), "built apart");
            let alone = (
                Factorizer::with_defaults().factor(a),
                Factorizer::with_defaults().factor(b),
            );
            prop_assert_eq!(&alone.0, &alone.1, "{} vs {}", &alone.0, &alone.1);

            let pa = Factorizer::with_defaults().factor_in(&mut cx, a);
            let evals = cx.stats().factor_evals;
            let pb = Factorizer::with_defaults().factor_in(&mut cx, b);
            prop_assert_eq!(&pa, &pb);
            prop_assert_eq!(cx.stats().factor_evals, evals, "{} asked again", b);
            prop_assert_eq!(pa.to_string(), alone.0.to_string());
        }
    }
}
