//! Binders: what makes the same sub-problem the same term.
//!
//! Every binder the equations mint — the prefix `k` of Eq. 2/3 and of
//! `Summary::aggregate_loop` — is the lowest pool symbol occurring
//! nowhere in the terms it binds over, so posing an equation twice
//! builds one term twice: equal, with equal hashes. And `Usr::subst` /
//! `Usr::rename_bound` never capture: renaming a variable to one a
//! nested recurrence binds renames that recurrence first.

use std::hash::BuildHasher;

use lip_symbolic::{sym, BoolExpr, MapCtx, Sym, SymExpr};
use lip_usr::{
    eval_usr, flow_independence, output_independence, Lmad, LmadSet, Summary, Usr, UsrNode,
};
use proptest::prelude::*;

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

fn v(s: Sym) -> SymExpr {
    SymExpr::var(s)
}

fn point(e: SymExpr) -> Usr {
    Usr::leaf(LmadSet::single(Lmad::point(e)))
}

/// Asserts that `a` and `b` were built apart and are one term.
fn same_term(a: &Usr, b: &Usr) {
    assert_ne!(a.id(), b.id(), "built apart");
    assert_eq!(a, b);
    let hasher = std::collections::hash_map::RandomState::new();
    assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
    assert_eq!(a.to_string(), b.to_string());
    assert!(!a.to_string().contains('$'), "{a}");
}

/// A per-iteration summary of loop `i` whose pieces need the prefix
/// binder (no exact aggregation) and already bind one of their own.
fn summary() -> Summary {
    let (i, j) = (sym("i"), sym("j"));
    let b_i = SymExpr::elem(sym("B"), v(i));
    let inner = Usr::rec_total(
        j,
        k(1),
        v(i),
        Usr::gate(
            BoolExpr::gt0(SymExpr::elem(sym("C"), v(j))),
            point(&b_i + &v(j)),
        ),
    );
    Summary {
        wf: Usr::union(point(b_i.clone()), inner),
        ro: point(SymExpr::elem(sym("D"), v(i))),
        rw: point(&b_i + &v(sym("M"))),
    }
}

#[test]
fn posing_an_equation_twice_builds_one_term() {
    let (i, n) = (sym("i"), v(sym("N")));
    let s = summary();
    same_term(
        &output_independence(i, &k(1), &n, &s.wf),
        &output_independence(i, &k(1), &n, &s.wf),
    );
    same_term(
        &flow_independence(i, &k(1), &n, &s),
        &flow_independence(i, &k(1), &n, &s),
    );
    let (a, b) = (
        s.aggregate_loop(i, &k(1), &n),
        s.aggregate_loop(i, &k(1), &n),
    );
    for (x, y) in [(&a.wf, &b.wf), (&a.ro, &b.ro), (&a.rw, &b.rw)] {
        same_term(x, y);
    }
}

#[test]
fn the_prefix_binder_avoids_every_binder_of_its_body() {
    // `wf` binds no pool symbol and mentions none: the prefix is @0.
    let (i, n) = (sym("i"), v(sym("N")));
    let wf = point(SymExpr::elem(sym("B"), v(i)));
    let o = output_independence(i, &k(1), &n, &wf);
    assert!(o.to_string().contains("Upartial[@0="), "{o}");
    // Over a summary that already binds @0, the prefix takes @1.
    let m = sym("m");
    let outer = Usr::union(o, point(SymExpr::elem(sym("B"), v(m))));
    let nested = output_independence(m, &k(1), &n, &outer);
    let UsrNode::RecTotal { body, .. } = nested.node() else {
        panic!("expected a recurrence: {nested}");
    };
    let text = body.to_string();
    assert!(
        text.contains("Upartial[@0=") && text.contains("Upartial[@1="),
        "{nested}"
    );
}

/// A tape of small integers read front to back (zeros past its end).
struct Tape<'a>(std::slice::Iter<'a, u8>);

impl Tape<'_> {
    fn next(&mut self, n: u8) -> u8 {
        self.0.next().copied().unwrap_or(0) % n
    }
}

/// Binder candidates: pool symbols the renaming may collide with, and
/// a program name.
fn binder(t: &mut Tape) -> Sym {
    [Sym::binder(0), Sym::binder(1), Sym::binder(2), sym("j")][usize::from(t.next(4))]
}

/// A random summary over `scope` (the variables in scope: free `i`,
/// `M`, and every enclosing recurrence's variable), with recurrences
/// nested under recurrences over colliding names.
fn usr(t: &mut Tape, scope: &[Sym], depth: u32) -> Usr {
    let at = |t: &mut Tape| v(scope[usize::from(t.next(scope.len() as u8))]);
    match if depth == 0 { 0 } else { t.next(6) } {
        0 | 1 => {
            let lo = &at(t) + &k(i64::from(t.next(3)));
            Usr::leaf(LmadSet::single(Lmad::interval(
                lo.clone(),
                &lo + &k(i64::from(t.next(2))),
            )))
        }
        2 => Usr::gate(BoolExpr::gt0(&at(t) - &k(1)), usr(t, scope, depth - 1)),
        3 => Usr::union(usr(t, scope, depth - 1), usr(t, scope, depth - 1)),
        4 => Usr::subtract(usr(t, scope, depth - 1), usr(t, scope, depth - 1)),
        _ => {
            let var = binder(t);
            let hi = at(t);
            let mut inner = scope.to_vec();
            inner.push(var);
            let body = usr(t, &inner, depth - 1);
            if t.next(2) == 0 {
                Usr::rec_total(var, k(1), hi, body)
            } else {
                Usr::rec_partial(var, k(1), &hi - &k(1), body)
            }
        }
    }
}

/// Every symbol a generated summary or renaming can mention, bound.
fn base_ctx(vals: &[i64]) -> MapCtx {
    let mut ctx = MapCtx::new();
    let names = [
        sym("i"),
        sym("M"),
        sym("j"),
        sym("t"),
        Sym::binder(0),
        Sym::binder(1),
        Sym::binder(2),
    ];
    for (s, x) in names.iter().zip(vals) {
        ctx.set_scalar(*s, *x);
    }
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Renaming `from` to `to` changes the free symbols by exactly that
    /// renaming, and — when `to` was not free already — means what the
    /// original meant with `to` standing for `from`, however many
    /// recurrences inside bind `to`.
    #[test]
    fn renaming_never_captures(
        tape in proptest::collection::vec(0u8..=255, 8..48),
        pick in 0u8..16,
        vals in proptest::collection::vec(0i64..4, 7..8),
        x in 0i64..4,
    ) {
        let (i, m) = (sym("i"), sym("M"));
        let u = usr(&mut Tape(tape.iter()), &[i, m], 4);
        let from = [i, m, Sym::binder(0), Sym::binder(1)][usize::from(pick % 4)];
        let to = [Sym::binder(0), Sym::binder(1), Sym::binder(2), sym("t")][usize::from(pick / 4)];
        let renamed = u.rename_bound(from, to);

        let mut want = u.free_syms();
        if want.remove(&from) {
            want.insert(to);
        }
        prop_assert_eq!(renamed.free_syms(), want, "{} renamed {} -> {}: {}", &u, from, to, &renamed);

        if from != to && !u.free_syms().contains(&to) {
            let mut before = base_ctx(&vals);
            before.set_scalar(from, x);
            let mut after = base_ctx(&vals);
            after.set_scalar(to, x);
            prop_assert_eq!(
                eval_usr(&u, &before, 10_000),
                eval_usr(&renamed, &after, 10_000),
                "{} renamed {} -> {}: {}", &u, from, to, &renamed
            );
        }
    }
}
