//! `lip_usr::exact` against the reference semantics.
//!
//! [`exact::independent`] answers "is this USR empty" in one pass —
//! prefixes extended instead of rebuilt, early exit, run-length sets —
//! and [`eval_usr`] builds the set. On every input where the reference
//! is defined the two must agree; where it is not, the one-pass verdict
//! may only be `None`, or `Some(false)` when a collision was found
//! before the undefined operand (the documented asymmetry of early
//! exit) — never `Some(true)`. Units must repeat exactly.
//!
//! Random USRs come from a byte tape drawn with the in-tree `proptest`
//! stand-in (it has no recursive strategies): the builder below turns a
//! tape into a tree over the shapes the analysis produces and the ones
//! that break a careless prefix cache — partial recurrences under two
//! enclosing recurrences whose bodies mention the outer variables,
//! upper bounds read from an index array (so a prefix shrinks between
//! evaluations), gates that flip from iteration to iteration, negative
//! spans, non-positive strides and unbound symbols.

use lip_lmad::Dim;
use lip_symbolic::{sym, BoolExpr, MapCtx, Sym, SymExpr};
use lip_usr::exact::{self, Exact};
use lip_usr::{eval_usr, output_independence, CallSiteId, Lmad, LmadSet, Usr, UsrNode};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const LIMIT: usize = 1_000_000;
const BUDGET: u64 = 10_000_000;

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

fn v(s: Sym) -> SymExpr {
    SymExpr::var(s)
}

/// The differential itself; returns what both sides said.
fn check(u: &Usr, ctx: &MapCtx) -> (Option<bool>, Exact) {
    let reference = eval_usr(u, ctx, LIMIT).map(|s| s.is_empty());
    let got = exact::independent(u, ctx, BUDGET);
    assert_eq!(
        got,
        exact::independent(u, ctx, BUDGET),
        "units or verdict do not repeat on {u}"
    );
    match reference {
        Some(empty) => assert_eq!(got.verdict, Some(empty), "verdict diverged on {u}"),
        None => assert_ne!(
            got.verdict,
            Some(true),
            "independent where the reference is undefined: {u}"
        ),
    }
    (reference, got)
}

/// Reads generator decisions off a byte tape (zeros past its end, so
/// every tape builds a finite tree).
struct Tape<'a> {
    codes: &'a [u8],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self, bound: u8) -> i64 {
        let c = self.codes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        i64::from(c % bound)
    }
}

/// The recurrence variable bound at nesting depth `d`.
fn var_at(d: usize) -> Sym {
    sym(&format!("xd_v{d}"))
}

/// A small expression over the enclosing variables: constants, affine
/// terms, index-array elements (which defeat exact aggregation, so the
/// recurrence nodes survive their smart constructors) and, rarely, a
/// symbol nothing binds.
fn expr(t: &mut Tape<'_>, depth: usize) -> SymExpr {
    let pick = |t: &mut Tape<'_>| v(var_at(t.next(depth.max(1) as u8) as usize));
    match t.next(if depth == 0 { 2 } else { 12 }) {
        0 | 1 => k(t.next(12) - 2),
        2..=4 => pick(t).scale(t.next(3) + 1) + k(t.next(6) - 1),
        5..=8 => SymExpr::elem(sym("xd_B"), pick(t) + k(t.next(3))).scale(t.next(2) + 1),
        9 => SymExpr::elem(sym("xd_C"), pick(t)) + pick(t),
        10 => pick(t) - pick(t),
        _ if t.next(6) == 0 => v(sym("xd_unbound")),
        _ => v(sym("xd_n")),
    }
}

fn leaf(t: &mut Tape<'_>, depth: usize) -> Usr {
    let at = expr(t, depth);
    let lmad = match t.next(6) {
        0 | 1 => Lmad::point(at),
        // Length −2..5: a negative span is the empty set.
        2 | 3 => Lmad::interval(at.clone(), at + k(t.next(8) - 2)),
        // Stride −1..3 (non-positive: undefined), count 0..4.
        4 => Lmad::strided(at, k(t.next(5) - 1), k(t.next(5))),
        _ => Lmad::from_dims(
            vec![
                Dim {
                    stride: k(t.next(3) + 1),
                    span: k(t.next(7) - 1),
                },
                Dim {
                    stride: k(t.next(6) + 2),
                    span: expr(t, depth),
                },
            ],
            at,
        ),
    };
    Usr::leaf(LmadSet::single(lmad))
}

fn gate_pred(t: &mut Tape<'_>, depth: usize) -> BoolExpr {
    let e = expr(t, depth);
    match t.next(3) {
        0 => BoolExpr::gt0(e - k(t.next(6))),
        1 => BoolExpr::ne(e, k(t.next(6))),
        _ => BoolExpr::le(e, expr(t, depth)),
    }
}

/// A recurrence bound: a small constant, an enclosing variable (± 1),
/// or an index-array element of one — `xd_C` is not monotone, so a
/// partial recurrence bounded by it shrinks between evaluations.
fn bound(t: &mut Tape<'_>, depth: usize) -> SymExpr {
    if depth == 0 {
        return k(t.next(5));
    }
    let outer = v(var_at(t.next(depth as u8) as usize));
    match t.next(4) {
        0 => k(t.next(5)),
        1 => outer - k(1),
        2 => outer + k(t.next(2)),
        _ => SymExpr::elem(sym("xd_C"), outer),
    }
}

fn usr(t: &mut Tape<'_>, depth: usize, budget: u32) -> Usr {
    if budget == 0 {
        return leaf(t, depth);
    }
    let b = budget - 1;
    match t.next(14) {
        0 | 1 => leaf(t, depth),
        2 => Usr::union(usr(t, depth, b), usr(t, depth, b)),
        3 | 4 => Usr::intersect(usr(t, depth, b), usr(t, depth, b)),
        5 => Usr::subtract(usr(t, depth, b), usr(t, depth, b)),
        6 => Usr::gate(gate_pred(t, depth), usr(t, depth, b)),
        7 => Usr::call(
            CallSiteId {
                callee: sym("xd_callee"),
                site: 0,
            },
            usr(t, depth, b),
        ),
        _ if depth >= 3 => leaf(t, depth),
        8..=10 => {
            let (lo, hi) = (k(t.next(3)), bound(t, depth));
            Usr::rec_total(var_at(depth), lo, hi, usr(t, depth + 1, b))
        }
        _ => {
            let lo = if t.next(3) == 0 {
                bound(t, depth)
            } else {
                k(t.next(2))
            };
            let hi = bound(t, depth);
            Usr::rec_partial(var_at(depth), lo, hi, usr(t, depth + 1, b))
        }
    }
}

/// Bindings for the builder's symbols: the scalar `xd_n`, an index
/// array `xd_B` and a non-monotone bound array `xd_C` (both 0-based and
/// short enough that some subscripts fall off the end).
fn ctx_for(b: &[i64], c: &[i64]) -> MapCtx {
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("xd_n"), 3);
    ctx.set_array(sym("xd_B"), 0, b.to_vec());
    ctx.set_array(sym("xd_C"), 0, c.to_vec());
    ctx
}

/// How deep the deepest partial recurrence sits under other
/// recurrences, when its body mentions an outer variable.
fn partial_depth(u: &Usr, enclosing: &[Sym]) -> usize {
    match u.node() {
        UsrNode::Empty | UsrNode::Leaf(_) => 0,
        UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
            partial_depth(a, enclosing).max(partial_depth(b, enclosing))
        }
        UsrNode::Gate(_, body) | UsrNode::Call(_, body) => partial_depth(body, enclosing),
        UsrNode::RecTotal { var, body, .. } => {
            let inner = [enclosing, &[*var]].concat();
            partial_depth(body, &inner)
        }
        UsrNode::RecPartial { var, body, .. } => {
            let here = if enclosing.iter().any(|s| body.contains_sym(*s)) {
                enclosing.len()
            } else {
                0
            };
            let inner = [enclosing, &[*var]].concat();
            here.max(partial_depth(body, &inner))
        }
    }
}

/// The random corpus: 6000 USRs and bindings, the same on every run.
fn corpus() -> impl Iterator<Item = (Usr, MapCtx)> {
    let mut rng = TestRng::from_name("random_usrs_agree_with_the_reference");
    let tapes = proptest::collection::vec(0u8..=255, 96);
    let index = proptest::collection::vec(0i64..24, 7);
    let bounds = proptest::collection::vec(-1i64..5, 6);
    (0..6000).map(move |_| {
        let tape = tapes.generate(&mut rng);
        let ctx = ctx_for(&index.generate(&mut rng), &bounds.generate(&mut rng));
        let mut t = Tape {
            codes: &tape,
            at: 0,
        };
        (usr(&mut t, 0, 6), ctx)
    })
}

#[test]
fn random_usrs_agree_with_the_reference() {
    // What the corpus reached: (reference defined and empty, defined
    // and not, undefined), early exits past an undefined operand, and
    // prefixes nested under two recurrences.
    let (mut empty, mut inhabited, mut undefined, mut early, mut nested) = (0, 0, 0, 0, 0);
    for (u, ctx) in corpus() {
        let (reference, got) = check(&u, &ctx);
        match reference {
            Some(true) => empty += 1,
            Some(false) => inhabited += 1,
            None => undefined += 1,
        }
        early += usize::from(reference.is_none() && got.verdict == Some(false));
        nested += usize::from(partial_depth(&u, &[]) >= 2);
    }
    assert!(empty > 500, "{empty} empty sets");
    assert!(inhabited > 500, "{inhabited} inhabited sets");
    assert!(undefined > 200, "{undefined} undefined evaluations");
    assert!(early > 0, "no early exit past an undefined operand");
    assert!(
        nested > 100,
        "{nested} prefixes under two recurrences mentioning an outer variable"
    );
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/exact_corpus_units.txt"
);

/// One line per corpus case: its index, the verdict (`T`rue,
/// `F`alse, `N`one) and units with the whole budget, then with half the
/// units it took (which pins where they are charged, not only how
/// many).
fn render_units() -> String {
    let tri = |v: Option<bool>| match v {
        Some(true) => 'T',
        Some(false) => 'F',
        None => 'N',
    };
    let mut out = String::new();
    for (k, (u, ctx)) in corpus().enumerate() {
        let whole = exact::independent(&u, &ctx, BUDGET);
        let half = exact::independent(&u, &ctx, whole.units / 2);
        out += &format!(
            "{k} {} {} {} {}\n",
            tri(whole.verdict),
            whole.units,
            tri(half.verdict),
            half.units
        );
    }
    out
}

/// The corpus' verdicts and units are `tests/golden/exact_corpus_units.txt`
/// byte for byte: the evaluator may get faster, never count
/// differently. Re-capture with `-- --ignored bless` only when the
/// count is meant to change.
#[test]
fn corpus_units_match_the_golden() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let got = render_units();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "exact test units diverged from the golden capture");
    }
    assert_eq!(got, want);
}

#[test]
#[ignore = "writes the golden file; run only when the exact test's count is meant to change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("has a parent"))
        .expect("golden dir");
    std::fs::write(GOLDEN, render_units()).expect("golden written");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Eq. 2 over an index-array window — the shape the executor asks
    /// about most — on random bases, widths and strides.
    #[test]
    fn output_independence_agrees(
        bases in proptest::collection::vec(0i64..80, 1..14),
        width in 0i64..6,
        stride in 1i64..4,
    ) {
        let (i, b) = (sym("xd_i"), sym("xd_bases"));
        let wf = Usr::leaf(LmadSet::single(Lmad::strided(
            SymExpr::elem(b, v(i)),
            k(stride),
            k(width),
        )));
        let oind = output_independence(i, &k(1), &v(sym("xd_len")), &wf);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("xd_len"), bases.len() as i64);
        ctx.set_array(b, 1, bases.clone());
        let (reference, got) = check(&oind, &ctx);
        prop_assert!(reference.is_some());
        // Per iteration: its step and runs, the prefix's step and
        // runs, one probe per run — linear, whatever the verdict.
        let per_iteration = 3 * width.max(1) as u64 + 2;
        prop_assert!(
            got.units <= per_iteration * bases.len() as u64,
            "{} units",
            got.units
        );
    }
}

/// `∪_{i=lo..hi}` with a gate on `i` so the constructor keeps the node.
fn total(i: Sym, lo: i64, hi: SymExpr, body: Usr) -> Usr {
    Usr::rec_total(i, k(lo), hi, Usr::gate(BoolExpr::gt0(v(i) + k(100)), body))
}

#[test]
fn nested_prefix_restarts_when_an_outer_variable_steps() {
    // solvh's nest: Upartial[kk=1..k-1](S(i, kk)) under U[k=1..IA(i)]
    // under U[i=1..N], S(i, kk) = [IB(i) + 4·kk, +2]. The prefix is
    // extended while k steps and must restart when i does.
    let (i, kv, kk) = (sym("xd_si"), sym("xd_sk"), sym("xd_skk"));
    // (Gated on the bound variable so no constructor aggregates it.)
    let section = |var: Sym| {
        let at = SymExpr::elem(sym("xd_IB"), v(i)) + v(var).scale(4);
        let leaf = Usr::leaf(LmadSet::single(Lmad::interval(at.clone(), at + k(2))));
        Usr::gate(BoolExpr::gt0(v(var)), leaf)
    };
    let prefix = Usr::rec_partial(kk, k(1), v(kv) - k(1), section(kk));
    assert!(matches!(prefix.node(), UsrNode::RecPartial { .. }));
    let per_k = Usr::intersect(section(kv), prefix);
    let nest = total(
        i,
        1,
        v(sym("xd_sn")),
        total(kv, 1, SymExpr::elem(sym("xd_IA"), v(i)), per_k),
    );
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("xd_sn"), 3);
    ctx.set_array(sym("xd_IA"), 1, vec![3, 2, 3]);
    // Sections of one `i` never meet: stride 4, width 3.
    ctx.set_array(sym("xd_IB"), 1, vec![0, 4, 100]);
    // A stale prefix would make i = 2's first section (8..10) collide
    // with i = 1's second (8..10): it must not.
    assert_eq!(check(&nest, &ctx).0, Some(true));
    // Width 5 overlaps the next section of the same `i`.
    let wide = |var: Sym| {
        let at = SymExpr::elem(sym("xd_IB"), v(i)) + v(var).scale(4);
        let leaf = Usr::leaf(LmadSet::single(Lmad::interval(at.clone(), at + k(4))));
        Usr::gate(BoolExpr::gt0(v(var)), leaf)
    };
    let prefix = Usr::rec_partial(kk, k(1), v(kv) - k(1), wide(kk));
    let colliding = total(
        i,
        1,
        v(sym("xd_sn")),
        total(
            kv,
            1,
            SymExpr::elem(sym("xd_IA"), v(i)),
            Usr::intersect(wide(kv), prefix),
        ),
    );
    assert_eq!(check(&colliding, &ctx).0, Some(false));
}

fn exact_of(u: &Usr, ctx: &MapCtx) -> Exact {
    exact::independent(u, ctx, BUDGET)
}

#[test]
fn a_prefix_is_reused_only_for_the_same_start_bindings_and_a_longer_range() {
    // ∪_i ({Z(i)} ∩ ∪_{k=L(i)..H(i)} {A(k)}): the kept union of one
    // evaluation is a superset of what the next one asks for whenever
    // the range shrank or started later, and would report collisions
    // that are not there.
    let (i, kv) = (sym("xd_pi"), sym("xd_pk"));
    let point = |arr: &str, var: Sym| {
        Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(
            sym(arr),
            v(var),
        ))))
    };
    let (lo, hi) = (
        SymExpr::elem(sym("xd_L"), v(i)),
        SymExpr::elem(sym("xd_H"), v(i)),
    );
    let prefix = Usr::rec_partial(kv, lo, hi, point("xd_A", kv));
    assert!(matches!(prefix.node(), UsrNode::RecPartial { .. }));
    let u = Usr::rec_total(i, k(1), k(3), Usr::intersect(point("xd_Z", i), prefix));
    let mut ctx = MapCtx::new();
    ctx.set_array(sym("xd_A"), 1, vec![10, 20, 30, 40]);
    // Growing from the same start: extended, no collision, then one.
    ctx.set_array(sym("xd_L"), 1, vec![1, 1, 1]);
    ctx.set_array(sym("xd_H"), 1, vec![1, 2, 4]);
    ctx.set_array(sym("xd_Z"), 1, vec![20, 30, 50]);
    assert_eq!(check(&u, &ctx).0, Some(true));
    ctx.set_array(sym("xd_Z"), 1, vec![20, 30, 40]);
    assert_eq!(check(&u, &ctx).0, Some(false));
    // Shrinking: i = 2 asks for k = 1..1; the union kept from i = 1
    // (k = 1..3) holds Z(2) = 20.
    ctx.set_array(sym("xd_H"), 1, vec![3, 1, 0]);
    ctx.set_array(sym("xd_Z"), 1, vec![99, 20, 10]);
    assert_eq!(check(&u, &ctx).0, Some(true));
    // Starting later: i = 2 asks for k = 3..4; the union kept from
    // i = 1 (k = 1..4) holds Z(2) = 20.
    ctx.set_array(sym("xd_L"), 1, vec![1, 3, 4]);
    ctx.set_array(sym("xd_H"), 1, vec![4, 4, 4]);
    ctx.set_array(sym("xd_Z"), 1, vec![99, 20, 30]);
    assert_eq!(check(&u, &ctx).0, Some(true));

    // Same range, other bindings: ∪_{k=1..2} {A(k) + W(i)} under i has
    // nothing to tell it apart but the body's free `i`.
    let shifted = |var: Sym| {
        let at = SymExpr::elem(sym("xd_A"), v(var)) + SymExpr::elem(sym("xd_W"), v(i));
        Usr::leaf(LmadSet::single(Lmad::point(at)))
    };
    let prefix = Usr::rec_partial(kv, k(1), k(2), shifted(kv));
    assert!(matches!(prefix.node(), UsrNode::RecPartial { .. }));
    let u = Usr::rec_total(i, k(1), k(2), Usr::intersect(point("xd_Z", i), prefix));
    ctx.set_array(sym("xd_W"), 1, vec![0, 100]);
    // i = 1 builds {10, 20}; i = 2 must see {110, 120}, not Z(2) = 20.
    ctx.set_array(sym("xd_Z"), 1, vec![99, 20]);
    assert_eq!(check(&u, &ctx).0, Some(true));
    ctx.set_array(sym("xd_Z"), 1, vec![99, 120]);
    assert_eq!(check(&u, &ctx).0, Some(false));
}

#[test]
fn gates_that_flip_between_iterations() {
    // ∪_i (odd(i) # {i}) ∩ ∪_{k<i} (B(k) > 0 # {k + 1}).
    let (i, kv) = (sym("xd_gi"), sym("xd_gk"));
    let odd = BoolExpr::ne(SymExpr::elem(sym("xd_par"), v(i)), k(0));
    let lhs = Usr::gate(odd, Usr::leaf(LmadSet::single(Lmad::point(v(i)))));
    let on = BoolExpr::gt0(SymExpr::elem(sym("xd_on"), v(kv)));
    let rhs = Usr::rec_partial(
        kv,
        k(1),
        v(i) - k(1),
        Usr::gate(on, Usr::leaf(LmadSet::single(Lmad::point(v(kv) + k(1))))),
    );
    let u = Usr::rec_total(i, k(1), k(5), Usr::intersect(lhs, rhs));
    let mut ctx = MapCtx::new();
    ctx.set_array(sym("xd_par"), 1, vec![1, 0, 1, 0, 1]);
    // k = 2 contributes 3, which odd i = 3 writes.
    ctx.set_array(sym("xd_on"), 1, vec![0, 1, 0, 0, 0]);
    assert_eq!(check(&u, &ctx).0, Some(false));
    // k = 1, 3 contribute 2 and 4, which no odd i writes.
    ctx.set_array(sym("xd_on"), 1, vec![1, 0, 1, 0, 0]);
    assert_eq!(check(&u, &ctx).0, Some(true));
}

#[test]
fn undefined_where_the_reference_is() {
    let ctx = MapCtx::new();
    let iv = |lo: i64, hi: i64| Usr::leaf(LmadSet::single(Lmad::interval(k(lo), k(hi))));
    let unbound = Usr::leaf(LmadSet::single(Lmad::point(v(sym("xd_nobody")))));
    let with_stride = |stride: i64| {
        let dim = Dim {
            stride: k(stride),
            span: k(3),
        };
        Usr::leaf(LmadSet::single(Lmad::from_dims(vec![dim], k(0))))
    };
    let (backwards, still) = (with_stride(-1), with_stride(0));
    for bad in [&unbound, &backwards, &still] {
        assert_eq!(eval_usr(bad, &ctx, LIMIT), None);
        assert_eq!(exact_of(bad, &ctx).verdict, None);
        // Behind an empty operand it is still evaluated, as the
        // reference does: no `Some(true)` past an undefined term.
        for u in [
            Usr::intersect(iv(5, 3), bad.clone()),
            Usr::subtract(iv(5, 3), bad.clone()),
            Usr::union(iv(5, 3), bad.clone()),
            Usr::intersect(bad.clone(), iv(0, 3)),
        ] {
            let (reference, got) = check(&u, &ctx);
            assert_eq!((reference, got.verdict), (None, None), "{u}");
        }
    }
    // A negative span is the empty set before a later dimension is
    // looked at — in both evaluators.
    let empty_first = Usr::leaf(LmadSet::single(Lmad::from_dims(
        vec![
            Dim {
                stride: k(1),
                span: k(-1),
            },
            Dim {
                stride: k(2),
                span: v(sym("xd_nobody")),
            },
        ],
        k(0),
    )));
    assert_eq!(check(&empty_first, &ctx).0, Some(true));
    // The documented asymmetry: a collision found first wins.
    let early = Usr::union(Usr::intersect(iv(0, 3), iv(2, 5)), unbound);
    assert_eq!(eval_usr(&early, &ctx, LIMIT), None);
    assert_eq!(exact_of(&early, &ctx).verdict, Some(false));
}

#[test]
fn runs_budget_and_early_exit() {
    let ctx = MapCtx::new();
    let iv = |lo: i64, hi: i64| Usr::leaf(LmadSet::single(Lmad::interval(k(lo), k(hi))));
    // Rule 3: a million-wide interval is one run (the reference gives
    // up on it at any sane element limit).
    let wide = Usr::intersect(iv(0, 1_000_000), iv(2_000_000, 3_000_000));
    assert_eq!(eval_usr(&wide, &ctx, 1_000), None);
    assert_eq!(
        exact::independent(&wide, &ctx, 10),
        Exact {
            verdict: Some(true),
            units: 2
        }
    );
    // A dimension no wider than the run folds into it: [1,16]v[15,48]
    // is the interval 0..=63.
    let folded = Usr::leaf(LmadSet::single(Lmad::from_dims(
        vec![
            Dim {
                stride: k(1),
                span: k(15),
            },
            Dim {
                stride: k(16),
                span: k(48),
            },
        ],
        k(0),
    )));
    let u = Usr::subtract(iv(0, 63), folded);
    assert_eq!(check(&u, &ctx).0, Some(true));
    assert_eq!(exact_of(&u, &ctx).units, 3);

    // Rule 4: the budget is in units; running out is `None`.
    let i = sym("xd_bi");
    let body = Usr::gate(
        BoolExpr::gt0(v(i)),
        Usr::intersect(
            Usr::leaf(LmadSet::single(Lmad::point(v(i)))),
            Usr::leaf(LmadSet::single(Lmad::point(v(i) + k(1_000)))),
        ),
    );
    let scan = Usr::rec_total(i, k(1), k(500), body);
    let full = exact_of(&scan, &ctx);
    assert_eq!(full.verdict, Some(true));
    assert_eq!(full.units, 1_500);
    let short = exact::independent(&scan, &ctx, 100);
    assert_eq!(short.verdict, None);
    assert!(short.units > 100 && short.units < 110);

    // Rule 2: a dependent input stops at its first collision.
    let b = sym("xd_eb");
    let wf = Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(b, v(i)))));
    let oind = output_independence(i, &k(1), &k(1_000), &wf);
    let mut ctx = MapCtx::new();
    ctx.set_array(b, 1, (1..=1_000).collect());
    let pass = exact_of(&oind, &ctx);
    assert_eq!(check(&oind, &ctx).0, Some(true));
    let mut colliding: Vec<i64> = (1..=1_000).collect();
    colliding[3] = 2;
    ctx.set_array(b, 1, colliding);
    let fail = exact_of(&oind, &ctx);
    assert_eq!(check(&oind, &ctx).0, Some(false));
    assert!(
        fail.units * 50 < pass.units,
        "{} units to the 4th iteration, {} for all 1000",
        fail.units,
        pass.units
    );
}
