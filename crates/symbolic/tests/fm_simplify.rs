//! Unit/property tests for the hot symbolic-layer logic the workspace
//! integration suites only skim: Fourier–Motzkin elimination on random
//! conjuncts ([`lip_symbolic::reduce_gt0`]), [`SymExpr`] canonical-form
//! algebra, and the [`BoolExpr`] smart constructors.

use lip_symbolic::{reduce_gt0, sym, BoolExpr, MapCtx, RangeEnv, ScopedCtx, SymExpr};
use proptest::prelude::*;

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

#[test]
fn reduce_gt0_decides_constants() {
    let env = RangeEnv::new();
    assert_eq!(reduce_gt0(&k(3), &env), BoolExpr::Const(true));
    assert_eq!(reduce_gt0(&k(0), &env), BoolExpr::Const(false));
    assert_eq!(reduce_gt0(&k(-1), &env), BoolExpr::Const(false));
}

#[test]
fn reduce_gt0_leaves_unbounded_syms_alone() {
    // No range for M: the raw comparison must come back untouched (still
    // a correct sufficient condition).
    let m = sym("fmu_M");
    let env = RangeEnv::new();
    let reduced = reduce_gt0(&SymExpr::var(m), &env);
    assert!(reduced.contains_sym(m));
    let mut ctx = MapCtx::new();
    ctx.set_scalar(m, 7);
    assert_eq!(reduced.eval(&ctx), Some(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Eliminating two bounded symbols stays sufficient: whenever the
    /// reduced predicate holds, the original holds for *every* point of
    /// the i×j box.
    #[test]
    fn fm_eliminates_two_syms_soundly(
        a in -4i64..5,
        b in -4i64..5,
        c in -3i64..4,
        d in -25i64..25,
        mv in -8i64..8,
        n in 1i64..8,
        m in 1i64..8,
    ) {
        let (i, j, big_m) = (sym("fm2_i"), sym("fm2_j"), sym("fm2_M"));
        let expr = SymExpr::var(i).scale(a)
            + SymExpr::var(j).scale(b)
            + SymExpr::var(big_m).scale(c)
            + k(d);
        let env = RangeEnv::new()
            .with_range(i, k(1), SymExpr::var(sym("fm2_n")))
            .with_range(j, k(1), SymExpr::var(sym("fm2_m")));
        let reduced = reduce_gt0(&expr, &env);
        prop_assert!(!reduced.contains_sym(i), "i not eliminated: {reduced}");
        prop_assert!(!reduced.contains_sym(j), "j not eliminated: {reduced}");

        let mut ctx = MapCtx::new();
        ctx.set_scalar(big_m, mv)
            .set_scalar(sym("fm2_n"), n)
            .set_scalar(sym("fm2_m"), m);
        if reduced.eval(&ctx) == Some(true) {
            for iv in 1..=n {
                for jv in 1..=m {
                    let v = a * iv + b * jv + c * mv + d;
                    prop_assert!(v > 0, "claimed >0 everywhere but ({iv},{jv}) gives {v}");
                }
            }
        }
    }

    /// A conjunction of independently reduced conjuncts is sufficient
    /// for the conjunction of the originals.
    #[test]
    fn fm_sound_on_random_conjuncts(
        a1 in -4i64..5, c1 in -20i64..20,
        a2 in -4i64..5, c2 in -20i64..20,
        n in 1i64..10,
    ) {
        let i = sym("fmc_i");
        let e1 = SymExpr::var(i).scale(a1) + k(c1);
        let e2 = SymExpr::var(i).scale(a2) + k(c2);
        let env = RangeEnv::new().with_range(i, k(1), SymExpr::var(sym("fmc_n")));
        let conj = BoolExpr::and(vec![reduce_gt0(&e1, &env), reduce_gt0(&e2, &env)]);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("fmc_n"), n);
        if conj.eval(&ctx) == Some(true) {
            for iv in 1..=n {
                prop_assert!(a1 * iv + c1 > 0, "first conjunct fails at i={iv}");
                prop_assert!(a2 * iv + c2 > 0, "second conjunct fails at i={iv}");
            }
        }
    }

    /// Canonical polynomial arithmetic: `(x+y)·(x−y) = x² − y²` holds
    /// structurally, not just under evaluation.
    #[test]
    fn symexpr_canonical_difference_of_squares(xv in -50i64..50, yv in -50i64..50) {
        let (x, y) = (sym("sx_x"), sym("sx_y"));
        let (ex, ey) = (SymExpr::var(x), SymExpr::var(y));
        let lhs = &(&ex + &ey) * &(&ex - &ey);
        let rhs = &(&ex * &ex) - &(&ey * &ey);
        prop_assert_eq!(&lhs, &rhs);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(x, xv).set_scalar(y, yv);
        prop_assert_eq!(lhs.eval(&ctx), Some(xv * xv - yv * yv));
    }

    /// Substitution commutes with evaluation: `e[s := w]` evaluated in
    /// `ctx` equals `e` evaluated with `s` scoped to `w`'s value.
    #[test]
    fn symexpr_subst_commutes_with_eval(
        a in -5i64..6, b in -5i64..6, c in -9i64..10, wv in -7i64..8,
    ) {
        let (s, t) = (sym("ss_s"), sym("ss_t"));
        let e = SymExpr::var(s).scale(a) + (&SymExpr::var(s) * &SymExpr::var(t)).scale(b) + k(c);
        let w = k(wv);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(t, 3);
        let substituted = e.subst(s, &w).eval(&ctx);
        let scoped = e.eval(&ScopedCtx::new(&ctx, s, wv));
        prop_assert_eq!(substituted, scoped);
    }

    /// `scale(k)` then `exact_div(k)` round-trips for non-zero k.
    #[test]
    fn symexpr_exact_div_roundtrip(a in -6i64..7, b in -6i64..7, kk in 1i64..9) {
        let e = SymExpr::var(sym("ed_x")).scale(a) + k(b);
        prop_assert_eq!(e.scale(kk).exact_div(kk), Some(e));
    }

    /// Structural negation complements evaluation, and double negation
    /// is the identity semantically (structurally the comparisons may
    /// re-normalize, e.g. `2−4x > 0` to `1−2x > 0`).
    #[test]
    fn boolexpr_negate_is_involutive_complement(
        a in -4i64..5, b in -9i64..10, v in -6i64..7, divisor in 1i64..5,
    ) {
        let x = sym("bn_x");
        let e = SymExpr::var(x).scale(a) + k(b);
        let p = BoolExpr::or(vec![
            BoolExpr::gt0(e.clone()),
            BoolExpr::divides(divisor, e.clone()),
        ]);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(x, v);
        let pv = p.eval(&ctx);
        prop_assert_eq!(pv.map(|t| !t), p.negated().eval(&ctx),
            "negate must complement: {}", p);
        prop_assert_eq!(pv, p.negated().negated().eval(&ctx),
            "double negation must be the semantic identity: {}", p);
    }
}

#[test]
fn boolexpr_and_or_flatten_and_short_circuit() {
    let p = BoolExpr::gt0(SymExpr::var(sym("bf_x")));
    assert_eq!(
        BoolExpr::and(vec![BoolExpr::t(), p.clone()]),
        p,
        "true is the unit of ∧"
    );
    assert_eq!(
        BoolExpr::and(vec![BoolExpr::f(), p.clone()]),
        BoolExpr::f(),
        "false annihilates ∧"
    );
    assert_eq!(BoolExpr::or(vec![BoolExpr::f(), p.clone()]), p);
    assert_eq!(BoolExpr::or(vec![BoolExpr::t(), p.clone()]), BoolExpr::t());
    // p ∧ ¬p is recognized as false, p ∨ ¬p as true.
    assert_eq!(BoolExpr::and(vec![p.clone(), p.negated()]), BoolExpr::f());
    assert_eq!(BoolExpr::or(vec![p.clone(), p.negated()]), BoolExpr::t());
}
