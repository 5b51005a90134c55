//! Unit/property tests for USR reshaping (paper §3.4, Figure 8): the
//! rewrites must reorganize the DAG without ever changing the denoted
//! set, and the subtraction reassociation must actually produce the
//! `A − (B ∪ C)` shape predicate extraction wants.

use lip_usr::{eval_usr, reshape, Lmad, LmadSet, ReshapeConfig, Usr, UsrNode};

use lip_symbolic::{sym, BoolExpr, MapCtx, SymExpr};
use proptest::prelude::*;

fn k(c: i64) -> SymExpr {
    SymExpr::konst(c)
}

fn iv(lo: i64, hi: i64) -> Usr {
    Usr::leaf(LmadSet::single(Lmad::interval(k(lo), k(hi))))
}

/// Builds one of the three binary set operations by code.
fn bin(op: u8, a: Usr, b: Usr) -> Usr {
    match op % 3 {
        0 => Usr::union(a, b),
        1 => Usr::intersect(a, b),
        _ => Usr::subtract(a, b),
    }
}

#[test]
fn reassociation_produces_union_shape() {
    // (A − B) − C  →  A − (B ∪ C).
    let u = Usr::subtract(Usr::subtract(iv(0, 9), iv(2, 3)), iv(5, 6));
    let r = reshape(&u, ReshapeConfig::default());
    match r.node() {
        UsrNode::Subtract(a, bc) => {
            assert_eq!(a, &iv(0, 9));
            assert!(
                matches!(bc.node(), UsrNode::Leaf(_) | UsrNode::Union(..)),
                "subtrahend must be the (possibly leaf-merged) union B ∪ C, got {bc:?}"
            );
        }
        other => panic!("expected Subtract at the root, got {other:?}"),
    }
    let ctx = MapCtx::new();
    assert_eq!(
        eval_usr(&u, &ctx, 1_000).unwrap(),
        eval_usr(&r, &ctx, 1_000).unwrap()
    );
}

#[test]
fn disabled_config_is_identity() {
    let cfg = ReshapeConfig {
        reassociate_subtraction: false,
        umeg: false,
    };
    let u = Usr::subtract(Usr::subtract(iv(0, 9), iv(2, 3)), iv(5, 6));
    assert_eq!(reshape(&u, cfg), u);
}

#[test]
fn rec_total_enumerates_the_union() {
    // ∪_{i=1}^{3} {2i} = {2, 4, 6}.
    let i = sym("rt_i");
    let body = Usr::leaf(LmadSet::single(Lmad::interval(
        SymExpr::var(i).scale(2),
        SymExpr::var(i).scale(2),
    )));
    let u = Usr::rec_total(i, k(1), k(3), body);
    let ctx = MapCtx::new();
    let got = eval_usr(&u, &ctx, 1_000).unwrap();
    assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![2, 4, 6]);
}

#[test]
fn umeg_distribution_preserves_gated_semantics() {
    // X = g·A ∪ ¬g·B, Y = g·C ∪ ¬g·D: reshape may distribute X − Y
    // inside the gates; the denoted set must match for g true & false.
    let gsym = sym("um_g");
    let g = BoolExpr::gt0(SymExpr::var(gsym));
    let x = Usr::union(
        Usr::gate(g.clone(), iv(0, 9)),
        Usr::gate(g.negated(), iv(10, 19)),
    );
    let y = Usr::union(
        Usr::gate(g.clone(), iv(4, 9)),
        Usr::gate(g.negated(), iv(10, 14)),
    );
    let u = Usr::subtract(x, y);
    let r = reshape(&u, ReshapeConfig::default());
    for gv in [-1i64, 1] {
        let mut ctx = MapCtx::new();
        ctx.set_scalar(gsym, gv);
        assert_eq!(
            eval_usr(&u, &ctx, 1_000).unwrap(),
            eval_usr(&r, &ctx, 1_000).unwrap(),
            "mismatch for g = {gv}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Reshaping any small subtract/union/intersect tree preserves the
    /// denoted set exactly.
    #[test]
    fn reshape_roundtrips_random_trees(
        a_lo in 0i64..16, a_len in 0i64..10,
        b_lo in 0i64..16, b_len in 0i64..10,
        c_lo in 0i64..16, c_len in 0i64..10,
        d_lo in 0i64..16, d_len in 0i64..10,
        op1 in 0u8..3, op2 in 0u8..3, op3 in 0u8..3,
        shape in 0u8..2,
    ) {
        let (a, b) = (iv(a_lo, a_lo + a_len), iv(b_lo, b_lo + b_len));
        let (c, d) = (iv(c_lo, c_lo + c_len), iv(d_lo, d_lo + d_len));
        // Two tree shapes: ((A·B)·C)·D and (A·B)·(C·D).
        let u = if shape == 0 {
            bin(op3, bin(op2, bin(op1, a, b), c), d)
        } else {
            bin(op3, bin(op1, a, b), bin(op2, c, d))
        };
        let r = reshape(&u, ReshapeConfig::default());
        let ctx = MapCtx::new();
        let before = eval_usr(&u, &ctx, 10_000).unwrap();
        let after = eval_usr(&r, &ctx, 10_000).unwrap();
        prop_assert_eq!(before, after);
    }

    /// Gated random trees: reshaping must stay exact whatever the gate
    /// values turn out to be at runtime.
    #[test]
    fn reshape_roundtrips_gated_trees(
        a_lo in 0i64..12, a_len in 0i64..8,
        b_lo in 0i64..12, b_len in 0i64..8,
        c_lo in 0i64..12, c_len in 0i64..8,
        op1 in 0u8..3, op2 in 0u8..3,
        g1 in -1i64..2, g2 in -1i64..2,
    ) {
        let (s1, s2) = (sym("rg_g1"), sym("rg_g2"));
        let p1 = BoolExpr::gt0(SymExpr::var(s1));
        let p2 = BoolExpr::gt0(SymExpr::var(s2));
        let u = bin(
            op2,
            Usr::gate(p1, bin(op1, iv(a_lo, a_lo + a_len), iv(b_lo, b_lo + b_len))),
            Usr::gate(p2, iv(c_lo, c_lo + c_len)),
        );
        let r = reshape(&u, ReshapeConfig::default());
        let mut ctx = MapCtx::new();
        ctx.set_scalar(s1, g1).set_scalar(s2, g2);
        let before = eval_usr(&u, &ctx, 10_000).unwrap();
        let after = eval_usr(&r, &ctx, 10_000).unwrap();
        prop_assert_eq!(before, after, "gates g1={}, g2={}", g1, g2);
    }
}
