//! Disjointness and inclusion predicates over LMADs (paper §3.2).
//!
//! All functions return a [`BoolExpr`] that is a *sufficient* condition
//! for the stated set relation; `false` means "cannot prove with these
//! rules", never "provably related".

use lip_symbolic::{BoolExpr, SymExpr};

use crate::project::disjoint_multidim;
use crate::{Lmad, LmadSet};

/// Sufficient predicate for `a ∩ b = ∅` between two arbitrary LMADs.
///
/// 1-D pairs use [`disjoint_1d`]; higher-dimensional pairs go through
/// flattening and the unify/project heuristic of Figure 6(a).
pub fn disjoint_lmad(a: &Lmad, b: &Lmad) -> BoolExpr {
    if a.ndims() <= 1 && b.ndims() <= 1 {
        disjoint_1d(a, b)
    } else {
        disjoint_multidim(a, b)
    }
}

/// Sufficient predicate for two 1-D (or point) LMADs to be disjoint:
/// either the *interleaved-access* scenario — the stride gcd does not
/// divide the offset difference — or the *disjoint-intervals* scenario.
/// Emptiness of either side also suffices.
pub fn disjoint_1d(a: &Lmad, b: &Lmad) -> BoolExpr {
    let (alo, ahi) = a.hull();
    let (blo, bhi) = b.hull();
    // Disjoint intervals: a starts after b ends, or b starts after a ends.
    let intervals = BoolExpr::or(vec![
        BoolExpr::lt(ahi.clone(), blo.clone()),
        BoolExpr::lt(bhi.clone(), alo.clone()),
    ]);
    // Interleaved accesses: gcd(δa, δb) does not divide τa − τb. Only
    // expressible when both strides are integer constants (a point acts
    // as stride 0, making gcd the other stride).
    let interleaved = match (const_stride(a), const_stride(b)) {
        (Some(sa), Some(sb)) => {
            let g = lip_symbolic::expr::gcd(sa, sb);
            if g > 1 {
                BoolExpr::not_divides(g, &alo - &blo)
            } else {
                BoolExpr::f()
            }
        }
        _ => BoolExpr::f(),
    };
    BoolExpr::or(vec![a.empty_pred(), b.empty_pred(), intervals, interleaved])
}

/// Sufficient predicate for 1-D LMAD `a ⊆ b`:
///
/// ```text
/// (δb | δa) ∧ (δb | τa−τb) ∧ (τa ≥ τb) ∧ (τa+σa ≤ τb+σb)
/// ```
///
/// Emptiness of `a` also suffices. Points and symbolically equal strides
/// are handled without constant divisibility.
pub fn included_1d(a: &Lmad, b: &Lmad) -> BoolExpr {
    let (alo, ahi) = a.hull();
    let (blo, bhi) = b.hull();
    let bounds = BoolExpr::and(vec![
        BoolExpr::le(blo.clone(), alo.clone()),
        BoolExpr::le(ahi.clone(), bhi.clone()),
    ]);
    let stride_fit = stride_divides(b, a, &alo, &blo);
    BoolExpr::or(vec![
        a.empty_pred(),
        BoolExpr::and(vec![stride_fit, bounds]),
    ])
}

/// Predicate for "`b`'s stride divides `a`'s stride and their offset
/// difference" — the alignment half of 1-D inclusion.
fn stride_divides(b: &Lmad, a: &Lmad, alo: &SymExpr, blo: &SymExpr) -> BoolExpr {
    let sb = match b.dims().first() {
        None => {
            // b is a point: inclusion needs a to be the same point;
            // the bounds check pins the hulls, but a strided a with
            // several elements cannot fit. Require a to be a point too.
            return if a.is_point() {
                BoolExpr::t()
            } else {
                BoolExpr::f()
            };
        }
        Some(d) => &d.stride,
    };
    if sb.as_const() == Some(1) {
        // Unit stride in b: b is an interval, alignment is automatic.
        return BoolExpr::t();
    }
    let sa = a
        .dims()
        .first()
        .map(|d| d.stride.clone())
        .unwrap_or_else(SymExpr::zero);
    if let Some(kb) = sb.as_const() {
        return BoolExpr::and(vec![
            BoolExpr::divides(kb, sa),
            BoolExpr::divides(kb, alo - blo),
        ]);
    }
    // Symbolic stride: provable only when strides are syntactically equal
    // and the offset difference is a multiple of the stride or zero.
    if sa == *sb {
        let diff = alo - blo;
        if diff.is_zero() {
            return BoolExpr::t();
        }
        if let Some((q, r)) = divide_by(&diff, sb) {
            if r.is_zero() {
                // diff = q·sb exactly; inclusion holds for any integer q,
                // the bounds check constrains the range.
                let _ = q;
                return BoolExpr::t();
            }
        }
    }
    BoolExpr::f()
}

/// Syntactic polynomial division of `e` by a single-term divisor `d`:
/// returns `(q, r)` with `e = q·d + r` when every term of `e` containing
/// all of `d`'s atoms divides exactly; `r` collects the remainder terms.
fn divide_by(e: &SymExpr, d: &SymExpr) -> Option<(SymExpr, SymExpr)> {
    // Only handle single-monomial divisors (e.g. `M`, `32`, `2*M`).
    let mut terms = d.terms();
    let (dm, dc) = terms.next()?;
    if terms.next().is_some() {
        return None;
    }
    let mut q = SymExpr::zero();
    let mut r = SymExpr::zero();
    for (m, c) in e.terms() {
        match m.div(dm) {
            Some(rest) if c % dc == 0 => q = &q + &SymExpr::term(rest, c / dc),
            _ => r = &r + &SymExpr::term(m.clone(), c),
        }
    }
    Some((q, r))
}

fn const_stride(l: &Lmad) -> Option<i64> {
    match l.dims() {
        [] => Some(0),
        [d] => d.stride.as_const(),
        _ => None,
    }
}

/// Sufficient predicate for set-level disjointness: every LMAD of `s1`
/// disjoint from every LMAD of `s2` (paper footnote 2).
pub fn disjoint_lmads(s1: &LmadSet, s2: &LmadSet) -> BoolExpr {
    let mut parts = Vec::new();
    for a in s1.lmads() {
        for b in s2.lmads() {
            parts.push(disjoint_lmad(a, b));
        }
    }
    BoolExpr::and(parts)
}

/// Sufficient predicate for set-level inclusion: every LMAD of `s1`
/// included in at least one LMAD of `s2`.
pub fn included_lmads(s1: &LmadSet, s2: &LmadSet) -> BoolExpr {
    let mut parts = Vec::new();
    for a in s1.lmads() {
        let alts: Vec<BoolExpr> = s2.lmads().iter().map(|b| included_lmad(a, b)).collect();
        parts.push(BoolExpr::or(alts));
    }
    BoolExpr::and(parts)
}

/// Sufficient predicate for `a ⊆ b` between arbitrary LMADs.
pub fn included_lmad(a: &Lmad, b: &Lmad) -> BoolExpr {
    if a == b {
        return BoolExpr::t();
    }
    if a.ndims() <= 1 && b.ndims() <= 1 {
        return included_1d(a, b);
    }
    // General case: overestimate a by its hull interval and require b to
    // be provably contiguous, reducing to interval inclusion.
    let (alo, ahi) = a.hull();
    let (blo, bhi) = b.hull();
    BoolExpr::or(vec![
        a.empty_pred(),
        BoolExpr::and(vec![
            b.contiguity_pred(),
            BoolExpr::le(blo, alo),
            BoolExpr::le(ahi, bhi),
        ]),
    ])
}

/// `FILLS_ARR` (rule (5) of Figure 5): a predicate under which LMAD `l`
/// covers the whole declared array `[base, base+size−1]`; any summary of
/// that array is then included in `l`.
pub fn fills_array(l: &Lmad, base: &SymExpr, size: &SymExpr) -> BoolExpr {
    let (lo, hi) = l.hull();
    BoolExpr::and(vec![
        l.contiguity_pred(),
        BoolExpr::le(lo, base.clone()),
        BoolExpr::le(base + size - SymExpr::konst(1), hi),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, MapCtx, RangeEnv};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn interleaved_even_odd_disjoint() {
        // {0,2,..,98} vs {1,3,..,99}: gcd 2 does not divide 1.
        let a = Lmad::strided(k(0), k(2), k(50));
        let b = Lmad::strided(k(1), k(2), k(50));
        let p = disjoint_1d(&a, &b);
        assert_eq!(p.eval(&MapCtx::new()), Some(true));
    }

    #[test]
    fn split_intervals_disjoint() {
        let a = Lmad::strided(k(0), k(2), k(25)); // [0..48]
        let b = Lmad::strided(k(50), k(2), k(25)); // [50..98]
        let p = disjoint_1d(&a, &b);
        assert_eq!(p.eval(&MapCtx::new()), Some(true));
    }

    #[test]
    fn overlapping_same_parity_not_provable() {
        let a = Lmad::strided(k(0), k(2), k(50));
        let b = Lmad::strided(k(2), k(2), k(50));
        let p = disjoint_1d(&a, &b);
        assert_eq!(p.eval(&MapCtx::new()), Some(false));
    }

    #[test]
    fn symbolic_interval_disjointness() {
        // [1, NS] vs [NS+1, 16*NP]: first ends before second starts.
        let a = Lmad::interval(k(1), v("NS"));
        let b = Lmad::interval(v("NS") + k(1), v("NP").scale(16));
        let p = disjoint_1d(&a, &b);
        let env = RangeEnv::new();
        // NS < NS+1 is a constant-difference fact: decidable.
        assert_eq!(env.decide(&p), Some(true));
    }

    #[test]
    fn inclusion_of_intervals() {
        // [0, NS-1] ⊆ [0, 16*NP-1] ⇐ NS ≤ 16*NP (the paper's Fig. 4 leaf).
        let a = Lmad::interval(k(0), v("NS") - k(1));
        let b = Lmad::interval(k(0), v("NP").scale(16) - k(1));
        let p = included_1d(&a, &b);
        // The predicate must hold exactly when NS <= 16*NP (for NS >= 1).
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("NS"), 16).set_scalar(sym("NP"), 1);
        assert_eq!(p.eval(&ctx), Some(true));
        ctx.set_scalar(sym("NS"), 17);
        assert_eq!(p.eval(&ctx), Some(false));
        // Empty a (NS = 0) is included in anything.
        ctx.set_scalar(sym("NS"), 0);
        assert_eq!(p.eval(&ctx), Some(true));
    }

    #[test]
    fn strided_inclusion_alignment() {
        // {0,4,8} ⊆ {0,2,..,10} (stride 2 divides 4 and offset diff 0).
        let a = Lmad::strided(k(0), k(4), k(3));
        let b = Lmad::strided(k(0), k(2), k(6));
        assert_eq!(included_1d(&a, &b).eval(&MapCtx::new()), Some(true));
        // {1,5,9} ⊄ {0,2,..,10} (offset diff 1 not divisible by 2).
        let c = Lmad::strided(k(1), k(4), k(3));
        assert_eq!(included_1d(&c, &b).eval(&MapCtx::new()), Some(false));
    }

    #[test]
    fn symbolic_equal_strides_inclusion() {
        // [M]v[M*(n-1)]+0 ⊆ [M]v[M*(n+1)]+0 — same stride M, same base.
        let a = Lmad::strided(k(0), v("M"), v("n"));
        let b = Lmad::strided(k(0), v("M"), v("n") + k(2));
        let p = included_1d(&a, &b);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("M"), 7).set_scalar(sym("n"), 5);
        assert_eq!(p.eval(&ctx), Some(true));
    }

    #[test]
    fn point_inclusion() {
        let a = Lmad::point(v("x"));
        let b = Lmad::point(v("x"));
        assert!(included_lmad(&a, &b).is_true());
        let c = Lmad::interval(k(0), v("n"));
        let p = included_1d(&a, &c);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("x"), 3).set_scalar(sym("n"), 5);
        assert_eq!(p.eval(&ctx), Some(true));
        ctx.set_scalar(sym("x"), 9);
        assert_eq!(p.eval(&ctx), Some(false));
    }

    #[test]
    fn fills_array_interval() {
        // [1, N] fills an array declared [1, N].
        let l = Lmad::interval(k(1), v("N"));
        let p = fills_array(&l, &k(1), &v("N"));
        let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("N") - k(1)));
        assert_eq!(env.decide(&p), Some(true));
    }

    #[test]
    fn set_level_inclusion_picks_alternative() {
        let s1 = LmadSet::single(Lmad::interval(k(5), k(9)));
        let s2 = LmadSet::from_vec(vec![
            Lmad::interval(k(0), k(3)),
            Lmad::interval(k(4), k(10)),
        ]);
        assert_eq!(included_lmads(&s1, &s2).eval(&MapCtx::new()), Some(true));
    }

    #[test]
    fn divide_by_handles_symbolic_multiples() {
        let e = v("M").scale(6) + v("j");
        let (q, r) = divide_by(&e, &v("M").scale(2)).expect("divides");
        assert_eq!(q, k(3));
        assert_eq!(r, v("j"));
    }
}
