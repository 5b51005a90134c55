//! The boolean leaf-predicate language.
//!
//! [`BoolExpr`] is the language of PDAG *leaves*: integer comparisons
//! against zero, divisibility constraints, and `∧`/`∨` combinations. The
//! language is *negation closed* — `¬` is computed structurally rather than
//! represented — which keeps simplification and complement detection
//! (`p ∧ ¬p → false`) purely syntactic.
//!
//! # Representation
//!
//! A comparison leaf holds one [`SymExpr`] — a shared, immutable slice
//! with a cached structural hash — so cloning, hashing and the pointer
//! test of `==` on a leaf cost the same whatever the size of the term.
//! `And` / `Or` hold their operands the same way, as a shared slice:
//! flattened (no `And` directly under `And`), sorted by the derived
//! order (variant order, then the term order of `crate::expr`),
//! deduplicated, constants folded away, never shorter than two. That
//! order is the one the owned `Vec` / `BTreeMap` form had; it decides
//! the child order of PDAG nodes and with it the stage order of every
//! cascade `lip_analysis`'s `cascade_golden.rs` pins. Negation is by
//! reference ([`BoolExpr::negated`]), and whether two predicates are
//! complements is decided term by term without building either
//! negation ([`BoolExpr::is_negation_of`]).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::eval::EvalCtx;
use crate::expr::SymExpr;
use crate::sym::{Binders, Sym};

/// Comparison operators for the convenience constructors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A boolean predicate over symbolic integer expressions.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BoolExpr {
    /// `true` / `false`.
    Const(bool),
    /// `e ≥ 0`.
    Ge0(SymExpr),
    /// `e > 0`.
    Gt0(SymExpr),
    /// `e == 0`.
    Eq0(SymExpr),
    /// `e != 0`.
    Ne0(SymExpr),
    /// `k | e` with `k > 0`.
    Divides(i64, SymExpr),
    /// `k ∤ e` with `k > 0`.
    NotDivides(i64, SymExpr),
    /// Conjunction (flattened, sorted, deduplicated).
    And(Arc<[BoolExpr]>),
    /// Disjunction (flattened, sorted, deduplicated).
    Or(Arc<[BoolExpr]>),
}

impl BoolExpr {
    /// The constant `true`.
    pub fn t() -> BoolExpr {
        BoolExpr::Const(true)
    }

    /// The constant `false`.
    pub fn f() -> BoolExpr {
        BoolExpr::Const(false)
    }

    /// `a OP b` via difference against zero.
    pub fn cmp(op: CmpOp, a: SymExpr, b: SymExpr) -> BoolExpr {
        match op {
            CmpOp::Le => BoolExpr::ge0(&b - &a),
            CmpOp::Lt => BoolExpr::gt0(&b - &a),
            CmpOp::Ge => BoolExpr::ge0(&a - &b),
            CmpOp::Gt => BoolExpr::gt0(&a - &b),
            CmpOp::Eq => BoolExpr::eq0(&b - &a),
            CmpOp::Ne => BoolExpr::ne0(&b - &a),
        }
    }

    /// `a ≤ b`.
    pub fn le(a: SymExpr, b: SymExpr) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Le, a, b)
    }

    /// `a < b`.
    pub fn lt(a: SymExpr, b: SymExpr) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Lt, a, b)
    }

    /// `a == b`.
    pub fn eq(a: SymExpr, b: SymExpr) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(a: SymExpr, b: SymExpr) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Ne, a, b)
    }

    /// `e ≥ 0` with constant folding and gcd normalization.
    pub fn ge0(e: SymExpr) -> BoolExpr {
        if let Some(c) = e.as_const() {
            return BoolExpr::Const(c >= 0);
        }
        BoolExpr::Ge0(normalize_ineq(e))
    }

    /// `e > 0` with constant folding and gcd normalization
    /// (`e > 0 ⇔ e - 1 ≥ 0` over the integers; we keep `Gt0` for clarity).
    pub fn gt0(e: SymExpr) -> BoolExpr {
        if let Some(c) = e.as_const() {
            return BoolExpr::Const(c > 0);
        }
        BoolExpr::Gt0(e)
    }

    /// `e == 0` with constant folding; the sign is canonicalized.
    pub fn eq0(e: SymExpr) -> BoolExpr {
        if let Some(c) = e.as_const() {
            return BoolExpr::Const(c == 0);
        }
        BoolExpr::Eq0(canonical_sign(e))
    }

    /// `e != 0` with constant folding; the sign is canonicalized.
    pub fn ne0(e: SymExpr) -> BoolExpr {
        if let Some(c) = e.as_const() {
            return BoolExpr::Const(c != 0);
        }
        BoolExpr::Ne0(canonical_sign(e))
    }

    /// `k | e` with constant folding (requires `k != 0`; sign of `k` is
    /// irrelevant and normalized to positive).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn divides(k: i64, e: SymExpr) -> BoolExpr {
        assert!(k != 0, "divisibility by zero");
        let k = k.abs();
        if k == 1 {
            return BoolExpr::Const(true);
        }
        if let Some(c) = e.as_const() {
            return BoolExpr::Const(c % k == 0);
        }
        // If k divides every non-constant coefficient, only the constant
        // term matters.
        let c = e.const_term();
        let noncst = &e - &SymExpr::konst(c);
        if noncst.coeff_gcd() % k == 0 {
            return BoolExpr::Const(c % k == 0);
        }
        BoolExpr::Divides(k, e)
    }

    /// `k ∤ e`; see [`BoolExpr::divides`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn not_divides(k: i64, e: SymExpr) -> BoolExpr {
        BoolExpr::divides(k, e).negated()
    }

    /// Flattening, constant-eliminating conjunction.
    pub fn and(parts: Vec<BoolExpr>) -> BoolExpr {
        BoolExpr::connective(parts, true)
    }

    /// Flattening, constant-eliminating disjunction.
    pub fn or(parts: Vec<BoolExpr>) -> BoolExpr {
        BoolExpr::connective(parts, false)
    }

    /// `∧` (`conj`) or `∨` of `parts`: the unit constant drops out, the
    /// zero constant wins, same-connective operands flatten, the rest is
    /// sorted and deduplicated, and `p` beside `¬p` is the zero constant.
    fn connective(parts: Vec<BoolExpr>, conj: bool) -> BoolExpr {
        if parts.contains(&BoolExpr::Const(!conj)) {
            return BoolExpr::Const(!conj);
        }
        let nested = |p: &BoolExpr| match p {
            BoolExpr::And(_) => conj,
            BoolExpr::Or(_) => !conj,
            _ => false,
        };
        // Nearly always there is nothing to flatten: `parts` is reused.
        let mut flat = parts;
        if flat.iter().any(nested) {
            flat = flat
                .iter()
                .flat_map(|p| match p {
                    BoolExpr::And(inner) | BoolExpr::Or(inner) if nested(p) => &inner[..],
                    _ => std::slice::from_ref(p),
                })
                .cloned()
                .collect();
        }
        flat.retain(|p| !matches!(p, BoolExpr::Const(_)));
        flat.sort_unstable();
        flat.dedup();
        if BoolExpr::any_complementary(flat.iter()) {
            return BoolExpr::Const(!conj);
        }
        match flat.len() {
            0 => BoolExpr::Const(conj),
            1 => flat.pop().expect("len checked"),
            _ if conj => BoolExpr::And(flat.into()),
            _ => BoolExpr::Or(flat.into()),
        }
    }

    /// Whether some predicate among `ps` is the negation of another.
    pub fn any_complementary<'a, I>(ps: I) -> bool
    where
        I: Iterator<Item = &'a BoolExpr> + Clone,
    {
        ps.clone().any(|p| match p {
            // A compound is negated once, not once per candidate.
            BoolExpr::And(_) | BoolExpr::Or(_) => {
                let n = p.negated();
                ps.clone().any(|q| *q == n)
            }
            _ => ps.clone().any(|q| q.is_negation_of(p)),
        })
    }

    /// Structural negation (the language is closed under `¬`).
    pub fn negated(&self) -> BoolExpr {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Ge0(e) => BoolExpr::gt0(-e),
            BoolExpr::Gt0(e) => BoolExpr::ge0(-e),
            BoolExpr::Eq0(e) => BoolExpr::ne0(e.clone()),
            BoolExpr::Ne0(e) => BoolExpr::eq0(e.clone()),
            BoolExpr::Divides(k, e) => BoolExpr::NotDivides(*k, e.clone()),
            BoolExpr::NotDivides(k, e) => BoolExpr::Divides(*k, e.clone()),
            BoolExpr::And(ps) => BoolExpr::or(ps.iter().map(BoolExpr::negated).collect()),
            BoolExpr::Or(ps) => BoolExpr::and(ps.iter().map(BoolExpr::negated).collect()),
        }
    }

    /// Whether `self == p.negated()`, without building the negation of a
    /// comparison: `¬(e ≥ 0)` is `−e > 0`, `¬(e > 0)` is `−e/g ≥ 0` for
    /// the coefficient gcd `g`, `¬(e = 0)` is `±e/g ≠ 0`, each a
    /// term-by-term test of two slices.
    pub fn is_negation_of(&self, p: &BoolExpr) -> bool {
        // A constant comparison folds when negated, to a `Const`.
        let symbolic = |e: &SymExpr| e.as_const().is_none();
        let lead_sign = |e: &SymExpr| e.terms().next().map_or(1, |(_, c)| c.signum());
        // g·n == k·e
        let equal =
            |n: &SymExpr, g: i64, e: &SymExpr, k: i64| n.combination_const(g, -k, e) == Some(0);
        match (p, self) {
            (BoolExpr::Const(a), BoolExpr::Const(b)) => a != b,
            (BoolExpr::Ge0(e), BoolExpr::Gt0(n)) => symbolic(e) && equal(n, 1, e, -1),
            (BoolExpr::Gt0(e), BoolExpr::Ge0(n)) => symbolic(e) && equal(n, e.coeff_gcd(), e, -1),
            (BoolExpr::Eq0(e), BoolExpr::Ne0(n)) | (BoolExpr::Ne0(e), BoolExpr::Eq0(n)) => {
                symbolic(e) && equal(n, e.coeff_gcd(), e, lead_sign(e))
            }
            (BoolExpr::Divides(k, e), BoolExpr::NotDivides(j, n))
            | (BoolExpr::NotDivides(k, e), BoolExpr::Divides(j, n)) => k == j && e == n,
            (BoolExpr::And(_) | BoolExpr::Or(_), _) => p.negated() == *self,
            _ => false,
        }
    }

    /// All symbols mentioned in the predicate.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_syms(&mut out);
        out
    }

    /// Adds every symbol mentioned in the predicate to `out`.
    pub fn collect_syms(&self, out: &mut BTreeSet<Sym>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Ge0(e)
            | BoolExpr::Gt0(e)
            | BoolExpr::Eq0(e)
            | BoolExpr::Ne0(e)
            | BoolExpr::Divides(_, e)
            | BoolExpr::NotDivides(_, e) => e.collect_syms(out),
            BoolExpr::And(ps) | BoolExpr::Or(ps) => {
                for p in ps.iter() {
                    p.collect_syms(out);
                }
            }
        }
    }

    /// The pool binders ([`Sym::binder`]) the predicate mentions.
    pub fn binders(&self) -> Binders {
        match self {
            BoolExpr::Const(_) => Binders::default(),
            BoolExpr::Ge0(e)
            | BoolExpr::Gt0(e)
            | BoolExpr::Eq0(e)
            | BoolExpr::Ne0(e)
            | BoolExpr::Divides(_, e)
            | BoolExpr::NotDivides(_, e) => e.binders(),
            BoolExpr::And(ps) | BoolExpr::Or(ps) => ps
                .iter()
                .fold(Binders::default(), |acc, p| acc | p.binders()),
        }
    }

    /// Whether `s` occurs anywhere in the predicate.
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self {
            BoolExpr::Const(_) => false,
            BoolExpr::Ge0(e)
            | BoolExpr::Gt0(e)
            | BoolExpr::Eq0(e)
            | BoolExpr::Ne0(e)
            | BoolExpr::Divides(_, e)
            | BoolExpr::NotDivides(_, e) => e.contains_sym(s),
            BoolExpr::And(ps) | BoolExpr::Or(ps) => ps.iter().any(|p| p.contains_sym(s)),
        }
    }

    /// Substitutes `with` for variable `s` throughout.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> BoolExpr {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Ge0(e) => BoolExpr::ge0(e.subst(s, with)),
            BoolExpr::Gt0(e) => BoolExpr::gt0(e.subst(s, with)),
            BoolExpr::Eq0(e) => BoolExpr::eq0(e.subst(s, with)),
            BoolExpr::Ne0(e) => BoolExpr::ne0(e.subst(s, with)),
            BoolExpr::Divides(k, e) => BoolExpr::divides(*k, e.subst(s, with)),
            BoolExpr::NotDivides(k, e) => BoolExpr::not_divides(*k, e.subst(s, with)),
            BoolExpr::And(ps) => BoolExpr::and(ps.iter().map(|p| p.subst(s, with)).collect()),
            BoolExpr::Or(ps) => BoolExpr::or(ps.iter().map(|p| p.subst(s, with)).collect()),
        }
    }

    /// Evaluates to a concrete truth value, or `None` if a symbol is
    /// unbound.
    pub fn eval(&self, ctx: &dyn EvalCtx) -> Option<bool> {
        match self {
            BoolExpr::Const(b) => Some(*b),
            BoolExpr::Ge0(e) => Some(e.eval(ctx)? >= 0),
            BoolExpr::Gt0(e) => Some(e.eval(ctx)? > 0),
            BoolExpr::Eq0(e) => Some(e.eval(ctx)? == 0),
            BoolExpr::Ne0(e) => Some(e.eval(ctx)? != 0),
            BoolExpr::Divides(k, e) => Some(e.eval(ctx)? % k == 0),
            BoolExpr::NotDivides(k, e) => Some(e.eval(ctx)? % k != 0),
            BoolExpr::And(ps) => {
                // Short-circuit but still report None if undecidable parts
                // remain and no false part was found.
                let mut unknown = false;
                for p in ps.iter() {
                    match p.eval(ctx) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => unknown = true,
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            BoolExpr::Or(ps) => {
                let mut unknown = false;
                for p in ps.iter() {
                    match p.eval(ctx) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
        }
    }

    /// Whether the predicate is the constant `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, BoolExpr::Const(true))
    }

    /// Whether the predicate is the constant `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, BoolExpr::Const(false))
    }
}

/// Normalizes `e ≥ 0` by dividing out the positive coefficient gcd:
/// `g*e' ≥ 0 ⇔ e' ≥ 0` for `g > 0`.
fn normalize_ineq(e: SymExpr) -> SymExpr {
    let g = e.coeff_gcd();
    if g > 1 {
        if let Some(d) = e.exact_div(g) {
            return d;
        }
    }
    e
}

/// Canonicalizes the sign for `==`/`!=` atoms: the leading coefficient is
/// made positive so `x - y == 0` and `y - x == 0` coincide.
fn canonical_sign(e: SymExpr) -> SymExpr {
    let lead = e.terms().next().map(|(_, c)| c).unwrap_or(1);
    let e = if lead < 0 { -e } else { e };
    let g = e.coeff_gcd();
    if g > 1 {
        if let Some(d) = e.exact_div(g) {
            return d;
        }
    }
    e
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Ge0(e) => write!(f, "{e} >= 0"),
            BoolExpr::Gt0(e) => write!(f, "{e} > 0"),
            BoolExpr::Eq0(e) => write!(f, "{e} == 0"),
            BoolExpr::Ne0(e) => write!(f, "{e} != 0"),
            BoolExpr::Divides(k, e) => write!(f, "{k} | ({e})"),
            BoolExpr::NotDivides(k, e) => write!(f, "{k} !| ({e})"),
            BoolExpr::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MapCtx;
    use crate::sym::sym;

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    #[test]
    fn constant_folding() {
        assert!(BoolExpr::le(SymExpr::konst(1), SymExpr::konst(2)).is_true());
        assert!(BoolExpr::lt(SymExpr::konst(2), SymExpr::konst(2)).is_false());
        assert!(BoolExpr::eq(v("x"), v("x")).is_true());
    }

    #[test]
    fn negation_round_trips() {
        let p = BoolExpr::le(v("a"), v("b"));
        assert_eq!(p.negated().negated(), p);
        let q = BoolExpr::and(vec![p.clone(), BoolExpr::ne(v("c"), SymExpr::konst(1))]);
        assert_eq!(q.negated().negated(), q);
    }

    #[test]
    fn and_detects_complement() {
        let p = BoolExpr::ne(v("SYM"), SymExpr::konst(1));
        let np = p.negated();
        assert!(BoolExpr::and(vec![p, np]).is_false());
    }

    #[test]
    fn or_detects_complement() {
        let p = BoolExpr::gt0(v("x"));
        let np = p.negated();
        assert!(BoolExpr::or(vec![p, np]).is_true());
    }

    #[test]
    fn flattening_dedupes() {
        let p = BoolExpr::le(v("a"), v("b"));
        let q = BoolExpr::and(vec![
            p.clone(),
            BoolExpr::and(vec![p.clone(), BoolExpr::t()]),
        ]);
        assert_eq!(q, p);
    }

    #[test]
    fn divisibility_simplification() {
        // 2 | (4x + 3) is false: 2 divides 4x, 2 does not divide 3.
        let e = v("x").scale(4) + SymExpr::konst(3);
        assert!(BoolExpr::divides(2, e).is_false());
        // 2 | (4x + 6) is true.
        let e = v("x").scale(4) + SymExpr::konst(6);
        assert!(BoolExpr::divides(2, e).is_true());
        // 1 | anything is true.
        assert!(BoolExpr::divides(1, v("y")).is_true());
        // 2 | (x + 1) stays symbolic.
        let e = v("x") + SymExpr::konst(1);
        assert!(matches!(BoolExpr::divides(2, e), BoolExpr::Divides(2, _)));
    }

    #[test]
    fn eq_sign_canonicalization() {
        assert_eq!(BoolExpr::eq(v("x"), v("y")), BoolExpr::eq(v("y"), v("x")));
    }

    #[test]
    fn inequality_gcd_normalization() {
        // 8*NP < NS + 6 and 16*NP < 2*NS + 12 normalize identically.
        let a = BoolExpr::lt(v("NP").scale(8), v("NS") + SymExpr::konst(6));
        let b = BoolExpr::lt(v("NP").scale(16), v("NS").scale(2) + SymExpr::konst(12));
        // Gt0 keeps raw form; compare through ge0 by negating twice.
        assert_eq!(a.negated(), b.negated());
    }

    #[test]
    fn eval_with_context() {
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("NS"), 48).set_scalar(sym("NP"), 3);
        // 16*NP >= NS  (48 >= 48).
        let p = BoolExpr::le(v("NS"), v("NP").scale(16));
        assert_eq!(p.eval(&ctx), Some(true));
        // Unknown symbol -> None.
        let q = BoolExpr::le(v("NS"), v("UNBOUND_XYZ"));
        assert_eq!(q.eval(&ctx), None);
        // Or short-circuits around the unknown.
        let r = BoolExpr::or(vec![q, p]);
        assert_eq!(r.eval(&ctx), Some(true));
    }
}
