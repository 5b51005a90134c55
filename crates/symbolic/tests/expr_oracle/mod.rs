//! The owned `BTreeMap` algebra `lip_symbolic::SymExpr` was until PR 22,
//! kept verbatim as the oracle of `expr_differential.rs`: the shared-slice
//! representation must produce the same canonical forms, the same order
//! and the same text. Only the imports differ from the original (it
//! shares `Sym` and `EvalCtx` with the crate under test, so symbol order
//! and evaluation contexts are the same on both sides) and its unit
//! tests stayed with `src/expr.rs`.
//!
//! A [`SymExpr`] is a multivariate polynomial with `i64` coefficients over
//! [`Atom`]s. Atoms are either plain variables, array elements with a
//! symbolic subscript (`IB(i+1)`), or `min`/`max` of two expressions. The
//! representation is canonical: equal expressions compare equal
//! structurally, which the USR/PDAG layers rely on for simplification.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use lip_symbolic::{EvalCtx, Sym};

/// An indivisible symbolic term.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A scalar program variable.
    Var(Sym),
    /// An array element `A(e)` with a symbolic subscript.
    Elem(Sym, Box<SymExpr>),
    /// `min(a, b)`.
    Min(Box<SymExpr>, Box<SymExpr>),
    /// `max(a, b)`.
    Max(Box<SymExpr>, Box<SymExpr>),
}

impl Atom {
    /// All symbols mentioned anywhere in the atom (including subscripts).
    pub fn syms(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Atom::Var(s) => {
                out.insert(*s);
            }
            Atom::Elem(a, e) => {
                out.insert(*a);
                e.collect_syms(out);
            }
            Atom::Min(a, b) | Atom::Max(a, b) => {
                a.collect_syms(out);
                b.collect_syms(out);
            }
        }
    }

    fn contains(&self, s: Sym) -> bool {
        match self {
            Atom::Var(v) => *v == s,
            Atom::Elem(a, e) => *a == s || e.contains_sym(s),
            Atom::Min(a, b) | Atom::Max(a, b) => a.contains_sym(s) || b.contains_sym(s),
        }
    }

    fn eval(&self, ctx: &dyn EvalCtx) -> Option<i64> {
        match self {
            Atom::Var(s) => ctx.scalar(*s),
            Atom::Elem(a, e) => {
                let idx = e.eval(ctx)?;
                ctx.elem(*a, idx)
            }
            Atom::Min(a, b) => Some(a.eval(ctx)?.min(b.eval(ctx)?)),
            Atom::Max(a, b) => Some(a.eval(ctx)?.max(b.eval(ctx)?)),
        }
    }

    fn subst(&self, s: Sym, with: &SymExpr) -> SymExpr {
        match self {
            Atom::Var(v) => {
                if *v == s {
                    with.clone()
                } else {
                    SymExpr::atom(self.clone())
                }
            }
            Atom::Elem(a, e) => SymExpr::atom(Atom::Elem(*a, Box::new(e.subst(s, with)))),
            Atom::Min(a, b) => SymExpr::min(a.subst(s, with), b.subst(s, with)),
            Atom::Max(a, b) => SymExpr::max(a.subst(s, with), b.subst(s, with)),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Var(s) => write!(f, "{s}"),
            Atom::Elem(a, e) => write!(f, "{a}({e})"),
            Atom::Min(a, b) => write!(f, "min({a}, {b})"),
            Atom::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

/// A product of atom powers; the empty monomial is the constant `1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Monomial(pub Vec<(Atom, u32)>);

impl Monomial {
    /// The constant monomial `1`.
    pub fn one() -> Monomial {
        Monomial(Vec::new())
    }

    /// Whether this is the constant monomial.
    pub fn is_one(&self) -> bool {
        self.0.is_empty()
    }

    fn mul(&self, other: &Monomial) -> Monomial {
        let mut powers: BTreeMap<Atom, u32> = BTreeMap::new();
        for (a, p) in self.0.iter().chain(other.0.iter()) {
            *powers.entry(a.clone()).or_insert(0) += p;
        }
        Monomial(powers.into_iter().collect())
    }

    fn contains(&self, s: Sym) -> bool {
        self.0.iter().any(|(a, _)| a.contains(s))
    }

    /// Total degree contributed by atom `Var(s)` (composite atoms containing
    /// `s` are reported via [`Monomial::mentions_inside_composite`]).
    fn degree_of_var(&self, s: Sym) -> u32 {
        self.0
            .iter()
            .filter(|(a, _)| matches!(a, Atom::Var(v) if *v == s))
            .map(|(_, p)| *p)
            .sum()
    }

    fn mentions_inside_composite(&self, s: Sym) -> bool {
        self.0.iter().any(|(a, _)| match a {
            Atom::Var(_) => false,
            _ => a.contains(s),
        })
    }

    fn eval(&self, ctx: &dyn EvalCtx) -> Option<i64> {
        let mut acc: i64 = 1;
        for (a, p) in &self.0 {
            let v = a.eval(ctx)?;
            for _ in 0..*p {
                acc = acc.checked_mul(v)?;
            }
        }
        Some(acc)
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (a, p) in &self.0 {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if *p == 1 {
                write!(f, "{a}")?;
            } else {
                write!(f, "{a}^{p}")?;
            }
        }
        Ok(())
    }
}

/// A canonical symbolic integer expression (polynomial over [`Atom`]s).
///
/// # Example
///
/// ```
/// use lip_symbolic::{sym, SymExpr};
/// let n = SymExpr::var(sym("N"));
/// let e = (n.clone() + SymExpr::konst(1)) * n.clone() - n.clone();
/// assert_eq!(e, n.clone() * n); // (N+1)*N - N == N^2
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SymExpr {
    /// Non-zero coefficients keyed by monomial.
    terms: BTreeMap<Monomial, i64>,
}

impl SymExpr {
    /// The zero expression.
    pub fn zero() -> SymExpr {
        SymExpr::default()
    }

    /// The constant expression `c`.
    pub fn konst(c: i64) -> SymExpr {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(Monomial::one(), c);
        }
        SymExpr { terms }
    }

    /// The variable expression `s`.
    pub fn var(s: Sym) -> SymExpr {
        SymExpr::atom(Atom::Var(s))
    }

    /// The array-element expression `arr(idx)`.
    pub fn elem(arr: Sym, idx: SymExpr) -> SymExpr {
        SymExpr::atom(Atom::Elem(arr, Box::new(idx)))
    }

    /// `min(a, b)`, folded when either side is constant-equal or both const.
    pub fn min(a: SymExpr, b: SymExpr) -> SymExpr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => SymExpr::konst(x.min(y)),
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                SymExpr::atom(Atom::Min(Box::new(a), Box::new(b)))
            }
        }
    }

    /// `max(a, b)`, folded when both sides are constants.
    pub fn max(a: SymExpr, b: SymExpr) -> SymExpr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => SymExpr::konst(x.max(y)),
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                SymExpr::atom(Atom::Max(Box::new(a), Box::new(b)))
            }
        }
    }

    /// Wraps a single atom as an expression.
    pub fn atom(a: Atom) -> SymExpr {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial(vec![(a, 1)]), 1);
        SymExpr { terms }
    }

    /// Whether the expression is literally zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        match self.terms.len() {
            0 => Some(0),
            1 => {
                let (m, c) = self.terms.iter().next().expect("len checked");
                m.is_one().then_some(*c)
            }
            _ => None,
        }
    }

    /// Returns `Some(s)` when the expression is exactly the variable `s`.
    pub fn as_var(&self) -> Option<Sym> {
        if self.terms.len() != 1 {
            return None;
        }
        let (m, c) = self.terms.iter().next().expect("len checked");
        if *c != 1 || m.0.len() != 1 {
            return None;
        }
        match &m.0[0] {
            (Atom::Var(s), 1) => Some(*s),
            _ => None,
        }
    }

    /// Iterates over `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, i64)> {
        self.terms.iter().map(|(m, c)| (m, *c))
    }

    /// The coefficient of the constant monomial.
    pub fn const_term(&self) -> i64 {
        self.terms.get(&Monomial::one()).copied().unwrap_or(0)
    }

    /// All symbols mentioned anywhere in the expression.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_syms(&mut out);
        out
    }

    pub(crate) fn collect_syms(&self, out: &mut BTreeSet<Sym>) {
        for m in self.terms.keys() {
            for (a, _) in &m.0 {
                a.syms(out);
            }
        }
    }

    /// Whether the symbol `s` appears anywhere (including inside array
    /// subscripts and `min`/`max` arguments).
    pub fn contains_sym(&self, s: Sym) -> bool {
        self.terms.keys().any(|m| m.contains(s))
    }

    /// Splits the expression as `a*s + b` with `b` free of `s`.
    ///
    /// `a` may still contain `s` at a strictly smaller exponent, mirroring
    /// the recursion of the paper's `REDUCE_GT_0`. Returns `None` when `s`
    /// occurs inside a composite atom (array subscript, `min`/`max`), where
    /// no polynomial split exists.
    pub fn split_linear(&self, s: Sym) -> Option<(SymExpr, SymExpr)> {
        let mut a = SymExpr::zero();
        let mut b = SymExpr::zero();
        for (m, c) in &self.terms {
            if m.mentions_inside_composite(s) {
                return None;
            }
            if m.degree_of_var(s) == 0 {
                b.add_term(m.clone(), *c);
            } else {
                // Divide the monomial by one power of Var(s).
                let mut powers = m.0.clone();
                for entry in powers.iter_mut() {
                    if matches!(entry.0, Atom::Var(v) if v == s) {
                        entry.1 -= 1;
                        break;
                    }
                }
                powers.retain(|(_, p)| *p > 0);
                a.add_term(Monomial(powers), *c);
            }
        }
        Some((a, b))
    }

    /// Substitutes `with` for every occurrence of variable `s`.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> SymExpr {
        if !self.contains_sym(s) {
            return self.clone();
        }
        let mut out = SymExpr::zero();
        for (m, c) in &self.terms {
            let mut term = SymExpr::konst(*c);
            for (a, p) in &m.0 {
                let replaced = a.subst(s, with);
                for _ in 0..*p {
                    term = &term * &replaced;
                }
            }
            out = &out + &term;
        }
        out
    }

    /// Evaluates the expression to a concrete integer, or `None` when a
    /// symbol is unbound or arithmetic overflows.
    pub fn eval(&self, ctx: &dyn EvalCtx) -> Option<i64> {
        let mut acc: i64 = 0;
        for (m, c) in &self.terms {
            let v = m.eval(ctx)?;
            acc = acc.checked_add(c.checked_mul(v)?)?;
        }
        Some(acc)
    }

    /// GCD of all coefficients (0 for the zero expression).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.values().fold(0i64, |g, &c| gcd(g, c.abs()))
    }

    /// Scales the expression by an integer constant.
    pub fn scale(&self, k: i64) -> SymExpr {
        if k == 0 {
            return SymExpr::zero();
        }
        let mut terms = BTreeMap::new();
        for (m, c) in &self.terms {
            terms.insert(m.clone(), c * k);
        }
        SymExpr { terms }
    }

    /// Divides all coefficients by `k`, returning `None` unless `k` divides
    /// every coefficient exactly.
    pub fn exact_div(&self, k: i64) -> Option<SymExpr> {
        if k == 0 {
            return None;
        }
        let mut terms = BTreeMap::new();
        for (m, c) in &self.terms {
            if c % k != 0 {
                return None;
            }
            terms.insert(m.clone(), c / k);
        }
        Some(SymExpr { terms })
    }

    /// The highest power at which `Var(s)` occurs.
    pub fn degree_in(&self, s: Sym) -> u32 {
        self.terms
            .keys()
            .map(|m| m.degree_of_var(s))
            .max()
            .unwrap_or(0)
    }

    fn add_term(&mut self, m: Monomial, c: i64) {
        if c == 0 {
            return;
        }
        let entry = self.terms.entry(m).or_insert(0);
        *entry += c;
        if *entry == 0 {
            let key = self
                .terms
                .iter()
                .find(|(_, v)| **v == 0)
                .map(|(k, _)| k.clone());
            if let Some(key) = key {
                self.terms.remove(&key);
            }
        }
    }
}

/// Greatest common divisor (non-negative; `gcd(0, x) = |x|`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Add for &SymExpr {
    type Output = SymExpr;
    fn add(self, rhs: &SymExpr) -> SymExpr {
        let mut out = self.clone();
        for (m, c) in &rhs.terms {
            out.add_term(m.clone(), *c);
        }
        out
    }
}

impl Sub for &SymExpr {
    type Output = SymExpr;
    fn sub(self, rhs: &SymExpr) -> SymExpr {
        let mut out = self.clone();
        for (m, c) in &rhs.terms {
            out.add_term(m.clone(), -*c);
        }
        out
    }
}

impl Mul for &SymExpr {
    type Output = SymExpr;
    fn mul(self, rhs: &SymExpr) -> SymExpr {
        let mut out = SymExpr::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                out.add_term(ma.mul(mb), ca * cb);
            }
        }
        out
    }
}

impl Neg for &SymExpr {
    type Output = SymExpr;
    fn neg(self) -> SymExpr {
        self.scale(-1)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for SymExpr {
            type Output = SymExpr;
            fn $method(self, rhs: SymExpr) -> SymExpr {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&SymExpr> for SymExpr {
            type Output = SymExpr;
            fn $method(self, rhs: &SymExpr) -> SymExpr {
                (&self).$method(rhs)
            }
        }
        impl $trait<SymExpr> for &SymExpr {
            type Output = SymExpr;
            fn $method(self, rhs: SymExpr) -> SymExpr {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);

impl Neg for SymExpr {
    type Output = SymExpr;
    fn neg(self) -> SymExpr {
        (&self).neg()
    }
}

impl From<i64> for SymExpr {
    fn from(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }
}

impl From<Sym> for SymExpr {
    fn from(s: Sym) -> SymExpr {
        SymExpr::var(s)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in &self.terms {
            let c = *c;
            if first {
                if c < 0 {
                    write!(f, "-")?;
                }
                first = false;
            } else if c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let mag = c.abs();
            if m.is_one() {
                write!(f, "{mag}")?;
            } else if mag == 1 {
                write!(f, "{m}")?;
            } else {
                write!(f, "{mag}*{m}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymExpr({self})")
    }
}
