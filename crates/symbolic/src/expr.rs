//! Canonical symbolic integer expressions.
//!
//! A [`SymExpr`] is a multivariate polynomial with `i64` coefficients over
//! [`Atom`]s. Atoms are either plain variables, array elements with a
//! symbolic subscript (`IB(i+1)`), or `min`/`max` of two expressions. The
//! representation is canonical: equal expressions compare equal
//! structurally, which the USR/PDAG layers rely on for simplification.
//!
//! # Representation
//!
//! A `SymExpr` is an immutable, shared slice of `(Monomial, i64)` terms,
//! a [`Monomial`] an immutable, shared slice of `(Atom, u32)` powers.
//! The invariants every constructor keeps:
//!
//! * **sorted** — terms ascend strictly by monomial, powers strictly by
//!   atom, so a term or power occurs once and two equal expressions are
//!   the same sequence;
//! * **no zero** — no term has coefficient `0`, no power exponent `0`:
//!   the zero expression and the constant monomial `1` are the *empty*
//!   slices (which own no allocation at all);
//! * **shared and immutable** — `clone` is a reference-count bump
//!   (`Arc`, because analysis configurations carry terms across
//!   threads), no operator writes through a handle, and every handle
//!   carries the structural hash of its slice, computed once when the
//!   slice was built. `==` is a pointer test, then a hash test, then a
//!   walk; `cmp` a pointer test, then a walk; `Hash` one `u64`.
//!
//! **Order and rendering are those of the `BTreeMap<Monomial, i64>` /
//! `Vec<(Atom, u32)>` form this replaced** (kept as a test oracle in
//! `tests/expr_oracle/`): a map compares and prints in key order, which
//! is slice order here, and [`Atom`] keeps its variant and field order.
//! That is not cosmetic. The order of terms decides the order of `∧`/`∨`
//! children in [`crate::BoolExpr`] and in the PDAG above it, that order
//! is evaluation order and therefore cascade stage order, and
//! `lip_analysis`'s `cascade_golden.rs` pins all of it as text.
//!
//! Coefficient arithmetic is plain `i64` arithmetic: it panics on
//! overflow in debug builds and wraps in release builds, as it always
//! did.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, OnceLock};

use crate::eval::EvalCtx;
use crate::sym::{Binders, Sym};

/// The hasher behind the cached structural hashes, and the one the
/// analysis' own tables are keyed with ([`TermBuildHasher`]): per word
/// one xor and one folded 64×64→128 multiply (the wyhash step) by a
/// per-process secret. The values only have to agree with `==` and
/// spread well — a collision costs a structural comparison, never an
/// answer — but source text arrives over the wire, so which terms
/// collide must not be computable outside the process: both the start
/// state and the multiplier are drawn from [`RandomState`] once.
pub struct TermHasher {
    state: u64,
    key: u64,
}

/// [`TermHasher`] as a `HashMap` / `HashSet` parameter, for tables whose
/// keys are terms, predicates or handles that already carry a hash.
pub type TermBuildHasher = BuildHasherDefault<TermHasher>;

impl Default for TermHasher {
    fn default() -> TermHasher {
        static SECRETS: OnceLock<[u64; 2]> = OnceLock::new();
        let [state, key] = *SECRETS.get_or_init(|| {
            let seed = RandomState::new();
            [seed.hash_one(0), seed.hash_one(1) | 1]
        });
        TermHasher { state, key }
    }
}

impl Hasher for TermHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(self.key);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// An immutable shared slice plus the structural hash of its items.
/// The empty slice owns no allocation (and touches no reference count).
#[derive(Clone)]
struct Shared<T> {
    hash: u64,
    items: Option<Arc<[T]>>,
}

/// Sorted, zero-free items in; a `TrustedLen` iterator (a `Vec`, a `map`
/// over a slice) is collected in one allocation, the empty one in none.
impl<T: Hash> FromIterator<T> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Shared<T> {
        let items: Arc<[T]> = items.into_iter().collect();
        if items.is_empty() {
            return Shared::EMPTY;
        }
        let mut h = TermHasher::default();
        for item in items.iter() {
            item.hash(&mut h);
        }
        Shared {
            hash: h.finish(),
            items: Some(items),
        }
    }
}

impl<T> Shared<T> {
    const EMPTY: Shared<T> = Shared {
        hash: 0,
        items: None,
    };

    fn as_slice(&self) -> &[T] {
        self.items.as_deref().unwrap_or(&[])
    }

    /// The pointer test: the same allocation, or both empty.
    fn same(&self, other: &Shared<T>) -> bool {
        match (&self.items, &other.items) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Shared<T>) -> bool {
        self.same(other) || (self.hash == other.hash && self.as_slice() == other.as_slice())
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Shared<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Shared<T>) -> Ordering {
        if self.same(other) {
            Ordering::Equal
        } else {
            self.as_slice().cmp(other.as_slice())
        }
    }
}

impl<T> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// An indivisible symbolic term.
///
/// Variant and field order are part of the canonical order of
/// expressions (see the module documentation).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A scalar program variable.
    Var(Sym),
    /// An array element `A(e)` with a symbolic subscript.
    Elem(Sym, SymExpr),
    /// `min(a, b)`.
    Min(SymExpr, SymExpr),
    /// `max(a, b)`.
    Max(SymExpr, SymExpr),
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

    fn binders(&self) -> Binders {
        match self {
            Atom::Var(s) => Binders::of(*s),
            Atom::Elem(a, e) => Binders::of(*a) | e.binders(),
            Atom::Min(a, b) | Atom::Max(a, b) => a.binders() | b.binders(),
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
            Atom::Elem(a, e) => SymExpr::elem(*a, e.subst(s, with)),
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
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Monomial(Shared<(Atom, u32)>);

impl Monomial {
    /// The constant monomial `1`.
    pub fn one() -> Monomial {
        Monomial(Shared::EMPTY)
    }

    /// Whether this is the constant monomial.
    pub fn is_one(&self) -> bool {
        self.0.items.is_none()
    }

    /// The atom powers, ascending by atom, every exponent positive.
    pub fn atoms(&self) -> &[(Atom, u32)] {
        self.0.as_slice()
    }

    fn mul(&self, other: &Monomial) -> Monomial {
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        let (mut xs, mut ys) = (self.atoms(), other.atoms());
        let mut out = Vec::with_capacity(xs.len() + ys.len());
        while let (Some((x, rest_x)), Some((y, rest_y))) = (xs.split_first(), ys.split_first()) {
            match x.0.cmp(&y.0) {
                Ordering::Less => {
                    out.push(x.clone());
                    xs = rest_x;
                }
                Ordering::Greater => {
                    out.push(y.clone());
                    ys = rest_y;
                }
                Ordering::Equal => {
                    out.push((x.0.clone(), x.1 + y.1));
                    (xs, ys) = (rest_x, rest_y);
                }
            }
        }
        out.extend_from_slice(xs);
        out.extend_from_slice(ys);
        Monomial(out.into_iter().collect())
    }

    /// The exact quotient `self / d`, when every power of `d` divides
    /// the matching power of `self`.
    pub fn div(&self, d: &Monomial) -> Option<Monomial> {
        let mut ds = d.atoms();
        let mut out = Vec::with_capacity(self.atoms().len());
        for (a, p) in self.atoms() {
            match ds.split_first() {
                Some(((da, dp), rest)) if da == a => {
                    if dp > p {
                        return None;
                    }
                    if p > dp {
                        out.push((a.clone(), p - dp));
                    }
                    ds = rest;
                }
                _ => out.push((a.clone(), *p)),
            }
        }
        // Whatever is left of `d` is a factor `self` does not have.
        ds.is_empty().then(|| Monomial(out.into_iter().collect()))
    }

    /// The product of the powers whose atom does not mention `s`.
    fn free_of(&self, s: Sym) -> Monomial {
        let free = self.atoms().iter().filter(|(a, _)| !a.contains(s));
        Monomial(free.cloned().collect())
    }

    /// `self / Var(s)`, for a monomial that has `Var(s)` as a factor.
    fn without_one(&self, s: Sym) -> Monomial {
        let lowered = self.atoms().iter().filter_map(|(a, p)| match a {
            Atom::Var(v) if *v == s => (*p > 1).then(|| (a.clone(), p - 1)),
            _ => Some((a.clone(), *p)),
        });
        Monomial(lowered.collect())
    }

    fn contains(&self, s: Sym) -> bool {
        self.atoms().iter().any(|(a, _)| a.contains(s))
    }

    /// The exponent of `Var(s)`, or `None` when `s` occurs inside a
    /// composite atom (a subscript, `min`/`max`).
    fn degree_of_var(&self, s: Sym) -> Option<u32> {
        let mut degree = 0;
        for (a, p) in self.atoms() {
            match a {
                Atom::Var(v) if *v == s => degree += p,
                Atom::Var(_) => {}
                _ if a.contains(s) => return None,
                _ => {}
            }
        }
        Some(degree)
    }

    fn eval(&self, ctx: &dyn EvalCtx) -> Option<i64> {
        let mut acc: i64 = 1;
        for (a, p) in self.atoms() {
            let v = a.eval(ctx)?;
            for _ in 0..*p {
                acc = acc.checked_mul(v)?;
            }
        }
        Some(acc)
    }
}

impl Default for Monomial {
    fn default() -> Monomial {
        Monomial::one()
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Monomial").field(&self.atoms()).finish()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (a, p) in self.atoms() {
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

/// How a symbol occurs in an expression ([`SymExpr::occurrence`]).
enum Occurs<'a> {
    Nowhere,
    /// Only as the term `c·s`, this one.
    Linear(&'a (Monomial, i64)),
    Otherwise,
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
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymExpr(Shared<(Monomial, i64)>);

impl SymExpr {
    /// The zero expression.
    pub fn zero() -> SymExpr {
        SymExpr(Shared::EMPTY)
    }

    /// The constant expression `c`.
    pub fn konst(c: i64) -> SymExpr {
        SymExpr::term(Monomial::one(), c)
    }

    /// The single-term expression `c·m`.
    pub fn term(m: Monomial, c: i64) -> SymExpr {
        if c == 0 {
            return SymExpr::zero();
        }
        SymExpr([(m, c)].into_iter().collect())
    }

    /// The variable expression `s`.
    pub fn var(s: Sym) -> SymExpr {
        SymExpr::atom(Atom::Var(s))
    }

    /// The array-element expression `arr(idx)`.
    pub fn elem(arr: Sym, idx: SymExpr) -> SymExpr {
        SymExpr::atom(Atom::Elem(arr, idx))
    }

    /// `min(a, b)`, folded when either side is constant-equal or both const.
    pub fn min(a: SymExpr, b: SymExpr) -> SymExpr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => SymExpr::konst(x.min(y)),
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                SymExpr::atom(Atom::Min(a, b))
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
                SymExpr::atom(Atom::Max(a, b))
            }
        }
    }

    /// Wraps a single atom as an expression.
    pub fn atom(a: Atom) -> SymExpr {
        SymExpr::term(Monomial([(a, 1)].into_iter().collect()), 1)
    }

    fn slice(&self) -> &[(Monomial, i64)] {
        self.0.as_slice()
    }

    /// Whether the expression is literally zero.
    pub fn is_zero(&self) -> bool {
        self.0.items.is_none()
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        match self.slice() {
            [] => Some(0),
            [(m, c)] if m.is_one() => Some(*c),
            _ => None,
        }
    }

    /// Returns `Some(s)` when the expression is exactly the variable `s`.
    pub fn as_var(&self) -> Option<Sym> {
        match self.slice() {
            [(m, 1)] => match m.atoms() {
                [(Atom::Var(s), 1)] => Some(*s),
                _ => None,
            },
            _ => None,
        }
    }

    /// Iterates over `(monomial, coefficient)` pairs, ascending by
    /// monomial.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, i64)> {
        self.slice().iter().map(|(m, c)| (m, *c))
    }

    /// The coefficient of the constant monomial.
    pub fn const_term(&self) -> i64 {
        // The constant monomial sorts before every other one.
        match self.slice().first() {
            Some((m, c)) if m.is_one() => *c,
            _ => 0,
        }
    }

    /// All symbols mentioned anywhere in the expression.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_syms(&mut out);
        out
    }

    /// Adds every symbol mentioned in the expression to `out`.
    pub fn collect_syms(&self, out: &mut BTreeSet<Sym>) {
        for (m, _) in self.slice() {
            for (a, _) in m.atoms() {
                a.syms(out);
            }
        }
    }

    /// The pool binders ([`crate::Sym::binder`]) the expression mentions.
    pub fn binders(&self) -> Binders {
        self.slice()
            .iter()
            .flat_map(|(m, _)| m.atoms())
            .fold(Binders::default(), |acc, (a, _)| acc | a.binders())
    }

    /// The variables that occur as factors of some term (not the ones
    /// inside subscripts or `min`/`max`), ascending — the symbols
    /// [`SymExpr::split_linear`] can split on with a non-zero slope.
    /// Nothing is collected: each step rescans the terms for the
    /// smallest variable above the last one, and there are few.
    pub fn factor_vars(&self) -> impl Iterator<Item = Sym> + '_ {
        let mut last = None;
        std::iter::from_fn(move || {
            last = self
                .slice()
                .iter()
                .flat_map(|(m, _)| m.atoms())
                .filter_map(|(a, _)| match a {
                    Atom::Var(s) if last.is_none_or(|l| *s > l) => Some(*s),
                    _ => None,
                })
                .min();
            last
        })
    }

    /// Where `s` occurs: nowhere, in the one term `c·s` and nowhere
    /// else, or in some other way.
    fn occurrence(&self, s: Sym) -> Occurs<'_> {
        let mut seen = Occurs::Nowhere;
        for term in self.slice() {
            match term.0.atoms() {
                [(Atom::Var(v), 1)] if *v == s => seen = Occurs::Linear(term),
                _ if term.0.contains(s) => return Occurs::Otherwise,
                _ => {}
            }
        }
        seen
    }

    /// `Some(c)` when the expression is `c·s + b` for a constant `c ≠ 0`
    /// and a `b` free of `s` — when [`SymExpr::split_linear`] has a
    /// constant, non-zero slope.
    pub fn linear_coeff(&self, s: Sym) -> Option<i64> {
        match self.occurrence(s) {
            Occurs::Linear(term) => Some(term.1),
            _ => None,
        }
    }

    /// `Some(c)` when `g·self + k·other` is the constant `c`, decided by
    /// one walk over the two term lists without building anything:
    /// whether one predicate implies or negates another comes down to
    /// this question.
    pub fn combination_const(&self, g: i64, k: i64, other: &SymExpr) -> Option<i64> {
        let (g, k) = (i128::from(g), i128::from(k));
        let (mut xs, mut ys) = (self.slice(), other.slice());
        let mut constant = 0;
        loop {
            let order = match (xs.first(), ys.first()) {
                (None, None) => return i64::try_from(constant).ok(),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(x), Some(y)) => x.0.cmp(&y.0),
            };
            let take = |side: &mut &[(Monomial, i64)], by: i128| {
                let (term, rest) = side.split_first().expect("ordered above");
                *side = rest;
                (term.0.is_one(), by * i128::from(term.1))
            };
            let (is_const, c) = match order {
                Ordering::Less => take(&mut xs, g),
                Ordering::Greater => take(&mut ys, k),
                Ordering::Equal => {
                    let (x, y) = (take(&mut xs, g), take(&mut ys, k));
                    (x.0, x.1 + y.1)
                }
            };
            if is_const {
                constant = c;
            } else if c != 0 {
                return None;
            }
        }
    }

    /// Whether the symbol `s` appears anywhere (including inside array
    /// subscripts and `min`/`max` arguments).
    pub fn contains_sym(&self, s: Sym) -> bool {
        self.slice().iter().any(|(m, _)| m.contains(s))
    }

    /// Splits the expression as `a*s + b` with `b` free of `s`.
    ///
    /// `a` may still contain `s` at a strictly smaller exponent, mirroring
    /// the recursion of the paper's `REDUCE_GT_0`. Returns `None` when `s`
    /// occurs inside a composite atom (array subscript, `min`/`max`), where
    /// no polynomial split exists.
    pub fn split_linear(&self, s: Sym) -> Option<(SymExpr, SymExpr)> {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (m, c) in self.slice() {
            if m.degree_of_var(s)? == 0 {
                b.push((m.clone(), *c));
            } else {
                a.push((m.without_one(s), *c));
            }
        }
        if a.is_empty() {
            return Some((SymExpr::zero(), self.clone()));
        }
        // Dividing by `s` is injective but not monotone: no two terms
        // collide, the order may change.
        a.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        Some((
            SymExpr(a.into_iter().collect()),
            SymExpr(b.into_iter().collect()),
        ))
    }

    /// Substitutes `with` for every occurrence of variable `s`.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> SymExpr {
        match self.occurrence(s) {
            Occurs::Nowhere => return self.clone(),
            // `c·s + b` becomes `b + c·with` in one merge.
            Occurs::Linear(term) => return self.merged(Some(term), with, term.1),
            Occurs::Otherwise => {}
        }
        // Terms free of `s` stay as they are (and stay sorted); the
        // others are multiplied out and added on.
        let free = self.slice().iter().filter(|(m, _)| !m.contains(s));
        let mut out = SymExpr(free.cloned().collect());
        for (m, c) in self.slice().iter().filter(|(m, _)| m.contains(s)) {
            let mut term = SymExpr::term(m.free_of(s), *c);
            for (a, p) in m.atoms().iter().filter(|(a, _)| a.contains(s)) {
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
        for (m, c) in self.slice() {
            let v = m.eval(ctx)?;
            acc = acc.checked_add(c.checked_mul(v)?)?;
        }
        Some(acc)
    }

    /// GCD of all coefficients (0 for the zero expression).
    pub fn coeff_gcd(&self) -> i64 {
        self.slice().iter().fold(0i64, |g, (_, c)| gcd(g, c.abs()))
    }

    /// One pass over the terms, each coefficient through `f`.
    fn map_coeffs(&self, f: impl Fn(i64) -> i64) -> SymExpr {
        let mapped = self.slice().iter().map(|(m, c)| (m.clone(), f(*c)));
        let out = SymExpr(mapped.collect());
        // A product that wraps around to zero (release builds only) is
        // the one way a term can vanish here.
        if out.slice().iter().any(|(_, c)| *c == 0) {
            let nonzero = out.slice().iter().filter(|(_, c)| *c != 0);
            return SymExpr(nonzero.cloned().collect());
        }
        out
    }

    /// Scales the expression by an integer constant.
    pub fn scale(&self, k: i64) -> SymExpr {
        match k {
            0 => SymExpr::zero(),
            1 => self.clone(),
            _ => self.map_coeffs(|c| c * k),
        }
    }

    /// Divides all coefficients by `k`, returning `None` unless `k` divides
    /// every coefficient exactly.
    pub fn exact_div(&self, k: i64) -> Option<SymExpr> {
        if k == 0 || self.slice().iter().any(|(_, c)| c % k != 0) {
            return None;
        }
        Some(self.map_coeffs(|c| c / k))
    }

    /// The highest power at which `Var(s)` occurs.
    pub fn degree_in(&self, s: Sym) -> u32 {
        self.slice()
            .iter()
            .flat_map(|(m, _)| m.atoms())
            .filter(|(a, _)| matches!(a, Atom::Var(v) if *v == s))
            .map(|(_, p)| *p)
            .max()
            .unwrap_or(0)
    }

    /// `self + k·rhs`, the term `without` of `self` (if any) left out:
    /// one merge of two sorted slices.
    fn merged(&self, without: Option<&(Monomial, i64)>, rhs: &SymExpr, k: i64) -> SymExpr {
        let kept = |x: &(Monomial, i64)| match without {
            Some(w) if std::ptr::eq(w, x) => 0,
            _ => x.1,
        };
        let (mut xs, mut ys) = (self.slice(), rhs.slice());
        let mut out = Vec::with_capacity(xs.len() + ys.len());
        let mut push = |m: &Monomial, c: i64| {
            if c != 0 {
                out.push((m.clone(), c));
            }
        };
        while let (Some((x, rest_x)), Some((y, rest_y))) = (xs.split_first(), ys.split_first()) {
            match x.0.cmp(&y.0) {
                Ordering::Less => {
                    push(&x.0, kept(x));
                    xs = rest_x;
                }
                Ordering::Greater => {
                    push(&y.0, y.1 * k);
                    ys = rest_y;
                }
                Ordering::Equal => {
                    push(&x.0, kept(x) + y.1 * k);
                    (xs, ys) = (rest_x, rest_y);
                }
            }
        }
        xs.iter().for_each(|x| push(&x.0, kept(x)));
        ys.iter().for_each(|y| push(&y.0, y.1 * k));
        SymExpr(out.into_iter().collect())
    }

    /// `self + k·rhs`.
    fn plus(&self, rhs: &SymExpr, k: i64) -> SymExpr {
        if rhs.is_zero() {
            self.clone()
        } else if self.is_zero() {
            rhs.scale(k)
        } else {
            self.merged(None, rhs, k)
        }
    }
}

impl Default for SymExpr {
    fn default() -> SymExpr {
        SymExpr::zero()
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
        self.plus(rhs, 1)
    }
}

impl Sub for &SymExpr {
    type Output = SymExpr;
    fn sub(self, rhs: &SymExpr) -> SymExpr {
        self.plus(rhs, -1)
    }
}

impl Mul for &SymExpr {
    type Output = SymExpr;
    fn mul(self, rhs: &SymExpr) -> SymExpr {
        if let Some(k) = rhs.as_const() {
            return self.scale(k);
        }
        if let Some(k) = self.as_const() {
            return rhs.scale(k);
        }
        let mut out = Vec::with_capacity(self.slice().len() * rhs.slice().len());
        for (ma, ca) in self.slice() {
            for (mb, cb) in rhs.slice() {
                out.push((ma.mul(mb), ca * cb));
            }
        }
        out.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        out.retain(|(_, c)| *c != 0);
        SymExpr(out.into_iter().collect())
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
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.slice() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    #[test]
    fn canonical_addition_cancels() {
        let e = v("x") + v("y") - v("x");
        assert_eq!(e, v("y"));
        let z = v("x") - v("x");
        assert!(z.is_zero());
        assert_eq!(z.as_const(), Some(0));
    }

    #[test]
    fn polynomial_expansion() {
        let e = (v("n") + SymExpr::konst(1)) * (v("n") - SymExpr::konst(1));
        assert_eq!(e, v("n") * v("n") - SymExpr::konst(1));
    }

    #[test]
    fn split_linear_basic() {
        // 3*i + 2*N - 5 split on i.
        let e = v("i").scale(3) + v("N").scale(2) - SymExpr::konst(5);
        let (a, b) = e.split_linear(sym("i")).expect("splittable");
        assert_eq!(a.as_const(), Some(3));
        assert_eq!(b, v("N").scale(2) - SymExpr::konst(5));
    }

    #[test]
    fn split_linear_quadratic_leaves_lower_degree() {
        // i^2 + i = (i + 1)*i + 0.
        let e = v("i") * v("i") + v("i");
        let (a, b) = e.split_linear(sym("i")).expect("splittable");
        assert_eq!(a, v("i") + SymExpr::konst(1));
        assert!(b.is_zero());
    }

    #[test]
    fn split_linear_rejects_subscript_occurrence() {
        let e = SymExpr::elem(sym("IX"), v("i"));
        assert!(e.split_linear(sym("i")).is_none());
    }

    #[test]
    fn subst_in_subscript() {
        // IB(i+1) with i := 3 becomes IB(4).
        let e = SymExpr::elem(sym("IB"), v("i") + SymExpr::konst(1));
        let r = e.subst(sym("i"), &SymExpr::konst(3));
        assert_eq!(r, SymExpr::elem(sym("IB"), SymExpr::konst(4)));
    }

    #[test]
    fn subst_polynomial() {
        // (i*i + 2) with i := N+1.
        let e = v("i") * v("i") + SymExpr::konst(2);
        let r = e.subst(sym("i"), &(v("N") + SymExpr::konst(1)));
        let expected = v("N") * v("N") + v("N").scale(2) + SymExpr::konst(3);
        assert_eq!(r, expected);
    }

    #[test]
    fn eval_with_arrays() {
        use crate::eval::MapCtx;
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("i"), 2);
        ctx.set_array(sym("IB"), 1, vec![10, 20, 30]);
        let e = SymExpr::elem(sym("IB"), v("i") + SymExpr::konst(1)).scale(32);
        assert_eq!(e.eval(&ctx), Some(32 * 30));
    }

    #[test]
    fn gcd_and_exact_div() {
        let e = v("x").scale(6) + SymExpr::konst(9);
        assert_eq!(e.coeff_gcd(), 3);
        assert_eq!(
            e.exact_div(3).expect("divisible"),
            v("x").scale(2) + SymExpr::konst(3)
        );
        assert!(e.exact_div(2).is_none());
    }

    #[test]
    fn min_max_folding() {
        assert_eq!(
            SymExpr::min(SymExpr::konst(3), SymExpr::konst(7)).as_const(),
            Some(3)
        );
        assert_eq!(
            SymExpr::max(SymExpr::konst(3), SymExpr::konst(7)).as_const(),
            Some(7)
        );
        // Commutative canonicalization.
        assert_eq!(SymExpr::min(v("a"), v("b")), SymExpr::min(v("b"), v("a")));
    }

    #[test]
    fn display_formats_readably() {
        let e = v("NS").scale(-1) + SymExpr::konst(6) + v("NP").scale(8);
        let s = format!("{e}");
        assert!(s.contains("NS"), "{s}");
        assert!(s.contains("NP"), "{s}");
    }

    #[test]
    fn degree_tracking() {
        let e = v("i") * v("i") * v("j") + v("i");
        assert_eq!(e.degree_in(sym("i")), 2);
        assert_eq!(e.degree_in(sym("j")), 1);
        assert_eq!(e.degree_in(sym("k")), 0);
    }

    #[test]
    fn factor_vars_skip_subscripts() {
        let e = SymExpr::elem(sym("IB"), v("i")) * v("k") + v("j") + v("k");
        let mut want = vec![sym("j"), sym("k")];
        want.sort();
        assert_eq!(e.factor_vars().collect::<Vec<_>>(), want);
    }

    #[test]
    fn shared_handles_and_empty_slices() {
        let e = v("x") + SymExpr::konst(2);
        let f = e.clone();
        assert!(e.0.same(&f.0), "clone shares the slice");
        assert!(SymExpr::zero().0.items.is_none());
        assert!((v("x") - v("x")).0.items.is_none());
        assert!(SymExpr::konst(7).slice()[0].0.is_one());
        // Separately built equal terms: equal, same hash, one order.
        let g = SymExpr::konst(2) + v("x");
        assert!(!e.0.same(&g.0));
        assert_eq!(e, g);
        assert_eq!(e.0.hash, g.0.hash);
        assert_eq!(e.cmp(&g), Ordering::Equal);
    }
}
