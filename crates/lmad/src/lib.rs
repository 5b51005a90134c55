//! Linear Memory Access Descriptors (LMADs) — the leaf algebra of the USR
//! language (paper §2.1 and §3.2).
//!
//! An LMAD `[δ1,…,δM] ᵥ [σ1,…,σM] + τ` denotes the *unified* (1-D) index
//! set
//!
//! ```text
//! { τ + i1·δ1 + … + iM·δM  |  0 ≤ ik·δk ≤ σk,  k ∈ 1..=M }
//! ```
//!
//! where strides `δk` and spans `σk` are symbolic expressions. LMADs are
//! transparent to array dimensionality (supporting reshaping at call
//! sites) and allow symbolic constant strides, which affine/Presburger
//! representations do not.
//!
//! This crate provides:
//!
//! * construction and exact loop **aggregation** ([`Lmad::aggregate`]),
//! * **disjointness** and **inclusion** predicates for 1-D and
//!   multi-dimensional LMADs (paper Figure 6(a)), including the
//!   interleaved-access gcd test and the dimension
//!   unification/projection heuristic with well-formedness predicates,
//! * [`fills_array`] (rule (5) of Figure 5),
//! * concrete [`Lmad::enumerate`] for runtime USR evaluation.

pub mod predicates;
pub mod project;

use std::collections::BTreeSet;
use std::fmt;

use lip_symbolic::{Binders, BoolExpr, EvalCtx, Sym, SymExpr};

pub use predicates::{disjoint_lmads, fills_array, included_lmads};

/// One virtual dimension of an LMAD: a stride and a span (the span is the
/// largest multiple of the stride reached, i.e. `stride · (count − 1)`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dim {
    /// The access stride `δ` (assumed positive; see paper §3.2).
    pub stride: SymExpr,
    /// The span `σ = δ·(n−1)` for `n` accesses.
    pub span: SymExpr,
}

/// A linear memory access descriptor.
///
/// # Example
///
/// ```
/// use lip_lmad::Lmad;
/// use lip_symbolic::{sym, SymExpr};
///
/// let interval = Lmad::interval(SymExpr::konst(0), SymExpr::var(sym("NS")) - SymExpr::konst(1));
/// assert_eq!(interval.ndims(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lmad {
    /// Dimensions sorted in canonical (ascending) order.
    dims: Vec<Dim>,
    /// The base offset `τ`.
    offset: SymExpr,
}

impl Lmad {
    /// The single index `offset`.
    pub fn point(offset: SymExpr) -> Lmad {
        Lmad {
            dims: Vec::new(),
            offset,
        }
    }

    /// The contiguous interval `[lo, hi]` (empty when `hi < lo`).
    pub fn interval(lo: SymExpr, hi: SymExpr) -> Lmad {
        let span = &hi - &lo;
        Lmad {
            dims: vec![Dim {
                stride: SymExpr::konst(1),
                span,
            }],
            offset: lo,
        }
    }

    /// A strided 1-D access: `count` elements starting at `offset` with
    /// the given `stride`.
    pub fn strided(offset: SymExpr, stride: SymExpr, count: SymExpr) -> Lmad {
        let span = &stride * &(&count - &SymExpr::konst(1));
        Lmad {
            dims: vec![Dim { stride, span }],
            offset,
        }
    }

    /// Builds from explicit dims (sorted canonically) and offset.
    /// Degenerate zero-span dims (a single access) are dropped.
    pub fn from_dims(mut dims: Vec<Dim>, offset: SymExpr) -> Lmad {
        dims.retain(|d| d.span.as_const() != Some(0));
        dims.sort();
        Lmad { dims, offset }
    }

    /// Adds a dimension (builder style).
    pub fn with_dim(mut self, stride: SymExpr, span: SymExpr) -> Lmad {
        if span.as_const() != Some(0) {
            self.dims.push(Dim { stride, span });
            self.dims.sort();
        }
        self
    }

    /// The dimensions in canonical order.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// The base offset `τ`.
    pub fn offset(&self) -> &SymExpr {
        &self.offset
    }

    /// Number of dimensions (0 for a point).
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Whether this LMAD denotes a single index.
    pub fn is_point(&self) -> bool {
        self.dims.is_empty()
    }

    /// The sum of all spans: the width of the interval hull.
    pub fn total_span(&self) -> SymExpr {
        self.dims
            .iter()
            .fold(SymExpr::zero(), |acc, d| &acc + &d.span)
    }

    /// The inclusive interval hull `[offset, offset + Σ spans]`
    /// (an overestimate of the index set under positive strides).
    pub fn hull(&self) -> (SymExpr, SymExpr) {
        let hi = &self.offset + &self.total_span();
        (self.offset.clone(), hi)
    }

    /// A predicate under which this LMAD denotes the empty set: some span
    /// is negative (then no valid index exists for that dimension).
    pub fn empty_pred(&self) -> BoolExpr {
        BoolExpr::or(
            self.dims
                .iter()
                .map(|d| BoolExpr::lt(d.span.clone(), SymExpr::konst(0)))
                .collect(),
        )
    }

    /// A predicate sufficient for the LMAD to equal its interval hull
    /// (contiguity): the innermost stride is 1 and each outer stride is at
    /// most the inner prefix span plus one, with all spans non-negative.
    pub fn contiguity_pred(&self) -> BoolExpr {
        if self.dims.is_empty() {
            return BoolExpr::t();
        }
        let mut conds = vec![BoolExpr::eq(self.dims[0].stride.clone(), SymExpr::konst(1))];
        let mut prefix = SymExpr::zero();
        for k in 0..self.dims.len() - 1 {
            prefix = &prefix + &self.dims[k].span;
            conds.push(BoolExpr::le(
                self.dims[k + 1].stride.clone(),
                &prefix + &SymExpr::konst(1),
            ));
        }
        for d in &self.dims {
            conds.push(BoolExpr::ge0(d.span.clone()));
        }
        BoolExpr::and(conds)
    }

    /// Translates the index space by `delta` (call-site reshaping).
    pub fn translate(&self, delta: &SymExpr) -> Lmad {
        Lmad {
            dims: self.dims.clone(),
            offset: &self.offset + delta,
        }
    }

    /// Substitutes `with` for variable `s` in every component.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> Lmad {
        Lmad::from_dims(
            self.dims
                .iter()
                .map(|d| Dim {
                    stride: d.stride.subst(s, with),
                    span: d.span.subst(s, with),
                })
                .collect(),
            self.offset.subst(s, with),
        )
    }

    /// Whether variable `s` occurs in any component.
    pub fn contains_sym(&self, s: Sym) -> bool {
        self.offset.contains_sym(s)
            || self
                .dims
                .iter()
                .any(|d| d.stride.contains_sym(s) || d.span.contains_sym(s))
    }

    /// The pool binders mentioned in any component.
    pub fn binders(&self) -> Binders {
        self.dims.iter().fold(self.offset.binders(), |acc, d| {
            acc | d.stride.binders() | d.span.binders()
        })
    }

    /// All symbols mentioned.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = self.offset.syms();
        for d in &self.dims {
            out.extend(d.stride.syms());
            out.extend(d.span.syms());
        }
        out
    }

    /// Exact aggregation over `var ∈ [lo, hi]` (unit step): returns the
    /// LMAD denoting `∪_{var=lo}^{hi} self[var]`, or `None` when the union
    /// is not representable (the paper then introduces a recurrence node).
    ///
    /// Requires `var` to occur only linearly in the offset with a
    /// `var`-free coefficient, and not at all in strides or spans.
    pub fn aggregate(&self, var: Sym, lo: &SymExpr, hi: &SymExpr) -> Option<Lmad> {
        if self
            .dims
            .iter()
            .any(|d| d.stride.contains_sym(var) || d.span.contains_sym(var))
        {
            return None;
        }
        if lo.contains_sym(var) || hi.contains_sym(var) {
            return None;
        }
        let (a, b) = self.offset.split_linear(var)?;
        if a.contains_sym(var) {
            return None;
        }
        if a.is_zero() {
            // Offset invariant to var: the union over a non-empty range is
            // the body itself (range emptiness is the caller's concern).
            return Some(self.clone());
        }
        let trip = hi - lo;
        // New dimension with stride |a| and span |a|·(hi−lo); the base
        // offset moves to the end of the range that minimizes the term.
        let (stride, base) = match a.as_const() {
            Some(c) if c < 0 => (-&a, &(&a * hi) + &b),
            _ => (a.clone(), &(&a * lo) + &b),
        };
        let span = &stride * &trip;
        let mut dims = self.dims.clone();
        dims.push(Dim { stride, span });
        Some(Lmad::from_dims(dims, base))
    }

    /// Enumerates the concrete index set under `ctx`. Returns `None` when
    /// any component is unbound, a stride is non-positive, or the set
    /// exceeds `limit` elements.
    pub fn enumerate(&self, ctx: &dyn EvalCtx, limit: usize) -> Option<BTreeSet<i64>> {
        let offset = self.offset.eval(ctx)?;
        let mut dims = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            let stride = d.stride.eval(ctx)?;
            let span = d.span.eval(ctx)?;
            if span < 0 {
                return Some(BTreeSet::new());
            }
            if stride <= 0 {
                return None;
            }
            dims.push((stride, span));
        }
        let mut stack = vec![offset];
        for (stride, span) in dims {
            let mut next = Vec::new();
            let mut shift = 0i64;
            while shift <= span {
                for base in &stack {
                    next.push(base + shift);
                    if next.len() > limit {
                        return None;
                    }
                }
                shift += stride;
            }
            stack = next;
        }
        Some(stack.into_iter().collect())
    }
}

impl fmt::Display for Lmad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.stride)?;
        }
        write!(f, "]v[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.span)?;
        }
        write!(f, "]+{}", self.offset)
    }
}

/// A finite union of LMADs (the leaf payload of USR nodes).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LmadSet(Vec<Lmad>);

impl LmadSet {
    /// The empty set.
    pub fn empty() -> LmadSet {
        LmadSet::default()
    }

    /// A singleton set.
    pub fn single(l: Lmad) -> LmadSet {
        LmadSet(vec![l])
    }

    /// From a list of LMADs (deduplicated, sorted).
    pub fn from_vec(mut v: Vec<Lmad>) -> LmadSet {
        v.sort();
        v.dedup();
        LmadSet(v)
    }

    /// The member LMADs.
    pub fn lmads(&self) -> &[Lmad] {
        &self.0
    }

    /// Whether the set is syntactically empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Set union (syntactic concatenation — exact).
    pub fn union(&self, other: &LmadSet) -> LmadSet {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        LmadSet::from_vec(v)
    }

    /// A predicate under which the whole set is empty.
    pub fn empty_pred(&self) -> BoolExpr {
        BoolExpr::and(self.0.iter().map(Lmad::empty_pred).collect())
    }

    /// The interval hull of the union, folded with symbolic `min`/`max`.
    /// `None` for the empty set.
    pub fn hull(&self) -> Option<(SymExpr, SymExpr)> {
        let mut it = self.0.iter();
        let first = it.next()?;
        let (mut lo, mut hi) = first.hull();
        for l in it {
            let (l2, h2) = l.hull();
            lo = SymExpr::min(lo, l2);
            hi = SymExpr::max(hi, h2);
        }
        Some((lo, hi))
    }

    /// Substitutes `with` for `s` in every member.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> LmadSet {
        LmadSet::from_vec(self.0.iter().map(|l| l.subst(s, with)).collect())
    }

    /// Whether `s` occurs in any member.
    pub fn contains_sym(&self, s: Sym) -> bool {
        self.0.iter().any(|l| l.contains_sym(s))
    }

    /// The pool binders mentioned in any member.
    pub fn binders(&self) -> Binders {
        self.0
            .iter()
            .fold(Binders::default(), |acc, l| acc | l.binders())
    }

    /// All symbols mentioned.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for l in &self.0 {
            out.extend(l.syms());
        }
        out
    }

    /// Translates all members by `delta`.
    pub fn translate(&self, delta: &SymExpr) -> LmadSet {
        LmadSet::from_vec(self.0.iter().map(|l| l.translate(delta)).collect())
    }

    /// Aggregates every member over `var ∈ [lo, hi]`; `None` if any member
    /// fails to aggregate exactly.
    pub fn aggregate(&self, var: Sym, lo: &SymExpr, hi: &SymExpr) -> Option<LmadSet> {
        let mut out = Vec::with_capacity(self.0.len());
        for l in &self.0 {
            out.push(l.aggregate(var, lo, hi)?);
        }
        Some(LmadSet::from_vec(out))
    }

    /// Enumerates the concrete union under `ctx`.
    pub fn enumerate(&self, ctx: &dyn EvalCtx, limit: usize) -> Option<BTreeSet<i64>> {
        let mut out = BTreeSet::new();
        for l in &self.0 {
            let s = l.enumerate(ctx, limit)?;
            out.extend(s);
            if out.len() > limit {
                return None;
            }
        }
        Some(out)
    }
}

impl From<Lmad> for LmadSet {
    fn from(l: Lmad) -> LmadSet {
        LmadSet::single(l)
    }
}

impl FromIterator<Lmad> for LmadSet {
    fn from_iter<T: IntoIterator<Item = Lmad>>(iter: T) -> LmadSet {
        LmadSet::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Display for LmadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "{{}}");
        }
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " u ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, MapCtx};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    #[test]
    fn paper_running_example_aggregation() {
        // A[i*N + j*k] at statement level: point (i-1)*N + j*k - 1
        // (0-based, paper §2.1). Aggregate over j in 1..=M: stride k, span
        // k(M-1), offset (i-1)*N + k - 1. Then over i in 1..=N.
        let (i, j, n, m) = (sym("i"), sym("j"), sym("N"), sym("M"));
        let point = Lmad::point(
            &(&(&v("i") - &SymExpr::konst(1)) * &v("N")) + &(&v("j") * &v("k")) - SymExpr::konst(1),
        );
        let inner = point
            .aggregate(j, &SymExpr::konst(1), &SymExpr::var(m))
            .expect("inner aggregation");
        assert_eq!(inner.ndims(), 1);
        assert_eq!(inner.dims()[0].stride, v("k"));
        assert_eq!(
            inner.dims()[0].span,
            &v("k") * &(&v("M") - &SymExpr::konst(1))
        );
        assert_eq!(
            *inner.offset(),
            &(&(&v("i") - &SymExpr::konst(1)) * &v("N")) + &v("k") - SymExpr::konst(1)
        );

        let outer = inner
            .aggregate(i, &SymExpr::konst(1), &SymExpr::var(n))
            .expect("outer aggregation");
        assert_eq!(outer.ndims(), 2);
        let strides: Vec<_> = outer.dims().iter().map(|d| d.stride.clone()).collect();
        assert!(strides.contains(&v("k")));
        assert!(strides.contains(&v("N")));
        assert_eq!(*outer.offset(), &v("k") - &SymExpr::konst(1));
    }

    #[test]
    fn aggregation_fails_when_var_in_span() {
        // Triangular access: span depends on the loop variable.
        let l = Lmad::interval(SymExpr::konst(0), v("i"));
        assert!(l.aggregate(sym("i"), &SymExpr::konst(1), &v("N")).is_none());
    }

    #[test]
    fn aggregation_invariant_offset_returns_self() {
        let l = Lmad::interval(SymExpr::konst(0), v("M"));
        let agg = l
            .aggregate(sym("i"), &SymExpr::konst(1), &v("N"))
            .expect("invariant body aggregates");
        assert_eq!(agg, l);
    }

    #[test]
    fn aggregation_negative_coefficient() {
        // offset = -2i, i in [1, 5] -> stride 2, base -10, span 8.
        let l = Lmad::point(v("i").scale(-2));
        let agg = l
            .aggregate(sym("i"), &SymExpr::konst(1), &SymExpr::konst(5))
            .expect("aggregates");
        assert_eq!(*agg.offset(), SymExpr::konst(-10));
        assert_eq!(agg.dims()[0].stride, SymExpr::konst(2));
        assert_eq!(agg.dims()[0].span, SymExpr::konst(8));
    }

    #[test]
    fn enumerate_strided() {
        let ctx = MapCtx::new();
        let l = Lmad::strided(SymExpr::konst(1), SymExpr::konst(3), SymExpr::konst(4));
        let s = l.enumerate(&ctx, 100).expect("concrete");
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 4, 7, 10]);
    }

    #[test]
    fn enumerate_two_dims_matches_semantics() {
        // [2,10]v[4,20]+0 = {0,2,4} ⊕ {0,10,20}.
        let ctx = MapCtx::new();
        let l = Lmad::from_dims(
            vec![
                Dim {
                    stride: SymExpr::konst(2),
                    span: SymExpr::konst(4),
                },
                Dim {
                    stride: SymExpr::konst(10),
                    span: SymExpr::konst(20),
                },
            ],
            SymExpr::konst(0),
        );
        let s = l.enumerate(&ctx, 100).expect("concrete");
        let expected: BTreeSet<i64> = [0, 2, 4, 10, 12, 14, 20, 22, 24].into_iter().collect();
        assert_eq!(s, expected);
    }

    #[test]
    fn negative_span_is_empty() {
        let ctx = MapCtx::new();
        let l = Lmad::interval(SymExpr::konst(5), SymExpr::konst(3));
        assert_eq!(l.enumerate(&ctx, 10).expect("concrete").len(), 0);
        assert!(l.empty_pred().is_true());
    }

    #[test]
    fn contiguity_of_interval() {
        let l = Lmad::interval(v("a"), v("b"));
        // stride-1 single dim: contiguous iff span >= 0.
        let p = l.contiguity_pred();
        assert_eq!(p, BoolExpr::ge0(&v("b") - &v("a")));
    }

    #[test]
    fn hull_of_set_uses_min_max() {
        let s = LmadSet::from_vec(vec![
            Lmad::interval(SymExpr::konst(0), v("n")),
            Lmad::interval(v("m"), v("m") + SymExpr::konst(5)),
        ]);
        let (lo, hi) = s.hull().expect("non-empty");
        assert_eq!(lo, SymExpr::min(SymExpr::konst(0), v("m")));
        assert_eq!(hi, SymExpr::max(v("n"), v("m") + SymExpr::konst(5)));
    }

    #[test]
    fn display_round_trip_shape() {
        let l = Lmad::strided(v("off"), SymExpr::konst(32), v("n"));
        let s = format!("{l}");
        assert!(s.starts_with("[32]v["), "{s}");
    }
}
