//! The USR DAG and its simplifying smart constructors.
//!
//! A [`Usr`] is a reference-counted handle to an immutable node that
//! carries its structural hash, as [`lip_symbolic::SymExpr`] and the
//! PDAG do: cloning shares the node, `Hash` writes the cached `u64`,
//! and `==` is a pointer test, then a hash test, then a structural walk
//! (which only two separately built equal nodes get to). Binders come
//! from the fixed pool of [`Sym::binder`]s, chosen by what occurs in the
//! terms they bind over, so a sub-summary built twice — by two
//! equations, two fission fragments or two analyses of one loop — is
//! one key of every table keyed by USRs.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use lip_lmad::LmadSet;
use lip_symbolic::{Binders, BoolExpr, Sym, SymExpr, TermHasher};

/// Identifies an unanalyzable call site (paper's `./ CallSite` nodes).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallSiteId {
    /// The callee's name.
    pub callee: Sym,
    /// A site-unique index within the caller.
    pub site: u32,
}

impl fmt::Display for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.callee, self.site)
    }
}

/// One node of the USR DAG. Use the [`Usr`] smart constructors; the node
/// type is exposed for pattern matching in the factorization algorithm.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UsrNode {
    /// The empty set `∅`.
    Empty,
    /// A set of LMADs (exact leaf).
    Leaf(LmadSet),
    /// `S1 ∪ S2` (irreducible).
    Union(Usr, Usr),
    /// `S1 ∩ S2` (irreducible).
    Intersect(Usr, Usr),
    /// `S1 − S2` (irreducible).
    Subtract(Usr, Usr),
    /// `p # S`: `S` exists only when `p` holds.
    Gate(BoolExpr, Usr),
    /// A summary that could not be translated across a call site.
    Call(CallSiteId, Usr),
    /// Total recurrence `∪_{var=lo}^{hi} body(var)`.
    RecTotal {
        /// Bound recurrence variable.
        var: Sym,
        /// Inclusive lower bound.
        lo: SymExpr,
        /// Inclusive upper bound.
        hi: SymExpr,
        /// Per-iteration body, parametrized by `var`.
        body: Usr,
    },
    /// Partial recurrence `∪_{var=lo}^{hi} body(var)` where `hi` mentions
    /// an enclosing recurrence variable (typically `i−1`).
    RecPartial {
        /// Bound recurrence variable (a name of its own, per the
        /// paper's Fig. 3: a pool binder).
        var: Sym,
        /// Inclusive lower bound.
        lo: SymExpr,
        /// Inclusive upper bound (loop-variant).
        hi: SymExpr,
        /// Per-iteration body, parametrized by `var`.
        body: Usr,
    },
}

struct Shared {
    /// Structural hash of `node` (children contribute their own).
    hash: u64,
    /// Every pool binder occurring in `node`, free or bound, on first use.
    binders: OnceCell<Binders>,
    node: UsrNode,
}

/// A reference-counted USR with structural equality and simplifying
/// constructors.
///
/// # Example
///
/// ```
/// use lip_usr::Usr;
/// use lip_lmad::{Lmad, LmadSet};
/// use lip_symbolic::{sym, SymExpr, BoolExpr};
///
/// let a = Usr::leaf(LmadSet::single(Lmad::interval(
///     SymExpr::konst(0),
///     SymExpr::var(sym("NS")) - SymExpr::konst(1),
/// )));
/// // Gating with `false` collapses to the empty set.
/// assert!(Usr::gate(BoolExpr::f(), a).is_empty());
/// ```
#[derive(Clone)]
pub struct Usr(Rc<Shared>);

impl PartialEq for Usr {
    fn eq(&self, other: &Usr) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.node == other.0.node)
    }
}

impl Eq for Usr {}

impl Hash for Usr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Usr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Usr").field(&self.0.node).finish()
    }
}

impl Usr {
    /// Wraps `node` as is; the smart constructors below simplify first.
    fn new(node: UsrNode) -> Usr {
        let mut h = TermHasher::default();
        node.hash(&mut h);
        Usr(Rc::new(Shared {
            hash: h.finish(),
            binders: OnceCell::new(),
            node,
        }))
    }

    /// The empty set.
    pub fn empty() -> Usr {
        Usr::new(UsrNode::Empty)
    }

    /// An exact LMAD-set leaf (an empty set collapses to [`Usr::empty`]).
    pub fn leaf(set: LmadSet) -> Usr {
        if set.is_empty() {
            Usr::empty()
        } else {
            Usr::new(UsrNode::Leaf(set))
        }
    }

    /// `a ∪ b` with unit/idempotence simplification; unions of leaves are
    /// computed exactly in the LMAD domain.
    pub fn union(a: Usr, b: Usr) -> Usr {
        match (a.node(), b.node()) {
            (UsrNode::Empty, _) => b,
            (_, UsrNode::Empty) => a,
            (UsrNode::Leaf(x), UsrNode::Leaf(y)) => Usr::leaf(x.union(y)),
            _ if a == b => a,
            _ => Usr::new(UsrNode::Union(a, b)),
        }
    }

    /// N-ary union.
    pub fn union_all<I: IntoIterator<Item = Usr>>(parts: I) -> Usr {
        parts.into_iter().fold(Usr::empty(), Usr::union)
    }

    /// `a ∩ b` with zero/idempotence simplification.
    pub fn intersect(a: Usr, b: Usr) -> Usr {
        match (a.node(), b.node()) {
            (UsrNode::Empty, _) | (_, UsrNode::Empty) => Usr::empty(),
            _ if a == b => a,
            _ => Usr::new(UsrNode::Intersect(a, b)),
        }
    }

    /// `a − b` with zero/idempotence simplification.
    pub fn subtract(a: Usr, b: Usr) -> Usr {
        match (a.node(), b.node()) {
            (UsrNode::Empty, _) => Usr::empty(),
            (_, UsrNode::Empty) => a,
            _ if a == b => Usr::empty(),
            _ => Usr::new(UsrNode::Subtract(a, b)),
        }
    }

    /// `p # s`: constant gates fold; nested gates merge conjunctively.
    pub fn gate(p: BoolExpr, s: Usr) -> Usr {
        if p.is_true() {
            return s;
        }
        if p.is_false() || s.is_empty() {
            return Usr::empty();
        }
        if let UsrNode::Gate(q, inner) = s.node() {
            let merged = BoolExpr::and(vec![p, q.clone()]);
            return Usr::gate(merged, inner.clone());
        }
        Usr::new(UsrNode::Gate(p, s))
    }

    /// Wraps a summary that cannot be translated across `site`.
    pub fn call(site: CallSiteId, body: Usr) -> Usr {
        if body.is_empty() {
            Usr::empty()
        } else {
            Usr::new(UsrNode::Call(site, body))
        }
    }

    /// Total recurrence `∪_{var=lo}^{hi} body`, with exact collapses:
    /// an empty body stays empty; a `var`-invariant body becomes the body
    /// gated by range non-emptiness; a leaf body that aggregates exactly
    /// in the LMAD domain becomes a leaf; `var`-invariant gates hoist out.
    pub fn rec_total(var: Sym, lo: SymExpr, hi: SymExpr, body: Usr) -> Usr {
        if body.is_empty() {
            return Usr::empty();
        }
        if !body.contains_sym(var) {
            return Usr::gate(BoolExpr::le(lo, hi), body);
        }
        if let UsrNode::Gate(p, inner) = body.node() {
            if !p.contains_sym(var) {
                return Usr::gate(p.clone(), Usr::rec_total(var, lo, hi, inner.clone()));
            }
        }
        if let UsrNode::Leaf(set) = body.node() {
            if let Some(agg) = set.aggregate(var, &lo, &hi) {
                return Usr::gate(BoolExpr::le(lo, hi), Usr::leaf(agg));
            }
        }
        // Unions distribute through recurrences exactly.
        if let UsrNode::Union(x, y) = body.node() {
            let (x, y) = (x.clone(), y.clone());
            return Usr::union(
                Usr::rec_total(var, lo.clone(), hi.clone(), x),
                Usr::rec_total(var, lo, hi, y),
            );
        }
        Usr::new(UsrNode::RecTotal { var, lo, hi, body })
    }

    /// Partial recurrence (same simplifications as [`Usr::rec_total`]).
    pub fn rec_partial(var: Sym, lo: SymExpr, hi: SymExpr, body: Usr) -> Usr {
        if body.is_empty() {
            return Usr::empty();
        }
        if !body.contains_sym(var) {
            return Usr::gate(BoolExpr::le(lo, hi), body);
        }
        if let UsrNode::Leaf(set) = body.node() {
            if let Some(agg) = set.aggregate(var, &lo, &hi) {
                return Usr::gate(BoolExpr::le(lo, hi), Usr::leaf(agg));
            }
        }
        if let UsrNode::Union(x, y) = body.node() {
            let (x, y) = (x.clone(), y.clone());
            return Usr::union(
                Usr::rec_partial(var, lo.clone(), hi.clone(), x),
                Usr::rec_partial(var, lo, hi, y),
            );
        }
        Usr::new(UsrNode::RecPartial { var, lo, hi, body })
    }

    /// The underlying node, for pattern matching.
    pub fn node(&self) -> &UsrNode {
        &self.0.node
    }

    /// Every pool binder occurring in the summary, free or bound
    /// (computed once per node). `first_free()` of it, joined with the
    /// binders of whatever else a new binder scopes over, is a binder
    /// that renaming to cannot capture.
    pub fn binders(&self) -> Binders {
        *self.0.binders.get_or_init(|| match self.node() {
            UsrNode::Empty => Binders::default(),
            UsrNode::Leaf(set) => set.binders(),
            UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
                a.binders() | b.binders()
            }
            UsrNode::Gate(p, body) => p.binders() | body.binders(),
            UsrNode::Call(_, body) => body.binders(),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                Binders::of(*var) | lo.binders() | hi.binders() | body.binders()
            }
        })
    }

    /// A stable identity for memoization tables.
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// Whether this is syntactically the empty set.
    pub fn is_empty(&self) -> bool {
        matches!(self.node(), UsrNode::Empty)
    }

    /// Whether the symbol `s` occurs anywhere (bound recurrence variables
    /// shadow: occurrences of a recurrence's own variable inside its body
    /// do not count as free).
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self.node() {
            UsrNode::Empty => false,
            UsrNode::Leaf(set) => set.contains_sym(s),
            UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
                a.contains_sym(s) || b.contains_sym(s)
            }
            UsrNode::Gate(p, body) => p.contains_sym(s) || body.contains_sym(s),
            UsrNode::Call(_, body) => body.contains_sym(s),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                lo.contains_sym(s) || hi.contains_sym(s) || (*var != s && body.contains_sym(s))
            }
        }
    }

    /// All free symbols.
    pub fn free_syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Sym>) {
        match self.node() {
            UsrNode::Empty => {}
            UsrNode::Leaf(set) => out.extend(set.syms()),
            UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            UsrNode::Gate(p, body) => {
                out.extend(p.syms());
                body.collect_free(out);
            }
            UsrNode::Call(_, body) => body.collect_free(out),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                out.extend(lo.syms());
                out.extend(hi.syms());
                let mut inner = BTreeSet::new();
                body.collect_free(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
        }
    }

    /// Substitutes `with` for free occurrences of variable `s`. A
    /// recurrence whose variable `with` mentions is renamed first, to a
    /// binder occurring nowhere in its body, in `with` or as `s`, so
    /// nothing `with` brings in is captured.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> Usr {
        if !self.contains_sym(s) {
            return self.clone();
        }
        match self.node() {
            UsrNode::Empty => Usr::empty(),
            UsrNode::Leaf(set) => Usr::leaf(set.subst(s, with)),
            UsrNode::Union(a, b) => Usr::union(a.subst(s, with), b.subst(s, with)),
            UsrNode::Intersect(a, b) => Usr::intersect(a.subst(s, with), b.subst(s, with)),
            UsrNode::Subtract(a, b) => Usr::subtract(a.subst(s, with), b.subst(s, with)),
            UsrNode::Gate(p, body) => Usr::gate(p.subst(s, with), body.subst(s, with)),
            UsrNode::Call(site, body) => Usr::call(*site, body.subst(s, with)),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                let (mut var, mut body) = (*var, body.clone());
                if var != s && body.contains_sym(s) {
                    if with.contains_sym(var) {
                        let to = (body.binders() | with.binders() | Binders::of(s)).first_free();
                        body = body.rename_bound(var, to);
                        var = to;
                    }
                    body = body.subst(s, with);
                }
                let (lo, hi) = (lo.subst(s, with), hi.subst(s, with));
                match self.node() {
                    UsrNode::RecTotal { .. } => Usr::rec_total(var, lo, hi, body),
                    _ => Usr::rec_partial(var, lo, hi, body),
                }
            }
        }
    }

    /// Renames the bound variable of a recurrence body: returns the body
    /// of this node with `from` substituted by the variable `to`.
    pub fn rename_bound(&self, from: Sym, to: Sym) -> Usr {
        self.subst(from, &SymExpr::var(to))
    }

    /// Node count (DAG nodes counted once).
    pub fn size(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.size_inner(&mut seen)
    }

    fn size_inner(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        if !seen.insert(self.id()) {
            return 0;
        }
        1 + match self.node() {
            UsrNode::Empty | UsrNode::Leaf(_) => 0,
            UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
                a.size_inner(seen) + b.size_inner(seen)
            }
            UsrNode::Gate(_, body) | UsrNode::Call(_, body) => body.size_inner(seen),
            UsrNode::RecTotal { body, .. } | UsrNode::RecPartial { body, .. } => {
                body.size_inner(seen)
            }
        }
    }
}

impl fmt::Display for Usr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            UsrNode::Empty => write!(f, "{{}}"),
            UsrNode::Leaf(set) => write!(f, "{set}"),
            UsrNode::Union(a, b) => write!(f, "({a} u {b})"),
            UsrNode::Intersect(a, b) => write!(f, "({a} n {b})"),
            UsrNode::Subtract(a, b) => write!(f, "({a} - {b})"),
            UsrNode::Gate(p, body) => write!(f, "({p} # {body})"),
            UsrNode::Call(site, body) => write!(f, "(call {site}: {body})"),
            UsrNode::RecTotal { var, lo, hi, body } => {
                write!(f, "U[{var}={lo}..{hi}]({body})")
            }
            UsrNode::RecPartial { var, lo, hi, body } => {
                write!(f, "Upartial[{var}={lo}..{hi}]({body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_lmad::Lmad;
    use lip_symbolic::sym;

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    fn iv(lo: SymExpr, hi: SymExpr) -> Usr {
        Usr::leaf(LmadSet::single(Lmad::interval(lo, hi)))
    }

    #[test]
    fn unit_laws() {
        let a = iv(k(0), v("N"));
        assert_eq!(Usr::union(Usr::empty(), a.clone()), a);
        assert_eq!(Usr::union(a.clone(), Usr::empty()), a);
        assert!(Usr::intersect(Usr::empty(), a.clone()).is_empty());
        assert!(Usr::subtract(Usr::empty(), a.clone()).is_empty());
        assert_eq!(Usr::subtract(a.clone(), Usr::empty()), a);
        assert!(Usr::subtract(a.clone(), a.clone()).is_empty());
        assert_eq!(Usr::intersect(a.clone(), a.clone()), a);
    }

    #[test]
    fn leaf_union_is_exact() {
        let a = iv(k(0), k(5));
        let b = iv(k(10), k(15));
        let u = Usr::union(a, b);
        assert!(matches!(u.node(), UsrNode::Leaf(s) if s.lmads().len() == 2));
    }

    #[test]
    fn gate_folding() {
        let a = iv(k(0), k(5));
        assert_eq!(Usr::gate(BoolExpr::t(), a.clone()), a);
        assert!(Usr::gate(BoolExpr::f(), a.clone()).is_empty());
        // Nested gates merge.
        let g1 = BoolExpr::ne(v("SYM"), k(1));
        let g2 = BoolExpr::gt0(v("NP"));
        let nested = Usr::gate(g1.clone(), Usr::gate(g2.clone(), a));
        match nested.node() {
            UsrNode::Gate(p, _) => {
                assert_eq!(*p, BoolExpr::and(vec![g1, g2]));
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn rec_total_aggregates_leaf() {
        // ∪_{i=1..N} {32(i-1)} = [32]v[32(N-1)]+0 gated on 1<=N.
        let body = Usr::leaf(LmadSet::single(Lmad::point((v("i") - k(1)).scale(32))));
        let agg = Usr::rec_total(sym("i"), k(1), v("N"), body);
        match agg.node() {
            UsrNode::Gate(p, inner) => {
                assert_eq!(*p, BoolExpr::le(k(1), v("N")));
                assert!(matches!(inner.node(), UsrNode::Leaf(_)));
            }
            other => panic!("expected gated leaf, got {other:?}"),
        }
    }

    #[test]
    fn rec_total_invariant_body_hoists() {
        let body = iv(k(0), v("M"));
        let agg = Usr::rec_total(sym("i"), k(1), v("N"), body.clone());
        match agg.node() {
            UsrNode::Gate(p, inner) => {
                assert_eq!(*p, BoolExpr::le(k(1), v("N")));
                assert_eq!(*inner, body);
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn rec_total_keeps_irreducible_bodies() {
        // Triangular span prevents aggregation.
        let body = iv(k(0), v("i"));
        let agg = Usr::rec_total(sym("i"), k(1), v("N"), body);
        assert!(matches!(agg.node(), UsrNode::RecTotal { .. }));
    }

    #[test]
    fn rec_var_is_bound() {
        let body = iv(k(0), v("i"));
        let agg = Usr::rec_total(sym("i"), k(1), v("N"), body);
        assert!(!agg.free_syms().contains(&sym("i")));
        assert!(agg.free_syms().contains(&sym("N")));
        // Substituting the bound var is a no-op on the body.
        let same = agg.subst(sym("i"), &k(7));
        assert_eq!(same, agg);
    }

    #[test]
    fn subst_into_gate_and_leaf() {
        let u = Usr::gate(BoolExpr::gt0(v("i")), iv(v("i"), v("i") + k(3)));
        let r = u.subst(sym("i"), &k(2));
        match r.node() {
            UsrNode::Leaf(s) => {
                assert_eq!(s.lmads()[0], Lmad::interval(k(2), k(5)));
            }
            other => panic!("gate should fold to leaf after subst, got {other:?}"),
        }
    }

    #[test]
    fn union_distributes_through_recurrence() {
        let body = Usr::union(
            iv(v("i"), v("i")),
            Usr::gate(BoolExpr::gt0(v("c") - v("i")), iv(k(0), v("i"))),
        );
        let agg = Usr::rec_total(sym("i"), k(1), v("N"), body);
        // First component aggregates exactly; second stays a recurrence.
        assert!(matches!(agg.node(), UsrNode::Union(_, _)));
    }

    #[test]
    // The lazily filled binder set is not part of `Hash` or `Eq`.
    #[allow(clippy::mutable_key_type)]
    fn structural_equality_and_hash() {
        use std::collections::HashSet;
        let a = iv(k(0), v("N"));
        let b = iv(k(0), v("N"));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn size_counts_dag_nodes_once() {
        let shared = iv(k(0), v("N"));
        // The leaf union merges exactly, so the left side is one leaf.
        let u = Usr::intersect(Usr::union(shared.clone(), iv(k(1), k(2))), shared.clone());
        // intersect + merged-union leaf + shared = 3.
        assert_eq!(u.size(), 3);
    }
}
