//! The PDAG predicate language.
//!
//! Like the USR it mirrors, a PDAG is a DAG: leaves are [`BoolExpr`]s,
//! interior nodes are `∧`/`∨` (n-ary, flattened), irreducible loop-level
//! conjunctions `∧_{i=lo}^{hi}` ([`PdagNode::ForAll`]) and untranslatable
//! call sites ([`PdagNode::AtCall`]).
//!
//! A [`Pdag`] is a reference-counted handle to an immutable node that
//! carries its structural hash: cloning shares the node, hashing reads
//! the cached value, and equality is a pointer comparison first, a hash
//! comparison second and a structural walk only for two separately
//! built equal nodes. [`crate::PredCtx`] interns the nodes one analysis
//! builds, so that within it equal means identical.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use lip_symbolic::{BoolExpr, EvalCtx, ScopedCtx, Sym, SymExpr, TermHasher};
use lip_usr::CallSiteId;

/// One node of the predicate DAG, for pattern matching ([`Pdag::node`]).
///
/// Variant and field order define the canonical child order of `∧`/`∨`
/// (which is evaluation order, hence what a runtime test costs).
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PdagNode {
    /// Constant truth value.
    Bool(bool),
    /// A boolean-expression leaf.
    Leaf(BoolExpr),
    /// N-ary conjunction (flattened, sorted, deduplicated).
    And(Vec<Pdag>),
    /// N-ary disjunction (flattened, sorted, deduplicated).
    Or(Vec<Pdag>),
    /// Irreducible loop conjunction `∧_{var=lo}^{hi} body(var)`.
    ForAll {
        /// Bound variable.
        var: Sym,
        /// Inclusive lower bound.
        lo: SymExpr,
        /// Inclusive upper bound.
        hi: SymExpr,
        /// Per-iteration predicate.
        body: Pdag,
    },
    /// A predicate that must be evaluated across a call-site barrier.
    AtCall(CallSiteId, Pdag),
}

#[derive(Debug)]
struct Shared {
    /// Structural hash of `node` (children contribute their own).
    hash: u64,
    node: PdagNode,
}

/// A predicate-DAG node: a shared, immutable, hash-carrying handle.
#[derive(Clone, Debug)]
pub struct Pdag(Rc<Shared>);

impl PartialEq for Pdag {
    fn eq(&self, other: &Pdag) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.node == other.0.node)
    }
}

impl Eq for Pdag {}

impl PartialOrd for Pdag {
    fn partial_cmp(&self, other: &Pdag) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pdag {
    fn cmp(&self, other: &Pdag) -> std::cmp::Ordering {
        if Rc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.node.cmp(&other.0.node)
        }
    }
}

impl Hash for Pdag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl Pdag {
    /// Wraps `node` as is — no flattening, folding or sorting. The
    /// smart constructors below are what keeps `∧`/`∨` canonical.
    pub fn raw(node: PdagNode) -> Pdag {
        let mut h = TermHasher::default();
        node.hash(&mut h);
        Pdag(Rc::new(Shared {
            hash: h.finish(),
            node,
        }))
    }

    /// The node, for pattern matching.
    pub fn node(&self) -> &PdagNode {
        &self.0.node
    }

    /// The node's address: equal ids mean the same shared node.
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// How many handles share this node.
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.0)
    }

    /// The constant `true`.
    pub fn t() -> Pdag {
        Pdag::raw(PdagNode::Bool(true))
    }

    /// The constant `false`.
    pub fn f() -> Pdag {
        Pdag::raw(PdagNode::Bool(false))
    }

    /// A leaf, folding constant boolean expressions.
    pub fn leaf(b: BoolExpr) -> Pdag {
        match b {
            BoolExpr::Const(v) => Pdag::raw(PdagNode::Bool(v)),
            other => Pdag::raw(PdagNode::Leaf(other)),
        }
    }

    /// Flattening conjunction.
    pub fn and(parts: Vec<Pdag>) -> Pdag {
        Pdag::connective(parts, true)
    }

    /// Flattening disjunction.
    pub fn or(parts: Vec<Pdag>) -> Pdag {
        Pdag::connective(parts, false)
    }

    /// `∧` (`conj`) or `∨` of `parts`: the unit constant drops out, the
    /// zero constant wins, same-connective children flatten, the rest
    /// is sorted and deduplicated.
    fn connective(parts: Vec<Pdag>, conj: bool) -> Pdag {
        if let Some(zero) = parts
            .iter()
            .find(|p| matches!(p.node(), PdagNode::Bool(b) if *b != conj))
        {
            return zero.clone();
        }
        let nested = |p: &Pdag| match p.node() {
            PdagNode::And(_) => conj,
            PdagNode::Or(_) => !conj,
            _ => false,
        };
        // Nearly always there is nothing to flatten: `parts` is reused.
        let mut flat = parts;
        if flat.iter().any(nested) {
            flat = flat
                .iter()
                .flat_map(|p| match p.node() {
                    PdagNode::And(inner) | PdagNode::Or(inner) if nested(p) => inner.as_slice(),
                    _ => std::slice::from_ref(p),
                })
                .cloned()
                .collect();
        }
        flat.retain(|p| !matches!(p.node(), PdagNode::Bool(_)));
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => Pdag::raw(PdagNode::Bool(conj)),
            1 => flat.pop().expect("len checked"),
            _ if conj => Pdag::raw(PdagNode::And(flat)),
            _ => Pdag::raw(PdagNode::Or(flat)),
        }
    }

    /// `∧_{var=lo}^{hi} body`: true over an empty range; a `var`-invariant
    /// body hoists out (guarded by range emptiness).
    pub fn forall(var: Sym, lo: SymExpr, hi: SymExpr, body: Pdag) -> Pdag {
        match body.node() {
            PdagNode::Bool(true) => body,
            // Vacuously true only when the range is empty.
            PdagNode::Bool(false) => Pdag::leaf(BoolExpr::lt(hi, lo)),
            _ if !body.contains_sym(var) => Pdag::or(vec![Pdag::leaf(BoolExpr::lt(hi, lo)), body]),
            _ => Pdag::raw(PdagNode::ForAll { var, lo, hi, body }),
        }
    }

    /// Wraps a predicate behind a call-site barrier.
    pub fn at_call(site: CallSiteId, body: Pdag) -> Pdag {
        match body.node() {
            PdagNode::Bool(_) => body,
            _ => Pdag::raw(PdagNode::AtCall(site, body)),
        }
    }

    /// Whether this is the constant `true`.
    pub fn is_true(&self) -> bool {
        matches!(self.node(), PdagNode::Bool(true))
    }

    /// Whether this is the constant `false`.
    pub fn is_false(&self) -> bool {
        matches!(self.node(), PdagNode::Bool(false))
    }

    /// Whether `s` occurs free (ForAll binds its variable).
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self.node() {
            PdagNode::Bool(_) => false,
            PdagNode::Leaf(b) => b.contains_sym(s),
            PdagNode::And(ps) | PdagNode::Or(ps) => ps.iter().any(|p| p.contains_sym(s)),
            PdagNode::ForAll { var, lo, hi, body } => {
                lo.contains_sym(s) || hi.contains_sym(s) || (*var != s && body.contains_sym(s))
            }
            PdagNode::AtCall(_, body) => body.contains_sym(s),
        }
    }

    /// All free symbols (the inputs the generated test must read).
    pub fn free_syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Sym>) {
        match self.node() {
            PdagNode::Bool(_) => {}
            PdagNode::Leaf(b) => b.collect_syms(out),
            PdagNode::And(ps) | PdagNode::Or(ps) => {
                for p in ps {
                    p.collect_free(out);
                }
            }
            PdagNode::ForAll { var, lo, hi, body } => {
                lo.collect_syms(out);
                hi.collect_syms(out);
                let mut inner = BTreeSet::new();
                body.collect_free(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            PdagNode::AtCall(_, body) => body.collect_free(out),
        }
    }

    /// Substitutes `with` for free occurrences of `s`.
    pub fn subst(&self, s: Sym, with: &SymExpr) -> Pdag {
        if !self.contains_sym(s) {
            return self.clone();
        }
        match self.node() {
            PdagNode::Bool(_) => self.clone(),
            PdagNode::Leaf(b) => Pdag::leaf(b.subst(s, with)),
            PdagNode::And(ps) => Pdag::and(ps.iter().map(|p| p.subst(s, with)).collect()),
            PdagNode::Or(ps) => Pdag::or(ps.iter().map(|p| p.subst(s, with)).collect()),
            PdagNode::ForAll { var, lo, hi, body } => {
                let new_body = if *var == s {
                    body.clone()
                } else {
                    body.subst(s, with)
                };
                Pdag::forall(*var, lo.subst(s, with), hi.subst(s, with), new_body)
            }
            PdagNode::AtCall(site, body) => Pdag::at_call(*site, body.subst(s, with)),
        }
    }

    /// Evaluates to a concrete truth value. `ForAll`nodes iterate their
    /// range (up to `iter_limit` total iterations — the runtime-test
    /// budget); unbound symbols yield `None`.
    pub fn eval(&self, ctx: &dyn EvalCtx, iter_limit: u64) -> Option<bool> {
        let mut budget = iter_limit;
        self.eval_inner(ctx, &mut budget)
    }

    fn eval_inner(&self, ctx: &dyn EvalCtx, budget: &mut u64) -> Option<bool> {
        match self.node() {
            PdagNode::Bool(b) => Some(*b),
            PdagNode::Leaf(b) => b.eval(ctx),
            PdagNode::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval_inner(ctx, budget) {
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
            PdagNode::Or(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval_inner(ctx, budget) {
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
            PdagNode::ForAll { var, lo, hi, body } => {
                let lo = lo.eval(ctx)?;
                let hi = hi.eval(ctx)?;
                let mut iv = lo;
                while iv <= hi {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    let scoped = ScopedCtx::new(ctx, *var, iv);
                    match body.eval_inner(&scoped, budget) {
                        Some(true) => {}
                        other => return other,
                    }
                    iv += 1;
                }
                Some(true)
            }
            PdagNode::AtCall(_, body) => body.eval_inner(ctx, budget),
        }
    }

    /// The number of loop-conjunction iterations `eval` would perform —
    /// the runtime cost model used for RTov accounting.
    pub fn eval_cost(&self, ctx: &dyn EvalCtx) -> u64 {
        match self.node() {
            PdagNode::Bool(_) | PdagNode::Leaf(_) => 1,
            PdagNode::And(ps) | PdagNode::Or(ps) => ps.iter().map(|p| p.eval_cost(ctx)).sum(),
            PdagNode::ForAll { lo, hi, body, .. } => {
                let trip = match (lo.eval(ctx), hi.eval(ctx)) {
                    (Some(l), Some(h)) if h >= l => (h - l + 1) as u64,
                    _ => 1,
                };
                trip * body.eval_cost(ctx).max(1)
            }
            PdagNode::AtCall(_, body) => body.eval_cost(ctx),
        }
    }

    /// Number of leaves (a size measure for compile-time accounting).
    pub fn leaf_count(&self) -> usize {
        match self.node() {
            PdagNode::Bool(_) => 0,
            PdagNode::Leaf(_) => 1,
            PdagNode::And(ps) | PdagNode::Or(ps) => ps.iter().map(Pdag::leaf_count).sum(),
            PdagNode::ForAll { body, .. } | PdagNode::AtCall(_, body) => body.leaf_count(),
        }
    }
}

impl fmt::Display for Pdag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |f: &mut fmt::Formatter<'_>, ps: &[Pdag], op: &str| {
            write!(f, "(")?;
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, " {op} ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")
        };
        match self.node() {
            PdagNode::Bool(b) => write!(f, "{b}"),
            PdagNode::Leaf(b) => write!(f, "{b}"),
            PdagNode::And(ps) => join(f, ps, "AND"),
            PdagNode::Or(ps) => join(f, ps, "OR"),
            PdagNode::ForAll { var, lo, hi, body } => {
                write!(f, "ALL[{var}={lo}..{hi}]({body})")
            }
            PdagNode::AtCall(site, body) => write!(f, "atcall({site}, {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, MapCtx};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn constructors_fold_constants() {
        assert!(Pdag::and(vec![Pdag::t(), Pdag::t()]).is_true());
        assert!(Pdag::and(vec![Pdag::t(), Pdag::f()]).is_false());
        assert!(Pdag::or(vec![Pdag::f(), Pdag::t()]).is_true());
        assert!(Pdag::leaf(BoolExpr::le(k(1), k(2))).is_true());
    }

    #[test]
    fn and_or_flatten_and_dedupe() {
        let a = Pdag::leaf(BoolExpr::gt0(v("x")));
        let b = Pdag::leaf(BoolExpr::gt0(v("y")));
        let nested = Pdag::and(vec![a.clone(), Pdag::and(vec![b.clone(), a.clone()])]);
        match nested.node() {
            PdagNode::And(ps) => assert_eq!(ps.len(), 2),
            _ => panic!("expected And, got {nested}"),
        }
    }

    #[test]
    fn forall_with_false_body_tests_empty_range() {
        let p = Pdag::forall(sym("i"), k(1), v("N"), Pdag::f());
        // True exactly when the range is empty: N < 1.
        assert_eq!(p, Pdag::leaf(BoolExpr::lt(v("N"), k(1))));
    }

    #[test]
    fn forall_hoists_invariant_body() {
        let body = Pdag::leaf(BoolExpr::gt0(v("M")));
        let p = Pdag::forall(sym("i"), k(1), v("N"), body.clone());
        match p.node() {
            PdagNode::Or(parts) => {
                assert!(parts.contains(&body));
            }
            _ => panic!("expected Or, got {p}"),
        }
    }

    #[test]
    fn forall_eval_iterates() {
        // ∀ i in 1..=5: B(i) < B(i+1) with strictly increasing B.
        let body = Pdag::leaf(BoolExpr::lt(
            SymExpr::elem(sym("B"), v("i")),
            SymExpr::elem(sym("B"), v("i") + k(1)),
        ));
        let p = Pdag::forall(sym("i"), k(1), k(5), body);
        let mut ctx = MapCtx::new();
        ctx.set_array(sym("B"), 1, vec![1, 3, 5, 7, 9, 11]);
        assert_eq!(p.eval(&ctx, 1000), Some(true));
        ctx.set_array(sym("B"), 1, vec![1, 3, 2, 7, 9, 11]);
        assert_eq!(p.eval(&ctx, 1000), Some(false));
    }

    #[test]
    fn eval_budget_exhaustion_returns_none() {
        let body = Pdag::leaf(BoolExpr::gt0(v("i")));
        let p = Pdag::forall(sym("i"), k(1), k(1000), body);
        let ctx = MapCtx::new();
        assert_eq!(p.eval(&ctx, 10), None);
    }

    #[test]
    fn eval_cost_models_trip_count() {
        let body = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("N"), 100);
        assert_eq!(p.eval_cost(&ctx), 100);
    }

    #[test]
    fn subst_respects_binding() {
        let body = Pdag::leaf(BoolExpr::gt0(v("i") + v("N")));
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        // Substituting the bound var changes nothing.
        assert_eq!(p.subst(sym("i"), &k(3)), p);
        // Substituting N rewrites bounds and body.
        let q = p.subst(sym("N"), &k(4));
        match q.node() {
            PdagNode::ForAll { hi, .. } => assert_eq!(*hi, k(4)),
            _ => panic!("expected ForAll, got {q}"),
        }
    }

    #[test]
    fn free_syms_excludes_bound_var() {
        let body = Pdag::leaf(BoolExpr::gt0(v("i") + v("Q")));
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        let syms = p.free_syms();
        assert!(syms.contains(&sym("Q")));
        assert!(syms.contains(&sym("N")));
        assert!(!syms.contains(&sym("i")));
    }
}
