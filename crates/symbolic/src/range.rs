//! Symbolic range environments.
//!
//! A [`RangeEnv`] records, for each interesting symbol (mostly loop
//! indexes), a symbolic lower and upper bound, together with a set of
//! *assumed facts* (predicates known to hold, e.g. `N ≥ 1` from a loop's
//! trip-count guard). Ranges feed the Fourier–Motzkin elimination of
//! [`crate::fm`] and the static decision procedure [`RangeEnv::decide`].
//!
//! An analysis that walks nested quantifiers asks the same question of
//! the same environment many times over. [`Scopes`] is the tree of
//! environments such a walk visits — a root plus, per node, the chain of
//! `bind` calls that led there — with one decision memo per node.

use std::collections::HashMap;

use crate::boolexpr::BoolExpr;
use crate::expr::{SymExpr, TermBuildHasher};
use crate::sym::Sym;

/// Symbolic bounds for one variable.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VarRange {
    /// Inclusive lower bound, if known.
    pub lo: Option<SymExpr>,
    /// Inclusive upper bound, if known.
    pub hi: Option<SymExpr>,
}

/// A set of variable ranges plus assumed facts.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RangeEnv {
    ranges: HashMap<Sym, VarRange>,
    facts: Vec<BoolExpr>,
}

impl RangeEnv {
    /// Creates an empty environment.
    pub fn new() -> RangeEnv {
        RangeEnv::default()
    }

    /// Adds an inclusive range `lo ≤ s ≤ hi` (builder style).
    pub fn with_range(mut self, s: Sym, lo: SymExpr, hi: SymExpr) -> RangeEnv {
        self.set_range(s, lo, hi);
        self
    }

    /// Adds an assumed fact (builder style).
    pub fn with_fact(mut self, fact: BoolExpr) -> RangeEnv {
        self.assume(fact);
        self
    }

    /// Enters a quantifier: `s` becomes a *new* variable ranging over
    /// `lo ..= hi`. Whatever the environment said about a symbol of that
    /// name — an enclosing quantifier over the same variable, which
    /// binders drawn from one pool make common — is about the outer one:
    /// its range, other ranges and facts mentioning it are dropped, and
    /// bounds in terms of it bound nothing.
    pub fn bind(&mut self, s: Sym, lo: SymExpr, hi: SymExpr) {
        let mentions = |e: &Option<SymExpr>| e.as_ref().is_some_and(|e| e.contains_sym(s));
        self.ranges
            .retain(|v, r| *v != s && !mentions(&r.lo) && !mentions(&r.hi));
        self.facts.retain(|f| !f.contains_sym(s));
        if !lo.contains_sym(s) && !hi.contains_sym(s) {
            self.set_range(s, lo, hi);
        }
    }

    /// Adds an inclusive range `lo ≤ s ≤ hi`.
    pub fn set_range(&mut self, s: Sym, lo: SymExpr, hi: SymExpr) {
        self.ranges.insert(
            s,
            VarRange {
                lo: Some(lo),
                hi: Some(hi),
            },
        );
    }

    /// Records `fact` as known-true. Conjunctions are split so each
    /// conjunct can be matched independently.
    pub fn assume(&mut self, fact: BoolExpr) {
        match fact {
            BoolExpr::Const(_) => {}
            BoolExpr::And(parts) => {
                for p in parts.iter() {
                    self.assume(p.clone());
                }
            }
            other => self.facts.push(other),
        }
    }

    /// The recorded range of `s`, if any.
    pub fn range(&self, s: Sym) -> Option<&VarRange> {
        self.ranges.get(&s)
    }

    /// Symbols with both bounds known — the Fourier–Motzkin elimination
    /// candidates.
    pub fn bounded_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.ranges
            .iter()
            .filter(|(_, r)| r.lo.is_some() && r.hi.is_some())
            .map(|(s, _)| *s)
    }

    /// All assumed facts.
    pub fn facts(&self) -> &[BoolExpr] {
        &self.facts
    }

    /// Tries to decide `p` statically. Returns `Some(true)` /
    /// `Some(false)` only when the environment *proves* the answer;
    /// `None` when undecidable with the available information.
    ///
    /// The procedure is deliberately lightweight (the paper's static side
    /// relies on ranges plus Fourier–Motzkin, not on a full solver):
    /// constant folding happened at construction, so here we consult the
    /// assumed facts and the derived bounds of the inequality's expression.
    pub fn decide(&self, p: &BoolExpr) -> Option<bool> {
        match p {
            BoolExpr::Const(b) => Some(*b),
            BoolExpr::And(ps) => {
                let mut all = true;
                for q in ps.iter() {
                    match self.decide(q) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all = false,
                    }
                }
                all.then_some(true)
            }
            BoolExpr::Or(ps) => {
                let mut none = true;
                for q in ps.iter() {
                    match self.decide(q) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => none = false,
                    }
                }
                none.then_some(false)
            }
            _ => {
                if self.implied_by_facts(p) {
                    return Some(true);
                }
                if self.implied_by_facts(&p.negated()) {
                    return Some(false);
                }
                match p {
                    BoolExpr::Ge0(e) => self.sign_decide(e, false),
                    BoolExpr::Gt0(e) => self.sign_decide(e, true),
                    _ => None,
                }
            }
        }
    }

    /// Decides `e ≥ 0` (or `e > 0` when `strict`) from symbol bounds via
    /// interval reasoning, recursing through Fourier–Motzkin-style
    /// substitution of bounded symbols.
    fn sign_decide(&self, e: &SymExpr, strict: bool) -> Option<bool> {
        if let Some(lo) = self.lower_bound(e, 0) {
            if lo > 0 || (!strict && lo == 0) {
                return Some(true);
            }
        }
        if let Some(hi) = self.upper_bound(e, 0) {
            if hi < 0 || (strict && hi == 0) {
                return Some(false);
            }
        }
        None
    }

    /// A constant lower bound of `e`, if derivable by substituting bounded
    /// symbols (depth-limited).
    pub fn lower_bound(&self, e: &SymExpr, depth: u32) -> Option<i64> {
        self.extreme(e, false, depth)
    }

    /// A constant upper bound of `e`, if derivable.
    pub fn upper_bound(&self, e: &SymExpr, depth: u32) -> Option<i64> {
        self.extreme(e, true, depth)
    }

    /// The lower (or `upper`) bound of `e`: pick a bounded symbol that
    /// occurs as `c·s` with a constant `c` and nowhere else, substitute
    /// the end of its range that minimizes (maximizes) `e`, repeat.
    fn extreme(&self, e: &SymExpr, upper: bool, depth: u32) -> Option<i64> {
        if let Some(c) = e.as_const() {
            return Some(c);
        }
        if depth > 8 {
            return None;
        }
        for s in e.factor_vars() {
            let Some(r) = self.ranges.get(&s) else {
                continue;
            };
            let Some(c) = e.linear_coeff(s) else {
                continue;
            };
            // e = c·s + b: a positive `c` is smallest at `lo`.
            let end = if (c > 0) != upper { &r.lo } else { &r.hi };
            let Some(end) = end else {
                continue;
            };
            if let Some(v) = self.extreme(&e.subst(s, end), upper, depth + 1) {
                return Some(v);
            }
        }
        None
    }

    /// Whether some recorded fact syntactically implies `p`.
    ///
    /// Handles: exact match; `f ≥ 0 ⇒ p ≥ 0` when `p - f` has a
    /// non-negative constant difference; the analogous strict cases; and
    /// equality/disequality matches.
    fn implied_by_facts(&self, p: &BoolExpr) -> bool {
        self.facts.iter().any(|f| implies(f, p))
    }
}

/// One environment of a [`Scopes`] tree.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ScopeId(u32);

struct Scope {
    env: RangeEnv,
    is_root: bool,
    /// `(var, lo, hi, child)`: the scope `bind(var, lo, hi)` leads to.
    children: Vec<(Sym, SymExpr, SymExpr, ScopeId)>,
    decided: HashMap<BoolExpr, Option<bool>, TermBuildHasher>,
}

/// A tree of [`RangeEnv`]s with memoized [`RangeEnv::decide`] verdicts.
///
/// A scope is identified by its root environment and the chain of
/// [`Scopes::enter`] calls from it, so every visit of the same quantifier
/// nest shares one environment (built once) and one verdict per leaf.
/// Verdicts never cross scopes: `i > 0` is true under `i ∈ 1..N` and
/// undecided under `i ∈ 0..N`.
#[derive(Default)]
pub struct Scopes {
    scopes: Vec<Scope>,
    decide_evals: u64,
    decide_hits: u64,
}

impl Scopes {
    /// An empty tree.
    pub fn new() -> Scopes {
        Scopes::default()
    }

    fn push(&mut self, env: RangeEnv, is_root: bool) -> ScopeId {
        let id = ScopeId(u32::try_from(self.scopes.len()).expect("scope count fits u32"));
        self.scopes.push(Scope {
            env,
            is_root,
            children: Vec::new(),
            decided: HashMap::default(),
        });
        id
    }

    /// The root scope for `env` (an equal root registered earlier is
    /// reused, with everything already decided under it).
    pub fn root(&mut self, env: &RangeEnv) -> ScopeId {
        let known = self.scopes.iter().position(|s| s.is_root && s.env == *env);
        match known {
            Some(k) => ScopeId(k as u32),
            None => self.push(env.clone(), true),
        }
    }

    /// The scope reached from `parent` by `bind(var, lo, hi)`.
    pub fn enter(&mut self, parent: ScopeId, var: Sym, lo: &SymExpr, hi: &SymExpr) -> ScopeId {
        let p = &self.scopes[parent.0 as usize];
        let known = p
            .children
            .iter()
            .find(|(v, l, h, _)| *v == var && l == lo && h == hi);
        if let Some((_, _, _, child)) = known {
            return *child;
        }
        let mut env = p.env.clone();
        env.bind(var, lo.clone(), hi.clone());
        let child = self.push(env, false);
        self.scopes[parent.0 as usize]
            .children
            .push((var, lo.clone(), hi.clone(), child));
        child
    }

    /// The environment of `scope`.
    pub fn env(&self, scope: ScopeId) -> &RangeEnv {
        &self.scopes[scope.0 as usize].env
    }

    /// [`RangeEnv::decide`] under `scope`, evaluated once per distinct
    /// predicate.
    pub fn decide(&mut self, scope: ScopeId, p: &BoolExpr) -> Option<bool> {
        let s = &mut self.scopes[scope.0 as usize];
        if let Some(v) = s.decided.get(p) {
            self.decide_hits += 1;
            return *v;
        }
        self.decide_evals += 1;
        let v = s.env.decide(p);
        s.decided.insert(p.clone(), v);
        v
    }

    /// `(evaluations, memo hits)` of [`Scopes::decide`] so far.
    pub fn decide_counts(&self) -> (u64, u64) {
        (self.decide_evals, self.decide_hits)
    }
}

/// Syntactic single-fact implication `f ⇒ p`.
pub fn implies(f: &BoolExpr, p: &BoolExpr) -> bool {
    if f == p {
        return true;
    }
    // `ep − ef`, when that is a constant.
    let above = |ep: &SymExpr, ef: &SymExpr| ep.combination_const(1, -1, ef);
    match (f, p) {
        // f: ef ≥ 0, p: ep ≥ 0 — holds if ep = ef + c with c ≥ 0.
        (BoolExpr::Ge0(ef), BoolExpr::Ge0(ep)) => above(ep, ef).is_some_and(|c| c >= 0),
        // f: ef > 0, p: ep ≥ 0 — holds if ep = ef + c with c ≥ -1.
        (BoolExpr::Gt0(ef), BoolExpr::Ge0(ep)) => above(ep, ef).is_some_and(|c| c >= -1),
        (BoolExpr::Gt0(ef), BoolExpr::Gt0(ep)) => above(ep, ef).is_some_and(|c| c >= 0),
        (BoolExpr::Ge0(ef), BoolExpr::Gt0(ep)) => above(ep, ef).is_some_and(|c| c >= 1),
        // Equality implies both non-strict inequalities on the same expr.
        (BoolExpr::Eq0(ef), BoolExpr::Ge0(ep)) => {
            above(ep, ef).is_some_and(|c| c >= 0)
                || ep.combination_const(1, 1, ef).is_some_and(|c| c >= 0)
        }
        // Strict inequality implies disequality.
        (BoolExpr::Gt0(ef), BoolExpr::Ne0(ep)) => {
            ef == ep || ep.combination_const(1, 1, ef) == Some(0)
        }
        _ => false,
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
    fn bounds_decide_inequalities() {
        // 1 <= i <= 10 proves i + 5 > 0 and refutes i - 11 >= 0.
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), SymExpr::konst(10));
        let p = BoolExpr::gt0(v("i") + SymExpr::konst(5));
        assert_eq!(env.decide(&p), Some(true));
        let q = BoolExpr::ge0(v("i") - SymExpr::konst(11));
        assert_eq!(env.decide(&q), Some(false));
        let r = BoolExpr::ge0(v("i") - SymExpr::konst(5));
        assert_eq!(env.decide(&r), None);
    }

    #[test]
    fn nested_symbolic_bounds() {
        // 1 <= i <= N, 1 <= N <= 100 proves i <= 100 i.e. 100 - i >= 0.
        let env = RangeEnv::new()
            .with_range(sym("i"), SymExpr::konst(1), v("N"))
            .with_range(sym("N"), SymExpr::konst(1), SymExpr::konst(100));
        let p = BoolExpr::ge0(SymExpr::konst(100) - v("i"));
        assert_eq!(env.decide(&p), Some(true));
    }

    #[test]
    fn facts_imply() {
        // Fact N >= 1 proves N >= 0 and N + 3 > 0.
        let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("N") - SymExpr::konst(1)));
        assert_eq!(env.decide(&BoolExpr::ge0(v("N"))), Some(true));
        assert_eq!(
            env.decide(&BoolExpr::gt0(v("N") + SymExpr::konst(3))),
            Some(true)
        );
        // And refutes the negation N < 0, i.e. decide(-N > 0) = false.
        assert_eq!(env.decide(&BoolExpr::gt0(-v("N"))), Some(false));
    }

    #[test]
    fn conjunction_decision() {
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), SymExpr::konst(10));
        let both = BoolExpr::and(vec![
            BoolExpr::gt0(v("i")),
            BoolExpr::ge0(SymExpr::konst(10) - v("i")),
        ]);
        assert_eq!(env.decide(&both), Some(true));
    }

    /// The same leaf under two different quantifier ranges must not
    /// share a verdict: `∀ i∈1..N: i>0` is true, `∀ i∈0..N: i>0` is not
    /// decided.
    #[test]
    fn scopes_keep_verdicts_apart() {
        let mut scopes = Scopes::new();
        let root = scopes.root(&RangeEnv::new());
        let leaf = BoolExpr::gt0(v("i"));
        let from_one = scopes.enter(root, sym("i"), &SymExpr::konst(1), &v("N"));
        let from_zero = scopes.enter(root, sym("i"), &SymExpr::konst(0), &v("N"));
        assert_ne!(from_one, from_zero);
        assert_eq!(scopes.decide(from_one, &leaf), Some(true));
        assert_eq!(scopes.decide(from_zero, &leaf), None);
        assert_eq!(scopes.decide(root, &leaf), None);
        // Re-entering finds the same scope and its memo.
        let again = scopes.enter(root, sym("i"), &SymExpr::konst(1), &v("N"));
        assert_eq!(again, from_one);
        assert_eq!(scopes.decide(again, &leaf), Some(true));
        assert_eq!(scopes.decide_counts(), (3, 1));
        // An equal root is the same root; a different one is not.
        assert_eq!(scopes.root(&RangeEnv::new()), root);
        let other = scopes.root(&RangeEnv::new().with_fact(BoolExpr::gt0(v("i"))));
        assert_ne!(other, root);
        assert_eq!(scopes.decide(other, &leaf), Some(true));
    }

    /// `∀ j ∈ 1..i-1: ∀ i ∈ 5..6: …` — the inner `i` is a new variable:
    /// `j ≤ i - 1` was about the outer one and must not bound the inner.
    #[test]
    fn binding_forgets_the_outer_variable() {
        let (i, j) = (sym("i"), sym("j"));
        let mut env = RangeEnv::new()
            .with_range(i, SymExpr::konst(1), v("N"))
            .with_range(j, SymExpr::konst(1), v("i") - SymExpr::konst(1))
            .with_fact(BoolExpr::gt0(v("i") - SymExpr::konst(3)))
            .with_fact(BoolExpr::gt0(v("N")));
        // Under the outer binding, j < i holds.
        let j_below_i = BoolExpr::gt0(v("i") - v("j"));
        assert_eq!(env.decide(&j_below_i), Some(true));
        env.bind(i, SymExpr::konst(5), SymExpr::konst(6));
        assert_eq!(env.decide(&j_below_i), None);
        assert!(env.range(j).is_none());
        assert_eq!(env.facts(), &[BoolExpr::gt0(v("N"))]);
        assert_eq!(
            env.decide(&BoolExpr::gt0(v("i") - SymExpr::konst(4))),
            Some(true)
        );
        // Bounds in terms of the variable being bound are not recorded.
        env.bind(i, SymExpr::konst(1), v("i"));
        assert!(env.range(i).is_none());
    }

    #[test]
    fn negative_coefficient_bounds() {
        // 1 <= i <= N with N <= 50: upper bound of -2i is -2.
        let env = RangeEnv::new()
            .with_range(sym("i"), SymExpr::konst(1), v("N"))
            .with_range(sym("N"), SymExpr::konst(1), SymExpr::konst(50));
        let e = v("i").scale(-2);
        assert_eq!(env.upper_bound(&e, 0), Some(-2));
        assert_eq!(env.lower_bound(&e, 0), Some(-100));
    }
}
