//! The per-analysis predicate context.
//!
//! One [`PredCtx`] lives exactly as long as one loop analysis. It owns
//! everything the predicate layer remembers while it works:
//!
//! * the **intern table** — every node [`crate::factor`],
//!   [`mod@crate::simplify`] and [`crate::cascade`] build goes through it,
//!   so equal nodes are one shared node and the tables below compare
//!   keys by address;
//! * the **scope tree** ([`Scopes`]) — a scope is the root [`RangeEnv`]
//!   plus the chain of quantifier ranges entered from it; each scope's
//!   environment is built once and carries its own `decide` memo;
//! * the memo tables of `simplify(scope, node)`,
//!   `strengthen_o1(scope, node)`, `eliminate_var(scope, var, node)` and
//!   the LMAD-pair predicates the factorizers bottom out in;
//! * the factorizers' answers — `FACTOR`, `INCLUDED` and `DISJOINT` per
//!   [`FactorConfig`] and USR *structure*, and the LMAD over- and
//!   underestimate per USR — shared by every factorizer of the analysis
//!   ([`crate::factor`] says why structure is enough).
//!
//! Each memo counts its misses (`*_evals`) and hits in [`CtxStats`];
//! `analyze_loop` reports them as `core.*` / `symbolic.*` counters.
//!
//! Nothing here is global or thread-local: dropping the context drops
//! every table, and a server that analyses never-seen programs forever
//! retains only what each returned analysis itself references.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use lip_lmad::LmadSet;
use lip_symbolic::{BoolExpr, RangeEnv, ScopeId, Scopes, Sym, SymExpr, TermBuildHasher};
use lip_usr::{CallSiteId, Usr};

use crate::estimate::{OverEstimate, UnderEstimate};
use crate::factor::FactorConfig;
use crate::pdag::Pdag;

/// What one [`PredCtx`] did so far (all counts exact and deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Compound nodes `simplify` rewrote (memo misses).
    pub simplify_evals: u64,
    /// Compound nodes `simplify` answered from its memo.
    pub simplify_hits: u64,
    /// Leaves decided against a scope's environment (memo misses).
    pub decide_evals: u64,
    /// Leaves answered from a scope's `decide` memo.
    pub decide_hits: u64,
    /// `FACTOR` / `INCLUDED` / `DISJOINT` questions a factorizer
    /// answered (memo misses).
    pub factor_evals: u64,
    /// Questions answered from the factorizers' shared memo.
    pub factor_hits: u64,
    /// LMAD over- and underestimates computed (memo misses).
    pub estimate_evals: u64,
    /// Estimates answered from their memo.
    pub estimate_hits: u64,
    /// Distinct nodes in the intern table.
    pub interned: u64,
}

/// The two pair relations of Figures 5 and 6(a), over USRs in the
/// factorizer and over LMAD sets where it bottoms out.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum PairOp {
    Included,
    Disjoint,
}

/// A table keyed by handles and terms that carry their hash: one cheap
/// mixing step per key, not a SipHash pass.
pub(crate) type TermMap<K, V> = HashMap<K, V, TermBuildHasher>;

/// A question of Figure 5: is `S` empty, or does the pair relation hold.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Question {
    Empty(Usr),
    Pair(PairOp, Usr, Usr),
}

/// The predicate layer's working memory for one analysis.
#[derive(Default)]
pub struct PredCtx {
    pub(crate) scopes: Scopes,
    interned: HashSet<Pdag, TermBuildHasher>,
    /// The interned `false` and `true`, once asked for.
    consts: [Option<Pdag>; 2],
    pub(crate) simplified: TermMap<(ScopeId, Pdag), Pdag>,
    pub(crate) strengthened: TermMap<(ScopeId, Pdag), Pdag>,
    pub(crate) eliminated: TermMap<(ScopeId, Sym, Pdag), Pdag>,
    /// `op → left set → right set → leaf`, nested so that a lookup
    /// borrows the sets instead of cloning them into a key.
    lmad_pairs: TermMap<PairOp, TermMap<LmadSet, TermMap<LmadSet, Pdag>>>,
    pub(crate) factored: TermMap<(FactorConfig, Question), Pdag>,
    pub(crate) overestimates: TermMap<Usr, Option<Rc<OverEstimate>>>,
    pub(crate) underestimates: TermMap<Usr, Option<Rc<UnderEstimate>>>,
    pub(crate) simplify_evals: u64,
    pub(crate) simplify_hits: u64,
    pub(crate) factor_evals: u64,
    pub(crate) factor_hits: u64,
    pub(crate) estimate_evals: u64,
    pub(crate) estimate_hits: u64,
}

impl PredCtx {
    /// An empty context.
    pub fn new() -> PredCtx {
        PredCtx::default()
    }

    /// The root scope for `env`; equal environments share one scope
    /// (and everything already simplified under it).
    pub fn scope(&mut self, env: &RangeEnv) -> ScopeId {
        self.scopes.root(env)
    }

    /// The counters so far.
    pub fn stats(&self) -> CtxStats {
        let (decide_evals, decide_hits) = self.scopes.decide_counts();
        CtxStats {
            simplify_evals: self.simplify_evals,
            simplify_hits: self.simplify_hits,
            decide_evals,
            decide_hits,
            factor_evals: self.factor_evals,
            factor_hits: self.factor_hits,
            estimate_evals: self.estimate_evals,
            estimate_hits: self.estimate_hits,
            interned: self.interned.len() as u64,
        }
    }

    /// The canonical node equal to `p` (`p` itself when it is new).
    pub(crate) fn intern(&mut self, p: Pdag) -> Pdag {
        if let Some(known) = self.interned.get(&p) {
            return known.clone();
        }
        self.interned.insert(p.clone());
        p
    }

    /// The leaf sufficient for `a ⊆ b` / `a ∩ b = ∅` in the LMAD domain,
    /// derived once per distinct pair of sets.
    pub(crate) fn lmad_pair(&mut self, op: PairOp, a: &LmadSet, b: &LmadSet) -> Pdag {
        let known = self.lmad_pairs.get(&op).and_then(|m| m.get(a)?.get(b));
        if let Some(leaf) = known {
            return leaf.clone();
        }
        let leaf = self.leaf(match op {
            PairOp::Included => lip_lmad::included_lmads(a, b),
            PairOp::Disjoint => lip_lmad::disjoint_lmads(a, b),
        });
        self.lmad_pairs
            .entry(op)
            .or_default()
            .entry(a.clone())
            .or_default()
            .insert(b.clone(), leaf.clone());
        leaf
    }

    pub(crate) fn bool(&mut self, v: bool) -> Pdag {
        if let Some(known) = &self.consts[usize::from(v)] {
            return known.clone();
        }
        let node = self.intern(if v { Pdag::t() } else { Pdag::f() });
        self.consts[usize::from(v)] = Some(node.clone());
        node
    }

    pub(crate) fn leaf(&mut self, b: BoolExpr) -> Pdag {
        self.intern(Pdag::leaf(b))
    }

    pub(crate) fn and(&mut self, parts: Vec<Pdag>) -> Pdag {
        self.intern(Pdag::and(parts))
    }

    pub(crate) fn or(&mut self, parts: Vec<Pdag>) -> Pdag {
        self.intern(Pdag::or(parts))
    }

    pub(crate) fn forall(&mut self, var: Sym, lo: &SymExpr, hi: &SymExpr, body: Pdag) -> Pdag {
        self.intern(Pdag::forall(var, lo.clone(), hi.clone(), body))
    }

    pub(crate) fn at_call(&mut self, site: CallSiteId, body: Pdag) -> Pdag {
        self.intern(Pdag::at_call(site, body))
    }
}
