//! Predicate complexity separation and cascading (paper §3.5, §5).
//!
//! A predicate's runtime complexity is modeled by the loop-nest depth of
//! its implementation. The full factorized predicate is separated into a
//! *cascade* of sufficient conditions of increasing cost:
//!
//! 1. an **O(1)** stage: loop nodes are eliminated by aggressive
//!    invariant extraction plus symbolic Fourier–Motzkin elimination of
//!    the quantified variable from comparison leaves,
//! 2. an **O(N)** stage: inner loop nodes (nest depth > 1) are replaced
//!    by `false` and the result simplified,
//! 3. the **exact** factorized predicate (and past it, the paper falls
//!    back to hoisted USR evaluation or thread-level speculation).
//!
//! Generated code evaluates the stages in order; the first success
//! proves independence and disables the rest.

use std::cell::OnceCell;
use std::sync::Arc;

use lip_symbolic::{reduce_ge0, reduce_gt0, BoolExpr, RangeEnv, ScopeId, Sym};

use crate::ctx::PredCtx;
use crate::pdag::{Pdag, PdagNode};

/// The runtime-complexity model: maximal `ForAll` nesting depth.
pub fn complexity(p: &Pdag) -> u32 {
    match p.node() {
        PdagNode::Bool(_) | PdagNode::Leaf(_) => 0,
        PdagNode::And(ps) | PdagNode::Or(ps) => ps.iter().map(complexity).max().unwrap_or(0),
        PdagNode::ForAll { body, .. } => 1 + complexity(body),
        PdagNode::AtCall(_, body) => complexity(body),
    }
}

/// [`PredCtx::build_cascade`] in a context of its own.
pub fn build_cascade(p: &Pdag, env: &RangeEnv) -> Cascade {
    let mut cx = PredCtx::new();
    let scope = cx.scope(env);
    cx.build_cascade(p, scope)
}

impl PredCtx {
    /// Strengthens `p` to an O(1) sufficient condition: every `ForAll` is
    /// eliminated, either by hoisting loop-invariant parts or by
    /// Fourier–Motzkin elimination of the bound variable from comparison
    /// leaves; leaves that resist elimination become `false`.
    fn separate_o1(&mut self, p: &Pdag, scope: ScopeId) -> Pdag {
        let s = self.strengthen_o1(p, scope);
        self.simplify(&s, scope)
    }

    fn strengthen_o1(&mut self, p: &Pdag, scope: ScopeId) -> Pdag {
        let key = (scope, p.clone());
        if let Some(hit) = self.strengthened.get(&key) {
            return hit.clone();
        }
        let out = match p.node() {
            PdagNode::Bool(_) | PdagNode::Leaf(_) => return p.clone(),
            PdagNode::And(ps) => {
                let parts = ps.iter().map(|q| self.strengthen_o1(q, scope)).collect();
                self.and(parts)
            }
            PdagNode::Or(ps) => {
                let parts = ps.iter().map(|q| self.strengthen_o1(q, scope)).collect();
                self.or(parts)
            }
            PdagNode::AtCall(site, body) => {
                let body = self.strengthen_o1(body, scope);
                self.at_call(*site, body)
            }
            PdagNode::ForAll { var, lo, hi, body } => {
                let inner = self.scopes.enter(scope, *var, lo, hi);
                let body = self.strengthen_o1(body, inner);
                let eliminated = self.eliminate_var(&body, *var, inner);
                // ∀ over an empty range is vacuously true.
                let range_empty = self.leaf(BoolExpr::lt(hi.clone(), lo.clone()));
                self.or(vec![range_empty, eliminated])
            }
        };
        self.strengthened.insert(key, out.clone());
        out
    }

    /// Replaces every leaf containing `var` by a `var`-free sufficient
    /// condition (Fourier–Motzkin for inequalities under `scope`'s
    /// ranges, `false` otherwise).
    fn eliminate_var(&mut self, p: &Pdag, var: Sym, scope: ScopeId) -> Pdag {
        let key = (scope, var, p.clone());
        if let Some(hit) = self.eliminated.get(&key) {
            return hit.clone();
        }
        let out = match p.node() {
            PdagNode::Bool(_) => return p.clone(),
            PdagNode::Leaf(b) if !b.contains_sym(var) => return p.clone(),
            PdagNode::Leaf(BoolExpr::Gt0(e)) => {
                let reduced = reduce_gt0(e, self.scopes.env(scope));
                self.var_free_leaf(reduced, var)
            }
            PdagNode::Leaf(BoolExpr::Ge0(e)) => {
                let reduced = reduce_ge0(e, self.scopes.env(scope));
                self.var_free_leaf(reduced, var)
            }
            // Compound leaves (e.g. the interval disjunction emitted
            // by DISJOINT_LMAD_1D) unfold so each comparison can be
            // eliminated independently.
            PdagNode::Leaf(BoolExpr::And(bs)) => {
                let unfolded = Pdag::and(bs.iter().cloned().map(Pdag::leaf).collect());
                self.eliminate_var(&unfolded, var, scope)
            }
            PdagNode::Leaf(BoolExpr::Or(bs)) => {
                let unfolded = Pdag::or(bs.iter().cloned().map(Pdag::leaf).collect());
                self.eliminate_var(&unfolded, var, scope)
            }
            PdagNode::Leaf(_) => self.bool(false),
            PdagNode::And(ps) => {
                let parts = ps
                    .iter()
                    .map(|q| self.eliminate_var(q, var, scope))
                    .collect();
                self.and(parts)
            }
            PdagNode::Or(ps) => {
                let parts = ps
                    .iter()
                    .map(|q| self.eliminate_var(q, var, scope))
                    .collect();
                self.or(parts)
            }
            // Nested quantifiers were already strengthened away by the o1
            // pass; anything left that still depends on var is dropped.
            PdagNode::ForAll { .. } | PdagNode::AtCall(_, _) => {
                if p.contains_sym(var) {
                    self.bool(false)
                } else {
                    p.clone()
                }
            }
        };
        self.eliminated.insert(key, out.clone());
        out
    }

    /// The leaf for an eliminated comparison, `false` when elimination
    /// left `var` behind.
    fn var_free_leaf(&mut self, reduced: BoolExpr, var: Sym) -> Pdag {
        if reduced.contains_sym(var) {
            self.bool(false)
        } else {
            self.leaf(reduced)
        }
    }

    /// Strengthens `p` to an O(N) sufficient condition by replacing every
    /// inner loop node (nest depth > 1) with `false` (paper Figure 9(a)).
    fn separate_on(&mut self, p: &Pdag, scope: ScopeId) -> Pdag {
        let s = self.drop_inner_loops(p, 0);
        self.simplify(&s, scope)
    }

    fn drop_inner_loops(&mut self, p: &Pdag, depth: u32) -> Pdag {
        match p.node() {
            PdagNode::Bool(_) | PdagNode::Leaf(_) => p.clone(),
            PdagNode::And(ps) => {
                let parts = ps.iter().map(|q| self.drop_inner_loops(q, depth)).collect();
                self.and(parts)
            }
            PdagNode::Or(ps) => {
                let parts = ps.iter().map(|q| self.drop_inner_loops(q, depth)).collect();
                self.or(parts)
            }
            PdagNode::AtCall(site, body) => {
                let body = self.drop_inner_loops(body, depth);
                self.at_call(*site, body)
            }
            PdagNode::ForAll { var, lo, hi, body } => {
                if depth >= 1 {
                    self.bool(false)
                } else {
                    let body = self.drop_inner_loops(body, depth + 1);
                    self.forall(*var, lo, hi, body)
                }
            }
        }
    }

    /// Builds the cascade for a factorized independence predicate.
    pub fn build_cascade(&mut self, p: &Pdag, scope: ScopeId) -> Cascade {
        let exact = self.simplify(p, scope);
        if exact.is_true() {
            return Cascade {
                stages: vec![Stage::new(exact, 0)],
            };
        }
        if exact.is_false() {
            return Cascade { stages: vec![] };
        }
        let mut stages: Vec<Stage> = Vec::new();
        let o1 = self.separate_o1(&exact, scope);
        if !o1.is_false() {
            stages.push(Stage::new(o1, 0));
        }
        let on = self.separate_on(&exact, scope);
        if !on.is_false() && !stages.iter().any(|s| s.pred == on) {
            let depth = complexity(&on);
            stages.push(Stage::new(on, depth));
        }
        if !stages.iter().any(|s| s.pred == exact) {
            let depth = complexity(&exact);
            stages.push(Stage::new(exact, depth));
        }
        Cascade { stages }
    }
}

/// One stage of the runtime-test cascade.
#[derive(Clone, Debug)]
pub struct Stage {
    /// The sufficient-independence predicate.
    pub pred: Pdag,
    /// Loop-nest depth of its evaluation (0 = O(1), 1 = O(N), …).
    pub complexity: u32,
    /// `pred` rendered, on first use: the exact key the runtime engine
    /// files the stage's compiled program and verdicts under.
    key: OnceCell<Arc<str>>,
}

impl Stage {
    /// A stage testing `pred` at loop-nest depth `complexity`.
    pub fn new(pred: Pdag, complexity: u32) -> Stage {
        Stage {
            pred,
            complexity,
            key: OnceCell::new(),
        }
    }

    /// The predicate's canonical rendering, computed once per stage.
    /// Shared (`Arc`) because the engine's tables outlive the call and
    /// are read from pool threads.
    pub fn key(&self) -> &Arc<str> {
        self.key.get_or_init(|| self.pred.to_string().into())
    }

    /// Renders the stage's predicate for decision reports (`explain`).
    pub fn describe(&self) -> String {
        self.key().to_string()
    }
}

/// An ordered sequence of increasingly expensive sufficient conditions.
#[derive(Clone, Debug, Default)]
pub struct Cascade {
    /// Stages in evaluation order (cheapest first).
    pub stages: Vec<Stage>,
}

impl Cascade {
    /// Whether the cascade proves independence statically (its first
    /// stage is the constant `true`).
    pub fn statically_true(&self) -> bool {
        self.stages.first().is_some_and(|s| s.pred.is_true())
    }

    /// Whether no runtime test can succeed (every stage is `false`) —
    /// the loop needs the exact fallback (USR evaluation or TLS).
    pub fn needs_fallback(&self) -> bool {
        self.stages.is_empty()
    }

    /// Evaluates the cascade under `ctx`: returns the index of the first
    /// succeeding stage, or `None` if all stages fail or are undecidable.
    pub fn first_success(&self, ctx: &dyn lip_symbolic::EvalCtx, iter_limit: u64) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| s.pred.eval(ctx, iter_limit) == Some(true))
    }

    /// `(complexity, rendered predicate)` per stage, cheapest first —
    /// the static view a decision report (`Session::explain`) pairs
    /// with the runtime verdicts.
    pub fn stage_descriptions(&self) -> Vec<(u32, String)> {
        self.stages
            .iter()
            .map(|s| (s.complexity, s.describe()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, MapCtx, SymExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn complexity_counts_nesting() {
        let leaf = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
        let inner = Pdag::raw(PdagNode::ForAll {
            var: sym("i"),
            lo: k(1),
            hi: v("N"),
            body: leaf,
        });
        assert_eq!(complexity(&inner), 1);
        let outer = Pdag::raw(PdagNode::ForAll {
            var: sym("j"),
            lo: k(1),
            hi: v("M"),
            body: inner.subst(sym("N"), &v("j")),
        });
        assert_eq!(complexity(&outer), 2);
    }

    #[test]
    fn o1_separation_uses_fourier_motzkin() {
        // ∧_{i=1..NOP} (IX(1)+1-IX(2)-i > 0): FM replaces i by NOP,
        // giving the O(1) CORREC_DO711 predicate.
        let ix1 = SymExpr::elem(sym("IX"), k(1));
        let ix2 = SymExpr::elem(sym("IX"), k(2));
        let body = Pdag::leaf(BoolExpr::gt0(&ix1 + &k(1) - &ix2 - &v("i")));
        let p = Pdag::forall(sym("i"), k(1), v("NOP"), body);
        let mut cx = PredCtx::new();
        let scope = cx.scope(&RangeEnv::new());
        let o1 = cx.separate_o1(&p, scope);
        assert_eq!(complexity(&o1), 0);
        // IX = [big, small]: IX(2)+NOP <= IX(1) holds.
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("NOP"), 10);
        ctx.set_array(sym("IX"), 1, vec![100, 5]);
        assert_eq!(o1.eval(&ctx, 100), Some(true));
        ctx.set_array(sym("IX"), 1, vec![10, 5]);
        assert_eq!(o1.eval(&ctx, 100), Some(false));
    }

    #[test]
    fn on_separation_drops_inner_loops() {
        // ∧_i (leaf(i) ∨ ∧_k inner(k)): the O(N) stage must drop the
        // inner ∧_k (Figure 9(a)'s shape).
        let outer_leaf = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("C"), v("i"))));
        let inner = Pdag::forall(
            sym("kq"),
            k(1),
            v("i"),
            Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("D"), v("kq")))),
        );
        let body = Pdag::or(vec![outer_leaf, inner]);
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        assert_eq!(complexity(&p), 2);
        let mut cx = PredCtx::new();
        let scope = cx.scope(&RangeEnv::new());
        let on = cx.separate_on(&p, scope);
        assert!(complexity(&on) <= 1, "got {on}");
        // Semantics: C all positive satisfies the O(N) stage.
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("N"), 3);
        ctx.set_array(sym("C"), 1, vec![1, 1, 1]);
        assert_eq!(on.eval(&ctx, 100), Some(true));
    }

    #[test]
    fn cascade_orders_stages_by_cost() {
        // An O(1)-able invariant ∨ a per-iteration test.
        let inv = Pdag::leaf(BoolExpr::lt(v("NP").scale(8), v("NS") + k(6)));
        let per_iter = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i"))));
        let p = Pdag::forall(sym("i"), k(1), v("N"), Pdag::or(vec![inv, per_iter]));
        let c = build_cascade(&p, &RangeEnv::new());
        assert!(!c.stages.is_empty());
        for w in c.stages.windows(2) {
            assert!(w[0].complexity <= w[1].complexity);
        }
        assert_eq!(c.stages[0].complexity, 0);

        // Runtime: O(1) stage succeeds without touching B.
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("NP"), 1)
            .set_scalar(sym("NS"), 48)
            .set_scalar(sym("N"), 3);
        assert_eq!(c.first_success(&ctx, 1000), Some(0));
        // O(1) fails, O(N) succeeds.
        ctx.set_scalar(sym("NS"), 1);
        ctx.set_array(sym("B"), 1, vec![1, 2, 3]);
        let idx = c.first_success(&ctx, 1000).expect("some stage succeeds");
        assert!(idx > 0);
    }

    #[test]
    fn static_truth_shortcuts() {
        let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("N") - k(1)));
        let p = Pdag::leaf(BoolExpr::ge0(v("N")));
        let c = build_cascade(&p, &env);
        assert!(c.statically_true());
    }

    #[test]
    fn unprovable_predicate_needs_fallback() {
        let p = Pdag::f();
        let c = build_cascade(&p, &RangeEnv::new());
        assert!(c.needs_fallback());
    }
}
