//! Predicate simplification (paper §3.5).
//!
//! Three cooperating rewrites, applied bottom-up:
//!
//! * **leaf decision** against a [`RangeEnv`] (ranges + assumed facts),
//! * **leaf fusion & unit propagation**: adjacent boolean leaves merge
//!   through [`BoolExpr`]'s flattening constructors (which detect
//!   complements), and a leaf conjunct `q` deletes `¬q` from sibling
//!   disjunctions (this is what turns Figure 4's
//!   `(SYM.EQ.1 ∨ NS≤16NP) ∧ SYM.NE.1` into `NS≤16NP ∧ SYM.NE.1`),
//! * **invariant hoisting & common-factor extraction** around `∧ᵢ`
//!   nodes: `∧ᵢ(∨(Aⁱⁿᵛ, Bᵛᵃʳ)) → ∨(Aⁱⁿᵛ) ∨ ∧ᵢ(∨(Bᵛᵃʳ))` and
//!   `∧(B₁∨A, …, Bₚ∨A) → ∧(B₁,…,Bₚ) ∨ A`.

use lip_symbolic::{BoolExpr, RangeEnv, ScopeId};

use crate::ctx::PredCtx;
use crate::pdag::{Pdag, PdagNode};

/// Simplifies `p` under `env` in a context of its own — see
/// [`PredCtx::simplify`], which an analysis with more than one predicate
/// to simplify should call on one shared context instead.
pub fn simplify(p: &Pdag, env: &RangeEnv) -> Pdag {
    let mut cx = PredCtx::new();
    let scope = cx.scope(env);
    cx.simplify(p, scope)
}

impl PredCtx {
    /// Simplifies `p` under `scope`. The result is logically *equivalent*
    /// to `p` given the scope's facts and ranges (no strengthening
    /// happens here; strengthening belongs to [`crate::cascade`]), and a
    /// pure function of `(scope, p)`: each distinct pair is rewritten once.
    pub fn simplify(&mut self, p: &Pdag, scope: ScopeId) -> Pdag {
        match p.node() {
            PdagNode::Bool(_) => return self.intern(p.clone()),
            // Atomic leaves are decided against the environment (the
            // scope remembers the verdict).
            PdagNode::Leaf(b) if !matches!(b, BoolExpr::And(_) | BoolExpr::Or(_)) => {
                return match self.scopes.decide(scope, b) {
                    Some(v) => self.bool(v),
                    None => self.intern(p.clone()),
                };
            }
            _ => {}
        }
        let key = (scope, p.clone());
        if let Some(hit) = self.simplified.get(&key) {
            self.simplify_hits += 1;
            return hit.clone();
        }
        self.simplify_evals += 1;
        let out = self.simplify_compound(p, scope);
        self.simplified.insert(key, out.clone());
        out
    }

    fn simplify_compound(&mut self, p: &Pdag, scope: ScopeId) -> Pdag {
        match p.node() {
            // Compound boolean leaves unfold into PDAG structure so that
            // hoisting and propagation see through them.
            PdagNode::Leaf(BoolExpr::And(bs)) => {
                let unfolded = Pdag::and(bs.iter().cloned().map(Pdag::leaf).collect());
                self.simplify(&unfolded, scope)
            }
            PdagNode::Leaf(BoolExpr::Or(bs)) => {
                let unfolded = Pdag::or(bs.iter().cloned().map(Pdag::leaf).collect());
                self.simplify(&unfolded, scope)
            }
            PdagNode::Bool(_) | PdagNode::Leaf(_) => {
                unreachable!("simplify answers constants and atomic leaves itself")
            }
            PdagNode::And(parts) => {
                let parts: Vec<Pdag> = parts.iter().map(|q| self.simplify(q, scope)).collect();
                if has_complementary_leaves(&parts) {
                    return self.bool(false);
                }
                let propagated = self.unit_propagate(parts, true);
                let anded = self.and(propagated);
                self.extract_common_factor(anded)
            }
            PdagNode::Or(parts) => {
                let parts: Vec<Pdag> = parts.iter().map(|q| self.simplify(q, scope)).collect();
                if has_complementary_leaves(&parts) {
                    return self.bool(true);
                }
                let propagated = self.unit_propagate(parts, false);
                self.or(propagated)
            }
            PdagNode::ForAll { var, lo, hi, body } => {
                let inner = self.scopes.enter(scope, *var, lo, hi);
                let body = self.simplify(body, inner);
                // Invariant hoisting.
                let (conj, parts) = match body.node() {
                    PdagNode::Or(parts) => (false, parts),
                    PdagNode::And(parts) => (true, parts),
                    _ => return self.forall(*var, lo, hi, body),
                };
                let (inv, var_parts): (Vec<Pdag>, Vec<Pdag>) =
                    parts.iter().cloned().partition(|q| !q.contains_sym(*var));
                if inv.is_empty() {
                    return self.forall(*var, lo, hi, body);
                }
                let hoisted = if conj {
                    // ∀(A ∧ B(i)) = (empty-range ∨ A) ∧ ∀B(i), with A
                    // the conjunction of every invariant part.
                    let range_empty = self.leaf(BoolExpr::lt(hi.clone(), lo.clone()));
                    let invariant = self.and(inv);
                    let guarded = self.or(vec![invariant, range_empty]);
                    let rest = self.and(var_parts);
                    let quantified = self.forall(*var, lo, hi, rest);
                    self.and(vec![guarded, quantified])
                } else {
                    let rest = self.or(var_parts);
                    let mut alts = inv;
                    alts.push(self.forall(*var, lo, hi, rest));
                    self.or(alts)
                };
                self.simplify(&hoisted, scope)
            }
            PdagNode::AtCall(site, body) => {
                let body = self.simplify(body, scope);
                self.at_call(*site, body)
            }
        }
    }

    /// Unit propagation: in a conjunction, a leaf `q` removes `¬q` from
    /// sibling disjunctions (dually for disjunctions).
    fn unit_propagate(&mut self, parts: Vec<Pdag>, conjunction: bool) -> Vec<Pdag> {
        let units: Vec<Pdag> = parts
            .iter()
            .filter(|p| matches!(p.node(), PdagNode::Leaf(_)))
            .cloned()
            .collect();
        if units.is_empty() {
            return parts;
        }
        let refuted = |b: &BoolExpr| {
            units
                .iter()
                .any(|u| matches!(u.node(), PdagNode::Leaf(q) if b.is_negation_of(q)))
        };
        let survives = |d: &&Pdag| !matches!(d.node(), PdagNode::Leaf(b) if refuted(b));
        parts
            .into_iter()
            .map(|p| match (p.node(), conjunction) {
                (PdagNode::Or(ds), true) if !ds.iter().all(|d| survives(&d)) => {
                    let filtered = ds.iter().filter(survives).cloned().collect();
                    self.or(filtered)
                }
                (PdagNode::And(cs), false) if !cs.iter().all(|c| survives(&c)) => {
                    let filtered = cs.iter().filter(survives).cloned().collect();
                    self.and(filtered)
                }
                _ => p,
            })
            .collect()
    }

    /// `∧(B₁∨A, …, Bₚ∨A) → ∧(B₁,…,Bₚ) ∨ A` — reduces redundancy and turns
    /// loop-variant conjunctions into hoistable shapes.
    fn extract_common_factor(&mut self, p: Pdag) -> Pdag {
        let PdagNode::And(parts) = p.node() else {
            return p;
        };
        if parts.len() < 2 {
            return p;
        }
        fn disjuncts(q: &Pdag) -> &[Pdag] {
            match q.node() {
                PdagNode::Or(ds) => ds,
                _ => std::slice::from_ref(q),
            }
        }
        let mut common: Vec<Pdag> = disjuncts(&parts[0]).to_vec();
        for q in &parts[1..] {
            let ds = disjuncts(q);
            common.retain(|c| ds.contains(c));
            if common.is_empty() {
                return p;
            }
        }
        let residuals: Vec<Pdag> = parts
            .iter()
            .map(|q| {
                let ds = disjuncts(q)
                    .iter()
                    .filter(|d| !common.contains(d))
                    .cloned()
                    .collect();
                self.or(ds)
            })
            .collect();
        let mut alts = common;
        alts.push(self.and(residuals));
        self.or(alts)
    }
}

/// Whether two leaves among `parts` are syntactic complements.
fn has_complementary_leaves(parts: &[Pdag]) -> bool {
    BoolExpr::any_complementary(parts.iter().filter_map(|p| match p.node() {
        PdagNode::Leaf(b) => Some(b),
        _ => None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, SymExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn figure4_unit_propagation() {
        // (SYM.EQ.1 ∨ NS ≤ 16·NP) ∧ SYM.NE.1  →  NS ≤ 16·NP ∧ SYM.NE.1.
        let sym_ne = BoolExpr::ne(v("SYM"), k(1));
        let sym_eq = sym_ne.negated();
        let bound = BoolExpr::le(v("NS"), v("NP").scale(16));
        let p = Pdag::and(vec![
            Pdag::or(vec![Pdag::leaf(sym_eq), Pdag::leaf(bound.clone())]),
            Pdag::leaf(sym_ne.clone()),
        ]);
        let s = simplify(&p, &RangeEnv::new());
        let expected = Pdag::and(vec![Pdag::leaf(bound), Pdag::leaf(sym_ne)]);
        // Leaf fusion may represent the result as one fused leaf; compare
        // by both shape-insensitive routes.
        match (s.node(), &expected) {
            (PdagNode::Leaf(a), _) => {
                assert_eq!(
                    *a,
                    BoolExpr::and(vec![
                        BoolExpr::le(v("NS"), v("NP").scale(16)),
                        BoolExpr::ne(v("SYM"), k(1)),
                    ])
                );
            }
            _ => assert_eq!(s, expected),
        }
    }

    #[test]
    fn leaves_fold_against_facts() {
        let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("N") - k(1)));
        let p = Pdag::or(vec![
            Pdag::leaf(BoolExpr::le(v("N"), k(0))),
            Pdag::leaf(BoolExpr::le(v("NS"), v("NP").scale(16))),
        ]);
        let s = simplify(&p, &env);
        assert_eq!(s, Pdag::leaf(BoolExpr::le(v("NS"), v("NP").scale(16))));
    }

    #[test]
    fn invariant_hoists_out_of_forall() {
        // ∧_i (Pleaf ∨ B(i) > 0) with invariant Pleaf = 8NP < NS+6:
        // hoists to Pleaf ∨ ∧_i (B(i) > 0) — the §3.5 example.
        let pleaf = BoolExpr::lt(v("NP").scale(8), v("NS") + k(6));
        let var_leaf = BoolExpr::gt0(SymExpr::elem(sym("B"), v("i")));
        let body = Pdag::or(vec![Pdag::leaf(pleaf.clone()), Pdag::leaf(var_leaf)]);
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        let s = simplify(&p, &RangeEnv::new());
        match s.node() {
            PdagNode::Or(parts) => {
                assert!(
                    parts
                        .iter()
                        .any(|q| matches!(q.node(), PdagNode::Leaf(b) if *b == pleaf)),
                    "invariant leaf must be hoisted: {s}"
                );
                assert!(
                    parts
                        .iter()
                        .any(|q| matches!(q.node(), PdagNode::ForAll { .. })),
                    "variant part must stay quantified: {s}"
                );
            }
            _ => panic!("expected Or, got {s}"),
        }
    }

    #[test]
    fn fully_invariant_forall_collapses() {
        // ∧_{i=1..N} (8NP < NS+6) → (N < 1) ∨ (8NP < NS+6); with the
        // fact N ≥ 1 the guard folds away, giving the bare O(1) leaf —
        // exactly the paper's SOLVH example.
        let pleaf = BoolExpr::lt(v("NP").scale(8), v("NS") + k(6));
        let inner = Pdag::forall(sym("kk"), k(1), v("IAi"), Pdag::leaf(pleaf.clone()));
        let outer = Pdag::forall(sym("ii"), k(1), v("N"), inner);
        let env = RangeEnv::new()
            .with_fact(BoolExpr::ge0(v("N") - k(1)))
            .with_fact(BoolExpr::ge0(v("IAi") - k(1)));
        let s = simplify(&outer, &env);
        assert_eq!(s, Pdag::leaf(pleaf));
    }

    #[test]
    fn common_factor_extraction() {
        let a = Pdag::leaf(BoolExpr::gt0(v("A")));
        let b1 = Pdag::leaf(BoolExpr::gt0(v("B1")));
        let b2 = Pdag::leaf(BoolExpr::gt0(v("B2")));
        let p = Pdag::and(vec![
            Pdag::or(vec![b1.clone(), a.clone()]),
            Pdag::or(vec![b2.clone(), a.clone()]),
        ]);
        let s = simplify(&p, &RangeEnv::new());
        // Expect (B1 ∧ B2) ∨ A (possibly leaf-fused).
        match s.node() {
            PdagNode::Or(parts) => assert!(parts.len() >= 2, "{s}"),
            PdagNode::Leaf(b) => {
                let expected = BoolExpr::or(vec![
                    BoolExpr::gt0(v("A")),
                    BoolExpr::and(vec![BoolExpr::gt0(v("B1")), BoolExpr::gt0(v("B2"))]),
                ]);
                assert_eq!(*b, expected);
            }
            _ => panic!("expected Or, got {s}"),
        }
    }

    #[test]
    fn hoisting_keeps_every_invariant_conjunct() {
        // ∀ i∈1..N (P>0 ∧ Q>0 ∧ B(i)>0) needs both invariants: hoisted,
        // it is (N<1 ∨ (P>0 ∧ Q>0)) ∧ ∀ B(i)>0 — not (N<1 ∨ P>0 ∨ Q>0).
        use lip_symbolic::MapCtx;
        let body = Pdag::and(vec![
            Pdag::leaf(BoolExpr::gt0(v("P"))),
            Pdag::leaf(BoolExpr::gt0(v("Q"))),
            Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), v("i")))),
        ]);
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        let s = simplify(&p, &RangeEnv::new());
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("N"), 3).set_scalar(sym("P"), 1);
        ctx.set_array(sym("B"), 1, vec![1, 1, 1]);
        for q in [0, 1] {
            ctx.set_scalar(sym("Q"), q);
            assert_eq!(s.eval(&ctx, 100), p.eval(&ctx, 100), "Q = {q}: {s}");
        }
    }

    #[test]
    fn one_context_keeps_scopes_apart() {
        // The same leaf `i > 0` under two ranges, simplified through one
        // context: true over 1..N, left alone over 0..N.
        let leaf = Pdag::leaf(BoolExpr::gt0(v("i")));
        let from_one = Pdag::forall(sym("i"), k(1), v("N"), leaf.clone());
        let from_zero = Pdag::forall(sym("i"), k(0), v("N"), leaf);
        let mut cx = PredCtx::new();
        let scope = cx.scope(&RangeEnv::new());
        assert!(cx.simplify(&from_one, scope).is_true());
        assert_eq!(cx.simplify(&from_zero, scope), from_zero);
        assert!(cx.simplify(&from_one, scope).is_true());
    }

    #[test]
    fn forall_range_informs_leaf_decision() {
        // ∧_{i=1..N} (i > 0) is decided true from the range alone.
        let body = Pdag::leaf(BoolExpr::gt0(v("i")));
        let p = Pdag::forall(sym("i"), k(1), v("N"), body);
        let s = simplify(&p, &RangeEnv::new());
        assert!(s.is_true(), "got {s}");
    }
}
