//! Conditional LMAD over/under-estimates of USRs (paper §3.2).
//!
//! When the factorization rules bottom out, the problem is flattened to
//! the LMAD domain. A summary `C` is overestimated as a pair
//! `(P_C, ⌈C⌉)`: `P_C` is a predicate under which `C` is *empty*, and
//! `⌈C⌉` an LMAD set with `C ⊆ ⌈C⌉` unconditionally. Dually, `D` is
//! underestimated as `(P_D, ⌊D⌋)` where `⌊D⌋ ⊆ D` holds *when `P_D`
//! holds*.
//!
//! The factorizer asks for the same summary's estimates over and over
//! (every pair it flattens): [`PredCtx`] computes each once per analysis.

use std::rc::Rc;

use lip_lmad::{Lmad, LmadSet};
use lip_symbolic::{BoolExpr, Sym, SymExpr};
use lip_usr::{Usr, UsrNode};

use crate::ctx::PredCtx;
use crate::pdag::Pdag;

/// `(empty_if, set)` with `usr ⊆ set` always, and `usr = ∅` when
/// `empty_if` holds.
#[derive(Clone, Debug)]
pub struct OverEstimate {
    /// Predicate under which the summary is empty.
    pub empty_if: Pdag,
    /// Unconditional LMAD overestimate.
    pub set: LmadSet,
}

/// `(valid_if, set)` with `set ⊆ usr` when `valid_if` holds.
#[derive(Clone, Debug)]
pub struct UnderEstimate {
    /// Predicate under which the underestimate is valid.
    pub valid_if: Pdag,
    /// Conditional LMAD underestimate.
    pub set: LmadSet,
}

/// Computes a conditional overestimate, or `None` when no sound estimate
/// exists (e.g. a recurrence whose body cannot be made loop-invariant).
pub fn overestimate(u: &Usr) -> Option<OverEstimate> {
    match u.node() {
        UsrNode::Empty => Some(OverEstimate {
            empty_if: Pdag::t(),
            set: LmadSet::empty(),
        }),
        UsrNode::Leaf(set) => Some(OverEstimate {
            empty_if: Pdag::leaf(set.empty_pred()),
            set: set.clone(),
        }),
        UsrNode::Union(a, b) => {
            let ea = overestimate(a)?;
            let eb = overestimate(b)?;
            Some(OverEstimate {
                empty_if: Pdag::and(vec![ea.empty_if, eb.empty_if]),
                set: ea.set.union(&eb.set),
            })
        }
        // On the way down, the subtracted/intersected side is disregarded
        // (overestimate-safe).
        UsrNode::Subtract(a, _) => overestimate(a),
        UsrNode::Intersect(a, b) => {
            let ea = overestimate(a)?;
            // The intersection is empty whenever either side is.
            let empty_if = match overestimate(b) {
                Some(eb) => Pdag::or(vec![ea.empty_if, eb.empty_if]),
                None => ea.empty_if,
            };
            Some(OverEstimate {
                empty_if,
                set: ea.set,
            })
        }
        UsrNode::Gate(p, body) => {
            let e = overestimate(body)?;
            Some(OverEstimate {
                empty_if: Pdag::or(vec![Pdag::leaf(p.negated()), e.empty_if]),
                set: e.set,
            })
        }
        UsrNode::Call(_, body) => overestimate(body),
        UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
            let e = overestimate(body)?;
            let range_empty = Pdag::leaf(BoolExpr::lt(hi.clone(), lo.clone()));
            // Exact aggregation first.
            if let Some(agg) = e.set.aggregate(*var, lo, hi) {
                let empty_if = if e.empty_if.contains_sym(*var) {
                    range_empty
                } else {
                    Pdag::or(vec![range_empty, e.empty_if])
                };
                return Some(OverEstimate { empty_if, set: agg });
            }
            // Loop-invariant interval hull (rule (1) of Figure 5): widen
            // every LMAD to an interval whose ends are extremized over
            // the recurrence variable's range.
            let mut widened = Vec::new();
            for l in e.set.lmads() {
                let (hlo, hhi) = l.hull();
                let lo_inv = extremize(&hlo, *var, lo, hi, false)?;
                let hi_inv = extremize(&hhi, *var, lo, hi, true)?;
                widened.push(Lmad::interval(lo_inv, hi_inv));
            }
            let empty_if = if e.empty_if.contains_sym(*var) {
                range_empty
            } else {
                Pdag::or(vec![range_empty, e.empty_if])
            };
            Some(OverEstimate {
                empty_if,
                set: LmadSet::from_vec(widened),
            })
        }
    }
}

/// Replaces `var` in `e` by whichever bound extremizes it (`maximize` or
/// minimize), provided `var` occurs linearly with a constant-sign
/// coefficient. Returns `None` when the direction cannot be determined
/// (e.g. `var` inside an index-array subscript).
fn extremize(e: &SymExpr, var: Sym, lo: &SymExpr, hi: &SymExpr, maximize: bool) -> Option<SymExpr> {
    if !e.contains_sym(var) {
        return Some(e.clone());
    }
    let (a, b) = e.split_linear(var)?;
    if a.contains_sym(var) {
        return None;
    }
    let c = a.as_const()?;
    let bound = if (c > 0) == maximize { hi } else { lo };
    let subst = &(&a * bound) + &b;
    // The coefficient may have left lower-degree occurrences in b.
    if subst.contains_sym(var) {
        return None;
    }
    Some(subst)
}

/// Computes a conditional underestimate, or `None` when none exists.
pub fn underestimate(u: &Usr) -> Option<UnderEstimate> {
    match u.node() {
        UsrNode::Empty => Some(UnderEstimate {
            valid_if: Pdag::t(),
            set: LmadSet::empty(),
        }),
        UsrNode::Leaf(set) => Some(UnderEstimate {
            valid_if: Pdag::t(),
            set: set.clone(),
        }),
        UsrNode::Union(a, b) => {
            let ua = underestimate(a)?;
            let ub = underestimate(b)?;
            Some(UnderEstimate {
                valid_if: Pdag::and(vec![ua.valid_if, ub.valid_if]),
                set: ua.set.union(&ub.set),
            })
        }
        UsrNode::Gate(p, body) => {
            let e = underestimate(body)?;
            Some(UnderEstimate {
                valid_if: Pdag::and(vec![Pdag::leaf(p.clone()), e.valid_if]),
                set: e.set,
            })
        }
        // A − B ⊇ ⌊A⌋ when B is empty.
        UsrNode::Subtract(a, b) => {
            let ua = underestimate(a)?;
            let eb = overestimate(b)?;
            Some(UnderEstimate {
                valid_if: Pdag::and(vec![ua.valid_if, eb.empty_if]),
                set: ua.set,
            })
        }
        UsrNode::Intersect(_, _) => None,
        UsrNode::Call(_, body) => underestimate(body),
        UsrNode::RecTotal { var, lo, hi, body } => {
            let e = underestimate(body)?;
            if e.valid_if.contains_sym(*var) {
                return None;
            }
            let agg = e.set.aggregate(*var, lo, hi)?;
            Some(UnderEstimate {
                // A negative-trip aggregate is an empty (hence valid)
                // underestimate, so no range guard is needed.
                valid_if: e.valid_if,
                set: agg,
            })
        }
        UsrNode::RecPartial { .. } => None,
    }
}

impl PredCtx {
    /// [`overestimate`] of `u`, computed once per distinct summary.
    pub(crate) fn overestimate(&mut self, u: &Usr) -> Option<Rc<OverEstimate>> {
        if let Some(known) = self.overestimates.get(u) {
            self.estimate_hits += 1;
            return known.clone();
        }
        self.estimate_evals += 1;
        let e = overestimate(u).map(Rc::new);
        self.overestimates.insert(u.clone(), e.clone());
        e
    }

    /// [`underestimate`] of `u`, computed once per distinct summary.
    pub(crate) fn underestimate(&mut self, u: &Usr) -> Option<Rc<UnderEstimate>> {
        if let Some(known) = self.underestimates.get(u) {
            self.estimate_hits += 1;
            return known.clone();
        }
        self.estimate_evals += 1;
        let e = underestimate(u).map(Rc::new);
        self.underestimates.insert(u.clone(), e.clone());
        e
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

    fn iv(lo: SymExpr, hi: SymExpr) -> Usr {
        Usr::leaf(LmadSet::single(Lmad::interval(lo, hi)))
    }

    #[test]
    fn subtract_overestimate_ignores_rhs() {
        let u = Usr::subtract(iv(k(0), v("n")), iv(k(0), k(4)));
        let e = overestimate(&u).expect("estimable");
        assert_eq!(e.set, LmadSet::single(Lmad::interval(k(0), v("n"))));
    }

    #[test]
    fn gate_overestimate_collects_negation() {
        let g = BoolExpr::ne(v("SYM"), k(1));
        let u = Usr::gate(g.clone(), iv(k(0), v("n")));
        let e = overestimate(&u).expect("estimable");
        // empty_if must be satisfied when SYM == 1.
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("SYM"), 1).set_scalar(sym("n"), 5);
        assert_eq!(e.empty_if.eval(&ctx, 100), Some(true));
        ctx.set_scalar(sym("SYM"), 2);
        assert_eq!(e.empty_if.eval(&ctx, 100), Some(false));
    }

    #[test]
    fn recurrence_overestimate_aggregates_exactly() {
        // ∪_i {i} with a gate to defeat the constructor's own collapse.
        let body = Usr::gate(
            BoolExpr::gt0(SymExpr::elem(sym("B1"), v("i"))),
            Usr::leaf(LmadSet::single(Lmad::point(v("i")))),
        );
        let u = Usr::rec_total(sym("i"), k(1), v("N"), body);
        let e = overestimate(&u).expect("estimable");
        assert_eq!(e.set, LmadSet::single(Lmad::interval(k(1), v("N"))));
    }

    #[test]
    fn recurrence_overestimate_widens_variant_spans() {
        // Body [0, i] cannot aggregate (span depends on i); the invariant
        // hull is [0, N].
        let u = Usr::rec_total(sym("i"), k(1), v("N"), iv(k(0), v("i")));
        let e = overestimate(&u).expect("estimable");
        assert_eq!(e.set, LmadSet::single(Lmad::interval(k(0), v("N"))));
    }

    #[test]
    fn recurrence_overestimate_fails_on_index_arrays() {
        // Body {B(i)}: the hull ends depend on array contents.
        let body = Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(
            sym("B"),
            v("i"),
        ))));
        let u = Usr::rec_total(sym("i"), k(1), v("N"), body);
        assert!(overestimate(&u).is_none());
    }

    #[test]
    fn underestimate_of_gate_requires_gate() {
        let g = BoolExpr::ne(v("SYM"), k(1));
        let u = Usr::gate(g.clone(), iv(k(0), v("n")));
        let e = underestimate(&u).expect("estimable");
        assert_eq!(e.valid_if, Pdag::leaf(g));
        assert_eq!(e.set, LmadSet::single(Lmad::interval(k(0), v("n"))));
    }

    #[test]
    fn underestimate_of_subtract_requires_rhs_empty() {
        let rhs_gate = BoolExpr::gt0(v("c"));
        let u = Usr::subtract(
            iv(k(0), v("n")),
            Usr::gate(rhs_gate.clone(), iv(k(0), k(3))),
        );
        let e = underestimate(&u).expect("estimable");
        // valid_if holds when the gate is false (rhs empty).
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("c"), 0).set_scalar(sym("n"), 9);
        assert_eq!(e.valid_if.eval(&ctx, 100), Some(true));
        ctx.set_scalar(sym("c"), 1);
        assert_eq!(e.valid_if.eval(&ctx, 100), Some(false));
    }

    #[test]
    fn underestimate_of_intersection_is_unavailable() {
        let u = Usr::intersect(iv(k(0), v("n")), iv(k(3), v("m")));
        assert!(underestimate(&u).is_none());
    }
}
