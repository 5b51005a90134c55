//! Set-valued evaluation of USRs: the reference semantics.
//!
//! Evaluation computes the concrete index set denoted by a USR under an
//! [`EvalCtx`] binding, element by element. It is what the property
//! tests and [`crate::exact`]'s differential compare against, and what
//! `Machine` is to the VM: an oracle, not a production path — the
//! executor's last-resort independence test (§2.2, §5) is
//! [`crate::exact::independent`].
//!
//! The paper prices exact evaluation at "the touched locations"; this
//! evaluator does not meet that price. A recurrence re-evaluates its
//! body from `lo` every time it is reached, so the `∪_{k<i}` prefix of
//! Eq. 2/3 ([`UsrNode::RecPartial`] under a [`UsrNode::RecTotal`]) is
//! rebuilt for every `i` — N²/2 insertions for N iterations — and every
//! set is a `BTreeSet` of single indices, so a contiguous window of
//! width `L` is `L` insertions. Nothing is kept between calls.

use std::collections::BTreeSet;

use lip_symbolic::{EvalCtx, ScopedCtx};

use crate::node::{Usr, UsrNode};

/// Evaluates `u` to its concrete index set. Returns `None` when a symbol
/// is unbound, a recurrence bound is unbound, or the result would exceed
/// `limit` elements (a defence against runaway evaluation, mirroring the
/// paper's "unacceptably large overhead" concern).
pub fn eval_usr(u: &Usr, ctx: &dyn EvalCtx, limit: usize) -> Option<BTreeSet<i64>> {
    match u.node() {
        UsrNode::Empty => Some(BTreeSet::new()),
        UsrNode::Leaf(set) => set.enumerate(ctx, limit),
        UsrNode::Union(a, b) => {
            let mut x = eval_usr(a, ctx, limit)?;
            let y = eval_usr(b, ctx, limit)?;
            x.extend(y);
            if x.len() > limit {
                return None;
            }
            Some(x)
        }
        UsrNode::Intersect(a, b) => {
            let x = eval_usr(a, ctx, limit)?;
            let y = eval_usr(b, ctx, limit)?;
            Some(x.intersection(&y).copied().collect())
        }
        UsrNode::Subtract(a, b) => {
            let x = eval_usr(a, ctx, limit)?;
            let y = eval_usr(b, ctx, limit)?;
            Some(x.difference(&y).copied().collect())
        }
        UsrNode::Gate(p, body) => {
            if p.eval(ctx)? {
                eval_usr(body, ctx, limit)
            } else {
                Some(BTreeSet::new())
            }
        }
        UsrNode::Call(_, body) => eval_usr(body, ctx, limit),
        UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
            let lo = lo.eval(ctx)?;
            let hi = hi.eval(ctx)?;
            let mut out = BTreeSet::new();
            let mut iv = lo;
            while iv <= hi {
                let scoped = ScopedCtx::new(ctx, *var, iv);
                let s = eval_usr(body, &scoped, limit)?;
                out.extend(s);
                if out.len() > limit {
                    return None;
                }
                iv += 1;
            }
            Some(out)
        }
    }
}

/// Convenience: evaluates emptiness (the independence test itself).
pub fn eval_empty(u: &Usr, ctx: &dyn EvalCtx, limit: usize) -> Option<bool> {
    eval_usr(u, ctx, limit).map(|s| s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::output_independence;
    use lip_lmad::{Lmad, LmadSet};
    use lip_symbolic::{sym, BoolExpr, MapCtx, SymExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn evaluates_set_algebra() {
        let a = Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(9))));
        let b = Usr::leaf(LmadSet::single(Lmad::interval(k(5), k(14))));
        let ctx = MapCtx::new();
        let inter = eval_usr(&Usr::intersect(a.clone(), b.clone()), &ctx, 1000).unwrap();
        assert_eq!(inter.len(), 5);
        let diff = eval_usr(&Usr::subtract(a.clone(), b.clone()), &ctx, 1000).unwrap();
        assert_eq!(diff, (0..5).collect());
        let uni = eval_usr(&Usr::union(a, b), &ctx, 1000).unwrap();
        assert_eq!(uni, (0..15).collect());
    }

    #[test]
    fn gate_controls_contribution() {
        let s = Usr::gate(
            BoolExpr::ne(v("SYM"), k(1)),
            Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(3)))),
        );
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("SYM"), 0);
        assert_eq!(eval_usr(&s, &ctx, 100).unwrap().len(), 4);
        ctx.set_scalar(sym("SYM"), 1);
        assert!(eval_usr(&s, &ctx, 100).unwrap().is_empty());
    }

    #[test]
    fn recurrence_iterates() {
        // ∪_{i=1..4} {2i} = {2,4,6,8}. Use a gate mentioning i so the
        // constructor cannot collapse the recurrence.
        let body = Usr::gate(
            BoolExpr::gt0(v("i")),
            Usr::leaf(LmadSet::single(Lmad::point(v("i").scale(2)))),
        );
        let u = Usr::rec_total(sym("i"), k(1), k(4), body);
        let ctx = MapCtx::new();
        assert_eq!(
            eval_usr(&u, &ctx, 100).unwrap(),
            [2, 4, 6, 8].into_iter().collect()
        );
    }

    #[test]
    fn oind_evaluation_detects_collision() {
        // WF_i = {B(i)} with B = [1, 2, 1]: iterations 1 and 3 collide.
        let wf = Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(
            sym("B"),
            v("i"),
        ))));
        let o = output_independence(sym("i"), &k(1), &k(3), &wf);
        let mut ctx = MapCtx::new();
        ctx.set_array(sym("B"), 1, vec![1, 2, 1]);
        assert_eq!(eval_empty(&o, &ctx, 1000), Some(false));
        // Injective index array: no collision.
        ctx.set_array(sym("B"), 1, vec![1, 2, 3]);
        assert_eq!(eval_empty(&o, &ctx, 1000), Some(true));
    }

    #[test]
    fn limit_aborts_runaway() {
        let u = Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(1_000_000))));
        let ctx = MapCtx::new();
        assert!(eval_usr(&u, &ctx, 1000).is_none());
    }

    #[test]
    fn unbound_symbol_propagates_none() {
        let u = Usr::leaf(LmadSet::single(Lmad::point(v("UNBOUND_IN_EVAL"))));
        let ctx = MapCtx::new();
        assert!(eval_usr(&u, &ctx, 1000).is_none());
    }
}
