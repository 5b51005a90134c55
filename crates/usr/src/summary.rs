//! RO/WF/RW access summaries and the data-flow equations of Figure 2.
//!
//! A [`Summary`] classifies the memory locations a region touches into
//! *write-first* (WF: written before any read), *read-only* (RO) and
//! *read-write* (RW: read before written, or both). Summaries are built
//! bottom-up over a structured program: statement-level summaries are
//! [composed](Summary::compose) across consecutive regions, merged across
//! [branches](Summary::branch), and [aggregated](Summary::aggregate_loop)
//! across loops.

use lip_lmad::LmadSet;
use lip_symbolic::{BoolExpr, Sym, SymExpr};

use crate::equations::prefix;
use crate::node::{CallSiteId, Usr};

/// The (WF, RO, RW) summary triple of a program region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Summary {
    /// Locations written before any read in the region.
    pub wf: Usr,
    /// Locations only read.
    pub ro: Usr,
    /// Locations read and written (read first, or intermixed).
    pub rw: Usr,
}

impl Default for Summary {
    fn default() -> Summary {
        Summary::empty()
    }
}

impl Summary {
    /// The summary of a region that does not touch the array.
    pub fn empty() -> Summary {
        Summary {
            wf: Usr::empty(),
            ro: Usr::empty(),
            rw: Usr::empty(),
        }
    }

    /// A pure read of `set`.
    pub fn read(set: LmadSet) -> Summary {
        Summary {
            wf: Usr::empty(),
            ro: Usr::leaf(set),
            rw: Usr::empty(),
        }
    }

    /// A pure (first) write of `set`.
    pub fn write(set: LmadSet) -> Summary {
        Summary {
            wf: Usr::leaf(set),
            ro: Usr::empty(),
            rw: Usr::empty(),
        }
    }

    /// An atomic read-modify-write of `set` (e.g. `A(i) = A(i) + 1`).
    pub fn read_write(set: LmadSet) -> Summary {
        Summary {
            wf: Usr::empty(),
            ro: Usr::empty(),
            rw: Usr::leaf(set),
        }
    }

    /// Whether all three components are empty.
    pub fn is_empty(&self) -> bool {
        self.wf.is_empty() && self.ro.is_empty() && self.rw.is_empty()
    }

    /// All locations accessed by the region: `WF ∪ RO ∪ RW`.
    pub fn all(&self) -> Usr {
        Usr::union_all([self.wf.clone(), self.ro.clone(), self.rw.clone()])
    }

    /// All locations written: `WF ∪ RW`.
    pub fn written(&self) -> Usr {
        Usr::union(self.wf.clone(), self.rw.clone())
    }

    /// All locations read: `RO ∪ RW`.
    pub fn read_set(&self) -> Usr {
        Usr::union(self.ro.clone(), self.rw.clone())
    }

    /// COMPOSE of Figure 2(a): `self` executes, then `next`.
    ///
    /// ```text
    /// WF = WF1 ∪ (WF2 − (RO1 ∪ RW1))
    /// RO = (RO1 − (WF2 ∪ RW2)) ∪ (RO2 − (WF1 ∪ RW1))
    /// RW = RW1 ∪ (RW2 − WF1) ∪ (RO1 ∩ WF2)
    /// ```
    pub fn compose(&self, next: &Summary) -> Summary {
        // Fast path: either side empty.
        if self.is_empty() {
            return next.clone();
        }
        if next.is_empty() {
            return self.clone();
        }
        let wf = Usr::union(
            self.wf.clone(),
            Usr::subtract(
                next.wf.clone(),
                Usr::union(self.ro.clone(), self.rw.clone()),
            ),
        );
        let ro = Usr::union(
            Usr::subtract(
                self.ro.clone(),
                Usr::union(next.wf.clone(), next.rw.clone()),
            ),
            Usr::subtract(
                next.ro.clone(),
                Usr::union(self.wf.clone(), self.rw.clone()),
            ),
        );
        let rw = Usr::union_all([
            self.rw.clone(),
            Usr::subtract(next.rw.clone(), self.wf.clone()),
            Usr::intersect(self.ro.clone(), next.wf.clone()),
        ]);
        Summary { wf, ro, rw }
    }

    /// Merge across an `IF cond THEN .. ELSE ..`: each side is gated by
    /// its branch condition and the two are united. When both branches
    /// produce the same component, the gate is elided (the paper's
    /// motivating example for summary-based analyses in §7).
    pub fn branch(cond: &BoolExpr, then_s: &Summary, else_s: &Summary) -> Summary {
        let not_cond = cond.negated();
        let merge = |a: &Usr, b: &Usr| -> Usr {
            if a == b {
                return a.clone();
            }
            Usr::union(
                Usr::gate(cond.clone(), a.clone()),
                Usr::gate(not_cond.clone(), b.clone()),
            )
        };
        Summary {
            wf: merge(&then_s.wf, &else_s.wf),
            ro: merge(&then_s.ro, &else_s.ro),
            rw: merge(&then_s.rw, &else_s.rw),
        }
    }

    /// Gates all three components with `p`.
    pub fn gate(&self, p: &BoolExpr) -> Summary {
        Summary {
            wf: Usr::gate(p.clone(), self.wf.clone()),
            ro: Usr::gate(p.clone(), self.ro.clone()),
            rw: Usr::gate(p.clone(), self.rw.clone()),
        }
    }

    /// Translates all components by `delta` (array reshaping across a
    /// call site: the callee's 1-D index space lands at an offset of the
    /// caller's).
    pub fn translate(&self, delta: &SymExpr) -> Summary {
        Summary {
            wf: translate_usr(&self.wf, delta),
            ro: translate_usr(&self.ro, delta),
            rw: translate_usr(&self.rw, delta),
        }
    }

    /// Substitutes an expression for a symbol in all components (formal →
    /// actual parameter mapping at call sites).
    pub fn subst(&self, s: Sym, with: &SymExpr) -> Summary {
        Summary {
            wf: self.wf.subst(s, with),
            ro: self.ro.subst(s, with),
            rw: self.rw.subst(s, with),
        }
    }

    /// Wraps all components in an unanalyzable-call-site barrier.
    pub fn at_call(&self, site: CallSiteId) -> Summary {
        Summary {
            wf: Usr::call(site, self.wf.clone()),
            ro: Usr::call(site, self.ro.clone()),
            rw: Usr::call(site, self.rw.clone()),
        }
    }

    /// AGGREGATE of Figure 2(b): folds the per-iteration summary
    /// (parametrized by `var ∈ [lo, hi]`) over the whole loop.
    ///
    /// ```text
    /// WF = ∪_i (WFi − ∪_{k<i}(ROk ∪ RWk))
    /// RO = (∪_i ROi) − ∪_i (WFi ∪ RWi)
    /// RW = ∪_i (ROi ∪ RWi) − (WF ∪ RO)
    /// ```
    pub fn aggregate_loop(&self, var: Sym, lo: &SymExpr, hi: &SymExpr) -> Summary {
        let rec = |body: &Usr| -> Usr { Usr::rec_total(var, lo.clone(), hi.clone(), body.clone()) };
        // Fast path: pure write-first loops (the common DOALL shape).
        if self.ro.is_empty() && self.rw.is_empty() {
            return Summary {
                wf: rec(&self.wf),
                ro: Usr::empty(),
                rw: Usr::empty(),
            };
        }
        // Fast path: pure read-only loops.
        if self.wf.is_empty() && self.rw.is_empty() {
            return Summary {
                wf: Usr::empty(),
                ro: rec(&self.ro),
                rw: Usr::empty(),
            };
        }
        // General case: WF subtracts the prefix union ∪_{k<i}(ROk ∪ RWk).
        let read_i = Usr::union(self.ro.clone(), self.rw.clone());
        let read_prefix = prefix(var, lo, &read_i);
        let wf = Usr::rec_total(
            var,
            lo.clone(),
            hi.clone(),
            Usr::subtract(self.wf.clone(), read_prefix),
        );
        let ro = Usr::subtract(
            rec(&self.ro),
            rec(&Usr::union(self.wf.clone(), self.rw.clone())),
        );
        let rw = Usr::subtract(rec(&read_i), Usr::union(wf.clone(), ro.clone()));
        Summary { wf, ro, rw }
    }
}

fn translate_usr(u: &Usr, delta: &SymExpr) -> Usr {
    use crate::node::UsrNode;
    match u.node() {
        UsrNode::Empty => Usr::empty(),
        UsrNode::Leaf(set) => Usr::leaf(set.translate(delta)),
        UsrNode::Union(a, b) => Usr::union(translate_usr(a, delta), translate_usr(b, delta)),
        UsrNode::Intersect(a, b) => {
            Usr::intersect(translate_usr(a, delta), translate_usr(b, delta))
        }
        UsrNode::Subtract(a, b) => Usr::subtract(translate_usr(a, delta), translate_usr(b, delta)),
        UsrNode::Gate(p, body) => Usr::gate(p.clone(), translate_usr(body, delta)),
        UsrNode::Call(site, body) => Usr::call(*site, translate_usr(body, delta)),
        UsrNode::RecTotal { var, lo, hi, body } => {
            Usr::rec_total(*var, lo.clone(), hi.clone(), translate_usr(body, delta))
        }
        UsrNode::RecPartial { var, lo, hi, body } => {
            Usr::rec_partial(*var, lo.clone(), hi.clone(), translate_usr(body, delta))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::UsrNode;
    use lip_lmad::Lmad;
    use lip_symbolic::sym;

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    fn set(lo: SymExpr, hi: SymExpr) -> LmadSet {
        LmadSet::single(Lmad::interval(lo, hi))
    }

    #[test]
    fn compose_read_then_write() {
        // RO then WF on the same region: paper's example — RO = S1 − S2,
        // WF = S2 − S1, RW = S1 ∩ S2.
        let s1 = Summary::read(set(k(0), v("n")));
        let s2 = Summary::write(set(k(0), v("m")));
        let c = s1.compose(&s2);
        assert!(matches!(c.ro.node(), UsrNode::Subtract(_, _)));
        assert!(matches!(c.rw.node(), UsrNode::Intersect(_, _)));
        // WF = WF1 ∪ (WF2 − RO1) = S2 − S1.
        assert!(matches!(c.wf.node(), UsrNode::Subtract(_, _)));
    }

    #[test]
    fn compose_write_then_read_is_write_first() {
        // Write [0,n] then read [0,n]: read is covered, WF absorbs it.
        let w = Summary::write(set(k(0), v("n")));
        let r = Summary::read(set(k(0), v("n")));
        let c = w.compose(&r);
        assert_eq!(c.wf, Usr::leaf(set(k(0), v("n"))));
        // RO = RO2 − WF1 = ∅ (identical sets cancel).
        assert!(c.ro.is_empty());
        assert!(c.rw.is_empty());
    }

    #[test]
    fn branch_with_identical_sides_elides_gate() {
        // The §7 motivating example: both branches write A — the gate
        // p(i) disappears from the summary.
        let s = Summary::write(set(k(0), k(0)));
        let cond = BoolExpr::gt0(SymExpr::elem(sym("p"), v("i")));
        let m = Summary::branch(&cond, &s, &s);
        assert_eq!(m.wf, s.wf);
    }

    #[test]
    fn branch_with_single_side_gates() {
        let s = Summary::write(set(k(0), v("n")));
        let cond = BoolExpr::ne(v("SYM"), k(1));
        let m = Summary::branch(&cond, &s, &Summary::empty());
        match m.wf.node() {
            UsrNode::Gate(p, _) => assert_eq!(*p, cond),
            other => panic!("expected gate, got {other:?}"),
        }
        assert!(m.ro.is_empty());
    }

    #[test]
    fn aggregate_pure_write_fast_path() {
        // WF_i = {i} over i in 1..=N aggregates to the leaf [1, N].
        let s = Summary::write(LmadSet::single(Lmad::point(v("i"))));
        let a = s.aggregate_loop(sym("i"), &k(1), &v("N"));
        match a.wf.node() {
            UsrNode::Gate(_, inner) => assert!(matches!(inner.node(), UsrNode::Leaf(_))),
            other => panic!("expected gated leaf, got {other:?}"),
        }
        assert!(a.ro.is_empty());
        assert!(a.rw.is_empty());
    }

    #[test]
    fn aggregate_general_builds_prefix_subtraction() {
        // WF_i = {i}, RO_i = {i+M}: the aggregated WF must subtract the
        // read prefix (cross-iteration write-after-read matters).
        let s = Summary {
            wf: Usr::leaf(LmadSet::single(Lmad::point(v("i")))),
            ro: Usr::leaf(LmadSet::single(Lmad::point(v("i") + v("M")))),
            rw: Usr::empty(),
        };
        let a = s.aggregate_loop(sym("i"), &k(1), &v("N"));
        assert!(matches!(a.wf.node(), UsrNode::RecTotal { .. }));
        assert!(matches!(a.ro.node(), UsrNode::Subtract(_, _)));
    }

    #[test]
    fn translate_shifts_leaves() {
        let s = Summary::write(set(k(0), v("n")));
        let t = s.translate(&v("off"));
        match t.wf.node() {
            UsrNode::Leaf(ls) => {
                assert_eq!(*ls.lmads()[0].offset(), v("off"));
            }
            other => panic!("expected leaf, got {other:?}"),
        }
    }

    #[test]
    fn empty_compose_identity() {
        let s = Summary::read(set(k(0), v("n")));
        assert_eq!(Summary::empty().compose(&s), s);
        assert_eq!(s.compose(&Summary::empty()), s);
    }
}
