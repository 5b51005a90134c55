//! Loop independence as USR equations (paper §2.2).
//!
//! Given the per-iteration summaries `(WFi, ROi, RWi)` of an array in a
//! loop `i ∈ [lo, hi]`, loop independence holds when the corresponding
//! *independence USR* is empty:
//!
//! * **Output independence** (Eq. 2): no two iterations write-first the
//!   same location — `∪_i (WFi ∩ ∪_{k<i} WFk) = ∅`.
//! * **Flow/anti independence** (Eq. 3): no location is written by one
//!   iteration and read by another —
//!   `(∪WF ∩ ∪RO) ∪ (∪WF ∩ ∪RW) ∪ (∪RO ∩ ∪RW) ∪ ∪_i(RWi ∩ ∪_{k<i}RWk) = ∅`.
//! * **Static last value** (§4): the loop's whole WF set is covered by the
//!   last iteration's — `∪_i WFi − WF(hi) = ∅`.

use lip_symbolic::{Binders, Sym, SymExpr};

use crate::node::Usr;
use crate::summary::Summary;

/// The OIND-USR of Equation 2: `∪_{i}(WFi ∩ (∪_{k=lo}^{i-1} WFk))`.
pub fn output_independence(var: Sym, lo: &SymExpr, hi: &SymExpr, wf_i: &Usr) -> Usr {
    if wf_i.is_empty() {
        return Usr::empty();
    }
    Usr::rec_total(
        var,
        lo.clone(),
        hi.clone(),
        Usr::intersect(wf_i.clone(), prefix(var, lo, wf_i)),
    )
}

/// `∪_{k=lo}^{var-1} s[var := k]`, the iterations before `var`'s (the
/// paper's Figure 3 prefix), bound by the lowest binder that occurs
/// nowhere in `s`, `lo` or `var`: two equal summaries get equal
/// prefixes, and the renaming cannot capture.
pub(crate) fn prefix(var: Sym, lo: &SymExpr, s: &Usr) -> Usr {
    let k = (Binders::of(var) | lo.binders() | s.binders()).first_free();
    Usr::rec_partial(
        k,
        lo.clone(),
        &SymExpr::var(var) - &SymExpr::konst(1),
        s.rename_bound(var, k),
    )
}

/// The FIND-USR of Equation 3 for the per-iteration summary `s`.
pub fn flow_independence(var: Sym, lo: &SymExpr, hi: &SymExpr, s: &Summary) -> Usr {
    let rec = |u: &Usr| Usr::rec_total(var, lo.clone(), hi.clone(), u.clone());
    let w = rec(&s.wf);
    let r = rec(&s.ro);
    let rw = rec(&s.rw);
    let t1 = Usr::intersect(w.clone(), r.clone());
    let t2 = Usr::intersect(w, rw.clone());
    let t3 = Usr::intersect(r, rw);
    let t4 = if s.rw.is_empty() {
        Usr::empty()
    } else {
        Usr::rec_total(
            var,
            lo.clone(),
            hi.clone(),
            Usr::intersect(s.rw.clone(), prefix(var, lo, &s.rw)),
        )
    };
    Usr::union_all([t1, t2, t3, t4])
}

/// The static-last-value equation of §4: `∪_i (WFi) − WFi[i := hi]`.
/// Empty means the last iteration's write-first set covers the loop's, so
/// the final value of every written location comes from iteration `hi`.
pub fn slv_equation(var: Sym, lo: &SymExpr, hi: &SymExpr, wf_i: &Usr) -> Usr {
    let whole = Usr::rec_total(var, lo.clone(), hi.clone(), wf_i.clone());
    let last = wf_i.subst(var, hi);
    Usr::subtract(whole, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::UsrNode;
    use lip_lmad::{Lmad, LmadSet};
    use lip_symbolic::{sym, BoolExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn oind_of_invariant_writes_is_nontrivial() {
        // WF_i = [0, m] (invariant): iterations collide, OIND-USR is the
        // intersection of the set with itself over a non-empty prefix —
        // not syntactically empty (the loop is output dependent unless
        // privatized).
        let wf = Usr::leaf(LmadSet::single(Lmad::interval(k(0), v("m"))));
        let o = output_independence(sym("i"), &k(1), &v("N"), &wf);
        assert!(!o.is_empty());
    }

    #[test]
    fn oind_of_disjoint_points_structure() {
        // WF_i = {i}: OIND = ∪_i ({i} ∩ [1, i-1]) — the partial
        // recurrence collapses to the interval [1, i-1].
        let wf = Usr::leaf(LmadSet::single(Lmad::point(v("i"))));
        let o = output_independence(sym("i"), &k(1), &v("N"), &wf);
        match o.node() {
            UsrNode::RecTotal { body, .. } => {
                assert!(matches!(body.node(), UsrNode::Intersect(_, _)));
            }
            other => panic!("expected recurrence, got {other:?}"),
        }
    }

    #[test]
    fn find_empty_for_pure_reads() {
        let s = Summary::read(LmadSet::single(Lmad::point(v("i"))));
        let f = flow_independence(sym("i"), &k(1), &v("N"), &s);
        assert!(f.is_empty());
    }

    #[test]
    fn find_empty_for_pure_writes() {
        let s = Summary::write(LmadSet::single(Lmad::point(v("i"))));
        let f = flow_independence(sym("i"), &k(1), &v("N"), &s);
        assert!(f.is_empty());
    }

    #[test]
    fn find_nonempty_when_reads_meet_writes() {
        let s = Summary {
            wf: Usr::leaf(LmadSet::single(Lmad::point(v("i")))),
            ro: Usr::leaf(LmadSet::single(Lmad::point(v("i") + v("M")))),
            rw: Usr::empty(),
        };
        let f = flow_independence(sym("i"), &k(1), &v("N"), &s);
        assert!(matches!(f.node(), UsrNode::Intersect(_, _)));
    }

    #[test]
    fn slv_for_invariant_wf_is_empty() {
        // WF_i = [0, m] invariant: last iteration writes everything the
        // loop wrote, so SLV applies statically.
        let wf = Usr::leaf(LmadSet::single(Lmad::interval(k(0), v("m"))));
        let s = slv_equation(sym("i"), &k(1), &v("N"), &wf);
        // ∪_i WF − WF = gate(1<=N, WF) − WF. The gate blocks syntactic
        // emptiness only through the gate-aware subtract; accept either
        // Empty or a Subtract whose sides differ only by the gate.
        match s.node() {
            UsrNode::Empty => {}
            UsrNode::Subtract(a, b) => {
                if let UsrNode::Gate(p, inner) = a.node() {
                    assert_eq!(*p, BoolExpr::le(k(1), v("N")));
                    assert_eq!(inner, b);
                } else {
                    panic!("unexpected SLV structure: {s}");
                }
            }
            other => panic!("unexpected SLV structure: {other:?}"),
        }
    }

    #[test]
    fn slv_for_moving_window_is_nonempty() {
        let wf = Usr::leaf(LmadSet::single(Lmad::point(v("i"))));
        let s = slv_equation(sym("i"), &k(1), &v("N"), &wf);
        assert!(!s.is_empty());
    }
}
