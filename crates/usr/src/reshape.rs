//! USR reshaping transformations (paper §3.4, Figure 8).
//!
//! Predicates are extracted by pattern-matching the *shape* of a summary,
//! so semantically equivalent USRs can translate to predicates of very
//! different accuracy. Two rewrites repair the most damaging shapes:
//!
//! 1. **Subtraction reassociation**: `(A − B) − C → A − (B ∪ C)`. The
//!    union of the subtracted terms may simplify to a larger exact set
//!    that *includes* `A` even when neither `B` nor `C` alone does.
//! 2. **UMEG preservation**: when `X` and `Y` are unions of mutually
//!    exclusive gates with compatible gate sets, `X − Y`, `X ∩ Y` and
//!    `X ∪ Y` distribute *inside* each gate, keeping the per-branch
//!    structure that gate-aware predicate extraction needs (instrumental
//!    for zeusmp and calculix in the paper's evaluation).

use lip_symbolic::BoolExpr;

use crate::node::{Usr, UsrNode};

/// Which reshaping rules to apply (both on by default; the ablation
/// benches toggle them individually).
#[derive(Copy, Clone, Debug)]
pub struct ReshapeConfig {
    /// Enable `(A − B) − C → A − (B ∪ C)`.
    pub reassociate_subtraction: bool,
    /// Enable UMEG-preserving distribution.
    pub umeg: bool,
}

impl Default for ReshapeConfig {
    fn default() -> ReshapeConfig {
        ReshapeConfig {
            reassociate_subtraction: true,
            umeg: true,
        }
    }
}

/// Applies the Figure 8 reshaping rules bottom-up until a fixed point
/// (bounded by the USR size).
pub fn reshape(u: &Usr, cfg: ReshapeConfig) -> Usr {
    let mut cur = u.clone();
    // The rewrites strictly reorganize; a small iteration bound suffices.
    for _ in 0..4 {
        let next = rewrite(&cur, cfg);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn rewrite(u: &Usr, cfg: ReshapeConfig) -> Usr {
    match u.node() {
        UsrNode::Empty | UsrNode::Leaf(_) => u.clone(),
        UsrNode::Union(a, b) => {
            let (a, b) = (rewrite(a, cfg), rewrite(b, cfg));
            if cfg.umeg {
                if let Some(r) = umeg_binary(UmegOp::Union, &a, &b) {
                    return r;
                }
            }
            Usr::union(a, b)
        }
        UsrNode::Intersect(a, b) => {
            let (a, b) = (rewrite(a, cfg), rewrite(b, cfg));
            if cfg.umeg {
                if let Some(r) = umeg_binary(UmegOp::Intersect, &a, &b) {
                    return r;
                }
            }
            Usr::intersect(a, b)
        }
        UsrNode::Subtract(a, b) => {
            let (a, b) = (rewrite(a, cfg), rewrite(b, cfg));
            if cfg.reassociate_subtraction {
                if let UsrNode::Subtract(x, y) = a.node() {
                    return rewrite(&Usr::subtract(x.clone(), Usr::union(y.clone(), b)), cfg);
                }
            }
            if cfg.umeg {
                if let Some(r) = umeg_binary(UmegOp::Subtract, &a, &b) {
                    return r;
                }
            }
            Usr::subtract(a, b)
        }
        UsrNode::Gate(p, body) => Usr::gate(p.clone(), rewrite(body, cfg)),
        UsrNode::Call(site, body) => Usr::call(*site, rewrite(body, cfg)),
        UsrNode::RecTotal { var, lo, hi, body } => {
            Usr::rec_total(*var, lo.clone(), hi.clone(), rewrite(body, cfg))
        }
        UsrNode::RecPartial { var, lo, hi, body } => {
            Usr::rec_partial(*var, lo.clone(), hi.clone(), rewrite(body, cfg))
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum UmegOp {
    Union,
    Intersect,
    Subtract,
}

/// Decomposes `u` as a union of gated summaries `∪_j (g_j # S_j)`.
/// Returns `None` when any union component is ungated.
fn as_umeg(u: &Usr) -> Option<Vec<(BoolExpr, Usr)>> {
    match u.node() {
        UsrNode::Gate(p, body) => Some(vec![(p.clone(), body.clone())]),
        UsrNode::Union(a, b) => {
            let mut left = as_umeg(a)?;
            left.extend(as_umeg(b)?);
            Some(left)
        }
        _ => None,
    }
}

/// Whether the gates are pairwise mutually exclusive (syntactically:
/// `g_i ∧ g_j` folds to `false`).
fn mutually_exclusive(gates: &[BoolExpr]) -> bool {
    for (i, a) in gates.iter().enumerate() {
        for b in gates.iter().skip(i + 1) {
            if a == b {
                continue;
            }
            if !BoolExpr::and(vec![a.clone(), b.clone()]).is_false() {
                return false;
            }
        }
    }
    true
}

/// UMEG-preserving distribution (Figure 8(b)): for `X op Y` where both are
/// unions of mutually exclusive gates over a *compatible* gate set
/// (distinct gates from the two sides must also be mutually exclusive),
/// rewrite to `∪_{g} g # (X_g op Y_g)`.
fn umeg_binary(op: UmegOp, x: &Usr, y: &Usr) -> Option<Usr> {
    let xs = as_umeg(x)?;
    let ys = as_umeg(y)?;
    // Collect the combined gate list and require pairwise exclusivity.
    let mut gates: Vec<BoolExpr> = Vec::new();
    for (g, _) in xs.iter().chain(ys.iter()) {
        if !gates.contains(g) {
            gates.push(g.clone());
        }
    }
    if gates.len() < 2 || !mutually_exclusive(&gates) {
        return None;
    }
    let branch = |side: &[(BoolExpr, Usr)], g: &BoolExpr| -> Usr {
        Usr::union_all(side.iter().filter(|(h, _)| h == g).map(|(_, s)| s.clone()))
    };
    let mut parts = Vec::new();
    for g in &gates {
        let xg = branch(&xs, g);
        let yg = branch(&ys, g);
        let combined = match op {
            UmegOp::Union => Usr::union(xg, yg),
            UmegOp::Intersect => Usr::intersect(xg, yg),
            UmegOp::Subtract => Usr::subtract(xg, yg),
        };
        parts.push(Usr::gate(g.clone(), combined));
    }
    Some(Usr::union_all(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_lmad::{Lmad, LmadSet};
    use lip_symbolic::{sym, SymExpr};

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
    fn reassociates_repeated_subtraction() {
        // (A − B) − C → A − (B ∪ C); B ∪ C merges exactly in the LMAD
        // domain, letting inclusion tests see the full subtracted set.
        let a = iv(k(0), v("n"));
        let b = iv(k(0), k(4));
        let c = iv(k(5), v("n"));
        let u = Usr::subtract(Usr::subtract(a.clone(), b), c);
        let r = reshape(&u, ReshapeConfig::default());
        match r.node() {
            UsrNode::Subtract(x, y) => {
                assert_eq!(*x, a);
                assert!(matches!(y.node(), UsrNode::Leaf(s) if s.lmads().len() == 2));
            }
            other => panic!("expected reassociated subtract, got {other:?}"),
        }
    }

    #[test]
    fn umeg_subtract_distributes() {
        // X = (c # S1) ∪ (¬c # S2), Y = (c # T1) ∪ (¬c # T2):
        // X − Y = (c # (S1 − T1)) ∪ (¬c # (S2 − T2)).
        let c = BoolExpr::ne(v("jbeg"), v("js"));
        let nc = c.negated();
        let s1 = iv(k(0), k(9));
        let s2 = iv(k(20), k(29));
        let t1 = iv(k(0), k(9));
        let t2 = iv(k(25), k(29));
        let x = Usr::union(Usr::gate(c.clone(), s1.clone()), Usr::gate(nc.clone(), s2));
        let y = Usr::union(Usr::gate(c.clone(), t1), Usr::gate(nc.clone(), t2));
        let r = reshape(&Usr::subtract(x, y), ReshapeConfig::default());
        // The c-branch folds to Empty (S1 − T1 = ∅), leaving only the
        // ¬c branch.
        match r.node() {
            UsrNode::Gate(p, body) => {
                assert_eq!(*p, nc);
                assert!(matches!(body.node(), UsrNode::Subtract(_, _)));
            }
            other => panic!("expected single gated branch, got {other:?}"),
        }
        drop(s1);
    }

    #[test]
    fn umeg_requires_mutual_exclusivity() {
        // Gates c and d are unrelated: no distribution.
        let c = BoolExpr::gt0(v("a"));
        let d = BoolExpr::gt0(v("b"));
        let x = Usr::union(
            Usr::gate(c.clone(), iv(k(0), k(5))),
            Usr::gate(d.clone(), iv(k(10), k(15))),
        );
        let y = Usr::gate(c, iv(k(0), k(5)));
        assert!(umeg_binary(UmegOp::Subtract, &x, &y).is_none());
        drop(d);
    }

    #[test]
    fn umeg_intersect_of_exclusive_gates_vanishes() {
        // X = c#S1 ∪ ¬c#S2, Y = c#S2 ∪ ¬c#S1 — intersect distributes to
        // (c # S1∩S2) ∪ (¬c # S2∩S1), which keeps gate structure.
        let c = BoolExpr::eq(v("p"), k(1));
        let nc = c.negated();
        let s1 = iv(k(0), k(3));
        let s2 = iv(k(10), k(13));
        let x = Usr::union(
            Usr::gate(c.clone(), s1.clone()),
            Usr::gate(nc.clone(), s2.clone()),
        );
        let y = Usr::union(Usr::gate(c.clone(), s2), Usr::gate(nc, s1));
        let r = umeg_binary(UmegOp::Intersect, &x, &y).expect("umeg applies");
        match r.node() {
            UsrNode::Union(a, b) => {
                assert!(matches!(a.node(), UsrNode::Gate(_, _)));
                assert!(matches!(b.node(), UsrNode::Gate(_, _)));
            }
            UsrNode::Gate(_, _) => {}
            other => panic!("expected gated union, got {other:?}"),
        }
        drop(c);
    }

    #[test]
    fn reshape_recurses_under_recurrences() {
        let a = iv(k(0), v("n"));
        let inner = Usr::subtract(
            Usr::subtract(a.clone(), iv(k(0), v("i"))),
            iv(v("i") + k(1), v("n")),
        );
        let u = Usr::rec_total(sym("i"), k(1), v("n"), inner);
        let r = reshape(&u, ReshapeConfig::default());
        match r.node() {
            UsrNode::RecTotal { body, .. } => {
                assert!(matches!(body.node(), UsrNode::Subtract(x, _) if *x == a));
            }
            other => panic!("expected recurrence, got {other:?}"),
        }
    }

    #[test]
    fn disabled_rules_do_nothing() {
        let a = iv(k(0), v("n"));
        let u = Usr::subtract(Usr::subtract(a, iv(k(0), k(4))), iv(k(5), k(9)));
        let cfg = ReshapeConfig {
            reassociate_subtraction: false,
            umeg: false,
        };
        assert_eq!(reshape(&u, cfg), u);
    }
}
