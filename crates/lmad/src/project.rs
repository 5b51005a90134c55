//! Multi-dimensional LMAD disjointness via flattening, dimension
//! unification and outer-dimension projection (paper Figure 6(a)).
//!
//! Multi-dimensional LMADs present two difficulties: dimensions may
//! overlap, and the two LMADs may disagree in dimensionality. The paper's
//! heuristic (i) flattens both to 1-D and tests there, and (ii) when both
//! sides expose a dimension with the *same* stride, projects that
//! dimension out — guarded by *well-formedness* predicates stating the
//! projection is sound (the remaining index range fits strictly inside
//! one outer stride) — and recursively compares outer and inner parts.

use lip_symbolic::{BoolExpr, SymExpr};

use crate::predicates::{disjoint_1d, disjoint_lmad};
use crate::{Dim, Lmad};

/// Flattens an LMAD to a 1-D overestimate: stride = gcd of the (constant)
/// strides — or 1 when any stride is symbolic — and span = Σ spans.
pub fn flatten(l: &Lmad) -> Lmad {
    if l.ndims() <= 1 {
        return l.clone();
    }
    let mut g: i64 = 0;
    let mut all_const = true;
    for d in l.dims() {
        match d.stride.as_const() {
            Some(c) => g = lip_symbolic::expr::gcd(g, c),
            None => {
                all_const = false;
                break;
            }
        }
    }
    let stride = if all_const && g >= 1 {
        SymExpr::konst(g)
    } else {
        SymExpr::konst(1)
    };
    Lmad::from_dims(
        vec![Dim {
            stride,
            span: l.total_span(),
        }],
        l.offset().clone(),
    )
}

/// The result of projecting one dimension out of an LMAD.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Well-formedness: the inner part lies within `[0, stride)` of the
    /// projected dimension, so inner/outer coordinates are independent.
    pub wellformed: BoolExpr,
    /// The remaining (inner) LMAD, carrying the non-aligned offset part.
    pub inner: Lmad,
    /// The projected (outer) dimension as a 1-D LMAD, carrying the
    /// stride-aligned offset part.
    pub outer: Lmad,
}

/// Projects dimension `idx` out of `l` (paper's `PROJ_OUTER_DIM`).
///
/// The offset `τ` is split syntactically into `τ_out + ρ` where `τ_out`
/// collects the terms that are exact multiples of the projected stride;
/// the well-formedness predicate then requires `0 ≤ ρ` and
/// `ρ + Σ inner spans < stride`.
pub fn project_dim(l: &Lmad, idx: usize) -> Projection {
    let dim = &l.dims()[idx];
    let (tau_out, rho) = split_offset(l.offset(), &dim.stride);
    let inner_dims: Vec<Dim> = l
        .dims()
        .iter()
        .enumerate()
        .filter(|(k, _)| *k != idx)
        .map(|(_, d)| d.clone())
        .collect();
    let inner_span_sum = inner_dims
        .iter()
        .fold(SymExpr::zero(), |acc, d| &acc + &d.span);
    let wellformed = BoolExpr::and(vec![
        BoolExpr::ge0(rho.clone()),
        BoolExpr::lt(&rho + &inner_span_sum, dim.stride.clone()),
    ]);
    let inner = Lmad::from_dims(inner_dims, rho);
    let outer = Lmad::from_dims(
        vec![Dim {
            stride: dim.stride.clone(),
            span: dim.span.clone(),
        }],
        tau_out,
    );
    Projection {
        wellformed,
        inner,
        outer,
    }
}

/// Splits `offset` into `(aligned, remainder)` where `aligned` is an exact
/// multiple of `stride` (syntactically) and `remainder` the rest.
fn split_offset(offset: &SymExpr, stride: &SymExpr) -> (SymExpr, SymExpr) {
    if let Some(c) = stride.as_const() {
        if c > 1 {
            let mut aligned = SymExpr::zero();
            let mut rem = SymExpr::zero();
            for (m, coeff) in offset.terms() {
                let part = SymExpr::term(m.clone(), coeff);
                if coeff % c == 0 {
                    aligned = &aligned + &part;
                } else {
                    rem = &rem + &part;
                }
            }
            return (aligned, rem);
        }
        return (SymExpr::zero(), offset.clone());
    }
    // Symbolic stride: a term is aligned when its monomial contains every
    // atom of the stride's (single) monomial with the coefficient
    // dividing exactly.
    let mut terms = stride.terms();
    let Some((sm, sc)) = terms.next() else {
        return (SymExpr::zero(), offset.clone());
    };
    if terms.next().is_some() {
        return (SymExpr::zero(), offset.clone());
    }
    let mut aligned = SymExpr::zero();
    let mut rem = SymExpr::zero();
    for (m, coeff) in offset.terms() {
        let part = SymExpr::term(m.clone(), coeff);
        if coeff % sc == 0 && m.div(sm).is_some() {
            aligned = &aligned + &part;
        } else {
            rem = &rem + &part;
        }
    }
    (aligned, rem)
}

/// Sufficient disjointness predicate for LMADs where at least one side is
/// multi-dimensional (paper's `DISJOINT_LMAD`):
///
/// ```text
/// P = P_flat ∨ (P_wf_C ∧ P_wf_D ∧ (P_out ∨ P_in))
/// ```
pub fn disjoint_multidim(a: &Lmad, b: &Lmad) -> BoolExpr {
    let p_flat = disjoint_1d(&flatten(a), &flatten(b));
    // UNIFY_LMAD_DIMS: find a pair of dimensions with syntactically equal
    // strides (skipping unit strides, which flattening already covers).
    let mut pair = None;
    for (ia, da) in a.dims().iter().enumerate().rev() {
        if da.stride.as_const() == Some(1) {
            continue;
        }
        for (ib, db) in b.dims().iter().enumerate().rev() {
            if da.stride == db.stride {
                pair = Some((ia, ib));
                break;
            }
        }
        if pair.is_some() {
            break;
        }
    }
    let Some((ia, ib)) = pair else {
        return p_flat;
    };
    let pa = project_dim(a, ia);
    let pb = project_dim(b, ib);
    let p_out = disjoint_1d(&pa.outer, &pb.outer);
    let p_in = disjoint_lmad(&pa.inner, &pb.inner);
    BoolExpr::or(vec![
        p_flat,
        BoolExpr::and(vec![
            pa.wellformed,
            pb.wellformed,
            BoolExpr::or(vec![p_out, p_in]),
        ]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::{sym, BoolExpr, MapCtx, RangeEnv, SymExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn flatten_const_strides_keeps_gcd() {
        let l = Lmad::from_dims(
            vec![
                Dim {
                    stride: k(4),
                    span: k(12),
                },
                Dim {
                    stride: k(6),
                    span: k(18),
                },
            ],
            v("t"),
        );
        let f = flatten(&l);
        assert_eq!(f.ndims(), 1);
        assert_eq!(f.dims()[0].stride, k(2));
        assert_eq!(f.dims()[0].span, k(30));
        assert_eq!(*f.offset(), v("t"));
    }

    #[test]
    fn flatten_symbolic_stride_falls_back_to_one() {
        let l = Lmad::from_dims(
            vec![
                Dim {
                    stride: v("M"),
                    span: v("M").scale(2),
                },
                Dim {
                    stride: k(2),
                    span: k(8),
                },
            ],
            k(0),
        );
        assert_eq!(flatten(&l).dims()[0].stride, k(1));
    }

    #[test]
    fn projection_splits_aligned_offset() {
        // [M]v[2M] + (j-1+2M): outer gets 2M, inner keeps j-1.
        let l = Lmad::from_dims(
            vec![Dim {
                stride: v("M"),
                span: v("M").scale(2),
            }],
            v("j") - k(1) + v("M").scale(2),
        );
        let p = project_dim(&l, 0);
        assert_eq!(*p.outer.offset(), v("M").scale(2));
        assert_eq!(*p.inner.offset(), v("j") - k(1));
        // wf: 0 <= j-1 ∧ j-1 < M.
        let env =
            RangeEnv::new()
                .with_range(sym("j"), k(1), k(3))
                .with_range(sym("M"), k(10), k(10));
        assert_eq!(env.decide(&p.wellformed), Some(true));
    }

    #[test]
    fn paper_correc_do900_disjointness() {
        // C = [M]v[2M] + j-1+2M,  D = [1,M]v[j-2,2M] + 2M, disjoint when
        // the projection well-formedness (j-1 < M, j-2 < M) holds.
        let c = Lmad::from_dims(
            vec![Dim {
                stride: v("M"),
                span: v("M").scale(2),
            }],
            v("j") - k(1) + v("M").scale(2),
        );
        let d = Lmad::from_dims(
            vec![
                Dim {
                    stride: k(1),
                    span: v("j") - k(2),
                },
                Dim {
                    stride: v("M"),
                    span: v("M").scale(2),
                },
            ],
            v("M").scale(2),
        );
        let p = disjoint_multidim(&c, &d);
        // Concrete check across the loop range: M = 10, j in 2..=10 (the
        // sets are genuinely disjoint there, and wf holds for j-1 < 10).
        for j in 2..=10 {
            let mut ctx = MapCtx::new();
            ctx.set_scalar(sym("M"), 10).set_scalar(sym("j"), j);
            let holds = p.eval(&ctx) == Some(true);
            let truly_disjoint = {
                let cs = c.enumerate(&ctx, 10_000).expect("concrete");
                let ds = d.enumerate(&ctx, 10_000).expect("concrete");
                cs.intersection(&ds).count() == 0
            };
            // Soundness: predicate true implies truly disjoint.
            if holds {
                assert!(truly_disjoint, "unsound at j={j}");
            }
            // Accuracy at this loop's shape: wf holds for j <= 10 so the
            // predicate should succeed everywhere the sets are disjoint.
            assert!(holds, "predicate failed at j={j}");
        }
    }

    #[test]
    fn overlapping_outer_windows_not_proved_disjoint() {
        // Same stride but truly overlapping sets must evaluate false.
        let a = Lmad::from_dims(
            vec![Dim {
                stride: k(8),
                span: k(16),
            }],
            k(0),
        )
        .with_dim(k(1), k(3));
        let b = Lmad::from_dims(
            vec![Dim {
                stride: k(8),
                span: k(16),
            }],
            k(2),
        )
        .with_dim(k(1), k(3));
        let p = disjoint_multidim(&a, &b);
        let ctx = MapCtx::new();
        let sa = a.enumerate(&ctx, 1000).expect("concrete");
        let sb = b.enumerate(&ctx, 1000).expect("concrete");
        assert!(sa.intersection(&sb).count() > 0);
        assert_ne!(p.eval(&ctx), Some(true));
    }

    #[test]
    fn disjoint_inner_windows_proved() {
        // {0..3} within windows vs {4..6} within windows, stride 8.
        let a = Lmad::from_dims(
            vec![Dim {
                stride: k(8),
                span: k(16),
            }],
            k(0),
        )
        .with_dim(k(1), k(3));
        let b = Lmad::from_dims(
            vec![Dim {
                stride: k(8),
                span: k(16),
            }],
            k(4),
        )
        .with_dim(k(1), k(2));
        let p = disjoint_multidim(&a, &b);
        assert_eq!(p.eval(&MapCtx::new()), Some(true));
    }

    #[test]
    fn wellformedness_guards_unsound_projection() {
        // Inner span exceeding the outer stride: projection wf must fail,
        // and indeed the sets overlap.
        let a = Lmad::from_dims(
            vec![Dim {
                stride: k(4),
                span: k(8),
            }],
            k(0),
        )
        .with_dim(k(1), k(5)); // inner range 0..=5 spills into next window
        let b = Lmad::from_dims(
            vec![Dim {
                stride: k(4),
                span: k(8),
            }],
            k(6),
        )
        .with_dim(k(1), k(1));
        let ctx = MapCtx::new();
        let sa = a.enumerate(&ctx, 1000).expect("concrete");
        let sb = b.enumerate(&ctx, 1000).expect("concrete");
        assert!(sa.intersection(&sb).count() > 0);
        assert_ne!(disjoint_multidim(&a, &b).eval(&ctx), Some(true));
    }

    #[test]
    fn no_common_stride_uses_flat_test_only() {
        let a = Lmad::from_dims(
            vec![
                Dim {
                    stride: k(3),
                    span: k(6),
                },
                Dim {
                    stride: k(9),
                    span: k(9),
                },
            ],
            k(0),
        );
        let b = Lmad::from_dims(
            vec![
                Dim {
                    stride: k(3),
                    span: k(6),
                },
                Dim {
                    stride: k(9),
                    span: k(9),
                },
            ],
            k(1),
        );
        // gcd 3 does not divide offset diff 1: flat interleaving proves it.
        assert_eq!(disjoint_multidim(&a, &b).eval(&MapCtx::new()), Some(true));
        let c = b.translate(&k(2)); // offset 3: same residue class
        let p = disjoint_multidim(&a, &c);
        assert_ne!(p.eval(&MapCtx::new()), Some(true));
        drop(BoolExpr::t());
    }
}
