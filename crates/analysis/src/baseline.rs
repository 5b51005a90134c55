//! The commercial-compiler baseline (the paper's ifort / xlf_r stand-in).
//!
//! The paper attributes the commercial compilers' gap to two missing
//! capabilities: interprocedural dependence analysis and runtime
//! validation (§6.1). This baseline therefore parallelizes a loop only
//! when everything is visible *intraprocedurally* and decidable
//! *statically in the affine domain*:
//!
//! * no CALL / DO WHILE / READ in the body,
//! * every subscript affine in the loop index with a constant
//!   coefficient and a loop-invariant remainder,
//! * scalars are the loop index, privatizable recomputed temporaries,
//!   simple affine IVs, or scalar reduction accumulators,
//! * all dependence pairs refuted by the constant-distance / gcd test.

use std::collections::BTreeSet;

use lip_ir::{Expr, LValue, Stmt, Subroutine};
use lip_symbolic::{Sym, SymExpr};

use crate::summarize::{assigned_scalars, classify_scalar, ScalarKind};
use crate::symbridge::SymEnv;

/// One affine array access: `coef·i + rest`.
#[derive(Clone, Debug)]
struct Access {
    array: Sym,
    coef: i64,
    rest: SymExpr,
    is_write: bool,
}

/// Whether the static affine baseline can parallelize this DO loop.
pub fn baseline_parallel(sub: &Subroutine, stmt: &Stmt) -> bool {
    let Stmt::Do { var, body, .. } = stmt else {
        return false;
    };
    // 1. Whole body must be intraprocedural straight-line/if/do code.
    if has_blockers(body) {
        return false;
    }
    // 2. Scalars must be benign.
    let env = SymEnv::new();
    for s in assigned_scalars(body) {
        if s == *var {
            continue;
        }
        match classify_scalar(sub, body, s, *var, &env) {
            ScalarKind::Invariant
            | ScalarKind::Recomputed
            | ScalarKind::Reduction
            | ScalarKind::AffineIv { .. } => {}
            ScalarKind::Civ => return false,
        }
    }
    // 3. Collect all accesses; inner loop indexes are treated as part of
    //    the invariant remainder only if they genuinely don't multiply
    //    the outer index (checked by the affine split below).
    let mut accesses = Vec::new();
    if !collect_accesses(sub, body, *var, &env, &mut accesses) {
        return false;
    }
    // 4. Pairwise dependence refutation.
    let mut arrays: BTreeSet<Sym> = BTreeSet::new();
    for a in &accesses {
        arrays.insert(a.array);
    }
    for arr in arrays {
        let of_arr: Vec<&Access> = accesses.iter().filter(|a| a.array == arr).collect();
        for (k, a) in of_arr.iter().enumerate() {
            for b in of_arr.iter().skip(k) {
                if !a.is_write && !b.is_write {
                    continue;
                }
                if !independent(a, b) {
                    return false;
                }
            }
        }
    }
    true
}

fn has_blockers(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Call { .. } | Stmt::While { .. } | Stmt::Read { .. } => true,
        _ => s.child_blocks().iter().any(|b| has_blockers(b)),
    })
}

fn collect_accesses(
    sub: &Subroutine,
    stmts: &[Stmt],
    var: Sym,
    env: &SymEnv,
    out: &mut Vec<Access>,
) -> bool {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if !collect_expr(sub, rhs, var, env, false, out) {
                    return false;
                }
                if let LValue::Element(arr, idx) = lhs {
                    for e in idx {
                        if !collect_expr(sub, e, var, env, false, out) {
                            return false;
                        }
                    }
                    let Some(lin) = crate::symbridge::linearize_subscripts(sub, env, *arr, idx)
                    else {
                        return false;
                    };
                    let Some(acc) = affine_split(*arr, &lin, var, true) else {
                        return false;
                    };
                    out.push(acc);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if !collect_expr(sub, cond, var, env, false, out) {
                    return false;
                }
                if !collect_accesses(sub, then_body, var, env, out)
                    || !collect_accesses(sub, else_body, var, env, out)
                {
                    return false;
                }
            }
            Stmt::Do { lo, hi, body, .. } => {
                if !collect_expr(sub, lo, var, env, false, out)
                    || !collect_expr(sub, hi, var, env, false, out)
                {
                    return false;
                }
                if !collect_accesses(sub, body, var, env, out) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

fn collect_expr(
    sub: &Subroutine,
    e: &Expr,
    var: Sym,
    env: &SymEnv,
    _write: bool,
    out: &mut Vec<Access>,
) -> bool {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => true,
        Expr::Elem(arr, idx) => {
            for i in idx {
                if !collect_expr(sub, i, var, env, false, out) {
                    return false;
                }
            }
            let Some(lin) = crate::symbridge::linearize_subscripts(sub, env, *arr, idx) else {
                return false;
            };
            match affine_split(*arr, &lin, var, false) {
                Some(acc) => {
                    out.push(acc);
                    true
                }
                None => false,
            }
        }
        Expr::Bin(_, a, b) => {
            collect_expr(sub, a, var, env, false, out) && collect_expr(sub, b, var, env, false, out)
        }
        Expr::Un(_, a) => collect_expr(sub, a, var, env, false, out),
        Expr::Intrin(_, args) => args
            .iter()
            .all(|a| collect_expr(sub, a, var, env, false, out)),
    }
}

/// Splits a linearized subscript as `coef·var + rest`; affine means the
/// coefficient is an integer constant and `rest` is `var`-free.
fn affine_split(array: Sym, lin: &SymExpr, var: Sym, is_write: bool) -> Option<Access> {
    let (a, b) = lin.split_linear(var)?;
    let coef = a.as_const()?;
    if b.contains_sym(var) {
        return None;
    }
    // An index-array in the remainder is non-affine for the baseline.
    if b.syms().iter().any(|s| *s != var) && contains_elem(&b) {
        return None;
    }
    Some(Access {
        array,
        coef,
        rest: b,
        is_write,
    })
}

fn contains_elem(e: &SymExpr) -> bool {
    e.terms().any(|(m, _)| {
        m.atoms().iter().any(|(a, _)| {
            matches!(
                a,
                lip_symbolic::Atom::Elem(_, _)
                    | lip_symbolic::Atom::Min(_, _)
                    | lip_symbolic::Atom::Max(_, _)
            )
        })
    })
}

/// Whether the loop is *provably dependent* in the affine domain: some
/// write/access pair on the same array has equal constant coefficients
/// and a constant non-zero distance divisible by the coefficient (e.g.
/// `A(i)` vs `A(i-1)`). Used by the classifier to report STATIC-SEQ.
pub fn affine_definitely_dependent(sub: &Subroutine, stmt: &Stmt) -> bool {
    let Stmt::Do { var, body, .. } = stmt else {
        return false;
    };
    if has_blockers(body) {
        return false;
    }
    let env = SymEnv::new();
    let mut accesses = Vec::new();
    if !collect_accesses(sub, body, *var, &env, &mut accesses) {
        return false;
    }
    for (k, a) in accesses.iter().enumerate() {
        for b in accesses.iter().skip(k + 1) {
            if a.array != b.array || (!a.is_write && !b.is_write) {
                continue;
            }
            if a.coef == b.coef && a.coef != 0 {
                if let Some(d) = (&a.rest - &b.rest).as_const() {
                    if d != 0 && d % a.coef == 0 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Constant-distance / gcd refutation for a pair of accesses.
fn independent(a: &Access, b: &Access) -> bool {
    if a.coef != b.coef {
        // Different coefficients: the classic tests give up (dependent)
        // unless both are zero-coefficient reads (handled by caller).
        return false;
    }
    let coef = a.coef;
    if coef == 0 {
        // Loop-invariant location written every iteration: output
        // dependence (the baseline does not privatize arrays).
        return false;
    }
    let d = &a.rest - &b.rest;
    match d.as_const() {
        // Same subscript: same iteration touches the same location only.
        Some(0) => true,
        // Constant distance: dependent iff coef divides it.
        Some(d) => d % coef != 0,
        // Symbolic distance: undecidable statically — dependent.
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    fn check(src: &str, label: &str) -> bool {
        let prog = parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let stmt = sub.find_loop(label).expect("loop").clone();
        baseline_parallel(&sub, &stmt)
    }

    #[test]
    fn simple_affine_loop_passes() {
        assert!(check(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*), B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = B(i) + 1.0
  ENDDO
END
",
            "l1"
        ));
    }

    #[test]
    fn calls_block_the_baseline() {
        assert!(!check(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    CALL f(A, i)
  ENDDO
END

SUBROUTINE f(A, i)
  DIMENSION A(*)
  INTEGER i
  A(i) = 0.0
END
",
            "l1"
        ));
    }

    #[test]
    fn index_arrays_block_the_baseline() {
        assert!(!check(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(B(i)) = 1.0
  ENDDO
END
",
            "l1"
        ));
    }

    #[test]
    fn symbolic_offset_blocks_the_baseline() {
        // Independent iff M >= N — needs a runtime test the baseline
        // does not have.
        assert!(!check(
            "
SUBROUTINE t(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO l1 i = 1, N
    A(i) = A(i + M) * 0.5
  ENDDO
END
",
            "l1"
        ));
    }

    #[test]
    fn constant_distance_same_parity_blocks() {
        assert!(!check(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(2 * i) = A(2 * i + 2) + 1.0
  ENDDO
END
",
            "l1"
        ));
    }

    #[test]
    fn gcd_refutation_passes_odd_even() {
        assert!(check(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(2 * i) = A(2 * i + 1) + 1.0
  ENDDO
END
",
            "l1"
        ));
    }

    #[test]
    fn invariant_write_blocks() {
        assert!(!check(
            "
SUBROUTINE t(A, N, k)
  DIMENSION A(*)
  INTEGER i, N, k
  DO l1 i = 1, N
    A(k) = A(k) + 1.0
  ENDDO
END
",
            "l1"
        ));
        let _ = sym("unused");
    }

    #[test]
    fn scalar_reduction_is_fine() {
        assert!(check(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  s = 0.0
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
",
            "l1"
        ));
    }
}
