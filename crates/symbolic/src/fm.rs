//! Symbolic Fourier–Motzkin-like elimination (paper Figure 6(b)).
//!
//! [`reduce_gt0`] receives an integer-valued symbolic expression `expr` and
//! returns a predicate that is *sufficient* for `expr > 0`. A bounded
//! symbol `i` (with `L ≤ i ≤ U` from the [`RangeEnv`]) is chosen, `expr` is
//! rewritten as `a·i + b` with `b` free of `i`, and the result is
//!
//! ```text
//! (a ≥ 0 ∧ a·L + b > 0)  ∨  (a < 0 ∧ a·U + b > 0)
//! ```
//!
//! where each of the four sub-problems is reduced recursively. Because `a`
//! has strictly smaller degree in `i` than `expr`, the recursion terminates
//! (in exponential time in the number of eliminated symbols — the paper
//! notes that in practice only the outermost loop index is eliminated this
//! way).

use crate::boolexpr::BoolExpr;
use crate::expr::SymExpr;
use crate::range::RangeEnv;

/// Maximum recursion depth; beyond it the raw comparison is returned
/// untouched (still a correct — just unsimplified — sufficient condition).
const MAX_DEPTH: u32 = 12;

/// Returns a predicate sufficient for `expr > 0`, with all bounded symbols
/// of `env` eliminated where possible.
pub fn reduce_gt0(expr: &SymExpr, env: &RangeEnv) -> BoolExpr {
    reduce(expr, env, true, 0)
}

/// Returns a predicate sufficient for `expr ≥ 0` (i.e. `expr + 1 > 0`).
pub fn reduce_ge0(expr: &SymExpr, env: &RangeEnv) -> BoolExpr {
    reduce(&(expr + &SymExpr::konst(1)), env, true, 0)
}

/// Tries to *prove* `expr > 0` statically.
pub fn prove_gt0(expr: &SymExpr, env: &RangeEnv) -> bool {
    env.decide(&reduce_gt0(expr, env)) == Some(true)
}

/// Tries to *prove* `expr ≥ 0` statically.
pub fn prove_ge0(expr: &SymExpr, env: &RangeEnv) -> bool {
    env.decide(&reduce_ge0(expr, env)) == Some(true)
}

fn reduce(expr: &SymExpr, env: &RangeEnv, strict: bool, depth: u32) -> BoolExpr {
    debug_assert!(strict, "internal recursion always uses strict form");
    if let Some(c) = expr.as_const() {
        return BoolExpr::Const(c > 0);
    }
    if depth >= MAX_DEPTH {
        return BoolExpr::gt0(expr.clone());
    }
    // FIND_SYMBOL: pick a bounded symbol that occurs polynomially. Prefer
    // the one with the highest degree so quadratic indexes shrink fastest.
    let mut candidate: Option<(crate::sym::Sym, SymExpr, SymExpr, SymExpr, SymExpr)> = None;
    let mut best_degree = 0;
    for s in expr.factor_vars() {
        let Some(r) = env.range(s) else { continue };
        let (Some(lo), Some(hi)) = (&r.lo, &r.hi) else {
            continue;
        };
        let Some((a, b)) = expr.split_linear(s) else {
            continue;
        };
        if a.is_zero() {
            continue;
        }
        let deg = expr.degree_in(s);
        if deg > best_degree {
            best_degree = deg;
            candidate = Some((s, a, b, lo.clone(), hi.clone()));
        }
    }
    let Some((_s, a, b, lo, hi)) = candidate else {
        // err case of FIND_SYMBOL: return the raw comparison.
        return BoolExpr::gt0(expr.clone());
    };

    // (a >= 0 ∧ a*L+b > 0) ∨ (a < 0 ∧ a*U+b > 0)
    let a_nonneg = reduce(&(&a + &SymExpr::konst(1)), env, true, depth + 1);
    let at_lo = reduce(&(&a * &lo + &b), env, true, depth + 1);
    let a_neg = reduce(&-&a, env, true, depth + 1);
    let at_hi = reduce(&(&a * &hi + &b), env, true, depth + 1);
    BoolExpr::or(vec![
        BoolExpr::and(vec![a_nonneg, at_lo]),
        BoolExpr::and(vec![a_neg, at_hi]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    #[test]
    fn eliminates_loop_index_negative_coefficient() {
        // The paper's CORREC_DO711 term: IX(1)+1-IX(2)-i > 0 with
        // i in [1, NOP] reduces (coefficient of i is -1 < 0) to
        // IX(1)+1-IX(2)-NOP > 0, i.e. IX(2)+NOP <= IX(1).
        let ix1 = SymExpr::elem(sym("IX"), SymExpr::konst(1));
        let ix2 = SymExpr::elem(sym("IX"), SymExpr::konst(2));
        let expr = &ix1 + &SymExpr::konst(1) - &ix2 - v("i");
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), v("NOP"));
        let p = reduce_gt0(&expr, &env);
        let expected = BoolExpr::gt0(&ix1 + &SymExpr::konst(1) - &ix2 - v("NOP"));
        assert_eq!(p, expected);
    }

    #[test]
    fn positive_coefficient_uses_lower_bound() {
        // i + N - 3 > 0 with i in [1, N]: coefficient of i is 1 >= 0, so
        // sufficient condition substitutes i := 1 giving N - 2 > 0.
        let expr = v("i") + v("N") - SymExpr::konst(3);
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), v("N"));
        let p = reduce_gt0(&expr, &env);
        assert_eq!(p, BoolExpr::gt0(v("N") - SymExpr::konst(2)));
    }

    #[test]
    fn proves_constant_after_elimination() {
        // i >= 1 (i.e. i > 0 after strictification) with i in [1, 10].
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), SymExpr::konst(10));
        assert!(prove_gt0(&v("i"), &env));
        assert!(prove_ge0(&(v("i") - SymExpr::konst(1)), &env));
        assert!(!prove_gt0(&(v("i") - SymExpr::konst(1)), &env));
    }

    #[test]
    fn quadratic_elimination_terminates() {
        // i^2 - i >= 0 for i in [1, N]: expr+1 = i^2 - i + 1 > 0.
        // a = i - 1 (still contains i, smaller degree), recursion resolves.
        let expr = v("i") * v("i") - v("i");
        let env = RangeEnv::new()
            .with_range(sym("i"), SymExpr::konst(1), v("N"))
            .with_range(sym("N"), SymExpr::konst(1), SymExpr::konst(1000));
        assert!(prove_ge0(&expr, &env));
    }

    #[test]
    fn unbounded_symbols_return_raw_comparison() {
        let expr = v("M") - v("Q");
        let env = RangeEnv::new();
        assert_eq!(reduce_gt0(&expr, &env), BoolExpr::gt0(v("M") - v("Q")));
    }

    #[test]
    fn both_branches_survive_symbolic_coefficient() {
        // N*i - 5 with i in [1, 10] and N unbounded: coefficient N has
        // unknown sign, so both disjuncts remain.
        let expr = v("N") * v("i") - SymExpr::konst(5);
        let env = RangeEnv::new().with_range(sym("i"), SymExpr::konst(1), SymExpr::konst(10));
        let p = reduce_gt0(&expr, &env);
        match p {
            BoolExpr::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected disjunction, got {other}"),
        }
    }
}
