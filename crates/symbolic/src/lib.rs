//! Symbolic integer arithmetic and predicate layer for the `lip` loop
//! parallelizer.
//!
//! This crate provides the mathematical substrate shared by every other
//! `lip` component:
//!
//! * [`Sym`] — cheap interned identifiers for program symbols,
//! * [`SymExpr`] — canonical multivariate polynomials over *atoms*
//!   (variables, array elements such as `IB(i+1)`, and `min`/`max` terms),
//! * [`BoolExpr`] — a negation-closed language of integer predicates
//!   (comparisons against zero, divisibility, conjunction, disjunction),
//! * [`RangeEnv`] — symbolic variable ranges plus assumed facts ([`Scopes`]
//!   is the tree of them a quantifier walk visits, with memoized verdicts), and
//! * [`reduce_gt0`] — the symbolic Fourier–Motzkin-like elimination of
//!   Figure 6(b) of the paper, which turns `expr > 0` into a *sufficient*
//!   predicate free of a chosen bounded symbol.
//!
//! # Example
//!
//! Deriving the paper's CORREC_DO711 predicate: eliminate the loop index
//! `i ∈ [1, NOP]` from `IX(1)+1-IX(2)-i > 0`, obtaining
//! `IX(2)+NOP ≤ IX(1)`:
//!
//! ```
//! use lip_symbolic::{sym, SymExpr, RangeEnv, reduce_gt0};
//!
//! let (i, nop, ix) = (sym("i"), sym("NOP"), sym("IX"));
//! let expr = SymExpr::elem(ix, SymExpr::konst(1)) + SymExpr::konst(1)
//!     - SymExpr::elem(ix, SymExpr::konst(2)) - SymExpr::var(i);
//! let env = RangeEnv::new().with_range(i, SymExpr::konst(1), SymExpr::var(nop));
//! let pred = reduce_gt0(&expr, &env);
//! // The i >= 1, i <= NOP bounds produce the sufficient condition with i
//! // replaced by its upper bound NOP (coefficient of i is negative).
//! assert!(format!("{pred}").contains("NOP"));
//! ```

pub mod boolexpr;
pub mod eval;
pub mod expr;
pub mod fm;
pub mod range;
pub mod sym;

pub use boolexpr::{BoolExpr, CmpOp};
pub use eval::{EvalCtx, MapCtx, ScopedCtx};
pub use expr::{Atom, Monomial, SymExpr, TermBuildHasher, TermHasher};
pub use fm::{prove_ge0, prove_gt0, reduce_ge0, reduce_gt0};
pub use range::{RangeEnv, ScopeId, Scopes};
pub use sym::{interner_size, sym, Binders, Sym};
