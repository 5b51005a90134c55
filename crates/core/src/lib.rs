//! The paper's primary contribution: translation of USR set expressions
//! into the PDAG predicate language (`F : USR → PDAG`, `F(S) ⇒ S = ∅`),
//! implemented as a logical-inference *factorization* algorithm, plus the
//! predicate simplification and cascading machinery (paper §3).
//!
//! Pipeline:
//!
//! 1. [`factor::Factorizer`] translates an independence USR into a [`Pdag`]
//!    by pattern-matching set-algebra shapes (Figure 5), extracting leaf
//!    predicates from LMAD inclusion/disjointness (Figure 6(a)) and the
//!    symbolic Fourier–Motzkin elimination, with the monotonicity rule of
//!    §3.3 for `∪ᵢ(Sᵢ ∩ ∪ₖ₍ᵢ₋₁₎ Sₖ)` patterns.
//! 2. [`simplify::simplify`] flattens `∧`/`∨` nests, extracts common
//!    factors, hoists loop-invariant terms out of `∧ᵢ` nodes and decides
//!    leaves against a [`lip_symbolic::RangeEnv`] (§3.5).
//! 3. [`cascade::build_cascade`] separates the predicate into a sequence
//!    of sufficient conditions of increasing runtime complexity — O(1),
//!    O(N), then the exact fallback — which generated code evaluates in
//!    order until one succeeds (§3.5, §5).

pub mod cascade;
pub mod ctx;
pub mod estimate;
pub mod factor;
pub mod pdag;
pub mod simplify;

pub use cascade::{build_cascade, complexity, Cascade, Stage};
pub use ctx::{CtxStats, PredCtx};
pub use estimate::{overestimate, underestimate, OverEstimate, UnderEstimate};
pub use factor::{ArrayExtent, FactorConfig, Factorizer};
pub use pdag::{Pdag, PdagNode};
pub use simplify::simplify;
