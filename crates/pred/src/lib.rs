//! `lip_pred` — a compiled, parallel runtime predicate engine for the
//! PDAG cascades of §3.5/§5.
//!
//! The paper's runtime mechanism is a cascade of increasingly expensive
//! sufficient independence predicates: an O(1) stage, an O(N) stage of
//! quantified `∧_{i=lo}^{hi}` tests, then the exact fallback. The
//! generated code the paper describes evaluates the O(N) stages as
//! parallel and/or-reductions; `lip_core::cascade` reproduces the
//! predicates, and this crate makes their *evaluation* production-fast:
//!
//! * [`compile`] lowers a `Pdag` (and the `BoolExpr` leaves inside it)
//!   to flat tri-state bytecode — dedicated ops for quantified loops,
//!   short-circuit ∧/∨ reductions, gcd/divisibility alignment checks
//!   and fused interval-disjointness / sorted-interval-membership
//!   tests — replacing per-leaf `BTreeMap` polynomial walks and
//!   `ScopedCtx` chains with a register dispatch loop.
//! * [`vm`] evaluates O(N) stages data-parallel over the fork-join
//!   [`pool`] with chunked early-exit (a failing chunk cancels later
//!   siblings, preserving the sequential first-failure verdict) and an
//!   exact budget-replay fallback.
//! * [`engine::PredEngine`] adds the per-program caches: compiled
//!   programs are reused across loop runs and stage
//!   verdicts are memoized against a fingerprint of the loop-invariant
//!   inputs, so repeated invocations of the same loop skip re-testing.
//!
//! Verdicts are differential-tested against `Pdag::eval` (same
//! `Option<bool>` tri-state, same overflow behavior, same iteration
//! budget), which also stays the fallback for a predicate that does
//! not compile; every `lip_runtime` session evaluates through here.
//!
//! # Example
//!
//! ```
//! use lip_core::Pdag;
//! use lip_pred::{compile_pred, eval_compiled, EvalParams};
//! use lip_symbolic::{sym, BoolExpr, MapCtx, SymExpr};
//!
//! // ∧_{i=1}^{N} B(i) > 0
//! let body = Pdag::leaf(BoolExpr::gt0(SymExpr::elem(sym("B"), SymExpr::var(sym("i")))));
//! let p = Pdag::forall(sym("i"), SymExpr::konst(1), SymExpr::var(sym("N")), body);
//! let prog = compile_pred(&p).expect("compiles");
//!
//! let mut ctx = MapCtx::new();
//! ctx.set_scalar(sym("N"), 3);
//! ctx.set_array(sym("B"), 1, vec![5, 2, 9]);
//! let verdict = eval_compiled(&prog, &ctx, 1_000, EvalParams::default());
//! assert_eq!(verdict, p.eval(&ctx, 1_000));
//! assert_eq!(verdict, Some(true));
//! ```

pub mod compile;
pub mod engine;
pub mod pool;
pub mod prog;
pub mod vm;

pub use compile::compile_pred;
pub use engine::{EngineStats, PredEngine};
pub use prog::{BodyProg, POp, PredOverflow, PredProgram};
pub use vm::{eval_compiled, eval_compiled_obs, EvalParams};
