//! Interprocedural access summarization and hybrid loop classification.
//!
//! This crate walks the mini-Fortran IR bottom-up (paper §2.1): it
//! symbolically executes scalar code, converts array subscripts to
//! symbolic expressions, builds RO/WF/RW USR summaries per array —
//! translating across call sites, gating across branches, aggregating
//! across loops — then poses the independence equations of §2.2, runs
//! the factorization of §3 and classifies each loop the way the paper's
//! Tables 1–3 do: `STATIC-PAR`, `STATIC-SEQ`, flow/output-independence
//! predicates of O(1)/O(N) complexity, hoisted-USR evaluation, or TLS,
//! together with the enabling techniques (privatization, SLV/DLV,
//! static/runtime/extended reduction, CIV aggregation, BOUNDS-COMP).
//!
//! The [`baseline`] module implements the commercial-compiler stand-in:
//! an intraprocedural, affine-only, no-runtime-test parallelizer.

pub mod baseline;
pub mod classify;
pub mod fission;
pub mod summarize;
pub mod symbridge;

pub use baseline::baseline_parallel;
pub use classify::{
    analyze_loop, AnalysisConfig, ArrayPlan, ExactKey, FallbackKind, LastValue, LoopAnalysis,
    LoopClass, RedKind, Technique,
};
pub use fission::{fragment_rescuable, FissionFragment, FissionPlan};
pub use summarize::{ArrayFacts, ScopeSummary, Summarizer};
pub use symbridge::{cond_to_bool, expr_to_sym, SymEnv};
