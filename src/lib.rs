//! # lip — Logical Inference techniques for loop Parallelization
//!
//! A Rust reproduction of Oancea & Rauchwerger, *Logical Inference
//! Techniques for Loop Parallelization* (PLDI 2012): a hybrid
//! static/dynamic automatic loop parallelizer built on the USR set
//! language, a USR→PDAG predicate translation (`factor`), and a cascade of
//! increasingly expensive sufficient-independence runtime tests.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`symbolic`] — symbolic expressions, predicates, Fourier–Motzkin,
//! * [`lmad`] — linear memory access descriptors,
//! * [`usr`] — the USR set-expression language and summaries,
//! * [`core`] — PDAG predicates and the factorization algorithm,
//! * [`ir`] — the mini-Fortran frontend (parser, IR, interpreter),
//! * [`vm`] — the register bytecode compiler + dispatch-loop VM,
//! * [`pred`] — the compiled, parallel runtime predicate engine,
//! * [`analysis`] — summary construction and loop classification,
//! * [`runtime`] — parallel executor, runtime tests, cost-model simulator,
//! * [`obs`] — observability: metrics, decision tracing, `explain` reports,
//! * [`serve`] — analysis-as-a-service: a multi-threaded TCP server with
//!   warm session shards, admission control and incremental re-analysis,
//! * [`suite`] — the PERFECT-CLUB / SPEC benchmark kernels.
//!
//! The configured entry point to the whole pipeline is [`Session`]
//! (re-exported from [`runtime`]): a builder owning the pool width and
//! the fission and observer knobs. `Session::load` gives a program its
//! own compile cache, `Loaded::prepare` resolves and analyzes a loop
//! once, and the `LoopHandle` it returns plans a run (`plan`: the CIV
//! slice, the runtime tests, the route) and runs it (`run`,
//! `per_iteration_costs`) as fused [`vm`] bytecode with predicates on
//! the compiled [`pred`] engine; the tree-walking
//! `ir::Machine` is the differential reference.
//! Environment variables (`LIP_PRED_PAR_MIN`, `LIP_FISSION`, `LIP_OBS`)
//! are read in exactly one place, [`SessionConfig::from_env`], with
//! strict parsing.
//!
//! Observability rides the same session: `.observer(ObsLevel::Trace)`
//! turns on metrics, span tracing and per-loop decision records, read
//! back through `Session::metrics()` and `Session::explain(label)`.
//!
//! See `examples/quickstart.rs` for an end-to-end walk-through and
//! `examples/explain.rs` for the observability/explain report.

pub use lip_analysis as analysis;
pub use lip_core as core;
pub use lip_ir as ir;
pub use lip_lmad as lmad;
pub use lip_obs as obs;
pub use lip_pred as pred;
pub use lip_runtime as runtime;
pub use lip_serve as serve;
pub use lip_suite as suite;
pub use lip_symbolic as symbolic;
pub use lip_usr as usr;
pub use lip_vm as vm;

pub use lip_runtime::{ConfigError, Session, SessionBuilder, SessionConfig};
