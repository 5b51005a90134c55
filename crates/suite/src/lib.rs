//! The 26-benchmark evaluation substrate (PERFECT-CLUB, SPEC89/92,
//! SPEC2000/2006) for the `lip` loop parallelizer.
//!
//! Per DESIGN.md, each benchmark of the paper's Tables 1–3 is
//! represented by mini-Fortran kernels reproducing the loop shapes its
//! table row reports (same access patterns, same disambiguation
//! technique, same test complexity), plus a workload generator. The
//! [`run`] module measures them over the deterministic cost-model
//! simulator and the whole-benchmark Amdahl model used by the figure
//! harnesses. The [`check`] module is the differential suites' one
//! check that a loop a session runs is the sequential loop.

pub mod bench_def;
pub mod check;
pub mod kernels;
pub mod run;

pub use bench_def::{all_benchmarks, BenchDef, LoopDef, SuiteKind, PERFECT_CLUB, SPEC2006, SPEC92};
pub use kernels::{
    all_shapes, KernelShape, Prepared, CIV_CONDITIONAL, CIV_WHILE, EXT_REDUCTION, GATED_BRANCHES,
    HOIST_INDIRECT, INDEX_REDUCTION, INT_HISTOGRAM, MONOTONE_WINDOWS, OFFSET_CROSSOVER,
    PRIVATE_SCRATCH, SEQ_RECURRENCE, SOLVH, STATIC_REDUCTION, STENCIL, TINY_LOOP, TLS_FEEDBACK,
};
pub use run::{measure_benchmark, measure_loop, BenchTiming, LoopMeasurement};
