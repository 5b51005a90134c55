//! Every activation of a `hot_large` kernel runs the VM's typed stream:
//! the loop body, its chunk ranges, the per-iteration runs and every
//! callee body. The guard falls back to the `Value` stream only for
//! bindings that do not match the declared types, and none of these
//! kernels has one, so a fallback here is a lost typed form, seen as
//! a count instead of as a slowdown.
//!
//! The drivers that activate the body once per iteration — a WHILE's
//! CIV slice, LRPD speculation — count those activations too, or the
//! counts above would say nothing about them; a DO's CIV slice is one
//! activation.

use lip_ir::Value;
use lip_obs::ObsLevel;
use lip_runtime::Session;
use lip_suite::{KernelShape, Prepared};
use lip_symbolic::sym;

/// The rows of `bench_e2e`'s `hot_large` workload.
const HOT_LARGE: [&KernelShape; 11] = [
    &lip_suite::STENCIL,
    &lip_suite::OFFSET_CROSSOVER,
    &lip_suite::GATED_BRANCHES,
    &lip_suite::PRIVATE_SCRATCH,
    &lip_suite::STATIC_REDUCTION,
    &lip_suite::INDEX_REDUCTION,
    &lip_suite::INT_HISTOGRAM,
    &lip_suite::EXT_REDUCTION,
    &lip_suite::MONOTONE_WINDOWS,
    &lip_suite::SOLVH,
    &lip_suite::CIV_CONDITIONAL,
];

/// `(typed, untyped)` activations of one traced run of `p`.
fn activations(p: Prepared) -> (u64, u64) {
    let session = Session::builder()
        .fission(true)
        .nthreads(2)
        .par_min(16)
        .observer(ObsLevel::Trace)
        .build();
    let mut store = p.frame;
    let loaded = session.load(p.machine.program().clone());
    let handle = loaded.prepare(sym(p.sub), p.label).expect("analysis");
    handle.run(&mut store).expect("runs");
    let m = session.metrics();
    let count = |name: &str| m.counter(name).unwrap_or(0);
    (count("vm.typed_runs"), count("vm.untyped_runs"))
}

#[test]
fn every_hot_large_kernel_runs_typed() {
    let mut untyped = Vec::new();
    for shape in HOT_LARGE {
        let (typed, fallbacks) = activations(shape.prepared(256));
        assert!(typed > 0, "{}: no typed activation counted", shape.name);
        if fallbacks > 0 {
            untyped.push(format!(
                "{}: {fallbacks} of {}",
                shape.name,
                typed + fallbacks
            ));
        }
    }
    assert!(untyped.is_empty(), "untyped activations: {untyped:?}");
}

/// `civ_while`'s slice runs once per trip, and a committed speculation
/// of `tls_feedback`'s loop once per iteration: each of those
/// activations is counted. `civ_conditional`'s DO slice is one
/// activation before the loop's two chunks.
#[test]
fn per_iteration_drivers_count_every_activation() {
    let n = 256;
    let commit = {
        let mut p = lip_suite::TLS_FEEDBACK.prepared(n);
        p.frame.alloc_real(sym("A"), 2 * n + 4);
        let w = &p.frame.array(sym("W")).expect("W").buf;
        (0..n).for_each(|i| w.set(i, Value::Real((2 * i + 1) as f64)));
        p
    };
    let (typed, untyped) = activations(lip_suite::CIV_CONDITIONAL.prepared(n));
    assert_eq!(
        (typed, untyped),
        (3, 0),
        "civ_conditional: the slice and two chunks"
    );
    let rows = [
        ("civ_while", lip_suite::CIV_WHILE.prepared(n), n / 2),
        ("tls_feedback", commit, n),
    ];
    for (name, p, per_iteration) in rows {
        let (typed, untyped) = activations(p);
        assert!(
            typed + untyped >= per_iteration as u64,
            "{name}: {typed} typed + {untyped} untyped activations, {per_iteration} iterations"
        );
    }
}
