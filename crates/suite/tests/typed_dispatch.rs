//! Every activation of a `hot_large` kernel runs the VM's typed stream:
//! the loop body, its chunk ranges, the per-iteration runs and every
//! callee body. The guard falls back to the `Value` stream only for
//! bindings that do not match the declared types, and none of these
//! kernels has one, so a fallback here is a lost typed form, seen as
//! a count instead of as a slowdown.

use lip_obs::ObsLevel;
use lip_runtime::Session;
use lip_suite::KernelShape;
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

/// `(typed, untyped)` activations of one traced run of `shape`.
fn activations(shape: &'static KernelShape, n: usize) -> (u64, u64) {
    let session = Session::builder()
        .fission(true)
        .nthreads(2)
        .par_min(16)
        .observer(ObsLevel::Trace)
        .build();
    let p = shape.prepared(n);
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
        let (typed, fallbacks) = activations(shape, 256);
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
