//! Every activation of a `hot_large` kernel runs the VM's typed stream:
//! the loop body, its chunk ranges, its CIV slice and every callee
//! body. The guard falls back to the `Value` stream only for bindings
//! that do not match the declared types, and none of these kernels has
//! one, so a fallback here is a lost typed form, seen as a count
//! instead of as a slowdown.
//!
//! Every driver counts its activations, and the counts pin how many
//! there are: a DO range is one activation on every driver — a chunk,
//! an LRPD chunk, a DO's CIV slice, a sequential DO at any step — and
//! only a WHILE's CIV slice activates once per trip.

use lip_ir::{parse_program, Machine, Store, Value};
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

/// `civ_while`'s slice runs once per trip; a speculation of
/// `tls_feedback`'s loop is one activation per chunk (and one for the
/// sequential re-run when it aborts), as a DO run sequentially at any
/// step is one activation. `civ_conditional`'s DO slice is one
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
    let stepped = {
        let src = "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = N, 1, -2
    A(i) = A(i) + 1.0
  ENDDO
END
";
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), n);
        let machine = Machine::new(parse_program(src).expect("parses"));
        let (sub, label) = ("t", "l1");
        Prepared {
            machine,
            frame,
            sub,
            label,
        }
    };
    let exact = [
        (
            "civ_conditional: the slice and two chunks",
            lip_suite::CIV_CONDITIONAL.prepared(n),
            3,
        ),
        ("tls_feedback, committed: two chunks", commit, 2),
        (
            "tls_feedback, aborted: two chunks and the sequential re-run",
            lip_suite::TLS_FEEDBACK.prepared(n),
            3,
        ),
        ("DO i = N, 1, -2: one activation", stepped, 1),
    ];
    for (name, p, runs) in exact {
        assert_eq!(activations(p), (runs, 0), "{name}");
    }
    let (typed, untyped) = activations(lip_suite::CIV_WHILE.prepared(n));
    assert!(
        typed + untyped >= n as u64 / 2,
        "civ_while: {typed} typed + {untyped} untyped activations, {} trips",
        n / 2
    );
}
