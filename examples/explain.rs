//! Explain: observe one loop's whole analysis-and-execution decision.
//!
//! ```sh
//! cargo run --example explain
//! ```
//!
//! Runs the `hoist_indirect` suite kernel — an indirect-update loop
//! whose independence cascade *fails* at runtime — through a session
//! with the observer at trace level, then prints the per-loop decision
//! report (`Session::explain`): every evaluated cascade stage with its
//! verdict and charged units, the fission rescue plan with its
//! parallel/sequential fragments and rescued work fraction, the exact
//! USR test each fragment fell into (verdict, units, memo hit or miss),
//! one `test : loop` cost line per fragment and per loop, and the
//! executor that finally ran the loop. A second run on the same inputs
//! shows the exact test answered from the memo at the same charge.
//! Finishes with the session's aggregate metrics snapshot.

use lip::obs::ObsLevel;
use lip::symbolic::sym;
use lip::Session;

fn main() {
    // A trace-level observer records spans, per-loop decisions and
    // per-op dispatch counts; `metrics` keeps only the cheap aggregate
    // counters; the default `off` costs one predictable branch per
    // site (the bench asserts < 2% on the hot kernels).
    let session = Session::builder()
        .fission(true)
        .nthreads(2)
        .par_min(64)
        .observer(ObsLevel::Trace)
        .build();

    // The suite's hoist_indirect kernel: a permutation-indexed update
    // `A(P(i)) = A(Q(i)) + 1` fused with a prefix sum — the cascade
    // cannot prove independence, but loop fission rescues half the
    // work onto the parallel path.
    let shape = &lip::suite::HOIST_INDIRECT;
    let n = 2048usize;
    let prog = lip::ir::parse_program(shape.source).expect("parses");
    let kernel = session
        .load(prog)
        .prepare(sym(shape.sub), shape.label)
        .expect("analysis");
    let mut frame = shape.prepared(n).frame;
    let stats = kernel.run(&mut frame).expect("runs");
    println!(
        "ran {} (n = {n}): outcome {:?}\n",
        shape.name, stats.outcome
    );

    // The decision report, addressable by loop label. (Suite-level
    // reports are also addressable by kernel name; see
    // `lip::suite::measure_loop`.)
    let report = session.explain(shape.label).expect("trace-level decision");
    println!("{report}");

    // The exact test is hoisted (HOIST-USR): the same index arrays
    // again cost a fingerprint, and are charged the same units.
    kernel
        .run(&mut shape.prepared(n).frame)
        .expect("runs again");
    let report = session.explain(shape.label).expect("trace-level decision");
    for line in report.lines().filter(|l| l.contains("exact USR test")) {
        println!("same inputs again: {}\n", line.trim());
    }

    // The aggregate side: every counter the run touched. This is the
    // serializable `MetricsSnapshot` a long-running service would
    // poll.
    println!("metrics:");
    for (name, value) in &session.metrics().counters {
        println!("  {name:<24} {value}");
    }

    // The loop really did execute: the indirect update wrote through
    // the permutation.
    let a = frame.array(sym("A")).expect("A");
    let touched = (0..n).filter(|&i| a.get_f64(i) != 0.0).count();
    assert!(touched > 0, "kernel ran");
}
