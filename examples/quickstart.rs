//! Quickstart: analyze and conditionally parallelize one loop.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The loop `A(i) = A(i+M) + 1` is independent exactly when `M ≥ N` —
//! undecidable at compile time, decided by an O(1) predicate at runtime
//! (paper §1's hybrid-analysis pitch in miniature).

use lip::ir::{parse_program, Store, Value};
use lip::runtime::ExecOutcome;
use lip::symbolic::sym;
use lip::Session;

fn main() {
    // One configured entry point for the whole pipeline; see
    // `Session::builder()` for the thread, fission and observer knobs.
    let session = Session::builder().nthreads(2).build();
    let src = "
SUBROUTINE kernel(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO main_loop i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";
    // 1. Load the program, prepare the loop once — hybrid analysis:
    //    summaries -> independence USRs -> factorized predicate cascade.
    let main_loop = session
        .load(parse_program(src).expect("parses"))
        .prepare(sym("kernel"), "main_loop")
        .expect("analyzable");
    let analysis = main_loop.analysis();
    println!("classification: {:?}", analysis.class);
    for (i, stage) in analysis.cascade.stages.iter().enumerate() {
        println!("  stage {i} (O(N^{})): {}", stage.complexity, stage.pred);
    }

    // 2. Execute with a passing predicate (M >= N): parallel.
    let n = 10_000usize;
    let mut frame = Store::new();
    frame
        .set_int(sym("N"), n as i64)
        .set_int(sym("M"), n as i64);
    let a = frame.alloc_real(sym("A"), 2 * n);
    for i in 0..2 * n {
        a.set(i, Value::Real(i as f64));
    }
    let stats = main_loop.run(&mut frame).expect("runs");
    println!(
        "M = N: outcome {:?}, test units {}, loop units {}",
        stats.outcome, stats.test_units, stats.loop_units
    );
    assert!(matches!(stats.outcome, ExecOutcome::PredicatePassed { .. }));

    // 3. Execute with a failing predicate (M = 1): sequential, still
    //    correct.
    let mut frame2 = Store::new();
    frame2.set_int(sym("N"), n as i64).set_int(sym("M"), 1);
    let a2 = frame2.alloc_real(sym("A"), n + 1);
    for i in 0..=n {
        a2.set(i, Value::Real(0.0));
    }
    let stats2 = main_loop.run(&mut frame2).expect("runs");
    println!("M = 1: outcome {:?}", stats2.outcome);
}
