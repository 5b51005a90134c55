//! Conditionally-incremented induction variables and CIV-COMP
//! (paper §3.3, Figure 7(b); the `track` benchmark's while loops).
//!
//! ```sh
//! cargo run --example civ_while_loop
//! ```
//!
//! A CIV's per-iteration values are bound to *trace atoms* during
//! analysis; before parallel execution, the runtime materializes the
//! trace by executing the CIV slice (CIV-COMP) and the §3.3 window
//! predicate validates output independence.

use lip::analysis::Technique;
use lip::ir::{Store, Value};
use lip::symbolic::sym;
use lip::Session;

fn main() {
    let session = Session::builder().nthreads(2).build();
    let prog = lip::ir::parse_program(lip::suite::CIV_CONDITIONAL.source).expect("parses");
    let do240 = session
        .load(prog)
        .prepare(sym("actfor"), "do240")
        .expect("analyzable");
    let analysis = do240.analysis();
    println!("classification: {:?}", analysis.class);
    assert!(analysis.techniques.contains(&Technique::CivAgg));
    println!(
        "CIV traces to precompute: {:?}",
        analysis
            .civs
            .iter()
            .map(|(s, t)| format!("{s} -> {t}"))
            .collect::<Vec<_>>()
    );

    let n = 6000usize;
    let mut frame = Store::new();
    frame
        .set_int(sym("N"), n as i64)
        .set_int(sym("Q"), 0)
        .set_int(sym("civ"), 0);
    frame.alloc_real(sym("X"), n + 1);
    let c = frame.alloc_int(sym("C"), n);
    for i in 0..n {
        c.set(i, Value::Int(i64::from(i % 3 == 0)));
    }
    let stats = do240.run(&mut frame).expect("runs");
    println!(
        "outcome {:?}; CIV slice + cascade cost {} units vs loop {} units",
        stats.outcome, stats.test_units, stats.loop_units
    );
    // The compacted writes X(1..#selected) must be dense and ordered.
    let x = frame.array(sym("X")).expect("X");
    let selected = (0..n).filter(|i| i % 3 == 0).count();
    for k in 0..selected {
        assert!(x.get_f64(k) > 0.0, "X({}) written", k + 1);
    }
    println!("compacted {selected} elements correctly");
}
