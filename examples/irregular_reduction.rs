//! Irregular (index-array) reduction: the gromacs/calculix scenario
//! (paper §4 and Figure 7(a)).
//!
//! ```sh
//! cargo run --example irregular_reduction
//! ```
//!
//! `F(J(i)) += …` cannot be disambiguated statically. The analysis
//! recognizes the reduction pattern; at runtime, the monotonicity
//! predicate over `J` decides between direct shared updates (injective
//! index) and buffered per-thread reduction (colliding index). Both
//! paths produce exact results.

use lip::ir::{Store, Value};
use lip::symbolic::sym;
use lip::Session;

fn main() {
    let session = Session::builder().nthreads(2).build();
    let prog = lip::ir::parse_program(lip::suite::INDEX_REDUCTION.source).expect("parses");
    let do1130 = session
        .load(prog)
        .prepare(sym("inl1130"), "do1130")
        .expect("analyzable");
    let analysis = do1130.analysis();
    println!("classification: {:?}", analysis.class);
    println!(
        "techniques: {:?}",
        analysis
            .techniques
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );

    let n = 3000usize;

    // Injective index: every iteration owns a disjoint triplet.
    let mut frame = Store::new();
    frame.set_int(sym("N"), n as i64);
    frame.alloc_real(sym("F"), 3 * n + 4);
    let j = frame.alloc_int(sym("J"), n);
    for i in 0..n {
        j.set(i, Value::Int(3 * i as i64 + 1));
    }
    let stats = do1130.run(&mut frame).expect("runs");
    println!("injective J: outcome {:?}", stats.outcome);
    let f = frame.array(sym("F")).expect("F");
    assert_eq!(f.get_f64(0), 0.5);

    // Colliding index: every iteration hits the same few buckets; the
    // runtime falls back to buffered reduction and stays exact.
    let mut frame2 = Store::new();
    frame2.set_int(sym("N"), n as i64);
    frame2.alloc_real(sym("F"), 16);
    let j2 = frame2.alloc_int(sym("J"), n);
    for i in 0..n {
        j2.set(i, Value::Int((i % 4) as i64 * 3 + 1));
    }
    let stats2 = do1130.run(&mut frame2).expect("runs");
    println!("colliding J: outcome {:?}", stats2.outcome);
    let f2 = frame2.array(sym("F")).expect("F");
    let total: f64 = (0..16).map(|k| f2.get_f64(k)).sum();
    assert!(
        (total - n as f64).abs() < 1e-9,
        "mass conservation: {total}"
    );
    println!("reduction mass: {total} (= N = {n})");
}
