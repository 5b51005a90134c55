//! A loop that writes its own subscript array must not be licensed by a
//! test that read the array before the loop ran.
//!
//! `P(i) = K(i)` then `A(P(i)) = A(Q(i)) + 1`: on entry `P` is
//! injective and points away from everything `Q` reads, so a cascade or
//! an exact test evaluated on the pre-loop frame says "independent" —
//! but the loop overwrites `P` with `K(i) = Q(i+1)`, which makes the
//! second statement `A(i+1) = A(i) + 1`, a recurrence. Run in two
//! chunks on that verdict, every element of the second chunk is wrong
//! (50 000 of `A`'s 200 002 at `n` = 10⁵, outcome
//! `ExactPredicatePassed`, before the classifier's guard).
//! `lip_suite::check` compares the run with the `lip_ir` tree-walk
//! interpreter, with the fission rescue on and off, cold and again on
//! the same handle.

use lip_analysis::LoopClass;
use lip_ir::{parse_program, Store, Value};
use lip_runtime::Session;
use lip_suite::check::observationally_sequential;
use lip_symbolic::sym;

const SRC: &str = "
SUBROUTINE t(A, P, Q, K, N)
  DIMENSION A(*)
  INTEGER P(*), Q(*), K(*)
  INTEGER i, N
  DO l1 i = 1, N
    P(i) = K(i)
    A(P(i)) = A(Q(i)) + 1.0
  ENDDO
END
";

fn frame(n: usize) -> Store {
    let mut f = Store::new();
    f.set_int(sym("N"), n as i64);
    let a = f.alloc_real(sym("A"), 2 * n + 2);
    for k in 0..2 * n + 2 {
        a.set(k, Value::Real((k % 13) as f64));
    }
    let p = f.alloc_int(sym("P"), n);
    let q = f.alloc_int(sym("Q"), n + 1);
    let k = f.alloc_int(sym("K"), n);
    for i in 0..n {
        // Pre-loop P: injective, disjoint from what Q reads.
        p.set(i, Value::Int((n + i + 1) as i64));
        // K(i) = Q(i+1).
        k.set(i, Value::Int((i + 2) as i64));
    }
    for i in 0..=n {
        q.set(i, Value::Int((i + 1) as i64));
    }
    f
}

#[test]
fn a_loop_that_rewrites_its_index_array_matches_the_interpreter() {
    let n = 100_000usize;
    let prog = parse_program(SRC).expect("parses");
    let input = frame(n);
    for fission in [true, false] {
        let sess = Session::builder().nthreads(2).fission(fission).build();
        let handle = sess.load(prog.clone()).prepare(sym("t"), "l1");
        let handle = handle.expect("loop");
        let analysis = handle.analysis();
        assert!(
            !matches!(
                analysis.class,
                LoopClass::StaticParallel | LoopClass::Predicated { .. }
            ),
            "fission {fission}: a test on the pre-loop P cannot license this loop ({:?})",
            analysis.class
        );
        // Twice on one handle: a memoized verdict must not change the
        // answer either.
        for round in 0..2 {
            let report = observationally_sequential(&sess, &handle, &input);
            report.assert_sequential();
            // The recurrence really is one: A(n+1) = A(1) + n.
            let a = report.after.array(sym("A")).expect("A");
            assert_eq!(a.get_f64(n), n as f64, "round {round}: {report}");
        }
    }
}
