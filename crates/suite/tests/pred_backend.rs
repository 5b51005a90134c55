//! The predicate engine against its reference backends: a session's
//! compiled cascade and exact test must pass, fail and charge as
//! `Pdag::eval` and `lip_usr::exact::independent` do, and the loop must
//! then be the interpreter's, under every session configuration. Each
//! row goes through `lip_suite::check`; the loops have one statement,
//! so no fission plan pre-empts the exact test.

mod common;

use common::{check_source, matrix, session};
use lip_ir::{Store, Value};
use lip_runtime::ExecOutcome;
use lip_symbolic::sym;

/// Runs loop `l1` of `src` on `input` under the whole matrix and
/// asserts that each run is the sequential loop and ends in `want`.
fn assert_rows(src: &str, input: &Store, want: fn(&ExecOutcome) -> bool) {
    for (fission, obs, nthreads) in matrix() {
        let report = check_source(&session(fission, obs, nthreads), src, "l1", input);
        report.assert_sequential();
        assert!(want(&report.stats.outcome), "{:?}", report.stats.outcome);
    }
}

#[test]
fn predicate_pass_and_fail_agree_across_backends() {
    let offset = |n: i64, m: i64| {
        let mut frame = Store::new();
        frame.set_int(sym("N"), n).set_int(sym("M"), m);
        let len = (n + n.max(m) + 1) as usize;
        let a = frame.alloc_real(sym("A"), len);
        (0..len).for_each(|i| a.set(i, Value::Real(i as f64)));
        frame
    };
    // M >= N: the cascade passes.
    assert_rows(OFFSET_SRC, &offset(400, 400), |o| {
        matches!(o, ExecOutcome::PredicatePassed { .. })
    });
    // M = 1: the cascade fails, sequential execution.
    assert_rows(OFFSET_SRC, &offset(400, 1), |o| {
        *o == ExecOutcome::Sequential
    });
}

#[test]
fn exact_usr_fallback_reports_its_own_outcome() {
    // No stage can decide opaque index arrays; the hoisted exact USR
    // evaluation proves them disjoint (paper §5's last resort).
    let n = 96;
    let mut input = Store::new();
    input.set_int(sym("N"), n);
    input.alloc_real(sym("A"), (2 * n + 1) as usize);
    let p = input.alloc_int(sym("P"), n as usize);
    let q = input.alloc_int(sym("Q"), n as usize);
    for i in 0..n {
        p.set(i as usize, Value::Int(i + 1));
        q.set(i as usize, Value::Int(i + n + 1)); // disjoint from P
    }
    assert_rows(INDIRECT_SRC, &input, |o| {
        *o == ExecOutcome::ExactPredicatePassed
    });
}

const OFFSET_SRC: &str = "
SUBROUTINE t(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO l1 i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";

const INDIRECT_SRC: &str = "
SUBROUTINE run20(A, P, Q, N)
  DIMENSION A(*)
  INTEGER P(*), Q(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(P(i)) = A(Q(i)) + 1.0
  ENDDO
END
";
