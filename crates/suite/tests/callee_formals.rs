//! The runtime's access hooks through a callee whose formal parameter
//! has another name than the loop's array. LRPD's shadows and the
//! dynamic-last-value write marks find the array by its buffer, so a
//! write through `Z` or `Y` is a write to `A` or `W`: the speculation
//! below must abort on every run, and the last values must be the
//! sequential ones. Both programs run at 2, 3 and 7 chunks, with
//! fission on and off, through `lip_suite::check`. (The inspector's dry
//! run through the same formal is `lip_runtime`'s
//! `tests/callee_formals.rs`.)

use lip_ir::{parse_program, Store, Value};
use lip_runtime::{ExecOutcome, LrpdOutcome, Session};
use lip_suite::check::{cold, Report};
use lip_symbolic::sym;

/// `tls_feedback`'s loop with its update moved into a callee: with
/// descending `W`, iteration `i` reads `A(pos + 1)`, which iteration
/// `i - 1` wrote.
const LRPD_SRC: &str = "
SUBROUTINE nlfilt(A, W, N)
  DIMENSION A(*), W(*)
  INTEGER i, N, pos
  DO l1 i = 1, N
    pos = INT(W(i))
    CALL upd(A, pos)
  ENDDO
END

SUBROUTINE upd(Z, p)
  DIMENSION Z(*)
  INTEGER p
  Z(p) = Z(p + 1) * 0.5 + 1.0
END
";

/// A privatized `W` filled by a callee under a data-dependent guard:
/// its last value is the last *taken* iteration's, a dynamic last value.
const DLV_SRC: &str = "
SUBROUTINE gated(A, B, W, N, M)
  DIMENSION A(*), W(*)
  INTEGER B(*)
  INTEGER i, j, N, M
  DO l1 i = 1, N
    IF (B(i) .GT. 0) THEN
      CALL fill(W, M, i)
      DO j = 1, M
        A(i) = A(i) + W(j)
      ENDDO
    ENDIF
  ENDDO
END

SUBROUTINE fill(Y, M, k)
  DIMENSION Y(*)
  INTEGER j, M, k
  DO j = 1, M
    Y(j) = k * 10 + j
  ENDDO
END
";

const N: usize = 4096;

/// Runs per width: the LRPD race is a schedule, so it gets many.
const RUNS: usize = if cfg!(debug_assertions) { 10 } else { 50 };

fn lrpd_frame() -> Store {
    let mut frame = Store::new();
    frame.set_int(sym("N"), N as i64);
    let a = frame.alloc_real(sym("A"), N + 2);
    for k in 0..N + 2 {
        a.set(k, Value::Real(k as f64));
    }
    let w = frame.alloc_real(sym("W"), N);
    for k in 0..N {
        w.set(k, Value::Real((N - k) as f64));
    }
    frame
}

fn dlv_frame() -> Store {
    let mut frame = Store::new();
    frame.set_int(sym("N"), N as i64).set_int(sym("M"), 4);
    let a = frame.alloc_real(sym("A"), N);
    for k in 0..N {
        a.set(k, Value::Real(k as f64 * 0.25));
    }
    let b = frame.alloc_int(sym("B"), N);
    for k in 0..N {
        b.set(k, Value::Int(if k < 2500 { 1 } else { -1 }));
    }
    frame.alloc_real(sym("W"), 4);
    frame
}

/// Checks loop `l1` of `sub` on `frame` `runs` times per width and
/// fission setting; returns the reports.
fn check(src: &str, sub: &str, frame: &Store, runs: usize) -> Vec<Report> {
    let prog = parse_program(src).expect("parses");
    let mut reports = Vec::new();
    for nthreads in [2, 3, 7] {
        for fission in [true, false] {
            let session = Session::builder()
                .nthreads(nthreads)
                .fission(fission)
                .build();
            for _ in 0..runs {
                let report = cold(&session, &prog, sym(sub), "l1", frame);
                report.assert_sequential();
                reports.push(report);
            }
        }
    }
    reports
}

#[test]
fn speculation_through_a_renamed_formal_aborts() {
    for report in check(LRPD_SRC, "nlfilt", &lrpd_frame(), RUNS) {
        let aborted = ExecOutcome::Speculated(LrpdOutcome::Aborted);
        assert_eq!(report.stats.outcome, aborted, "{report}");
    }
}

#[test]
fn dynamic_last_value_through_a_renamed_formal_is_sequential() {
    for report in check(DLV_SRC, "gated", &dlv_frame(), 3) {
        assert!(
            !matches!(
                report.stats.outcome,
                ExecOutcome::Sequential | ExecOutcome::Speculated(_)
            ),
            "{report}"
        );
        let w = report.after.array(sym("W")).expect("W");
        let last: Vec<f64> = (0..4).map(|k| w.get_f64(k)).collect();
        assert_eq!(last, [25001.0, 25002.0, 25003.0, 25004.0]);
    }
}
