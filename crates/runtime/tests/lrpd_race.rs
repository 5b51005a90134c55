//! ROADMAP item 1's LRPD reproduction, run until a lost race would
//! show: iteration 1 reads and writes `A(1)`, iteration `H` reads it
//! into `B(1)` — a flow dependence whichever chunk runs first. The old
//! on-the-fly detector kept one reader witness and decided inside the
//! marking (a Dekker pair), so a few thousandths of the runs at widths
//! 2, 3 and 7 committed `B(1) = 10` instead of 11 (measured in release).
//! Every run must abort and leave the sequential result — and, on
//! `tls_feedback`'s loop, be charged the same `loop_units` whatever the
//! schedule did to the discarded attempt.

use lip_ir::{parse_program, Machine, Store, Value};
use lip_runtime::{LrpdOutcome, Session};
use lip_symbolic::sym;

const SRC: &str = "
SUBROUTINE race(A, B, N, H)
  DIMENSION A(*), B(*)
  INTEGER i, N, H
  DO l1 i = 1, N
    IF (i .EQ. 1) A(1) = A(1) + 1.0
    IF (i .EQ. H) B(1) = A(1)
  ENDDO
END
";

/// The release leg runs what was measured; debug keeps its leg short.
const RUNS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};

#[test]
fn speculation_never_commits_a_cross_iteration_read() {
    let prog = parse_program(SRC).expect("parses");
    let sub = prog.units[0].clone();
    let target = sub.find_loop("l1").expect("loop").clone();
    let machine = Machine::new(prog);
    let (a, b) = (sym("A"), sym("B"));
    for nthreads in [2, 3, 7] {
        let session = Session::builder().nthreads(nthreads).build();
        let mut wrong = 0;
        for _ in 0..RUNS {
            let mut frame = Store::new();
            frame.set_int(sym("N"), 64).set_int(sym("H"), 33);
            frame.alloc_real(a, 1).set(0, Value::Real(10.0));
            frame.alloc_real(b, 1);
            let (outcome, _) = session
                .lrpd_execute(&machine, &sub, &target, &frame, &[a, b])
                .expect("runs");
            let got = |s| frame.array(s).expect("bound").get_f64(0);
            if outcome != LrpdOutcome::Aborted || got(a) != 11.0 || got(b) != 11.0 {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "{wrong} of {RUNS} runs at nthreads = {nthreads}");
    }
}

/// `tls_feedback`'s loop on its failing input: iteration `i` writes
/// `A(i)` and reads `A(i + 1)`, which iteration `i + 1` writes.
const FEEDBACK: &str = "
SUBROUTINE nlfilt(A, W, N)
  DIMENSION A(*), W(*)
  INTEGER i, N, pos
  DO do300 i = 1, N
    pos = INT(W(i))
    A(pos) = A(pos + 1) * 0.5 + 1.0
  ENDDO
END
";

/// An aborted speculation is charged the sequential re-run only. The
/// discarded attempt stopped wherever each chunk noticed the conflict —
/// 36 905, 36 923 or 36 941 units on `bench_e2e`'s `tls_feedback` fail
/// row while they were added in — so its units are counted apart.
#[test]
fn an_aborted_speculation_charges_the_same_units_every_run() {
    let n = 4096;
    for nthreads in [2, 7] {
        let session = Session::builder()
            .nthreads(nthreads)
            .observer(lip_obs::ObsLevel::Metrics)
            .build();
        let prog = parse_program(FEEDBACK).expect("parses");
        let handle = session
            .load(prog)
            .prepare(sym("nlfilt"), "do300")
            .expect("analysis");
        let mut units = std::collections::BTreeSet::new();
        let mut finals = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let mut frame = Store::new();
            frame.set_int(sym("N"), n as i64);
            let a = frame.alloc_real(sym("A"), n + 2);
            for k in 0..n + 2 {
                a.set(k, Value::Real(k as f64));
            }
            let w = frame.alloc_real(sym("W"), n);
            for k in 0..n {
                w.set(k, Value::Real((k + 1) as f64));
            }
            let stats = handle.run(&mut frame).expect("runs");
            assert_eq!(
                stats.outcome,
                lip_runtime::ExecOutcome::Speculated(LrpdOutcome::Aborted)
            );
            units.insert(stats.loop_units);
            finals.insert(frame.array(sym("A")).expect("A").get_f64(n - 1).to_bits());
        }
        assert_eq!(
            units.len(),
            1,
            "loop_units {units:?} at nthreads = {nthreads}"
        );
        assert_eq!(finals.len(), 1);
        let wasted = session.metrics().counter("lrpd.aborted_units");
        assert!(wasted.is_some_and(|w| w > 0), "{wasted:?}");
    }
}
