//! ROADMAP item 1's LRPD reproduction, run until a lost race would
//! show: iteration 1 reads and writes `A(1)`, iteration `H` reads it
//! into `B(1)` — a flow dependence whichever chunk runs first. The old
//! on-the-fly detector kept one reader witness and decided inside the
//! marking (a Dekker pair), so a few thousandths of the runs at widths
//! 2, 3 and 7 committed `B(1) = 10` instead of 11 (measured in release).
//! Every run must abort and leave the sequential result.

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
