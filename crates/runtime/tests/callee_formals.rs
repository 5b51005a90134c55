//! The runtime's access hooks through a callee whose formal parameter
//! has another name than the loop's array. LRPD's shadows and the
//! dynamic-last-value write marks find the array by its buffer, so a
//! write through `Z` or `Y` is a write to `A` or `W`: the speculation
//! below must abort on every run, and the last values must be the
//! sequential ones. Both programs run at 2, 3 and 7 chunks, with
//! fission on and off, and every array must match the tree-walking
//! interpreter bit for bit.

use lip_ir::{parse_program, ExecState, Machine, Store, Value};
use lip_runtime::{inspect, ExecOutcome, InspectVerdict, LrpdOutcome, Session};
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

/// Every array of `frame` as (name, type tag, bits), by name.
fn arrays(frame: &Store) -> Vec<(String, Vec<(u8, u64)>)> {
    let bits = |v: Value| match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    };
    let mut out: Vec<_> = frame
        .arrays()
        .map(|(s, view)| {
            let cells = (0..view.buf.len()).map(|i| bits(view.buf.get(i)));
            (s.name().to_string(), cells.collect())
        })
        .collect();
    out.sort();
    out
}

/// The interpreter's arrays after the loop `l1` of `sub` ran on `frame`.
fn sequential(src: &str, sub: &str, frame: fn() -> Store) -> Vec<(String, Vec<(u8, u64)>)> {
    let prog = parse_program(src).expect("parses");
    let unit = prog.subroutine(sym(sub)).expect("sub").clone();
    let target = unit.find_loop("l1").expect("loop").clone();
    let mut store = frame();
    Machine::new(prog)
        .exec_stmt(&unit, &mut store, &target, &mut ExecState::default())
        .expect("interpreter runs");
    arrays(&store)
}

/// Runs `l1` of `sub` `runs` times per width and fission setting,
/// checking each run's outcome with `outcome` and its arrays against
/// the interpreter's.
fn check(
    src: &str,
    sub: &str,
    frame: fn() -> Store,
    runs: usize,
    outcome: fn(&ExecOutcome) -> bool,
) {
    let want = sequential(src, sub, frame);
    for nthreads in [2, 3, 7] {
        for fission in [true, false] {
            let session = Session::builder()
                .nthreads(nthreads)
                .fission(fission)
                .build();
            let prog = parse_program(src).expect("parses");
            let handle = session
                .load(prog)
                .prepare(sym(sub), "l1")
                .expect("analysis");
            let ctx = format!("{sub} at nthreads = {nthreads}, fission = {fission}");
            for run in 0..runs {
                let mut store = frame();
                let stats = handle.run(&mut store).expect("runs");
                assert!(
                    outcome(&stats.outcome),
                    "{ctx}, run {run}: {:?}",
                    stats.outcome
                );
                assert!(
                    arrays(&store) == want,
                    "{ctx}, run {run}: arrays differ from the interpreter"
                );
            }
        }
    }
}

#[test]
fn speculation_through_a_renamed_formal_aborts() {
    check(LRPD_SRC, "nlfilt", lrpd_frame, RUNS, |o| {
        *o == ExecOutcome::Speculated(LrpdOutcome::Aborted)
    });
}

/// The inspector's dry run marks the same shadows: it finds the
/// dependence written through `Z`, on its own copy of `A`.
#[test]
fn the_inspector_sees_through_a_renamed_formal() {
    let prog = parse_program(LRPD_SRC).expect("parses");
    let sub = prog.subroutine(sym("nlfilt")).expect("sub").clone();
    let target = sub.find_loop("l1").expect("loop").clone();
    let frame = lrpd_frame();
    let (verdict, _) =
        inspect(&Machine::new(prog), &sub, &target, &frame, &[sym("A")]).expect("inspects");
    assert_eq!(verdict, InspectVerdict::Dependent);
    assert!(
        arrays(&frame) == arrays(&lrpd_frame()),
        "the dry run wrote A"
    );
}

#[test]
fn dynamic_last_value_through_a_renamed_formal_is_sequential() {
    let w = sequential(DLV_SRC, "gated", dlv_frame);
    let w = &w.iter().find(|(name, _)| name == "W").expect("W").1;
    let last: Vec<f64> = w.iter().map(|&(_, b)| f64::from_bits(b)).collect();
    assert_eq!(last, [25001.0, 25002.0, 25003.0, 25004.0]);
    check(DLV_SRC, "gated", dlv_frame, 3, |o| {
        !matches!(o, ExecOutcome::Sequential | ExecOutcome::Speculated(_))
    });
}
