//! The inspector's dry run through a callee whose formal parameter has
//! another name than the loop's array: its shadows find the array by
//! its buffer, so a write through `Z` is a write to `A`. (The LRPD and
//! dynamic-last-value runs through renamed formals are `lip_suite`'s
//! `tests/callee_formals.rs`.)

use lip_ir::{parse_program, Machine, Store, Value};
use lip_runtime::{inspect, InspectVerdict};
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

/// The inspector's dry run marks the same shadows LRPD does: it finds
/// the dependence written through `Z`, on its own copy of `A`.
#[test]
fn the_inspector_sees_through_a_renamed_formal() {
    let n = 4096;
    let mut frame = Store::new();
    frame.set_int(sym("N"), n as i64);
    let a = frame.alloc_real(sym("A"), n + 2);
    (0..n + 2).for_each(|k| a.set(k, Value::Real(k as f64)));
    let w = frame.alloc_real(sym("W"), n);
    (0..n).for_each(|k| w.set(k, Value::Real((n - k) as f64)));
    let before = a.to_f64_vec();

    let prog = parse_program(LRPD_SRC).expect("parses");
    let sub = prog.subroutine(sym("nlfilt")).expect("sub").clone();
    let target = sub.find_loop("l1").expect("loop").clone();
    let (verdict, _) =
        inspect(&Machine::new(prog), &sub, &target, &frame, &[sym("A")]).expect("inspects");
    assert_eq!(verdict, InspectVerdict::Dependent);
    assert_eq!(a.to_f64_vec(), before, "the dry run wrote A");
}
