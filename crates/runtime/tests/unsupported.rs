//! What a session refuses to run, explicitly: a program beyond the
//! VM's static limits and a non-`DO` target for LRPD are
//! `RunError::Unsupported` — never a panic, never a silent detour onto
//! the tree-walking interpreter — and the caller's frame is untouched.

use lip_ir::{parse_program, Machine, RunError, Store, Value};
use lip_runtime::Session;
use lip_symbolic::sym;

/// A program beyond the VM's static limits (here an 8-subscript
/// reference) is an explicit error from every driver — never a
/// panic, never a silent slower path — and the frame is untouched.
#[test]
fn programs_beyond_the_vm_limits_are_unsupported_by_every_driver() {
    let prog = parse_program(
        "
SUBROUTINE t(A, N)
  DIMENSION A(1, 1, 1, 1, 1, 1, 1, *)
  INTEGER i, k, N
  DO l1 i = 1, N
    k = k + 1
    A(1, 1, 1, 1, 1, 1, 1, i) = k
  ENDDO
END
",
    )
    .expect("parses");
    let sub = prog.units[0].clone();
    let target = sub.find_loop("l1").expect("loop").clone();
    let machine = Machine::new(prog.clone());
    let session = Session::builder().nthreads(2).build();
    let handle = session.load(prog).prepare(sub.name, "l1").expect("loop");
    let (a, k, n) = (sym("A"), sym("k"), 8);
    let mut frame = Store::new();
    frame.set_int(sym("N"), n).set_int(k, 0);
    frame.alloc_real(a, n as usize);
    let untouched = |frame: &Store| {
        let view = frame.array(a).expect("A");
        assert!((0..n as usize).all(|i| view.get_f64(i) == 0.0));
        assert_eq!(frame.scalars().count(), 2, "nothing new bound");
        assert_eq!(frame.arrays().count(), 1, "no trace arrays bound");
    };
    let unsupported = |e: RunError| match e {
        RunError::Unsupported(why) => {
            assert!(why.name().contains("more than 7 subscripts"), "{why}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    };
    unsupported(handle.run(&mut frame).unwrap_err());
    untouched(&frame);
    let civs = [(k, sym("k@tr"))];
    unsupported(
        session
            .civ_traces(&machine, &sub, &target, &civs, &mut frame, None)
            .unwrap_err(),
    );
    untouched(&frame);
    unsupported(
        session
            .lrpd_execute(&machine, &sub, &target, &frame, &[a])
            .unwrap_err(),
    );
    untouched(&frame);
    unsupported(handle.per_iteration_costs(&mut frame).unwrap_err());
    untouched(&frame);
}

/// LRPD speculation takes a DO loop; a WHILE target used to come
/// back as `StepLimit` ("step budget exhausted") for a loop nobody
/// ran.
#[test]
fn lrpd_on_a_while_target_is_unsupported() {
    let prog = parse_program(
        "
SUBROUTINE t(N)
  INTEGER k, N
  DO w1 WHILE (k .LT. N)
    k = k + 2
  ENDDO
END
",
    )
    .expect("parses");
    let sub = prog.units[0].clone();
    let target = sub.find_loop("w1").expect("loop").clone();
    let machine = Machine::new(prog);
    let mut frame = Store::new();
    frame.set_int(sym("N"), 10);
    frame.set_int(sym("k"), 1);
    let err = Session::default()
        .lrpd_execute(&machine, &sub, &target, &frame, &[])
        .unwrap_err();
    assert!(matches!(err, RunError::Unsupported(_)), "{err:?}");
    assert_eq!(frame.scalar(sym("k")), Some(Value::Int(1)));
}
