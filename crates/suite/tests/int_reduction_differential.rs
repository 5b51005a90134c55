//! Int-reduction differential suite: integer array and scalar
//! reductions — sums with addends beyond 2^53, MIN/MAX over values
//! within 2^53 of `i64::MAX`, products, wrapping overflow — must come
//! out bit-identical to the sequential tree-walk interpreter with
//! fission on and off, multi-threaded. This is the corpus that would
//! have caught the `f64` merge round-trip (integer sums silently lost
//! low bits whenever the buffered-merge path ran).
//!
//! A legality pin rides along: a non-commutative self-update
//! (`H(B(i)) = c - H(B(i))`, the value depends on how many updates ran
//! before) is NOT a reduction, must not classify as one, and must
//! still execute bit-identically everywhere.

use lip_ir::{parse_program, ExecState, Machine, Store, Value};
use lip_runtime::Session;
use lip_symbolic::{sym, Sym};

/// Every executor configuration the session can run a loop under.
fn all_sessions() -> Vec<(String, Session)> {
    [false, true]
        .into_iter()
        .map(|fission| {
            let sess = Session::builder()
                .nthreads(4)
                .par_min(1)
                .fission(fission)
                .build();
            (format!("fission={fission}"), sess)
        })
        .collect()
}

/// Deep-copies a store (`Store::clone` shares array buffers).
fn deep_clone(frame: &Store) -> Store {
    let mut out = Store::new();
    for (s, v) in frame.scalars() {
        out.set_scalar(s, v);
    }
    for (s, view) in frame.arrays() {
        let buf = match view.buf.ty() {
            lip_ir::Ty::Int => lip_ir::ArrayBuf::new_int(view.buf.len()),
            _ => lip_ir::ArrayBuf::new_real(view.buf.len()),
        };
        for i in 0..buf.len() {
            buf.set(i, view.buf.get(i));
        }
        out.bind_array(
            s,
            lip_ir::ArrayView {
                buf,
                offset: view.offset,
                extents: view.extents.clone(),
            },
        );
    }
    out
}

fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// Observable output: every pre-existing scalar and array, bit-exact.
fn snapshot(frame: &Store, scalars: &[Sym], arrays: &[Sym]) -> Vec<(Sym, Vec<(u8, u64)>)> {
    let mut out = Vec::new();
    for &s in scalars {
        out.push((s, vec![value_bits(frame.scalar(s).expect("scalar"))]));
    }
    for &s in arrays {
        let a = frame.array(s).expect("array");
        out.push((
            s,
            (0..a.buf.len()).map(|k| value_bits(a.buf.get(k))).collect(),
        ));
    }
    out
}

/// Runs `label` under every session configuration and asserts each
/// output is bit-identical to the sequential interpreter's.
fn assert_matches_sequential_everywhere(name: &str, machine: &Machine, frame: &Store, label: &str) {
    let prog = machine.program().clone();
    let sub = prog
        .units
        .iter()
        .find(|u| u.find_loop(label).is_some())
        .expect("loop owner")
        .clone();
    let target = sub.find_loop(label).expect("loop").clone();
    let scalars: Vec<Sym> = frame.scalars().map(|(s, _)| s).collect();
    let arrays: Vec<Sym> = frame.arrays().map(|(s, _)| s).collect();

    let mut seq = deep_clone(frame);
    machine
        .exec_block(
            &sub,
            &mut seq,
            std::slice::from_ref(&target),
            &mut ExecState::default(),
        )
        .expect("sequential reference");
    let expected = snapshot(&seq, &scalars, &arrays);

    for (cfg, sess) in all_sessions() {
        let analysis = sess.analyze(&prog, sub.name, label).expect("analysis");
        let mut par = deep_clone(frame);
        let stats = sess
            .run_loop(machine, &sub, &target, &analysis, &mut par)
            .expect("runs");
        let got = snapshot(&par, &scalars, &arrays);
        for ((s, e), (_, g)) in expected.iter().zip(got.iter()) {
            assert_eq!(
                e, g,
                "{name}: {s} diverged from sequential under {cfg} (outcome {:?})",
                stats.outcome
            );
        }
    }
}

fn custom(src: &str, prep: impl FnOnce(&mut Store)) -> (Machine, Store) {
    let machine = Machine::new(parse_program(src).expect("parses"));
    let mut frame = Store::new();
    prep(&mut frame);
    (machine, frame)
}

#[test]
fn int_histogram_kernel_bit_identical_across_matrix() {
    let p = lip_suite::INT_HISTOGRAM.prepared(256);
    assert_matches_sequential_everywhere("int_histogram", &p.machine, &p.frame, p.label);
}

#[test]
fn int_sum_beyond_2_pow_53_bit_identical_across_matrix() {
    let (machine, frame) = custom(
        "
SUBROUTINE t(H, B, N)
  INTEGER H(32)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    H(B(i)) = H(B(i)) + 9007199254740993
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 300);
            let h = f.alloc_int(sym("H"), 32);
            for k in 0..32 {
                h.set(k, Value::Int((1 << 61) + k as i64));
            }
            let b = f.alloc_int(sym("B"), 300);
            for i in 0..300 {
                b.set(i, Value::Int((i % 8 + 1) as i64));
            }
        },
    );
    assert_matches_sequential_everywhere("int_sum", &machine, &frame, "l1");
}

#[test]
fn int_min_max_near_i64_extremes_bit_identical_across_matrix() {
    for intr in ["MIN", "MAX"] {
        let src = format!(
            "
SUBROUTINE t(H, B, C, N)
  INTEGER H(16)
  INTEGER B(*), C(*)
  INTEGER i, N
  DO l1 i = 1, N
    H(B(i)) = {intr}(H(B(i)), C(i))
  ENDDO
END
"
        );
        let seed = if intr == "MIN" { i64::MAX } else { i64::MIN };
        let (machine, frame) = custom(&src, |f| {
            f.set_int(sym("N"), 200);
            let h = f.alloc_int(sym("H"), 16);
            for k in 0..16 {
                h.set(k, Value::Int(seed));
            }
            let b = f.alloc_int(sym("B"), 200);
            let c = f.alloc_int(sym("C"), 200);
            for i in 0..200 {
                b.set(i, Value::Int((i % 16 + 1) as i64));
                // Distinct values an f64 cannot tell apart.
                c.set(i, Value::Int(i64::MAX - 4096 * i as i64 - 3));
            }
        });
        assert_matches_sequential_everywhere(&format!("int_{intr}"), &machine, &frame, "l1");
    }
}

#[test]
fn int_product_and_wrapping_sum_bit_identical_across_matrix() {
    // Wrapping i64 arithmetic is associative mod 2^64, so even
    // overflowing reductions merge bit-identically.
    let (machine, frame) = custom(
        "
SUBROUTINE t(H, G, B, N)
  INTEGER H(8), G(8)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    H(B(i)) = H(B(i)) * 3
    G(B(i)) = G(B(i)) + 4611686018427387907
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 160);
            let h = f.alloc_int(sym("H"), 8);
            let g = f.alloc_int(sym("G"), 8);
            for k in 0..8 {
                h.set(k, Value::Int(2 * k as i64 + 1));
                g.set(k, Value::Int(i64::MAX - k as i64));
            }
            let b = f.alloc_int(sym("B"), 160);
            for i in 0..160 {
                b.set(i, Value::Int((i % 8 + 1) as i64));
            }
        },
    );
    assert_matches_sequential_everywhere("int_mul_wrap", &machine, &frame, "l1");
}

#[test]
fn int_scalar_reduction_bit_identical_across_matrix() {
    let (machine, frame) = custom(
        "
SUBROUTINE t(A, N, s)
  INTEGER A(*)
  INTEGER i, N, s
  DO l1 i = 1, N
    s = s + A(i)
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 500);
            f.set_int(sym("s"), (1 << 62) + 11);
            let a = f.alloc_int(sym("A"), 500);
            for i in 0..500 {
                a.set(i, Value::Int((1 << 53) + i as i64 + 1));
            }
        },
    );
    assert_matches_sequential_everywhere("int_scalar_sum", &machine, &frame, "l1");
}

/// The legality pin: `H(B(i)) = c - H(B(i))` is NOT a reduction (the
/// final value of a cell depends on the parity of how many updates hit
/// it — non-commutative, non-associative as a self-update), so the
/// analysis must not classify it as one, and every configuration must
/// still match sequential execution exactly.
#[test]
fn non_commutative_self_update_is_not_a_reduction() {
    let (machine, frame) = custom(
        "
SUBROUTINE t(H, B, N)
  INTEGER H(8)
  INTEGER B(*)
  INTEGER i, N
  DO l1 i = 1, N
    H(B(i)) = 9007199254740993 - H(B(i))
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 100);
            let h = f.alloc_int(sym("H"), 8);
            for k in 0..8 {
                h.set(k, Value::Int((1 << 60) + k as i64));
            }
            let b = f.alloc_int(sym("B"), 100);
            for i in 0..100 {
                b.set(i, Value::Int((i % 8 + 1) as i64)); // collisions
            }
        },
    );
    let prog = machine.program().clone();
    let analysis = Session::builder()
        .build()
        .analyze(&prog, prog.units[0].name, "l1")
        .expect("analysis");
    assert!(
        !matches!(
            analysis.arrays.get(&sym("H")),
            Some(lip_analysis::ArrayPlan::Reduction { .. })
        ),
        "non-commutative self-update classified as reduction: {:?}",
        analysis.arrays.get(&sym("H"))
    );
    assert_matches_sequential_everywhere("non_commutative", &machine, &frame, "l1");
}
