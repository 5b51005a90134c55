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

use lip_ir::{parse_program, Program, Store, Value};
use lip_runtime::Session;
use lip_suite::check::cold;
use lip_symbolic::sym;

/// Runs loop `label` of `prog`'s first subroutine with fission on and
/// off at four chunks through `lip_suite::check`.
fn assert_matches_sequential_everywhere(prog: &Program, label: &str, frame: &Store) {
    for fission in [false, true] {
        let sess = Session::builder()
            .nthreads(4)
            .par_min(1)
            .fission(fission)
            .build();
        cold(&sess, prog, prog.units[0].name, label, frame).assert_sequential();
    }
}

fn custom(src: &str, prep: impl FnOnce(&mut Store)) -> (Program, Store) {
    let mut frame = Store::new();
    prep(&mut frame);
    (parse_program(src).expect("parses"), frame)
}

#[test]
fn int_histogram_kernel_bit_identical_across_matrix() {
    let p = lip_suite::INT_HISTOGRAM.prepared(256);
    assert_matches_sequential_everywhere(p.machine.program(), p.label, &p.frame);
}

#[test]
fn int_sum_beyond_2_pow_53_bit_identical_across_matrix() {
    let (prog, frame) = custom(
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
    assert_matches_sequential_everywhere(&prog, "l1", &frame);
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
        let (prog, frame) = custom(&src, |f| {
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
        assert_matches_sequential_everywhere(&prog, "l1", &frame);
    }
}

#[test]
fn int_product_and_wrapping_sum_bit_identical_across_matrix() {
    // Wrapping i64 arithmetic is associative mod 2^64, so even
    // overflowing reductions merge bit-identically.
    let (prog, frame) = custom(
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
    assert_matches_sequential_everywhere(&prog, "l1", &frame);
}

#[test]
fn int_scalar_reduction_bit_identical_across_matrix() {
    let (prog, frame) = custom(
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
    assert_matches_sequential_everywhere(&prog, "l1", &frame);
}

/// The legality pin: `H(B(i)) = c - H(B(i))` is NOT a reduction (the
/// final value of a cell depends on the parity of how many updates hit
/// it — non-commutative, non-associative as a self-update), so the
/// analysis must not classify it as one, and every configuration must
/// still match sequential execution exactly.
#[test]
fn non_commutative_self_update_is_not_a_reduction() {
    let (prog, frame) = custom(
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
    assert_matches_sequential_everywhere(&prog, "l1", &frame);
}
