//! Golden fused-stream tests: the exact superinstruction streams the
//! peephole pass produces for the six hot suite kernels (loops
//! `bench_e2e`'s `hot_*` workloads run), and the typed streams the
//! typing pass lowers them to. An accidental fusion regression — a rule
//! that stops firing, a pattern that over-matches — or a lost typed
//! form — a superinstruction expanded, a conversion where none was
//! needed — shows up here as a readable line diff instead of a silent
//! perf cliff.
//!
//! The expected strings are the kernels' whole target loops lowered as
//! standalone blocks (`add_block`, as the bench and the per-machine
//! cache do) and then fused and typed. Regenerate by running with
//! `BLESS_GOLDEN=1 cargo test -p lip_vm --test peephole_golden -- --nocapture`
//! and pasting the printed streams.

use lip_suite::KernelShape;
use lip_symbolic::sym;

/// The fused and the typed disassembly of `shape`'s target loop block.
fn disasm(shape: &'static KernelShape) -> (String, String) {
    let p = shape.prepared(8);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let mut compiled = lip_vm::compile_program(&prog).expect("compiles");
    let block = lip_vm::add_block(&mut compiled, &sub, std::slice::from_ref(&target), &[])
        .expect("block compiles");
    lip_vm::optimize_block(&mut compiled, block);
    let chunk = &compiled.block(block).chunk;
    let typed = chunk.typed.as_ref().expect("the kernel is typed");
    (chunk.disassemble(), typed.disassemble(chunk))
}

fn compare(shape: &'static KernelShape, what: &str, got: &str, expected: &str) {
    if std::env::var("BLESS_GOLDEN").is_ok() {
        println!("=== {} ({what}) ===\n{got}", shape.name);
        return;
    }
    assert_eq!(
        got.trim_end(),
        expected.trim_start_matches('\n').trim_end(),
        "{}: {what} stream drifted.\n--- got ---\n{got}",
        shape.name
    );
}

fn check(shape: &'static KernelShape, expected: &str) {
    compare(shape, "fused", &disasm(shape).0, expected);
}

fn check_typed(shape: &'static KernelShape, expected: &str) {
    compare(shape, "typed", &disasm(shape).1, expected);
}

#[test]
fn stencil_fused_stream() {
    check(
        &lip_suite::STENCIL,
        r#"
  0  charge 3; r0 = const[0] Int(1)
  1  r1 = N
  2  r2 = const[0] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 14
  5  charge 19; r3 = const[1] Real(0.25)
  6  r4 = U[i]
  7  r4 = r4 Add V[i]
  8  r3 = r3 Mul r4
  9  r4 = const[2] Real(0.5)
 10  r4 = r4 Mul U[i]
 11  r3 = r3 Add r4
 12  UNEW[i] = r3
 13  r0 += r2; jump 4
"#,
    );
}

#[test]
fn offset_crossover_fused_stream() {
    check(
        &lip_suite::OFFSET_CROSSOVER,
        r#"
  0  charge 3; r0 = const[0] Int(1)
  1  r1 = N
  2  r2 = const[0] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 11
  5  charge 13; r3 = i Add M
  6  r3 = A[r3..+1]
  7  r3 = r3 Mul const[1] Real(0.5)
  8  r3 = r3 Add const[2] Real(1.0)
  9  A[i] = r3
 10  r0 += r2; jump 4
"#,
    );
}

#[test]
fn private_scratch_fused_stream() {
    check(
        &lip_suite::PRIVATE_SCRATCH,
        r#"
  0  charge 3; r0 = const[0] Int(1)
  1  r1 = N
  2  r2 = const[0] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 27
  5  charge 3; r3 = const[0] Int(1)
  6  r4 = M
  7  r5 = const[0] Int(1)
  8  loop.init r3 to r4 by r5 (j)
  9  loop.test-set r3 r4 r5 -> j, exit 15
 10  charge 11; r6 = A[i]
 11  r6 = r6 Mul const[1] Real(0.5)
 12  r6 = r6 Add j
 13  W[j] = r6
 14  r3 += r5; jump 9
 15  charge 3; r3 = const[0] Int(1)
 16  r4 = M
 17  r5 = const[0] Int(1)
 18  loop.init r3 to r4 by r5 (j)
 19  loop.test-set r3 r4 r5 -> j, exit 26
 20  charge 13; r6 = A[i]
 21  r7 = W[j]
 22  r7 = r7 Mul const[2] Real(0.125)
 23  r6 = r6 Add r7
 24  A[i] = r6
 25  r3 += r5; jump 19
 26  r0 += r2; jump 4
"#,
    );
}

#[test]
fn index_reduction_fused_stream() {
    check(
        &lip_suite::INDEX_REDUCTION,
        r#"
  0  charge 3; r0 = const[0] Int(1)
  1  r1 = N
  2  r2 = const[0] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 9
  5  charge 13; F[J[i]] Add= const[1] Real(0.5) (r3)
  6  charge 17; F[J[i] Add const[0] Int(1)] Add= const[2] Real(0.25) (r3)
  7  charge 17; F[J[i] Add const[3] Int(2)] Add= const[2] Real(0.25) (r3)
  8  r0 += r2; jump 4
"#,
    );
}

#[test]
fn static_reduction_fused_stream() {
    check(
        &lip_suite::STATIC_REDUCTION,
        r#"
  0  charge 3; r0 = const[0] Int(1)
  1  r1 = N
  2  r2 = const[0] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 17
  5  charge 3; r3 = const[0] Int(1)
  6  r4 = const[1] Int(4)
  7  r5 = const[0] Int(1)
  8  loop.init r3 to r4 by r5 (j)
  9  loop.test-set r3 r4 r5 -> j, exit 16
 10  charge 13; r6 = E[j]
 11  r7 = A[i]
 12  r7 = r7 Mul const[2] Real(0.5)
 13  r6 = r6 Add r7
 14  E[j] = r6
 15  r3 += r5; jump 9
 16  r0 += r2; jump 4
"#,
    );
}

#[test]
fn seq_recurrence_fused_stream() {
    check(
        &lip_suite::SEQ_RECURRENCE,
        r#"
  0  charge 3; r0 = const[0] Int(2)
  1  r1 = N
  2  r2 = const[1] Int(1)
  3  loop.init r0 to r1 by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 12
  5  charge 15; r3 = i
  6  r3 = r3 Sub const[1] Int(1)
  7  r3 = V[r3..+1]
  8  r3 = r3 Mul const[2] Real(0.5)
  9  r3 = r3 Add V[i]
 10  V[i] = r3
 11  r0 += r2; jump 4
"#,
    );
}

#[test]
fn stencil_typed_stream() {
    check_typed(
        &lip_suite::STENCIL,
        r#"
  0  charge 3; r0 = Int(1)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 14
  5  charge 19; r3 = Real(0.25)
  6  r4 = U[i]
  7  r4 = r4 Add.rr V[i]
  8  r3 = r3 Mul.rr r4
  9  r4 = Real(0.5)
 10  r4 = r4 Mul.rr U[i]
 11  r3 = r3 Add.rr r4
 12  UNEW[i] = r3
 13  r0 += r2; jump 4
"#,
    );
}

#[test]
fn offset_crossover_typed_stream() {
    check_typed(
        &lip_suite::OFFSET_CROSSOVER,
        r#"
  0  charge 3; r0 = Int(1)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 11
  5  charge 13; r3 = i Add.ii M
  6  r3 = A[r3]
  7  r3 = r3 Mul.rr Real(0.5)
  8  r3 = r3 Add.rr Real(1.0)
  9  A[i] = r3
 10  r0 += r2; jump 4
"#,
    );
}

#[test]
fn private_scratch_typed_stream() {
    check_typed(
        &lip_suite::PRIVATE_SCRATCH,
        r#"
  0  charge 3; r0 = Int(1)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 27
  5  charge 3; r3 = Int(1)
  6  r4 = M
  7  r5 = Int(1)
  8  loop.init by r5 (j)
  9  loop.test-set r3 r4 r5 -> j, exit 15
 10  charge 11; r6 = A[i]
 11  r6 = r6 Mul.rr Real(0.5)
 12  r6 = r6 Add.ri j
 13  W[j] = r6
 14  r3 += r5; jump 9
 15  charge 3; r3 = Int(1)
 16  r4 = M
 17  r5 = Int(1)
 18  loop.init by r5 (j)
 19  loop.test-set r3 r4 r5 -> j, exit 26
 20  charge 13; r6 = A[i]
 21  r7 = W[j]
 22  r7 = r7 Mul.rr Real(0.125)
 23  r6 = r6 Add.rr r7
 24  A[i] = r6
 25  r3 += r5; jump 19
 26  r0 += r2; jump 4
"#,
    );
}

#[test]
fn index_reduction_typed_stream() {
    check_typed(
        &lip_suite::INDEX_REDUCTION,
        r#"
  0  charge 3; r0 = Int(1)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 9
  5  charge 13; F[J[i]] Add.rr= Real(0.5) (r3)
  6  charge 17; F[J[i] Add 1] Add.rr= Real(0.25) (r3)
  7  charge 17; F[J[i] Add 2] Add.rr= Real(0.25) (r3)
  8  r0 += r2; jump 4
"#,
    );
}

#[test]
fn static_reduction_typed_stream() {
    check_typed(
        &lip_suite::STATIC_REDUCTION,
        r#"
  0  charge 3; r0 = Int(1)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 17
  5  charge 3; r3 = Int(1)
  6  r4 = Int(4)
  7  r5 = Int(1)
  8  loop.init by r5 (j)
  9  loop.test-set r3 r4 r5 -> j, exit 16
 10  charge 13; r6 = E[j]
 11  r7 = A[i]
 12  r7 = r7 Mul.rr Real(0.5)
 13  r6 = r6 Add.rr r7
 14  E[j] = r6
 15  r3 += r5; jump 9
 16  r0 += r2; jump 4
"#,
    );
}

#[test]
fn seq_recurrence_typed_stream() {
    check_typed(
        &lip_suite::SEQ_RECURRENCE,
        r#"
  0  charge 3; r0 = Int(2)
  1  r1 = N
  2  r2 = Int(1)
  3  loop.init by r2 (i)
  4  loop.test-set r0 r1 r2 -> i, exit 12
  5  charge 15; r3 = i
  6  r3 = r3 Sub.ii Int(1)
  7  r3 = V[r3]
  8  r3 = r3 Mul.rr Real(0.5)
  9  r3 = r3 Add.rr V[i]
 10  V[i] = r3
 11  r0 += r2; jump 4
"#,
    );
}
