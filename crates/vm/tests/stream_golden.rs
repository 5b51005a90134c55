//! Whole-corpus stream golden: the fused and the typed disassembly of
//! every subroutine and of the target-loop block of every `lip_suite`
//! kernel, of the programs the examples load that are not suite kernels,
//! and of the fission corpus's statement templates, compared byte for
//! byte with `tests/golden/streams.txt`.
//!
//! `peephole_golden.rs` pins six hot kernels readably; this file pins
//! everything the compiler produces from the shipped programs, so a
//! change to the peephole pass or the typing pass that is meant to be a
//! pure refactor must leave it alone.
//!
//! Re-capture (only when a stream is *meant* to change):
//! `cargo test -p lip_vm --test stream_golden -- --ignored bless`

use std::fmt::Write as _;

use lip_ir::parse_program;
use lip_symbolic::sym;
use lip_vm::{add_block, compile_program, optimize_block, optimize_program, Chunk};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/streams.txt");

/// The program `examples/quickstart.rs` loads.
const QUICKSTART: &str = "
SUBROUTINE kernel(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO main_loop i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
END
";

/// The program `examples/serve.rs` submits.
const SERVE: &str = "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 1, N
    UNEW(i) = 0.25 * (U(i) + V(i)) + 0.5 * U(i)
  ENDDO
END
";

/// Every statement template of the fission differential corpus, in one
/// loop body.
const FISSION_TEMPLATES: &str = "
SUBROUTINE gen(A, B, C, S, P, H, T, K, N)
  DIMENSION A(*), B(*), C(*), S(*)
  INTEGER P(*), H(*)
  INTEGER i, N, K
  DO gl i = 1, N
    A(i) = B(i) * 2.0 + C(i)
    A(i + 1) = C(i) - B(i)
    B(i) = B(i) + 0.5
    S(i + 1) = S(i) + C(i)
    T = C(i) + 1.0
    A(i) = A(i) + T
    K = K + P(i)
    C(i) = B(i) * 0.25
    H(P(i) + 1) = H(P(i) + 1) + 9007199254740993
    H(P(i) + 1) = MIN(H(P(i) + 1), 9007199254740993 * P(i))
    H(P(i) + 1) = MAX(H(P(i) + 1), 4611686018427387904 + P(i))
    K = K + 9007199254740993
  ENDDO
END
";

fn dump_chunk(out: &mut String, chunk: &Chunk) {
    out.push_str("-- fused\n");
    out.push_str(&chunk.disassemble());
    match &chunk.typed {
        Some(typed) => {
            out.push_str("-- typed\n");
            out.push_str(&typed.disassemble(chunk));
        }
        None => out.push_str("-- typed: none\n"),
    }
}

fn dump_program(out: &mut String, name: &str, src: &str, sub: &str, label: &str) {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let mut whole = compile_program(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
    optimize_program(&mut whole);
    for s in &whole.subs {
        let _ = writeln!(out, "== {name}: subroutine {}", s.name);
        dump_chunk(out, &s.chunk);
    }
    // The target loop as a standalone block, the way a session lowers
    // it: into a fresh compile, then fused and typed on its own.
    let unit = prog.subroutine(sym(sub)).expect("subroutine");
    let target = unit.find_loop(label).expect("target loop").clone();
    let mut compiled = compile_program(&prog).expect("compiles");
    let block = add_block(&mut compiled, unit, std::slice::from_ref(&target), &[])
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    optimize_block(&mut compiled, block);
    let _ = writeln!(out, "== {name}: block {label}");
    dump_chunk(out, &compiled.block(block).chunk);
}

fn render_all() -> String {
    let mut out = String::new();
    for shape in lip_suite::all_shapes() {
        dump_program(&mut out, shape.name, shape.source, shape.sub, shape.label);
    }
    dump_program(
        &mut out,
        "example quickstart",
        QUICKSTART,
        "kernel",
        "main_loop",
    );
    dump_program(&mut out, "example serve", SERVE, "calc", "sweep");
    dump_program(
        &mut out,
        "fission templates",
        FISSION_TEMPLATES,
        "gen",
        "gl",
    );
    out
}

#[test]
fn every_stream_matches_the_golden_capture() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present (see module docs)");
    let got = render_all();
    if got == want {
        return;
    }
    let mut section = "<start>";
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if w.starts_with("== ") {
            section = w;
        }
        assert_eq!(g, w, "stream diverged in `{section}` (line {})", k + 1);
    }
    panic!(
        "streams and golden capture differ in length ({} vs {} lines)",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
#[ignore = "writes the golden file; run only when a stream is meant to change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("has a parent"))
        .expect("golden dir");
    std::fs::write(GOLDEN, render_all()).expect("golden written");
}
