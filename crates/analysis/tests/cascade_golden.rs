//! Golden equivalence of the analysis output.
//!
//! Every suite kernel, the example programs and the fission corpus are
//! analysed with fission on and off, and the whole result — class,
//! techniques, every `ArrayPlan` with its cascade, the loop-level
//! stages with `complexity` and `leaf_count`, the `ind_usr` rendering
//! and the fission plan's fragments — is compared against
//! `tests/golden/cascade_golden.txt`, captured before the predicate
//! layer was made to share structure. A change that only makes the
//! analysis faster must leave this file alone.
//!
//! The comparison is byte for byte. Bound variables are pool binders
//! (`@0`, `@1`, …) chosen by what the terms they bind contain, so they
//! render the same in every process. Opaque unknowns (`pos@u2$n`) are
//! still fresh interner entries: their `$n` is this test binary's own
//! interning order, which only the order of the programs below decides.
//!
//! Re-capture (only when the analysis is *meant* to change):
//! `cargo test -p lip_analysis --test cascade_golden -- --ignored bless`

use std::fmt::Write as _;

use lip_analysis::{analyze_loop, AnalysisConfig, ArrayPlan, LoopAnalysis};
use lip_core::Cascade;
use lip_ir::parse_program;
use lip_symbolic::sym;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cascade_golden.txt"
);

fn dump_cascade(out: &mut String, indent: &str, what: &str, c: &Cascade) {
    let _ = writeln!(out, "{indent}{what}: {} stages", c.stages.len());
    for (k, s) in c.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "{indent}  stage {k} complexity {} leaves {}: {}",
            s.complexity,
            s.pred.leaf_count(),
            s.pred
        );
    }
}

fn dump_analysis(out: &mut String, indent: &str, a: &LoopAnalysis) {
    let _ = writeln!(out, "{indent}label: {}", a.label);
    let _ = writeln!(out, "{indent}class: {:?}", a.class);
    let techniques: Vec<String> = a.techniques.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(out, "{indent}techniques: {}", techniques.join(" "));
    let _ = writeln!(out, "{indent}range: {} = {} .. {}", a.var, a.lo, a.hi);
    let civs: Vec<String> = a.civs.iter().map(|(s, t)| format!("{s}->{t}")).collect();
    let _ = writeln!(out, "{indent}civs: {}", civs.join(" "));
    let reds: Vec<String> = a.scalar_reductions.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{indent}scalar_reductions: {}", reds.join(" "));
    // `arrays` iterates in interning order; names are stable.
    let mut arrays: Vec<(String, &ArrayPlan)> =
        a.arrays.iter().map(|(s, p)| (s.name(), p)).collect();
    arrays.sort_by(|x, y| x.0.cmp(&y.0));
    let sub = format!("{indent}  ");
    for (name, plan) in arrays {
        match plan {
            ArrayPlan::ReadOnly => {
                let _ = writeln!(out, "{indent}array {name}: ReadOnly");
            }
            ArrayPlan::Independent => {
                let _ = writeln!(out, "{indent}array {name}: Independent");
            }
            ArrayPlan::Predicated(c) => {
                let _ = writeln!(out, "{indent}array {name}: Predicated");
                dump_cascade(out, &sub, "cascade", c);
            }
            ArrayPlan::Privatized {
                last_value,
                cascade,
            } => {
                let _ = writeln!(out, "{indent}array {name}: Privatized {last_value:?}");
                if let Some(c) = cascade {
                    dump_cascade(out, &sub, "cascade", c);
                }
            }
            ArrayPlan::Reduction { kind, op, cascade } => {
                let _ = writeln!(out, "{indent}array {name}: Reduction {kind:?} {op:?}");
                if let Some(c) = cascade {
                    dump_cascade(out, &sub, "cascade", c);
                }
            }
            ArrayPlan::Fallback(kind) => {
                let _ = writeln!(out, "{indent}array {name}: Fallback {kind:?}");
            }
        }
    }
    dump_cascade(out, indent, "loop cascade", &a.cascade);
    match &a.ind_usr {
        Some(u) => {
            let _ = writeln!(out, "{indent}ind_usr: {u}");
        }
        None => {
            let _ = writeln!(out, "{indent}ind_usr: none");
        }
    }
    match &a.fission {
        None => {
            let _ = writeln!(out, "{indent}fission: none");
        }
        Some(plan) => {
            let _ = writeln!(out, "{indent}fission: {} fragments", plan.fragments.len());
            for (k, f) in plan.fragments.iter().enumerate() {
                let assigned: Vec<String> = f.assigned.iter().map(|s| s.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{indent}  fragment {k} stmts {:?} assigned [{}]",
                    f.stmts,
                    assigned.join(" ")
                );
                dump_analysis(out, &format!("{indent}    "), &f.analysis);
            }
        }
    }
}

fn dump_program(out: &mut String, name: &str, src: &str, sub: &str, label: &str) {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    for fission in [true, false] {
        let cfg = AnalysisConfig {
            fission,
            ..AnalysisConfig::default()
        };
        let _ = writeln!(
            out,
            "== {name} fission={}",
            if fission { "on" } else { "off" }
        );
        match analyze_loop(&prog, sym(sub), label, &cfg) {
            Some(a) => dump_analysis(out, "", &a),
            None => {
                let _ = writeln!(out, "not analyzable");
            }
        }
    }
}

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
const SERVE_CALC: &str = "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 2, N
    UNEW(i) = U(i) + 0.5 * (V(i + 1) - V(i - 1))
  ENDDO
END
";

// The fission differential suite's seeded corpus (same stream, same
// templates), so every fission planning shape that suite executes is
// pinned here as an analysis result.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const TEMPLATES: &[&str] = &[
    "A(i) = B(i) * 2.0 + C(i)",
    "A(i + 1) = C(i) - B(i)",
    "B(i) = B(i) + 0.5",
    "S(i + 1) = S(i) + C(i)",
    "T = C(i) + 1.0",
    "A(i) = A(i) + T",
    "K = K + P(i)",
    "C(i) = B(i) * 0.25",
    "H(P(i) + 1) = H(P(i) + 1) + 9007199254740993",
    "H(P(i) + 1) = MIN(H(P(i) + 1), 9007199254740993 * P(i))",
    "H(P(i) + 1) = MAX(H(P(i) + 1), 4611686018427387904 + P(i))",
    "K = K + 9007199254740993",
];

fn gen_source(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let len = 2 + g.below(3) as usize;
    let body: String = (0..len)
        .map(|_| {
            format!(
                "    {}\n",
                TEMPLATES[g.below(TEMPLATES.len() as u64) as usize]
            )
        })
        .collect();
    format!(
        "
SUBROUTINE gen(A, B, C, S, P, H, T, K, N)
  DIMENSION A(*), B(*), C(*), S(*)
  INTEGER P(*), H(*)
  INTEGER i, N, K
  DO gl i = 1, N
{body}  ENDDO
END
"
    )
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
    dump_program(&mut out, "example serve", SERVE_CALC, "calc", "sweep");
    for seed in 0..192u64 {
        dump_program(
            &mut out,
            &format!("corpus {seed}"),
            &gen_source(seed),
            "gen",
            "gl",
        );
    }
    out
}

#[test]
fn analysis_output_matches_the_golden_capture() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present (see module docs)");
    let got = render_all();
    if got == want {
        return;
    }
    let (mut section, mut line_no) = ("<start>", 0usize);
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if w.starts_with("== ") {
            section = w;
        }
        if g != w {
            panic!(
                "analysis output diverged from the golden capture in `{section}` \
                 (line {}):\n  golden: {w}\n  got:    {g}",
                k + 1
            );
        }
        line_no = k + 1;
    }
    panic!(
        "analysis output and golden capture differ in length after line {line_no} \
         ({} vs {} lines)",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
#[ignore = "writes the golden file; run only when the analysis is meant to change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("has a parent"))
        .expect("golden dir");
    std::fs::write(GOLDEN, render_all()).expect("golden written");
}
