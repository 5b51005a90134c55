//! Fission differential suite: with the loop-fission rescue pass on
//! and off, every suite kernel and a seeded random-loop corpus must be
//! the sequential loop by `lip_suite::check` — every scalar and array
//! bit for bit, the exact work-unit count and the traced accesses.
//! Fission re-orders *statements* (all iterations of fragment 0 run
//! before fragment 1), which the check's per-array access multisets
//! allow and nothing else does. Must-not-fission shapes (cross-fragment
//! scalar dependences, use-before-def) pin the legality analysis: they
//! must come out with no plan at all.
//!
//! Sessions run single-threaded; the parallel executor still runs its
//! full privatization/reduction machinery on one chunk.

use std::sync::Arc;

use lip_ir::{parse_program, Program, Store, Value};
use lip_runtime::{ExecOutcome, Session};
use lip_suite::check::{self, cold, Report};
use lip_symbolic::sym;

fn session(fission: bool) -> Session {
    Session::builder()
        .nthreads(1)
        .par_min(16)
        .fission(fission)
        .build()
}

/// Loop `gl` of `prog`'s subroutine `gen` on `frame`, with the rescue
/// pass on and off.
fn on_and_off(prog: &Program, frame: &Store) -> [Report; 2] {
    [true, false].map(|fission| cold(&session(fission), prog, sym("gen"), "gl", frame))
}

#[test]
fn all_suite_kernels_bit_identical_with_and_without_fission() {
    for shape in lip_suite::all_shapes() {
        for fission in [true, false] {
            check::kernel(&session(fission), &shape.prepared(32)).assert_sequential();
        }
    }
}

#[test]
fn hoist_indirect_is_rescued_by_fission() {
    let p = lip_suite::HOIST_INDIRECT.prepared(64);
    let [on, off] = [true, false].map(|fission| check::kernel(&session(fission), &p));
    on.assert_sequential();
    off.assert_sequential();
    assert!(
        matches!(on.stats.outcome, ExecOutcome::Fissioned { .. }),
        "fission leg should distribute, got {:?}",
        on.stats.outcome
    );
    assert_eq!(off.stats.outcome, ExecOutcome::Sequential);
}

// ---------------------------------------------------------------------
// Hand-written legality pins.
// ---------------------------------------------------------------------

fn custom(src: &str, prep: impl FnOnce(&mut Store)) -> (Program, Store) {
    let mut frame = Store::new();
    prep(&mut frame);
    (parse_program(src).expect("parses"), frame)
}

fn analyze_with_fission(prog: &Program, label: &str) -> lip_analysis::LoopAnalysis {
    session(true)
        .analyze(prog, prog.units[0].name, label)
        .expect("analysis")
}

#[test]
fn map_plus_scan_gets_a_two_fragment_plan() {
    let (prog, frame) = custom(
        "
SUBROUTINE gen(A, B, C, S, N)
  DIMENSION A(*), B(*), C(*), S(*)
  INTEGER i, N
  DO gl i = 1, N
    A(i) = B(i) + 1.0
    S(i + 1) = S(i) + C(i)
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 48);
            f.alloc_real(sym("A"), 50);
            f.alloc_real(sym("B"), 50);
            f.alloc_real(sym("C"), 50);
            f.alloc_real(sym("S"), 50);
        },
    );
    let analysis = analyze_with_fission(&prog, "gl");
    let plan = analysis
        .fission
        .as_deref()
        .expect("map+scan must get a plan");
    assert_eq!(
        plan.fragments.len(),
        2,
        "one parallel map, one sequential scan"
    );
    assert_eq!(plan.rescuable(), 1, "exactly the map fragment is rescuable");

    let [on, off] = on_and_off(&prog, &frame);
    on.assert_sequential();
    off.assert_sequential();
    assert!(
        matches!(on.stats.outcome, ExecOutcome::Fissioned { .. }),
        "fission leg should distribute, got {:?}",
        on.stats.outcome
    );
}

#[test]
fn cross_fragment_scalar_anti_dependence_must_not_fission() {
    // `A(i) = T` reads the value `T = B(i)` wrote in the *previous*
    // iteration: splitting the statements apart would feed every
    // iteration the same initial T.
    let (prog, frame) = custom(
        "
SUBROUTINE gen(A, B, T, N)
  DIMENSION A(*), B(*)
  INTEGER i, N
  DO gl i = 1, N
    A(i) = T
    T = B(i)
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 32);
            f.set_scalar(sym("T"), Value::Real(0.5));
            f.alloc_real(sym("A"), 34);
            f.alloc_real(sym("B"), 34);
        },
    );
    let analysis = analyze_with_fission(&prog, "gl");
    assert!(
        analysis.fission.is_none(),
        "scalar anti-dependence must merge the statements: {:?}",
        analysis.class
    );
    on_and_off(&prog, &frame)
        .iter()
        .for_each(Report::assert_sequential);
}

#[test]
fn use_before_def_recurrence_must_not_fission() {
    // T is used before it is (re)defined each iteration, so the scan
    // through T chains every statement together.
    let (prog, frame) = custom(
        "
SUBROUTINE gen(A, C, T, N)
  DIMENSION A(*), C(*)
  INTEGER i, N
  DO gl i = 1, N
    A(i) = T + 1.0
    T = T + C(i)
  ENDDO
END
",
        |f| {
            f.set_int(sym("N"), 32);
            f.set_scalar(sym("T"), Value::Real(0.0));
            f.alloc_real(sym("A"), 34);
            f.alloc_real(sym("C"), 34);
        },
    );
    let analysis = analyze_with_fission(&prog, "gl");
    assert!(
        analysis.fission.is_none(),
        "use-before-def must merge the statements: {:?}",
        analysis.class
    );
    on_and_off(&prog, &frame)
        .iter()
        .for_each(Report::assert_sequential);
}

// ---------------------------------------------------------------------
// Seeded random-loop corpus (proptest-style deterministic splitmix
// stream, replayable from the failing seed).
// ---------------------------------------------------------------------

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

/// Statement templates mixing fissionable shapes (independent maps, a
/// scan, scalar and Int-array reductions) with shapes that force
/// merging (scalar temp chains, arrays both read and written across
/// statements). The `H` reductions update through the indirection
/// array `P` with addends beyond 2^53 over cells seeded near 2^61, so
/// any `f64` round-trip in the buffered-merge path diverges from the
/// classic leg immediately.
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

fn corpus_frame(n: usize) -> impl FnOnce(&mut Store) {
    move |f: &mut Store| {
        f.set_int(sym("N"), n as i64);
        f.set_int(sym("K"), 0);
        f.set_scalar(sym("T"), Value::Real(1.5));
        let fill = |buf: &Arc<lip_ir::ArrayBuf>, scale: f64| {
            for k in 0..buf.len() {
                buf.set(k, Value::Real((k % 7) as f64 * scale));
            }
        };
        fill(&f.alloc_real(sym("A"), n + 2), 0.5);
        fill(&f.alloc_real(sym("B"), n + 2), 1.25);
        fill(&f.alloc_real(sym("C"), n + 2), 0.75);
        fill(&f.alloc_real(sym("S"), n + 2), 0.25);
        let p = f.alloc_int(sym("P"), n + 2);
        for k in 0..p.len() {
            p.set(k, Value::Int((k % 5) as i64));
        }
        // Int reduction target: seeded near 2^61 so an f64 round-trip
        // anywhere in the merge path visibly loses low bits.
        let h = f.alloc_int(sym("H"), n + 2);
        for k in 0..h.len() {
            h.set(k, Value::Int((1i64 << 61) + k as i64));
        }
    }
}

#[test]
fn random_loop_corpus_bit_identical_with_and_without_fission() {
    let mut fissioned = 0usize;
    for seed in 0..192u64 {
        let src = gen_source(seed);
        let (prog, frame) = custom(&src, corpus_frame(24));
        for report in on_and_off(&prog, &frame) {
            assert!(!report.differs(), "corpus seed {seed}\n{src}\n{report}");
            if let ExecOutcome::Fissioned { .. } = report.stats.outcome {
                fissioned += 1;
            }
        }
    }
    // The corpus must actually exercise the rescue path, not just
    // degenerate shapes the planner rejects.
    assert!(
        fissioned >= 5,
        "only {fissioned} corpus programs were fissioned — generator drifted"
    );
}
