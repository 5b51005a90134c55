//! Fission differential suite: with the loop-fission rescue pass on
//! and off, every suite kernel and a seeded random-loop corpus must
//! produce bit-identical outputs — declared arrays element for
//! element, every scalar, the exact work-unit count — plus matching
//! traced access streams. Fission re-orders *statements* (all
//! iterations of fragment 0 run before fragment 1), so the streams
//! are compared per array as multisets of `(kind, index)` events; a
//! missing or duplicated access is visible, only legal re-ordering is
//! not. Must-not-fission shapes (cross-fragment scalar dependences,
//! use-before-def) pin the legality analysis: they must come out with
//! no plan at all.
//!
//! Sessions run single-threaded so both legs' traces are
//! deterministic; the parallel executor still runs its full
//! privatization/reduction machinery on one chunk.

use std::sync::{Arc, Mutex};

use lip_ir::{parse_program, AccessTracer, Machine, Store, Value};
use lip_runtime::Session;
use lip_suite::KernelShape;
use lip_symbolic::{sym, Sym};

/// Records every traced access.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<(char, Sym, usize)>>,
}

impl AccessTracer for Recorder {
    fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('r', arr, idx));
    }
    fn write(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('w', arr, idx));
    }
}

fn session(fission: bool) -> Session {
    Session::builder()
        .nthreads(1)
        .par_min(16)
        .fission(fission)
        .build()
}

/// Lossless value snapshot: Int/Real confusion and NaN payloads stay
/// visible.
fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// One leg's observable outcome. Arrays and scalars are keyed by name
/// and restricted to what existed *before* the run: execution may
/// allocate internal trace arrays under fresh names (and the fission
/// leg labels its fragments differently), which are not outputs.
struct Leg {
    outcome: String,
    loop_units: u64,
    scalars: Vec<(Sym, (u8, u64))>,
    arrays: Vec<(Sym, Vec<(u8, u64)>)>,
    /// Per-array sorted multiset of traced `(kind, index)` events.
    accesses: Vec<(Sym, Vec<(char, usize)>)>,
}

/// `Store::clone` shares the `Arc<ArrayBuf>` backing stores, so one
/// leg's run would leak into the other's inputs — copy the buffers.
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

fn run_leg(machine: &Machine, frame: &Store, sub_name: &str, label: &str, fission: bool) -> Leg {
    let sess = session(fission);
    let prog = machine.program().clone();
    let sub = prog.subroutine(sym(sub_name)).expect("sub").clone();
    let target = sub.find_loop(label).expect("loop").clone();
    let analysis = sess.analyze(&prog, sub.name, label).expect("analysis");

    let declared: Vec<Sym> = frame.arrays().map(|(s, _)| s).collect();
    let scalar_names: Vec<Sym> = frame.scalars().map(|(s, _)| s).collect();
    let rec = Arc::new(Recorder::default());
    let traced = machine.with_tracer(rec.clone());
    let mut frame = deep_clone(frame);
    let stats = sess
        .run_loop(&traced, &sub, &target, &analysis, &mut frame)
        .expect("runs");

    let scalars = scalar_names
        .into_iter()
        .map(|s| (s, value_bits(frame.scalar(s).expect("scalar survives"))))
        .collect();
    let arrays = declared
        .iter()
        .map(|&s| {
            let a = frame.array(s).expect("array survives");
            (
                s,
                (0..a.buf.len()).map(|k| value_bits(a.buf.get(k))).collect(),
            )
        })
        .collect();
    let events = std::mem::take(&mut *rec.events.lock().unwrap());
    let accesses = declared
        .iter()
        .map(|&s| {
            let mut evs: Vec<(char, usize)> = events
                .iter()
                .filter(|(_, arr, _)| *arr == s)
                .map(|&(k, _, i)| (k, i))
                .collect();
            evs.sort_unstable();
            (s, evs)
        })
        .collect();
    Leg {
        outcome: format!("{:?}", stats.outcome),
        loop_units: stats.loop_units,
        scalars,
        arrays,
        accesses,
    }
}

/// Asserts both legs agree on everything observable.
fn assert_legs_match(name: &str, on: &Leg, off: &Leg) {
    assert_eq!(
        on.loop_units, off.loop_units,
        "{name}: work units diverged (fission on: {}, off: {}; outcomes {} vs {})",
        on.loop_units, off.loop_units, on.outcome, off.outcome
    );
    assert_eq!(on.scalars, off.scalars, "{name}: scalars diverged");
    for ((s, a), (_, b)) in on.arrays.iter().zip(off.arrays.iter()) {
        assert_eq!(
            a, b,
            "{name}: array {s} diverged ({} vs {})",
            on.outcome, off.outcome
        );
    }
    for ((s, a), (_, b)) in on.accesses.iter().zip(off.accesses.iter()) {
        assert_eq!(
            a, b,
            "{name}: traced accesses on {s} diverged ({} vs {})",
            on.outcome, off.outcome
        );
    }
}

fn check_kernel(shape: &KernelShape, n: usize) {
    let p = shape.prepared(n);
    let on = run_leg(&p.machine, &p.frame, p.sub, p.label, true);
    let off = run_leg(&p.machine, &p.frame, p.sub, p.label, false);
    assert_legs_match(shape.name, &on, &off);
}

#[test]
fn all_suite_kernels_bit_identical_with_and_without_fission() {
    for shape in lip_suite::all_shapes() {
        check_kernel(shape, 32);
    }
}

#[test]
fn hoist_indirect_is_rescued_by_fission() {
    let shape = &lip_suite::HOIST_INDIRECT;
    let p = shape.prepared(64);
    let on = run_leg(&p.machine, &p.frame, p.sub, p.label, true);
    let off = run_leg(&p.machine, &p.frame, p.sub, p.label, false);
    assert!(
        on.outcome.starts_with("Fissioned"),
        "fission leg should distribute, got {}",
        on.outcome
    );
    assert_eq!(off.outcome, "Sequential", "classic leg stays sequential");
    assert_legs_match(shape.name, &on, &off);
}

// ---------------------------------------------------------------------
// Hand-written legality pins.
// ---------------------------------------------------------------------

fn custom(src: &str, prep: impl FnOnce(&mut Store)) -> (Machine, Store) {
    let machine = Machine::new(parse_program(src).expect("parses"));
    let mut frame = Store::new();
    prep(&mut frame);
    (machine, frame)
}

fn analyze_with_fission(machine: &Machine, label: &str) -> lip_analysis::LoopAnalysis {
    let prog = machine.program().clone();
    let sub = prog.units[0].clone();
    session(true)
        .analyze(&prog, sub.name, label)
        .expect("analysis")
}

#[test]
fn map_plus_scan_gets_a_two_fragment_plan() {
    let (machine, frame) = custom(
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
    let analysis = analyze_with_fission(&machine, "gl");
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

    let on = run_leg(&machine, &frame, "gen", "gl", true);
    let off = run_leg(&machine, &frame, "gen", "gl", false);
    assert!(
        on.outcome.starts_with("Fissioned"),
        "fission leg should distribute, got {}",
        on.outcome
    );
    assert_legs_match("map_plus_scan", &on, &off);
}

#[test]
fn cross_fragment_scalar_anti_dependence_must_not_fission() {
    // `A(i) = T` reads the value `T = B(i)` wrote in the *previous*
    // iteration: splitting the statements apart would feed every
    // iteration the same initial T.
    let (machine, frame) = custom(
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
    let analysis = analyze_with_fission(&machine, "gl");
    assert!(
        analysis.fission.is_none(),
        "scalar anti-dependence must merge the statements: {:?}",
        analysis.class
    );
    let on = run_leg(&machine, &frame, "gen", "gl", true);
    let off = run_leg(&machine, &frame, "gen", "gl", false);
    assert_legs_match("scalar_anti_dep", &on, &off);
}

#[test]
fn use_before_def_recurrence_must_not_fission() {
    // T is used before it is (re)defined each iteration, so the scan
    // through T chains every statement together.
    let (machine, frame) = custom(
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
    let analysis = analyze_with_fission(&machine, "gl");
    assert!(
        analysis.fission.is_none(),
        "use-before-def must merge the statements: {:?}",
        analysis.class
    );
    let on = run_leg(&machine, &frame, "gen", "gl", true);
    let off = run_leg(&machine, &frame, "gen", "gl", false);
    assert_legs_match("use_before_def", &on, &off);
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
        let (machine, frame) = custom(&src, corpus_frame(24));
        let on = run_leg(&machine, &frame, "gen", "gl", true);
        let off = run_leg(&machine, &frame, "gen", "gl", false);
        if on.outcome.starts_with("Fissioned") {
            fissioned += 1;
        }
        assert_legs_match(&format!("corpus seed {seed}\n{src}"), &on, &off);
    }
    // The corpus must actually exercise the rescue path, not just
    // degenerate shapes the planner rejects.
    assert!(
        fissioned >= 5,
        "only {fissioned} corpus programs were fissioned — generator drifted"
    );
}
