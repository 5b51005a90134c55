//! The exact USR test on the suite kernels that can reach it:
//! linear by count, equal to the reference, and hoisted.
//!
//! * **Scaling gate, by count not by clock.** On inputs shaped like the
//!   benchmark's pass and fail rows, `units(2n) <= 2.2 * units(n)` at
//!   `n` = 192 → 384 → 768, and a fail-shaped input never costs more
//!   than the pass-shaped one of the same size (early exit).
//! * **Reference.** On every such input the one-pass verdict is
//!   `eval_usr(..).is_empty()`, and every run below, memo-answered or
//!   not, is the sequential loop (`lip_suite::check`).
//! * **Memo.** A second `run_loop` on unchanged inputs performs no exact
//!   evaluation and charges the same `test_units`; changing one element
//!   of an index array or one free scalar the USR reads re-evaluates,
//!   changing anything else does not — also inside a fissioned run,
//!   where the fragment's test sees the store as earlier fragments
//!   left it.
//! * **Units golden.** Verdict and units of every independence USR of
//!   every suite kernel and its fission fragments, at n = 64 and 192, on
//!   the shaped inputs (and on the prepared input of a kernel that has
//!   none), with the whole budget and with half the units it took, are
//!   `tests/golden/exact_units.txt` byte for byte: the evaluator may get
//!   faster, never count differently. Re-capture with
//!   `-- --ignored bless` only when the count is meant to change.

use lip_analysis::{analyze_loop, AnalysisConfig, LoopAnalysis};
use lip_ir::{Program, Store, StoreCtx, Value};
use lip_runtime::{ExecOutcome, Loaded, LoopHandle, RunStats, Session, TEST_BUDGET};
use lip_suite::check::{cold, observationally_sequential};
use lip_suite::KernelShape;
use lip_symbolic::sym;
use lip_usr::{eval_usr, exact, Usr};

/// `1..=n` in an order that is neither ascending nor descending
/// (`n` here is always a multiple of 3 · 2^k, coprime to 7919).
fn shuffled(n: usize) -> Vec<i64> {
    (0..n).map(|k| ((k * 7919 + 13) % n) as i64 + 1).collect()
}

fn set_ints(frame: &Store, name: &str, values: impl IntoIterator<Item = i64>) {
    let buf = &frame.array(sym(name)).expect("index array").buf;
    for (k, v) in values.into_iter().enumerate() {
        buf.set(k, Value::Int(v));
    }
}

/// The kernels whose cascade can fail into the exact test, with inputs
/// shaped like `bench_e2e`'s `tests_heavy` rows: `pass` keeps the
/// property the cascade proves, `!pass` breaks it (for
/// `monotone_windows` only the *order* breaks: the windows stay
/// disjoint, so the exact test passes where the cascade could not).
fn shaped(shape: &'static KernelShape, n: usize, pass: bool) -> Store {
    let mut frame = shape.prepared(n).frame;
    let ni = n as i64;
    match shape.name {
        "hoist_indirect" => {
            // P writes 1..n; Q reads n+1..2n, or a window shifted half
            // way into P's range.
            let shift = if pass { ni } else { ni / 2 };
            set_ints(&frame, "P", shuffled(n));
            set_ints(
                &frame,
                "Q",
                shuffled(n).into_iter().rev().map(|q| q + shift),
            );
        }
        "solvh" => {
            // Sections of two columns: disjoint, or each overlapping
            // the next.
            let step = if pass { 2 } else { 1 };
            set_ints(&frame, "IB", (0..ni).map(|i| step * i + 1));
        }
        "monotone_windows" => {
            let bases: Vec<i64> = (0..ni).map(|i| 32 * i + 1).collect();
            if pass {
                set_ints(&frame, "B", bases);
            } else {
                set_ints(
                    &frame,
                    "B",
                    shuffled(n).iter().map(|k| bases[*k as usize - 1]),
                );
            }
        }
        "ext_reduction" => {
            // B beyond the written region 1..n, or a shuffle of it.
            if pass {
                set_ints(&frame, "B", (1..=ni).map(|k| ni + k));
            } else {
                set_ints(&frame, "B", shuffled(n));
            }
        }
        "offset_crossover" => {
            frame.set_int(sym("M"), if pass { ni } else { 1 });
        }
        other => panic!("no shaped input for {other}"),
    }
    frame
}

const KERNELS: [&KernelShape; 5] = [
    &lip_suite::HOIST_INDIRECT,
    &lip_suite::SOLVH,
    &lip_suite::MONOTONE_WINDOWS,
    &lip_suite::EXT_REDUCTION,
    &lip_suite::OFFSET_CROSSOVER,
];

/// `shape`'s input at `n`, shaped when the kernel has shaped inputs.
fn input(shape: &'static KernelShape, n: usize, pass: Option<bool>) -> Store {
    match pass {
        Some(pass) => shaped(shape, n, pass),
        None => shape.prepared(n).frame,
    }
}

/// `shape`'s program and the analysis of its loop.
fn analyzed(shape: &'static KernelShape) -> (Program, LoopAnalysis) {
    let prog = shape.prepared(8).machine.program().clone();
    let analysis = analyze_loop(
        &prog,
        sym(shape.sub),
        shape.label,
        &AnalysisConfig::default(),
    )
    .expect("analysis");
    (prog, analysis)
}

/// Every independence USR the executor may ask about: the loop's, and
/// each fission fragment's.
fn usrs(a: &LoopAnalysis) -> Vec<(String, Usr)> {
    let mut out: Vec<(String, Usr)> = a
        .ind_usr
        .iter()
        .map(|u| ("loop".into(), u.clone()))
        .collect();
    for (k, frag) in a.fission.iter().flat_map(|p| &p.fragments).enumerate() {
        out.extend(
            frag.analysis
                .ind_usr
                .iter()
                .map(|u| (format!("fragment {k}"), u.clone())),
        );
    }
    out
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exact_units.txt");

/// One line per kernel, USR, size and input: the verdict and units of
/// the exact test with the whole budget, then with half the units it
/// took (which pins where they are charged, not only how many).
fn render_units() -> String {
    let mut out = String::new();
    for shape in lip_suite::all_shapes() {
        let (_, a) = analyzed(shape);
        let inputs: &[Option<bool>] = if KERNELS.iter().any(|k| k.name == shape.name) {
            &[Some(true), Some(false)]
        } else {
            &[None]
        };
        for (which, u) in usrs(&a) {
            for n in [64, 192] {
                for pass in inputs {
                    let frame = input(shape, n, *pass);
                    let ctx = StoreCtx(&frame);
                    let whole = exact::independent(&u, &ctx, TEST_BUDGET);
                    let half = exact::independent(&u, &ctx, whole.units / 2);
                    let said = ["prepared", "pass", "fail"][pass.map_or(0, |p| 2 - usize::from(p))];
                    out += &format!(
                        "{} {which} n={n} {said}: {:?} {} | half {:?} {}\n",
                        shape.name, whole.verdict, whole.units, half.verdict, half.units
                    );
                }
            }
        }
    }
    out
}

#[test]
fn units_match_the_golden() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present (see module docs)");
    let got = render_units();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "exact test units diverged from the golden capture");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    assert_eq!(got, want);
}

#[test]
#[ignore = "writes the golden file; run only when the exact test's count is meant to change"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("has a parent"))
        .expect("golden dir");
    std::fs::write(GOLDEN, render_units()).expect("golden written");
}

#[test]
fn units_are_linear_in_n_and_a_fail_costs_no_more_than_a_pass() {
    for shape in KERNELS {
        let (_, a) = analyzed(shape);
        for (which, u) in usrs(&a) {
            let units = |n: usize, pass: bool| {
                let frame = shaped(shape, n, pass);
                let e = exact::independent(&u, &StoreCtx(&frame), TEST_BUDGET);
                assert!(e.verdict.is_some(), "{} {which}: undecided", shape.name);
                e.units
            };
            for pass in [true, false] {
                let at: Vec<u64> = [192, 384, 768].iter().map(|n| units(*n, pass)).collect();
                for w in at.windows(2) {
                    assert!(
                        w[1] * 10 <= w[0] * 22,
                        "{} {which} (pass-shaped: {pass}): {at:?} units at n = 192, 384, 768",
                        shape.name
                    );
                }
            }
            for n in [192, 384, 768] {
                let (pass, fail) = (units(n, true), units(n, false));
                assert!(
                    fail <= pass,
                    "{} {which} n = {n}: fail-shaped {fail} > pass-shaped {pass} units",
                    shape.name
                );
            }
        }
    }
}

#[test]
fn verdicts_equal_the_reference_on_every_shaped_input() {
    let mut verdicts = Vec::new();
    let session = Session::builder().nthreads(2).build();
    for shape in KERNELS {
        let (prog, a) = analyzed(shape);
        for pass in [true, false] {
            let frame = shaped(shape, 96, pass);
            cold(&session, &prog, sym(shape.sub), shape.label, &frame).assert_sequential();
        }
        for (which, u) in usrs(&a) {
            for pass in [true, false] {
                let frame = shaped(shape, 96, pass);
                let ctx = StoreCtx(&frame);
                let reference = eval_usr(&u, &ctx, 10_000_000).map(|s| s.is_empty());
                let got = exact::independent(&u, &ctx, TEST_BUDGET);
                assert_eq!(
                    got.verdict, reference,
                    "{} {which} (pass-shaped: {pass})",
                    shape.name
                );
                assert!(reference.is_some());
                verdicts.push((shape.name, which.clone(), pass, got.verdict == Some(true)));
            }
        }
    }
    // The probe reaches both answers, and the one kernel whose
    // fail-shaped input is only out of order still passes.
    assert!(verdicts.iter().any(|v| v.3) && verdicts.iter().any(|v| !v.3));
    assert!(verdicts.contains(&("monotone_windows", "loop".into(), false, true)));
    assert!(verdicts.contains(&("hoist_indirect", "fragment 0".into(), true, true)));
    assert!(verdicts.contains(&("hoist_indirect", "fragment 0".into(), false, false)));
}

/// One kernel loaded into one session: every run goes through
/// `lip_suite::check`, memo-answered ones included, and counts the
/// engine's exact evaluations.
struct Hoisted {
    session: Session,
    loaded: Loaded,
    handle: LoopHandle,
}

impl Hoisted {
    fn new(shape: &'static KernelShape) -> Hoisted {
        let (prog, _) = analyzed(shape);
        let session = Session::builder().nthreads(2).build();
        let loaded = session.load(prog);
        let handle = loaded.prepare(sym(shape.sub), shape.label).expect("loop");
        Hoisted {
            session,
            loaded,
            handle,
        }
    }

    /// Runs the loop on copies of `frame`, checks it is the sequential
    /// loop, and returns the stats with how many exact evaluations and
    /// memo hits the handle's run made (the check's traced leg runs in
    /// a cache of its own).
    fn run(&self, frame: &Store) -> (RunStats, u64, u64) {
        let before = self.loaded.pred_stats();
        let report = observationally_sequential(&self.session, &self.handle, frame);
        report.assert_sequential();
        let after = self.loaded.pred_stats();
        (
            report.stats,
            after.exact_evals - before.exact_evals,
            after.exact_memo_hits - before.exact_memo_hits,
        )
    }
}

fn bump(frame: &Store, array: &str, at: usize, by: i64) {
    let buf = &frame.array(sym(array)).expect("array").buf;
    match buf.get(at) {
        Value::Int(v) => buf.set(at, Value::Int(v + by)),
        Value::Real(v) => buf.set(at, Value::Real(v + by as f64)),
    }
}

#[test]
fn a_repeat_run_is_answered_from_the_memo_and_charged_the_same() {
    for shape in KERNELS {
        let h = Hoisted::new(shape);
        let frame = shaped(shape, 96, false);
        let (first, evals, hits) = h.run(&frame);
        assert_eq!((evals, hits), (1, 0), "{}: first run", shape.name);
        let (second, evals, hits) = h.run(&frame);
        assert_eq!((evals, hits), (0, 1), "{}: repeat run", shape.name);
        assert_eq!(first.outcome, second.outcome, "{}", shape.name);
        assert_eq!(first.test_units, second.test_units, "{}", shape.name);
        assert_eq!(first.loop_units, second.loop_units, "{}", shape.name);
        // The pass-shaped twin decides in the cascade: no exact test.
        let (pass, evals, hits) = h.run(&shaped(shape, 96, true));
        if shape.name != "hoist_indirect" {
            assert_eq!((evals, hits), (0, 0), "{}: pass-shaped", shape.name);
            assert!(matches!(pass.outcome, ExecOutcome::PredicatePassed { .. }));
        }
    }
}

#[test]
fn only_what_the_usr_reads_re_evaluates() {
    // (kernel, array or scalar, element, change, read by the USR).
    let edits: [(&'static KernelShape, &str, Option<usize>, i64, bool); 11] = [
        (&lip_suite::HOIST_INDIRECT, "P", Some(5), 1, true),
        (&lip_suite::HOIST_INDIRECT, "Q", Some(90), -1, true),
        (&lip_suite::HOIST_INDIRECT, "C", Some(7), 3, false),
        (&lip_suite::HOIST_INDIRECT, "A", Some(0), 2, false),
        (&lip_suite::SOLVH, "IB", Some(40), 1, true),
        (&lip_suite::SOLVH, "XE", Some(3), 1, false),
        (&lip_suite::MONOTONE_WINDOWS, "B", Some(11), 1, true),
        (&lip_suite::MONOTONE_WINDOWS, "L", None, -1, true),
        (&lip_suite::MONOTONE_WINDOWS, "A", Some(9), 1, false),
        (&lip_suite::EXT_REDUCTION, "B", Some(2), 1, true),
        (&lip_suite::OFFSET_CROSSOVER, "M", None, 1, true),
    ];
    for (shape, name, at, by, read) in edits {
        let h = Hoisted::new(shape);
        let mut frame = shaped(shape, 96, false);
        let (base, evals, _) = h.run(&frame);
        assert_eq!(evals, 1, "{}: first run", shape.name);
        match at {
            Some(at) => bump(&frame, name, at, by),
            None => {
                let v = frame.scalar(sym(name)).expect("scalar").as_i64();
                frame.set_int(sym(name), v + by);
            }
        }
        let (edited, evals, hits) = h.run(&frame);
        let want = if read { (1, 0) } else { (0, 1) };
        assert_eq!((evals, hits), want, "{}: after editing {name}", shape.name);
        if !read {
            assert_eq!(base.outcome, edited.outcome);
            assert_eq!(base.test_units, edited.test_units);
        }
    }
}

#[test]
fn a_fragments_test_follows_the_inputs_it_is_given() {
    // hoist_indirect distributes into the indirect fragment (exact
    // test) and the scan. Same session, same program: the fragment's
    // verdict must follow P and Q run by run, never a verdict filed for
    // other contents.
    let h = Hoisted::new(&lip_suite::HOIST_INDIRECT);
    let parallel_fragments = |stats: &RunStats| match stats.outcome {
        ExecOutcome::Fissioned { parallel, .. } => parallel,
        ref other => panic!("expected a fissioned run, got {other:?}"),
    };
    let (pass, fail) = (
        shaped(&lip_suite::HOIST_INDIRECT, 96, true),
        shaped(&lip_suite::HOIST_INDIRECT, 96, false),
    );
    for round in 0..2 {
        let (independent, evals, hits) = h.run(&pass);
        assert_eq!(parallel_fragments(&independent), 1);
        let (dependent, evals2, hits2) = h.run(&fail);
        assert_eq!(parallel_fragments(&dependent), 0);
        // Round 0 evaluates both inputs, round 1 none.
        assert_eq!(
            (evals + evals2, hits + hits2),
            if round == 0 { (2, 0) } else { (0, 2) }
        );
        // The early exit shows in the charge.
        assert!(dependent.test_units < independent.test_units);
    }
}
