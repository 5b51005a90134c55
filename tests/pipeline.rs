//! End-to-end integration tests spanning the whole workspace:
//! parser → summaries → independence equations → factorization →
//! cascade → runtime execution (threads) — checked against sequential
//! semantics.

use lip::analysis::{LoopClass, Technique};
use lip::ir::{parse_program, ExecState, Machine, Store, Value};
use lip::runtime::ExecOutcome;
use lip::symbolic::sym;
use lip::Session;

/// A default two-thread session for the parity checks.
fn session2() -> Session {
    Session::builder().nthreads(2).build()
}

/// Runs the loop sequentially and in parallel on cloned state; the
/// shared arrays must end identical.
fn parity_check(src: &str, sub_name: &str, label: &str, setup: impl Fn(&mut Store)) {
    let prog = parse_program(src).expect("parses");
    let machine = Machine::new(prog.clone());
    let handle = session2()
        .load(prog)
        .prepare(sym(sub_name), label)
        .expect("analyzable");

    let mut seq_frame = Store::new();
    setup(&mut seq_frame);
    let mut st = ExecState::default();
    machine
        .exec_stmt(handle.sub(), &mut seq_frame, handle.target(), &mut st)
        .expect("sequential run");

    let mut par_frame = Store::new();
    setup(&mut par_frame);
    handle.run(&mut par_frame).expect("parallel run");

    for (name, seq_view) in seq_frame.arrays() {
        let par_view = par_frame.array(name).expect("array bound in both");
        assert_eq!(seq_view.buf.len(), par_view.buf.len(), "{name} length");
        for i in 0..seq_view.buf.len() {
            assert_eq!(
                seq_view.buf.get_f64(i),
                par_view.buf.get_f64(i),
                "{name}[{i}] differs"
            );
        }
    }
}

#[test]
fn figure1_solvh_parity() {
    // The paper's Figure 1 kernel: interprocedural, gated, reshaped.
    let src = lip::suite::SOLVH.source;
    parity_check(src, "solvh", "do20", |frame| {
        let n = 24usize;
        frame
            .set_int(sym("N"), n as i64)
            .set_int(sym("NS"), 16)
            .set_int(sym("NP"), 2)
            .set_int(sym("SYM"), 0);
        let ia = frame.alloc_int(sym("IA"), n);
        let ib = frame.alloc_int(sym("IB"), n);
        for i in 0..n {
            ia.set(i, Value::Int(2));
            ib.set(i, Value::Int(2 * i as i64 + 1));
        }
        let he = lip::ir::ArrayBuf::new_real(32 * (2 * n + 2));
        frame.bind_array(
            sym("HE"),
            lip::ir::ArrayView {
                buf: he,
                offset: 0,
                extents: vec![32, i64::MAX],
            },
        );
        frame.alloc_real(sym("XE"), 64);
    });
}

#[test]
fn offset_crossover_parity_both_branches() {
    let src = lip::suite::OFFSET_CROSSOVER.source;
    // Passing predicate (M = N).
    parity_check(src, "ftrvmt", "do109", |frame| {
        frame.set_int(sym("N"), 300).set_int(sym("M"), 300);
        let a = frame.alloc_real(sym("A"), 600);
        for i in 0..600 {
            a.set(i, Value::Real(i as f64));
        }
    });
    // Failing predicate (M = 1): must fall back to sequential and match.
    parity_check(src, "ftrvmt", "do109", |frame| {
        frame.set_int(sym("N"), 300).set_int(sym("M"), 1);
        let a = frame.alloc_real(sym("A"), 301);
        for i in 0..301 {
            a.set(i, Value::Real(i as f64));
        }
    });
}

#[test]
fn monotone_windows_parity() {
    let src = lip::suite::MONOTONE_WINDOWS.source;
    parity_check(src, "intgrl", "do140", |frame| {
        let (n, l) = (48usize, 32i64);
        frame.set_int(sym("N"), n as i64).set_int(sym("L"), l);
        frame.alloc_real(sym("A"), n * l as usize + l as usize);
        let b = frame.alloc_int(sym("B"), n);
        for i in 0..n {
            b.set(i, Value::Int(i as i64 * l + 1));
        }
    });
}

#[test]
fn civ_compaction_parity() {
    let src = lip::suite::CIV_CONDITIONAL.source;
    parity_check(src, "actfor", "do240", |frame| {
        let n = 500usize;
        frame
            .set_int(sym("N"), n as i64)
            .set_int(sym("Q"), 0)
            .set_int(sym("civ"), 0);
        frame.alloc_real(sym("X"), n + 1);
        let c = frame.alloc_int(sym("C"), n);
        for i in 0..n {
            c.set(i, Value::Int(i64::from(i % 5 < 2)));
        }
    });
}

#[test]
fn buffered_reduction_parity() {
    let src = lip::suite::INDEX_REDUCTION.source;
    parity_check(src, "inl1130", "do1130", |frame| {
        let n = 400usize;
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("F"), 32);
        let j = frame.alloc_int(sym("J"), n);
        for i in 0..n {
            j.set(i, Value::Int((i % 9) as i64 + 1)); // heavy collisions
        }
    });
}

#[test]
fn sequential_recurrence_stays_correct() {
    let src = lip::suite::SEQ_RECURRENCE.source;
    parity_check(src, "blts", "do1", |frame| {
        let n = 200usize;
        frame.set_int(sym("N"), n as i64);
        let v = frame.alloc_real(sym("V"), n + 1);
        for i in 0..=n {
            v.set(i, Value::Real((i % 13) as f64));
        }
    });
}

#[test]
fn expected_classifications_match_paper_rows() {
    // Spot checks of the table classifications the suite encodes.
    type Case = (&'static lip::suite::KernelShape, fn(&LoopClass) -> bool);
    let cases: Vec<Case> = vec![
        (&lip::suite::STENCIL, |c| *c == LoopClass::StaticParallel),
        (&lip::suite::SEQ_RECURRENCE, |c| {
            *c == LoopClass::StaticSequential
        }),
        (&lip::suite::OFFSET_CROSSOVER, |c| {
            matches!(c, LoopClass::Predicated { .. })
        }),
        (&lip::suite::MONOTONE_WINDOWS, |c| {
            matches!(c, LoopClass::Predicated { .. })
        }),
    ];
    for (shape, ok) in cases {
        let p = shape.prepared(32);
        let prog = p.machine.program().clone();
        let analysis = Session::default()
            .analyze(&prog, sym(p.sub), p.label)
            .expect("analyzable");
        assert!(ok(&analysis.class), "{}: {:?}", shape.name, analysis.class);
    }
}

#[test]
fn o1_predicate_has_constant_cost() {
    // The FTRVMT-style test must not scale with N (paper: RTov ≈ 0%).
    let p = lip::suite::OFFSET_CROSSOVER.prepared(64);
    let prog = p.machine.program().clone();
    let analysis = Session::default()
        .analyze(&prog, sym(p.sub), p.label)
        .expect("analyzable");
    let ctx = lip::ir::StoreCtx(&p.frame);
    let first = &analysis.cascade.stages[0];
    assert_eq!(first.complexity, 0);
    assert!(first.pred.eval_cost(&ctx) < 64, "O(1) test scaled with N");
}

#[test]
fn lrpd_fallback_commits_on_benign_data() {
    // INT(real) indexing defeats every predicate; speculation decides.
    let p = lip::suite::TLS_FEEDBACK.prepared(128);
    let stats = session2()
        .load(p.machine.program().clone())
        .prepare(sym(p.sub), p.label)
        .expect("analyzable")
        .run(&mut p.frame.clone())
        .expect("runs");
    match stats.outcome {
        ExecOutcome::Speculated(_)
        | ExecOutcome::Sequential
        | ExecOutcome::PredicatePassed { .. }
        | ExecOutcome::ExactPredicatePassed => {}
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn techniques_cover_paper_vocabulary() {
    // Across the suite's shapes, the analysis must exercise the paper's
    // technique vocabulary.
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<Technique> = BTreeSet::new();
    let session = Session::default();
    for shape in lip::suite::all_shapes() {
        let p = shape.prepared(24);
        let prog = p.machine.program().clone();
        if let Some(a) = session.analyze(&prog, sym(p.sub), p.label) {
            seen.extend(a.techniques.iter().copied());
        }
    }
    for required in [
        Technique::Priv,
        Technique::Slv,
        Technique::Sred,
        Technique::CivAgg,
        Technique::CivComp,
        Technique::BoundsComp,
    ] {
        assert!(seen.contains(&required), "technique {required} never used");
    }
}
