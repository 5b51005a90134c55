//! What a warm run pays to *find* what it cached, gated by counts that
//! repeat exactly (no clocks).
//!
//! * **Verdict keys.** `run.fingerprint_elems` counts the array elements
//!   a run digests to key the verdict memo. Per test phase it is Σ len
//!   over the *distinct* arrays that phase's tests read, however many
//!   stages, reduction cascades and exact tests name them (two
//!   SipHash passes per test used to make it 2–4× that); a fission
//!   fragment after the first is a phase of its own, because fragments
//!   write between tests, while the first tests the store the whole
//!   loop's tests just digested.
//! * **Same verdict traffic.** A cheaper key must not change which
//!   lookups hit: the engine's `evals` / `memo_hits` / `exact_evals` /
//!   `exact_memo_hits` and the block cache's `vm.block_hits` /
//!   `vm.block_compiles` over a cold and a warm run of every suite
//!   kernel are the numbers the two-pass key and the rendered block key
//!   produced at `cb2fbd4`.
//!
//! (That block keys are structural — equal bodies from different
//! `clone()`s share a block, one literal or one extra symbol apart they
//! do not — is `lip_runtime`'s `cache::tests::block_keys_are_structural`.)

use lip_obs::ObsLevel;
use lip_runtime::Session;
use lip_suite::KernelShape;
use lip_symbolic::sym;

const N: usize = 64;

struct Counts {
    /// `run.fingerprint_elems` of the cold and of the warm run.
    elems: [u64; 2],
    /// `evals, memo_hits, exact_evals, exact_memo_hits` (engine), then
    /// `vm.block_hits, vm.block_compiles`, over both runs.
    traffic: [u64; 6],
    /// Σ len of the named arrays, per `phases` entry, after the run.
    expected_elems: u64,
}

/// Runs `shape` twice through one handle — equal inputs, so the second
/// run is all memo hits — and reads the counters. `phases` names, per test
/// phase, the arrays its tests read.
fn counts(shape: &KernelShape, phases: &[&[&str]]) -> Counts {
    let sess = Session::builder()
        .nthreads(2)
        .observer(ObsLevel::Metrics)
        .build();
    let loaded = sess.load(lip_ir::parse_program(shape.source).expect("parses"));
    let handle = loaded
        .prepare(sym(shape.sub), shape.label)
        .expect("analysis");
    let counter = |name: &str| sess.metrics().counter(name).unwrap_or(0);
    let mut elems = [0u64; 2];
    let mut expected_elems = 0;
    for digested in &mut elems {
        let before = counter("run.fingerprint_elems");
        let mut frame = shape.prepared(N).frame;
        handle.run(&mut frame).expect("runs");
        *digested = counter("run.fingerprint_elems") - before;
        expected_elems = phases
            .iter()
            .flat_map(|arrays| arrays.iter())
            .map(|a| frame.array(sym(a)).expect("named array").buf.len() as u64)
            .sum();
    }
    let st = loaded.pred_stats();
    Counts {
        elems,
        traffic: [
            st.evals,
            st.memo_hits,
            st.exact_evals,
            st.exact_memo_hits,
            counter("vm.block_hits"),
            counter("vm.block_compiles"),
        ],
        expected_elems,
    }
}

#[test]
fn each_array_is_digested_once_per_test_phase() {
    // The arrays the tests of each phase read. `hoist_indirect`: the
    // whole-loop cascade, whose digests the rescued fragment's cascade
    // and exact test reuse (the other fragment is statically sequential
    // and tests nothing).
    let kernels: [(&KernelShape, &[&[&str]]); 6] = [
        (&lip_suite::INDEX_REDUCTION, &[&["J"]]),
        (&lip_suite::INT_HISTOGRAM, &[&["J"]]),
        (&lip_suite::EXT_REDUCTION, &[&["B"]]),
        (&lip_suite::CIV_CONDITIONAL, &[&["C", "civ@trace1"]]),
        (&lip_suite::HOIST_INDIRECT, &[&["P", "Q"]]),
        (&lip_suite::SOLVH, &[&["IA", "IB"]]),
    ];
    for (shape, phases) in kernels {
        let c = counts(shape, phases);
        assert!(c.expected_elems > 0, "{}", shape.name);
        assert_eq!(
            c.elems, [c.expected_elems; 2],
            "{}: elements digested by the cold and the warm run",
            shape.name
        );
        assert!(
            c.traffic[1] + c.traffic[3] > 0,
            "{}: the warm run must be answered by the memo for this to be a warm-run gate",
            shape.name
        );
    }
}

#[test]
fn verdict_and_block_traffic_is_what_the_old_keys_produced() {
    // [evals, memo_hits, exact_evals, exact_memo_hits, vm.block_hits,
    // vm.block_compiles] after a cold and a warm run, measured at the
    // parent commit with this same procedure.
    let parent: [(&str, [u64; 6]); 16] = [
        ("stencil", [0, 0, 0, 0, 1, 1]),
        ("solvh", [2, 2, 0, 0, 1, 1]),
        ("offset_crossover", [1, 1, 0, 0, 1, 1]),
        ("monotone_windows", [2, 2, 0, 0, 1, 1]),
        ("index_reduction", [2, 2, 0, 0, 1, 1]),
        ("gated_branches", [0, 0, 0, 0, 1, 1]),
        ("civ_conditional", [2, 2, 0, 0, 2, 2]),
        ("civ_while", [0, 0, 0, 0, 2, 2]),
        ("private_scratch", [0, 0, 0, 0, 1, 1]),
        ("seq_recurrence", [0, 0, 0, 0, 1, 1]),
        ("hoist_indirect", [2, 2, 1, 1, 2, 2]),
        ("tls_feedback", [2, 2, 1, 1, 2, 2]),
        ("ext_reduction", [1, 1, 0, 0, 1, 1]),
        ("static_reduction", [2, 2, 0, 0, 1, 1]),
        ("int_histogram", [2, 2, 0, 0, 1, 1]),
        ("tiny_loop", [0, 0, 0, 0, 1, 1]),
    ];
    let shapes = lip_suite::all_shapes();
    assert_eq!(shapes.len(), parent.len(), "a kernel was added: pin it");
    for (shape, (name, want)) in shapes.iter().zip(parent) {
        assert_eq!(shape.name, name);
        assert_eq!(counts(shape, &[]).traffic, want, "{name}");
    }
}

/// The first fission fragment keys its tests with the digests the whole
/// loop's tests took: nothing writes the store between the two phases.
/// `hoist_indirect` at n = 2 048 digests `P` and `Q` once per run, not
/// once for the loop and again for its indirect fragment.
#[test]
fn the_first_fragment_reuses_the_loops_digests() {
    let session = Session::builder().nthreads(2).build();
    let p = lip_suite::HOIST_INDIRECT.prepared(2048);
    let loaded = session.load(p.machine.program().clone());
    let handle = loaded.prepare(sym(p.sub), p.label).expect("analysis");
    for _ in 0..2 {
        let stats = handle.run(&mut p.frame.clone()).expect("runs");
        assert!(matches!(
            stats.outcome,
            lip_runtime::ExecOutcome::Fissioned { parallel: 1, .. }
        ));
        assert_eq!(stats.plan.keys.elems, 4096, "P and Q, 2 048 elements each");
    }
}
