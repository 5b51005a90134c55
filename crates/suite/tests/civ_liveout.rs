//! CIV live-out differential: after a parallel run of a loop with a
//! conditionally incremented induction variable, the scalar itself —
//! not only the arrays it indexes — must hold what the sequential loop
//! leaves in it. `lip_suite::check` compares every scalar and array
//! with the `lip_ir` tree-walk interpreter, at chunk counts that split
//! the range evenly, unevenly and into more chunks than CPUs.

use lip_ir::Value;
use lip_runtime::{ExecOutcome, Session};
use lip_symbolic::sym;

#[test]
fn civ_scalar_and_arrays_match_the_interpreter_at_every_chunk_count() {
    let n = 200usize;
    let taken = (1..=n).filter(|i| i % 3 == 1).count() as i64;
    for entry in [0i64, 5] {
        let mut p = lip_suite::CIV_CONDITIONAL.prepared(n);
        p.frame.set_int(sym("civ"), entry);
        for nthreads in [1usize, 2, 3, 7] {
            let sess = Session::builder().nthreads(nthreads).par_min(1).build();
            let report = lip_suite::check::kernel(&sess, &p);
            report.assert_sequential();
            assert_ne!(
                report.stats.outcome,
                ExecOutcome::Sequential,
                "the CIV loop must take a parallel path for this test to mean anything"
            );
            assert_eq!(
                report.after.scalar(sym("civ")),
                Some(Value::Int(entry + taken)),
                "the final count is left in civ"
            );
        }
    }
}

/// The `Machine`-taking `Session::civ_traces` charges what the plan's
/// slice charges — the DO's bounds once, then the slice — on the same
/// input: it used to charge the bounds twice (476 against 474 units at
/// n = 64).
#[test]
fn the_compat_slice_charges_what_the_plans_slice_charges() {
    let p = lip_suite::CIV_CONDITIONAL.prepared(64);
    let sess = Session::builder().nthreads(2).build();
    let loaded = sess.load(p.machine.program().clone());
    let handle = loaded.prepare(sym(p.sub), p.label).expect("analysis");
    let plan = handle.plan(&mut p.frame.clone()).expect("plans");
    let planned = plan.units.slice.expect("the plan runs the slice");
    let civs = &handle.analysis().civs;
    let compat = sess
        .civ_traces(
            &p.machine,
            handle.sub(),
            handle.target(),
            civs,
            &mut p.frame.clone(),
            None,
        )
        .expect("slice runs");
    assert_eq!(compat, planned);
    assert_eq!(planned, 474);
}
