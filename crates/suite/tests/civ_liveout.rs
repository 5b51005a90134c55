//! CIV live-out differential: after a parallel run of a loop with a
//! conditionally incremented induction variable, the scalar itself —
//! not only the arrays it indexes — must hold what the sequential loop
//! leaves in it. Every scalar and every array is compared bit for bit
//! with the `lip_ir` tree-walk interpreter, at chunk counts that split
//! the range evenly, unevenly and into more chunks than CPUs.

use lip_ir::{ExecState, Store, Value};
use lip_runtime::{ExecOutcome, Session};
use lip_symbolic::{sym, Sym};

fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// Every scalar and array named in `names`, bit-exact. The run may add
/// trace arrays under fresh names; those are not outputs.
fn snapshot(frame: &Store, names: &(Vec<Sym>, Vec<Sym>)) -> Vec<(Sym, Vec<(u8, u64)>)> {
    let scalars = names
        .0
        .iter()
        .map(|&s| (s, vec![value_bits(frame.scalar(s).expect("scalar"))]));
    let arrays = names.1.iter().map(|&s| {
        let a = frame.array(s).expect("array");
        (
            s,
            (0..a.buf.len()).map(|k| value_bits(a.buf.get(k))).collect(),
        )
    });
    scalars.chain(arrays).collect()
}

#[test]
fn civ_scalar_and_arrays_match_the_interpreter_at_every_chunk_count() {
    let shape = &lip_suite::CIV_CONDITIONAL;
    let n = 200usize;
    for entry in [0i64, 5] {
        let prepared = || {
            let mut p = shape.prepared(n);
            p.frame.set_int(sym("civ"), entry);
            p
        };
        let mut seq = prepared();
        let prog = seq.machine.program().clone();
        let sub = prog.subroutine(sym(seq.sub)).expect("sub").clone();
        let target = sub.find_loop(seq.label).expect("loop").clone();
        let names: (Vec<Sym>, Vec<Sym>) = (
            seq.frame.scalars().map(|(s, _)| s).collect(),
            seq.frame.arrays().map(|(s, _)| s).collect(),
        );
        seq.machine
            .exec_block(
                &sub,
                &mut seq.frame,
                std::slice::from_ref(&target),
                &mut ExecState::default(),
            )
            .expect("sequential reference");
        let expected = snapshot(&seq.frame, &names);
        let taken = (1..=n).filter(|i| i % 3 == 1).count() as i64;
        assert_eq!(
            seq.frame.scalar(sym("civ")),
            Some(Value::Int(entry + taken)),
            "the reference leaves the final count in civ"
        );

        for nthreads in [1usize, 2, 3, 7] {
            let sess = Session::builder().nthreads(nthreads).par_min(1).build();
            let analysis = sess.analyze(&prog, sub.name, seq.label).expect("analysis");
            let mut par = prepared();
            let stats = sess
                .run_loop(&par.machine, &sub, &target, &analysis, &mut par.frame)
                .expect("runs");
            assert_ne!(
                stats.outcome,
                ExecOutcome::Sequential,
                "the CIV loop must take a parallel path for this test to mean anything"
            );
            assert_eq!(
                expected,
                snapshot(&par.frame, &names),
                "entry civ = {entry}, nthreads = {nthreads} ({:?})",
                stats.outcome
            );
        }
    }
}
