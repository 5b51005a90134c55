//! Reduction cascades stop at O(N), like the loop-level cascade
//! (§3.6): when no stage up to O(N) proves the updates disjoint, the
//! executor buffers per chunk and merges — O(extent) — instead of
//! running an O(N²) scan first. `index_reduction` on shuffled disjoint
//! triplets is the input that used to pass only at the dropped stage:
//! through the buffered merge it must still be bit-identical to the
//! interpreter at every chunk count.

use lip_analysis::{analyze_loop, AnalysisConfig, ArrayPlan};
use lip_ir::{StoreCtx, Value};
use lip_runtime::{ExecOutcome, Session, TEST_BUDGET};
use lip_symbolic::sym;

#[test]
fn no_reduction_cascade_holds_a_stage_deeper_than_o_n() {
    let mut capped = 0;
    for shape in lip_suite::all_shapes() {
        let p = shape.prepared(16);
        let a = analyze_loop(
            p.machine.program(),
            sym(p.sub),
            p.label,
            &AnalysisConfig::default(),
        )
        .expect("analysis");
        for (arr, plan) in &a.arrays {
            if let ArrayPlan::Reduction {
                cascade: Some(c), ..
            } = plan
            {
                assert!(
                    c.stages.iter().all(|s| s.complexity <= 1),
                    "{}: reduction cascade of {arr} keeps a deeper stage",
                    shape.name
                );
                capped += 1;
            }
        }
    }
    assert!(capped >= 3, "only {capped} runtime reduction cascades seen");
}

#[test]
fn shuffled_triplets_merge_bit_identically_at_every_chunk_count() {
    let n = 384usize;
    let p = lip_suite::INDEX_REDUCTION.prepared(n);
    // Disjoint triplets in an order no O(N) stage can prove apart.
    let j = &p.frame.array(sym("J")).expect("J").buf;
    for k in 0..n {
        j.set(k, Value::Int(3 * ((k * 7919 + 13) % n) as i64 + 1));
    }
    let f = &p.frame.array(sym("F")).expect("F").buf;
    for k in 0..f.len() {
        f.set(k, Value::Real((k % 11) as f64 * 0.125));
    }
    let prog = p.machine.program();
    let analysis =
        analyze_loop(prog, sym(p.sub), p.label, &AnalysisConfig::default()).expect("analysis");

    // Every remaining stage fails on this input: the plan is the
    // buffered merge.
    let Some(ArrayPlan::Reduction {
        cascade: Some(cascade),
        ..
    }) = analysis.arrays.get(&sym("F"))
    else {
        panic!("F is not a runtime reduction: {:?}", analysis.arrays)
    };
    assert_eq!(
        cascade.first_success(&StoreCtx(&p.frame), TEST_BUDGET),
        None
    );

    for nthreads in [1, 2, 3, 7] {
        let report = lip_suite::check::kernel(&Session::builder().nthreads(nthreads).build(), &p);
        report.assert_sequential();
        assert_eq!(report.stats.outcome, ExecOutcome::StaticParallel);
    }
}
