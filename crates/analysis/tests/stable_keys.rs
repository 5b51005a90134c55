//! The same loop renders the same keys wherever it runs in a process.
//!
//! The runtime files compiled stages and verdicts under `Stage::key()`
//! and the exact test under `ind_usr`'s rendering. While every binder
//! was a fresh interner entry, those texts depended on what the process
//! had analysed before (`solvh` rendered `i$35` first and `i$155` after
//! the other suite kernels), so one server's caches and another's never
//! met. Binders now come from a fixed pool chosen by the terms they
//! bind over. Its own test binary: the first analysis below is the
//! first thing this process analyses.

use lip_analysis::{analyze_loop, AnalysisConfig, ArrayPlan, LoopAnalysis};
use lip_ir::parse_program;
use lip_suite::KernelShape;
use lip_symbolic::sym;

fn analyze(shape: &KernelShape) -> LoopAnalysis {
    let prog = parse_program(shape.source).expect("parses");
    analyze_loop(
        &prog,
        sym(shape.sub),
        shape.label,
        &AnalysisConfig::default(),
    )
    .expect("analyzable")
}

/// Every stage key and `ind_usr` rendering of `a`, fission fragments
/// included, in a fixed order.
fn keys(a: &LoopAnalysis, out: &mut Vec<String>) {
    let mut cascades = vec![&a.cascade];
    for plan in a.arrays.values() {
        match plan {
            ArrayPlan::Predicated(c)
            | ArrayPlan::Privatized {
                cascade: Some(c), ..
            }
            | ArrayPlan::Reduction {
                cascade: Some(c), ..
            } => cascades.push(c),
            _ => {}
        }
    }
    for stage in cascades.iter().flat_map(|c| &c.stages) {
        out.push(stage.key().to_string());
    }
    out.push(a.ind_usr.as_ref().map_or("none".into(), |u| u.to_string()));
    if let Some(plan) = &a.fission {
        for f in &plan.fragments {
            keys(&f.analysis, out);
        }
    }
}

fn solvh_keys() -> Vec<String> {
    let mut out = Vec::new();
    keys(&analyze(&lip_suite::SOLVH), &mut out);
    out
}

#[test]
fn solvh_renders_alike_first_and_after_every_kernel() {
    let first = std::thread::spawn(solvh_keys)
        .join()
        .expect("first analysis");
    assert!(first.len() > 3, "{first:?}");
    for shape in lip_suite::all_shapes() {
        analyze(shape);
    }
    let again = solvh_keys();
    for (k, (x, y)) in first.iter().zip(&again).enumerate() {
        assert_eq!(x, y, "key {k} moved between the first and a later analysis");
    }
    assert_eq!(first.len(), again.len());
    assert!(
        first.iter().all(|k| !k.contains('$')),
        "a process-numbered symbol in solvh's keys"
    );
}
