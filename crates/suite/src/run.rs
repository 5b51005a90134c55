//! Whole-benchmark measurement over the cost-model simulator.
//!
//! For each representative loop: analyze (hybrid + baseline), run the
//! runtime tests against the prepared workload, measure per-iteration
//! costs once, and derive parallel makespans for any processor count.
//! Whole-benchmark times add the unmeasured remainder `(1−SC)` as
//! sequential work (Amdahl), scaled from the measured loops.

use std::rc::Rc;

use lip_analysis::{baseline_parallel, FallbackKind, LoopAnalysis, LoopClass};
use lip_obs::FissionReport;
use lip_runtime::sim::{charged_test_units, makespan};
use lip_runtime::{Route, SeqReason, Session};
use lip_symbolic::sym;

use crate::bench_def::BenchDef;
use crate::kernels::KernelShape;

/// Measurement of one representative loop.
#[derive(Clone, Debug)]
pub struct LoopMeasurement {
    /// Kernel shape name.
    pub shape: &'static str,
    /// Loop label.
    pub label: String,
    /// The hybrid classification.
    pub class: LoopClass,
    /// Rendered technique set.
    pub techniques: String,
    /// Whether the runtime cascade passed on the workload (true also
    /// for static classifications).
    pub parallel: bool,
    /// Whether the ifort/xlf-style baseline parallelizes it.
    pub baseline_parallel: bool,
    /// Per-iteration work units.
    pub per_iter: Vec<u64>,
    /// Runtime-test units (cascade + CIV slice), sequential.
    pub test_units: u64,
    /// The paper's expected classification string.
    pub expected: &'static str,
    /// LSC weight.
    pub weight: f64,
}

impl LoopMeasurement {
    /// Sequential units of this loop.
    pub fn seq_units(&self) -> u64 {
        self.per_iter.iter().sum()
    }

    /// Test units charged on the critical path — delegates to the
    /// charging rule the simulator shares with the `lip_pred` engine's
    /// fork decision ([`charged_test_units`]): O(1) tests run inline,
    /// large (O(N)) tests are and/or-reduced across processors with
    /// one extra spawn (paper §5).
    pub fn charged_test_units(&self, procs: usize, spawn: u64) -> u64 {
        charged_test_units(self.test_units, procs, spawn)
    }

    /// Simulated parallel units on `procs` processors (including the
    /// runtime test and spawn overhead).
    pub fn par_units(&self, procs: usize, spawn: u64) -> u64 {
        let test = self.charged_test_units(procs, spawn);
        if self.parallel {
            makespan(&self.per_iter, procs) + spawn + test
        } else {
            self.seq_units() + test
        }
    }
}

/// The fission rescue for the explain report: the loop run on a fresh
/// workload, loaded afresh, as production runs it (each fragment
/// planned on the store the fragments before it left).
fn account_fission(
    session: &Session,
    shape: &'static KernelShape,
    size: usize,
    analysis: &LoopAnalysis,
) -> Option<FissionReport> {
    let mut fw = shape.prepared(size);
    let whole = session
        .load(fw.machine.program().clone())
        .prepare_analyzed(sym(fw.sub), fw.label, Rc::new(analysis.clone()))
        .expect("loop");
    let stats = whole.run(&mut fw.frame).expect("a fissioned run");
    stats.plan.decision(analysis).fission
}

/// Measures one loop of a benchmark through `session`: the runtime's
/// own plan on the live workload (its CIV slice and tests, charged as a
/// run charges them), then the per-iteration costs.
pub fn measure_loop(
    session: &Session,
    shape: &'static KernelShape,
    size: usize,
    weight: f64,
    expected: &'static str,
) -> LoopMeasurement {
    // Work units and verdicts never depend on the session's
    // configuration, only wall-clock does — Tables 1–3 are
    // bit-identical across sessions (concurrent ones included).
    let mut p = shape.prepared(size);
    let handle = session
        .load(p.machine.program().clone())
        .prepare(sym(p.sub), p.label)
        .expect("loop");
    let analysis = handle.analysis();
    let base = baseline_parallel(handle.sub(), handle.target());
    let plan = handle.plan(&mut p.frame).expect("plan");
    let per_iter = handle.per_iteration_costs(&mut p.frame).expect("measure");
    let seq: u64 = per_iter.iter().sum();

    // The model's one rule: a route runs as planned, but speculation is
    // modelled parallel, with a test as expensive as shadowing every
    // reference (a quarter of a sequential pass), or — HOIST-USR,
    // hoisted and memoized across invocations as apsi's RUN loops are
    // (paper §7) — a twentieth. A fissioned loop is a partial win: the
    // tables' PAR/SEQ column stays SEQ, and `Session::explain` reports
    // the rescued fraction per fragment.
    let (parallel, modelled_units) = match plan.route {
        Route::Speculate => {
            let hoisted = analysis.class == LoopClass::NeedsFallback(FallbackKind::HoistUsr);
            (true, seq / if hoisted { 20 } else { 4 })
        }
        // The one exception: production runs every WHILE sequentially
        // (ROADMAP item 6), while the model runs a `StaticParallel` one
        // in parallel from its traces.
        Route::Sequential(SeqReason::While) => (analysis.class == LoopClass::StaticParallel, 0),
        route => (route.parallel(), 0),
    };
    let test_units = plan.units.total() + modelled_units;

    if session.obs().trace_enabled() {
        let mut d = plan.decision(analysis);
        d.kernel = Some(shape.name.to_string());
        let modelled = if parallel == plan.route.parallel() {
            ""
        } else {
            ", modelled parallel"
        };
        d.executor = format!("{:?}{modelled}", plan.route);
        d.test_units = test_units;
        d.loop_units = seq;
        if plan.route == Route::Fission {
            d.fission = account_fission(session, shape, size, analysis);
        }
        session.obs().record_decision(d);
    }

    let techniques = analysis
        .techniques
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    LoopMeasurement {
        shape: shape.name,
        label: analysis.label.clone(),
        class: analysis.class.clone(),
        techniques,
        parallel,
        baseline_parallel: base,
        per_iter,
        test_units,
        expected,
        weight,
    }
}

/// Whole-benchmark timing model.
#[derive(Clone, Debug)]
pub struct BenchTiming {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-loop measurements.
    pub loops: Vec<LoopMeasurement>,
    /// Sequential coverage (Amdahl bound).
    pub sc: f64,
}

impl BenchTiming {
    /// Total sequential units including the unmeasured remainder.
    pub fn seq_units(&self) -> u64 {
        let measured: u64 = self.loops.iter().map(|l| l.seq_units()).sum();
        let weight: f64 = self.loops.iter().map(|l| l.weight).sum::<f64>().max(1e-9);
        // Scale to the whole program, then add the serial remainder.
        (measured as f64 / weight).round() as u64
    }

    /// Units outside the analyzed loops (serial remainder).
    fn remainder_units(&self) -> u64 {
        let total = self.seq_units() as f64;
        (total * (1.0 - self.sc).max(0.0)).round() as u64
    }

    /// Covered-but-unmeasured units (behave like the measured loops).
    fn covered_scale(&self) -> f64 {
        let weight: f64 = self.loops.iter().map(|l| l.weight).sum::<f64>().max(1e-9);
        self.sc / weight
    }

    /// Simulated parallel time of the whole benchmark under our system.
    pub fn par_units(&self, procs: usize, spawn: u64) -> u64 {
        let par_measured: u64 = self.loops.iter().map(|l| l.par_units(procs, spawn)).sum();
        (par_measured as f64 * self.covered_scale()).round() as u64 + self.remainder_units()
    }

    /// Simulated parallel time under the affine static baseline.
    pub fn baseline_units(&self, procs: usize, spawn: u64) -> u64 {
        let par_measured: u64 = self
            .loops
            .iter()
            .map(|l| {
                if l.baseline_parallel {
                    makespan(&l.per_iter, procs) + spawn
                } else {
                    l.seq_units()
                }
            })
            .sum();
        (par_measured as f64 * self.covered_scale()).round() as u64 + self.remainder_units()
    }

    /// Runtime-test overhead as a fraction of parallel time (RTov).
    pub fn rt_overhead(&self, procs: usize, spawn: u64) -> f64 {
        let tests: u64 = self
            .loops
            .iter()
            .map(|l| l.charged_test_units(procs, spawn))
            .sum();
        let par = self.par_units(procs, spawn);
        if par == 0 {
            0.0
        } else {
            (tests as f64 * self.covered_scale()) / par as f64
        }
    }

    /// Coverage needing runtime tests (SCrt).
    pub fn sc_rt(&self) -> f64 {
        self.loops
            .iter()
            .filter(|l| {
                matches!(
                    l.class,
                    LoopClass::Predicated { .. } | LoopClass::NeedsFallback(_)
                ) || l.test_units > 0
            })
            .map(|l| l.weight)
            .sum()
    }
}

/// Measures a whole benchmark through `session`.
pub fn measure_benchmark(session: &Session, def: &BenchDef) -> BenchTiming {
    let loops = def
        .loops
        .iter()
        .map(|l| measure_loop(session, l.shape, l.size, l.weight, l.expected))
        .collect();
    BenchTiming {
        name: def.name,
        loops,
        sc: def.sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_def;

    #[test]
    fn dyfesm_solvh_matches_paper_classification() {
        let m = measure_loop(
            &Session::default(),
            &crate::kernels::SOLVH,
            40,
            0.142,
            "F/OI O(1)/O(N)",
        );
        // The paper reports runtime flow/output tests for SOLVH_do20.
        assert!(
            matches!(m.class, LoopClass::Predicated { .. })
                || matches!(m.class, LoopClass::NeedsFallback(_)),
            "got {:?}",
            m.class
        );
        // The baseline cannot touch it (calls, symbolic sections).
        assert!(!m.baseline_parallel);
    }

    #[test]
    fn stencils_are_static_parallel_for_both() {
        let m = measure_loop(
            &Session::default(),
            &crate::kernels::STENCIL,
            200,
            0.5,
            "STATIC-PAR",
        );
        assert_eq!(m.class, LoopClass::StaticParallel);
        assert!(m.parallel);
        assert!(m.baseline_parallel);
        assert_eq!(m.test_units, 0);
    }

    #[test]
    fn offset_crossover_needs_runtime_and_passes() {
        let m = measure_loop(
            &Session::default(),
            &crate::kernels::OFFSET_CROSSOVER,
            256,
            0.4,
            "FI O(1)",
        );
        assert!(matches!(m.class, LoopClass::Predicated { .. }));
        assert!(m.parallel, "cascade should pass on the workload");
        assert!(!m.baseline_parallel);
        assert!(m.test_units > 0);
    }

    #[test]
    fn sequential_recurrence_stays_sequential() {
        let m = measure_loop(
            &Session::default(),
            &crate::kernels::SEQ_RECURRENCE,
            128,
            0.3,
            "STATIC-SEQ",
        );
        assert!(!m.parallel);
        assert!(!m.baseline_parallel);
    }

    #[test]
    fn observer_session_explains_hoist_indirect_by_kernel_name() {
        let session = Session::builder()
            .observer(lip_obs::ObsLevel::Trace)
            .build();
        let m = measure_loop(
            &session,
            &crate::kernels::HOIST_INDIRECT,
            64,
            0.1,
            "FI HOIST-USR",
        );
        assert!(!m.parallel, "hoist_indirect cascade fails on the workload");

        // The decision is stored under both the loop label and the
        // kernel name, so `explain` resolves either.
        let d = session
            .explain_decision("hoist_indirect")
            .expect("decision by kernel name");
        assert_eq!(d.label, m.label);
        assert_eq!(d.kernel.as_deref(), Some("hoist_indirect"));
        assert_eq!(d.passed_stage, None, "no cascade stage passes");
        assert!(
            !d.stages.is_empty() && d.stages.iter().all(|s| s.verdict != Some(true)),
            "stage reports must show the failing cascade: {:?}",
            d.stages
        );
        // Its fission plan holds a statically sequential fragment, so
        // the loop is distributed without the exact test, which would
        // only find the dependence that fragment carries.
        assert_eq!(d.exact_test, None, "distributed without the exact test");
        let f = d.fission.as_ref().expect("fission rescue plan");
        assert_eq!(f.fragments.len(), 2);
        assert_eq!(f.fragments.iter().filter(|fr| fr.parallel).count(), 1);
        let frac = f.rescued_fraction();
        assert!(
            (frac - 0.5).abs() < 0.02,
            "rescued fraction {frac} should be ~0.50"
        );
        // The rendered report carries the same story.
        let text = session.explain("hoist_indirect").expect("explain text");
        assert!(text.contains(&m.label), "{text}");
        // An off-session records nothing.
        assert!(Session::default().explain("hoist_indirect").is_none());

        // Without fission, the exact test runs and finds it.
        let whole = Session::builder()
            .observer(lip_obs::ObsLevel::Trace)
            .fission(false)
            .build();
        measure_loop(&whole, &crate::kernels::HOIST_INDIRECT, 64, 0.1, "-");
        let d = whole.explain_decision("hoist_indirect").expect("decision");
        assert_eq!(d.exact_test, Some(false), "exact test finds dependences");
        let why = d.plan.sequential_reason.as_deref();
        assert_eq!(why, Some("its tests failed"));
    }

    #[test]
    fn benchmark_speedups_have_paper_shape() {
        // swim: fully static-parallel — near-linear speedup; the
        // baseline matches (its loops are affine).
        let swim = bench_def::SPEC2006
            .iter()
            .find(|b| b.name == "swim")
            .expect("swim");
        let t = measure_benchmark(&Session::default(), swim);
        let seq = t.seq_units() as f64;
        let p8 = t.par_units(8, 2000) as f64;
        assert!(seq / p8 > 4.0, "swim 8-proc speedup {}", seq / p8);

        // ocean: SC = 0.65 caps the speedup hard (Amdahl), and the
        // factorization must beat the baseline (FTRVMT needs the O(1)
        // predicate the baseline lacks).
        let ocean = bench_def::PERFECT_CLUB
            .iter()
            .find(|b| b.name == "ocean")
            .expect("ocean");
        let t = measure_benchmark(&Session::default(), ocean);
        let seq = t.seq_units() as f64;
        let ours = t.par_units(4, 2000) as f64;
        let base = t.baseline_units(4, 2000) as f64;
        assert!(seq / ours < 2.0, "ocean speedup {}", seq / ours);
        assert!(ours < base, "factorization {ours} vs baseline {base}");
    }

    #[test]
    fn rt_overhead_is_small_for_predicated_benchmarks() {
        let trfd = bench_def::PERFECT_CLUB
            .iter()
            .find(|b| b.name == "trfd")
            .expect("trfd");
        let t = measure_benchmark(&Session::default(), trfd);
        let rtov = t.rt_overhead(4, 2000);
        assert!(rtov < 0.08, "trfd RTov {rtov}");
    }
}

#[cfg(test)]
mod shape_report {
    use super::*;

    /// Diagnostic: prints the classification of every kernel shape
    /// (run with `--nocapture` to inspect).
    #[test]
    fn report_all_shapes() {
        for shape in crate::kernels::all_shapes() {
            let m = measure_loop(&Session::default(), shape, 64, 0.3, "-");
            println!(
                "{:<18} class={:?} parallel={} baseline={} test_units={} seq={}",
                shape.name,
                m.class,
                m.parallel,
                m.baseline_parallel,
                m.test_units,
                m.seq_units()
            );
        }
    }
}

#[cfg(test)]
mod solvh_debug {
    use super::*;
    use lip_analysis::ArrayPlan;
    use lip_ir::StoreCtx;
    use lip_symbolic::sym;

    #[test]
    fn solvh_cascade_details() {
        let shape = &crate::kernels::SOLVH;
        let p = shape.prepared(16);
        let prog = p.machine.program().clone();
        let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
        let analysis = Session::default()
            .analyze(&prog, sub.name, p.label)
            .expect("a");
        let ctx = StoreCtx(&p.frame);
        for (k, st) in analysis.cascade.stages.iter().enumerate() {
            println!(
                "stage {k} (cx {}): eval={:?} ({} leaves)",
                st.complexity,
                st.pred.eval(&ctx, 1_000_000),
                st.pred.leaf_count()
            );
        }
        if let Some(u) = &analysis.ind_usr {
            let r = lip_usr::exact::independent(u, &ctx, 1_000_000);
            println!("exact test: {:?} in {} units", r.verdict, r.units);
        } else {
            println!("no ind_usr");
        }
        for (a, plan) in &analysis.arrays {
            let kind = match plan {
                ArrayPlan::ReadOnly => "read-only",
                ArrayPlan::Independent => "independent",
                ArrayPlan::Predicated(_) => "predicated",
                ArrayPlan::Privatized { .. } => "privatized",
                ArrayPlan::Reduction { .. } => "reduction",
                ArrayPlan::Fallback(_) => "fallback",
            };
            println!("array {a}: {kind}");
        }
    }
}
