//! Whole-benchmark measurement over the cost-model simulator.
//!
//! For each representative loop: analyze (hybrid + baseline), run the
//! runtime tests against the prepared workload, measure per-iteration
//! costs once, and derive parallel makespans for any processor count.
//! Whole-benchmark times add the unmeasured remainder `(1−SC)` as
//! sequential work (Amdahl), scaled from the measured loops.

use std::rc::Rc;

use lip_analysis::{baseline_parallel, LoopAnalysis, LoopClass};
use lip_obs::{FissionReport, LoopDecision, StageReport};
use lip_runtime::sim::{charged_test_units, makespan};
use lip_runtime::{exact_report, InputDigests, KeyCost, Session};
use lip_symbolic::sym;
use lip_usr::Exact;

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

/// Accounts a fission rescue plan for the explain report: runs the
/// fragments in program order on a fresh workload, loaded afresh (each
/// fragment's cascade is tested against the store state its execution
/// would see, exactly as the fissioned executor does) and tallies the
/// work units a parallel fragment rescues.
fn account_fission(
    session: &Session,
    shape: &'static KernelShape,
    size: usize,
    analysis: &LoopAnalysis,
) -> FissionReport {
    let mut fw = shape.prepared(size);
    let whole = session
        .load(fw.machine.program().clone())
        .prepare_analyzed(sym(fw.sub), fw.label, Rc::new(analysis.clone()))
        .expect("loop");
    let mut fragments = Vec::new();
    let mut rescued_units = 0u64;
    let mut loop_units = 0u64;
    for frag in whole.analysis().fission.iter().flat_map(|p| &p.fragments) {
        // The executor's own per-fragment decision (a fresh digest
        // table per fragment, as there), stage reports kept.
        let mut keys = KeyCost::default();
        let mut inputs = InputDigests::new(&fw.frame, &mut keys);
        let tests = whole.fragment_tests(frag, &mut inputs, true);
        let units: u64 = whole
            .fragment_costs(frag, &mut fw.frame)
            .map(|v| v.iter().sum())
            .unwrap_or(0);
        loop_units += units;
        if tests.parallel {
            rescued_units += units;
        }
        let (parallel, test_units) = (tests.parallel, tests.units);
        fragments.push(tests.report(frag, fragments.len(), parallel, units, test_units));
    }
    FissionReport {
        fragments,
        rescued_units,
        loop_units,
    }
}

/// Measures one loop of a benchmark through `session`.
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

    // Runtime tests on the live workload.
    let mut test_units = handle.civ_traces(&mut p.frame).expect("civ slice");
    let obs_on = session.obs().trace_enabled();
    let mut stages: Vec<StageReport> = Vec::new();
    let mut passed_stage: Option<usize> = None;
    let mut exact: Option<(Exact, bool)> = None;
    let mut tls_speculated = false;
    let parallel = match &analysis.class {
        LoopClass::StaticParallel => true,
        LoopClass::StaticSequential => false,
        LoopClass::Predicated { .. } => {
            let mut keys = KeyCost::default();
            let mut inputs = InputDigests::new(&p.frame, &mut keys);
            // Stage reports are for `Session::explain`; verdicts and
            // charged units are the same with and without them.
            let report = obs_on.then_some(&mut stages);
            let (hit, units) = handle.cascade_test(&mut inputs, report);
            test_units += units;
            passed_stage = hit;
            let mut passed = hit.is_some();
            if !passed && analysis.ind_usr.is_some() {
                // The paper's last resort: exact (hoisted) USR
                // evaluation, then TLS (§5). It costs the units the
                // evaluation counts, whatever it finds, as in the
                // executor; across invocations it is memoized (§7's
                // apsi discussion).
                let (found, memo_hit) = handle.exact_test(&mut inputs);
                test_units += found.units;
                exact = Some((found, memo_hit));
                match found.verdict {
                    Some(independent) => passed = independent,
                    None => {
                        // Not evaluable: thread-level speculation.
                        // LRPD commits on independent workloads at
                        // the cost of shadowing every reference.
                        tls_speculated = true;
                        passed = true;
                    }
                }
            }
            passed
        }
        // Fallbacks (HOIST-USR / TLS) extract maximal parallelism at a
        // cost proportional to the loop's references (paper §7): model
        // as parallel with a test as expensive as one sequential pass.
        LoopClass::NeedsFallback(_) => true,
        // Fissioned loops are partial wins: the tables' PAR/SEQ column
        // stays conservative (SEQ) here; `Session::explain` reports
        // the rescued fraction per fragment.
        LoopClass::Fissioned { .. } => false,
    };

    let per_iter = handle.per_iteration_costs(&mut p.frame).expect("measure");
    if tls_speculated {
        test_units += per_iter.iter().sum::<u64>() / 4;
    }
    if let LoopClass::NeedsFallback(kind) = &analysis.class {
        // TLS shadows every reference (expensive); hoisted USR
        // evaluation amortizes across loop invocations (paper: apsi's
        // RUN loops are hoisted and memoized).
        let seq: u64 = per_iter.iter().sum();
        test_units += match kind {
            lip_analysis::FallbackKind::Tls => seq / 4,
            lip_analysis::FallbackKind::HoistUsr => seq / 20,
        };
    }

    if obs_on {
        let executor = match (&analysis.class, parallel) {
            (LoopClass::StaticParallel, _) => "parallel (static)".to_string(),
            (LoopClass::Predicated { .. }, true) => match passed_stage {
                Some(k) => format!("parallel (stage {k} passed)"),
                None if exact.is_some_and(|(e, _)| e.verdict == Some(true)) => {
                    "parallel (exact test passed)".to_string()
                }
                None => "speculated (modelled)".to_string(),
            },
            (LoopClass::NeedsFallback(_), _) => "parallel (fallback, modelled)".to_string(),
            (LoopClass::Fissioned { .. }, _) => "fissioned (modelled)".to_string(),
            _ => "sequential".to_string(),
        };
        let mut d = LoopDecision::new(&analysis.label);
        d.kernel = Some(shape.name.to_string());
        d.class = format!("{:?}", analysis.class);
        d.stages = stages;
        d.passed_stage = passed_stage;
        (d.exact_test, d.exact_units, d.exact_memo_hit) = exact_report(exact);
        d.executor = executor;
        d.test_units = test_units;
        d.loop_units = per_iter.iter().sum();
        // A fission plan only matters when the whole loop did not go
        // parallel: it is the rescue the executor would apply.
        if !parallel {
            d.fission = analysis
                .fission
                .is_some()
                .then(|| account_fission(session, shape, size, analysis));
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
        assert_eq!(d.exact_test, Some(false), "exact test finds dependences");
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
