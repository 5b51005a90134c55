//! Per-layer probes: each public layer call timed from outside, on the
//! workload's own programs and base inputs.
//!
//! A metric aggregates its per-program medians the way the end-to-end
//! `op_ms_geomean` does — a geometric mean over the programs the probe
//! applies to — so a layer's share can be read against it. Counts are
//! sums over programs and must repeat exactly from run to run.

use std::time::{Duration, Instant};

use crate::adapter::{self, Observe};
use crate::stats::{geomean, median};
use crate::workload::{Bench, Row};

/// One per-layer metric: name, unit, value (`None` = the workload has
/// nothing this probe applies to).
pub type Metric = (&'static str, &'static str, Option<f64>);

/// Repeats `f` on fresh `prep()` output until `limit` is used up or
/// `max` samples exist (always at least one). Returns µs per call;
/// `prep` runs outside the clock.
fn reps<T>(
    limit: Duration,
    max: usize,
    mut prep: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || (out.len() < max && start.elapsed() < limit) {
        let input = prep();
        let t = Instant::now();
        f(input);
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

fn med(samples: &[f64]) -> f64 {
    median(samples).expect("reps returns at least one sample")
}

/// Geomean of the values present; `None` when there are none.
fn geo(values: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    geomean(&present)
}

/// Distinct programs of the bench: the first row of each kernel.
fn programs(bench: &Bench) -> Vec<&Row> {
    let mut seen: Vec<&str> = Vec::new();
    bench
        .rows
        .iter()
        .filter(|r| {
            let new = !seen.contains(&r.spec.kernel);
            seen.push(r.spec.kernel);
            new
        })
        .collect()
}

/// The row LRPD and the inspector are timed on: `tls_feedback` where
/// the workload has it (the kernel that speculates), else the first DO
/// loop.
fn speculation_row(bench: &Bench) -> Option<&Row> {
    bench
        .rows
        .iter()
        .find(|r| r.spec.kernel == "tls_feedback")
        .or_else(|| {
            bench
                .rows
                .iter()
                .find(|r| adapter::is_do_loop(&r.program.loaded))
        })
}

const REDUCTION_KERNELS: [&str; 4] = [
    "index_reduction",
    "ext_reduction",
    "static_reduction",
    "int_histogram",
];

/// The largest array a reduction kernel of the workload merges (or the
/// largest array at all, when it has no reduction kernel).
fn merge_len(bench: &Bench) -> usize {
    let largest = |rows: &mut dyn Iterator<Item = &Row>| {
        rows.flat_map(|r| r.base.input.arrays.iter().map(|a| a.data.len()))
            .max()
    };
    largest(
        &mut bench
            .rows
            .iter()
            .filter(|r| REDUCTION_KERNELS.contains(&r.spec.kernel)),
    )
    .or_else(|| largest(&mut bench.rows.iter()))
    .unwrap_or(1)
}

/// Runs every probe within roughly `budget`. `op_ms` is each row's
/// untraced median operation time (ms), for `runtime.speedup_net`.
pub fn probe(
    bench: &Bench,
    op_ms: &[Option<f64>],
    budget: Duration,
) -> Result<Vec<Metric>, String> {
    let rows = &bench.rows;
    let progs = programs(bench);
    // Fourteen timed probes share the budget, row by row.
    let slice = budget / (14 * rows.len().max(1)) as u32;
    let nt = bench.nthreads;
    let mut m: Vec<Metric> = Vec::new();

    // lip_ir
    let parse: Vec<f64> = progs
        .iter()
        .map(|r| {
            med(&reps(
                slice,
                200,
                || (),
                |()| {
                    std::hint::black_box(adapter::parse(r.program.kernel.source).is_ok());
                },
            ))
        })
        .collect();
    let bytes: usize = progs.iter().map(|r| r.program.kernel.source.len()).sum();
    m.push(("ir.parse_us", "us", geomean(&parse)));
    m.push((
        "ir.src_bytes_per_s",
        "1/s",
        Some(bytes as f64 / (parse.iter().sum::<f64>() / 1e6)),
    ));
    m.push((
        "ir.interp_seq_ms",
        "ms",
        geomean(&rows.iter().map(|r| r.interp_ms).collect::<Vec<_>>()),
    ));

    // lip_analysis + lip_core
    let off = adapter::session(nt, Observe::Off);
    // Set-up already timed one `analyze` per program (solvh alone
    // takes ~0.5 s); more samples are taken only while time remains.
    let analyze: Vec<f64> = progs
        .iter()
        .map(|r| {
            let mut samples = vec![r.program.analyze_us];
            let start = Instant::now();
            while samples.len() < 20
                && start.elapsed() + Duration::from_secs_f64(r.program.analyze_us / 1e6) < slice
            {
                let t = Instant::now();
                std::hint::black_box(adapter::analyze(&off, &r.program.loaded).is_ok());
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
            med(&samples)
        })
        .collect();
    m.push(("analysis.analyze_us", "us", geomean(&analyze)));
    m.push((
        "analysis.usr_nodes",
        "count",
        Some(
            progs
                .iter()
                .map(|r| adapter::usr_nodes(&r.program.analysis))
                .sum::<u64>() as f64,
        ),
    ));
    for (class, metric) in adapter::CLASSES {
        let n = progs
            .iter()
            .filter(|r| adapter::class_name(&r.program.analysis) == class)
            .count();
        m.push((metric, "count", Some(n as f64)));
    }
    let factor: Vec<Option<f64>> = progs
        .iter()
        .map(|r| {
            adapter::factor(&r.program.analysis)?;
            Some(med(&reps(
                slice,
                50,
                || (),
                |()| {
                    std::hint::black_box(adapter::factor(&r.program.analysis));
                },
            )))
        })
        .collect();
    m.push(("core.factor_us", "us", geo(&factor)));
    let shapes: Vec<(u64, u64)> = progs
        .iter()
        .map(|r| adapter::cascade_shape(&r.program.analysis))
        .collect();
    m.push((
        "core.cascade_stages",
        "count",
        Some(shapes.iter().map(|s| s.0).sum::<u64>() as f64),
    ));
    m.push((
        "core.pdag_leaves",
        "count",
        Some(shapes.iter().map(|s| s.1).sum::<u64>() as f64),
    ));

    // lip_vm: compile, peephole, static stream sizes
    let mut compile = Vec::new();
    let mut peephole = Vec::new();
    let (mut unfused, mut fused) = (0u64, 0u64);
    for r in &progs {
        compile.push(med(&reps(
            slice,
            100,
            || (),
            |()| {
                std::hint::black_box(adapter::vm_compile(&r.program.loaded).is_ok());
            },
        )));
        let mut last = None;
        peephole.push(med(&reps(
            slice,
            100,
            || adapter::vm_compile(&r.program.loaded).expect("compiled above"),
            |mut c| {
                adapter::vm_fuse(&mut c);
                last = Some(c);
            },
        )));
        unfused += adapter::vm_ops(&adapter::vm_compile(&r.program.loaded)?);
        fused += adapter::vm_ops(&last.expect("reps ran once"));
    }
    m.push(("vm.compile_us", "us", geomean(&compile)));
    m.push(("vm.peephole_us", "us", geomean(&peephole)));
    m.push(("vm.ops_unfused", "count", Some(unfused as f64)));
    m.push(("vm.ops_fused", "count", Some(fused as f64)));

    // lip_vm: plain sequential execution of every row's base input
    let mut seq_ms = Vec::new();
    let (mut seq_us_total, mut seq_units) = (0.0, 0u64);
    for r in rows {
        let mut compiled = adapter::vm_compile(&r.program.loaded)?;
        adapter::vm_fuse(&mut compiled);
        let mut units = 0;
        let us = med(&reps(
            slice,
            30,
            || adapter::store_from(&r.base.input),
            |mut frame| {
                units = adapter::vm_run_seq(&compiled, &r.program.loaded, &mut frame).unwrap_or(0)
            },
        ));
        seq_ms.push(us / 1e3);
        seq_us_total += us;
        seq_units += units;
    }
    m.push(("vm.seq_exec_ms", "ms", geomean(&seq_ms)));
    m.push((
        "vm.ns_per_unit",
        "ns",
        (seq_units > 0).then(|| seq_us_total * 1e3 / seq_units as f64),
    ));
    let speedups: Vec<Option<f64>> = seq_ms
        .iter()
        .zip(op_ms)
        .map(|(s, o)| o.map(|o| s / o))
        .collect();
    m.push(("runtime.speedup_net", "ratio", geo(&speedups)));

    // lip_pred
    let mut pred_compile = Vec::new();
    let mut pred_eval = Vec::new();
    let mut fingerprint = Vec::new();
    let mut failed_stages = 0u64;
    for r in rows {
        let stages = adapter::pred_compile(&r.program.analysis);
        if stages.is_empty() {
            continue;
        }
        pred_compile.push(med(&reps(
            slice,
            100,
            || (),
            |()| {
                std::hint::black_box(adapter::pred_compile(&r.program.analysis).len());
            },
        )));
        // The cascade reads CIV traces when the loop has them.
        let mut frame = adapter::store_from(&r.base.input);
        if adapter::has_civ_slice(&r.program.loaded, &r.program.analysis) {
            adapter::civ_slice(&off, &r.program.loaded, &r.program.analysis, &mut frame)?;
        }
        let mut verdict = (None, 0);
        pred_eval.push(med(&reps(
            slice,
            30,
            || (),
            |()| verdict = adapter::pred_eval(&stages, &frame, nt),
        )));
        failed_stages += verdict.1;
        fingerprint.push(med(&reps(
            slice,
            100,
            || (),
            |()| {
                std::hint::black_box(adapter::fingerprint(&stages, &frame));
            },
        )));
    }
    m.push(("pred.compile_us", "us", geomean(&pred_compile)));
    m.push(("pred.eval_us", "us", geomean(&pred_eval)));
    m.push((
        "pred.first_failed_stage",
        "count",
        Some(failed_stages as f64),
    ));
    m.push(("runtime.fingerprint_us", "us", geomean(&fingerprint)));

    // lip_runtime: fork/join, thread scaling, merge, slices, exact tests
    m.push((
        "runtime.fork_join_us",
        "us",
        median(&reps(
            slice * rows.len() as u32,
            300,
            || (),
            |()| adapter::fork_join(nt),
        )),
    ));
    let one = adapter::session(1, Observe::Off);
    let mut nt1 = Vec::new();
    let mut scaling = Vec::new();
    let mut cold = Vec::new();
    for r in rows {
        let time = |session: &lip_runtime::Session| {
            med(&reps(
                slice,
                30,
                || adapter::store_from(&r.base.input),
                |mut frame| {
                    std::hint::black_box(
                        adapter::run_loop(
                            session,
                            &r.program.loaded,
                            &r.program.analysis,
                            &mut frame,
                        )
                        .is_ok(),
                    );
                },
            ))
        };
        // First run in a fresh session (compiles, fills caches) against
        // the warm runs that follow in the same session.
        let fresh = adapter::session(nt, Observe::Off);
        let mut frame = adapter::store_from(&r.base.input);
        let t = Instant::now();
        adapter::run_loop(&fresh, &r.program.loaded, &r.program.analysis, &mut frame)?;
        let first_us = t.elapsed().as_secs_f64() * 1e6;
        let warm_us = time(&fresh);
        cold.push((first_us > warm_us).then_some(first_us - warm_us));
        adapter::run_loop(
            &one,
            &r.program.loaded,
            &r.program.analysis,
            &mut adapter::store_from(&r.base.input),
        )?;
        let nt1_us = time(&one);
        nt1.push(nt1_us);
        scaling.push(Some(nt1_us / warm_us));
    }
    m.push(("runtime.run_nt1_us", "us", geomean(&nt1)));
    m.push(("runtime.thread_scaling", "ratio", geo(&scaling)));
    m.push(("runtime.cache_cold_us", "us", geo(&cold)));
    let (shared, private) = adapter::merge_buffers(merge_len(bench));
    m.push((
        "runtime.merge_us",
        "us",
        median(&reps(
            slice * rows.len() as u32,
            100,
            || (),
            |()| adapter::merge(&shared, &private),
        )),
    ));
    let civ: Vec<Option<f64>> = rows
        .iter()
        .map(|r| {
            adapter::has_civ_slice(&r.program.loaded, &r.program.analysis).then(|| {
                med(&reps(
                    slice,
                    30,
                    || adapter::store_from(&r.base.input),
                    |mut frame| {
                        std::hint::black_box(
                            adapter::civ_slice(
                                &off,
                                &r.program.loaded,
                                &r.program.analysis,
                                &mut frame,
                            )
                            .is_ok(),
                        );
                    },
                ))
            })
        })
        .collect();
    m.push(("runtime.civ_slice_us", "us", geo(&civ)));
    let spec_row = speculation_row(bench);
    let spec_slice = slice * rows.len() as u32;
    m.push((
        "runtime.lrpd_us",
        "us",
        spec_row.map(|r| {
            med(&reps(
                spec_slice,
                20,
                || adapter::store_from(&r.base.input),
                |frame| {
                    std::hint::black_box(
                        adapter::lrpd(&off, &r.program.loaded, &r.program.analysis, &frame).is_ok(),
                    );
                },
            ))
        }),
    ));
    m.push((
        "runtime.exact_test_us",
        "us",
        spec_row.map(|r| {
            med(&reps(
                spec_slice,
                20,
                || adapter::store_from(&r.base.input),
                |frame| {
                    std::hint::black_box(
                        adapter::inspect(&r.program.loaded, &r.program.analysis, &frame).is_ok(),
                    );
                },
            ))
        }),
    ));
    Ok(m)
}

/// Count metrics read off the rows of a finished pass: what each base
/// input's run reported. Deterministic: they depend on the inputs, not
/// on how many rounds fit in the time.
pub fn row_counts(bench: &Bench) -> Vec<Metric> {
    let ran: Vec<_> = bench.rows.iter().filter_map(|r| r.ran.as_ref()).collect();
    let mut m: Vec<Metric> = adapter::OUTCOMES
        .iter()
        .map(|(outcome, metric)| {
            let n = ran.iter().filter(|r| r.outcome == *outcome).count();
            (*metric, "count", Some(n as f64))
        })
        .collect();
    let test: u64 = ran.iter().map(|r| r.test_units).sum();
    let work: u64 = ran.iter().map(|r| r.loop_units).sum();
    m.push((
        "runtime.test_over_loop_units",
        "ratio",
        (work > 0).then(|| test as f64 / work as f64),
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_runs_at_least_once_and_respects_max() {
        let mut calls = 0;
        let one = reps(Duration::ZERO, 10, || (), |()| calls += 1);
        assert_eq!((one.len(), calls), (1, 1));
        let three = reps(Duration::from_secs(60), 3, || 2, |x| assert_eq!(x, 2));
        assert_eq!(three.len(), 3);
    }

    #[test]
    fn geo_skips_missing_values() {
        assert_eq!(geo(&[None, None]), None);
        let g = geo(&[Some(4.0), None, Some(9.0)]).expect("two present");
        assert!((g - 6.0).abs() < 1e-9);
    }
}
