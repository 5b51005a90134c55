//! Emits `BENCH_vm.json`: wall-clock and work-unit figures for the hot
//! suite kernels under both execution backends, unfused vs
//! peephole-fused bytecode dispatch (`fused_results` — the
//! superinstruction pass win, with op counts), merge-phase timings for
//! buffered reductions (`reduction_results` — the corrected
//! element-wise boxed merge vs the typed flat-slice kernels the
//! executor runs, per operator and element type), per-kernel
//! predicate-evaluation timings for the O(N) cascade stages (tree-walk
//! `Pdag::eval` vs the compiled `lip_pred` engine, sequential and
//! chunk-parallel, with the index of the first failing stage),
//! loop-fission rescue figures (`fission_results` — fraction of work
//! units rescued into parallel fragments and wall-clock vs the fully
//! sequential `fission(false)` leg), cold-vs-warm `Session`
//! timings (cache reuse across `run_many`), a self-describing `meta`
//! block (schema version + seam configuration), and an `obs_results`
//! block: per-kernel decision reports recorded by an observer session
//! (the JSON twin of `Session::explain`) plus no-op recorder overhead
//! rows asserting the observability substrate stays under 2% on the
//! hot kernels. The perf trajectory
//! stays machine-readable across PRs. Backends are pinned by building sessions — nothing here
//! reads or mutates the `LIP_*` environment.
//!
//! ```sh
//! cargo run --release -p lip_bench --bin bench_vm   # writes ./BENCH_vm.json
//! LIP_BENCH_MS=20 cargo run --release -p lip_bench --bin bench_vm
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lip_analysis::{analyze_loop, AnalysisConfig};
use lip_ir::{ArrayBuf, BinOp, ExecState, StoreCtx, Ty};
use lip_obs::{NoopRecorder, ObsLevel};
use lip_pred::{compile_pred, eval_compiled, EvalParams};
use lip_runtime::{LoopJob, Session};
use lip_suite::KernelShape;
use lip_symbolic::sym;

/// Schema version of `BENCH_vm.json` (bumped when blocks or fields
/// change meaning: v2 added the `meta` and `obs_results` blocks and
/// made `pred_results.failed_stage` nullable with a `passed_stage`
/// companion; v3 added the `reduction_results` merge-phase block —
/// boxed element-wise vs typed flat-slice merge kernels; v4 dropped
/// `meta.backend` / `pred` / `opt_level` with the seams they named).
const SCHEMA_VERSION: u32 = 4;

struct Row {
    kernel: &'static str,
    backend: &'static str,
    wall_ns: f64,
    work_units: u64,
    speedup_vs_treewalk: f64,
}

fn sample_budget() -> Duration {
    let ms = std::env::var("LIP_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(200);
    Duration::from_millis(ms.max(1))
}

/// Times `run` adaptively: calibrate, then fill the sample budget.
fn time_ns(mut run: impl FnMut() -> u64) -> (f64, u64) {
    let calib = Instant::now();
    let mut units = 0;
    let mut calib_iters = 0u64;
    while calib.elapsed() < Duration::from_millis(5) && calib_iters < 1_000 {
        units = run();
        calib_iters += 1;
    }
    let per_iter = calib.elapsed().as_secs_f64() / calib_iters as f64;
    let n = ((sample_budget().as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let start = Instant::now();
    for _ in 0..n {
        units = run();
    }
    (start.elapsed().as_nanos() as f64 / n as f64, units)
}

fn measure(shape: &'static KernelShape, n: usize) -> (Row, Row) {
    let mut p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();

    let (tw_ns, tw_units) = time_ns(|| {
        let mut st = ExecState::default();
        p.machine
            .exec_stmt(&sub, &mut p.frame, &target, &mut st)
            .expect("interp");
        st.cost
    });

    let q = shape.prepared(n);
    let mut compiled = lip_vm::compile_program(&prog).expect("compiles");
    let block = lip_vm::add_block(&mut compiled, &sub, std::slice::from_ref(&target), &[])
        .expect("block compiles");
    let vm = lip_vm::Vm::for_machine(&compiled, &q.machine);
    let mut frame = lip_vm::Frame::for_chunk(&compiled.block(block).chunk, &q.frame);
    let (vm_ns, vm_units) = time_ns(|| {
        let mut st = ExecState::default();
        vm.run_block(block, &mut frame, &mut st, None).expect("vm");
        st.cost
    });
    assert_eq!(tw_units, vm_units, "{}: work units diverged", shape.name);

    (
        Row {
            kernel: shape.name,
            backend: "treewalk",
            wall_ns: tw_ns,
            work_units: tw_units,
            speedup_vs_treewalk: 1.0,
        },
        Row {
            kernel: shape.name,
            backend: "bytecode",
            wall_ns: vm_ns,
            work_units: vm_units,
            speedup_vs_treewalk: tw_ns / vm_ns,
        },
    )
}

struct FusedRow {
    kernel: &'static str,
    unfused_wall_ns: f64,
    fused_wall_ns: f64,
    speedup_vs_unfused: f64,
    ops_unfused: usize,
    ops_fused: usize,
}

/// Times the kernel's target loop block on raw bytecode vs the
/// peephole-fused stream (the superinstruction pass), asserting
/// identical work units. The op counts record how far the stream
/// shrank — the dispatch-count reduction the wall-clock win comes
/// from. Unlike the backend rows, the two streams here differ by tens
/// of percent, not integer factors, so they are timed *interleaved*
/// (alternating rounds, best round per stream) to cancel machine
/// drift.
fn measure_fused(shape: &'static KernelShape, n: usize) -> FusedRow {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();

    struct Stream {
        compiled: lip_vm::CompiledProgram,
        block: lip_vm::BlockId,
        frame: lip_vm::Frame,
        machine: lip_ir::Machine,
        nops: usize,
    }
    let build = |fuse: bool| {
        let q = shape.prepared(n);
        let mut compiled = lip_vm::compile_program(&prog).expect("compiles");
        let block = lip_vm::add_block(&mut compiled, &sub, std::slice::from_ref(&target), &[])
            .expect("block compiles");
        if fuse {
            lip_vm::optimize_block(&mut compiled, block);
        }
        let nops = compiled.block(block).chunk.ops.len();
        let frame = lip_vm::Frame::for_chunk(&compiled.block(block).chunk, &q.frame);
        Stream {
            compiled,
            block,
            frame,
            machine: q.machine,
            nops,
        }
    };
    let mut unfused = build(false);
    let mut fused = build(true);
    let run = |s: &mut Stream| {
        let vm = lip_vm::Vm::for_machine(&s.compiled, &s.machine);
        let mut st = ExecState::default();
        vm.run_block(s.block, &mut s.frame, &mut st, None)
            .expect("vm");
        st.cost
    };
    let unfused_units = run(&mut unfused);
    let fused_units = run(&mut fused);
    assert_eq!(
        unfused_units, fused_units,
        "{}: fused work units diverged",
        shape.name
    );

    // Calibrate on the unfused stream, then alternate fixed-size
    // rounds and keep each stream's best round.
    let calib = Instant::now();
    let mut calib_iters = 0u64;
    while calib.elapsed() < Duration::from_millis(5) && calib_iters < 1_000 {
        run(&mut unfused);
        calib_iters += 1;
    }
    let per_iter = calib.elapsed().as_secs_f64() / calib_iters as f64;
    let rounds = 15u32;
    let per_round = sample_budget().as_secs_f64() / f64::from(2 * rounds);
    let iters = ((per_round / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut best = [f64::INFINITY; 2];
    for round in 0..rounds {
        // Alternate which stream goes first so a monotone frequency
        // drift cannot systematically favor one of them.
        let mut order = [(0usize, &mut unfused), (1usize, &mut fused)];
        if round % 2 == 1 {
            order.swap(0, 1);
        }
        for (slot, s) in order {
            let start = Instant::now();
            for _ in 0..iters {
                run(s);
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            best[slot] = best[slot].min(ns);
        }
    }
    FusedRow {
        kernel: shape.name,
        unfused_wall_ns: best[0],
        fused_wall_ns: best[1],
        speedup_vs_unfused: best[0] / best[1],
        ops_unfused: unfused.nops,
        ops_fused: fused.nops,
    }
}

struct ReductionRow {
    kernel: String,
    elems: usize,
    op: &'static str,
    ty: &'static str,
    boxed_wall_ns: f64,
    simd_wall_ns: f64,
    speedup_vs_boxed: f64,
}

/// Times the merge phase of a buffered reduction — one thread's
/// private buffer folded into the shared array — under the corrected
/// element-wise boxed reference (`merge_into_boxed`, one
/// `Value`-dispatch per element) vs the typed flat-slice kernel
/// (`merge_into`, the path the executor runs). The private buffer is
/// the operator's identity, so every iteration performs identical work
/// while the shared values stay fixed; like the fusion rows the gap is
/// tens of percent to integer factors, so the two legs are timed
/// interleaved, best round each.
fn measure_reduction_merge(ty: Ty, op: BinOp, elems: usize) -> ReductionRow {
    use lip_runtime::{identity_buf, merge_into, merge_into_boxed};
    let shared = match ty {
        Ty::Int => ArrayBuf::from_i64(
            &(0..elems)
                .map(|k| (1i64 << 61) + k as i64)
                .collect::<Vec<_>>(),
        ),
        Ty::Real => {
            ArrayBuf::from_f64(&(0..elems).map(|k| k as f64 * 0.5 + 1.0).collect::<Vec<_>>())
        }
    };
    let private = identity_buf(&shared, op);

    let calib = Instant::now();
    let mut calib_iters = 0u64;
    while calib.elapsed() < Duration::from_millis(5) && calib_iters < 1_000 {
        merge_into(&shared, &private, op);
        calib_iters += 1;
    }
    let per_iter = calib.elapsed().as_secs_f64() / calib_iters as f64;
    let rounds = 15u32;
    let per_round = sample_budget().as_secs_f64() / f64::from(2 * rounds);
    let iters = ((per_round / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut best = [f64::INFINITY; 2];
    for round in 0..rounds {
        let mut order = [0usize, 1];
        if round % 2 == 1 {
            order.swap(0, 1);
        }
        for slot in order {
            let start = Instant::now();
            for _ in 0..iters {
                if slot == 0 {
                    merge_into_boxed(&shared, &private, op);
                } else {
                    merge_into(&shared, &private, op);
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            best[slot] = best[slot].min(ns);
        }
    }
    let op_name = match op {
        BinOp::Mul => "mul",
        BinOp::Lt => "min",
        BinOp::Gt => "max",
        _ => "add",
    };
    let ty_name = match ty {
        Ty::Int => "int",
        Ty::Real => "real",
    };
    ReductionRow {
        kernel: format!("merge_{ty_name}_{op_name}"),
        elems,
        op: op_name,
        ty: ty_name,
        boxed_wall_ns: best[0],
        simd_wall_ns: best[1],
        speedup_vs_boxed: best[0] / best[1],
    }
}

struct PredRow {
    kernel: &'static str,
    stage_complexity: u32,
    backend: &'static str,
    wall_ns: f64,
    speedup_vs_treewalk: f64,
    verdict: &'static str,
    /// Index of the first cascade stage that *passes* on the prepared
    /// workload (`None` = no stage passes — the cascade's stages are
    /// alternatives, so one pass parallelizes the loop).
    passed_stage: Option<usize>,
    /// Index of the first failing stage **when the whole cascade
    /// fails** — `None` whenever some stage passes, so "passed" and
    /// "failed at stage 0" are distinguishable in the JSON. Recorded
    /// so CI can catch silent verdict regressions and attribute
    /// fission rescues to the stage that forced them.
    failed_stage: Option<usize>,
}

fn verdict_str(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "pass",
        Some(false) => "fail",
        None => "unknown",
    }
}

/// Times the kernel's most expensive cascade stage (the O(N) test)
/// under the three evaluation modes, asserting identical verdicts.
///
/// The stage comes from the whole loop's cascade when that cascade has
/// a quantified stage; a *fissioned* loop keeps an empty whole-loop
/// cascade (it was provably dependent as a unit), so its runtime tests
/// live on the fragments — we then time the richest fragment cascade
/// instead, which is also where `failed_stage` must point for the
/// rescue to be attributable.
fn measure_pred(shape: &'static KernelShape, n: usize) -> Vec<PredRow> {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let analysis =
        analyze_loop(&prog, sub.name, p.label, &AnalysisConfig::default()).expect("analysis");
    fn max_c(c: &lip_core::Cascade) -> u32 {
        c.stages.iter().map(|s| s.complexity).max().unwrap_or(0)
    }
    let stages: &[_] = if max_c(&analysis.cascade) >= 1 {
        &analysis.cascade.stages
    } else {
        let frag = analysis.fission.as_deref().and_then(|plan| {
            plan.fragments
                .iter()
                .map(|f| &f.analysis.cascade)
                .filter(|c| max_c(c) >= 1)
                .max_by_key(|c| max_c(c))
        });
        match frag {
            Some(c) => &c.stages,
            None => return Vec::new(),
        }
    };
    let stage = stages
        .iter()
        .max_by_key(|s| s.complexity)
        .expect("quantified stage");
    let ctx = StoreCtx(&p.frame);
    let limit = 100_000_000u64;
    // The stages are alternatives: the first pass wins the loop, so a
    // "failed stage" is only meaningful when *no* stage passes.
    let passed_stage = stages
        .iter()
        .position(|s| s.pred.eval(&ctx, limit) == Some(true));
    let failed_stage = match passed_stage {
        Some(_) => None,
        None => stages
            .iter()
            .position(|s| s.pred.eval(&ctx, limit) != Some(true)),
    };
    let nthreads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let tree_verdict = stage.pred.eval(&ctx, limit);
    let (tree_ns, _) = time_ns(|| {
        std::hint::black_box(stage.pred.eval(&ctx, limit));
        0
    });
    let compiled = compile_pred(&stage.pred).expect("stage compiles");
    let seq_params = EvalParams {
        nthreads: 1,
        par_min: i64::MAX,
    };
    let par_params = EvalParams {
        nthreads,
        par_min: 512,
    };
    assert_eq!(
        tree_verdict,
        eval_compiled(&compiled, &ctx, limit, seq_params),
        "{}: compiled verdict diverged",
        shape.name
    );
    assert_eq!(
        tree_verdict,
        eval_compiled(&compiled, &ctx, limit, par_params),
        "{}: parallel verdict diverged",
        shape.name
    );
    let (seq_ns, _) = time_ns(|| {
        std::hint::black_box(eval_compiled(&compiled, &ctx, limit, seq_params));
        0
    });
    let (par_ns, _) = time_ns(|| {
        std::hint::black_box(eval_compiled(&compiled, &ctx, limit, par_params));
        0
    });
    let verdict = verdict_str(tree_verdict);
    let row = |backend, wall_ns: f64| PredRow {
        kernel: shape.name,
        stage_complexity: stage.complexity,
        backend,
        wall_ns,
        speedup_vs_treewalk: tree_ns / wall_ns,
        verdict,
        passed_stage,
        failed_stage,
    };
    vec![
        row("treewalk", tree_ns),
        row("compiled", seq_ns),
        row("compiled-par", par_ns),
    ]
}

struct FissionRow {
    kernel: &'static str,
    fragments: usize,
    parallel_fragments: usize,
    rescued_units: u64,
    loop_units: u64,
    rescued_fraction: f64,
    fissioned_wall_ns: f64,
    sequential_wall_ns: f64,
    speedup_vs_sequential: f64,
}

/// Measures the loop-fission rescue on kernels whose analysis carries
/// a fission plan *and* whose fissioned execution actually rescues
/// fragments on the prepared workload: work units spent inside
/// parallel fragments (the rescued fraction of the loop body) and
/// wall-clock fissioned vs fully sequential (`fission(false)` — the
/// classic whole-loop behavior the rescue degrades from). Work-unit
/// totals must agree between the two legs: fission re-orders execution
/// but never changes what the loop computes or charges.
fn measure_fission(shape: &'static KernelShape, n: usize) -> Option<FissionRow> {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let on = Session::builder().fission(true).build();
    let off = Session::builder().fission(false).build();
    let analysis = on.analyze(&prog, sub.name, p.label).expect("analysis");
    analysis.fission.as_ref()?;

    let run_once = |session: &Session| {
        let mut frame = p.frame.clone();
        let stats = session
            .run_many([LoopJob {
                machine: &p.machine,
                sub: &sub,
                target: &target,
                analysis: &analysis,
                frame: &mut frame,
            }])
            .expect("runs");
        stats.into_iter().next().expect("one job")
    };

    let fissioned = run_once(&on);
    let lip_runtime::ExecOutcome::Fissioned {
        fragments,
        parallel,
        rescued_units,
    } = fissioned.outcome
    else {
        return None; // cascade or exact test rescued the whole loop first
    };
    let sequential = run_once(&off);
    assert_eq!(
        fissioned.loop_units, sequential.loop_units,
        "{}: fissioned work units diverged from sequential",
        shape.name
    );
    let (fissioned_wall_ns, _) = time_ns(|| run_once(&on).loop_units);
    let (sequential_wall_ns, _) = time_ns(|| run_once(&off).loop_units);
    Some(FissionRow {
        kernel: shape.name,
        fragments,
        parallel_fragments: parallel,
        rescued_units,
        loop_units: fissioned.loop_units,
        rescued_fraction: rescued_units as f64 / fissioned.loop_units as f64,
        fissioned_wall_ns,
        sequential_wall_ns,
        speedup_vs_sequential: sequential_wall_ns / fissioned_wall_ns,
    })
}

struct ReuseRow {
    kernel: &'static str,
    cold_ns: f64,
    warm_ns: f64,
    cold_over_warm: f64,
}

/// Times one kernel through `Session::run_many` twice over: **cold**
/// (a fresh session per sample — every run pays program compilation,
/// block lowering and predicate compilation) vs **warm** (one
/// persistent session — runs hit the compiled-program cache and the
/// predicate verdict memo). The gap is the caching win a long-lived
/// service keeps by holding one session across requests.
fn measure_session_reuse(shape: &'static KernelShape, n: usize) -> ReuseRow {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let analysis = Session::default()
        .analyze(&prog, sub.name, p.label)
        .expect("analysis");

    let run_once = |session: &Session| {
        let mut frame = p.frame.clone();
        let stats = session
            .run_many([LoopJob {
                machine: &p.machine,
                sub: &sub,
                target: &target,
                analysis: &analysis,
                frame: &mut frame,
            }])
            .expect("runs");
        stats[0].loop_units
    };

    let (cold_ns, _) = time_ns(|| run_once(&Session::default()));
    let warm = Session::default();
    run_once(&warm); // populate the caches once
    let (warm_ns, _) = time_ns(|| run_once(&warm));
    ReuseRow {
        kernel: shape.name,
        cold_ns,
        warm_ns,
        cold_over_warm: cold_ns / warm_ns,
    }
}

/// Runs the kernel once through an observer session and returns the
/// recorded per-loop decision as JSON (the same report
/// `Session::explain` renders as text), re-keyed by the kernel name so
/// both `explain("hoist_indirect")` and `explain("do20")` resolve it.
fn measure_obs_decision(shape: &'static KernelShape, n: usize) -> Option<String> {
    let session = Session::builder()
        .fission(true)
        .observer(ObsLevel::Trace)
        .build();
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let analysis = session.analyze(&prog, sub.name, p.label)?;
    let mut frame = p.frame.clone();
    session
        .run_many([LoopJob {
            machine: &p.machine,
            sub: &sub,
            target: &target,
            analysis: &analysis,
            frame: &mut frame,
        }])
        .ok()?;
    let mut d = session.explain_decision(p.label)?;
    d.kernel = Some(shape.name.to_string());
    Some(d.to_json())
}

struct NoopRow {
    kernel: &'static str,
    off_ns: f64,
    noop_ns: f64,
    ratio: f64,
}

/// Times one hot kernel through `Session::run_many` with observability
/// **off** (the disabled path: one branch per instrumentation site —
/// the default every user gets, equal to the pre-observability
/// executor) vs a session holding a [`NoopRecorder`] (every metrics
/// site live, the sink discards everything). Interleaved best-of-round
/// timing, like the fusion rows, because the gap is percent-level.
/// The ratio is the price of leaving a no-op observer installed; the
/// bench asserts it stays under 2%.
fn measure_noop_overhead(shape: &'static KernelShape, n: usize) -> NoopRow {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
    let target = sub.find_loop(p.label).expect("loop").clone();
    let analysis = Session::default()
        .analyze(&prog, sub.name, p.label)
        .expect("analysis");
    let off = Session::default();
    let noop = Session::builder()
        .observer_recorder(ObsLevel::Metrics, Arc::new(NoopRecorder))
        .build();

    let run_once = |session: &Session| {
        let mut frame = p.frame.clone();
        let stats = session
            .run_many([LoopJob {
                machine: &p.machine,
                sub: &sub,
                target: &target,
                analysis: &analysis,
                frame: &mut frame,
            }])
            .expect("runs");
        stats[0].loop_units
    };
    // Warm both sessions' caches so neither leg pays compilation.
    let off_units = run_once(&off);
    let noop_units = run_once(&noop);
    assert_eq!(
        off_units, noop_units,
        "{}: observed work units diverged",
        shape.name
    );

    let calib = Instant::now();
    let mut calib_iters = 0u64;
    while calib.elapsed() < Duration::from_millis(5) && calib_iters < 1_000 {
        run_once(&off);
        calib_iters += 1;
    }
    let per_iter = calib.elapsed().as_secs_f64() / calib_iters as f64;
    let rounds = 15u32;
    let per_round = sample_budget().as_secs_f64() / f64::from(2 * rounds);
    let iters = ((per_round / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut best = [f64::INFINITY; 2];
    for round in 0..rounds {
        let mut order = [(0usize, &off), (1usize, &noop)];
        if round % 2 == 1 {
            order.swap(0, 1);
        }
        for (slot, s) in order {
            let start = Instant::now();
            for _ in 0..iters {
                run_once(s);
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            best[slot] = best[slot].min(ns);
        }
    }
    NoopRow {
        kernel: shape.name,
        off_ns: best[0],
        noop_ns: best[1],
        ratio: best[1] / best[0],
    }
}

/// The self-describing `meta` block: schema version plus the
/// configuration the session-based legs (fission, reuse, obs) run
/// under, so the per-PR trajectory needs no out-of-band context.
fn meta_json() -> String {
    let cfg = lip_runtime::SessionConfig::default();
    format!(
        "  \"meta\": {{\"schema_version\": {}, \"nthreads\": {}, \"fission\": {}, \"sample_budget_ms\": {}}},\n",
        SCHEMA_VERSION,
        cfg.nthreads,
        cfg.fission,
        sample_budget().as_millis(),
    )
}

fn main() {
    let mut rows = Vec::new();
    for (shape, n) in lip_bench::vm_hot_kernels() {
        let (tw, vm) = measure(shape, n);
        println!(
            "{:<18} treewalk {:>12.0} ns  bytecode {:>12.0} ns  speedup {:>5.2}x  ({} units)",
            tw.kernel, tw.wall_ns, vm.wall_ns, vm.speedup_vs_treewalk, tw.work_units
        );
        rows.push(tw);
        rows.push(vm);
    }

    let mut fused_rows = Vec::new();
    for (shape, n) in lip_bench::vm_hot_kernels() {
        let r = measure_fused(shape, n);
        println!(
            "{:<18} unfused {:>12.0} ns  fused {:>12.0} ns  fusion win {:>5.2}x  (ops {} -> {})",
            r.kernel,
            r.unfused_wall_ns,
            r.fused_wall_ns,
            r.speedup_vs_unfused,
            r.ops_unfused,
            r.ops_fused
        );
        fused_rows.push(r);
    }

    let mut reduction_rows = Vec::new();
    for ty in [Ty::Int, Ty::Real] {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::Gt] {
            let r = measure_reduction_merge(ty, op, 1 << 16);
            println!(
                "{:<18} merge boxed {:>12.0} ns  flat {:>12.0} ns  merge win {:>5.2}x  ({} elems)",
                r.kernel, r.boxed_wall_ns, r.simd_wall_ns, r.speedup_vs_boxed, r.elems
            );
            reduction_rows.push(r);
        }
    }

    let mut pred_rows = Vec::new();
    for (shape, n) in lip_bench::pred_kernels() {
        let kernel_rows = measure_pred(shape, n);
        if let [tw, seq, par] = kernel_rows.as_slice() {
            println!(
                "{:<18} pred O(N{}) treewalk {:>10.0} ns  compiled {:>10.0} ns ({:>5.2}x)  parallel {:>10.0} ns ({:>5.2}x)  [{}]",
                tw.kernel,
                if tw.stage_complexity > 1 { "^k" } else { "" },
                tw.wall_ns,
                seq.wall_ns,
                seq.speedup_vs_treewalk,
                par.wall_ns,
                par.speedup_vs_treewalk,
                tw.verdict,
            );
        }
        pred_rows.extend(kernel_rows);
    }

    let mut fission_rows = Vec::new();
    for (shape, n) in lip_bench::fission_kernels() {
        let Some(r) = measure_fission(shape, n) else {
            continue;
        };
        println!(
            "{:<18} fission {}/{} frags parallel  rescued {:>5.1}%  fissioned {:>12.0} ns  sequential {:>12.0} ns ({:>5.2}x)",
            r.kernel,
            r.parallel_fragments,
            r.fragments,
            r.rescued_fraction * 100.0,
            r.fissioned_wall_ns,
            r.sequential_wall_ns,
            r.speedup_vs_sequential,
        );
        fission_rows.push(r);
    }

    let mut reuse_rows = Vec::new();
    for (shape, n) in lip_bench::vm_hot_kernels() {
        let r = measure_session_reuse(shape, n);
        println!(
            "{:<18} session cold {:>12.0} ns  warm {:>12.0} ns  reuse win {:>5.2}x",
            r.kernel, r.cold_ns, r.warm_ns, r.cold_over_warm
        );
        reuse_rows.push(r);
    }

    let mut decision_rows = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (shape, n) in lip_bench::pred_kernels()
        .into_iter()
        .chain(lip_bench::fission_kernels())
    {
        if !seen.insert(shape.name) {
            continue;
        }
        let Some(j) = measure_obs_decision(shape, n) else {
            continue;
        };
        println!("{:<18} decision recorded ({} bytes)", shape.name, j.len());
        decision_rows.push(j);
    }

    let mut noop_rows = Vec::new();
    for (shape, n) in lip_bench::vm_hot_kernels() {
        // Best-of-round timing still jitters at the percent level;
        // retry a failing kernel before declaring a regression.
        let mut r = measure_noop_overhead(shape, n);
        for _ in 0..2 {
            if r.ratio < 1.02 {
                break;
            }
            r = measure_noop_overhead(shape, n);
        }
        println!(
            "{:<18} obs off {:>12.0} ns  noop recorder {:>12.0} ns  overhead {:>5.2}%",
            r.kernel,
            r.off_ns,
            r.noop_ns,
            (r.ratio - 1.0) * 100.0
        );
        assert!(
            r.ratio < 1.02,
            "{}: no-op observer overhead {:.2}% exceeds the 2% budget",
            r.kernel,
            (r.ratio - 1.0) * 100.0
        );
        noop_rows.push(r);
    }

    let mut json = String::from("{\n  \"bench\": \"vm_dispatch\",\n");
    json.push_str(&meta_json());
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"backend\": \"{}\", \"wall_ns\": {:.1}, \"work_units\": {}, \"speedup_vs_treewalk\": {:.3}}}{}",
            r.kernel,
            r.backend,
            r.wall_ns,
            r.work_units,
            r.speedup_vs_treewalk,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"fused_results\": [\n");
    for (i, r) in fused_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"unfused_wall_ns\": {:.1}, \"fused_wall_ns\": {:.1}, \"speedup_vs_unfused\": {:.3}, \"ops_unfused\": {}, \"ops_fused\": {}}}{}",
            r.kernel,
            r.unfused_wall_ns,
            r.fused_wall_ns,
            r.speedup_vs_unfused,
            r.ops_unfused,
            r.ops_fused,
            if i + 1 == fused_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"reduction_results\": [\n");
    for (i, r) in reduction_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"elems\": {}, \"op\": \"{}\", \"ty\": \"{}\", \"boxed_wall_ns\": {:.1}, \"simd_wall_ns\": {:.1}, \"speedup_vs_boxed\": {:.3}}}{}",
            r.kernel,
            r.elems,
            r.op,
            r.ty,
            r.boxed_wall_ns,
            r.simd_wall_ns,
            r.speedup_vs_boxed,
            if i + 1 == reduction_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"pred_results\": [\n");
    for (i, r) in pred_rows.iter().enumerate() {
        let passed = r.passed_stage.map_or("null".into(), |s| s.to_string());
        let failed = r.failed_stage.map_or("null".into(), |s| s.to_string());
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"stage_complexity\": {}, \"backend\": \"{}\", \"wall_ns\": {:.1}, \"speedup_vs_treewalk\": {:.3}, \"verdict\": \"{}\", \"passed_stage\": {}, \"failed_stage\": {}}}{}",
            r.kernel,
            r.stage_complexity,
            r.backend,
            r.wall_ns,
            r.speedup_vs_treewalk,
            r.verdict,
            passed,
            failed,
            if i + 1 == pred_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"fission_results\": [\n");
    for (i, r) in fission_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"fragments\": {}, \"parallel_fragments\": {}, \"rescued_units\": {}, \"loop_units\": {}, \"rescued_fraction\": {:.3}, \"fissioned_wall_ns\": {:.1}, \"sequential_wall_ns\": {:.1}, \"speedup_vs_sequential\": {:.3}}}{}",
            r.kernel,
            r.fragments,
            r.parallel_fragments,
            r.rescued_units,
            r.loop_units,
            r.rescued_fraction,
            r.fissioned_wall_ns,
            r.sequential_wall_ns,
            r.speedup_vs_sequential,
            if i + 1 == fission_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"session_reuse\": [\n");
    for (i, r) in reuse_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"cold_wall_ns\": {:.1}, \"warm_wall_ns\": {:.1}, \"cold_over_warm\": {:.3}}}{}",
            r.kernel,
            r.cold_ns,
            r.warm_ns,
            r.cold_over_warm,
            if i + 1 == reuse_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"obs_results\": {\n    \"decisions\": [\n");
    for (i, d) in decision_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {}{}",
            d,
            if i + 1 == decision_rows.len() {
                ""
            } else {
                ","
            }
        );
    }
    json.push_str("    ],\n    \"noop_overhead\": [\n");
    for (i, r) in noop_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"kernel\": \"{}\", \"off_wall_ns\": {:.1}, \"noop_wall_ns\": {:.1}, \"ratio\": {:.4}}}{}",
            r.kernel,
            r.off_ns,
            r.noop_ns,
            r.ratio,
            if i + 1 == noop_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_vm.json", &json).expect("write BENCH_vm.json");
    println!(
        "wrote BENCH_vm.json ({} vm rows, {} fused rows, {} reduction rows, {} pred rows, {} fission rows, {} session-reuse rows, {} decisions, {} noop rows)",
        rows.len(),
        fused_rows.len(),
        reduction_rows.len(),
        pred_rows.len(),
        fission_rows.len(),
        reuse_rows.len(),
        decision_rows.len(),
        noop_rows.len()
    );
}
