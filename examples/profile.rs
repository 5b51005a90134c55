//! Profile: export a parallel kernel's timeline and hot-phase report.
//!
//! ```sh
//! cargo run --example profile
//! ```
//!
//! Runs the static-parallel `stencil` kernel on four threads with the
//! observer at trace level, then shows the two presentation layers
//! over the span buffer: `Session::trace_chrome_json()` writes a
//! Chrome Trace Event / Perfetto timeline (`PROFILE_trace.json` —
//! open it at <https://ui.perfetto.dev> or `chrome://tracing` to see
//! one lane per pool worker with per-chunk spans), and
//! `Session::profile()` folds the same spans into a flat hot-phase
//! table and a call-path tree. The VM's dispatch counters follow: ops
//! executed, and how many activations the typed-register stream ran
//! versus the `Value` stream (a kernel typed as declared shows none of
//! the latter).
//!
//! Then the *cold* path, one fresh session per kernel: analysing the
//! three kernels whose analysis is slowest (`solvh`, `hoist_indirect`,
//! `offset_crossover`) from scratch. `analysis.loop` breaks down into
//! `analysis.summarize`, `core.factor`, `core.simplify`, `core.cascade`
//! and `analysis.fission_plan`, and the predicate context reports how
//! much of its work the memo tables answered.

use lip::obs::ObsLevel;
use lip::symbolic::sym;
use lip::Session;

fn main() {
    let session = Session::builder()
        .nthreads(4)
        .par_min(64)
        .observer(ObsLevel::Trace)
        .build();

    // A statically parallel 5-point stencil: the executor forks it
    // across the pool, so the trace gets one `pool.chunk` span per
    // worker per fork.
    let shape = &lip::suite::STENCIL;
    let n = 4096usize;
    let prog = lip::ir::parse_program(shape.source).expect("parses");
    let sweep = session
        .load(prog)
        .prepare(sym(shape.sub), shape.label)
        .expect("analysis");
    let mut frame = shape.prepared(n).frame;
    for _ in 0..3 {
        sweep.run(&mut frame).expect("runs");
    }

    // The timeline: load this file in Perfetto to see the lanes.
    let trace = session.trace_chrome_json();
    std::fs::write("PROFILE_trace.json", &trace).expect("write PROFILE_trace.json");
    println!(
        "wrote PROFILE_trace.json ({} bytes) — open at https://ui.perfetto.dev\n",
        trace.len()
    );

    // The aggregation: self/total per phase plus the call-path tree.
    print!("{}", session.profile().render_text());
    let metrics = session.metrics();
    println!("\nVM dispatch:");
    for name in ["vm.ops", "vm.fused_ops", "vm.typed_runs", "vm.untyped_runs"] {
        println!("  {name:<24} {}", metrics.counter(name).unwrap_or(0));
    }

    // The cold path, layer by layer: where one never-seen loop's
    // analysis spends its time, and what the per-analysis memo tables
    // saved (evaluations vs. hits; the counts repeat exactly). The three
    // kernels are the three slowest rows of `bench_e2e`'s cold_pipeline.
    for shape in [
        &lip::suite::SOLVH,
        &lip::suite::HOIST_INDIRECT,
        &lip::suite::OFFSET_CROSSOVER,
    ] {
        let cold = Session::builder().observer(ObsLevel::Trace).build();
        let prog = lip::ir::parse_program(shape.source).expect("parses");
        cold.analyze(&prog, sym(shape.sub), shape.label)
            .expect("analysis");
        println!("\ncold analysis of {}:", shape.name);
        print!("{}", cold.profile().render_text());
        let metrics = cold.metrics();
        for name in [
            "core.factor_evals",
            "core.factor_hits",
            "core.estimate_evals",
            "core.estimate_hits",
            "core.simplify_evals",
            "core.simplify_hits",
            "symbolic.decide_evals",
            "symbolic.decide_hits",
            "core.pdag_interned",
        ] {
            println!("  {name:<24} {}", metrics.counter(name).unwrap_or(0));
        }
    }
}
