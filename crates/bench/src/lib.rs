//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` prints one table or figure:
//! `table1`/`table2`/`table3` reproduce the per-benchmark property
//! tables; `fig10`–`fig12` the normalized parallel timings against the
//! static-affine baseline; `fig13` the 1–16 processor scalability.

use lip_runtime::Session;
use lip_suite::{measure_benchmark, BenchDef};

/// Spawn overhead (work units) used across all harnesses.
pub const SPAWN: u64 = 3_000;

/// The session every table/figure binary runs through: configured
/// from the `LIP_*` environment (read once, strictly, in
/// `SessionConfig::from_env`) — invalid values abort with a clear
/// message instead of silently falling back.
pub fn harness_session() -> Session {
    match Session::from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid LIP_* environment: {e}");
            std::process::exit(2);
        }
    }
}

/// Renders one paper-style table for a suite.
pub fn print_table(session: &Session, title: &str, defs: &[BenchDef]) {
    println!("== {title} ==");
    println!(
        "{:<11} {:>5} {:>6} {:>7} | {:<18} {:>7} {:>9} {:<26} {:<26}",
        "BENCH", "SC%", "SCrt%", "RTov%", "LOOP", "LSC%", "GRAIN", "CLASSIFIED", "PAPER"
    );
    for def in defs {
        let t = measure_benchmark(session, def);
        let rtov = (t.rt_overhead(4, SPAWN) * 100.0).max(0.0);
        let scrt = (t.sc_rt() * 100.0).max(0.0);
        let mut first = true;
        for (l, d) in t.loops.iter().zip(def.loops.iter()) {
            let head = if first {
                format!(
                    "{:<11} {:>5.0} {:>6.1} {:>7.2}",
                    def.name,
                    def.sc * 100.0,
                    scrt,
                    rtov
                )
            } else {
                format!("{:<11} {:>5} {:>6} {:>7}", "", "", "", "")
            };
            first = false;
            println!(
                "{head} | {:<18} {:>7.1} {:>9} {:<26} {:<26}",
                format!("{}_{}", l.shape, l.label),
                d.weight * 100.0,
                l.seq_units(),
                render_class(l),
                d.expected,
            );
        }
        println!(
            "{:<32} techniques: ours [{}] paper [{}]",
            "",
            t.loops
                .iter()
                .flat_map(|l| l.techniques.split(',').map(str::to_owned))
                .filter(|s| !s.is_empty())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
                .join(","),
            def.techniques
        );
    }
}

fn render_class(l: &lip_suite::LoopMeasurement) -> String {
    use lip_analysis::LoopClass;
    match &l.class {
        LoopClass::StaticParallel => "STATIC-PAR".into(),
        LoopClass::StaticSequential => "STATIC-SEQ".into(),
        LoopClass::Predicated {
            first_stage_complexity,
        } => format!(
            "RT O({}){}",
            if *first_stage_complexity == 0 {
                "1".into()
            } else {
                "N".repeat(*first_stage_complexity as usize)
            },
            if l.parallel { " pass" } else { " fail" }
        ),
        LoopClass::NeedsFallback(k) => format!("{k:?}"),
        LoopClass::Fissioned { fragments } => format!("FISSION({fragments})"),
    }
}

/// Renders a Figure 10/11/12-style comparison (normalized parallel
/// time; sequential = 1.0), closed by the suite's average speedup at
/// `procs` (the abstract's 2.4x/5.4x style aggregate).
pub fn print_figure(
    session: &Session,
    title: &str,
    defs: &[BenchDef],
    procs: usize,
    baseline_name: &str,
) {
    println!("== {title} (P = {procs}; sequential time = 1.0) ==");
    println!(
        "{:<11} {:>14} {:>14} {:>9}",
        "BENCH", "Factorization", baseline_name, "RTov%"
    );
    let (mut speedups, mut measured) = (0.0, 0.0);
    for def in defs {
        if def.name == "gamess" {
            continue; // not measured in the paper's figures
        }
        let t = measure_benchmark(session, def);
        let seq = t.seq_units() as f64;
        let par = t.par_units(procs, SPAWN) as f64;
        let base = t.baseline_units(procs, SPAWN) as f64 / seq;
        println!(
            "{:<11} {:>14.3} {:>14.3} {:>9.2}",
            def.name,
            par / seq,
            base,
            t.rt_overhead(procs, SPAWN) * 100.0
        );
        speedups += seq / par;
        measured += 1.0;
    }
    println!("average speedup: {:.2}x", speedups / measured);
}

/// Renders the Figure 13-style scalability sweep.
pub fn print_scalability(session: &Session, title: &str, defs: &[BenchDef], procs: &[usize]) {
    println!("== {title} (speedup over sequential) ==");
    print!("{:<11}", "BENCH");
    for p in procs {
        print!(" {:>8}", format!("P={p}"));
    }
    println!();
    for def in defs {
        if def.name == "gamess" {
            continue;
        }
        let t = measure_benchmark(session, def);
        let seq = t.seq_units() as f64;
        print!("{:<11}", def.name);
        for p in procs {
            let s = seq / t.par_units(*p, SPAWN) as f64;
            print!(" {:>8.2}", s);
        }
        println!();
    }
}
