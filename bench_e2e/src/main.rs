//! `bench_e2e` — the measured spine of the loop parallelizer: five
//! workloads, generated source text and frames in, verified results
//! out, end-to-end metrics from an untraced pass and per-layer metrics
//! from a separate traced one. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! bench_e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! bench_e2e --all [--seed <u64>] [--seconds <s>] [--reverse]
//! bench_e2e --smoke | --check-determinism
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod gen;
mod jsonw;
mod layers;
mod serve;
mod stats;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use adapter::Observe;
use jsonw::J;
use layers::Metric;
use stats::{fastest, geomean, median, Spans};
use workload::{Bench, Kind, Programs, WorkloadSpec, WORKLOAD_NAMES};

/// How often an untraced run sets its workload up; `setup_s` is the
/// fastest of them, as the operation times are (see [`op_ms_geomean`]).
const SETUPS: usize = 3;
/// End-to-end numbers the report carries and the contract line does
/// not: `fail_share` reads 0 on a good run, which a gated metric may
/// not, and the two whole-pass timings follow the host (see
/// [`op_ms_geomean`]).
const REPORT_ONLY: [&str; 3] = ["fail_share", "pass.op_ms_geomean", "pass.ops_per_s"];
/// Spans kept per trace file.
const SPAN_CAP: usize = 40_000;
/// Rounds of a traced pass: the program's own trace buffer grows with
/// every span, so the pass is bounded by count as well as by time.
const TRACED_ROUNDS: u64 = 200;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    reverse: bool,
    smoke: bool,
    check_determinism: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        all: false,
        reverse: false,
        smoke: false,
        check_determinism: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => a.trace = true,
            "--all" => a.all = true,
            "--reverse" => a.reverse = true,
            "--smoke" => a.smoke = true,
            "--check-determinism" => a.check_determinism = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOAD_NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {WORKLOAD_NAMES:?})"
            ));
        }
    }
    let modes = [a.workload.is_some(), a.all, a.smoke, a.check_determinism];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err(
            "give exactly one of --workload <name>, --all, --smoke, --check-determinism".to_owned(),
        );
    }
    Ok(a)
}

/// The conditions a run was measured under.
struct Env {
    nproc: usize,
    nthreads: usize,
    git_rev: String,
    rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn env() -> Env {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Env {
        nproc,
        nthreads: nproc.min(4),
        git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
        rustc: command_line("rustc", &["--version"]),
    }
}

/// One row of a report: a program (or a serve request class).
struct RowReport {
    name: String,
    n: Option<usize>,
    samples_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    outcome: Option<&'static str>,
    test_units: Option<u64>,
    loop_units: Option<u64>,
    first_error: Option<String>,
}

impl RowReport {
    fn median_ms(&self) -> Option<f64> {
        median(&self.samples_ms)
    }

    fn fastest_ms(&self) -> Option<f64> {
        fastest(&self.samples_ms)
    }

    fn to_json(&self) -> J {
        let tail = stats::tail(&self.samples_ms).map_or(J::Null, |(p, ms)| {
            J::obj([("percentile", J::str(p)), ("ms", J::Num(ms))])
        });
        let units = |u: Option<u64>| u.map_or(J::Null, J::count);
        J::obj([
            ("name", J::str(&self.name)),
            ("n", self.n.map_or(J::Null, |n| J::count(n as u64))),
            ("samples", J::count(self.samples_ms.len() as u64)),
            ("fastest_ms", J::opt(self.fastest_ms())),
            ("median_ms", J::opt(self.median_ms())),
            ("tail", tail),
            ("attempted", J::count(self.attempted)),
            ("failed", J::count(self.failed)),
            ("outcome", self.outcome.map_or(J::Null, J::str)),
            ("test_units", units(self.test_units)),
            ("loop_units", units(self.loop_units)),
            (
                "first_error",
                self.first_error.as_ref().map_or(J::Null, J::str),
            ),
        ])
    }
}

fn bench_rows(bench: &Bench) -> Vec<RowReport> {
    bench
        .rows
        .iter()
        .map(|r| RowReport {
            name: r.spec.name(),
            n: Some(r.spec.n),
            samples_ms: r.samples_ms.clone(),
            attempted: r.attempted,
            failed: r.failed,
            outcome: r.ran.as_ref().map(|x| x.outcome),
            test_units: r.ran.as_ref().map(|x| x.test_units),
            loop_units: r.ran.as_ref().map(|x| x.loop_units),
            first_error: r.first_error.clone(),
        })
        .collect()
}

fn serve_rows(run: &serve::ServeRun) -> Vec<RowReport> {
    serve::CLASSES
        .iter()
        .zip(&run.classes)
        .map(|((name, _), c)| RowReport {
            name: (*name).to_owned(),
            n: None,
            samples_ms: c.samples_ms.clone(),
            attempted: c.attempted,
            failed: c.failed,
            outcome: None,
            test_units: None,
            loop_units: None,
            first_error: c.first_error.clone(),
        })
        .collect()
}

/// Geometric mean over rows of the fastest operation, ms.
///
/// The fastest and not the median: on a shared two-vCPU box every
/// quantile of an operation's time follows the host (waking the halted
/// second vCPU costs 40 µs in a quiet minute and a millisecond in a
/// busy one), while the fastest of a pass's samples moves a third as
/// much. Rows still report their median and tail.
fn op_ms_geomean(rows: &[RowReport]) -> Option<f64> {
    geomean(
        &rows
            .iter()
            .filter_map(RowReport::fastest_ms)
            .collect::<Vec<_>>(),
    )
}

/// The rate `clients` closed-loop callers reach when every row runs at
/// its fastest, at the mix of rows the pass attempted.
fn ops_per_s(rows: &[RowReport], clients: usize) -> Option<f64> {
    let attempted = totals(rows).0 as f64;
    let busy_s: f64 = rows
        .iter()
        .filter(|r| r.attempted > 0)
        .map(|r| Some(r.attempted as f64 * r.fastest_ms()? / 1e3))
        .sum::<Option<f64>>()?;
    (busy_s > 0.0).then(|| clients as f64 * attempted / busy_s)
}

/// Geometric mean over rows of the median operation time, ms: what the
/// whole pass saw, host included.
fn pass_op_ms_geomean(rows: &[RowReport]) -> Option<f64> {
    geomean(
        &rows
            .iter()
            .filter_map(RowReport::median_ms)
            .collect::<Vec<_>>(),
    )
}

/// Operations of the pass ÷ the time `clients` callers spent in them.
fn pass_ops_per_s(rows: &[RowReport], clients: usize) -> Option<f64> {
    let busy_s = rows.iter().flat_map(|r| &r.samples_ms).sum::<f64>() / 1e3;
    (busy_s > 0.0).then(|| clients as f64 * totals(rows).0 as f64 / busy_s)
}

fn totals(rows: &[RowReport]) -> (u64, u64) {
    (
        rows.iter().map(|r| r.attempted).sum(),
        rows.iter().map(|r| r.failed).sum(),
    )
}

struct Report {
    spec: WorkloadSpec,
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    rows: Vec<RowReport>,
    attempted: u64,
    failed: u64,
    trace_file: Option<String>,
}

fn metrics_json(metrics: &[Metric]) -> J {
    J::obj(metrics.iter().map(|(name, unit, v)| {
        (
            *name,
            J::obj([("value", J::opt(*v)), ("unit", J::str(*unit))]),
        )
    }))
}

impl Report {
    fn to_json(&self, env: &Env) -> J {
        J::obj([
            ("bench", J::str("bench_e2e")),
            ("workload", J::str(self.spec.name)),
            ("why", J::str(self.spec.why)),
            ("traced", J::Bool(self.traced)),
            (
                "meta",
                J::obj([
                    ("nproc", J::count(env.nproc as u64)),
                    ("nthreads", J::count(env.nthreads as u64)),
                    ("seed", J::count(self.seed)),
                    ("seconds", J::Num(self.seconds)),
                    ("smoke", J::Bool(self.smoke)),
                    ("git_rev", J::str(&env.git_rev)),
                    ("rustc", J::str(&env.rustc)),
                    ("ops_attempted", J::count(self.attempted)),
                    ("ops_failed", J::count(self.failed)),
                ]),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            (
                "rows",
                J::Arr(self.rows.iter().map(RowReport::to_json).collect()),
            ),
            (
                "trace_file",
                self.trace_file.as_ref().map_or(J::Null, J::str),
            ),
        ])
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` (the report-only end-to-end numbers left out). A
    /// per-layer metric the workload has nothing for is reported as 0
    /// here (and as `null` in the full report).
    fn driver_line(&self) -> J {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let listed = metrics
            .iter()
            .filter(|(name, _, _)| !REPORT_ONLY.contains(name))
            .map(|(name, unit, v)| {
                (
                    *name,
                    J::obj([("value", J::Num(v.unwrap_or(0.0))), ("unit", J::str(*unit))]),
                )
            });
        J::obj([
            ("correct", J::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", J::count(self.attempted)),
            ("failed", J::count(self.failed)),
            ("metrics", J::obj(listed)),
        ])
    }

    fn print(&self, env: &Env) {
        println!(
            "== {} ({}) seed {} nproc {} nthreads {} rev {} {}",
            self.spec.name,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            env.nproc,
            env.nthreads,
            env.git_rev,
            env.rustc
        );
        for (name, unit, v) in self.end_to_end.iter().chain(&self.per_layer) {
            match v {
                Some(v) => println!("{name:<44} {v:>16.4} {unit}"),
                None => println!("{name:<44} {:>16} {unit}", "null"),
            }
        }
        println!(
            "{:<26} {:>8} {:>8} {:>11} {:>11} {:>16} {:>5} {:>22} {:>10} {:>10}",
            "row",
            "n",
            "samples",
            "fastest_ms",
            "median_ms",
            "tail_ms",
            "fail",
            "outcome",
            "test_units",
            "loop_units"
        );
        for r in &self.rows {
            let tail =
                stats::tail(&r.samples_ms).map_or("-".to_owned(), |(p, ms)| format!("{p} {ms:.4}"));
            let num = |v: Option<u64>| v.map_or("-".to_owned(), |v| v.to_string());
            println!(
                "{:<26} {:>8} {:>8} {:>11} {:>11} {:>16} {:>5} {:>22} {:>10} {:>10}",
                r.name,
                r.n.map_or("-".to_owned(), |n| n.to_string()),
                r.samples_ms.len(),
                r.fastest_ms().map_or("-".to_owned(), |m| format!("{m:.4}")),
                r.median_ms().map_or("-".to_owned(), |m| format!("{m:.4}")),
                tail,
                r.failed,
                r.outcome.unwrap_or("-"),
                num(r.test_units),
                num(r.loop_units)
            );
            if let Some(e) = &r.first_error {
                println!("    first error: {e}");
            }
        }
    }
}

/// Where trace files go: under the build's target directory.
fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), std::path::PathBuf::from);
    target.join("bench_e2e")
}

fn write_trace(workload: &str, spans: &Spans, folded: &[stats::Folded]) -> Result<String, String> {
    let doc = J::obj([
        ("workload", J::str(workload)),
        ("unit", J::str("ns since the pass began")),
        ("truncated", J::Bool(spans.truncated())),
        (
            "folded",
            J::Arr(
                folded
                    .iter()
                    .map(|f| {
                        J::obj([
                            ("name", J::str(f.name)),
                            ("count", J::count(f.count)),
                            ("total_ns", J::count(f.total_ns)),
                            ("self_ns", J::count(f.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            J::Arr(
                spans
                    .spans()
                    .iter()
                    .map(|s| {
                        J::obj([
                            ("name", J::str(s.name)),
                            ("op", J::count(s.op)),
                            ("parent", s.parent.map_or(J::Null, |p| J::count(p as u64))),
                            ("start_ns", J::count(s.start_ns)),
                            ("end_ns", J::count(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn serve_options<'a>(
    spec: &'a WorkloadSpec,
    a: &Args,
    env: &Env,
    obs: &'static str,
    budget: Duration,
    span_cap: usize,
) -> serve::ServeOptions<'a> {
    serve::ServeOptions {
        spec,
        seed: a.seed,
        nthreads: env.nthreads,
        clients: env.nproc,
        large_n: workload::serve_large_n(a.smoke),
        obs,
        budget,
        span_cap,
    }
}

/// The untraced run: set-up ([`SETUPS`] times over), one timed pass,
/// the end-to-end metrics.
fn measure(
    spec: &WorkloadSpec,
    a: &Args,
    env: &Env,
    programs: &mut Programs,
) -> Result<Report, String> {
    let setups = if a.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let (rows, clients) = if spec.kind == Kind::Serve {
        for _ in 1..setups {
            setup_s.push(
                serve::run(&serve_options(spec, a, env, "off", Duration::ZERO, 0))?
                    .setup
                    .as_secs_f64(),
            );
        }
        let run = serve::run(&serve_options(spec, a, env, "off", secs(a.seconds), 0))?;
        setup_s.push(run.setup.as_secs_f64());
        (serve_rows(&run), env.nproc)
    } else {
        let mut bench = None;
        for _ in 0..setups {
            drop(bench.take());
            // Only `--smoke` carries analyses from one set-up to the next.
            if !a.smoke {
                programs.clear();
            }
            let t = Instant::now();
            bench = Some(workload::setup(
                spec,
                a.seed,
                env.nthreads,
                Observe::Off,
                programs,
            )?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut bench = bench.expect("set up at least once");
        bench.run(secs(a.seconds), u64::MAX, &mut Spans::new(0));
        (bench_rows(&bench), 1)
    };
    let (attempted, failed) = totals(&rows);
    let end_to_end = vec![
        ("op_ms_geomean", "ms", op_ms_geomean(&rows)),
        ("ops_per_s", "1/s", ops_per_s(&rows, clients)),
        ("fail_share", "ratio", stats::fail_share(failed, attempted)),
        ("peak_rss_mb", "MiB", stats::peak_rss_mib()),
        ("setup_s", "s", fastest(&setup_s)),
        ("pass.op_ms_geomean", "ms", pass_op_ms_geomean(&rows)),
        ("pass.ops_per_s", "1/s", pass_ops_per_s(&rows, clients)),
    ];
    Ok(Report {
        spec: spec.clone(),
        traced: false,
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        end_to_end,
        per_layer: Vec::new(),
        rows,
        attempted,
        failed,
        trace_file: None,
    })
}

/// Per-operation time the sessions attributed to span `name`, µs
/// (`None` when no such span was recorded).
fn trace_us(observed: &workload::SelfObserved, name: &str, own: bool, ops: u64) -> Option<f64> {
    let row = observed.profile.iter().find(|r| r.name == name)?;
    let ns = if own { row.self_ns } else { row.total_ns };
    (ops > 0).then(|| ns as f64 / ops as f64 / 1e3)
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

/// The `serve.*` metrics: one short untraced `serve_mix` sample plus
/// `ping` and `parse_request` timed alone.
fn serve_layer(
    a: &Args,
    env: &Env,
    run: Option<&serve::ServeRun>,
    budget: Duration,
) -> Result<Vec<Metric>, String> {
    let spec = workload::spec("serve_mix", a.smoke).expect("serve_mix exists");
    let sampled;
    let run = match run {
        Some(run) => run,
        None => {
            sampled = serve::run(&serve_options(&spec, a, env, "off", budget, 0))?;
            &sampled
        }
    };
    let all_ms: Vec<f64> = run
        .classes
        .iter()
        .flat_map(|c| c.samples_ms.iter().copied())
        .collect();
    let client_mean_us =
        (!all_ms.is_empty()).then(|| all_ms.iter().sum::<f64>() / all_ms.len() as f64 * 1e3);
    let p99 = {
        let mut v = all_ms.clone();
        v.sort_by(f64::total_cmp);
        (v.len() >= 1000).then(|| v[(v.len() as f64 * 0.99).ceil() as usize - 1] * 1e3)
    };
    let ping = serve::ping_samples(env.nproc, if a.smoke { 50 } else { 500 })?;
    let (small, large) = serve::sample_payloads(
        &spec,
        a.seed,
        env.nthreads,
        workload::serve_large_n(a.smoke),
    )?;
    let time_parse = |payload: &str, reps: usize| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(adapter::parse_request(payload));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    Ok(vec![
        ("serve.ping_rt_us", "us", median(&ping)),
        (
            "serve.parse_request_us",
            "us",
            time_parse(&small, if a.smoke { 20 } else { 200 }),
        ),
        (
            "serve.parse_request_large_us",
            "us",
            time_parse(&large, if a.smoke { 3 } else { 20 }),
        ),
        ("serve.server_request_us", "us", run.stats.request_mean_us()),
        (
            "serve.client_minus_server_us",
            "us",
            client_mean_us
                .zip(run.stats.request_mean_us())
                .map(|(c, s)| c - s),
        ),
        ("serve.p99_us", "us", p99),
        (
            "serve.cache_hit_share",
            "ratio",
            run.stats.cache_hit_share(),
        ),
        ("serve.rejected", "count", Some(run.stats.rejected as f64)),
    ])
}

/// The traced run: an untraced base pass, a traced pass, a
/// metrics-level pass and the layer probes, sharing `--seconds`.
fn trace(
    spec: &WorkloadSpec,
    a: &Args,
    env: &Env,
    programs: &mut Programs,
) -> Result<Report, String> {
    let share = |f: f64| secs(a.seconds * f);
    let mut per_layer: Vec<Metric> = Vec::new();
    let mut extra_ops = (0u64, 0u64);

    // `serve_mix` is measured through the server; the session-level
    // probes and attribution then run on its resident programs.
    let mut serve_base = None;
    let mut serve_overheads = None;
    let mut serve_spans = None;
    if spec.kind == Kind::Serve {
        let base = serve::run(&serve_options(spec, a, env, "off", share(0.2), 0))?;
        let traced = serve::run(&serve_options(spec, a, env, "trace", share(0.15), SPAN_CAP))?;
        let metered = serve::run(&serve_options(spec, a, env, "metrics", share(0.1), 0))?;
        let base_ms = op_ms_geomean(&serve_rows(&base));
        for r in [&traced, &metered] {
            let (att, fail) = totals(&serve_rows(r));
            extra_ops = (extra_ops.0 + att, extra_ops.1 + fail);
        }
        serve_overheads = Some((
            ratio(op_ms_geomean(&serve_rows(&traced)), base_ms),
            ratio(op_ms_geomean(&serve_rows(&metered)), base_ms),
        ));
        serve_spans = Some(traced.spans);
        serve_base = Some(base);
    }
    let session_share = if spec.kind == Kind::Serve { 0.3 } else { 1.0 };

    // Base pass, observer off: the reference the overheads divide by,
    // and the op times `runtime.speedup_net` compares with.
    let mut bench = workload::setup(spec, a.seed, env.nthreads, Observe::Off, programs)?;
    bench.run(share(0.25 * session_share), u64::MAX, &mut Spans::new(0));
    let base_rows = bench_rows(&bench);
    let base_ms = op_ms_geomean(&base_rows);
    let op_ms: Vec<Option<f64>> = base_rows.iter().map(RowReport::median_ms).collect();
    per_layer.extend(layers::probe(&bench, &op_ms, share(0.35 * session_share))?);
    per_layer.extend(layers::row_counts(&bench));

    // Traced pass: benchmark-owned spans around the public calls, and
    // the sessions' own spans folded by `Session::profile()`.
    let mut bench = bench.resession(Observe::Trace);
    let mut spans = Spans::new(SPAN_CAP);
    bench.run(share(0.25 * session_share), TRACED_ROUNDS, &mut spans);
    let traced_rows = bench_rows(&bench);
    let (traced_ops, _) = totals(&traced_rows);
    let traced_ms = op_ms_geomean(&traced_rows);
    let observed = bench.observed();
    per_layer.extend([
        (
            "trace.run_loop_self_us",
            "us",
            trace_us(observed, "run.loop", true, traced_ops),
        ),
        (
            "trace.pred_stage_us",
            "us",
            trace_us(observed, "pred.stage", false, traced_ops),
        ),
        (
            "trace.pool_fork_us",
            "us",
            trace_us(observed, "pool.fork", false, traced_ops),
        ),
        (
            "trace.pool_chunk_us",
            "us",
            trace_us(observed, "pool.chunk", false, traced_ops),
        ),
        (
            "trace.merge_us",
            "us",
            (traced_ops > 0).then(|| observed.merge_ns as f64 / traced_ops as f64 / 1e3),
        ),
        (
            "trace.analysis_loop_us",
            "us",
            trace_us(observed, "analysis.loop", false, traced_ops),
        ),
        (
            "trace.fragment_us",
            "us",
            trace_us(observed, "run.fragment", false, traced_ops),
        ),
    ]);

    // Metrics-level pass: the cheap observer level, and the verdict
    // memo's counters.
    let mut bench = bench.resession(Observe::Metrics);
    bench.run(share(0.15 * session_share), u64::MAX, &mut Spans::new(0));
    let metered_rows = bench_rows(&bench);
    let observed = bench.observed();
    let lookups = observed.memo_hits + observed.pred_evals;
    per_layer.push((
        "pred.memo_hit_share",
        "ratio",
        (lookups > 0).then(|| observed.memo_hits as f64 / lookups as f64),
    ));
    let (trace_overhead, metrics_overhead) = serve_overheads.unwrap_or((
        ratio(traced_ms, base_ms),
        ratio(op_ms_geomean(&metered_rows), base_ms),
    ));
    per_layer.push(("obs.trace_overhead", "ratio", trace_overhead));
    per_layer.push(("obs.metrics_overhead", "ratio", metrics_overhead));

    per_layer.extend(serve_layer(a, env, serve_base.as_ref(), share(0.05))?);

    let spans = serve_spans.unwrap_or(spans);
    let trace_file = write_trace(spec.name, &spans, &stats::fold(spans.spans()))?;

    let rows = serve_base.as_ref().map_or(base_rows, serve_rows);
    let (mut attempted, mut failed) = totals(&rows);
    for r in [&traced_rows, &metered_rows] {
        let (att, fail) = totals(r);
        attempted += att;
        failed += fail;
    }
    per_layer.sort_by_key(|m| m.0);
    Ok(Report {
        spec: spec.clone(),
        traced: true,
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        end_to_end: Vec::new(),
        per_layer,
        rows,
        attempted: attempted + extra_ops.0,
        failed: failed + extra_ops.1,
        trace_file: Some(trace_file),
    })
}

/// Prints the human table, the full report and (last) the contract
/// line — each JSON line re-parsed with the program's own reader
/// before it is printed.
fn emit(report: &Report, env: &Env) -> Result<(), String> {
    report.print(env);
    for line in [report.to_json(env).render(), report.driver_line().render()] {
        if !adapter::json_parses(&line) {
            return Err("the report does not re-parse as JSON".to_owned());
        }
        println!("{line}");
    }
    Ok(())
}

fn run_one(a: &Args, env: &Env) -> Result<bool, String> {
    let name = a.workload.as_deref().expect("checked by parse_args");
    let spec = workload::spec(name, a.smoke).expect("checked by parse_args");
    let programs = &mut Programs::new();
    let report = if a.trace {
        trace(&spec, a, env, programs)
    } else {
        measure(&spec, a, env, programs)
    }?;
    emit(&report, env)?;
    Ok(report.failed == 0)
}

/// `--all`: this executable once per workload and mode, as child
/// processes, so `peak_rss_mb` is each workload's own.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut names = WORKLOAD_NAMES.to_vec();
    if a.reverse {
        names.reverse();
    }
    let mut ok = true;
    for trace in ["0", "1"] {
        for name in &names {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    &a.seed.to_string(),
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    trace,
                ])
                .status()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

/// `--smoke`: every workload, untraced then traced, at tiny sizes and
/// in this process.
fn run_smoke(a: &Args, env: &Env) -> Result<bool, String> {
    let mut ok = true;
    let programs = &mut Programs::new();
    for name in WORKLOAD_NAMES {
        let spec = workload::spec(name, true).expect("known workload");
        let a = Args {
            smoke: true,
            seconds: 0.05,
            ..a.clone()
        };
        for report in [
            measure(&spec, &a, env, programs)?,
            trace(&spec, &a, env, programs)?,
        ] {
            report.print(env);
            ok &= report.failed == 0 && report.attempted > 0;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// Every count the benchmark reports for `spec`, as text: per-row
/// outcome and units, and the count-valued per-layer metrics.
fn counts_text(spec: &WorkloadSpec, a: &Args, env: &Env) -> Result<String, String> {
    let mut bench = workload::setup(
        spec,
        a.seed,
        env.nthreads,
        Observe::Off,
        &mut Programs::new(),
    )?;
    bench.run(Duration::ZERO, 1, &mut Spans::new(0));
    let mut out = String::new();
    for r in bench_rows(&bench) {
        out.push_str(&format!(
            "{} {:?} {:?} {:?} failed={}\n",
            r.name, r.outcome, r.test_units, r.loop_units, r.failed
        ));
    }
    let op_ms: Vec<Option<f64>> = bench.rows.iter().map(|_| None).collect();
    let mut metrics = layers::probe(&bench, &op_ms, Duration::ZERO)?;
    metrics.extend(layers::row_counts(&bench));
    for (name, unit, v) in metrics {
        if unit == "count" || name == "runtime.test_over_loop_units" {
            out.push_str(&format!("{name} {v:?}\n"));
        }
    }
    Ok(out)
}

/// `--check-determinism`: one seed generates the same bytes twice, and
/// every count repeats exactly across two runs.
fn check_determinism(a: &Args, env: &Env) -> Result<bool, String> {
    let mut ok = true;
    for name in WORKLOAD_NAMES {
        let spec = workload::spec(name, true).expect("known workload");
        let inputs = || {
            spec.rows
                .iter()
                .map(|r| {
                    let mut rng = gen::Rng::new(a.seed).fork(&r.name()).fork_n(0);
                    format!(
                        "{:?}",
                        gen::kernel_input(r.kernel, r.n, r.variant, &mut rng)
                    )
                })
                .collect::<Vec<_>>()
        };
        let same_inputs = inputs() == inputs();
        let (first, second) = (counts_text(&spec, a, env)?, counts_text(&spec, a, env)?);
        let same_counts = first == second;
        println!(
            "{name}: generation {} counts {}",
            verdict(same_inputs),
            verdict(same_counts)
        );
        if !same_counts {
            for (x, y) in first.lines().zip(second.lines()).filter(|(x, y)| x != y) {
                println!("  run 1: {x}\n  run 2: {y}");
            }
        }
        ok &= same_inputs && same_counts;
    }
    println!("determinism: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn verdict(same: bool) -> &'static str {
    if same {
        "identical"
    } else {
        "DIFFERS"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env();
    let result = if args.all {
        run_all(&args)
    } else if args.smoke {
        run_smoke(&args, &env)
    } else if args.check_determinism {
        check_determinism(&args, &env)
    } else {
        // A failed operation is reported (`correct: false`), not fatal.
        run_one(&args, &env).map(|_| true)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "hot_small",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("hot_small"), 42, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "hot_small", "--trace", "2"]).is_err());
        assert!(args(&["--all", "--smoke"]).is_err());
        assert!(args(&[]).is_err());
    }

    fn row(name: &str, samples_ms: &[f64], attempted: u64, failed: u64) -> RowReport {
        RowReport {
            name: name.to_owned(),
            n: None,
            samples_ms: samples_ms.to_vec(),
            attempted,
            failed,
            outcome: None,
            test_units: None,
            loop_units: None,
            first_error: None,
        }
    }

    #[test]
    fn end_to_end_accounting_counts_failures_against_attempts() {
        let rows = [row("a", &[1.0, 1.0, 4.0], 3, 1), row("b", &[100.0], 1, 0)];
        assert_eq!(totals(&rows), (4, 1));
        assert_eq!(stats::fail_share(1, 4), Some(0.25));
        // Fastest operations 1 ms and 100 ms.
        let g = op_ms_geomean(&rows).expect("two rows");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        // Two callers, three operations at 1 ms for each one at 100 ms.
        let rate = ops_per_s(&rows, 2).expect("two rows");
        assert!((rate - 2.0 * 4.0 / 0.103).abs() < 1e-9, "{rate}");
        assert_eq!(ops_per_s(&[row("idle", &[], 0, 0)], 1), None);
        // The whole pass: medians 1 ms and 100 ms, 4 operations in 106 ms.
        let g = pass_op_ms_geomean(&rows).expect("two rows");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let rate = pass_ops_per_s(&rows, 1).expect("samples");
        assert!((rate - 4.0 / 0.106).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn one_smoke_round_measures_and_traces_without_a_failed_operation() {
        let a = Args {
            seconds: 0.02,
            ..args(&["--smoke"]).expect("parses")
        };
        let (env, programs) = (env(), &mut Programs::new());
        let spec = workload::spec("tests_heavy", true).expect("known workload");
        let untraced = measure(&spec, &a, &env, programs).expect("measures");
        let traced = trace(&spec, &a, &env, programs).expect("traces");
        for report in [&untraced, &traced] {
            assert!(report.attempted >= spec.rows.len() as u64);
            assert_eq!(
                report.failed,
                0,
                "{:?}",
                report.rows.iter().find_map(|r| r.first_error.clone())
            );
            assert!(adapter::json_parses(&report.to_json(&env).render()));
        }
        assert!(
            untraced.end_to_end.iter().all(|m| m.2.is_some()),
            "{:?}",
            untraced.end_to_end
        );
        assert!(traced
            .per_layer
            .iter()
            .any(|m| m.0 == "runtime.lrpd_us" && m.2.is_some()));
        assert!(std::path::Path::new(traced.trace_file.as_deref().expect("written")).exists());
    }

    #[test]
    fn the_contract_line_has_exactly_its_four_keys_and_no_nulls() {
        let report = Report {
            spec: workload::spec("hot_small", true).expect("spec"),
            traced: true,
            seed: 1,
            seconds: 1.0,
            smoke: true,
            end_to_end: Vec::new(),
            per_layer: vec![
                ("trace.fragment_us", "us", None),
                ("ir.parse_us", "us", Some(2.5)),
            ],
            rows: Vec::new(),
            attempted: 3,
            failed: 0,
            trace_file: None,
        };
        assert_eq!(
            report.driver_line().render(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"trace.fragment_us\": {\"value\": 0, \"unit\": \"us\"}, \"ir.parse_us\": {\"value\": 2.5, \"unit\": \"us\"}}}"
        );
    }
}
