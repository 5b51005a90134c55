//! `Session` — the one configured entry point to the runtime.
//!
//! The paper's pipeline (analyze → cascade predicates → parallel
//! execute → measure) runs through a [`Session`], whose builder owns
//! **all** configuration ([`SessionConfig`]: pool width, predicate fork
//! threshold, fission, observer, analysis options). `Session::load`
//! gives a program its compile cache and [`crate::Loaded::prepare`]
//! resolves a loop once, so every later run pays only test and
//! execution:
//!
//! ```
//! use lip_runtime::{ExecOutcome, Session};
//! use lip_symbolic::sym;
//!
//! let prog = lip_ir::parse_program(
//!     "SUBROUTINE kernel(A, N, M)
//!        DIMENSION A(*)
//!        INTEGER i, N, M
//!        DO main_loop i = 1, N
//!          A(i) = A(i + M) + 1.0
//!        ENDDO
//!      END",
//! );
//! let session = Session::builder().nthreads(2).build();
//! let main_loop = session.load(prog.unwrap()).prepare(sym("kernel"), "main_loop").unwrap();
//!
//! let mut frame = lip_ir::Store::new();
//! frame.set_int(sym("N"), 1000).set_int(sym("M"), 1000);
//! frame.alloc_real(sym("A"), 2000);
//! // Independent iff M >= N: an O(1) test passes, the loop runs parallel.
//! let stats = main_loop.run(&mut frame)?;
//! assert!(matches!(stats.outcome, ExecOutcome::PredicatePassed { .. }));
//! # Ok::<(), lip_ir::RunError>(())
//! ```
//!
//! There is one execution path: loops run as fused `lip_vm` bytecode,
//! cascade predicates on the compiled `lip_pred` engine. The
//! tree-walking `lip_ir::Machine` and `Pdag::eval` are what the
//! differential suites compare a session against, not configuration.
//!
//! Two sessions are fully isolated: each load owns its own caches, so
//! two callers in one process can run differently configured sessions
//! concurrently and still produce bit-identical tables (verdicts and
//! charged work units never depend on the configuration, only
//! wall-clock does).
//!
//! Environment variables remain supported, but they are read in
//! exactly one place — [`SessionConfig::from_env`] — with *strict*
//! parsing: `LIP_FISSION=maybe` is a [`ConfigError`], never a silent
//! fallback to the default.

use std::sync::{Arc, Mutex, OnceLock, Weak};

use lip_analysis::{analyze_loop, AnalysisConfig, LoopAnalysis};
use lip_ir::Program;
use lip_obs::{LoopDecision, MetricsSnapshot, Obs, ObsLevel, TraceEvent};
use lip_symbolic::Sym;

use crate::cache::ProgramCache;

/// All configuration a [`Session`] owns. Construct via
/// [`Session::builder`], [`SessionConfig::default`] or
/// [`SessionConfig::from_env`].
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Fork-join pool width for parallel execution and O(N) predicate
    /// evaluation (defaults to the host's available parallelism).
    pub nthreads: usize,
    /// Trip-count threshold past which quantified O(N) predicate
    /// stages fork across the pool (`LIP_PRED_PAR_MIN`; must be ≥ 1).
    pub par_min: i64,
    /// Loop-fission rescue pass (`LIP_FISSION`; default on). Governs
    /// both sides of the seam: analysis plans distribution for
    /// cascade-fail loops, and [`crate::LoopHandle::run`] honors those
    /// plans. Off = classic whole-loop behavior (the ablation leg).
    pub fission: bool,
    /// Observability level (`LIP_OBS`; default off). `metrics` turns
    /// on the counter/histogram registry (cheap aggregates only);
    /// `trace` additionally records timestamped span/event streams,
    /// per-loop decision reports ([`Session::explain`]) and the VM's
    /// per-op dispatch counters. Off is free: every instrumentation
    /// site guards on one branch and execution semantics never depend
    /// on the level.
    pub obs: ObsLevel,
    /// Static-analysis options ([`lip_analysis::AnalysisConfig`],
    /// folded in so analysis needs no extra argument; its own
    /// `fission` flag is overridden by the session-level knob above).
    pub analysis: AnalysisConfig,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        // Asked once per process: the answer is a `sched_getaffinity`
        // plus a cgroup read, and a served request builds a default
        // configuration before it applies its own pairs.
        static NPROC: OnceLock<usize> = OnceLock::new();
        SessionConfig {
            nthreads: *NPROC.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            par_min: lip_pred::engine::DEFAULT_PAR_MIN,
            fission: true,
            obs: ObsLevel::Off,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// A rejected configuration value (strict parsing: unknown values are
/// errors, not silent fallbacks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable (or builder field) that failed to parse.
    pub var: String,
    /// Why the value was rejected.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.var, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// The environment variables [`SessionConfig::from_env`] honors.
const ENV_VARS: [&str; 3] = ["LIP_PRED_PAR_MIN", "LIP_FISSION", "LIP_OBS"];

impl SessionConfig {
    /// Reads the `LIP_*` environment variables — the **only** place in
    /// the workspace that does. Unset variables keep their defaults;
    /// set-but-invalid values are a [`ConfigError`] (e.g.
    /// `LIP_OBS=tracing`, `LIP_PRED_PAR_MIN=0`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on the first variable whose value does
    /// not parse strictly.
    pub fn from_env() -> Result<SessionConfig, ConfigError> {
        let mut cfg = SessionConfig::default();
        for var in ENV_VARS {
            if let Ok(value) = std::env::var(var) {
                cfg.apply(var, &value)?;
            }
        }
        Ok(cfg)
    }

    /// Applies one `variable = value` pair under the same strict rules
    /// as [`SessionConfig::from_env`] (exposed so the per-variable
    /// parsers are unit-testable without touching the process
    /// environment).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an unknown variable or a value that
    /// does not parse.
    pub fn apply(&mut self, var: &str, value: &str) -> Result<(), ConfigError> {
        let err = |reason: String| ConfigError {
            var: var.to_owned(),
            reason,
        };
        match var {
            "LIP_PRED_PAR_MIN" => self.par_min = parse_par_min(value).map_err(err)?,
            "LIP_FISSION" => self.fission = parse_switch(value).map_err(err)?,
            "LIP_OBS" => self.obs = value.parse().map_err(err)?,
            other => {
                return Err(ConfigError {
                    var: other.to_owned(),
                    reason: format!(
                        "unknown configuration variable (expected one of {ENV_VARS:?})"
                    ),
                })
            }
        }
        Ok(())
    }

    /// A stable rendering of every field that changes which warm
    /// [`Session`] can serve a request — the shard key a session pool
    /// (`lip_serve`) buckets by. Two configs with equal shard keys are
    /// interchangeable: same pool width, fork threshold, fission
    /// setting and observability level. The analysis options
    /// are not rendered: the serve layer constructs sessions only from
    /// the wire-configurable fields, which this key covers completely.
    pub fn shard_key(&self) -> String {
        format!(
            "nthreads={} par_min={} fission={} obs={}",
            self.nthreads,
            self.par_min,
            if self.fission { "on" } else { "off" },
            self.obs,
        )
    }
}

fn parse_switch(value: &str) -> Result<bool, String> {
    if value.eq_ignore_ascii_case("on") || value.eq_ignore_ascii_case("true") || value == "1" {
        Ok(true)
    } else if value.eq_ignore_ascii_case("off")
        || value.eq_ignore_ascii_case("false")
        || value == "0"
    {
        Ok(false)
    } else {
        Err(format!(
            "unknown switch value `{value}` (expected on/off, true/false or 1/0)"
        ))
    }
}

fn parse_par_min(value: &str) -> Result<i64, String> {
    match value.parse::<i64>() {
        Ok(v) if v >= 1 => Ok(v),
        Ok(v) => Err(format!(
            "threshold must be at least 1 iteration, got {v} (use 1 to always fork)"
        )),
        Err(_) => Err(format!("not an integer: `{value}`")),
    }
}

/// Builder for [`Session`]; start from [`Session::builder`].
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    cfg: SessionConfig,
}

impl SessionBuilder {
    /// Fork-join pool width (clamped to at least 1).
    #[must_use]
    pub fn nthreads(mut self, nthreads: usize) -> SessionBuilder {
        self.cfg.nthreads = nthreads.max(1);
        self
    }

    /// Trip-count threshold for parallel O(N) predicate evaluation
    /// (clamped to at least 1).
    #[must_use]
    pub fn par_min(mut self, par_min: i64) -> SessionBuilder {
        self.cfg.par_min = par_min.max(1);
        self
    }

    /// Loop-fission rescue pass on/off (default on). Governs both
    /// analysis (whether distribution plans are built for cascade-fail
    /// loops) and [`crate::LoopHandle::run`] (whether carried plans are
    /// honored). Environment equivalent: `LIP_FISSION`.
    #[must_use]
    pub fn fission(mut self, fission: bool) -> SessionBuilder {
        self.cfg.fission = fission;
        self
    }

    /// Observability level (default [`ObsLevel::Off`]). `metrics`
    /// records counters, latency histograms and per-loop decisions
    /// ([`Session::metrics`], [`Session::explain`]); `trace` adds
    /// timestamped span/event streams ([`Session::trace_events`]).
    /// Environment equivalent: `LIP_OBS`.
    #[must_use]
    pub fn observer(mut self, level: ObsLevel) -> SessionBuilder {
        self.cfg.obs = level;
        self
    }

    /// Static-analysis options used by [`crate::Loaded::prepare`] and
    /// [`Session::analyze`].
    #[must_use]
    pub fn analysis(mut self, analysis: AnalysisConfig) -> SessionBuilder {
        self.cfg.analysis = analysis;
        self
    }

    /// Replaces the whole configuration (e.g. one obtained from
    /// [`SessionConfig::from_env`]) before further tweaks.
    #[must_use]
    pub fn config(mut self, cfg: SessionConfig) -> SessionBuilder {
        self.cfg = cfg;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Session {
        Session {
            obs: Obs::with_level(self.cfg.obs),
            cfg: self.cfg,
            compat: Mutex::new(Vec::new()),
        }
    }
}

/// A configured runtime session: the single entry point for analyzing,
/// executing and measuring loops. See the [module docs](self) for the
/// design rationale.
///
/// Each [`crate::Loaded`] program it hands out owns its compile cache
/// (bytecode programs, lowered blocks, compiled predicates, verdict
/// memos) under the session's configuration, so repeated invocations
/// skip straight to execution (the warm path whose saving `bench_e2e`
/// reports as `runtime.cache_cold_us`).
pub struct Session {
    cfg: SessionConfig,
    /// The session-wide observability handle: metrics registry, trace
    /// recorder and per-loop decision store, shared (cloned) into every
    /// cache this session creates.
    obs: Obs,
    /// Where the [`compat`] wrappers find a machine's cache: keyed by
    /// program-handle identity, weak so caches die with their programs.
    compat: Mutex<Vec<(Weak<Program>, Arc<ProgramCache>)>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::builder().build()
    }
}

impl Session {
    /// A builder with the defaults (host parallelism, fission on).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session configured from the `LIP_*` environment variables
    /// (via [`SessionConfig::from_env`] — strict parsing).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a set variable does not parse.
    pub fn from_env() -> Result<Session, ConfigError> {
        Ok(Session::builder()
            .config(SessionConfig::from_env()?)
            .build())
    }

    /// This session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The analysis options with the session's fission knob and
    /// observer folded in.
    pub(crate) fn analysis_config(&self) -> AnalysisConfig {
        let mut cfg = self.cfg.analysis.clone();
        cfg.fission = self.cfg.fission;
        cfg.obs = self.obs.clone();
        cfg
    }

    /// The session's observability handle (counters, spans, recorded
    /// decisions). Always present; a no-op unless the session was
    /// built with [`SessionBuilder::observer`] or `LIP_OBS`.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A snapshot of every counter and latency histogram the session
    /// has accumulated so far (empty when observability is off).
    /// Serializable via [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The trace event stream recorded so far (non-empty only at
    /// [`ObsLevel::Trace`]).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.obs.trace_events()
    }

    /// The recorded span/event stream as a Chrome Trace Event JSON
    /// document — load it at `chrome://tracing` or
    /// <https://ui.perfetto.dev>. One lane per thread: pool workers on
    /// stable `worker <k>` lanes, so a parallel kernel renders as a
    /// multi-lane timeline with per-chunk spans. Empty (but valid)
    /// unless the session runs at [`ObsLevel::Trace`].
    pub fn trace_chrome_json(&self) -> String {
        lip_obs::trace_chrome_json(&self.obs.trace_events())
    }

    /// Folds the recorded span stream into a profile: self/total time
    /// per span name (hottest first) plus a call-path tree, rendered
    /// via [`lip_obs::ProfileReport::render_text`] or `to_json`. Empty
    /// unless the session runs at [`ObsLevel::Trace`].
    pub fn profile(&self) -> lip_obs::ProfileReport {
        lip_obs::ProfileReport::from_events(&self.obs.trace_events())
    }

    /// The recorded decision for the loop labelled (or kernel named)
    /// `label`, if a [`crate::LoopHandle::run`] ran it at
    /// [`ObsLevel::Trace`] (decision records are a trace-level
    /// instrument — they allocate per loop run).
    pub fn explain_decision(&self, label: &str) -> Option<LoopDecision> {
        self.obs.decision(label)
    }

    /// A human-readable per-loop decision report: classification, each
    /// evaluated cascade stage with its verdict and charged units, the
    /// exact-test outcome, the fission plan (fragments and rescued
    /// work fraction) and the executor that finally ran the loop.
    /// `None` when no loop under that label (or kernel name) ran at
    /// [`ObsLevel::Trace`].
    pub fn explain(&self, label: &str) -> Option<String> {
        self.obs.decision(label).map(|d| d.render_text())
    }

    /// Analyzes the loop labelled `label` in subroutine `sub_name`
    /// under this session's [`AnalysisConfig`] (hybrid classification,
    /// cascade construction). Returns `None` when the loop cannot be
    /// found.
    pub fn analyze(&self, prog: &Program, sub_name: Sym, label: &str) -> Option<LoopAnalysis> {
        analyze_loop(prog, sub_name, label, &self.analysis_config())
    }
}

/// Names `bench_e2e/src/adapter.rs` still spells out, kept only until
/// a `benchmark` PR (the only kind that may edit that file) drops them
/// with their callers — ROADMAP item 2's queue, entries (1) and (6):
///
/// 1. three one-value enums and three builder calls that change nothing
///    (a session has no engine to select), with the `backend` / `opt` /
///    `pred` wire arms of `lip_serve::config::session_config_from_pairs`;
/// 6. the `Machine`-taking `Session::{run_loop, civ_traces,
///    lrpd_execute}` and [`crate::inspect`]: second entry points into
///    the drivers a [`crate::LoopHandle`] runs, never second drivers,
///    that find the machine's program's cache in the session's
///    weak-handle registry (a mutex and a scan per call).
pub mod compat {
    use std::sync::Arc;

    use lip_analysis::LoopAnalysis;
    use lip_ir::{ExecState, Machine, RunError, Stmt, Store, Subroutine};
    use lip_symbolic::{sym, Sym};

    use super::{Session, SessionBuilder};
    use crate::backend::{do_body, DoShape, ExecEnv};
    use crate::cache::ProgramCache;
    use crate::exec::{run_seq_do, BodyPlan, ExecOutcome, RunStats};
    use crate::lrpd::LrpdOutcome;

    /// The execution engine: fused `lip_vm` bytecode.
    #[derive(Copy, Clone, Debug)]
    pub enum Backend {
        /// The only engine a session runs.
        Bytecode,
    }

    /// The bytecode post-pass: superinstruction fusion.
    #[derive(Copy, Clone, Debug)]
    pub enum OptLevel {
        /// The only stream a session runs.
        Fuse,
    }

    /// The predicate engine: compiled `lip_pred` programs.
    #[derive(Copy, Clone, Debug)]
    pub enum PredBackend {
        /// The only engine a session runs.
        Compiled,
    }

    /// The verdict of the inspector's dry run.
    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    pub enum InspectVerdict {
        /// No cross-iteration conflicts: the loop may run in parallel.
        Independent,
        /// Conflicts observed: run sequentially.
        Dependent,
    }

    /// LRPD's marking run of the DO loop `target` on one chunk and on
    /// disposable copies of `arrays` (`frame` untouched): the verdict and
    /// the work units. The program compiles per call.
    ///
    /// # Errors
    ///
    /// VM failures; [`RunError::Unsupported`] for a target other than a
    /// DO with step 1.
    pub fn inspect(
        machine: &Machine,
        sub: &Subroutine,
        target: &Stmt,
        frame: &Store,
        arrays: &[Sym],
    ) -> Result<(InspectVerdict, u64), RunError> {
        let one_chunk = Session::builder().nthreads(1).build();
        let (conflict, units) =
            one_chunk.compat_env(machine, |env| match lrpd_shape(env, sub, target, frame)? {
                shape if shape.step == 1 => {
                    crate::lrpd::dry_run(env, sub, &shape, do_body(target), frame, arrays)
                }
                _ => Err(RunError::Unsupported(sym(
                    "the dry run takes a DO with step 1",
                ))),
            })?;
        let verdict = if conflict {
            InspectVerdict::Dependent
        } else {
            InspectVerdict::Independent
        };
        Ok((verdict, units))
    }

    /// `target`'s shape, for LRPD and the inspector.
    fn lrpd_shape(
        env: &ExecEnv<'_>,
        sub: &Subroutine,
        target: &Stmt,
        frame: &Store,
    ) -> Result<DoShape, RunError> {
        let shape = env.do_shape(sub, target, frame, &mut ExecState::default())?;
        shape.ok_or(RunError::Unsupported(sym(
            "LRPD speculation takes a DO loop",
        )))
    }

    impl SessionBuilder {
        /// No effect.
        #[must_use]
        pub fn backend(self, _: Backend) -> SessionBuilder {
            self
        }

        /// No effect.
        #[must_use]
        pub fn opt_level(self, _: OptLevel) -> SessionBuilder {
            self
        }

        /// No effect.
        #[must_use]
        pub fn pred(self, _: PredBackend) -> SessionBuilder {
            self
        }
    }

    impl Session {
        /// [`crate::LoopHandle::run`] on `target` of `machine`'s program.
        ///
        /// # Errors
        ///
        /// VM failures, [`RunError::Unsupported`] included.
        pub fn run_loop(
            &self,
            machine: &Machine,
            sub: &Subroutine,
            target: &Stmt,
            analysis: &LoopAnalysis,
            frame: &mut Store,
        ) -> Result<RunStats, RunError> {
            self.compat_env(machine, |env| {
                crate::exec::run_loop_impl(env, sub, target, analysis, frame)
            })
        }

        /// CIV-COMP (paper §3.3) for `civs`, the trip count of a WHILE
        /// into `niters_sym`: the slice's work units.
        ///
        /// # Errors
        ///
        /// VM failures from the slice.
        pub fn civ_traces(
            &self,
            machine: &Machine,
            sub: &Subroutine,
            target: &Stmt,
            civs: &[(Sym, Sym)],
            frame: &mut Store,
            niters_sym: Option<Sym>,
        ) -> Result<u64, RunError> {
            self.compat_env(machine, |env| {
                // The bounds on a state of their own: the slice charges
                // them from the shape, as the plan's does.
                let shape = env.do_shape(sub, target, frame, &mut ExecState::default())?;
                let (shape, niters, state) = (shape.as_ref(), niters_sym, ExecState::default());
                crate::civ::civ_traces(env, sub, target, shape, civs, frame, niters, state)
            })
        }

        /// LRPD speculation on the DO loop `target`, monitoring `arrays`:
        /// the outcome and the work units. A step other than 1 runs
        /// sequentially instead, and trivially commits.
        ///
        /// # Errors
        ///
        /// VM failures; [`RunError::Unsupported`] for a non-`DO` target.
        pub fn lrpd_execute(
            &self,
            machine: &Machine,
            sub: &Subroutine,
            target: &Stmt,
            frame: &Store,
            arrays: &[Sym],
        ) -> Result<(LrpdOutcome, u64), RunError> {
            self.compat_env(machine, |env| {
                let frame = &mut frame.clone();
                let (shape, body) = (lrpd_shape(env, sub, target, frame)?, do_body(target));
                if shape.step != 1 {
                    let units = run_seq_do(env, sub, &shape, body, frame)?;
                    return Ok((LrpdOutcome::Committed, 1 + shape.units + units));
                }
                let plan = BodyPlan::default();
                let (out, units) =
                    crate::lrpd::lrpd_execute_impl(env, sub, &shape, body, frame, arrays, &plan)?;
                let chunked = ExecOutcome::Speculated(out.clone()).ran_in_chunks();
                Ok((out, u64::from(!chunked) + shape.units + units))
            })
        }

        /// Runs `f` on `machine`'s program with its cache in this
        /// session, created on first use: machines cloned from one
        /// another share one, distinct programs and sessions never do.
        pub(crate) fn compat_env<R>(
            &self,
            machine: &Machine,
            f: impl FnOnce(&ExecEnv<'_>) -> R,
        ) -> R {
            let handle = machine.program_handle();
            let mut reg = self.compat.lock().expect("session cache lock");
            reg.retain(|(w, _)| w.strong_count() > 0);
            let cache = match reg.iter().find(|(w, _)| w.as_ptr() == Arc::as_ptr(&handle)) {
                Some((_, cache)) => cache.clone(),
                None => {
                    let cache = Arc::new(ProgramCache::new(&self.cfg, self.obs.clone()));
                    reg.push((Arc::downgrade(&handle), cache.clone()));
                    cache
                }
            };
            drop(reg);
            f(&ExecEnv {
                machine,
                cache: &cache,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::compat::{inspect, InspectVerdict};
    use super::*;
    use lip_ir::{Machine, Store, Value};
    use lip_symbolic::sym;

    #[test]
    fn builder_sets_every_field() {
        let s = Session::builder()
            .nthreads(3)
            .par_min(64)
            .fission(false)
            .build();
        let c = s.config();
        assert_eq!(c.nthreads, 3);
        assert_eq!(c.par_min, 64);
        assert!(!c.fission);
        // Fission is on by default.
        assert!(SessionConfig::default().fission);
    }

    #[test]
    fn builder_clamps_degenerate_values() {
        let s = Session::builder().nthreads(0).par_min(0).build();
        assert_eq!(s.config().nthreads, 1);
        assert_eq!(s.config().par_min, 1);
    }

    // One strict-parsing unit test per environment variable (without
    // touching the process environment — `apply` is the seam).

    #[test]
    fn lip_pred_par_min_parses_strictly() {
        let mut cfg = SessionConfig::default();
        cfg.apply("LIP_PRED_PAR_MIN", "2048").expect("valid");
        assert_eq!(cfg.par_min, 2048);
        cfg.apply("LIP_PRED_PAR_MIN", "1").expect("valid");
        assert_eq!(cfg.par_min, 1);
        // Zero, negative and non-numeric are all errors.
        for bad in ["0", "-5", "many", "1e3", ""] {
            let err = cfg.apply("LIP_PRED_PAR_MIN", bad).unwrap_err();
            assert_eq!(err.var, "LIP_PRED_PAR_MIN", "{bad}");
        }
        assert_eq!(cfg.par_min, 1);
    }

    #[test]
    fn lip_fission_parses_strictly() {
        let mut cfg = SessionConfig::default();
        for on in ["on", "ON", "true", "1"] {
            cfg.fission = false;
            cfg.apply("LIP_FISSION", on).expect("valid");
            assert!(cfg.fission, "{on}");
        }
        for off in ["off", "False", "0"] {
            cfg.fission = true;
            cfg.apply("LIP_FISSION", off).expect("valid");
            assert!(!cfg.fission, "{off}");
        }
        let err = cfg.apply("LIP_FISSION", "maybe").unwrap_err();
        assert_eq!(err.var, "LIP_FISSION");
        assert!(err.reason.contains("maybe"), "{err}");
        // The failed apply must not have clobbered the config.
        assert!(!cfg.fission);
    }

    #[test]
    fn lip_obs_parses_strictly() {
        let mut cfg = SessionConfig::default();
        assert_eq!(cfg.obs, ObsLevel::Off);
        cfg.apply("LIP_OBS", "metrics").expect("valid");
        assert_eq!(cfg.obs, ObsLevel::Metrics);
        cfg.apply("LIP_OBS", "trace").expect("valid");
        assert_eq!(cfg.obs, ObsLevel::Trace);
        cfg.apply("LIP_OBS", "OFF").expect("valid");
        assert_eq!(cfg.obs, ObsLevel::Off);
        // Typos are errors, never a silent fallback to off.
        for bad in ["metrcs", "tracing", "on", "1", ""] {
            let err = cfg.apply("LIP_OBS", bad).unwrap_err();
            assert_eq!(err.var, "LIP_OBS", "{bad}");
            assert!(err.reason.contains("observability"), "{err}");
        }
        assert_eq!(cfg.obs, ObsLevel::Off);
    }

    #[test]
    fn observer_builder_wires_the_session_handle() {
        let s = Session::builder().observer(ObsLevel::Metrics).build();
        assert_eq!(s.config().obs, ObsLevel::Metrics);
        assert!(s.obs().enabled());
        assert!(!s.obs().trace_enabled());
        // Nothing ran yet: empty snapshot, no decisions.
        assert!(s.metrics().counters.is_empty());
        assert!(s.explain("nope").is_none());
        // Off sessions report disabled and stay empty.
        let off = Session::default();
        assert!(!off.obs().enabled());
        assert!(off.metrics().counters.is_empty());
    }

    #[test]
    fn shard_key_separates_configs_that_differ() {
        let base = SessionConfig::default();
        let mut other = base.clone();
        assert_eq!(base.shard_key(), other.shard_key());
        other.nthreads += 1;
        assert_ne!(base.shard_key(), other.shard_key());
        let mut fission_off = base.clone();
        fission_off.fission = false;
        assert_ne!(base.shard_key(), fission_off.shard_key());
        // The key renders every wire-configurable field by name.
        for field in ["nthreads=", "par_min=", "fission=", "obs="] {
            assert!(base.shard_key().contains(field), "{}", base.shard_key());
        }
    }

    #[test]
    fn unknown_variables_are_rejected() {
        let mut cfg = SessionConfig::default();
        let err = cfg.apply("LIP_TYPO", "x").unwrap_err();
        assert!(err.reason.contains("unknown configuration variable"));
    }

    #[test]
    fn sessions_own_disjoint_caches_clones_share_within_one() {
        let src = "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = 1.0
  ENDDO
END
";
        let m1 = Machine::new(lip_ir::parse_program(src).expect("parses"));
        let m2 = m1.clone();
        let m3 = Machine::new(lip_ir::parse_program(src).expect("parses"));
        let s1 = Session::default();
        let s2 = Session::default();
        // The registry holds the caches, so their addresses are stable.
        let cache = |s: &Session, m: &Machine| s.compat_env(m, |env| env.cache as *const _);
        assert_eq!(cache(&s1, &m1), cache(&s1, &m2));
        assert_ne!(cache(&s1, &m1), cache(&s1, &m3));
        assert_ne!(cache(&s1, &m1), cache(&s2, &m1));
    }

    fn inspected(src: &str, frame: &Store) -> (InspectVerdict, u64) {
        let prog = lip_ir::parse_program(src).expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        inspect(&Machine::new(prog), &sub, &target, frame, &[sym("A")]).expect("inspects")
    }

    #[test]
    fn inspection_leaves_shared_state_untouched() {
        let mut frame = Store::new();
        frame.set_int(sym("N"), 32);
        let a = frame.alloc_real(sym("A"), 32);
        for i in 0..32 {
            a.set(i, Value::Real(7.0));
        }
        let (verdict, cost) = inspected(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = A(i) + 1.0
  ENDDO
END
",
            &frame,
        );
        assert_eq!(verdict, InspectVerdict::Independent);
        assert!(cost > 0);
        // Shared A untouched by the dry run.
        for i in 0..32 {
            assert_eq!(a.get_f64(i), 7.0);
        }
    }

    #[test]
    fn conflicting_loop_is_dependent() {
        let mut frame = Store::new();
        frame.set_int(sym("N"), 50);
        frame.alloc_real(sym("A"), 4);
        let (verdict, _) = inspected(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(1) = A(1) + i
  ENDDO
END
",
            &frame,
        );
        assert_eq!(verdict, InspectVerdict::Dependent);
        // The dry run stopped at the second iteration, on its own copy.
        assert_eq!(frame.array(sym("A")).expect("A").get_f64(0), 0.0);
    }
}
