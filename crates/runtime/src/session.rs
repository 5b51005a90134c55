//! `Session` — the one configured entry point to the runtime.
//!
//! The paper's pipeline (analyze → cascade predicates → parallel
//! execute → measure) is exposed as methods on a [`Session`]: a
//! builder owns **all** configuration ([`SessionConfig`]: pool width,
//! predicate fork threshold, fission, observer, analysis options) plus
//! the shared mutable state — the per-machine compile caches and the
//! [`lip_pred::PredEngine`] with its verdict memo.
//!
//! There is one execution path: loops run as fused `lip_vm` bytecode,
//! cascade predicates on the compiled `lip_pred` engine. The
//! tree-walking `lip_ir::Machine` and `Pdag::eval` are what the
//! differential suites compare a session against, not configuration.
//!
//! Two sessions are fully isolated: each owns its own cache registry,
//! so two callers in one process can run differently configured
//! sessions concurrently and still produce bit-identical tables
//! (verdicts and charged work units never depend on the configuration,
//! only wall-clock does).
//!
//! Environment variables remain supported, but they are read in
//! exactly one place — [`SessionConfig::from_env`] — with *strict*
//! parsing: `LIP_FISSION=maybe` is a [`ConfigError`], never a silent
//! fallback to the default.
//!
//! ```
//! use lip_runtime::Session;
//!
//! let session = Session::builder()
//!     .nthreads(8)
//!     .par_min(1024)
//!     .build();
//! assert_eq!(session.config().nthreads, 8);
//! ```

use std::sync::{Arc, Mutex, OnceLock, Weak};

use lip_analysis::{analyze_loop, AnalysisConfig, LoopAnalysis};
use lip_ir::{Machine, Program, RunError, Stmt, Store, Subroutine};
use lip_obs::{LoopDecision, MetricsSnapshot, Obs, ObsLevel, TraceEvent};
use lip_symbolic::Sym;

use crate::backend::ExecEnv;
use crate::cache::MachineCache;
use crate::exec::RunStats;
use crate::lrpd::LrpdOutcome;

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
    /// both sides of the seam: [`Session::analyze`] plans distribution
    /// for cascade-fail loops, and [`Session::run_loop`] honors those
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
    /// folded in so `Session::analyze` needs no extra argument; its
    /// own `fission` flag is overridden by the session-level knob
    /// above).
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
    /// [`Session::analyze`] (whether distribution plans are built for
    /// cascade-fail loops) and [`Session::run_loop`] (whether carried
    /// plans are honored). Environment equivalent: `LIP_FISSION`.
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

    /// Static-analysis options used by [`Session::analyze`].
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
            caches: Mutex::new(Vec::new()),
        }
    }
}

/// A configured runtime session: the single entry point for analyzing,
/// executing and measuring loops. See the [module docs](self) for the
/// design rationale.
///
/// The session owns the per-machine compile caches (bytecode programs,
/// lowered blocks, compiled predicates, verdict memos) and the
/// configuration of the fork-join pool, so repeated invocations skip
/// straight to execution (the warm path whose saving `bench_e2e`
/// reports as `runtime.cache_cold_us`).
pub struct Session {
    cfg: SessionConfig,
    /// The session-wide observability handle: metrics registry, trace
    /// recorder and per-loop decision store, shared (cloned) into every
    /// cache and execution environment this session creates.
    obs: Obs,
    /// Per-program caches, keyed by program-handle identity; weak so
    /// caches die with their programs.
    caches: Mutex<Vec<(Weak<Program>, Arc<MachineCache>)>>,
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

    /// The compilation/predicate cache for `machine`'s program within
    /// this session, created on first use. Machines cloned from one
    /// another (tracer-instrumented copies) share one cache; distinct
    /// programs — and distinct sessions — never collide.
    pub fn cache(&self, machine: &Machine) -> Arc<MachineCache> {
        let handle = machine.program_handle();
        let mut reg = self.caches.lock().expect("session cache lock");
        reg.retain(|(w, _)| w.strong_count() > 0);
        for (w, cache) in reg.iter() {
            if let Some(p) = w.upgrade() {
                if Arc::ptr_eq(&p, &handle) {
                    return cache.clone();
                }
            }
        }
        let cache = Arc::new(MachineCache::new(
            self.cfg.par_min,
            self.cfg.fission,
            self.obs.clone(),
        ));
        reg.push((Arc::downgrade(&handle), cache.clone()));
        cache
    }

    /// The execution environment threaded through the internal drivers
    /// (cache, pool width, observer).
    pub(crate) fn exec_env<'a>(&'a self, cache: &'a MachineCache, nthreads: usize) -> ExecEnv<'a> {
        ExecEnv {
            cache,
            nthreads: nthreads.max(1),
            obs: &self.obs,
        }
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
    /// `label`, if [`Session::run_loop`] analyzed-and-ran it at
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
        let mut cfg = self.cfg.analysis.clone();
        cfg.fission = self.cfg.fission;
        cfg.obs = self.obs.clone();
        analyze_loop(prog, sub_name, label, &cfg)
    }

    /// Runs the analyzed loop against `frame`: CIV traces, predicate
    /// cascade, then parallel / speculative / sequential execution —
    /// all under this session's configuration (paper §5).
    ///
    /// # Errors
    ///
    /// Propagates VM failures, [`RunError::Unsupported`] included.
    pub fn run_loop(
        &self,
        machine: &Machine,
        sub: &Subroutine,
        target: &Stmt,
        analysis: &LoopAnalysis,
        frame: &mut Store,
    ) -> Result<RunStats, RunError> {
        let cache = self.cache(machine);
        crate::exec::run_loop_impl(
            &self.exec_env(&cache, self.cfg.nthreads),
            machine,
            sub,
            target,
            analysis,
            frame,
        )
    }

    /// Materializes CIV traces by running the loop slice (CIV-COMP,
    /// paper §3.3). Returns the slice's
    /// work-unit cost; traces are bound into `frame` under the trace
    /// array names, and `niters_sym` (for while loops) receives the
    /// trip count.
    ///
    /// # Errors
    ///
    /// Propagates VM failures from the slice execution
    /// ([`RunError::Unsupported`] for a program beyond the VM's limits).
    pub fn civ_traces(
        &self,
        machine: &Machine,
        sub: &Subroutine,
        target: &Stmt,
        civs: &[(Sym, Sym)],
        frame: &mut Store,
        niters_sym: Option<Sym>,
    ) -> Result<u64, RunError> {
        let cache = self.cache(machine);
        crate::civ::compute_civ_traces_impl(
            &self.exec_env(&cache, self.cfg.nthreads),
            machine,
            sub,
            target,
            civs,
            frame,
            niters_sym,
        )
    }

    /// Speculatively executes the DO loop in parallel under LRPD
    /// shadow monitoring, restoring and re-running sequentially on
    /// conflict. Returns the outcome and accumulated work units.
    ///
    /// # Errors
    ///
    /// Propagates VM errors from either run; [`RunError::Unsupported`]
    /// for a non-`DO` target or a program beyond the VM's limits.
    pub fn lrpd_execute(
        &self,
        machine: &Machine,
        sub: &Subroutine,
        target: &Stmt,
        frame: &Store,
        arrays: &[Sym],
    ) -> Result<(LrpdOutcome, u64), RunError> {
        let cache = self.cache(machine);
        crate::lrpd::lrpd_execute_impl(
            &self.exec_env(&cache, self.cfg.nthreads),
            machine,
            sub,
            target,
            frame,
            arrays,
        )
    }

    /// Executes the loop once sequentially (mutating `frame`) and
    /// returns the per-iteration work-unit costs — the raw material
    /// for makespans at any processor count.
    ///
    /// # Errors
    ///
    /// Propagates VM failures, [`RunError::Unsupported`] included.
    pub fn per_iteration_costs(
        &self,
        machine: &Machine,
        sub: &Subroutine,
        target: &Stmt,
        frame: &mut Store,
    ) -> Result<Vec<u64>, RunError> {
        let cache = self.cache(machine);
        crate::sim::per_iteration_costs_impl(
            &self.exec_env(&cache, self.cfg.nthreads),
            machine,
            sub,
            target,
            frame,
        )
    }
}

/// Names `bench_e2e/src/adapter.rs` still spells out, kept only until
/// a `benchmark` PR (the only kind that may edit that file) drops them:
/// three one-value enums and three builder calls that change nothing —
/// a session has no engine to select. Nothing else in the workspace
/// uses them; they go together with the `backend`/`opt`/`pred` wire
/// arms of `lip_serve::config::session_config_from_pairs`.
pub mod compat {
    use super::SessionBuilder;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(Arc::ptr_eq(&s1.cache(&m1), &s1.cache(&m2)));
        assert!(!Arc::ptr_eq(&s1.cache(&m1), &s1.cache(&m3)));
        assert!(!Arc::ptr_eq(&s1.cache(&m1), &s2.cache(&m1)));
    }
}
