//! Observability substrate for the lip pipeline: structured decision
//! tracing, session metrics, and per-loop `explain` reports.
//!
//! Zero-dependency and in-tree (like the `proptest` stand-in) so
//! every layer of the workspace — analysis, predicate engine, VM,
//! executor, pool — can record what it decided without pulling an
//! external tracing stack into an offline build.
//!
//! Three pieces:
//!
//! - **[`TraceRecorder`]** — span/event tracing with monotonic
//!   timestamps and nested spans, buffering [`TraceEvent`]s in memory;
//!   it exists only at [`ObsLevel::Trace`].
//! - **[`Metrics`]** — a registry of named atomic counters and
//!   fixed-bucket (power-of-two) latency histograms, snapshotted into
//!   a serializable [`MetricsSnapshot`].
//! - **[`LoopDecision`]** — the per-loop decision report behind
//!   `Session::explain`: classification, every cascade stage tried
//!   with cost and verdict, the run's plan ([`PlanReport`]: why it
//!   ran sequentially, each array's treatment, the test units by
//!   component), the fission plan and rescued fraction, and the
//!   executor chosen; rendered as text or JSON.
//!
//! The [`Obs`] handle bundles all three behind an [`ObsLevel`]: every
//! recording call is gated on a single enum compare, so an `Off`
//! handle (the default) costs one predictable branch per *loop
//! invocation* — never per iteration; the VM's per-op counting lives
//! behind a separate monomorphized entry point in `lip_vm`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod profile;

pub use chrome::trace_chrome_json;
pub use profile::ProfileReport;

/// How much the pipeline records.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum ObsLevel {
    /// Nothing: no recorder, counters untouched, no decisions kept.
    /// The default.
    #[default]
    Off,
    /// Cheap aggregates only: counters and latency histograms. No
    /// event stream, no decision records, no per-op dispatch counts —
    /// the instruments that allocate or run per dispatched op are all
    /// trace-level, so `metrics` stays safe to leave on in a service.
    Metrics,
    /// Everything in `Metrics` plus the span/event trace, per-loop
    /// decision records (`Session::explain`) and the VM's per-op
    /// dispatch/fused-op counters.
    Trace,
}

impl FromStr for ObsLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("off") {
            Ok(ObsLevel::Off)
        } else if s.eq_ignore_ascii_case("metrics") {
            Ok(ObsLevel::Metrics)
        } else if s.eq_ignore_ascii_case("trace") {
            Ok(ObsLevel::Trace)
        } else {
            Err(format!(
                "unknown observability level `{s}` (expected `off`, `metrics` or `trace`)"
            ))
        }
    }
}

impl fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Trace => "trace",
        })
    }
}

/// Opaque id pairing a span's `enter` with its `exit`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SpanId(pub u64);

/// Lane ids at or above this mark a pool chunk (`lane = base + chunk
/// index`): stable across forks, so repeated parallel regions land on
/// the same trace lane and chunk imbalance lines up visually. Ordinary
/// threads get small process-unique ids well below it.
pub const WORKER_LANE_BASE: u64 = 1 << 32;

static NEXT_THREAD_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Process-unique id of this OS thread, assigned on first use.
    static THREAD_TID: u64 = NEXT_THREAD_TID.fetch_add(1, Ordering::Relaxed);
    /// An explicit lane override ([`with_lane`]) — how pool chunks get
    /// stable per-chunk-index lanes even though the fork-join pool's
    /// chunks are claimed by whichever thread is free, the caller
    /// included.
    static LANE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The trace lane ("thread id") events recorded on this thread carry:
/// the [`with_lane`] override when inside one, otherwise a small
/// process-unique per-OS-thread id.
pub fn current_tid() -> u64 {
    LANE.with(Cell::get)
        .unwrap_or_else(|| THREAD_TID.with(|t| *t))
}

/// Runs `f` with this thread's trace lane overridden to `lane`. The
/// previous lane is restored from a drop guard, so also when `f`
/// panics: the calling thread and the pool's workers both outlive the
/// region. The fork-join pool wraps each chunk body in
/// `with_lane(WORKER_LANE_BASE + chunk_index, ..)` so every span and
/// event a chunk records lands on that chunk index's lane.
pub fn with_lane<T>(lane: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LANE.with(|l| l.set(self.0));
        }
    }
    let _restore = Restore(LANE.with(|l| l.replace(Some(lane))));
    f()
}

/// What a [`TraceEvent`] marks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Span opened.
    Enter,
    /// Span closed (`detail` carries the outcome).
    Exit,
    /// Point event.
    Event,
}

/// One entry of a [`TraceRecorder`]'s buffer.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created. `Instant` is
    /// globally monotonic, so timestamps recorded from different
    /// threads order correctly on one shared timeline.
    pub at_ns: u64,
    /// The trace lane the event was recorded on ([`current_tid`]):
    /// pool workers carry `WORKER_LANE_BASE + worker index`, everything
    /// else a small per-OS-thread id.
    pub tid: u64,
    /// Span nesting depth *on that lane* at the time of the event.
    pub depth: usize,
    /// Enter/exit/event.
    pub kind: TraceKind,
    /// Span or event name.
    pub name: String,
    /// Free-form detail; the outcome for `Exit`.
    pub detail: String,
}

#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    /// Open spans: id → (name, depth, tid). Depth and lane are captured
    /// at `enter` so `exit` restores the right lane's nesting even if
    /// spans from many workers interleave in the shared buffer.
    open: BTreeMap<u64, (String, usize, u64)>,
    /// Per-lane nesting depth.
    depths: BTreeMap<u64, usize>,
    next: u64,
}

/// The in-memory trace sink behind [`ObsLevel::Trace`]: nested spans
/// with monotonic nanosecond timestamps, cheap to call and shared
/// across the pool's worker threads, drained via
/// [`TraceRecorder::events`].
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    state: Mutex<TraceState>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            start: Instant::now(),
            state: Mutex::new(TraceState::default()),
        }
    }
}

impl TraceRecorder {
    /// A fresh recorder; timestamps count from here.
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Opens a nested span; the returned id must be passed to `exit`.
    pub fn enter(&self, name: &str, detail: &str) -> SpanId {
        let at_ns = self.now_ns();
        let tid = current_tid();
        let mut st = self.state.lock().unwrap();
        let id = st.next;
        st.next += 1;
        let depth = st.depths.get(&tid).copied().unwrap_or(0);
        st.open.insert(id, (name.to_owned(), depth, tid));
        st.events.push(TraceEvent {
            at_ns,
            tid,
            depth,
            kind: TraceKind::Enter,
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
        st.depths.insert(tid, depth + 1);
        SpanId(id)
    }

    /// Closes a span with an outcome (e.g. `pass`, `fail`, a class).
    pub fn exit(&self, id: SpanId, outcome: &str) {
        let at_ns = self.now_ns();
        let mut st = self.state.lock().unwrap();
        let (name, depth, tid) = st.open.remove(&id.0).unwrap_or_else(|| {
            let tid = current_tid();
            let depth = st.depths.get(&tid).copied().unwrap_or(1);
            ("?".to_owned(), depth.saturating_sub(1), tid)
        });
        st.depths.insert(tid, depth);
        st.events.push(TraceEvent {
            at_ns,
            tid,
            depth,
            kind: TraceKind::Exit,
            name,
            detail: outcome.to_owned(),
        });
    }

    /// A point event inside the current span nesting.
    pub fn event(&self, name: &str, detail: &str) {
        let at_ns = self.now_ns();
        let tid = current_tid();
        let mut st = self.state.lock().unwrap();
        let depth = st.depths.get(&tid).copied().unwrap_or(0);
        st.events.push(TraceEvent {
            at_ns,
            tid,
            depth,
            kind: TraceKind::Event,
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// The buffered trace.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().unwrap().events.clone()
    }
}

const HIST_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram: bucket `i` counts values in
/// `(2^(i-1), 2^i]` nanoseconds (bucket 0 holds 0 and 1 ns).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one observation (nanoseconds). The running sum
    /// saturates at `u64::MAX` instead of wrapping — ~584 years of
    /// summed nanoseconds, but a wrapped sum would silently corrupt
    /// every mean derived from the snapshot.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A registry of named counters and latency histograms. Names are
/// created lazily; snapshot order is the (stable) name order.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// Bumps `name` by `n` (creating it at 0 first).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            c.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let mut w = self.counters.write().unwrap();
        w.entry(name.to_owned())
            .or_default()
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records a latency observation under `name` (nanoseconds).
    pub fn record_ns(&self, name: &str, ns: u64) {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            h.record(ns);
            return;
        }
        let mut w = self.histograms.write().unwrap();
        w.entry(name.to_owned()).or_default().record(ns);
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, h)| HistogramSnapshot {
                name: k.clone(),
                count: h.count.load(Ordering::Relaxed),
                sum_ns: h.sum.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| {
                            let upper = if i >= 63 { u64::MAX } else { 1u64 << i };
                            (upper, n)
                        })
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A frozen copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (ns).
    pub sum_ns: u64,
    /// `(upper_bound_ns, count)` for every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (`0.0 ≤ q ≤ 1.0`), or `None` for an empty
    /// histogram. Power-of-two buckets make this an upper estimate
    /// within 2× of the true latency — good enough for the p50/p99
    /// the serve stats and bench report.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(*upper);
            }
        }
        self.buckets.last().map(|(upper, _)| *upper)
    }
}

/// A frozen, serializable copy of a [`Metrics`] registry — what
/// `Session::metrics()` returns and what `lip_serve` will report.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// Histograms in name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of one counter, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Renders the snapshot as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::Writer::render(|w| self.write_json(w))
    }

    /// Writes the snapshot as one JSON object value (what
    /// [`MetricsSnapshot::to_json`] renders), for embedding in a larger
    /// document.
    pub fn write_json(&self, w: &mut json::Writer<'_>) {
        w.begin_obj();
        w.key("counters").begin_obj();
        for (k, v) in &self.counters {
            w.key(k).u64(*v);
        }
        w.end_obj();
        w.key("histograms").begin_arr();
        for h in &self.histograms {
            w.begin_obj();
            w.key("name").str(&h.name);
            w.key("count").u64(h.count);
            w.key("sum_ns").u64(h.sum_ns);
            w.key("buckets").begin_arr();
            for (upper, n) in &h.buckets {
                w.begin_obj();
                w.key("le_ns").u64(*upper);
                w.key("count").u64(*n);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// One cascade stage as the runtime tried it.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Position in the cascade (cheapest first).
    pub index: usize,
    /// Stage complexity exponent (0 = O(1), 1 = O(N), …).
    pub complexity: u32,
    /// Work units charged evaluating it.
    pub cost_units: u64,
    /// The predicate rendered (from `lip_core`'s cascade), when known.
    pub predicate: Option<String>,
    /// `Some(true)` passed, `Some(false)` failed, `None` undecided /
    /// not evaluated.
    pub verdict: Option<bool>,
}

/// One fragment of a fission plan as executed.
#[derive(Clone, Debug)]
pub struct FragmentReport {
    /// Fragment label (`<loop>~f<k>`).
    pub label: String,
    /// The fragment's own classification, rendered.
    pub class: String,
    /// Whether it actually ran parallel.
    pub parallel: bool,
    /// Work units the fragment accounts for.
    pub units: u64,
    /// Work units charged to the fragment's own runtime tests (CIV
    /// slice, cascade stages, exact test).
    pub test_units: u64,
    /// The fragment's own cascade stages, in the order tried (empty
    /// when the fragment was decided statically).
    pub stages: Vec<StageReport>,
    /// Verdict of the fragment's hoisted exact USR test, when it ran.
    pub exact_test: Option<bool>,
    /// Work units that exact test counted (charged on hit and miss).
    pub exact_units: u64,
    /// Whether its verdict came out of the session's memo.
    pub exact_memo_hit: bool,
    /// The fragment's plan: sequential reason, arrays, test units.
    pub plan: PlanReport,
}

/// What a run tested before it ran, by component: work units, `None`
/// for a test that did not run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TestUnits {
    /// The CIV slice, which binds the traces the tests and the chunks
    /// read (and a WHILE's trip count).
    pub slice: Option<u64>,
    /// The cascade stages evaluated.
    pub stages: Option<u64>,
    /// The exact test (charged on a memo hit as on a miss).
    pub exact: Option<u64>,
    /// A fissioned run's fragments' own tests.
    pub fragments: u64,
}

impl TestUnits {
    /// Every component's units.
    pub fn total(&self) -> u64 {
        let ran = [self.slice, self.stages, self.exact];
        ran.iter().flatten().sum::<u64>() + self.fragments
    }
}

/// A run's plan as a decision record shows it.
#[derive(Clone, Debug, Default)]
pub struct PlanReport {
    /// Why the run was sequential, when it was so planned.
    pub sequential_reason: Option<String>,
    /// Each array's treatment on a chunked run: `(array, treatment)`.
    pub arrays: Vec<(String, String)>,
    /// What the tests charged, by component.
    pub units: TestUnits,
}

impl PlanReport {
    /// The report's text lines, each after `indent`.
    fn render(&self, indent: &str, out: &mut String) {
        if let Some(why) = &self.sequential_reason {
            out.push_str(&format!("{indent}sequential: {why}\n"));
        }
        if !self.arrays.is_empty() {
            let arrays: Vec<String> = (self.arrays.iter())
                .map(|(a, t)| format!("{a} {t}"))
                .collect();
            out.push_str(&format!("{indent}arrays: {}\n", arrays.join(", ")));
        }
        let u = &self.units;
        if u.slice.or(u.stages).or(u.exact).is_some() || u.fragments > 0 {
            let part = |v: Option<u64>| v.map_or("-".to_owned(), |v| v.to_string());
            let (slice, stages, exact) = (part(u.slice), part(u.stages), part(u.exact));
            out.push_str(&format!(
                "{indent}test units: slice {slice}, stages {stages}, exact {exact}"
            ));
            if u.fragments > 0 {
                out.push_str(&format!(", fragments {}", u.fragments));
            }
            out.push('\n');
        }
    }

    /// The report's members of a loop or fragment JSON object.
    fn json(&self, w: &mut json::Writer<'_>) {
        w.key("sequential_reason")
            .opt_str(self.sequential_reason.as_deref());
        w.key("arrays").begin_arr();
        for (a, t) in &self.arrays {
            w.begin_obj();
            w.key("array").str(a);
            w.key("treatment").str(t);
            w.end_obj();
        }
        w.end_arr();
        let u = &self.units;
        w.key("test_units_by").begin_obj();
        w.key("slice").opt_u64(u.slice);
        w.key("stages").opt_u64(u.stages);
        w.key("exact").opt_u64(u.exact);
        w.key("fragments").u64(u.fragments);
        w.end_obj();
    }
}

/// The fission rescue as planned and executed for one loop.
#[derive(Clone, Debug)]
pub struct FissionReport {
    /// Fragments in execution order.
    pub fragments: Vec<FragmentReport>,
    /// Work units that ran parallel.
    pub rescued_units: u64,
    /// Total loop work units.
    pub loop_units: u64,
}

impl FissionReport {
    /// Fraction of the loop's work rescued into parallel fragments.
    pub fn rescued_fraction(&self) -> f64 {
        if self.loop_units == 0 {
            0.0
        } else {
            self.rescued_units as f64 / self.loop_units as f64
        }
    }
}

/// The per-loop decision report behind `Session::explain`: what the
/// analysis concluded, every runtime test tried with cost and verdict,
/// the fission plan, and the executor finally chosen.
#[derive(Clone, Debug)]
pub struct LoopDecision {
    /// The loop's label (decision key).
    pub label: String,
    /// Optional display name (e.g. the suite kernel name) — a second
    /// lookup key.
    pub kernel: Option<String>,
    /// The classification, rendered (`StaticParallel`, `Predicated
    /// { .. }`, …).
    pub class: String,
    /// Cascade stages in the order tried.
    pub stages: Vec<StageReport>,
    /// Index of the first passing stage, if any.
    pub passed_stage: Option<usize>,
    /// Verdict of the hoisted exact USR test, when it ran.
    pub exact_test: Option<bool>,
    /// Work units that exact test counted (charged on hit and miss).
    pub exact_units: u64,
    /// Whether its verdict came out of the session's memo.
    pub exact_memo_hit: bool,
    /// The run's plan: sequential reason, arrays, test units.
    pub plan: PlanReport,
    /// The fission rescue, when a plan existed.
    pub fission: Option<FissionReport>,
    /// The executor finally chosen (`parallel`, `sequential`,
    /// `fissioned`, `speculative`, …).
    pub executor: String,
    /// Work units charged to runtime tests.
    pub test_units: u64,
    /// Work units charged to the loop body.
    pub loop_units: u64,
    /// Array elements digested to key the verdict memo for this run.
    pub key_elems: u64,
    /// Wall time spent building those keys (apart from evaluating or
    /// fetching the verdicts they key).
    pub key_ns: u64,
}

impl LoopDecision {
    /// A fresh report for `label` with nothing decided yet.
    pub fn new(label: &str) -> Self {
        LoopDecision {
            label: label.to_owned(),
            kernel: None,
            class: String::new(),
            stages: Vec::new(),
            passed_stage: None,
            exact_test: None,
            exact_units: 0,
            exact_memo_hit: false,
            plan: PlanReport::default(),
            fission: None,
            executor: String::new(),
            test_units: 0,
            loop_units: 0,
            key_elems: 0,
            key_ns: 0,
        }
    }

    /// Human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let name = self.kernel.as_deref().unwrap_or(&self.label);
        out.push_str(&format!("loop {name} (label {})\n", self.label));
        out.push_str(&format!("  classification: {}\n", self.class));
        if self.stages.is_empty() {
            out.push_str("  cascade: none (decided statically)\n");
        } else {
            out.push_str("  cascade:\n");
            for s in &self.stages {
                let verdict = match s.verdict {
                    Some(true) => "PASS",
                    Some(false) => "FAIL",
                    None => "not evaluated",
                };
                let complexity = if s.complexity == 0 {
                    "O(1)".to_owned()
                } else {
                    format!("O(N^{})", s.complexity)
                };
                out.push_str(&format!(
                    "    stage {} [{}] cost {} units: {}",
                    s.index, complexity, s.cost_units, verdict
                ));
                if let Some(p) = &s.predicate {
                    out.push_str(&format!("   {p}"));
                }
                out.push('\n');
            }
        }
        if let Some(line) = exact_line(self.exact_test, self.exact_units, self.exact_memo_hit) {
            out.push_str(&format!("  {line}\n"));
        }
        self.plan.render("  ", &mut out);
        if let Some(f) = &self.fission {
            out.push_str(&format!(
                "  fission: {} fragments, rescued {}/{} units ({:.2})\n",
                f.fragments.len(),
                f.rescued_units,
                f.loop_units,
                f.rescued_fraction()
            ));
            for fr in &f.fragments {
                let share = if f.loop_units == 0 {
                    0.0
                } else {
                    fr.units as f64 / f.loop_units as f64
                };
                out.push_str(&format!(
                    "    {} [{}]: {} ({} units, {:.2} of loop)\n",
                    fr.label,
                    fr.class,
                    if fr.parallel {
                        "parallel"
                    } else {
                        "sequential"
                    },
                    fr.units,
                    share
                ));
                for s in &fr.stages {
                    let verdict = match s.verdict {
                        Some(true) => "PASS",
                        Some(false) => "FAIL",
                        None => "not evaluated",
                    };
                    let complexity = if s.complexity == 0 {
                        "O(1)".to_owned()
                    } else {
                        format!("O(N^{})", s.complexity)
                    };
                    out.push_str(&format!(
                        "      stage {} [{}] cost {} units: {}",
                        s.index, complexity, s.cost_units, verdict
                    ));
                    if let Some(p) = &s.predicate {
                        out.push_str(&format!("   {p}"));
                    }
                    out.push('\n');
                }
                if let Some(line) = exact_line(fr.exact_test, fr.exact_units, fr.exact_memo_hit) {
                    out.push_str(&format!("      {line}\n"));
                }
                fr.plan.render("      ", &mut out);
                out.push_str(&format!(
                    "      {}\n",
                    test_to_loop_line(fr.test_units, fr.units)
                ));
            }
        }
        out.push_str(&format!("  executor: {}\n", self.executor));
        if self.key_ns > 0 {
            out.push_str(&format!(
                "  memo keys: {} elements digested in {:.1} us\n",
                self.key_elems,
                self.key_ns as f64 / 1e3
            ));
        }
        out.push_str(&format!(
            "  {}\n",
            test_to_loop_line(self.test_units, self.loop_units)
        ));
        out
    }

    /// One JSON object (single line; stable key order).
    pub fn to_json(&self) -> String {
        json::Writer::render(|w| {
            w.begin_obj();
            w.key("label").str(&self.label);
            w.key("kernel").opt_str(self.kernel.as_deref());
            w.key("class").str(&self.class);
            w.key("stages");
            stages_json(w, &self.stages);
            w.key("passed_stage")
                .opt_u64(self.passed_stage.map(|s| s as u64));
            exact_json(w, self.exact_test, self.exact_units, self.exact_memo_hit);
            self.plan.json(w);
            w.key("fission");
            match &self.fission {
                None => w.null(),
                Some(f) => {
                    w.begin_obj();
                    w.key("fragments").u64(f.fragments.len() as u64);
                    w.key("parallel_fragments")
                        .u64(f.fragments.iter().filter(|fr| fr.parallel).count() as u64);
                    w.key("rescued_units").u64(f.rescued_units);
                    w.key("loop_units").u64(f.loop_units);
                    w.key("rescued_fraction")
                        .number_fmt(format_args!("{:.3}", f.rescued_fraction()));
                    w.key("per_fragment").begin_arr();
                    for fr in &f.fragments {
                        let share = if f.loop_units == 0 {
                            0.0
                        } else {
                            fr.units as f64 / f.loop_units as f64
                        };
                        w.begin_obj();
                        w.key("label").str(&fr.label);
                        w.key("class").str(&fr.class);
                        w.key("parallel").bool(fr.parallel);
                        w.key("units").u64(fr.units);
                        w.key("test_units").u64(fr.test_units);
                        w.key("share").number_fmt(format_args!("{share:.3}"));
                        w.key("stages");
                        stages_json(w, &fr.stages);
                        exact_json(w, fr.exact_test, fr.exact_units, fr.exact_memo_hit);
                        fr.plan.json(w);
                        w.end_obj();
                    }
                    w.end_arr();
                    w.end_obj();
                }
            }
            w.key("executor").str(&self.executor);
            w.key("test_units").u64(self.test_units);
            w.key("loop_units").u64(self.loop_units);
            w.end_obj();
        })
    }
}

/// The `exact USR test: …` line of a loop or fragment report, when
/// the test ran (a verdict, or units spent without reaching one).
fn exact_line(verdict: Option<bool>, units: u64, memo_hit: bool) -> Option<String> {
    let word = match verdict {
        Some(true) => "independent",
        Some(false) => "dependent",
        None if units > 0 => "undecided",
        None => return None,
    };
    let memo = if memo_hit { "hit" } else { "miss" };
    Some(format!(
        "exact USR test: {word} ({units} units, memo {memo})"
    ))
}

/// `test : loop = T : L units (r)` — what the runtime tests cost next to
/// the work they guarded.
fn test_to_loop_line(test_units: u64, loop_units: u64) -> String {
    let ratio = if loop_units == 0 {
        "-".to_owned()
    } else {
        format!("{:.2}", test_units as f64 / loop_units as f64)
    };
    format!("test : loop = {test_units} : {loop_units} units ({ratio})")
}

/// The three exact-test members of a loop or fragment JSON object.
fn exact_json(w: &mut json::Writer<'_>, verdict: Option<bool>, units: u64, memo_hit: bool) {
    let ran = verdict.is_some() || units > 0;
    w.key("exact_test")
        .opt_str(verdict.map(|v| if v { "independent" } else { "dependent" }));
    w.key("exact_units").u64(units);
    w.key("exact_memo")
        .opt_str(ran.then_some(if memo_hit { "hit" } else { "miss" }));
}

fn stages_json(w: &mut json::Writer<'_>, stages: &[StageReport]) {
    w.begin_arr();
    for s in stages {
        w.begin_obj();
        w.key("index").u64(s.index as u64);
        w.key("complexity").u64(u64::from(s.complexity));
        w.key("cost_units").u64(s.cost_units);
        w.key("verdict")
            .opt_str(s.verdict.map(|v| if v { "pass" } else { "fail" }));
        w.end_obj();
    }
    w.end_arr();
}

/// Escapes `s` as a JSON string literal (quotes included): the escaper
/// of [`json::Writer`] returning a `String`, for callers that splice one
/// string into a document they hold as text (a request built by hand).
pub fn json_str(s: &str) -> String {
    json::Writer::render(|w| w.str(s))
}

/// The shared observability handle: a level, a recorder, a metrics
/// registry and the per-loop decision store. Cloning shares all of
/// them (a `Session` and its caches hold clones of one `Obs`).
#[derive(Clone, Debug)]
pub struct Obs {
    level: ObsLevel,
    /// `Some` exactly at [`ObsLevel::Trace`].
    recorder: Option<Arc<TraceRecorder>>,
    metrics: Arc<Metrics>,
    decisions: Arc<Mutex<BTreeMap<String, LoopDecision>>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl Obs {
    /// The disabled handle: every call one branch.
    pub fn off() -> Self {
        Obs::with_level(ObsLevel::Off)
    }

    /// A handle at `level`: `Trace` buffers spans and events in a
    /// [`TraceRecorder`]; `Metrics`/`Off` keep no stream.
    pub fn with_level(level: ObsLevel) -> Self {
        Obs {
            level,
            recorder: (level == ObsLevel::Trace).then(|| Arc::new(TraceRecorder::new())),
            metrics: Arc::new(Metrics::default()),
            decisions: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The configured level.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Anything at all recorded?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != ObsLevel::Off
    }

    /// Span/event stream recorded?
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.level == ObsLevel::Trace
    }

    /// Bumps a counter (no-op when disabled).
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if self.enabled() {
            self.metrics.add(name, n);
        }
    }

    /// Records a latency observation (no-op when disabled).
    #[inline]
    pub fn record_ns(&self, name: &str, ns: u64) {
        if self.enabled() {
            self.metrics.record_ns(name, ns);
        }
    }

    /// Runs `f`, recording its wall time under `name` when enabled.
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.metrics.record_ns(name, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Opens a span (only at `Trace`); `detail` is built lazily.
    #[inline]
    pub fn span(&self, name: &str, detail: impl FnOnce() -> String) -> Option<SpanId> {
        let recorder = self.recorder.as_ref()?;
        Some(recorder.enter(name, &detail()))
    }

    /// Closes a span opened by [`Obs::span`].
    #[inline]
    pub fn exit_span(&self, id: Option<SpanId>, outcome: &str) {
        if let (Some(id), Some(recorder)) = (id, &self.recorder) {
            recorder.exit(id, outcome);
        }
    }

    /// Runs `f` inside a span named `name` (only at `Trace`; otherwise
    /// just `f`).
    #[inline]
    pub fn in_span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.span(name, String::new);
        let out = f();
        self.exit_span(id, "");
        out
    }

    /// Emits a point event (only at `Trace`); `detail` built lazily.
    #[inline]
    pub fn event(&self, name: &str, detail: impl FnOnce() -> String) {
        if let Some(recorder) = &self.recorder {
            recorder.event(name, &detail());
        }
    }

    /// A frozen copy of the metrics registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The buffered trace (empty below [`ObsLevel::Trace`]).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.recorder.as_ref().map_or_else(Vec::new, |r| r.events())
    }

    /// Stores (or replaces) a decision under its label — and under its
    /// kernel display name too, when set.
    pub fn record_decision(&self, d: LoopDecision) {
        if !self.enabled() {
            return;
        }
        let mut map = self.decisions.lock().unwrap();
        if let Some(k) = &d.kernel {
            map.insert(k.clone(), d.clone());
        }
        map.insert(d.label.clone(), d);
    }

    /// The decision recorded under `label` (loop label or kernel name).
    pub fn decision(&self, label: &str) -> Option<LoopDecision> {
        self.decisions.lock().unwrap().get(label).cloned()
    }

    /// Every recorded decision, deduplicated, in label order.
    pub fn decisions(&self) -> Vec<LoopDecision> {
        let map = self.decisions.lock().unwrap();
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for d in map.values() {
            if !seen.contains(&d.label) {
                seen.push(d.label.clone());
                out.push(d.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_strictly() {
        assert_eq!("off".parse::<ObsLevel>().unwrap(), ObsLevel::Off);
        assert_eq!("metrics".parse::<ObsLevel>().unwrap(), ObsLevel::Metrics);
        assert_eq!("trace".parse::<ObsLevel>().unwrap(), ObsLevel::Trace);
        // Case-insensitive (env vars get shouted), but never fuzzy.
        assert_eq!("Off".parse::<ObsLevel>().unwrap(), ObsLevel::Off);
        assert_eq!("TRACE".parse::<ObsLevel>().unwrap(), ObsLevel::Trace);
        for typo in ["", "metric", "on", "1", "verbose", "trace "] {
            let err = typo.parse::<ObsLevel>().unwrap_err();
            assert!(err.contains("observability level"), "{err}");
        }
        assert_eq!(ObsLevel::Metrics.to_string(), "metrics");
    }

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        obs.count("x", 3);
        obs.record_ns("h", 100);
        let id = obs.span("s", || unreachable!("detail must not be built"));
        obs.exit_span(id, "done");
        obs.event("e", || unreachable!("detail must not be built"));
        obs.record_decision(LoopDecision::new("l"));
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
        assert!(obs.trace_events().is_empty());
        assert!(obs.decision("l").is_none());
    }

    #[test]
    fn metrics_level_counts_without_tracing() {
        let obs = Obs::with_level(ObsLevel::Metrics);
        obs.count("a", 2);
        obs.count("a", 3);
        obs.record_ns("lat", 1000);
        obs.event("e", || unreachable!("no event stream at metrics level"));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.histograms[0].count, 1);
        assert!(obs.trace_events().is_empty());
    }

    #[test]
    fn trace_recorder_nests_spans() {
        let obs = Obs::with_level(ObsLevel::Trace);
        let outer = obs.span("outer", || "o".into());
        let inner = obs.span("inner", || "i".into());
        obs.event("tick", String::new);
        obs.exit_span(inner, "ok");
        obs.exit_span(outer, "done");
        let ev = obs.trace_events();
        assert_eq!(ev.len(), 5);
        assert_eq!((ev[0].depth, ev[0].kind), (0, TraceKind::Enter));
        assert_eq!((ev[1].depth, ev[1].kind), (1, TraceKind::Enter));
        assert_eq!((ev[2].depth, ev[2].kind), (2, TraceKind::Event));
        assert_eq!((ev[3].depth, ev[3].kind), (1, TraceKind::Exit));
        assert_eq!(ev[3].name, "inner");
        assert_eq!(ev[3].detail, "ok");
        assert_eq!((ev[4].depth, ev[4].kind), (0, TraceKind::Exit));
        assert!(ev.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1000);
        h.record(u64::MAX);
        assert_eq!(h.count.load(Ordering::Relaxed), 5);
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_pick_bucket_upper_bounds() {
        let obs = Obs::with_level(ObsLevel::Metrics);
        for _ in 0..98 {
            obs.record_ns("lat", 3); // bucket le 4
        }
        obs.record_ns("lat", 1000); // bucket le 1024
        obs.record_ns("lat", 100_000); // bucket le 131072
        let snap = obs.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.99), Some(1024));
        assert_eq!(h.quantile(1.0), Some(131_072));
        assert_eq!(h.quantile(0.0), Some(4));
        let empty = HistogramSnapshot {
            name: "e".into(),
            count: 0,
            sum_ns: 0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn snapshot_json_is_stable_and_escaped() {
        let obs = Obs::with_level(ObsLevel::Metrics);
        obs.count("b.two", 2);
        obs.count("a.one", 1);
        obs.record_ns("lat\"q", 5);
        let json = obs.snapshot().to_json();
        assert!(json.starts_with("{\"counters\": {\"a.one\": 1, \"b.two\": 2}"));
        assert!(json.contains("\"lat\\\"q\""));
    }

    #[test]
    fn decision_round_trips_both_keys_and_renders() {
        let obs = Obs::with_level(ObsLevel::Metrics);
        let mut d = LoopDecision::new("do20");
        d.kernel = Some("hoist_indirect".into());
        d.class = "Predicated { first_stage_complexity: 1 }".into();
        d.stages.push(StageReport {
            index: 0,
            complexity: 1,
            cost_units: 42,
            predicate: Some("hulls disjoint".into()),
            verdict: Some(false),
        });
        d.exact_test = Some(true);
        d.exact_units = 12;
        d.test_units = 54;
        d.loop_units = 100;
        d.fission = Some(FissionReport {
            fragments: vec![
                FragmentReport {
                    label: "do20~f0".into(),
                    class: "NeedsFallback(HoistUsr)".into(),
                    parallel: true,
                    units: 50,
                    test_units: 16,
                    stages: vec![StageReport {
                        index: 0,
                        complexity: 0,
                        cost_units: 7,
                        predicate: Some("frag hull check".into()),
                        verdict: Some(true),
                    }],
                    exact_test: Some(true),
                    exact_units: 9,
                    exact_memo_hit: true,
                    plan: PlanReport::default(),
                },
                FragmentReport {
                    label: "do20~f1".into(),
                    class: "StaticSequential".into(),
                    parallel: false,
                    units: 50,
                    test_units: 0,
                    stages: Vec::new(),
                    exact_test: None,
                    exact_units: 0,
                    exact_memo_hit: false,
                    plan: PlanReport::default(),
                },
            ],
            rescued_units: 50,
            loop_units: 100,
        });
        d.executor = "fissioned".into();
        obs.record_decision(d);
        let got = obs.decision("hoist_indirect").expect("kernel key");
        assert_eq!(got.label, "do20");
        assert!(obs.decision("do20").is_some());
        assert_eq!(obs.decisions().len(), 1);
        let text = got.render_text();
        assert!(text.contains("stage 0 [O(N^1)] cost 42 units: FAIL"));
        assert!(text.contains("fission: 2 fragments, rescued 50/100 units (0.50)"));
        assert!(
            text.contains("do20~f0 [NeedsFallback(HoistUsr)]: parallel (50 units, 0.50 of loop)")
        );
        assert!(text.contains("      stage 0 [O(1)] cost 7 units: PASS   frag hull check"));
        assert!(text.contains("\n  exact USR test: independent (12 units, memo miss)\n"));
        assert!(text.contains("      exact USR test: independent (9 units, memo hit)\n"));
        assert!(text.contains("      test : loop = 16 : 50 units (0.32)\n"));
        assert!(text.contains("      test : loop = 0 : 50 units (0.00)\n"));
        assert!(text.ends_with("  test : loop = 54 : 100 units (0.54)\n"));
        let json = got.to_json();
        assert!(json.contains("\"verdict\": \"fail\""));
        assert!(json.contains("\"rescued_fraction\": 0.500"));
        assert!(json.contains("\"parallel_fragments\": 1"));
        assert!(json.contains(
            "\"exact_test\": \"independent\", \"exact_units\": 12, \"exact_memo\": \"miss\""
        ));
        assert!(json.contains(
            "\"exact_test\": \"independent\", \"exact_units\": 9, \"exact_memo\": \"hit\""
        ));
        assert!(json.contains("\"exact_test\": null, \"exact_units\": 0, \"exact_memo\": null"));
        assert!(json.contains("\"test_units\": 16"));
        assert!(json.contains("\"share\": 0.500"));
        assert!(json.contains("\"cost_units\": 7"));
    }

    #[test]
    fn decision_without_stages_mentions_static() {
        let mut d = LoopDecision::new("do1");
        d.class = "StaticParallel".into();
        d.executor = "parallel".into();
        let text = d.render_text();
        assert!(text.contains("decided statically"));
        assert!(d.to_json().contains("\"stages\": []"));
    }
}
