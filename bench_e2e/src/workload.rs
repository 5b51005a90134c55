//! The five workloads, and the set-up / timed-pass machinery of the
//! four that drive a `Session` directly (`serve_mix` is in `serve`).
//!
//! A workload is a fixed list of rows (program, size, input variant).
//! A pass runs whole rounds — every row once, in order — until its
//! time is up, so every row gets the same number of operations and
//! machine drift hits all rows alike. Each operation runs on its own
//! deep copy of its input, made before the clock starts, and its
//! results are compared bit for bit with the tree-walk reference after
//! the clock stops.

use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Kernel, Loaded, Observe, ProfileRow, Ran};
use crate::gen::{self, FrameData, Rng, Variant};
use crate::stats::Spans;

/// How a workload turns a row into one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One warm session; op = `run_loop` on an analyzed program.
    Warm,
    /// op = source text → fresh session → parse → analyze → `run_loop`.
    Cold,
    /// op = one request to an in-process `lip_serve` server.
    Serve,
}

#[derive(Clone, Debug)]
pub struct RowSpec {
    pub kernel: &'static str,
    pub n: usize,
    pub variant: Variant,
    /// Every operation gets a never-seen input of the same shape (a
    /// verdict-memo miss); otherwise every operation reuses the base
    /// input (a hit once warm).
    pub fresh: bool,
}

impl RowSpec {
    pub fn name(&self) -> String {
        let variant = if self.variant == Variant::Fail {
            "/fail"
        } else {
            ""
        };
        let fresh = if self.fresh { "/fresh" } else { "" };
        format!("{}{variant}{fresh}", self.kernel)
    }

    /// The name inputs are generated under: a fresh row draws from the
    /// same family as its repeat row.
    fn input_family(&self) -> String {
        RowSpec {
            fresh: false,
            ..self.clone()
        }
        .name()
    }
}

#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub rows: Vec<RowSpec>,
}

pub const WORKLOAD_NAMES: [&str; 5] = [
    "hot_large",
    "hot_small",
    "tests_heavy",
    "cold_pipeline",
    "serve_mix",
];

fn row(kernel: &'static str, n: usize) -> RowSpec {
    RowSpec {
        kernel,
        n,
        variant: Variant::Pass,
        fresh: false,
    }
}

/// A repeat row and a fresh row on the same program, size and variant.
fn tested(kernel: &'static str, n: usize, variant: Variant) -> [RowSpec; 2] {
    [false, true].map(|fresh| RowSpec {
        kernel,
        n,
        variant,
        fresh,
    })
}

/// The workload called `name`. `smoke` shrinks every size so all five
/// run in a few seconds; rows and programs are never dropped.
///
/// Sizes: `hot_large` rows are sized to 10–20 ms per operation at the
/// seed commit on two threads, `hot_small` rows to tens of µs. The
/// `tests_heavy` fail rows are far smaller than their pass rows because
/// the exact test they fall into grows ~4× per doubling (a fail op is
/// kept under ~35 ms so a round stays near a third of a second).
pub fn spec(name: &str, smoke: bool) -> Option<WorkloadSpec> {
    let s = |full: usize, tiny: usize| if smoke { tiny } else { full };
    let (pass, fail) = (Variant::Pass, Variant::Fail);
    Some(match name {
        "hot_large" => WorkloadSpec {
            name: "hot_large",
            why: "warm session, parallel kernels at 10-20 ms per op: VM execution inside runtime chunks plus merge dominate; fork, cascade and analysis are noise",
            kind: Kind::Warm,
            rows: vec![
                row("stencil", s(262_144, 96)),
                row("offset_crossover", s(294_912, 96)),
                row("gated_branches", s(393_216, 96)),
                row("private_scratch", s(24_576, 48)),
                row("static_reduction", s(65_536, 96)),
                row("index_reduction", s(163_840, 96)),
                row("int_histogram", s(163_840, 96)),
                row("ext_reduction", s(262_144, 96)),
                row("monotone_windows", s(8_192, 24)),
                row("solvh", s(2_560, 24)),
                row("civ_conditional", s(65_536, 96)),
            ],
        },
        "hot_small" => WorkloadSpec {
            name: "hot_small",
            why: "same programs and session at n = 64-256: the body is tens of us, so fork/join, plan building, fingerprints, cache lookups and merge set-up dominate",
            kind: Kind::Warm,
            rows: vec![
                row("stencil", s(256, 32)),
                row("offset_crossover", s(256, 32)),
                row("gated_branches", s(256, 32)),
                row("private_scratch", s(64, 16)),
                row("static_reduction", s(128, 32)),
                row("index_reduction", s(128, 32)),
                row("int_histogram", s(256, 32)),
                row("ext_reduction", s(256, 32)),
                row("monotone_windows", s(64, 16)),
                row("solvh", s(64, 16)),
                row("civ_conditional", s(256, 32)),
            ],
        },
        "tests_heavy" => WorkloadSpec {
            name: "tests_heavy",
            why: "outcome decided at run time, pass and fail inputs, a repeat row and a never-seen-input row each: predicates, cascade, CIV slices, LRPD and the exact test do most of the work",
            kind: Kind::Warm,
            rows: [
                tested("hoist_indirect", s(192, 24), pass),
                tested("hoist_indirect", s(192, 24), fail),
                tested("solvh", s(2_048, 24), pass),
                tested("solvh", s(48, 12), fail),
                tested("monotone_windows", s(2_048, 24), pass),
                tested("monotone_windows", s(96, 16), fail),
                tested("ext_reduction", s(4_096, 32), pass),
                tested("ext_reduction", s(192, 24), fail),
                tested("offset_crossover", s(4_096, 32), pass),
                tested("offset_crossover", s(192, 24), fail),
                tested("index_reduction", s(2_048, 32), pass),
                tested("index_reduction", s(384, 24), fail),
                tested("civ_conditional", s(4_096, 32), pass),
                tested("civ_while", s(4_096, 32), pass),
                tested("tls_feedback", s(2_048, 32), pass),
                tested("tls_feedback", s(2_048, 32), fail),
                tested("seq_recurrence", s(4_096, 32), pass),
            ]
            .into_iter()
            .flatten()
            .collect(),
        },
        "cold_pipeline" => WorkloadSpec {
            name: "cold_pipeline",
            why: "every suite kernel from source text through a fresh session at n = 64: parse, summarize/classify, factorize, VM and predicate compile do nearly everything, execution nearly nothing",
            kind: Kind::Cold,
            rows: adapter::suite_kernels()
                .iter()
                .map(|k| row(k.name, s(64, 16)))
                .collect(),
        },
        "serve_mix" => WorkloadSpec {
            name: "serve_mix",
            why: "closed-loop clients on an in-process server, 68% identical resubmission / 20% fresh frame / 10% never-seen program / 2% large frame: framing, JSON, admission, queueing, shard caches and reply dominate",
            kind: Kind::Serve,
            // The resident programs (1-D frames only: the wire format
            // carries no extents, and values must survive JSON's f64).
            rows: vec![
                row("stencil", s(256, 32)),
                row("offset_crossover", s(128, 32)),
                row("gated_branches", s(256, 32)),
                row("private_scratch", s(64, 16)),
                row("index_reduction", s(128, 32)),
                row("ext_reduction", s(128, 32)),
                row("monotone_windows", s(64, 16)),
                row("civ_conditional", s(128, 32)),
            ],
        },
        _ => return None,
    })
}

/// Problem size of `serve_mix`'s large-frame class (stencil).
pub fn serve_large_n(smoke: bool) -> usize {
    if smoke {
        512
    } else {
        16_384
    }
}

/// One input with its reference results.
pub struct Case {
    pub input: FrameData,
    pub want: Vec<u64>,
}

/// Generates the input of `spec` (fresh variant `k`, 0 = base) and runs
/// the tree-walk oracle on a deep copy of it.
pub fn make_case(
    seed: u64,
    spec: &RowSpec,
    k: u64,
    program: &Loaded,
) -> Result<(Case, Duration), String> {
    let mut rng = Rng::new(seed).fork(&spec.input_family()).fork_n(k);
    let input = gen::kernel_input(spec.kernel, spec.n, spec.variant, &mut rng);
    let mut frame = adapter::store_from(&input);
    let t = Instant::now();
    adapter::oracle(program, &mut frame)?;
    let took = t.elapsed();
    let want = adapter::result_bits(&frame, &input);
    Ok((Case { input, want }, took))
}

/// One parsed and analyzed kernel, shared by the rows that run it.
pub struct Program {
    pub kernel: Kernel,
    pub loaded: Loaded,
    pub analysis: lip_analysis::LoopAnalysis,
    /// How long set-up's `analyze` call took, µs.
    pub analyze_us: f64,
}

pub struct Row {
    pub spec: RowSpec,
    pub program: Rc<Program>,
    pub base: Case,
    /// Tree-walk reference run of the base input, ms.
    pub interp_ms: f64,
    /// Timed operations, ms each.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// What the base input's last run reported (outcome, units).
    pub ran: Option<Ran>,
    next_fresh: u64,
}

/// What the sessions under test recorded about themselves during a
/// pass, summed (one warm session, or one fresh session per cold op).
#[derive(Default)]
pub struct SelfObserved {
    pub profile: Vec<ProfileRow>,
    pub merge_ns: u64,
    pub memo_hits: u64,
    pub pred_evals: u64,
}

impl SelfObserved {
    fn add(&mut self, session: &lip_runtime::Session) {
        for m in adapter::profile(session) {
            match self.profile.iter_mut().find(|r| r.name == m.name) {
                Some(r) => {
                    r.count += m.count;
                    r.total_ns += m.total_ns;
                    r.self_ns += m.self_ns;
                }
                None => self.profile.push(m),
            }
        }
        self.merge_ns += adapter::histogram_sum_ns(session, "exec.merge_ns").unwrap_or(0);
        self.memo_hits += adapter::counter(session, "pred.memo_hits").unwrap_or(0);
        self.pred_evals += adapter::counter(session, "pred.evals").unwrap_or(0);
    }
}

/// A workload set up and ready for timed passes.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub nthreads: usize,
    pub observe: Observe,
    pub session: lip_runtime::Session,
    pub rows: Vec<Row>,
    observed: SelfObserved,
}

fn kernel_named(name: &str) -> Result<Kernel, String> {
    adapter::suite_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .ok_or_else(|| format!("suite has no kernel `{name}`"))
}

/// Parsed and analyzed kernels a caller may carry from one set-up to
/// the next. Only `--smoke` does: its point is to touch every workload
/// in seconds, and one `solvh` analysis costs half a second.
pub type Programs = Vec<Rc<Program>>;

/// Everything before the first timed operation: parse, analyze,
/// generate inputs, run the oracle, build the session and run every
/// row once so caches are warm (or, for `Cold`, the allocator is).
pub fn setup(
    spec: &WorkloadSpec,
    seed: u64,
    nthreads: usize,
    observe: Observe,
    programs: &mut Programs,
) -> Result<Bench, String> {
    let session = adapter::session(nthreads, observe);
    let mut rows = Vec::with_capacity(spec.rows.len());
    for rs in &spec.rows {
        // The analysis does not depend on the input: rows of one
        // kernel (pass and fail) share it.
        let program = match programs.iter().find(|p| p.kernel.name == rs.kernel) {
            Some(p) => p.clone(),
            None => {
                let kernel = kernel_named(rs.kernel)?;
                let loaded = adapter::load(kernel.source, kernel.sub, kernel.label)?;
                let t = Instant::now();
                let analysis = adapter::analyze(&session, &loaded)?;
                let analyze_us = t.elapsed().as_secs_f64() * 1e6;
                programs.push(Rc::new(Program {
                    kernel,
                    loaded,
                    analysis,
                    analyze_us,
                }));
                programs.last().expect("pushed").clone()
            }
        };
        let (base, interp) = make_case(seed, rs, 0, &program.loaded)?;
        rows.push(Row {
            spec: rs.clone(),
            program,
            base,
            interp_ms: interp.as_secs_f64() * 1e3,
            samples_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
            ran: None,
            next_fresh: 1,
        });
    }
    let mut bench = Bench {
        kind: spec.kind,
        seed,
        nthreads,
        observe,
        session,
        rows,
        observed: SelfObserved::default(),
    };
    bench.warm_up();
    Ok(bench)
}

impl Bench {
    /// One discarded round, so the timed ones start on warm caches.
    fn warm_up(&mut self) {
        let mut spans = Spans::new(0);
        for i in 0..self.rows.len() {
            self.op(i, false, &mut spans, 0);
        }
        for r in &mut self.rows {
            r.samples_ms.clear();
            r.attempted = 0;
            r.failed = 0;
            r.first_error = None;
        }
        self.observed = SelfObserved::default();
    }

    /// The same programs, inputs and references under a new session at
    /// another observer level, warmed up again. The analyses are kept:
    /// they do not depend on the session.
    pub fn resession(mut self, observe: Observe) -> Bench {
        self.observe = observe;
        self.session = adapter::session(self.nthreads, observe);
        // A cold operation builds its own session: nothing to warm.
        if self.kind != Kind::Cold {
            self.warm_up();
        }
        self.observed = SelfObserved::default();
        self
    }

    /// What the session(s) recorded about themselves since warm-up.
    pub fn observed(&mut self) -> &SelfObserved {
        if self.kind != Kind::Cold {
            self.observed = SelfObserved::default();
            self.observed.add(&self.session);
        }
        &self.observed
    }

    /// One operation of row `i`, on a never-seen input if the row is a
    /// fresh row (never during warm-up: `fresh` false).
    fn op(&mut self, i: usize, fresh: bool, spans: &mut Spans, op_id: u64) {
        let (seed, kind, nthreads, observe) = (self.seed, self.kind, self.nthreads, self.observe);
        // Outside the clock: the input, its reference, a deep copy.
        let fresh_case = if fresh {
            let r = &mut self.rows[i];
            let k = r.next_fresh;
            r.next_fresh += 1;
            match make_case(seed, &r.spec, k, &r.program.loaded) {
                Ok((case, _)) => Some(case),
                Err(e) => {
                    r.attempted += 1;
                    r.failed += 1;
                    r.first_error.get_or_insert(e);
                    return;
                }
            }
        } else {
            None
        };
        let r = &self.rows[i];
        let case = fresh_case.as_ref().unwrap_or(&r.base);
        let mut frame = adapter::store_from(&case.input);

        let p = &r.program;
        let mut cold_session = None;
        let t = Instant::now();
        let result = spans.span("op", op_id, |spans| match kind {
            Kind::Cold => {
                let session = spans.span("runtime.session", op_id, |_| {
                    adapter::session(nthreads, observe)
                });
                let out = (|| {
                    let parsed =
                        spans.span("ir.parse", op_id, |_| adapter::parse(p.kernel.source))?;
                    let program = adapter::locate(parsed, p.kernel.sub, p.kernel.label)?;
                    let analysis = spans.span("analysis.analyze", op_id, |_| {
                        adapter::analyze(&session, &program)
                    })?;
                    spans.span("runtime.run_loop", op_id, |_| {
                        adapter::run_loop(&session, &program, &analysis, &mut frame)
                    })
                })();
                cold_session = Some(session);
                out
            }
            Kind::Warm | Kind::Serve => spans.span("runtime.run_loop", op_id, |_| {
                adapter::run_loop(&self.session, &p.loaded, &p.analysis, &mut frame)
            }),
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;

        // After the clock: verification.
        let verdict = result.and_then(|ran| {
            if adapter::result_bits(&frame, &case.input) == case.want {
                Ok(ran)
            } else {
                Err(format!(
                    "results differ from the tree-walk reference ({})",
                    ran.outcome
                ))
            }
        });
        if let Some(session) = cold_session.filter(|_| observe != Observe::Off) {
            self.observed.add(&session);
        }
        let r = &mut self.rows[i];
        r.attempted += 1;
        r.samples_ms.push(ms);
        match verdict {
            Ok(ran) => {
                if !fresh {
                    r.ran = Some(ran);
                }
            }
            Err(e) => {
                r.failed += 1;
                r.first_error.get_or_insert(e);
            }
        }
    }

    /// Runs whole rounds until `budget` has passed (at least one, at
    /// most `max_rounds`). Returns the wall time of the pass.
    pub fn run(&mut self, budget: Duration, max_rounds: u64, spans: &mut Spans) -> Duration {
        let start = Instant::now();
        let mut round = 0u64;
        loop {
            for i in 0..self.rows.len() {
                let fresh = self.rows[i].spec.fresh;
                self.op(i, fresh, spans, round * self.rows.len() as u64 + i as u64);
            }
            round += 1;
            if start.elapsed() >= budget || round >= max_rounds {
                return start.elapsed();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec_and_smoke_keeps_every_row() {
        for name in WORKLOAD_NAMES {
            let full = spec(name, false).expect("known workload");
            let tiny = spec(name, true).expect("known workload");
            assert_eq!(full.name, name);
            assert_eq!(
                full.rows.iter().map(RowSpec::name).collect::<Vec<_>>(),
                tiny.rows.iter().map(RowSpec::name).collect::<Vec<_>>()
            );
            assert!(
                full.why.len() <= 200,
                "{name}: why is {} chars",
                full.why.len()
            );
        }
        assert!(spec("nope", false).is_none());
        assert_eq!(
            spec("cold_pipeline", false).expect("cold").rows.len(),
            adapter::suite_kernels().len()
        );
    }

    #[test]
    fn fail_rows_exist_only_where_the_generator_has_a_fail_input() {
        for name in WORKLOAD_NAMES {
            for r in spec(name, false).expect("known").rows {
                if r.variant == Variant::Fail {
                    assert!(gen::has_fail_variant(r.kernel), "{}", r.kernel);
                }
            }
        }
    }

    #[test]
    fn a_mismatch_is_a_failed_operation() {
        let spec = WorkloadSpec {
            rows: vec![row("stencil", 16)],
            ..spec("hot_small", true).expect("spec")
        };
        let mut bench = setup(&spec, 1, 1, Observe::Off, &mut Vec::new()).expect("sets up");
        bench.run(Duration::from_secs(60), 2, &mut Spans::new(0));
        assert_eq!((bench.rows[0].attempted, bench.rows[0].failed), (2, 0));
        // Corrupt the reference: the same operations now fail, and are
        // still counted as attempted and timed.
        bench.rows[0].base.want[3] ^= 1;
        bench.run(Duration::from_secs(60), 1, &mut Spans::new(0));
        assert_eq!((bench.rows[0].attempted, bench.rows[0].failed), (3, 1));
        assert_eq!(bench.rows[0].samples_ms.len(), 3);
        assert!(bench.rows[0]
            .first_error
            .as_deref()
            .unwrap_or("")
            .contains("differ"));
    }

    #[test]
    fn a_fresh_row_draws_a_new_input_every_operation_its_repeat_row_never() {
        let spec = WorkloadSpec {
            rows: tested("offset_crossover", 24, Variant::Pass).to_vec(),
            ..spec("tests_heavy", true).expect("spec")
        };
        assert_eq!(spec.rows[1].name(), "offset_crossover/fresh");
        let mut bench = setup(&spec, 3, 1, Observe::Off, &mut Vec::new()).expect("sets up");
        bench.run(Duration::from_secs(60), 4, &mut Spans::new(0));
        let (repeat, fresh) = (&bench.rows[0], &bench.rows[1]);
        assert_eq!(
            (repeat.attempted, repeat.failed, repeat.next_fresh),
            (4, 0, 1)
        );
        assert_eq!((fresh.attempted, fresh.failed, fresh.next_fresh), (4, 0, 5));
        // Both rows start from the same base input.
        assert_eq!(repeat.base.input, fresh.base.input);
    }
}
