//! Warm session shards: one [`Session`] per configuration fingerprint,
//! with parse and analysis caches keyed by [`crate::fingerprint`].
//!
//! A shard is **thread-affine**: it lives inside exactly one pool
//! worker ([`crate::server`] routes requests by
//! [`lip_runtime::SessionConfig::shard_key`]), so its caches need no
//! synchronization and the non-`Send` pieces of a cached
//! [`LoopAnalysis`] (USR/PDAG sharing via `Rc`) stay on their owning
//! thread. Parallelism *within* a request still comes from the
//! session's own fork-join pool; parallelism *across* shards comes
//! from the worker pool.
//!
//! The caches implement incremental re-analysis: the parse cache is
//! keyed by source fingerprint (byte-identical resubmission skips the
//! parser), the analysis cache by loop fingerprint — so after an edit
//! only the loops whose analysis inputs actually changed are
//! re-analyzed; untouched loops skip straight to execution. Batches of
//! compatible requests drain through [`Session::run_many`], the warm
//! path `bench_e2e`'s `serve_mix` `hit` row runs.

use std::collections::HashMap;
use std::rc::Rc;

use lip_analysis::LoopAnalysis;
use lip_ir::{parse_program, ArrayBuf, ArrayView, Machine, Store, Subroutine, Ty, Value};
use lip_obs::{json_str, Obs};
use lip_runtime::{LoopJob, RunStats, Session, SessionConfig};
use lip_symbolic::{sym, Sym};

use crate::fingerprint::{loop_fingerprint, source_fingerprint};
use crate::protocol::{error_json, ArraySpec, ErrCode, FrameSpec, RunRequest};

/// A parsed program kept warm: holding the [`Machine`] pins the
/// `Arc<Program>` identity, so the session's per-machine compile cache
/// (bytecode, lowered blocks, predicate memos) stays valid across
/// requests.
pub struct CachedProgram {
    /// The interpreter over the cached program.
    pub machine: Machine,
}

/// One warm session plus its incremental caches. See the module docs
/// for the threading model.
pub struct ShardState {
    key: String,
    session: Session,
    programs: HashMap<u128, Rc<CachedProgram>>,
    analyses: HashMap<u128, Rc<LoopAnalysis>>,
}

struct Prepared {
    prog: Rc<CachedProgram>,
    analysis: Rc<LoopAnalysis>,
    sub: Sym,
    label: String,
    store: Store,
    spec: FrameSpec,
    results: Vec<String>,
    analysis_hit: bool,
    program_hit: bool,
}

impl ShardState {
    /// Builds the shard's warm session from an already-validated
    /// configuration.
    pub fn new(key: String, cfg: SessionConfig) -> ShardState {
        ShardState {
            key,
            session: Session::builder().config(cfg).build(),
            programs: HashMap::new(),
            analyses: HashMap::new(),
        }
    }

    /// The shard key this state serves.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// A clone of the session's observability handle — registered with
    /// the server so `stats` can snapshot shard metrics without
    /// crossing into the worker thread.
    pub fn obs_handle(&self) -> Obs {
        self.session.obs().clone()
    }

    /// Proxies [`Session::explain`].
    pub fn explain(&self, label: &str) -> Option<String> {
        self.session.explain(label)
    }

    fn resolve_program(
        &mut self,
        src: &str,
    ) -> Result<(Rc<CachedProgram>, bool), (ErrCode, String)> {
        let fp = source_fingerprint(src);
        if let Some(p) = self.programs.get(&fp) {
            return Ok((p.clone(), true));
        }
        let prog = parse_program(src).map_err(|e| {
            (
                ErrCode::ProgramError,
                format!("program does not parse: {e:?}"),
            )
        })?;
        let entry = Rc::new(CachedProgram {
            machine: Machine::new(prog),
        });
        self.programs.insert(fp, entry.clone());
        Ok((entry, false))
    }

    fn prepare(&mut self, req: &RunRequest) -> Result<Prepared, (ErrCode, String)> {
        let (prog, program_hit) = self.resolve_program(&req.program)?;
        let sub_sym = sym(&req.sub);
        let program = prog.machine.program();
        let Some(subr) = program.units.iter().find(|u| u.name == sub_sym) else {
            return Err((
                ErrCode::UnknownLoop,
                format!("no subroutine `{}` in program", req.sub),
            ));
        };
        let Some(loop_fp) = loop_fingerprint(program, sub_sym, &req.label) else {
            return Err((
                ErrCode::UnknownLoop,
                format!("no loop labelled `{}` in `{}`", req.label, req.sub),
            ));
        };
        let (analysis, analysis_hit) = match self.analyses.get(&loop_fp) {
            Some(a) => (a.clone(), true),
            None => {
                let a = self
                    .session
                    .analyze(program, sub_sym, &req.label)
                    .ok_or_else(|| {
                        (
                            ErrCode::UnknownLoop,
                            format!("loop `{}` could not be analyzed", req.label),
                        )
                    })?;
                let a = Rc::new(a);
                self.analyses.insert(loop_fp, a.clone());
                (a, false)
            }
        };
        let store = build_store(&req.frame, subr)?;
        Ok(Prepared {
            prog,
            analysis,
            sub: sub_sym,
            label: req.label.clone(),
            store,
            spec: req.frame.clone(),
            results: req.results.clone(),
            analysis_hit,
            program_hit,
        })
    }

    /// Runs a batch of requests, all bound to this shard, through
    /// [`Session::run_many`]; returns one response payload per request
    /// in order. A batch-aborting error degrades to per-request
    /// execution on rebuilt input frames, so one failing request never
    /// poisons its neighbors' results.
    pub fn run_batch(&mut self, reqs: &[RunRequest], server_obs: &Obs) -> Vec<String> {
        let mut prepared: Vec<Result<Prepared, (ErrCode, String)>> =
            reqs.iter().map(|r| self.prepare(r)).collect();
        for p in prepared.iter().filter_map(|r| r.as_ref().ok()) {
            server_obs.count(
                if p.analysis_hit {
                    "server.cache.hit"
                } else {
                    "server.cache.miss"
                },
                1,
            );
            server_obs.count(
                if p.program_hit {
                    "server.cache.program_hit"
                } else {
                    "server.cache.program_miss"
                },
                1,
            );
        }
        if reqs.len() > 1 {
            server_obs.count("server.batched", reqs.len() as u64);
        }

        let mut jobs: Vec<LoopJob> = Vec::new();
        for p in prepared.iter_mut().filter_map(|r| r.as_mut().ok()) {
            let Prepared {
                prog,
                analysis,
                sub,
                label,
                store,
                ..
            } = p;
            let program = prog.machine.program();
            let subr = program
                .units
                .iter()
                .find(|u| u.name == *sub)
                .expect("validated in prepare");
            let target = subr.find_loop(label).expect("validated in prepare");
            jobs.push(LoopJob {
                machine: &prog.machine,
                sub: subr,
                target,
                analysis,
                frame: store,
            });
        }
        let batch = self.session.run_many(jobs);

        match batch {
            Ok(stats) => {
                let mut stats = stats.into_iter();
                prepared
                    .into_iter()
                    .map(|r| match r {
                        Err((code, detail)) => error_json(code, &detail),
                        Ok(p) => {
                            let s = stats.next().expect("one RunStats per prepared job");
                            ok_response(&p, &s, &p.store)
                        }
                    })
                    .collect()
            }
            Err(_) => {
                // Someone in the batch failed and `run_many` aborted;
                // frames may be partially mutated. Re-run each request
                // on a freshly built frame for an isolated verdict.
                prepared
                    .into_iter()
                    .map(|r| match r {
                        Err((code, detail)) => error_json(code, &detail),
                        Ok(p) => self.run_single(&p),
                    })
                    .collect()
            }
        }
    }

    fn run_single(&self, p: &Prepared) -> String {
        let program = p.prog.machine.program();
        let subr = program
            .units
            .iter()
            .find(|u| u.name == p.sub)
            .expect("validated in prepare");
        let target = subr.find_loop(&p.label).expect("validated in prepare");
        let mut store = match build_store(&p.spec, subr) {
            Ok(s) => s,
            Err((code, detail)) => return error_json(code, &detail),
        };
        match self
            .session
            .run_loop(&p.prog.machine, subr, target, &p.analysis, &mut store)
        {
            Ok(stats) => ok_response(p, &stats, &store),
            Err(e) => error_json(ErrCode::ExecError, &format!("{e}")),
        }
    }
}

fn ok_response(p: &Prepared, stats: &RunStats, store: &Store) -> String {
    format!(
        "{{\"type\": \"ok\", \"outcome\": {}, \"cache\": \"{}\", \"program_cache\": \"{}\", \
         \"test_units\": {}, \"loop_units\": {}, \"results\": {}}}",
        json_str(&format!("{:?}", stats.outcome)),
        if p.analysis_hit { "hit" } else { "miss" },
        if p.program_hit { "hit" } else { "miss" },
        stats.test_units,
        stats.loop_units,
        encode_results(store, &p.results),
    )
}

fn value_json(v: Value) -> String {
    match v {
        Value::Int(i) => format!("{i}"),
        Value::Real(r) if r.is_finite() => format!("{r}"),
        Value::Real(_) => "null".to_owned(),
    }
}

/// Renders the requested result bindings from the post-run store.
/// Scalars render as `{"ty": ..., "value": v}`, arrays as
/// `{"ty": ..., "data": [...]}`; unknown names render as `null`.
fn encode_results(store: &Store, names: &[String]) -> String {
    let mut out = String::from("{");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(name));
        out.push_str(": ");
        let s = sym(name);
        if let Some(v) = store.scalar(s) {
            let ty = if matches!(v, Value::Int(_)) {
                "int"
            } else {
                "real"
            };
            out.push_str(&format!(
                "{{\"ty\": \"{ty}\", \"value\": {}}}",
                value_json(v)
            ));
        } else if let Some(view) = store.array(s) {
            let ty = if view.buf.ty() == Ty::Int {
                "int"
            } else {
                "real"
            };
            out.push_str(&format!("{{\"ty\": \"{ty}\", \"data\": ["));
            for k in 0..view.buf.len() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&value_json(view.buf.get(k)));
            }
            out.push_str("]}");
        } else {
            out.push_str("null");
        }
    }
    out.push('}');
    out
}

/// Materializes a request's `frame` into a [`Store`], typing each
/// binding by the subroutine's declarations (or the implicit I–N
/// rule), overridable per array via `ty`.
fn build_store(spec: &FrameSpec, sub: &Subroutine) -> Result<Store, (ErrCode, String)> {
    let mut store = Store::new();
    for (name, n) in &spec.scalars {
        let s = sym(name);
        match sub.ty_of(s) {
            Ty::Int => {
                if n.fract() != 0.0 {
                    return Err((
                        ErrCode::BadRequest,
                        format!("scalar `{name}` is INTEGER but got {n}"),
                    ));
                }
                store.set_scalar(s, Value::Int(*n as i64));
            }
            Ty::Real => {
                store.set_scalar(s, Value::Real(*n));
            }
        }
    }
    for (name, array) in &spec.arrays {
        let s = sym(name);
        let ty = match array.ty.as_deref() {
            Some("int") => Ty::Int,
            Some("real") => Ty::Real,
            _ => sub.ty_of(s),
        };
        let buf = materialize(name, array, ty)?;
        let len = buf.len();
        store.bind_array(
            s,
            ArrayView {
                buf,
                offset: 0,
                extents: vec![len as i64],
            },
        );
    }
    Ok(store)
}

fn materialize(
    name: &str,
    array: &ArraySpec,
    ty: Ty,
) -> Result<std::sync::Arc<ArrayBuf>, (ErrCode, String)> {
    match (&array.data, array.len) {
        (Some(data), _) => match ty {
            Ty::Real => Ok(ArrayBuf::from_f64(data)),
            Ty::Int => {
                let mut ints = Vec::with_capacity(data.len());
                for v in data {
                    if v.fract() != 0.0 {
                        return Err((
                            ErrCode::BadRequest,
                            format!("array `{name}` is INTEGER but got {v}"),
                        ));
                    }
                    ints.push(*v as i64);
                }
                Ok(ArrayBuf::from_i64(&ints))
            }
        },
        (None, Some(len)) => match ty {
            Ty::Real => Ok(ArrayBuf::from_f64(&vec![array.fill; len])),
            Ty::Int => {
                if array.fill.fract() != 0.0 {
                    return Err((
                        ErrCode::BadRequest,
                        format!("array `{name}` is INTEGER but fill is {}", array.fill),
                    ));
                }
                Ok(ArrayBuf::from_i64(&vec![array.fill as i64; len]))
            }
        },
        (None, None) => Err((
            ErrCode::BadRequest,
            format!("array `{name}` needs `data` or `len`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_obs::json::Json;

    const STENCIL: &str = "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 1, N
    UNEW(i) = 0.25 * (U(i) + V(i)) + 0.5 * U(i)
  ENDDO
END
";

    fn stencil_request(n: usize) -> RunRequest {
        RunRequest {
            program: STENCIL.to_owned(),
            sub: "calc".to_owned(),
            label: "sweep".to_owned(),
            config: Vec::new(),
            frame: FrameSpec {
                scalars: vec![("N".into(), n as f64)],
                arrays: vec![
                    (
                        "UNEW".into(),
                        ArraySpec {
                            ty: None,
                            data: None,
                            len: Some(n),
                            fill: 0.0,
                        },
                    ),
                    (
                        "U".into(),
                        ArraySpec {
                            ty: None,
                            data: Some((0..n).map(|i| i as f64).collect()),
                            len: None,
                            fill: 0.0,
                        },
                    ),
                    (
                        "V".into(),
                        ArraySpec {
                            ty: None,
                            data: Some((0..n).map(|i| (i % 7) as f64).collect()),
                            len: None,
                            fill: 0.0,
                        },
                    ),
                ],
            },
            results: vec!["UNEW".into()],
            deadline_ms: None,
            cost: None,
        }
    }

    #[test]
    fn shard_runs_and_caches_incrementally() {
        let obs = Obs::with_level(lip_obs::ObsLevel::Metrics);
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let req = stencil_request(16);

        let first = shard.run_batch(std::slice::from_ref(&req), &obs);
        let first = Json::parse(&first[0]).expect("valid JSON");
        assert_eq!(first.get("type").and_then(Json::as_str), Some("ok"));
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
        let units = first
            .get("loop_units")
            .and_then(Json::as_u64)
            .expect("units");
        assert!(units > 0);
        let data = first
            .path(&["results", "UNEW", "data"])
            .and_then(Json::as_arr)
            .expect("result array");
        assert_eq!(data.len(), 16);
        assert_eq!(data[2].as_f64(), Some(0.25 * (2.0 + 2.0) + 0.5 * 2.0));

        // Identical resubmission: parse and analysis both hit, results
        // identical.
        let second = shard.run_batch(std::slice::from_ref(&req), &obs);
        let second = Json::parse(&second[0]).expect("valid JSON");
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            second.get("program_cache").and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(second.get("loop_units"), first.get("loop_units"));
        assert_eq!(second.get("results"), first.get("results"));
        assert_eq!(obs.snapshot().counter("server.cache.hit"), Some(1));
        assert_eq!(obs.snapshot().counter("server.cache.miss"), Some(1));

        // An edit that leaves the loop's analysis inputs intact (a
        // whitespace-only change parses to the same AST): the parse
        // cache misses, but the analysis cache still hits.
        let mut edited = req.clone();
        edited.program.push('\n');
        let third = shard.run_batch(std::slice::from_ref(&edited), &obs);
        let third = Json::parse(&third[0]).expect("valid JSON");
        assert_eq!(
            third.get("program_cache").and_then(Json::as_str),
            Some("miss")
        );
        assert_eq!(third.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn batch_isolates_a_failing_request() {
        let obs = Obs::off();
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let good = stencil_request(8);
        // U unbound: the run fails at execution time.
        let mut bad = stencil_request(8);
        bad.frame.arrays.retain(|(n, _)| n != "U");
        let out = shard.run_batch(&[good.clone(), bad, good.clone()], &obs);
        let first = Json::parse(&out[0]).expect("valid");
        let mid = Json::parse(&out[1]).expect("valid");
        let last = Json::parse(&out[2]).expect("valid");
        assert_eq!(first.get("type").and_then(Json::as_str), Some("ok"));
        assert_eq!(mid.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(mid.get("code").and_then(Json::as_str), Some("exec_error"));
        assert_eq!(last.get("type").and_then(Json::as_str), Some("ok"));
        // The rescued neighbors ran on fresh frames: same results as a
        // clean run.
        let clean = shard.run_batch(std::slice::from_ref(&good), &obs);
        let clean = Json::parse(&clean[0]).expect("valid");
        assert_eq!(first.get("results"), clean.get("results"));
        assert_eq!(last.get("results"), clean.get("results"));
    }

    #[test]
    fn unknown_sub_and_label_are_unknown_loop() {
        let obs = Obs::off();
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let mut req = stencil_request(4);
        req.sub = "nope".into();
        let out = shard.run_batch(std::slice::from_ref(&req), &obs);
        let out = Json::parse(&out[0]).expect("valid");
        assert_eq!(out.get("code").and_then(Json::as_str), Some("unknown_loop"));
        let mut req = stencil_request(4);
        req.label = "nolabel".into();
        let out = shard.run_batch(std::slice::from_ref(&req), &obs);
        let out = Json::parse(&out[0]).expect("valid");
        assert_eq!(out.get("code").and_then(Json::as_str), Some("unknown_loop"));
    }
}
