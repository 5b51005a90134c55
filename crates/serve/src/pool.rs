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
//! The caches implement incremental re-analysis: a source fingerprint
//! names a [`Loaded`] program (byte-identical resubmission skips the
//! parser, and the program's compile cache lives as long as its entry)
//! with the [`LoopHandle`]s prepared on it so far; the analysis cache is
//! keyed by loop fingerprint — so after an edit only the loops whose
//! analysis inputs actually changed are re-analyzed; untouched loops
//! skip straight to execution. One request is one [`ShardState::run`] —
//! prepare, one [`LoopHandle::run`], encode — and what makes a
//! resubmission cheap (`bench_e2e`'s `serve_mix` `hit` row) is the
//! shard's warm state, not the company it arrives in.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use lip_analysis::LoopAnalysis;
use lip_ir::{parse_program, ArrayBuf, ArrayView, Store, Subroutine, Ty, Value};
use lip_obs::json::Writer;
use lip_obs::Obs;
use lip_runtime::{Loaded, LoopHandle, RunStats, Session, SessionConfig};
use lip_symbolic::{sym, Sym};

use crate::fingerprint::{loop_fingerprint, source_fingerprint};
use crate::protocol::{ArraySpec, ErrCode, Frame, FrameSpec, RunRequest, MAX_ARRAY_LEN, MAX_FRAME};

/// A parsed program kept warm, with the loops prepared on it so far —
/// only loops that exist and analyze are remembered.
struct CachedProgram {
    loaded: Loaded,
    loops: Vec<(Sym, String, Rc<LoopHandle>)>,
}

/// One warm session plus its incremental caches. See the module docs
/// for the threading model.
pub struct ShardState {
    key: String,
    session: Session,
    /// By source fingerprint.
    programs: HashMap<u128, CachedProgram>,
    /// By loop fingerprint: shared by every program whose loop has the
    /// same analysis inputs (a whitespace edit is a new program, not a
    /// new analysis).
    analyses: HashMap<u128, Rc<LoopAnalysis>>,
}

/// A request ready to run.
struct Prepared {
    handle: Rc<LoopHandle>,
    store: Store,
    analysis_hit: bool,
    program_hit: bool,
}

type Rejected = (ErrCode, String);

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

    fn prepare(&mut self, req: &RunRequest) -> Result<Prepared, Rejected> {
        let (entry, program_hit) = match self.programs.entry(source_fingerprint(&req.program)) {
            Entry::Occupied(e) => (e.into_mut(), true),
            Entry::Vacant(e) => {
                let prog = parse_program(&req.program).map_err(|e| {
                    (
                        ErrCode::ProgramError,
                        format!("program does not parse: {e:?}"),
                    )
                })?;
                let loaded = self.session.load(prog);
                let entry = e.insert(CachedProgram {
                    loaded,
                    loops: Vec::new(),
                });
                (entry, false)
            }
        };
        let sub = sym(&req.sub);
        let known = entry
            .loops
            .iter()
            .find(|(s, l, _)| *s == sub && *l == req.label);
        let (handle, analysis_hit) = match known {
            Some((_, _, handle)) => (handle.clone(), true),
            None => {
                let unknown = |detail: String| (ErrCode::UnknownLoop, detail);
                let program = entry.loaded.program();
                if program.subroutine(sub).is_none() {
                    return Err(unknown(format!("no subroutine `{}` in program", req.sub)));
                }
                let loop_fp = loop_fingerprint(program, sub, &req.label).ok_or_else(|| {
                    unknown(format!("no loop labelled `{}` in `{}`", req.label, req.sub))
                })?;
                let (analysis, hit) =
                    match self.analyses.get(&loop_fp) {
                        Some(a) => (a.clone(), true),
                        None => {
                            let a = self.session.analyze(program, sub, &req.label).ok_or_else(
                                || unknown(format!("loop `{}` could not be analyzed", req.label)),
                            )?;
                            let a = Rc::new(a);
                            self.analyses.insert(loop_fp, a.clone());
                            (a, false)
                        }
                    };
                let handle = entry.loaded.prepare_analyzed(sub, &req.label, analysis);
                let handle = Rc::new(handle.expect("the loop exists"));
                entry.loops.push((sub, req.label.clone(), handle.clone()));
                (handle, hit)
            }
        };
        let store = build_store(&req.frame, handle.sub())?;
        Ok(Prepared {
            handle,
            store,
            analysis_hit,
            program_hit,
        })
    }

    /// Runs one request on this shard — prepare (the parse and analysis
    /// caches), one [`LoopHandle::run`], encode — and writes the
    /// response, `ok` or the error frame, into `reply`.
    ///
    /// `server_obs` gets the cache counters of a request that prepared,
    /// one `serve.run_ns` observation (prepare + run) and one
    /// `serve.encode_ns` (results to reply bytes).
    pub fn run(&mut self, req: &RunRequest, reply: &mut Frame, server_obs: &Obs) {
        let started = Instant::now();
        let ran = self.prepare(req).and_then(|mut p| {
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
            let stats = p
                .handle
                .run(&mut p.store)
                .map_err(|e| (ErrCode::ExecError, format!("{e}")))?;
            Ok((p, stats))
        });
        server_obs.record_ns("serve.run_ns", started.elapsed().as_nanos() as u64);

        let encode_from = Instant::now();
        match ran {
            Ok((p, stats)) => ok_response(reply, &p, &stats, &req.results),
            Err((code, detail)) => reply.error(code, &detail),
        }
        server_obs.record_ns("serve.encode_ns", encode_from.elapsed().as_nanos() as u64);
    }
}

fn hit_or_miss(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

fn ok_response(reply: &mut Frame, p: &Prepared, stats: &RunStats, results: &[String]) {
    let mut w = reply.begin();
    w.begin_obj();
    w.key("type").str("ok");
    w.key("outcome").str(&format!("{:?}", stats.outcome));
    w.key("cache").str(hit_or_miss(p.analysis_hit));
    w.key("program_cache").str(hit_or_miss(p.program_hit));
    w.key("test_units").u64(stats.test_units);
    w.key("loop_units").u64(stats.loop_units);
    w.key("results");
    encode_results(&mut w, &p.store, results);
    w.end_obj();
    reply.seal();
}

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "int",
        Ty::Real => "real",
    }
}

fn value_json(w: &mut Writer<'_>, v: Value) {
    match v {
        Value::Int(i) => w.i64(i),
        Value::Real(r) => w.f64(r),
    }
}

/// Elements encoded between two looks at the reply's size.
const ENCODE_CHUNK: usize = 4096;

/// Writes the requested result bindings from the post-run store.
/// Scalars render as `{"ty": ..., "value": v}`, arrays as
/// `{"ty": ..., "data": [...]}`; unknown names render as `null`. Stops
/// early (leaving the document unfinished) once the reply is past
/// [`MAX_FRAME`]: sealing it then reports the size reached.
fn encode_results(w: &mut Writer<'_>, store: &Store, names: &[String]) {
    w.begin_obj();
    for name in names {
        w.key(name);
        let s = sym(name);
        if let Some(v) = store.scalar(s) {
            w.begin_obj();
            w.key("ty").str(match v {
                Value::Int(_) => "int",
                Value::Real(_) => "real",
            });
            w.key("value");
            value_json(w, v);
            w.end_obj();
        } else if let Some(view) = store.array(s) {
            w.begin_obj();
            w.key("ty").str(ty_name(view.buf.ty()));
            w.key("data").begin_arr();
            let len = view.buf.len();
            for from in (0..len).step_by(ENCODE_CHUNK) {
                for k in from..len.min(from + ENCODE_CHUNK) {
                    value_json(w, view.buf.get(k));
                }
                if w.buffer_len() > MAX_FRAME {
                    return;
                }
            }
            w.end_arr();
            w.end_obj();
        } else {
            w.null();
        }
    }
    w.end_obj();
}

/// `n` as the value of an INTEGER binding: integral and within ±2^53,
/// the range in which the wire's `f64` names one integer.
fn integer(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0).then_some(n as i64)
}

/// Materializes a request's `frame` into a [`Store`], typing each
/// binding by the subroutine's declarations (or the implicit I–N
/// rule), overridable per array via `ty`.
fn build_store(spec: &FrameSpec, sub: &Subroutine) -> Result<Store, Rejected> {
    let mut store = Store::new();
    for (name, n) in &spec.scalars {
        let s = sym(name);
        let v = match sub.ty_of(s) {
            Ty::Int => Value::Int(integer(*n).ok_or_else(|| {
                (
                    ErrCode::BadRequest,
                    format!("scalar `{name}` is INTEGER but got {n}"),
                )
            })?),
            Ty::Real => Value::Real(*n),
        };
        store.set_scalar(s, v);
    }
    // Sized before anything is allocated.
    let array_len = |a: &ArraySpec| {
        a.data
            .as_ref()
            .map_or(0, Vec::len)
            .saturating_add(a.len.unwrap_or(0))
    };
    let mut elements = 0usize;
    for (name, array) in &spec.arrays {
        elements = elements.saturating_add(array_len(array));
        if elements > MAX_ARRAY_LEN {
            return Err((
                ErrCode::BadRequest,
                format!(
                    "array `{name}` brings the frame to {elements} elements \
                     (limit {MAX_ARRAY_LEN})"
                ),
            ));
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
) -> Result<std::sync::Arc<ArrayBuf>, Rejected> {
    let not_integer = |what: &str, v: f64| {
        (
            ErrCode::BadRequest,
            format!("array `{name}` is INTEGER but {what} {v}"),
        )
    };
    match (&array.data, array.len) {
        (Some(data), _) => match ty {
            Ty::Real => Ok(ArrayBuf::from_f64(data)),
            Ty::Int => {
                let ints = data
                    .iter()
                    .map(|v| integer(*v).ok_or_else(|| not_integer("got", *v)))
                    .collect::<Result<Vec<i64>, _>>()?;
                Ok(ArrayBuf::from_i64(&ints))
            }
        },
        (None, Some(len)) => match ty {
            Ty::Real => Ok(ArrayBuf::from_f64(&vec![array.fill; len])),
            Ty::Int => {
                let fill = integer(array.fill).ok_or_else(|| not_integer("fill is", array.fill))?;
                Ok(ArrayBuf::from_i64(&vec![fill; len]))
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

    /// [`ShardState::run`], the reply parsed.
    fn run(shard: &mut ShardState, req: &RunRequest, obs: &Obs) -> Json {
        let mut reply = Frame::default();
        shard.run(req, &mut reply, obs);
        Json::parse(reply.payload()).expect("valid JSON")
    }

    #[test]
    fn shard_runs_and_caches_incrementally() {
        let obs = Obs::with_level(lip_obs::ObsLevel::Metrics);
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let req = stencil_request(16);

        let first = run(&mut shard, &req, &obs);
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
        let second = run(&mut shard, &req, &obs);
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
        let third = run(&mut shard, &edited, &obs);
        assert_eq!(
            third.get("program_cache").and_then(Json::as_str),
            Some("miss")
        );
        assert_eq!(third.get("cache").and_then(Json::as_str), Some("hit"));

        // Every request left one observation in each stage histogram.
        let snap = obs.snapshot();
        for name in ["serve.run_ns", "serve.encode_ns"] {
            let h = snap.histograms.iter().find(|h| h.name == name);
            assert_eq!(h.map(|h| h.count), Some(3), "{name}");
        }
    }

    /// Prepared loops are remembered per cached program, so what
    /// decides a hit is still the loop fingerprint: an edit to a declaration,
    /// to the loop or to a callee is a new program entry whose loop
    /// fingerprints differ (analysis miss); an edit that parses to the
    /// same AST is a new entry with the same fingerprint (hit).
    #[test]
    fn loop_fingerprint_memo_still_misses_on_edits_that_matter() {
        let obs = Obs::off();
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let base = stencil_request(8);
        let cache = |shard: &mut ShardState, req: &RunRequest| {
            let reply = run(shard, req, &obs);
            assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
            reply
                .get("cache")
                .and_then(Json::as_str)
                .expect("cache")
                .to_owned()
        };
        assert_eq!(cache(&mut shard, &base), "miss");
        assert_eq!(cache(&mut shard, &base), "hit");
        let edit = |from: &str, to: &str| {
            let mut req = base.clone();
            assert!(req.program.contains(from));
            req.program = req.program.replace(from, to);
            req
        };
        let decl = edit("DIMENSION UNEW(*)", "DIMENSION UNEW(64)");
        let body = edit("0.5 * U(i)", "0.75 * U(i)");
        let mut callee = base.clone();
        callee
            .program
            .push_str("\nSUBROUTINE extra(X)\n  DIMENSION X(*)\n  X(1) = 0.0\nEND\n");
        for (what, req) in [("declaration", &decl), ("loop", &body), ("callee", &callee)] {
            assert_eq!(cache(&mut shard, req), "miss", "{what} edit");
            assert_eq!(cache(&mut shard, req), "hit", "{what} edit, resubmitted");
        }
        let spaced = edit("DO sweep i = 1, N", "DO sweep i = 1,   N");
        assert_eq!(cache(&mut shard, &spaced), "hit", "whitespace edit");
        // The memo holds loops that exist, never a label that does not.
        let mut unknown = base.clone();
        unknown.label = "nolabel".into();
        let reply = run(&mut shard, &unknown, &obs);
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("unknown_loop")
        );
        let entry = &shard.programs[&source_fingerprint(&base.program)];
        assert_eq!(entry.loops.len(), 1);
    }

    #[test]
    fn unknown_sub_and_label_are_unknown_loop() {
        let obs = Obs::off();
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let mut req = stencil_request(4);
        req.sub = "nope".into();
        let out = run(&mut shard, &req, &obs);
        assert_eq!(out.get("code").and_then(Json::as_str), Some("unknown_loop"));
        let mut req = stencil_request(4);
        req.label = "nolabel".into();
        let out = run(&mut shard, &req, &obs);
        assert_eq!(out.get("code").and_then(Json::as_str), Some("unknown_loop"));
    }

    #[test]
    fn frames_beyond_the_caps_are_bad_request() {
        let obs = Obs::off();
        let mut shard = ShardState::new("test".into(), SessionConfig::default());
        let rejected = |shard: &mut ShardState, req: &RunRequest| {
            let out = run(shard, req, &obs);
            assert_eq!(
                out.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "{out:?}"
            );
            out.get("detail")
                .and_then(Json::as_str)
                .expect("detail")
                .to_owned()
        };
        // A `len` no allocator should be asked for.
        let mut req = stencil_request(4);
        req.frame.arrays[0].1.len = Some(1_000_000_000_000_000);
        assert!(rejected(&mut shard, &req).contains("limit"));
        // The cap is on the frame: two arrays that fit one by one.
        let mut req = stencil_request(4);
        for k in [1, 2] {
            req.frame.arrays[k].1.data = None;
            req.frame.arrays[k].1.len = Some(MAX_ARRAY_LEN / 2 + 1);
        }
        assert!(rejected(&mut shard, &req).contains("`V`"));
        // INTEGER bindings take integers the wire's f64 names exactly.
        for n in [1e300, -1e300, 9_007_199_254_740_994.0, 2.5] {
            let mut req = stencil_request(4);
            req.frame.scalars[0].1 = n;
            assert!(rejected(&mut shard, &req).contains("INTEGER"), "{n}");
            let mut req = stencil_request(4);
            req.frame.arrays[1].1.ty = Some("int".into());
            req.frame.arrays[1].1.data = Some(vec![1.0, n, 3.0, 4.0]);
            assert!(rejected(&mut shard, &req).contains("INTEGER"), "{n}");
            let mut req = stencil_request(4);
            req.frame.arrays[0].1.ty = Some("int".into());
            req.frame.arrays[0].1.fill = n;
            assert!(rejected(&mut shard, &req).contains("INTEGER"), "{n}");
        }
        let mut req = stencil_request(4);
        req.frame.scalars[0].1 = -9_007_199_254_740_992.0;
        let out = run(&mut shard, &req, &obs);
        assert_eq!(
            out.get("type").and_then(Json::as_str),
            Some("ok"),
            "{out:?}"
        );
    }
}
