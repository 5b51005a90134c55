//! Every call into the program under test goes through this file.
//!
//! The benchmark touches the layers only through their public
//! functions, and only from here: when a later change renames a seam
//! or collapses a configuration knob, this is the one benchmark file
//! to fix, and parent and change are still measured by identical
//! workload, timing and reporting code.
//!
//! The functions are thin on purpose: callers time them from outside.

use std::net::SocketAddr;
use std::sync::Arc;

use lip_analysis::{LoopAnalysis, LoopClass};
use lip_ir::{
    ArrayBuf, ArrayView, BinOp, ExecState, Machine, Stmt, Store, StoreCtx, Subroutine, Value,
};
pub use lip_obs::json::Json;
use lip_obs::ObsLevel;
use lip_runtime::{Backend, ExecOutcome, LrpdOutcome, OptLevel, PredBackend, Session};
use lip_symbolic::{sym, Sym};

use crate::gen::{Data, FrameData};

/// One suite kernel as the benchmark sees it: a name and source text.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub name: &'static str,
    pub source: &'static str,
    pub sub: &'static str,
    pub label: &'static str,
}

/// Every kernel of `lip_suite`, in suite order.
pub fn suite_kernels() -> Vec<Kernel> {
    lip_suite::all_shapes()
        .into_iter()
        .map(|s| Kernel {
            name: s.name,
            source: s.source,
            sub: s.sub,
            label: s.label,
        })
        .collect()
}

/// A parsed program with its target loop located.
pub struct Loaded {
    machine: Machine,
    sub: Subroutine,
    target: Stmt,
    label: String,
}

/// `lip_ir::parse_program` alone (the `ir.parse_us` probe).
pub fn parse(source: &str) -> Result<lip_ir::Program, String> {
    lip_ir::parse_program(source).map_err(|e| format!("parse: {e:?}"))
}

/// Wraps a parsed program and finds loop `label` in subroutine `sub`.
pub fn locate(program: lip_ir::Program, sub: &str, label: &str) -> Result<Loaded, String> {
    let sub = program
        .subroutine(sym(sub))
        .ok_or_else(|| format!("no subroutine `{sub}`"))?
        .clone();
    let target = sub
        .find_loop(label)
        .ok_or_else(|| format!("no loop `{label}`"))?
        .clone();
    Ok(Loaded {
        machine: Machine::new(program),
        sub,
        target,
        label: label.to_owned(),
    })
}

pub fn load(source: &str, sub: &str, label: &str) -> Result<Loaded, String> {
    locate(parse(source)?, sub, label)
}

/// How much the session under test observes about itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    Off,
    Metrics,
    Trace,
}

/// A session on the production seams: bytecode backend, fused
/// superinstructions, compiled predicates, fission on.
pub fn session(nthreads: usize, observe: Observe) -> Session {
    Session::builder()
        .backend(Backend::Bytecode)
        .opt_level(OptLevel::Fuse)
        .pred(PredBackend::Compiled)
        .fission(true)
        .nthreads(nthreads)
        .observer(match observe {
            Observe::Off => ObsLevel::Off,
            Observe::Metrics => ObsLevel::Metrics,
            Observe::Trace => ObsLevel::Trace,
        })
        .build()
}

/// The same seams as a serve request's explicit `config` object;
/// `obs` is `off`, `metrics` or `trace`.
pub fn serve_config_json(nthreads: usize, obs: &str) -> crate::jsonw::J {
    use crate::jsonw::J;
    J::obj([
        ("backend", J::str("bytecode")),
        ("opt", J::str("fuse")),
        ("pred", J::str("compiled")),
        ("fission", J::Bool(true)),
        ("obs", J::str(obs)),
        ("nthreads", J::count(nthreads as u64)),
    ])
}

pub fn analyze(session: &Session, p: &Loaded) -> Result<LoopAnalysis, String> {
    session
        .analyze(p.machine.program(), p.sub.name, &p.label)
        .ok_or_else(|| format!("loop `{}` not analyzable", p.label))
}

/// What one execution reported about itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ran {
    /// The executor's outcome, without its payload (stage, units).
    pub outcome: &'static str,
    pub test_units: u64,
    pub loop_units: u64,
}

/// The outcome names `Ran::outcome` can take, each with the metric
/// that counts it.
pub const OUTCOMES: [(&str, &str); 7] = [
    ("static_parallel", "runtime.outcome_counts.static_parallel"),
    (
        "predicate_passed",
        "runtime.outcome_counts.predicate_passed",
    ),
    ("exact_passed", "runtime.outcome_counts.exact_passed"),
    (
        "speculated_committed",
        "runtime.outcome_counts.speculated_committed",
    ),
    (
        "speculated_aborted",
        "runtime.outcome_counts.speculated_aborted",
    ),
    ("sequential", "runtime.outcome_counts.sequential"),
    ("fissioned", "runtime.outcome_counts.fissioned"),
];

fn outcome_name(o: &ExecOutcome) -> &'static str {
    match o {
        ExecOutcome::StaticParallel => "static_parallel",
        ExecOutcome::PredicatePassed { .. } => "predicate_passed",
        ExecOutcome::ExactPredicatePassed => "exact_passed",
        ExecOutcome::Speculated(LrpdOutcome::Committed) => "speculated_committed",
        ExecOutcome::Speculated(LrpdOutcome::Aborted) => "speculated_aborted",
        ExecOutcome::Sequential => "sequential",
        ExecOutcome::Fissioned { .. } => "fissioned",
    }
}

pub fn run_loop(
    session: &Session,
    p: &Loaded,
    a: &LoopAnalysis,
    frame: &mut Store,
) -> Result<Ran, String> {
    let stats = session
        .run_loop(&p.machine, &p.sub, &p.target, a, frame)
        .map_err(|e| format!("run_loop: {e}"))?;
    Ok(Ran {
        outcome: outcome_name(&stats.outcome),
        test_units: stats.test_units,
        loop_units: stats.loop_units,
    })
}

/// The independent oracle: the `lip_ir` tree-walk interpreter runs the
/// loop sequentially. Returns its work units.
pub fn oracle(p: &Loaded, frame: &mut Store) -> Result<u64, String> {
    let mut state = ExecState::default();
    p.machine
        .exec_stmt(&p.sub, frame, &p.target, &mut state)
        .map_err(|e| format!("oracle: {e}"))?;
    Ok(state.cost)
}

/// A deep copy of `data` as a fresh `Store`: new buffers every time.
/// (`Store::clone` shares the `Arc<ArrayBuf>`s, so clones of one store
/// would mutate one another's inputs.)
pub fn store_from(data: &FrameData) -> Store {
    let mut store = Store::new();
    for (name, v) in &data.scalars {
        store.set_int(sym(name), *v);
    }
    for a in &data.arrays {
        let buf = match &a.data {
            Data::Int(v) => ArrayBuf::from_i64(v),
            Data::Real(v) => ArrayBuf::from_f64(v),
        };
        store.bind_array(
            sym(a.name),
            ArrayView {
                buf,
                offset: 0,
                extents: a.extents.clone(),
            },
        );
    }
    store
}

/// The bits of every scalar and array element `input` bound, read back
/// from `store`: what two runs must agree on to count as identical.
pub fn result_bits(store: &Store, input: &FrameData) -> Vec<u64> {
    let mut out = Vec::with_capacity(input.elems() + 2 * input.scalars.len());
    for (name, _) in &input.scalars {
        if input.unchecked.contains(name) {
            continue;
        }
        match store.scalar(sym(name)) {
            Some(Value::Int(i)) => out.extend([0, i as u64]),
            Some(Value::Real(r)) => out.extend([1, r.to_bits()]),
            None => out.extend([2, 0]),
        }
    }
    for a in &input.arrays {
        match store.array(sym(a.name)) {
            Some(view) => push_buf_bits(&view.buf, &mut out),
            None => out.push(2),
        }
    }
    out
}

fn push_buf_bits(buf: &ArrayBuf, out: &mut Vec<u64>) {
    if let Some(v) = buf.to_i64_vec() {
        out.push(0);
        out.extend(v.iter().map(|x| *x as u64));
    } else if let Some(v) = buf.to_f64_vec() {
        out.push(1);
        out.extend(v.iter().map(|x| x.to_bits()));
    }
}

// ---------------------------------------------------------------- analysis / core

/// The loop classes, each with the metric that counts it.
pub const CLASSES: [(&str, &str); 5] = [
    ("static_parallel", "analysis.class_counts.static_parallel"),
    (
        "static_sequential",
        "analysis.class_counts.static_sequential",
    ),
    ("predicated", "analysis.class_counts.predicated"),
    ("needs_fallback", "analysis.class_counts.needs_fallback"),
    ("fissioned", "analysis.class_counts.fissioned"),
];

pub fn class_name(a: &LoopAnalysis) -> &'static str {
    match a.class {
        LoopClass::StaticParallel => "static_parallel",
        LoopClass::StaticSequential => "static_sequential",
        LoopClass::Predicated { .. } => "predicated",
        LoopClass::NeedsFallback(_) => "needs_fallback",
        LoopClass::Fissioned { .. } => "fissioned",
    }
}

/// Nodes of the loop's independence USR (0 when statically resolved).
pub fn usr_nodes(a: &LoopAnalysis) -> u64 {
    a.ind_usr.as_ref().map_or(0, |u| u.size() as u64)
}

/// (stages, predicate leaves) of the loop's merged cascade.
pub fn cascade_shape(a: &LoopAnalysis) -> (u64, u64) {
    let leaves = a
        .cascade
        .stages
        .iter()
        .map(|s| s.pred.leaf_count() as u64)
        .sum();
    (a.cascade.stages.len() as u64, leaves)
}

/// `Factorizer::factor` over the independence USR; returns the leaf
/// count of the predicate it builds, `None` when there is no USR.
pub fn factor(a: &LoopAnalysis) -> Option<u64> {
    let u = a.ind_usr.as_ref()?;
    let pdag = lip_core::Factorizer::with_defaults().factor(u);
    Some(pdag.leaf_count() as u64)
}

// ---------------------------------------------------------------- vm

/// A whole program plus the target loop as a standalone block.
pub struct Compiled {
    prog: lip_vm::CompiledProgram,
    block: lip_vm::BlockId,
}

/// `compile_program` + `add_block`: the unfused stream.
pub fn vm_compile(p: &Loaded) -> Result<Compiled, String> {
    let mut prog =
        lip_vm::compile_program(p.machine.program()).map_err(|e| format!("vm compile: {e}"))?;
    let block = lip_vm::add_block(&mut prog, &p.sub, std::slice::from_ref(&p.target), &[])
        .map_err(|e| format!("vm block: {e}"))?;
    Ok(Compiled { prog, block })
}

/// The superinstruction peephole pass over the program and the block.
pub fn vm_fuse(c: &mut Compiled) {
    lip_vm::optimize_program(&mut c.prog);
    lip_vm::optimize_block(&mut c.prog, c.block);
}

/// Static instruction count: every subroutine plus the loop block.
pub fn vm_ops(c: &Compiled) -> u64 {
    let subs: usize = c.prog.subs.iter().map(|s| s.chunk.ops.len()).sum();
    (subs + c.prog.block(c.block).chunk.ops.len()) as u64
}

/// Plain sequential `Vm::run_block` of the loop: no tests, no fork.
/// Returns the work units charged.
pub fn vm_run_seq(c: &Compiled, p: &Loaded, frame: &mut Store) -> Result<u64, String> {
    let chunk = &c.prog.block(c.block).chunk;
    let mut f = lip_vm::Frame::for_chunk(chunk, frame);
    let mut state = ExecState::default();
    lip_vm::Vm::for_machine(&c.prog, &p.machine)
        .run_block(c.block, &mut f, &mut state, None)
        .map_err(|e| format!("vm run: {e}"))?;
    f.writeback_scalars(chunk, frame);
    Ok(state.cost)
}

// ---------------------------------------------------------------- pred

/// The cascade's stages compiled with `compile_pred`, in stage order
/// (a stage beyond the bytecode's limits is skipped, as the engine
/// tree-walks it).
pub fn pred_compile(a: &LoopAnalysis) -> Vec<lip_pred::PredProgram> {
    a.cascade
        .stages
        .iter()
        .filter_map(|s| lip_pred::compile_pred(&s.pred).ok())
        .collect()
}

/// Evaluates compiled stages in order against `frame` until one
/// passes. Returns (index of the passing stage, stages that did not
/// pass before it).
pub fn pred_eval(
    stages: &[lip_pred::PredProgram],
    frame: &Store,
    nthreads: usize,
) -> (Option<usize>, u64) {
    let ctx = StoreCtx(frame);
    let params = lip_pred::EvalParams {
        nthreads,
        ..lip_pred::EvalParams::default()
    };
    for (k, prog) in stages.iter().enumerate() {
        if lip_pred::eval_compiled(prog, &ctx, 100_000_000, params) == Some(true) {
            return (Some(k), k as u64);
        }
    }
    (None, stages.len() as u64)
}

/// `store_fingerprint` over the inputs the compiled stages read — the
/// verdict-memo key the session computes on every predicated run.
pub fn fingerprint(stages: &[lip_pred::PredProgram], frame: &Store) -> u128 {
    stages
        .iter()
        .map(|p| lip_runtime::store_fingerprint(frame, p.scalar_syms(), p.array_syms()))
        .fold(0, |acc, f| acc ^ f)
}

// ---------------------------------------------------------------- runtime

/// One fork/join of `nthreads` chunks with an empty body.
pub fn fork_join(nthreads: usize) {
    lip_runtime::parallel_chunks::<(), _>(nthreads, 1, nthreads as i64, |_, _, _| Ok(()))
        .expect("empty body cannot fail");
}

/// A shared reduction array of `len` reals and one thread's private
/// buffer for it, as the executor would hold them before merging.
pub fn merge_buffers(len: usize) -> (Arc<ArrayBuf>, Arc<ArrayBuf>) {
    let shared = ArrayBuf::from_f64(&vec![1.0; len]);
    let private = lip_runtime::identity_buf(&shared, BinOp::Add);
    (shared, private)
}

pub fn merge(shared: &ArrayBuf, private: &ArrayBuf) {
    lip_runtime::merge_into(shared, private, BinOp::Add);
}

/// Whether the loop needs CIV traces (a slice run before the cascade).
pub fn has_civ_slice(p: &Loaded, a: &LoopAnalysis) -> bool {
    !a.civs.is_empty() || matches!(p.target, Stmt::While { .. })
}

/// `Session::civ_traces`: runs the loop slice, binds the traces into
/// `frame`, returns the slice's work units.
pub fn civ_slice(
    session: &Session,
    p: &Loaded,
    a: &LoopAnalysis,
    frame: &mut Store,
) -> Result<u64, String> {
    let niters =
        matches!(p.target, Stmt::While { .. }).then(|| sym(&format!("{}@niters", a.label)));
    session
        .civ_traces(&p.machine, &p.sub, &p.target, &a.civs, frame, niters)
        .map_err(|e| format!("civ_traces: {e}"))
}

fn written_arrays(a: &LoopAnalysis, frame: &Store) -> Vec<Sym> {
    let planned: Vec<Sym> = a.arrays.keys().copied().collect();
    if planned.is_empty() {
        frame.arrays().map(|(s, _)| s).collect()
    } else {
        planned
    }
}

/// Whether LRPD and the inspector can drive this loop (DO loops only).
pub fn is_do_loop(p: &Loaded) -> bool {
    matches!(p.target, Stmt::Do { .. })
}

/// `Session::lrpd_execute` on the loop's arrays; true = committed.
pub fn lrpd(
    session: &Session,
    p: &Loaded,
    a: &LoopAnalysis,
    frame: &Store,
) -> Result<bool, String> {
    let arrays = written_arrays(a, frame);
    let (out, _units) = session
        .lrpd_execute(&p.machine, &p.sub, &p.target, frame, &arrays)
        .map_err(|e| format!("lrpd: {e}"))?;
    Ok(out == LrpdOutcome::Committed)
}

/// The inspector's exact dry run; true = independent.
pub fn inspect(p: &Loaded, a: &LoopAnalysis, frame: &Store) -> Result<bool, String> {
    let arrays = written_arrays(a, frame);
    let (verdict, _units) = lip_runtime::inspect(&p.machine, &p.sub, &p.target, frame, &arrays)
        .map_err(|e| format!("inspect: {e}"))?;
    Ok(verdict == lip_runtime::InspectVerdict::Independent)
}

// ---------------------------------------------------------------- obs

/// One row of `Session::profile()`'s flat view.
pub struct ProfileRow {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The session's own span aggregator, reused as is.
pub fn profile(session: &Session) -> Vec<ProfileRow> {
    session
        .profile()
        .flat
        .into_iter()
        .map(|e| ProfileRow {
            name: e.name,
            count: e.count,
            total_ns: e.total_ns,
            self_ns: e.self_ns,
        })
        .collect()
}

pub fn counter(session: &Session, name: &str) -> Option<u64> {
    session.metrics().counter(name)
}

/// Sum (ns) of a latency histogram the session keeps.
pub fn histogram_sum_ns(session: &Session, name: &str) -> Option<u64> {
    session
        .metrics()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map(|h| h.sum_ns)
}

// ---------------------------------------------------------------- serve

/// An in-process `lip_serve` server.
pub struct Served(lip_serve::Server);

pub fn serve_spawn(pool: usize) -> Result<Served, String> {
    let cfg = lip_serve::ServeConfig {
        pool,
        ..lip_serve::ServeConfig::default()
    };
    lip_serve::Server::spawn(cfg)
        .map(Served)
        .map_err(|e| format!("server spawn: {e}"))
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// One closed-loop connection.
pub struct Conn(lip_serve::protocol::Client);

pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
    lip_serve::protocol::Client::connect(addr)
        .map(Conn)
        .map_err(|e| format!("connect: {e}"))
}

impl Conn {
    /// Sends one request frame and waits for its reply.
    pub fn call(&mut self, payload: &str) -> Result<Json, String> {
        self.0.call(payload).map_err(|e| format!("call: {e}"))
    }
}

/// `protocol::parse_request` alone (the server's JSON decode step).
pub fn parse_request(payload: &str) -> bool {
    lip_serve::protocol::parse_request(payload).is_ok()
}

/// Reads the `results` of an `ok` reply back as the bits
/// [`result_bits`] would give for the same names, in `input` order.
/// `None` when the reply is not `ok` or a name is missing.
pub fn reply_bits(reply: &Json, input: &FrameData) -> Option<Vec<u64>> {
    if reply.get("type").and_then(Json::as_str) != Some("ok") {
        return None;
    }
    let results = reply.get("results")?;
    let mut out = Vec::with_capacity(input.elems() + input.arrays.len());
    for a in &input.arrays {
        let r = results.get(a.name)?;
        let data = r.get("data")?.as_arr()?;
        match r.get("ty")?.as_str()? {
            "int" => {
                out.push(0);
                for x in data {
                    out.push(x.as_f64()? as i64 as u64);
                }
            }
            _ => {
                out.push(1);
                for x in data {
                    out.push(x.as_f64()?.to_bits());
                }
            }
        }
    }
    Some(out)
}

/// The array part of [`result_bits`]: what a serve reply can carry.
pub fn array_bits(store: &Store, input: &FrameData) -> Vec<u64> {
    let mut out = Vec::with_capacity(input.elems() + input.arrays.len());
    for a in &input.arrays {
        if let Some(view) = store.array(sym(a.name)) {
            push_buf_bits(&view.buf, &mut out);
        }
    }
    out
}

/// Whether `text` parses with the program's own JSON reader.
pub fn json_parses(text: &str) -> bool {
    Json::parse(text).is_some()
}
