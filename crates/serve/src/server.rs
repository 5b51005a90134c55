//! The server: accept loop, connection threads, pool workers.
//!
//! Threading model:
//!
//! * One **accept thread** hands each connection to a detached
//!   **connection thread** that speaks the frame protocol, parses and
//!   validates requests, answers `ping`/`stats` inline, and routes
//!   everything else through admission control to a pool worker.
//! * `pool` **worker threads**, each owning the [`ShardState`]s whose
//!   shard key hashes to it. A worker dequeues one job at a time, in
//!   arrival order, rejects it if its deadline expired in the queue,
//!   runs it — a `run` is one [`ShardState::run`] on the shard it gets
//!   or builds — and replies over the job's channel. A panic inside
//!   the run is caught: that job gets a `worker_panic` error, the
//!   shard's caches are dropped (rebuilt on next use), and the server
//!   keeps serving.
//!
//! Counters live on the server's own [`Obs`] (metrics level):
//! `server.accepted`, `server.requests`, `server.admitted`,
//! `server.rejected.overload`, `server.rejected.deadline`,
//! `server.worker_panic`, `server.cache.{hit,miss}`,
//! `server.cache.{program_hit,program_miss}`, plus the
//! `serve.request_ns` latency histogram that `stats` turns into
//! p50/p99 and four histograms that say where a `run` request's time
//! went, each the request's own: `serve.decode_ns` (frame read →
//! [`Request`]), `serve.queue_ns` (admission → dequeue by the worker),
//! `serve.run_ns` (preparing and running it) and `serve.encode_ns`
//! (results → reply bytes). What `serve.request_ns`
//! holds beyond their sum is configuration, admission and the reply's
//! way back to the connection thread.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lip_obs::{Obs, ObsLevel};

use crate::config::{session_config_from_pairs, ServeConfig};
use crate::pool::ShardState;
use crate::protocol::{parse_request, read_frame, ErrCode, Frame, FrameError, Request};
use crate::scheduler::{Admission, Job, JobKind, WorkerQueue};

/// Work-unit estimate for requests that do not declare a `cost`.
const DEFAULT_COST: u64 = 1_000;

/// A connection keeps its request and reply buffers from one request
/// to the next unless one grew past this.
const KEEP_BUFFER: usize = 1 << 20;

/// Wait before retrying `accept` after it failed (out of descriptors,
/// say): the condition does not clear by asking again at once.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

struct Shared {
    admission: Admission,
    queues: Vec<WorkerQueue>,
    obs: Obs,
    /// Shard key → that session's observability handle, registered by
    /// the owning worker so `stats` can snapshot without crossing
    /// threads.
    sessions: Mutex<BTreeMap<String, Obs>>,
    shutdown: AtomicBool,
}

/// A running `lip_serve` instance. Dropping the handle does *not* stop
/// the server; call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listen address and spawns the accept thread plus the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.queue, cfg.budget),
            queues: (0..cfg.pool).map(|_| WorkerQueue::new()).collect(),
            obs: Obs::with_level(ObsLevel::Metrics),
            sessions: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..cfg.pool)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lip-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lip-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's own observability handle (counters + latency).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Stops accepting, drains already-admitted work, joins every
    /// thread. New requests racing the shutdown get `shutting_down`.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.close();
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        shared.obs.count("server.accepted", 1);
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("lip-serve-conn".to_owned())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let mut inbuf = Vec::new();
    let mut reply = Frame::default();
    loop {
        let payload = match read_frame(&mut stream, &mut inbuf) {
            Ok(p) => p,
            Err(FrameError::Closed | FrameError::Io(_)) => return,
            Err(FrameError::TooLarge(len)) => {
                // The stream cannot be resynchronized after a bogus
                // length prefix: answer and hang up.
                reply.error(
                    ErrCode::BadFrame,
                    &format!("frame of {len} bytes exceeds limit"),
                );
                let _ = reply.send(&mut stream);
                return;
            }
            Err(FrameError::Utf8) => {
                reply.error(ErrCode::BadFrame, "payload is not UTF-8");
                if reply.send(&mut stream).is_err() {
                    return;
                }
                continue;
            }
        };
        let started = Instant::now();
        respond(payload, shared, &mut reply, started);
        shared.obs.count("server.requests", 1);
        shared
            .obs
            .record_ns("serve.request_ns", started.elapsed().as_nanos() as u64);
        if reply.send(&mut stream).is_err() {
            return;
        }
        reply.trim(KEEP_BUFFER);
        if inbuf.capacity() > KEEP_BUFFER {
            inbuf = Vec::new();
        }
    }
}

/// Writes the response to `payload` into `reply`.
fn respond(payload: &str, shared: &Arc<Shared>, reply: &mut Frame, started: Instant) {
    let request = parse_request(payload);
    shared
        .obs
        .record_ns("serve.decode_ns", started.elapsed().as_nanos() as u64);
    match request {
        Err((code, detail)) => reply.error(code, &detail),
        Ok(Request::Ping) => {
            let mut w = reply.begin();
            w.begin_obj();
            w.key("type").str("pong");
            w.end_obj();
            reply.seal();
        }
        Ok(Request::Stats) => render_stats(shared, reply),
        Ok(Request::Run(mut run)) => {
            let cost = run.cost.unwrap_or(DEFAULT_COST);
            let deadline = run
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let config = std::mem::take(&mut run.config);
            dispatch(shared, &config, JobKind::Run(run), cost, deadline, reply);
        }
        Ok(Request::Explain { label, config }) => {
            dispatch(shared, &config, JobKind::Explain { label }, 1, None, reply);
        }
        Ok(Request::Burn { ms, cost, config }) => dispatch(
            shared,
            &config,
            JobKind::Burn { ms },
            cost.unwrap_or(DEFAULT_COST),
            None,
            reply,
        ),
        Ok(Request::Crash { config }) => {
            dispatch(shared, &config, JobKind::Crash, 1, None, reply);
        }
    }
}

/// Validates the config, passes admission, routes to the shard's
/// worker and waits for the response frame. The connection's `reply`
/// frame travels with the job and comes back filled.
fn dispatch(
    shared: &Arc<Shared>,
    config: &[(String, String)],
    kind: JobKind,
    cost: u64,
    deadline: Option<Instant>,
    reply: &mut Frame,
) {
    let cfg = match session_config_from_pairs(config) {
        Ok(cfg) => cfg,
        Err((code, detail)) => return reply.error(code, &detail),
    };
    let shard_key = cfg.shard_key();
    if let Err(reason) = shared.admission.try_admit(cost) {
        shared.obs.count("server.rejected.overload", 1);
        return reply.error(ErrCode::Overloaded, &reason);
    }
    shared.obs.count("server.admitted", 1);
    let idx = route(&shard_key, shared.queues.len());
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        shard_key,
        cfg,
        kind,
        cost,
        deadline,
        admitted: Instant::now(),
        frame: std::mem::take(reply),
        reply: reply_tx,
    };
    if let Err(job) = shared.queues[idx].push(job) {
        shared.admission.release(cost);
        *reply = job.frame;
        return reply.error(ErrCode::ShuttingDown, "server is shutting down");
    }
    // The worker releases the admission reservation after replying. A
    // dropped sender (a panic outside the guarded run) still yields a
    // response rather than a hang.
    match reply_rx.recv() {
        Ok(frame) => *reply = frame,
        Err(_) => reply.error(ErrCode::WorkerPanic, "worker dropped the request"),
    }
}

fn route(shard_key: &str, pool: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    shard_key.hash(&mut h);
    (h.finish() % pool as u64) as usize
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let mut shards: HashMap<String, ShardState> = HashMap::new();
    while let Some(job) = shared.queues[idx].pop() {
        handle_job(shared, &mut shards, job);
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// What every dequeued job goes through first: its queue wait is
/// recorded, and a job whose deadline passed in the queue is answered
/// and released instead of returned.
fn dequeued(shared: &Arc<Shared>, mut job: Job) -> Option<Job> {
    shared
        .obs
        .record_ns("serve.queue_ns", job.admitted.elapsed().as_nanos() as u64);
    if !expired(job.deadline) {
        return Some(job);
    }
    shared.obs.count("server.rejected.deadline", 1);
    job.frame
        .error(ErrCode::Deadline, "deadline expired in queue");
    finish(shared, job);
    None
}

/// Sends a job's response frame back and releases its reservation.
fn finish(shared: &Arc<Shared>, job: Job) {
    let _ = job.reply.send(job.frame);
    shared.admission.release(job.cost);
}

fn handle_job(shared: &Arc<Shared>, shards: &mut HashMap<String, ShardState>, job: Job) {
    let Some(mut job) = dequeued(shared, job) else {
        return;
    };
    match job.kind {
        JobKind::Run(ref request) => {
            if !shards.contains_key(&job.shard_key) {
                let shard = ShardState::new(job.shard_key.clone(), job.cfg.clone());
                shared
                    .sessions
                    .lock()
                    .expect("sessions lock")
                    .insert(job.shard_key.clone(), shard.obs_handle());
                shards.insert(job.shard_key.clone(), shard);
            }
            let shard = shards.get_mut(&job.shard_key).expect("inserted above");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                shard.run(request, &mut job.frame, &shared.obs);
            }));
            if outcome.is_err() {
                shared.obs.count("server.worker_panic", 1);
                drop_shard(shared, shards, &job.shard_key);
                job.frame.error(
                    ErrCode::WorkerPanic,
                    "worker panicked executing the request; shard caches dropped",
                );
            }
        }
        JobKind::Explain { ref label } => match shards.get(&job.shard_key) {
            None => job.frame.error(
                ErrCode::UnknownLoop,
                "no warm session for this configuration yet",
            ),
            Some(shard) => match shard.explain(label) {
                Some(report) => {
                    let mut w = job.frame.begin();
                    w.begin_obj();
                    w.key("type").str("ok");
                    w.key("explain").str(&report);
                    w.end_obj();
                    job.frame.seal();
                }
                None => job.frame.error(
                    ErrCode::UnknownLoop,
                    &format!("no decision recorded for `{label}` (run it with \"obs\": \"trace\")"),
                ),
            },
        },
        JobKind::Burn { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            let mut w = job.frame.begin();
            w.begin_obj();
            w.key("type").str("ok");
            w.key("burned_ms").u64(ms);
            w.end_obj();
            job.frame.seal();
        }
        JobKind::Crash => {
            shared.obs.count("server.worker_panic", 1);
            // Exercise the same cache-drop path a real panic takes.
            drop_shard(shared, shards, &job.shard_key);
            job.frame.error(
                ErrCode::WorkerPanic,
                "worker panicked (crash requested); shard caches dropped",
            );
        }
    }
    finish(shared, job);
}

fn drop_shard(shared: &Arc<Shared>, shards: &mut HashMap<String, ShardState>, key: &str) {
    shards.remove(key);
    shared.sessions.lock().expect("sessions lock").remove(key);
}

fn render_stats(shared: &Arc<Shared>, reply: &mut Frame) {
    let snap = shared.obs.snapshot();
    let latency = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.request_ns");
    let quantile = |q: f64| latency.and_then(|h| h.quantile(q));
    let hits = snap.counter("server.cache.hit").unwrap_or(0);
    let misses = snap.counter("server.cache.miss").unwrap_or(0);

    let mut w = reply.begin();
    w.begin_obj();
    w.key("type").str("stats");
    w.key("admission").begin_obj();
    w.key("queued").u64(shared.admission.queued() as u64);
    w.key("units").u64(shared.admission.units());
    w.key("queue_cap").u64(shared.admission.queue_cap() as u64);
    w.key("budget").u64(shared.admission.budget());
    w.end_obj();
    w.key("latency").begin_obj();
    w.key("p50_ns").opt_u64(quantile(0.5));
    w.key("p99_ns").opt_u64(quantile(0.99));
    w.end_obj();
    w.key("cache_hit_rate");
    if hits + misses == 0 {
        w.null();
    } else {
        w.f64(hits as f64 / (hits + misses) as f64);
    }
    w.key("server");
    snap.write_json(&mut w);
    w.key("sessions").begin_arr();
    for (key, obs) in shared.sessions.lock().expect("sessions lock").iter() {
        w.begin_obj();
        w.key("shard").str(key);
        w.key("metrics");
        obs.snapshot().write_json(&mut w);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    reply.seal();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Client;
    use lip_obs::json::Json;

    #[test]
    fn ping_stats_and_shutdown_round_trip() {
        let server = Server::spawn(ServeConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let pong = client.call("{\"type\": \"ping\"}").expect("ping");
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
        let stats = client.call("{\"type\": \"stats\"}").expect("stats");
        assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
        assert_eq!(
            stats
                .path(&["admission", "queue_cap"])
                .and_then(Json::as_u64),
            Some(64)
        );
        server.shutdown();
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for pool in [1, 3, 8] {
            let a = route("nthreads=2 fission=on", pool);
            assert_eq!(a, route("nthreads=2 fission=on", pool));
            assert!(a < pool);
        }
    }
}
