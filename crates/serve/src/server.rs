//! The server: accept loop, connection threads, pool workers.
//!
//! Threading model:
//!
//! * One **accept thread** hands each connection to a detached
//!   **connection thread** that speaks the frame protocol, parses and
//!   validates requests, answers `ping`/`stats` inline, and routes
//!   everything else through admission control to a pool worker.
//! * `pool` **worker threads**, each owning the [`ShardState`]s whose
//!   shard key hashes to it. A worker dequeues a job, rejects it if
//!   its deadline expired in the queue, opportunistically drains more
//!   same-shard `run` jobs into one [`ShardState::run_batch`] call,
//!   and replies over the job's channel. A panic inside the batch is
//!   caught: every job in the batch gets a `worker_panic` error, the
//!   shard's caches are dropped (rebuilt on next use), and the server
//!   keeps serving.
//!
//! Counters live on the server's own [`Obs`] (metrics level):
//! `server.accepted`, `server.requests`, `server.admitted`,
//! `server.rejected.overload`, `server.rejected.deadline`,
//! `server.worker_panic`, `server.batched`, `server.cache.{hit,miss}`,
//! `server.cache.{program_hit,program_miss}`, plus the
//! `serve.request_ns` latency histogram that `stats` turns into
//! p50/p99.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lip_obs::json_str;
use lip_obs::{Obs, ObsLevel};

use crate::config::{session_config_from_pairs, ServeConfig};
use crate::pool::ShardState;
use crate::protocol::{
    error_json, parse_request, read_frame, write_frame, ErrCode, FrameError, Request,
};
use crate::scheduler::{Admission, Job, JobKind, WorkerQueue};

/// Work-unit estimate for requests that do not declare a `cost`.
const DEFAULT_COST: u64 = 1_000;

/// Most `run` jobs drained into one `run_many` batch.
const MAX_BATCH: usize = 8;

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
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed | FrameError::Io(_)) => return,
            Err(FrameError::TooLarge(len)) => {
                // The stream cannot be resynchronized after a bogus
                // length prefix: answer and hang up.
                let _ = write_frame(
                    &mut stream,
                    &error_json(
                        ErrCode::BadFrame,
                        &format!("frame of {len} bytes exceeds limit"),
                    ),
                );
                return;
            }
            Err(FrameError::Utf8) => {
                if write_frame(
                    &mut stream,
                    &error_json(ErrCode::BadFrame, "payload is not UTF-8"),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let started = Instant::now();
        let response = respond(&payload, shared);
        shared.obs.count("server.requests", 1);
        shared
            .obs
            .record_ns("serve.request_ns", started.elapsed().as_nanos() as u64);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn respond(payload: &str, shared: &Arc<Shared>) -> String {
    let request = match parse_request(payload) {
        Ok(r) => r,
        Err((code, detail)) => return error_json(code, &detail),
    };
    match request {
        Request::Ping => "{\"type\": \"pong\"}".to_owned(),
        Request::Stats => render_stats(shared),
        Request::Run(run) => {
            let cost = run.cost.unwrap_or(DEFAULT_COST);
            let deadline = run
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let config = run.config.clone();
            dispatch(shared, &config, JobKind::Run(run), cost, deadline)
        }
        Request::Explain { label, config } => {
            dispatch(shared, &config, JobKind::Explain { label }, 1, None)
        }
        Request::Burn { ms, cost, config } => dispatch(
            shared,
            &config,
            JobKind::Burn { ms },
            cost.unwrap_or(DEFAULT_COST),
            None,
        ),
        Request::Crash { config } => dispatch(shared, &config, JobKind::Crash, 1, None),
    }
}

/// Validates the config, passes admission, routes to the shard's
/// worker and waits for the reply.
fn dispatch(
    shared: &Arc<Shared>,
    config: &[(String, String)],
    kind: JobKind,
    cost: u64,
    deadline: Option<Instant>,
) -> String {
    let cfg = match session_config_from_pairs(config) {
        Ok(cfg) => cfg,
        Err((code, detail)) => return error_json(code, &detail),
    };
    let shard_key = cfg.shard_key();
    if let Err(reason) = shared.admission.try_admit(cost) {
        shared.obs.count("server.rejected.overload", 1);
        return error_json(ErrCode::Overloaded, &reason);
    }
    shared.obs.count("server.admitted", 1);
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        shard_key: shard_key.clone(),
        cfg,
        kind,
        cost,
        deadline,
        reply: reply_tx,
    };
    let idx = route(&shard_key, shared.queues.len());
    if shared.queues[idx].push(job).is_err() {
        shared.admission.release(cost);
        return error_json(ErrCode::ShuttingDown, "server is shutting down");
    }
    // The worker releases the admission reservation after replying. A
    // dropped sender (a panic outside the guarded batch) still yields
    // a response rather than a hang.
    reply_rx
        .recv()
        .unwrap_or_else(|_| error_json(ErrCode::WorkerPanic, "worker dropped the request"))
}

fn route(shard_key: &str, pool: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    shard_key.hash(&mut h);
    (h.finish() % pool as u64) as usize
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let mut shards: HashMap<String, ShardState> = HashMap::new();
    while let Some(job) = shared.queues[idx].pop() {
        handle_job(shared, idx, &mut shards, job);
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn handle_job(
    shared: &Arc<Shared>,
    idx: usize,
    shards: &mut HashMap<String, ShardState>,
    job: Job,
) {
    if expired(job.deadline) {
        shared.obs.count("server.rejected.deadline", 1);
        let _ = job
            .reply
            .send(error_json(ErrCode::Deadline, "deadline expired in queue"));
        shared.admission.release(job.cost);
        return;
    }
    match job.kind {
        JobKind::Run(_) => run_batch_starting_with(shared, idx, shards, job),
        JobKind::Explain { ref label } => {
            let response = match shards.get(&job.shard_key) {
                None => error_json(
                    ErrCode::UnknownLoop,
                    "no warm session for this configuration yet",
                ),
                Some(shard) => match shard.explain(label) {
                    Some(report) => {
                        format!("{{\"type\": \"ok\", \"explain\": {}}}", json_str(&report))
                    }
                    None => error_json(
                        ErrCode::UnknownLoop,
                        &format!(
                            "no decision recorded for `{label}` (run it with \"obs\": \"trace\")"
                        ),
                    ),
                },
            };
            let _ = job.reply.send(response);
            shared.admission.release(job.cost);
        }
        JobKind::Burn { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            let _ = job
                .reply
                .send(format!("{{\"type\": \"ok\", \"burned_ms\": {ms}}}"));
            shared.admission.release(job.cost);
        }
        JobKind::Crash => {
            shared.obs.count("server.worker_panic", 1);
            // Exercise the same cache-drop path a real panic takes.
            drop_shard(shared, shards, &job.shard_key);
            let _ = job.reply.send(error_json(
                ErrCode::WorkerPanic,
                "worker panicked (crash requested); shard caches dropped",
            ));
            shared.admission.release(job.cost);
        }
    }
}

/// Grows one dequeued `run` into a batch of same-shard `run`s, gets or
/// builds the shard, executes under `catch_unwind`, replies to every
/// job, releases every reservation.
fn run_batch_starting_with(
    shared: &Arc<Shared>,
    idx: usize,
    shards: &mut HashMap<String, ShardState>,
    first: Job,
) {
    let shard_key = first.shard_key.clone();
    let cfg = first.cfg.clone();
    let mut batch = vec![first];
    for extra in shared.queues[idx].drain_matching(&shard_key, MAX_BATCH - 1) {
        if expired(extra.deadline) {
            shared.obs.count("server.rejected.deadline", 1);
            let _ = extra
                .reply
                .send(error_json(ErrCode::Deadline, "deadline expired in queue"));
            shared.admission.release(extra.cost);
        } else {
            batch.push(extra);
        }
    }

    let shard = shards
        .entry(shard_key.clone())
        .or_insert_with(|| ShardState::new(shard_key.clone(), cfg));
    shared
        .sessions
        .lock()
        .expect("sessions lock")
        .entry(shard_key.clone())
        .or_insert_with(|| shard.obs_handle());

    let requests: Vec<_> = batch
        .iter()
        .map(|j| match &j.kind {
            JobKind::Run(r) => (**r).clone(),
            _ => unreachable!("batch holds only Run jobs"),
        })
        .collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| shard.run_batch(&requests, &shared.obs)));
    match outcome {
        Ok(responses) => {
            for (job, response) in batch.iter().zip(responses) {
                let _ = job.reply.send(response);
            }
        }
        Err(_) => {
            shared.obs.count("server.worker_panic", batch.len() as u64);
            drop_shard(shared, shards, &shard_key);
            for job in &batch {
                let _ = job.reply.send(error_json(
                    ErrCode::WorkerPanic,
                    "worker panicked executing the batch; shard caches dropped",
                ));
            }
        }
    }
    for job in &batch {
        shared.admission.release(job.cost);
    }
}

fn drop_shard(shared: &Arc<Shared>, shards: &mut HashMap<String, ShardState>, key: &str) {
    shards.remove(key);
    shared.sessions.lock().expect("sessions lock").remove(key);
}

fn render_stats(shared: &Arc<Shared>) -> String {
    let snap = shared.obs.snapshot();
    let latency = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.request_ns");
    let quant = |q: f64| {
        latency
            .and_then(|h| h.quantile(q))
            .map_or_else(|| "null".to_owned(), |n| n.to_string())
    };
    let hits = snap.counter("server.cache.hit").unwrap_or(0);
    let misses = snap.counter("server.cache.miss").unwrap_or(0);
    let hit_rate = if hits + misses == 0 {
        "null".to_owned()
    } else {
        format!("{}", hits as f64 / (hits + misses) as f64)
    };
    let sessions = {
        let registry = shared.sessions.lock().expect("sessions lock");
        let mut out = String::from("[");
        for (i, (key, obs)) in registry.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {}, \"metrics\": {}}}",
                json_str(key),
                obs.snapshot().to_json()
            ));
        }
        out.push(']');
        out
    };
    format!(
        "{{\"type\": \"stats\", \
         \"admission\": {{\"queued\": {}, \"units\": {}, \"queue_cap\": {}, \"budget\": {}}}, \
         \"latency\": {{\"p50_ns\": {}, \"p99_ns\": {}}}, \
         \"cache_hit_rate\": {hit_rate}, \
         \"server\": {}, \
         \"sessions\": {sessions}}}",
        shared.admission.queued(),
        shared.admission.units(),
        shared.admission.queue_cap(),
        shared.admission.budget(),
        quant(0.5),
        quant(0.99),
        snap.to_json(),
    )
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
