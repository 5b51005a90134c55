//! End-to-end matrix for the `lip_serve` front end.
//!
//! The load-bearing leg drives ≥ 8 concurrent clients with
//! heterogeneous session configurations and checks every response
//! bit-identical to a direct in-process [`Session`] run of the same
//! kernel under the same configuration — outputs *and* work-unit
//! counts. The rest of the matrix covers graceful overload, queue
//! deadlines, worker panics, malformed frames and the incremental
//! re-analysis counters, the benchmark's large-frame shape, the frames
//! that used to abort the process, the reply bytes pinned as a
//! contract, and the per-stage histograms of `stats`.

use lip_ir::{parse_program, ArrayBuf, ArrayView, Store, Ty, Value};
use lip_obs::json::Json;
use lip_runtime::Session;
use lip_serve::config::session_config_from_pairs;
use lip_serve::protocol::{Client, MAX_FRAME};
use lip_serve::{ServeConfig, Server};
use lip_symbolic::sym;

const STENCIL: &str = "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 1, N
    UNEW(i) = 0.25 * (U(i) + V(i)) + 0.5 * U(i)
  ENDDO
END
";

const REDUCE: &str = "
SUBROUTINE dotp(S, U, V, N)
  DIMENSION U(*), V(*)
  INTEGER i, N
  DO accum i = 1, N
    S = S + U(i) * V(i)
  ENDDO
END
";

struct Kernel {
    program: &'static str,
    sub: &'static str,
    label: &'static str,
    result: &'static str,
    result_is_array: bool,
}

const STENCIL_KERNEL: Kernel = Kernel {
    program: STENCIL,
    sub: "calc",
    label: "sweep",
    result: "UNEW",
    result_is_array: true,
};

const REDUCE_KERNEL: Kernel = Kernel {
    program: REDUCE,
    sub: "dotp",
    label: "accum",
    result: "S",
    result_is_array: false,
};

fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
    (
        (0..n).map(|i| (i as f64) * 0.5).collect(),
        (0..n).map(|i| ((i % 7) as f64) - 3.0).collect(),
    )
}

fn num_list(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    parts.join(", ")
}

fn config_json(pairs: &[(&str, &str)]) -> String {
    let parts: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn run_json(kernel: &Kernel, pairs: &[(&str, &str)], n: usize) -> String {
    let (u, v) = inputs(n);
    let out_binding = if kernel.result_is_array {
        format!(
            "\"arrays\": {{\"{}\": {{\"len\": {n}}}, \"U\": {{\"data\": [{}]}}, \
             \"V\": {{\"data\": [{}]}}}}",
            kernel.result,
            num_list(&u),
            num_list(&v)
        )
    } else {
        format!(
            "\"arrays\": {{\"U\": {{\"data\": [{}]}}, \"V\": {{\"data\": [{}]}}}}",
            num_list(&u),
            num_list(&v)
        )
    };
    let scalars = if kernel.result_is_array {
        format!("{{\"N\": {n}}}")
    } else {
        format!("{{\"N\": {n}, \"{}\": 0}}", kernel.result)
    };
    format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"{}\", \"loop\": \"{}\", \
         \"config\": {}, \"frame\": {{\"scalars\": {scalars}, {out_binding}}}, \
         \"results\": [\"{}\"]}}",
        lip_obs::json_str(kernel.program),
        kernel.sub,
        kernel.label,
        config_json(pairs),
        kernel.result,
    )
}

/// What a direct, in-process session produces for the same kernel,
/// configuration and inputs.
struct Direct {
    outcome: String,
    test_units: u64,
    loop_units: u64,
    result: Vec<f64>,
}

fn run_direct(kernel: &Kernel, pairs: &[(&str, &str)], n: usize) -> Direct {
    let owned: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    let cfg = session_config_from_pairs(&owned).expect("valid config");
    let session = Session::builder().config(cfg).build();
    let prog = parse_program(kernel.program).expect("kernel parses");
    let handle = session
        .load(prog)
        .prepare(sym(kernel.sub), kernel.label)
        .expect("analyzable loop");

    let (u, v) = inputs(n);
    let mut store = Store::new();
    store.set_scalar(sym("N"), Value::Int(n as i64));
    bind(&mut store, "U", &u);
    bind(&mut store, "V", &v);
    if kernel.result_is_array {
        bind(&mut store, kernel.result, &vec![0.0; n]);
    } else {
        store.set_scalar(sym(kernel.result), Value::Real(0.0));
    }
    let stats = handle.run(&mut store).expect("runs");
    let result = if kernel.result_is_array {
        let view = store.array(sym(kernel.result)).expect("bound");
        (0..view.buf.len())
            .map(|i| match view.buf.get(i) {
                Value::Real(r) => r,
                Value::Int(i) => i as f64,
            })
            .collect()
    } else {
        match store.scalar(sym(kernel.result)).expect("bound") {
            Value::Real(r) => vec![r],
            Value::Int(i) => vec![i as f64],
        }
    };
    Direct {
        outcome: format!("{:?}", stats.outcome),
        test_units: stats.test_units,
        loop_units: stats.loop_units,
        result,
    }
}

fn bind(store: &mut Store, name: &str, data: &[f64]) {
    store.bind_array(
        sym(name),
        ArrayView {
            buf: ArrayBuf::from_f64(data),
            offset: 0,
            extents: vec![data.len() as i64],
        },
    );
}

fn reply_result(reply: &Json, kernel: &Kernel) -> Vec<f64> {
    if kernel.result_is_array {
        reply
            .path(&["results", kernel.result, "data"])
            .and_then(Json::as_arr)
            .expect("result data")
            .iter()
            .map(|v| v.as_f64().expect("numeric"))
            .collect()
    } else {
        vec![reply
            .path(&["results", kernel.result, "value"])
            .and_then(Json::as_f64)
            .expect("result value")]
    }
}

/// ≥ 8 concurrent clients, heterogeneous configs, each response
/// bit-identical (outputs and work units) to a direct session run.
#[test]
fn concurrent_heterogeneous_clients_match_direct_sessions() {
    let configs: [&[(&str, &str)]; 8] = [
        &[],
        &[("obs", "metrics")],
        &[("obs", "trace"), ("nthreads", "3")],
        &[("nthreads", "7")],
        &[("nthreads", "2")],
        &[("par_min", "8"), ("nthreads", "2")],
        &[("fission", "off")],
        &[("fission", "off"), ("nthreads", "2"), ("par_min", "4")],
    ];
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let mut handles = Vec::new();
    for (c, pairs) in configs.iter().enumerate() {
        let pairs: Vec<(&str, &str)> = pairs.to_vec();
        handles.push(std::thread::spawn(move || {
            let kernel = if c % 2 == 0 {
                &STENCIL_KERNEL
            } else {
                &REDUCE_KERNEL
            };
            let n = 48 + 8 * c;
            let expected = run_direct(kernel, &pairs, n);
            let mut client = Client::connect(addr).expect("connect");
            let payload = run_json(kernel, &pairs, n);
            for round in 0..3 {
                let reply = client.call(&payload).expect("round trip");
                assert_eq!(
                    reply.get("type").and_then(Json::as_str),
                    Some("ok"),
                    "client {c} round {round}: {reply:?}"
                );
                assert_eq!(
                    reply.get("outcome").and_then(Json::as_str),
                    Some(expected.outcome.as_str()),
                    "client {c} outcome"
                );
                assert_eq!(
                    reply.get("test_units").and_then(Json::as_u64),
                    Some(expected.test_units),
                    "client {c} test units"
                );
                assert_eq!(
                    reply.get("loop_units").and_then(Json::as_u64),
                    Some(expected.loop_units),
                    "client {c} loop units"
                );
                let got = reply_result(&reply, kernel);
                assert_eq!(got, expected.result, "client {c} round {round} results");
                // Round 0 may be the shard's first sight of the
                // program; by round 2 both caches must be warm.
                if round == 2 {
                    assert_eq!(
                        reply.get("cache").and_then(Json::as_str),
                        Some("hit"),
                        "client {c} analysis cache"
                    );
                    assert_eq!(
                        reply.get("program_cache").and_then(Json::as_str),
                        Some("hit"),
                        "client {c} parse cache"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // The stats roll-up has seen hits and misses from the matrix.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    let rate = stats
        .get("cache_hit_rate")
        .and_then(Json::as_f64)
        .expect("hit rate present");
    assert!(
        rate > 0.5,
        "24 requests over 8 loops must mostly hit: {rate}"
    );
    let sessions = stats
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions");
    assert!(
        sessions.len() >= 4,
        "heterogeneous configs make distinct shards: {}",
        sessions.len()
    );
    server.shutdown();
}

/// The `backend` / `opt` / `pred` wire keys outlived the engines they
/// selected only because `bench_e2e` still sends them: the production
/// spelling is accepted and lands on the shard of an empty config, a
/// retired value is a `config_error`.
#[test]
fn retired_engine_keys_accept_only_the_production_spelling() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let production = [
        ("backend", "bytecode"),
        ("opt", "fuse"),
        ("pred", "compiled"),
    ];
    for pairs in [&[][..], &production[..]] {
        let reply = client
            .call(&run_json(&STENCIL_KERNEL, pairs, 32))
            .expect("round trip");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
    }
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    let shards = stats
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions");
    assert_eq!(shards.len(), 1, "one config, one shard: {shards:?}");

    for retired in [("backend", "treewalk"), ("opt", "none"), ("pred", "tree")] {
        let reply = client
            .call(&run_json(&STENCIL_KERNEL, &[retired], 32))
            .expect("round trip");
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("config_error"),
            "{retired:?}: {reply:?}"
        );
    }
    server.shutdown();
}

/// A program beyond the VM's static limits (an 8-subscript reference)
/// is an explicit `exec_error`, not a panic and not a silent slow
/// path; the connection and the server stay usable.
#[test]
fn programs_beyond_the_vm_limits_get_exec_error() {
    const RANK8: &str = "
SUBROUTINE deep(A, N)
  DIMENSION A(1, 1, 1, 1, 1, 1, 1, *)
  INTEGER i, N
  DO fill i = 1, N
    A(1, 1, 1, 1, 1, 1, 1, i) = 1.0
  ENDDO
END
";
    let payload = format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"deep\", \"loop\": \"fill\", \
         \"frame\": {{\"scalars\": {{\"N\": 8}}, \"arrays\": {{\"A\": {{\"len\": 8}}}}}}, \
         \"results\": [\"A\"]}}",
        lip_obs::json_str(RANK8),
    );
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.call(&payload).expect("round trip");
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("exec_error"),
        "{reply:?}"
    );
    let detail = reply.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("more than 7 subscripts"), "{reply:?}");
    let pong = client.call("{\"type\": \"ping\"}").expect("still serving");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    server.shutdown();
}

/// Overload never hangs: excess traffic gets explicit `overloaded`
/// responses while admitted work completes.
#[test]
fn overload_degrades_to_explicit_rejections() {
    let cfg = ServeConfig {
        pool: 1,
        queue: 2,
        ..ServeConfig::default()
    };
    let server = Server::spawn(cfg).expect("bind");
    let addr = server.addr();

    // Occupy the single worker...
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.call("{\"type\": \"burn\", \"ms\": 400}").expect("burn")
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    // ...then stampede it. Queue capacity 2 with one slot held: some
    // must be rejected, every thread must get *a* response.
    let mut stampede = Vec::new();
    for _ in 0..5 {
        stampede.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let reply = c.call("{\"type\": \"burn\", \"ms\": 1}").expect("reply");
            reply.get("type").and_then(Json::as_str) == Some("ok")
        }));
    }
    let outcomes: Vec<bool> = stampede
        .into_iter()
        .map(|h| h.join().expect("no deadlock, no panic"))
        .collect();
    assert!(outcomes.iter().any(|ok| !ok), "queue of 2 cannot admit 5");
    let held = holder.join().expect("holder");
    assert_eq!(held.get("type").and_then(Json::as_str), Some("ok"));

    // The work-unit budget rejects deterministically and alone.
    let tight = Server::spawn(ServeConfig {
        budget: 100,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut c = Client::connect(tight.addr()).expect("connect");
    let over = c
        .call("{\"type\": \"burn\", \"ms\": 0, \"cost\": 150}")
        .expect("reply");
    assert_eq!(over.get("code").and_then(Json::as_str), Some("overloaded"));
    let fits = c
        .call("{\"type\": \"burn\", \"ms\": 0, \"cost\": 100}")
        .expect("reply");
    assert_eq!(fits.get("type").and_then(Json::as_str), Some("ok"));
    tight.shutdown();
    server.shutdown();
}

/// A `deadline_ms: 0` request has expired by the time a worker
/// dequeues it — the deterministic probe for queue-wait deadlines.
#[test]
fn expired_deadlines_are_rejected_from_the_queue() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut payload = run_json(&STENCIL_KERNEL, &[], 8);
    payload.truncate(payload.len() - 1);
    payload.push_str(", \"deadline_ms\": 0}");
    let reply = client.call(&payload).expect("reply");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("deadline"));
    // The reservation was released; normal traffic proceeds.
    let ok = client
        .call(&run_json(&STENCIL_KERNEL, &[], 8))
        .expect("reply");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"));
    server.shutdown();
}

/// Worker panics are caught: the client gets `worker_panic`, the
/// counter ticks, and the server keeps serving.
#[test]
fn worker_panics_are_nonfatal() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let crash = client.call("{\"type\": \"crash\"}").expect("reply");
    assert_eq!(
        crash.get("code").and_then(Json::as_str),
        Some("worker_panic")
    );
    let ok = client
        .call(&run_json(&STENCIL_KERNEL, &[], 16))
        .expect("server survived");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"));
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    let panics = stats
        .path(&["server", "counters", "server.worker_panic"])
        .and_then(Json::as_u64);
    assert_eq!(panics, Some(1));
    server.shutdown();
}

const INT_DIV: &str = "
SUBROUTINE quot(Q, A, B, N, S)
  INTEGER Q(*), A(*), B(*)
  INTEGER i, N, S
  DO divide i = 1, N
    Q(i) = (A(i) * S) / B(i)
  ENDDO
END
";

/// `Q(i) = (A(i) * S) / B(i)` over 64 elements, `A` all 6 but the last,
/// `B` all -1, `S` = `scale`: `("6", "1")` runs, `("-2147483648",
/// "4294967296")` divides `i64::MIN` by -1 in the last chunk.
fn int_div_json(last: &str, scale: &str, pairs: &[(&str, &str)]) -> String {
    let n = 64usize;
    let mut a = vec!["6"; n];
    a[n - 1] = last;
    format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"quot\", \"loop\": \"divide\", \
         \"config\": {}, \"frame\": {{\"scalars\": {{\"N\": {n}, \"S\": {scale}}}, \"arrays\": {{\
         \"Q\": {{\"len\": {n}}}, \"A\": {{\"data\": [{}]}}, \
         \"B\": {{\"len\": {n}, \"fill\": -1}}}}}}, \"results\": [\"Q\"]}}",
        lip_obs::json_str(INT_DIV),
        config_json(pairs),
        a.join(", "),
    )
}

/// `i64::MIN / -1` is an integer overflow: an `exec_error` naming it,
/// on every build profile, and the connection answers the next run.
#[test]
fn integer_overflow_is_an_exec_error_and_the_connection_lives() {
    let run = |last: &str, scale: &str| int_div_json(last, scale, &[("nthreads", "2")]);
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let failed = client
        .call(&run("-2147483648", "4294967296"))
        .expect("reply");
    assert_eq!(
        failed.get("code").and_then(Json::as_str),
        Some("exec_error"),
        "{failed:?}"
    );
    let detail = format!("{failed:?}");
    assert!(detail.contains("integer overflow"), "{detail}");
    let ok = client.call(&run("6", "1")).expect("connection lives");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"), "{ok:?}");
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    assert_eq!(
        stats.path(&["server", "counters", "server.worker_panic"]),
        None,
        "the overflow must not have been survived by catching a panic"
    );
    server.shutdown();
}

const RECURSIVE: &str = "
SUBROUTINE mark(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    CALL f(A, i)
  ENDDO
END

SUBROUTINE f(B, k)
  DIMENSION B(*)
  INTEGER k
  B(k) = 1.0
  CALL f(B, k)
END
";

/// A subroutine that calls itself without end nests its CALLs past
/// `lip_ir::MAX_CALL_DEPTH`: an `exec_error` naming the callee (it
/// used to overflow the pool worker's stack and abort the server), on
/// the same connection as a run that succeeds right after it, with no
/// panic caught on the way.
#[test]
fn a_recursive_call_is_an_exec_error_and_the_connection_lives() {
    let n = 64usize;
    let recursive = format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"mark\", \"loop\": \"l1\", \
         \"config\": {}, \"frame\": {{\"scalars\": {{\"N\": {n}}}, \"arrays\": {{\
         \"A\": {{\"len\": {n}}}}}}}, \"results\": [\"A\"]}}",
        lip_obs::json_str(RECURSIVE),
        config_json(&[("nthreads", "2")]),
    );
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let failed = client.call(&recursive).expect("reply");
    assert_eq!(
        failed.get("code").and_then(Json::as_str),
        Some("exec_error"),
        "{failed:?}"
    );
    let detail = format!("{failed:?}");
    assert!(detail.contains("calling f nests deeper"), "{detail}");
    let ok = client
        .call(&run_json(&STENCIL_KERNEL, &[], 16))
        .expect("connection lives");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"), "{ok:?}");
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    assert_eq!(
        stats.path(&["server", "counters", "server.worker_panic"]),
        None,
        "the recursion must not have been survived by catching a panic"
    );
    server.shutdown();
}

const HUGE_LOCAL: &str = "
SUBROUTINE spread(Q, A, N)
  INTEGER Q(*), A(*)
  INTEGER i, N
  DO fill i = 1, N
    CALL put(Q, i, A(i) + 0)
  ENDDO
END

SUBROUTINE put(Q, i, K)
  INTEGER Q(*), W(K, K)
  INTEGER i, K
  Q(i) = -6 * K
END
";

/// `CALL put(Q, i, A(i))` over 64 elements, `A` all 1 but the last:
/// `"1"` runs, `"2147483648"` makes the last call allocate its local
/// `W(K, K)` with 2^62 cells, which panics (`capacity overflow`) on
/// every build profile.
fn huge_local_json(last: &str, pairs: &[(&str, &str)]) -> String {
    let n = 64usize;
    let mut a = vec!["1"; n];
    a[n - 1] = last;
    format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"spread\", \"loop\": \"fill\", \
         \"config\": {}, \"frame\": {{\"scalars\": {{\"N\": {n}}}, \"arrays\": {{\
         \"Q\": {{\"len\": {n}}}, \"A\": {{\"data\": [{}]}}}}}}, \"results\": [\"Q\"]}}",
        lip_obs::json_str(HUGE_LOCAL),
        config_json(pairs),
        a.join(", "),
    )
}

/// A panic that starts inside a chunk of the shared fork-join pool —
/// on a pool worker or on the serve worker that opened the region —
/// is re-raised on the serve worker, answered with `worker_panic`, and
/// leaves both the connection and the pool usable. The panic is real:
/// the last iteration's callee allocates a local array of 2^62 cells
/// (integer overflow, the earlier panic source, is an `exec_error`
/// now; if allocation stops panicking too, this test needs another way
/// to panic inside a chunk).
#[test]
fn panic_inside_a_pooled_chunk_is_nonfatal() {
    let run = |last: &str| huge_local_json(last, &[("nthreads", "2")]);
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let crashed = client.call(&run("2147483648")).expect("reply");
    assert_eq!(
        crashed.get("code").and_then(Json::as_str),
        Some("worker_panic"),
        "{crashed:?}"
    );
    // Same connection, same program, same shard key: a rebuilt shard
    // and a two-chunk region through the pool again.
    let ok = client.call(&run("1")).expect("server survived");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"), "{ok:?}");
    assert_eq!(
        ok.path(&["outcome"]).and_then(Json::as_str),
        Some("StaticParallel"),
        "the loop must run through the pool for this test to mean anything"
    );
    let q = ok
        .path(&["results", "Q", "data"])
        .and_then(Json::as_arr)
        .expect("Q");
    assert!(q.iter().all(|v| v.as_f64() == Some(-6.0)), "{q:?}");
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    assert_eq!(
        stats
            .path(&["server", "counters", "server.worker_panic"])
            .and_then(Json::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// Holds the one worker of a `pool: 1` server with a `burn`, queues
/// `payloads` behind it — a connection each, the next sent once `stats`
/// shows the one before admitted — and returns their replies in that
/// order. (The order is what the batching worker needed to get these
/// wrong; the replies asserted on do not depend on it.)
fn queued_behind_a_burn(addr: std::net::SocketAddr, payloads: [String; 3]) -> Vec<Json> {
    let mut probe = Client::connect(addr).expect("connect");
    let mut sent = 0;
    let mut send = |payload: String| {
        let handle = std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.call(&payload).expect("reply")
        });
        sent += 1;
        loop {
            let stats = probe.call("{\"type\": \"stats\"}").expect("stats");
            let admitted = stats.path(&["admission", "queued"]).and_then(Json::as_u64);
            if admitted >= Some(sent) || handle.is_finished() {
                return handle;
            }
            std::thread::yield_now();
        }
    };
    let holder = send("{\"type\": \"burn\", \"ms\": 400}".to_owned());
    let waiting: Vec<_> = payloads.into_iter().map(&mut send).collect();
    let replies = waiting
        .into_iter()
        .map(|h| h.join().expect("no deadlock, no panic"))
        .collect();
    let held = holder.join().expect("holder");
    assert_eq!(held.get("type").and_then(Json::as_str), Some("ok"));
    replies
}

fn reply_kinds(replies: &[Json]) -> Vec<&str> {
    replies
        .iter()
        .map(|r| {
            r.get("code")
                .or_else(|| r.get("type"))
                .and_then(Json::as_str)
                .expect("type or code")
        })
        .collect()
}

/// A request that panics takes down nobody else's: the `run`s queued
/// around it on the same shard are answered with their results.
#[test]
fn a_panicking_request_spares_the_ones_queued_around_it() {
    let server = Server::spawn(ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let pairs = [("nthreads", "2"), ("obs", "metrics")];
    let good = || huge_local_json("1", &pairs);
    let replies = queued_behind_a_burn(
        server.addr(),
        [good(), huge_local_json("2147483648", &pairs), good()],
    );
    assert_eq!(reply_kinds(&replies), ["ok", "worker_panic", "ok"]);
    let mut client = Client::connect(server.addr()).expect("connect");
    let clean = client.call(&good()).expect("clean run");
    assert!(clean.get("results").is_some(), "{clean:?}");
    assert_eq!(replies[0].get("results"), clean.get("results"));
    assert_eq!(replies[2].get("results"), clean.get("results"));
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    assert_eq!(
        stats
            .path(&["server", "counters", "server.worker_panic"])
            .and_then(Json::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// A request that fails costs nobody else a second execution: the
/// shard ran exactly the two loops that were answered `ok`.
#[test]
fn a_failing_request_leaves_its_neighbours_run_once() {
    let server = Server::spawn(ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let good = || run_json(&STENCIL_KERNEL, &[("obs", "metrics")], 8);
    // U unbound: the run fails at execution time.
    let no_u = good().replacen("\"U\": {", "\"U_\": {", 1);
    assert_ne!(no_u, good());
    let replies = queued_behind_a_burn(server.addr(), [good(), no_u, good()]);
    assert_eq!(reply_kinds(&replies), ["ok", "exec_error", "ok"]);
    assert_eq!(replies[0].get("results"), replies[2].get("results"));
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    let sessions = stats
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions");
    assert_eq!(sessions.len(), 1, "one shard key: {sessions:?}");
    assert_eq!(
        sessions[0]
            .path(&["metrics", "counters", "run.loops"])
            .and_then(Json::as_u64),
        Some(2),
        "each `ok` ran once"
    );
    server.shutdown();
}

/// Malformed frames and payloads: errors, never hangs or crashes.
#[test]
fn malformed_frames_and_payloads_are_survivable() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // Unparseable and structurally bad JSON payloads in valid frames.
    let mut client = Client::connect(addr).expect("connect");
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\" 1}",
        "tru",
        "1 2",
        "\"unterminated",
        "{\"a\":}",
        "[,]",
        "nan",
        // Numbers `str::parse` would take and RFC 8259 does not.
        "{\"type\": \"ping\", \"n\": 01}",
        "{\"type\": \"ping\", \"n\": 1.}",
        "{\"type\": \"ping\", \"n\": -.5}",
    ] {
        let reply = client.call(bad).expect("framed garbage gets a reply");
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("parse_error"),
            "{bad:?}"
        );
    }
    for bad in ["null", "{}", "{\"type\": \"nope\"}", "{\"type\": \"run\"}"] {
        let reply = client.call(bad).expect("reply");
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("bad_request"),
            "{bad:?}"
        );
    }

    // A non-UTF-8 payload is answered and the connection stays usable.
    client
        .send_raw(&[0, 0, 0, 2, 0xff, 0xfe])
        .expect("send raw");
    let reply = client.read_reply().expect("bad_frame reply");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("bad_frame"));
    let pong = client.call("{\"type\": \"ping\"}").expect("still alive");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));

    // An oversized length prefix is answered, then the connection is
    // closed (it cannot be resynchronized).
    let mut rogue = Client::connect(addr).expect("connect");
    rogue.send_raw(&[0xff, 0xff, 0xff, 0xff]).expect("send raw");
    let reply = rogue.read_reply().expect("bad_frame reply");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("bad_frame"));
    assert!(rogue.call("{\"type\": \"ping\"}").is_err(), "closed");

    // Deterministic fuzz: raw byte blobs on fresh connections. The
    // server may close those connections but must keep serving.
    let mut seed: u64 = 0x5EED;
    for _ in 0..16 {
        let mut blob = Vec::with_capacity(33);
        for _ in 0..33 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            blob.push((seed >> 33) as u8);
        }
        let mut fuzz = Client::connect(addr).expect("connect");
        let _ = fuzz.send_raw(&blob);
        // Drop without reading; the server thread unblocks on close.
    }
    let mut probe = Client::connect(addr).expect("connect");
    let pong = probe
        .call("{\"type\": \"ping\"}")
        .expect("alive after fuzz");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    server.shutdown();
}

/// The incremental contract over the wire: byte-identical resubmission
/// hits both caches, an AST-preserving edit re-parses but skips
/// re-analysis, and `explain` proxies the trace-level decision report.
#[test]
fn incremental_reanalysis_and_explain_over_the_wire() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let pairs: [(&str, &str); 1] = [("obs", "trace")];
    let payload = run_json(&STENCIL_KERNEL, &pairs, 32);

    let first = client.call(&payload).expect("first");
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let second = client.call(&payload).expect("second");
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(
        second.get("program_cache").and_then(Json::as_str),
        Some("hit")
    );
    assert_eq!(second.get("results"), first.get("results"));

    // Whitespace-only edit: new source bytes, same AST — the parse
    // cache misses but the analysis cache still hits.
    let kernel = Kernel {
        program: STENCIL,
        ..STENCIL_KERNEL
    };
    let mut edited = run_json(&kernel, &pairs, 32);
    edited = edited.replace("SUBROUTINE calc", "\\n\\nSUBROUTINE calc");
    let third = client.call(&edited).expect("third");
    assert_eq!(
        third.get("program_cache").and_then(Json::as_str),
        Some("miss"),
        "{third:?}"
    );
    assert_eq!(third.get("cache").and_then(Json::as_str), Some("hit"));

    // The decision report for the loop ran at trace level on this
    // shard; `explain` must proxy it.
    let explain = client
        .call(&format!(
            "{{\"type\": \"explain\", \"loop\": \"sweep\", \"config\": {}}}",
            config_json(&pairs)
        ))
        .expect("explain");
    let report = explain
        .get("explain")
        .and_then(Json::as_str)
        .expect("report text");
    assert!(report.contains("sweep"), "{report}");
    server.shutdown();
}

/// The benchmark's `large_frame` shape — stencil at `n` = 16 384, two
/// input arrays of dyadic values in the request, all three arrays in
/// the reply (197 KB in, 328 KB out) — bit-identical to a direct
/// session, element by element.
#[test]
fn a_large_frame_matches_the_direct_session_bit_for_bit() {
    let n = 16_384usize;
    let u: Vec<f64> = (0..n).map(|i| ((i * 37) % 64) as f64 / 8.0).collect();
    let v: Vec<f64> = (0..n).map(|i| ((i * 11) % 64) as f64 / 8.0).collect();
    let payload = format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"calc\", \"loop\": \"sweep\", \
         \"config\": {{\"nthreads\": 2}}, \"frame\": {{\"scalars\": {{\"N\": {n}}}, \"arrays\": {{\
         \"UNEW\": {{\"ty\": \"real\", \"len\": {n}}}, \"U\": {{\"ty\": \"real\", \"data\": [{}]}}, \
         \"V\": {{\"ty\": \"real\", \"data\": [{}]}}}}}}, \"results\": [\"UNEW\", \"U\", \"V\"]}}",
        lip_obs::json_str(STENCIL),
        num_list(&u),
        num_list(&v),
    );
    assert!(payload.len() > 150_000, "{}", payload.len());

    let sweep = Session::builder()
        .nthreads(2)
        .build()
        .load(parse_program(STENCIL).expect("parses"))
        .prepare(sym("calc"), "sweep")
        .expect("analyzable loop");
    let mut store = Store::new();
    store.set_scalar(sym("N"), Value::Int(n as i64));
    bind(&mut store, "UNEW", &vec![0.0; n]);
    bind(&mut store, "U", &u);
    bind(&mut store, "V", &v);
    let stats = sweep.run(&mut store).expect("runs");

    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for round in 0..2 {
        let reply = client.call(&payload).expect("round trip");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            reply.get("loop_units").and_then(Json::as_u64),
            Some(stats.loop_units)
        );
        for name in ["UNEW", "U", "V"] {
            let got = reply
                .path(&["results", name, "data"])
                .and_then(Json::as_arr)
                .expect("data");
            let want = store.array(sym(name)).expect("bound");
            assert_eq!(got.len(), n, "{name}");
            for (k, x) in got.iter().enumerate() {
                let Value::Real(w) = want.buf.get(k) else {
                    panic!("{name} is real");
                };
                assert_eq!(
                    x.as_f64().map(f64::to_bits),
                    Some(w.to_bits()),
                    "{name}({k}) round {round}"
                );
            }
        }
    }
    server.shutdown();
}

/// Frames that used to kill the process or the connection — a program
/// whose expressions nest 100 000 deep, JSON nested past any stack, an
/// array length no allocator can serve, an INTEGER no `i64` holds, a
/// reply past the frame limit, a `burn` of 285 000 years, a bogus length
/// prefix — each get their error frame, and the server answers `ping`
/// afterwards: on the same connection for all but the last, on a new
/// one after the prefix (which cannot be resynchronized, as before).
#[test]
fn hostile_frames_get_an_error_frame_and_the_connection_lives() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let stencil = |scalars: &str, unew: &str| {
        format!(
            "{{\"type\": \"run\", \"program\": {}, \"sub\": \"calc\", \"loop\": \"sweep\", \
             \"frame\": {{\"scalars\": {scalars}, \"arrays\": {{\"UNEW\": {unew}, \
             \"U\": {{\"data\": [1, 2, 3, 4]}}, \"V\": {{\"data\": [4, 3, 2, 1]}}}}}}, \
             \"results\": [\"UNEW\"]}}",
            lip_obs::json_str(STENCIL)
        )
    };
    let abyss = format!("{{\"type\": \"ping\", \"x\": {}", "[".repeat(4_000_000));
    let nested_65 = format!(
        "{{\"type\": \"ping\", \"x\": {}{}}}",
        "[".repeat(64),
        "]".repeat(64)
    );
    // A program whose one expression nests 100 000 deep: the parser's
    // recursion — and whatever would have walked the tree it built —
    // ends in an error, where a stack overflow would end the process.
    let deep_program = |open: &str| {
        let rhs = format!("{}1{}", open.repeat(100_000), ")".repeat(100_000));
        let program = STENCIL.replace("0.25 * (U(i) + V(i)) + 0.5 * U(i)", &rhs);
        format!(
            "{{\"type\": \"run\", \"program\": {}, \"sub\": \"calc\", \"loop\": \"sweep\", \
             \"frame\": {{\"scalars\": {{\"N\": 4}}, \"arrays\": {{}}}}, \"results\": []}}",
            lip_obs::json_str(&program)
        )
    };
    let hostile = [
        (
            "100 000 `(`",
            deep_program("("),
            "program_error",
            "nesting deeper than 200 levels",
        ),
        (
            "100 000 `U(`",
            deep_program("U("),
            "program_error",
            "nesting deeper than 200 levels",
        ),
        ("4 MB of `[`", abyss, "parse_error", ""),
        ("65 levels", nested_65, "parse_error", ""),
        (
            "len 1e15",
            stencil("{\"N\": 4}", "{\"len\": 1e15}"),
            "bad_request",
            "1000000000000000 elements",
        ),
        (
            "N 1e300",
            stencil("{\"N\": 1e300}", "{\"len\": 4}"),
            "bad_request",
            "INTEGER",
        ),
        (
            // 10^6 elements of 15 digits: a 17 MB reply.
            "17 MB reply",
            stencil(
                "{\"N\": 4}",
                "{\"len\": 1000000, \"fill\": 0.1234567890123}",
            ),
            "exec_error",
            "exceeds the 16777216-byte frame limit",
        ),
        (
            // A `thread::sleep` of 285 000 years on a pool worker.
            "burn 2^53 ms",
            "{\"type\": \"burn\", \"ms\": 9007199254740992}".to_owned(),
            "bad_request",
            "limit 10000",
        ),
    ];
    for (what, payload, code, detail) in &hostile {
        assert!(payload.len() <= MAX_FRAME, "{what}");
        let reply = client.call(payload).expect(what);
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some(*code),
            "{what}: {reply:?}"
        );
        let said = reply.get("detail").and_then(Json::as_str).expect("detail");
        assert!(said.contains(detail), "{what}: {said}");
        let pong = client
            .call("{\"type\": \"ping\"}")
            .expect("same connection");
        assert_eq!(
            pong.get("type").and_then(Json::as_str),
            Some("pong"),
            "{what}"
        );
    }
    // Just inside the caps everything still runs.
    let ok = client
        .call(&stencil("{\"N\": 4}", "{\"len\": 4}"))
        .expect("reply");
    assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"), "{ok:?}");

    let mut rogue = Client::connect(addr).expect("connect");
    rogue.send_raw(&[0xff, 0xff, 0xff, 0xff]).expect("send raw");
    let reply = rogue.read_reply().expect("bad_frame reply");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("bad_frame"));
    assert!(rogue.call("{\"type\": \"ping\"}").is_err(), "hung up");

    for conn in [&mut client, &mut Client::connect(addr).expect("connect")] {
        let pong = conn.call("{\"type\": \"ping\"}").expect("alive");
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    }
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    assert_eq!(
        stats.path(&["server", "counters", "server.worker_panic"]),
        None,
        "no request above may have been survived by catching a panic"
    );
    server.shutdown();
}

/// One `run` request for a suite kernel at size `n`: every binding of
/// the kernel's own frame, sorted by name, every name asked back.
fn suite_request(shape: &lip_suite::KernelShape, n: usize) -> String {
    let (frame, _) = (shape.prepare)(n);
    let mut scalars: Vec<(String, String)> = frame
        .scalars()
        .map(|(s, v)| (s.name(), format!("{v}")))
        .collect();
    scalars.sort();
    let mut arrays: Vec<(String, String)> = frame
        .arrays()
        .map(|(s, view)| {
            let ty = if view.buf.ty() == Ty::Int {
                "int"
            } else {
                "real"
            };
            let data: Vec<String> = (0..view.buf.len())
                .map(|k| match view.buf.get(k) {
                    Value::Int(i) => format!("{i}"),
                    Value::Real(r) => format!("{r}"),
                })
                .collect();
            (
                s.name(),
                format!("{{\"ty\": \"{ty}\", \"data\": [{}]}}", data.join(", ")),
            )
        })
        .collect();
    arrays.sort();
    let names: Vec<String> = scalars
        .iter()
        .chain(&arrays)
        .map(|(k, _)| format!("\"{k}\""))
        .collect();
    let members = |pairs: &[(String, String)]| {
        let parts: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        parts.join(", ")
    };
    format!(
        "{{\"type\": \"run\", \"program\": {}, \"sub\": \"{}\", \"loop\": \"{}\", \
         \"config\": {{\"nthreads\": 2}}, \"frame\": {{\"scalars\": {{{}}}, \"arrays\": {{{}}}}}, \
         \"results\": [{}]}}",
        lip_obs::json_str(shape.source),
        shape.sub,
        shape.label,
        members(&scalars),
        members(&arrays),
        names.join(", "),
    )
}

/// The wire format is a contract: one request per suite kernel (ints,
/// reals, scalars, every outcome rendering, the frames the wire cannot
/// carry) and one per kind of error frame, replies compared byte for
/// byte with `golden/replies.tsv`, which says where its bytes are from.
#[test]
fn replies_are_byte_identical_to_the_pinned_wire_format() {
    let pinned: Vec<Vec<&str>> = include_str!("golden/replies.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
        .collect();
    let shapes = lip_suite::all_shapes();
    let kernels: Vec<&str> = pinned
        .iter()
        .filter(|l| l[0] != "RAW")
        .map(|l| l[0])
        .collect();
    assert_eq!(
        kernels,
        shapes.iter().map(|s| s.name).collect::<Vec<_>>(),
        "one pinned reply per suite kernel"
    );

    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for line in &pinned {
        let (request, want) = match line[..] {
            ["RAW", request, want] => (request.to_owned(), want),
            [kernel, want] => {
                let shape = shapes.iter().find(|s| s.name == kernel).expect("listed");
                (suite_request(shape, 8), want)
            }
            _ => panic!("malformed golden line: {line:?}"),
        };
        let mut framed = (request.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(request.as_bytes());
        client.send_raw(&framed).expect("send");
        let got = client.read_reply_text().expect("reply");
        assert_eq!(got, want, "reply to `{}`", line[..line.len() - 1].join(" "));
    }
    server.shutdown();
}

/// `stats` says where a request's time went: the four stage histograms
/// sit in `server.histograms` beside `serve.request_ns`, one
/// observation per `run` request each, and — the stages follow one
/// another inside the request — what comes after the decode never sums
/// to more than the requests took.
#[test]
fn stats_break_a_request_into_its_stages() {
    let server = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let runs = 5;
    for _ in 0..runs {
        let reply = client
            .call(&run_json(&STENCIL_KERNEL, &[], 64))
            .expect("round trip");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("ok"));
    }
    let stats = client.call("{\"type\": \"stats\"}").expect("stats");
    let histograms = stats
        .path(&["server", "histograms"])
        .and_then(Json::as_arr)
        .expect("histograms");
    let names: Vec<&str> = histograms
        .iter()
        .filter_map(|h| h.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(
        names,
        [
            "serve.decode_ns",
            "serve.encode_ns",
            "serve.queue_ns",
            "serve.request_ns",
            "serve.run_ns"
        ]
    );
    let field = |name: &str, field: &str| {
        histograms
            .iter()
            .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_u64)
            .expect("histogram field")
    };
    // The `stats` request itself is still in flight: decoded, not done.
    assert_eq!(field("serve.decode_ns", "count"), runs + 1);
    assert!(field("serve.decode_ns", "sum_ns") > 0);
    assert_eq!(field("serve.request_ns", "count"), runs);
    let mut after_decode_ns = 0;
    for stage in ["serve.queue_ns", "serve.run_ns", "serve.encode_ns"] {
        assert_eq!(field(stage, "count"), runs, "{stage}");
        assert!(field(stage, "sum_ns") > 0, "{stage}");
        after_decode_ns += field(stage, "sum_ns");
    }
    assert!(
        after_decode_ns < field("serve.request_ns", "sum_ns"),
        "{after_decode_ns} ns queued, running and encoding in {} ns of requests",
        field("serve.request_ns", "sum_ns")
    );
    server.shutdown();
}
