//! `lip_serve` — analysis-as-a-service over the `lip_runtime` session
//! pipeline.
//!
//! The paper's cascade (static analysis → runtime predicates →
//! fallback execution) is loop-invariant: the same program analyzed
//! twice yields the same cascade, and a warm [`lip_runtime::Session`]
//! already memoizes compiled bytecode and predicate verdicts. This
//! crate turns that amortization argument into a system: a long-lived,
//! multi-threaded server that accepts programs and run requests over a
//! length-prefixed JSON wire protocol ([`protocol`]), multiplexes many
//! concurrent clients onto a pool of warm sessions sharded by
//! configuration fingerprint ([`pool`], [`lip_runtime::SessionConfig::shard_key`]),
//! and re-analyzes only what changed ([`fingerprint`]): edit-and-rerun
//! traffic that leaves a loop (and its declaration context) intact
//! skips the analysis entirely and goes straight to execution. A `run`
//! is one job, one [`ShardState::run`], one reply: the amortization is
//! in the shard's warm state, so requests are never grouped.
//!
//! Overload degrades gracefully, never hangs ([`scheduler`]): a
//! bounded queue plus a work-unit admission budget turn excess traffic
//! into explicit `overloaded` error responses, per-request deadlines
//! expire in the queue rather than occupying a worker, and a panicking
//! request is caught, answered — it alone — with a `worker_panic` error
//! and counted; the listener stays up.
//!
//! Telemetry rides the `lip_obs` substrate: a `stats` request returns
//! the server's counters and latency histograms plus every shard
//! session's [`lip_obs::MetricsSnapshot`], and an `explain` request
//! proxies `Session::explain` for a named loop.
//!
//! ```no_run
//! use lip_serve::{protocol::Client, ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default()).expect("bind");
//! let mut client = Client::connect(server.addr()).expect("connect");
//! let reply = client.call(r#"{"type": "ping"}"#).expect("round trip");
//! assert_eq!(reply.get("type").and_then(|t| t.as_str()), Some("pong"));
//! server.shutdown();
//! ```

pub mod config;
pub mod fingerprint;
pub mod pool;
pub mod protocol;
#[cfg(test)]
mod protocol_oracle;
pub mod scheduler;
pub mod server;

pub use config::ServeConfig;
pub use fingerprint::{loop_fingerprint, program_fingerprint, source_fingerprint};
pub use pool::ShardState;
pub use protocol::{Client, ErrCode, Request};
pub use scheduler::{Admission, Job, JobKind, WorkerQueue};
pub use server::Server;
