//! The `serve_mix` workload: closed-loop clients against an in-process
//! `lip_serve` server.
//!
//! Closed loop because each caller of an analysis service waits for
//! its reply before sending the next request. One client thread per
//! core, one connection each, explicit production `config` in every
//! request. The request classes are the rows.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{self, Json, Loaded};
use crate::gen::{self, FrameData, Rng, Variant};
use crate::jsonw::J;
use crate::stats::Spans;
use crate::workload::{make_case, RowSpec, WorkloadSpec};

/// Request classes, with their share of the mix in percent.
pub const CLASSES: [(&str, u64); 4] = [
    ("hit", 68),
    ("fresh_frame", 20),
    ("new_program", 10),
    ("large_frame", 2),
];

/// Requests one client sends per second of its budget, at most. The
/// server caches every never-seen program, so its memory grows with the
/// requests served: a pass bounded by time alone would report a faster
/// server as a larger one. At the seed commit a client completes some
/// 550 requests a second, so the count ends the pass, not the clock.
const REQUESTS_PER_CLIENT_S: f64 = 350.0;

#[derive(Default)]
pub struct ClassRow {
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// The server's own counters, from its `stats` request. A pass
/// reports the difference between the snapshots taken after warm-up
/// and after the last reply, so set-up traffic is not in it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Observations and sum of the `serve.request_ns` histogram.
    pub requests: u64,
    pub request_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
}

impl ServerStats {
    fn since(self, before: ServerStats) -> ServerStats {
        ServerStats {
            requests: self.requests - before.requests,
            request_ns: self.request_ns - before.request_ns,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            rejected: self.rejected - before.rejected,
        }
    }

    /// Mean server-side time of one request, µs.
    pub fn request_mean_us(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.request_ns as f64 / self.requests as f64 / 1e3)
    }

    /// Analysis-cache hits over lookups.
    pub fn cache_hit_share(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }
}

pub struct ServeRun {
    pub setup: Duration,
    pub classes: Vec<ClassRow>,
    pub stats: ServerStats,
    pub spans: Spans,
}

pub struct ServeOptions<'a> {
    pub spec: &'a WorkloadSpec,
    pub seed: u64,
    pub nthreads: usize,
    pub clients: usize,
    pub large_n: usize,
    /// `off`, `metrics` or `trace`: the `obs` key of every request.
    pub obs: &'static str,
    pub budget: Duration,
    /// Benchmark-owned spans kept per client (0 = none).
    pub span_cap: usize,
}

struct Resident {
    spec: RowSpec,
    source: &'static str,
    sub: &'static str,
    label: &'static str,
    program: Loaded,
    input: FrameData,
    want: Vec<u64>,
    payload: String,
}

fn payload(source: &str, sub: &str, label: &str, config: &J, input: &FrameData) -> String {
    let results = input.arrays.iter().map(|a| J::str(a.name)).collect();
    J::obj([
        ("type", J::str("run")),
        ("program", J::str(source)),
        ("sub", J::str(sub)),
        ("loop", J::str(label)),
        ("config", config.clone()),
        ("frame", input.to_serve_json()),
        ("results", J::Arr(results)),
    ])
    .render()
}

/// The arrays of a case's reference, as a serve reply can carry them.
fn want_arrays(program: &Loaded, input: &FrameData) -> Result<Vec<u64>, String> {
    let mut frame = adapter::store_from(input);
    adapter::oracle(program, &mut frame)?;
    Ok(adapter::array_bits(&frame, input))
}

fn resident(rs: &RowSpec, seed: u64, cfg: &J) -> Result<Resident, String> {
    let k = adapter::suite_kernels()
        .into_iter()
        .find(|k| k.name == rs.kernel)
        .ok_or_else(|| format!("suite has no kernel `{}`", rs.kernel))?;
    let program = adapter::load(k.source, k.sub, k.label)?;
    let (case, _) = make_case(seed, rs, 0, &program)?;
    let want = want_arrays(&program, &case.input)?;
    Ok(Resident {
        spec: rs.clone(),
        source: k.source,
        sub: k.sub,
        label: k.label,
        payload: payload(k.source, k.sub, k.label, cfg, &case.input),
        program,
        input: case.input,
        want,
    })
}

/// The large-frame class: stencil at `large_n`, on its own seed stream.
fn large_resident(large_n: usize, seed: u64, cfg: &J) -> Result<Resident, String> {
    let rs = RowSpec {
        kernel: "stencil",
        n: large_n,
        variant: Variant::Pass,
        fresh: false,
    };
    resident(&rs, seed ^ 0x1a, cfg)
}

fn check(reply: Result<Json, String>, input: &FrameData, want: &[u64]) -> Result<(), String> {
    let reply = reply?;
    match adapter::reply_bits(&reply, input) {
        Some(bits) if bits == want => Ok(()),
        Some(_) => Err("reply differs from the tree-walk reference".to_owned()),
        None => Err(format!(
            "reply is not ok: {}",
            reply
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unreadable")
        )),
    }
}

struct ClientOut {
    classes: Vec<ClassRow>,
    spans: Spans,
}

fn client(
    o: &ServeOptions<'_>,
    id: usize,
    addr: SocketAddr,
    ready: &Barrier,
    go: &Barrier,
) -> Result<ClientOut, String> {
    // Set-up: this client's copy of the resident programs (parsed here
    // for the oracle), its connection, and one warm-up request per
    // payload so the shard's caches hold every resident program.
    let prepared = (|| {
        let cfg = adapter::serve_config_json(o.nthreads, o.obs);
        let residents = o
            .spec
            .rows
            .iter()
            .map(|rs| resident(rs, o.seed, &cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let large = large_resident(o.large_n, o.seed, &cfg)?;
        let mut conn = adapter::connect(addr)?;
        for r in residents.iter().chain([&large]) {
            check(conn.call(&r.payload), &r.input, &r.want)?;
        }
        Ok::<_, String>((cfg, residents, large, conn))
    })();
    ready.wait();
    go.wait();
    let (cfg, residents, large, mut conn) = prepared?;

    let mut rng = Rng::new(o.seed).fork("client").fork_n(id as u64);
    let mut classes: Vec<ClassRow> = CLASSES.iter().map(|_| ClassRow::default()).collect();
    let mut spans = Spans::new(o.span_cap);
    let start = Instant::now();
    let max_ops = (o.budget.as_secs_f64() * REQUESTS_PER_CLIENT_S) as u64;
    let mut op = 0u64;
    while op < max_ops && start.elapsed() < o.budget {
        // Outside the clock: pick the class, build payload + reference.
        let draw = rng.below(100);
        let mut class = 0;
        let mut edge = CLASSES[0].1;
        while draw >= edge {
            class += 1;
            edge += CLASSES[class].1;
        }
        let r = &residents[rng.below(residents.len() as u64) as usize];
        let built;
        let (text, input, want): (&str, &FrameData, &[u64]) = match CLASSES[class].0 {
            "hit" => (&r.payload, &r.input, &r.want),
            "large_frame" => (&large.payload, &large.input, &large.want),
            "new_program" => {
                // Same program, same frame, a subroutine name the
                // server has never seen: full parse + analyze.
                let (source, sub) = gen::rename_sub(r.source, r.sub, &format!("c{id}x{op}"));
                built = (payload(&source, &sub, r.label, &cfg, &r.input), None);
                (&built.0, &r.input, &r.want)
            }
            _ => {
                let mut frng = rng.fork(&r.spec.name()).fork_n(op);
                let input = gen::kernel_input(r.spec.kernel, r.spec.n, r.spec.variant, &mut frng);
                let want = want_arrays(&r.program, &input)?;
                built = (
                    payload(r.source, r.sub, r.label, &cfg, &input),
                    Some((input, want)),
                );
                let (input, want) = built.1.as_ref().expect("set above");
                (&built.0, input, want)
            }
        };
        let id_tag = (id as u64) << 48 | op;
        let t = Instant::now();
        let reply = spans.span("op", id_tag, |s| {
            s.span("serve.call", id_tag, |_| conn.call(text))
        });
        let took = t.elapsed();
        let row = &mut classes[class];
        row.attempted += 1;
        row.samples_ms.push(took.as_secs_f64() * 1e3);
        if let Err(e) = check(reply, input, want) {
            row.failed += 1;
            row.first_error.get_or_insert(e);
        }
        op += 1;
    }
    Ok(ClientOut { classes, spans })
}

fn parse_stats(stats: &Json) -> ServerStats {
    let server = stats.get("server");
    let counter = |name: &str| {
        server
            .and_then(|s| s.path(&["counters", name]))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let hist = server
        .and_then(|s| s.get("histograms"))
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("serve.request_ns"))
        });
    let field = |name: &str| {
        hist.and_then(|h| h.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    ServerStats {
        requests: field("count"),
        request_ns: field("sum_ns"),
        cache_hits: counter("server.cache.hit"),
        cache_misses: counter("server.cache.miss"),
        rejected: counter("server.rejected.overload") + counter("server.rejected.deadline"),
    }
}

fn fetch_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let mut conn = adapter::connect(addr)?;
    let reply = conn.call(&J::obj([("type", J::str("stats"))]).render())?;
    Ok(parse_stats(&reply))
}

/// Sets the server and clients up, runs the mix until `budget` or
/// the request count it allows is used up, asks the server for its
/// stats and shuts everything down. A zero budget makes it a set-up
/// measurement.
pub fn run(o: &ServeOptions<'_>) -> Result<ServeRun, String> {
    let t = Instant::now();
    let server = adapter::serve_spawn(o.clients)?;
    let addr = server.addr();
    let ready = Barrier::new(o.clients + 1);
    let go = Barrier::new(o.clients + 1);
    let (setup, before, outs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..o.clients)
            .map(|id| {
                let (ready, go) = (&ready, &go);
                scope.spawn(move || client(o, id, addr, ready, go))
            })
            .collect();
        ready.wait();
        let setup = t.elapsed();
        let before = fetch_stats(addr);
        go.wait();
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect();
        (setup, before, outs)
    });
    let stats = fetch_stats(addr).and_then(|after| Ok(after.since(before?)));
    server.shutdown();

    let mut run = ServeRun {
        setup,
        classes: CLASSES.iter().map(|_| ClassRow::default()).collect(),
        stats: stats?,
        spans: Spans::new(0),
    };
    for out in outs {
        let out = out?;
        for (into, from) in run.classes.iter_mut().zip(out.classes) {
            into.samples_ms.extend(from.samples_ms);
            into.attempted += from.attempted;
            into.failed += from.failed;
            if into.first_error.is_none() {
                into.first_error = from.first_error;
            }
        }
        if run.spans.spans().is_empty() {
            run.spans = out.spans;
        }
    }
    Ok(run)
}

/// Round trips of the server's `ping`, µs each.
pub fn ping_samples(clients: usize, count: usize) -> Result<Vec<f64>, String> {
    let server = adapter::serve_spawn(clients)?;
    let out = (|| {
        let mut conn = adapter::connect(server.addr())?;
        let ping = J::obj([("type", J::str("ping"))]).render();
        let mut samples = Vec::with_capacity(count);
        for _ in 0..count {
            let t = Instant::now();
            conn.call(&ping)?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(samples)
    })();
    server.shutdown();
    out
}

/// One resident hit payload and the large-frame payload of `spec`, for
/// timing `parse_request` alone.
pub fn sample_payloads(
    spec: &WorkloadSpec,
    seed: u64,
    nthreads: usize,
    large_n: usize,
) -> Result<(String, String), String> {
    let cfg = adapter::serve_config_json(nthreads, "off");
    let first = spec.rows.first().ok_or("workload has no rows")?;
    let small = resident(first, seed, &cfg)?;
    let large = large_resident(large_n, seed, &cfg)?;
    Ok((small.payload, large.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_shares_sum_to_one_hundred() {
        assert_eq!(CLASSES.iter().map(|c| c.1).sum::<u64>(), 100);
    }

    #[test]
    fn stats_reply_is_read_by_name() {
        let reply = Json::parse(
            r#"{"type": "stats", "cache_hit_rate": 0.75,
                "server": {"counters": {"server.cache.hit": 3, "server.cache.miss": 1, "server.rejected.overload": 1},
                           "histograms": [{"name": "serve.request_ns", "count": 4, "sum_ns": 8000, "buckets": []}]}}"#,
        )
        .expect("valid");
        let stats = parse_stats(&reply);
        assert_eq!(
            stats,
            ServerStats {
                requests: 4,
                request_ns: 8000,
                cache_hits: 3,
                cache_misses: 1,
                rejected: 1,
            }
        );
        assert_eq!(stats.request_mean_us(), Some(2.0));
        assert_eq!(stats.cache_hit_share(), Some(0.75));
        let later = ServerStats {
            requests: 6,
            request_ns: 14_000,
            ..stats
        };
        assert_eq!(later.since(stats).request_mean_us(), Some(3.0));
        assert_eq!(later.since(stats).cache_hit_share(), None);
    }

    #[test]
    fn request_carries_explicit_production_config() {
        let cfg = adapter::serve_config_json(2, "trace").render();
        for key in [
            "\"backend\": \"bytecode\"",
            "\"opt\": \"fuse\"",
            "\"pred\": \"compiled\"",
            "\"obs\": \"trace\"",
            "\"nthreads\": 2",
        ] {
            assert!(cfg.contains(key), "{cfg}");
        }
        assert!(adapter::parse_request(&payload(
            "src",
            "s",
            "l",
            &adapter::serve_config_json(2, "off"),
            &FrameData::default()
        )));
    }
}
