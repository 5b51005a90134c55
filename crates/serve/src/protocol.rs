//! The wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON — trivial to implement in any language, and
//! self-delimiting so one TCP connection carries any number of
//! request/response pairs in order. The JSON itself is read with the
//! workspace's own zero-dependency parser ([`lip_obs::json`]) and
//! written with the shared escaper ([`lip_obs::json_str`]), so the
//! protocol layer adds no new dependency surface.
//!
//! ## Requests
//!
//! Every request is an object with a `"type"` tag:
//!
//! * `run` — analyze and execute one loop:
//!   `{"type": "run", "program": "<mini-Fortran source>", "sub":
//!   "calc", "loop": "sweep", "config": {"nthreads": 2, ...},
//!   "frame": {"scalars": {"N": 256}, "arrays": {"U": {"data":
//!   [...]}}}, "results": ["UNEW"], "deadline_ms": 500, "cost": 1000}`.
//!   `config`, `frame`, `results`, `deadline_ms` and `cost` are
//!   optional; `cost` is the admission-control work-unit estimate.
//! * `stats` — server counters, latency quantiles, admission state and
//!   every shard session's metrics snapshot. Answered inline, never
//!   queued.
//! * `explain` — proxy `Session::explain` for a loop previously run on
//!   the shard selected by `config` (decision reports are recorded at
//!   `"obs": "trace"`).
//! * `ping` — liveness probe, answered inline with `pong`.
//! * `burn` — diagnostic: hold a pool worker for `ms` milliseconds
//!   under a `cost`-unit admission charge (how the overload tests make
//!   the queue fill deterministically).
//! * `crash` — diagnostic: panic inside the pool worker (exercises the
//!   catch → `worker_panic` error response path).
//!
//! ## Responses
//!
//! Success: `{"type": "ok", ...}` (`run` adds `outcome`, `cache`,
//! `test_units`, `loop_units` and `results`), `{"type": "stats", ...}`,
//! `{"type": "pong"}`. Failure: `{"type": "error", "code": "<code>",
//! "detail": "..."}` with [`ErrCode`] naming the codes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use lip_obs::json::Json;
use lip_obs::json_str;

/// Frames above this payload size are rejected (`bad_frame`); the
/// connection cannot be resynchronized afterwards and is closed.
pub const MAX_FRAME: usize = 1 << 24;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures; a payload above [`MAX_FRAME`] is
/// `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    // One write per frame: a separate prefix write would interact with
    // Nagle's algorithm + delayed ACKs for ~40 ms per direction.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary.
    Closed,
    /// Declared length above [`MAX_FRAME`] — unresynchronizable.
    TooLarge(usize),
    /// Payload was not UTF-8 (the stream itself stays in sync).
    Utf8,
    /// Transport failure (including mid-frame EOF).
    Io(io::Error),
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before a length prefix; see
/// [`FrameError`] for the rest.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut len4 = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len4) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Closed
        } else {
            FrameError::Io(e)
        });
    }
    let len = u32::from_be_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    String::from_utf8(buf).map_err(|_| FrameError::Utf8)
}

/// Error codes of `{"type": "error"}` responses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Unreadable frame: oversized length prefix or non-UTF-8 payload.
    BadFrame,
    /// Syntactically valid JSON that is not a well-formed request.
    BadRequest,
    /// The payload was not valid JSON.
    ParseError,
    /// A `config` entry failed the strict `SessionConfig`/`ServeConfig`
    /// parsers.
    ConfigError,
    /// The submitted program source did not parse.
    ProgramError,
    /// The named subroutine or loop label does not exist (for
    /// `explain`: no decision recorded under the label).
    UnknownLoop,
    /// Admission control rejected the request (queue full or work-unit
    /// budget exhausted). Retry later.
    Overloaded,
    /// The request's deadline expired while it waited in the queue.
    Deadline,
    /// The pool worker panicked executing the request; the server
    /// survives and the shard's caches were rebuilt.
    WorkerPanic,
    /// The loop executed but the runtime reported an error.
    ExecError,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl ErrCode {
    /// The wire rendering of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::BadFrame => "bad_frame",
            ErrCode::BadRequest => "bad_request",
            ErrCode::ParseError => "parse_error",
            ErrCode::ConfigError => "config_error",
            ErrCode::ProgramError => "program_error",
            ErrCode::UnknownLoop => "unknown_loop",
            ErrCode::Overloaded => "overloaded",
            ErrCode::Deadline => "deadline",
            ErrCode::WorkerPanic => "worker_panic",
            ErrCode::ExecError => "exec_error",
            ErrCode::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Renders an error response frame payload.
pub fn error_json(code: ErrCode, detail: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"code\": \"{code}\", \"detail\": {}}}",
        json_str(detail)
    )
}

/// One array initializer in a `run` request's `frame`.
#[derive(Clone, Debug, PartialEq)]
pub struct ArraySpec {
    /// `"int"` or `"real"`; defaults to the subroutine's declared (or
    /// implicit I–N) element type.
    pub ty: Option<String>,
    /// Explicit element values (exclusive with `len`).
    pub data: Option<Vec<f64>>,
    /// Allocate `len` elements filled with `fill` (default 0).
    pub len: Option<usize>,
    /// Fill value for `len`-style allocation.
    pub fill: f64,
}

/// The input state of a `run` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameSpec {
    /// Scalar bindings, in document order.
    pub scalars: Vec<(String, f64)>,
    /// Array bindings, in document order.
    pub arrays: Vec<(String, ArraySpec)>,
}

/// A parsed `run` request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Mini-Fortran source of the whole program.
    pub program: String,
    /// Subroutine containing the loop.
    pub sub: String,
    /// Loop label to analyze and run.
    pub label: String,
    /// Raw configuration pairs (strictly parsed downstream).
    pub config: Vec<(String, String)>,
    /// Input state.
    pub frame: FrameSpec,
    /// Names (scalars or arrays) to return after the run.
    pub results: Vec<String>,
    /// Queue-wait deadline in milliseconds (`0` = already expired).
    pub deadline_ms: Option<u64>,
    /// Admission-control work-unit estimate.
    pub cost: Option<u64>,
}

/// Any request the server understands.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Analyze + execute a loop.
    Run(Box<RunRequest>),
    /// Server + shard telemetry.
    Stats,
    /// Proxy `Session::explain(label)` on the shard of `config`.
    Explain {
        /// Loop label (or kernel name).
        label: String,
        /// Raw configuration pairs selecting the shard.
        config: Vec<(String, String)>,
    },
    /// Liveness probe.
    Ping,
    /// Diagnostic: occupy a worker for `ms` under a `cost` charge.
    Burn {
        /// Hold duration (milliseconds).
        ms: u64,
        /// Admission-control work-unit estimate.
        cost: Option<u64>,
        /// Raw configuration pairs selecting the shard.
        config: Vec<(String, String)>,
    },
    /// Diagnostic: panic inside the worker.
    Crash {
        /// Raw configuration pairs selecting the shard.
        config: Vec<(String, String)>,
    },
}

fn bad(detail: impl Into<String>) -> (ErrCode, String) {
    (ErrCode::BadRequest, detail.into())
}

/// Renders a config JSON value (string / number / bool) to the string
/// form the strict parsers take.
fn config_value(v: &Json) -> Option<String> {
    match v {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) if n.fract() == 0.0 => Some(format!("{}", *n as i64)),
        Json::Num(n) => Some(format!("{n}")),
        Json::Bool(b) => Some(if *b { "on" } else { "off" }.to_owned()),
        _ => None,
    }
}

fn parse_config(v: Option<&Json>) -> Result<Vec<(String, String)>, (ErrCode, String)> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let Some(obj) = v.as_obj() else {
        return Err(bad("`config` must be an object"));
    };
    obj.iter()
        .map(|(k, v)| {
            config_value(v)
                .map(|s| (k.clone(), s))
                .ok_or_else(|| bad(format!("config `{k}` must be a string, number or bool")))
        })
        .collect()
}

fn parse_frame(v: Option<&Json>) -> Result<FrameSpec, (ErrCode, String)> {
    let mut spec = FrameSpec::default();
    let Some(v) = v else {
        return Ok(spec);
    };
    let Some(obj) = v.as_obj() else {
        return Err(bad("`frame` must be an object"));
    };
    if let Some(scalars) = v.get("scalars") {
        let Some(pairs) = scalars.as_obj() else {
            return Err(bad("`frame.scalars` must be an object"));
        };
        for (k, v) in pairs {
            let Some(n) = v.as_f64() else {
                return Err(bad(format!("scalar `{k}` must be a number")));
            };
            spec.scalars.push((k.clone(), n));
        }
    }
    if let Some(arrays) = v.get("arrays") {
        let Some(pairs) = arrays.as_obj() else {
            return Err(bad("`frame.arrays` must be an object"));
        };
        for (k, v) in pairs {
            spec.arrays.push((k.clone(), parse_array_spec(k, v)?));
        }
    }
    for (k, _) in obj {
        if k != "scalars" && k != "arrays" {
            return Err(bad(format!("unknown `frame` key `{k}`")));
        }
    }
    Ok(spec)
}

fn parse_array_spec(name: &str, v: &Json) -> Result<ArraySpec, (ErrCode, String)> {
    let Some(_) = v.as_obj() else {
        return Err(bad(format!("array `{name}` must be an object")));
    };
    let ty = match v.get("ty") {
        None => None,
        Some(t) => match t.as_str() {
            Some(t @ ("int" | "real")) => Some(t.to_owned()),
            _ => {
                return Err(bad(format!(
                    "array `{name}` ty must be \"int\" or \"real\""
                )))
            }
        },
    };
    let data = match v.get("data") {
        None => None,
        Some(d) => {
            let Some(arr) = d.as_arr() else {
                return Err(bad(format!("array `{name}` data must be an array")));
            };
            let mut out = Vec::with_capacity(arr.len());
            for e in arr {
                let Some(n) = e.as_f64() else {
                    return Err(bad(format!("array `{name}` data must be numbers")));
                };
                out.push(n);
            }
            Some(out)
        }
    };
    let len = match v.get("len") {
        None => None,
        Some(l) => match l.as_u64() {
            Some(l) => Some(l as usize),
            None => {
                return Err(bad(format!(
                    "array `{name}` len must be a non-negative integer"
                )))
            }
        },
    };
    let fill = match v.get("fill") {
        None => 0.0,
        Some(f) => f
            .as_f64()
            .ok_or_else(|| bad(format!("array `{name}` fill must be a number")))?,
    };
    match (&data, len) {
        (None, None) => Err(bad(format!("array `{name}` needs `data` or `len`"))),
        (Some(_), Some(_)) => Err(bad(format!(
            "array `{name}`: `data` and `len` are exclusive"
        ))),
        _ => Ok(ArraySpec {
            ty,
            data,
            len,
            fill,
        }),
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, (ErrCode, String)> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing string field `{key}`")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, (ErrCode, String)> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Parses one request payload.
///
/// # Errors
///
/// `(code, detail)` pairs ready for [`error_json`]: `parse_error` for
/// non-JSON, `bad_request` for anything structurally off.
pub fn parse_request(payload: &str) -> Result<Request, (ErrCode, String)> {
    let Some(json) = Json::parse(payload) else {
        return Err((ErrCode::ParseError, "payload is not valid JSON".into()));
    };
    if json.as_obj().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let ty = req_str(&json, "type")?;
    match ty.as_str() {
        "run" => {
            let results = match json.get("results") {
                None => Vec::new(),
                Some(r) => {
                    let Some(arr) = r.as_arr() else {
                        return Err(bad("`results` must be an array of names"));
                    };
                    let mut out = Vec::with_capacity(arr.len());
                    for e in arr {
                        let Some(s) = e.as_str() else {
                            return Err(bad("`results` must be an array of names"));
                        };
                        out.push(s.to_owned());
                    }
                    out
                }
            };
            Ok(Request::Run(Box::new(RunRequest {
                program: req_str(&json, "program")?,
                sub: req_str(&json, "sub")?,
                label: req_str(&json, "loop")?,
                config: parse_config(json.get("config"))?,
                frame: parse_frame(json.get("frame"))?,
                results,
                deadline_ms: opt_u64(&json, "deadline_ms")?,
                cost: opt_u64(&json, "cost")?,
            })))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "explain" => Ok(Request::Explain {
            label: req_str(&json, "loop")?,
            config: parse_config(json.get("config"))?,
        }),
        "burn" => Ok(Request::Burn {
            ms: opt_u64(&json, "ms")?.unwrap_or(0),
            cost: opt_u64(&json, "cost")?,
            config: parse_config(json.get("config"))?,
        }),
        "crash" => Ok(Request::Crash {
            config: parse_config(json.get("config"))?,
        }),
        other => Err(bad(format!("unknown request type `{other}`"))),
    }
}

/// A minimal blocking client over one TCP connection — what the tests,
/// the bench traffic generator and `examples/serve.rs` drive.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a [`crate::Server`]'s address.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request payload and reads the matching response.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or an unparseable response
    /// are all `io::Error`s.
    pub fn call(&mut self, payload: &str) -> io::Result<Json> {
        write_frame(&mut self.stream, payload)?;
        let reply = match read_frame(&mut self.stream) {
            Ok(s) => s,
            Err(FrameError::Io(e)) => return Err(e),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unreadable response frame: {e:?}"),
                ))
            }
        };
        Json::parse(&reply)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response is not valid JSON"))
    }

    /// Sends raw bytes on the wire (malformed-frame testing).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame without sending anything first.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn read_reply(&mut self) -> io::Result<Json> {
        let reply = match read_frame(&mut self.stream) {
            Ok(s) => s,
            Err(FrameError::Io(e)) => return Err(e),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unreadable response frame: {e:?}"),
                ))
            }
        };
        Json::parse(&reply)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response is not valid JSON"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"ping\"}").expect("write");
        write_frame(&mut buf, "second").expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("one"), "{\"type\": \"ping\"}");
        assert_eq!(read_frame(&mut r).expect("two"), "second");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(FrameError::TooLarge(_))
        ));
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend_from_slice(&2u32.to_be_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &bad_utf8[..]),
            Err(FrameError::Utf8)
        ));
        // Truncated mid-frame: an I/O error, not a clean close.
        let mut cut = Vec::new();
        cut.extend_from_slice(&10u32.to_be_bytes());
        cut.extend_from_slice(b"abc");
        assert!(matches!(read_frame(&mut &cut[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn run_request_parses() {
        let req = parse_request(
            r#"{"type": "run", "program": "src", "sub": "calc", "loop": "sweep",
                "config": {"obs": "metrics", "par_min": 64, "fission": true},
                "frame": {"scalars": {"N": 8},
                          "arrays": {"U": {"data": [1, 2]}, "W": {"len": 8, "ty": "int"}}},
                "results": ["W"], "deadline_ms": 250, "cost": 500}"#,
        )
        .expect("parses");
        let Request::Run(run) = req else {
            panic!("not a run");
        };
        assert_eq!(run.sub, "calc");
        assert_eq!(run.label, "sweep");
        assert_eq!(
            run.config,
            vec![
                ("obs".into(), "metrics".into()),
                ("par_min".into(), "64".into()),
                ("fission".into(), "on".into()),
            ]
        );
        assert_eq!(run.frame.scalars, vec![("N".into(), 8.0)]);
        assert_eq!(run.frame.arrays[0].1.data, Some(vec![1.0, 2.0]));
        assert_eq!(run.frame.arrays[1].1.len, Some(8));
        assert_eq!(run.frame.arrays[1].1.ty.as_deref(), Some("int"));
        assert_eq!(run.results, vec!["W".to_owned()]);
        assert_eq!(run.deadline_ms, Some(250));
        assert_eq!(run.cost, Some(500));
    }

    #[test]
    fn malformed_requests_are_bad_request_not_panic() {
        // The malformed corpus from lip_obs::json plus structural misses.
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
        ] {
            let (code, _) = parse_request(bad).expect_err("rejects");
            assert_eq!(code, ErrCode::ParseError, "{bad:?}");
        }
        for bad in [
            "null",
            "[]",
            "{}",
            "{\"type\": \"nope\"}",
            "{\"type\": \"run\"}",
            "{\"type\": \"run\", \"program\": 7, \"sub\": \"s\", \"loop\": \"l\"}",
            "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": 3}",
            "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {}}}}",
            "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"data\": [1], \"len\": 2}}}}",
            "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"config\": {\"obs\": [1]}}",
            "{\"type\": \"explain\"}",
        ] {
            let (code, _) = parse_request(bad).expect_err("rejects");
            assert_eq!(code, ErrCode::BadRequest, "{bad:?}");
        }
    }

    #[test]
    fn error_json_escapes_detail() {
        let e = error_json(ErrCode::Overloaded, "queue \"full\"\n");
        let parsed = Json::parse(&e).expect("valid JSON");
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(
            parsed.get("detail").and_then(Json::as_str),
            Some("queue \"full\"\n")
        );
    }
}
