//! The wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON — trivial to implement in any language, and
//! self-delimiting so one TCP connection carries any number of
//! request/response pairs in order. The JSON is read and written with
//! the workspace's own zero-dependency [`lip_obs::json`], so the
//! protocol layer adds no new dependency surface.
//!
//! ## Decode once, encode once
//!
//! [`parse_request`] drives [`lip_obs::json::Reader`] directly: every
//! byte of a request is visited once and `frame.arrays.*.data` lands in
//! its `Vec<f64>` with no tree in between. The reader's contract is the
//! decoder's — strict RFC 8259 numbers, bit-identical to
//! `str::parse::<f64>`, nesting capped at
//! [`lip_obs::json::MAX_DEPTH`] — and the decoder adds the request
//! rules: the first occurrence of a duplicate key wins, unknown
//! top-level keys are ignored, unknown `frame` keys are rejected, and a
//! syntax error anywhere in the payload is `parse_error` even when a
//! structurally wrong member came first (the decoder notes the first
//! structural miss per member and keeps reading to the end). A
//! tree-walking decoder over [`lip_obs::json::Json`] survives as the
//! test oracle that pins all of this.
//!
//! A reply is written by [`lip_obs::json::Writer`] straight into its
//! [`Frame`], behind the length prefix, and goes to the socket in one
//! write; numbers are byte-identical to `format!("{v}")`. A reply that
//! outgrows [`MAX_FRAME`] is replaced by an `exec_error` naming its
//! size.
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
//!   optional; `cost` is the admission-control work-unit estimate. A
//!   frame's arrays hold at most [`MAX_ARRAY_LEN`] elements in total,
//!   and a value bound to an INTEGER must be an integer of magnitude at
//!   most 2^53 (`bad_request` otherwise).
//! * `stats` — server counters, latency quantiles, admission state and
//!   every shard session's metrics snapshot. Answered inline, never
//!   queued.
//! * `explain` — proxy `Session::explain` for a loop previously run on
//!   the shard selected by `config` (decision reports are recorded at
//!   `"obs": "trace"`).
//! * `ping` — liveness probe, answered inline with `pong`.
//! * `burn` — diagnostic: hold a pool worker for `ms` milliseconds (at
//!   most 10 000, `bad_request` beyond) under a `cost`-unit admission
//!   charge (how the overload tests make the queue fill
//!   deterministically).
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

use lip_obs::json::{f64_as_u64, Json, Kind, Reader, Writer};

/// Frames above this payload size are rejected (`bad_frame`); the
/// connection cannot be resynchronized afterwards and is closed.
pub const MAX_FRAME: usize = 1 << 24;

/// Elements the arrays of one request's `frame` may hold in total
/// (`bad_request` beyond it). No `data` array can be longer than a
/// frame has bytes; this keeps a `len` from naming more.
pub const MAX_ARRAY_LEN: usize = 1 << 24;

/// Longest a `burn` may hold a pool worker (`bad_request` beyond it):
/// the wire does not get to park one for as long as it likes.
pub(crate) const MAX_BURN_MS: u64 = 10_000;

/// One outgoing frame: length prefix and payload in a single buffer,
/// so the payload is written where it is sent from.
#[derive(Debug, Default)]
pub struct Frame {
    buf: Vec<u8>,
}

impl Frame {
    /// Starts the frame over and returns the writer of its payload;
    /// [`Frame::seal`] completes it.
    pub fn begin(&mut self) -> Writer<'_> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        Writer::new(&mut self.buf)
    }

    /// Fills in the length prefix. A payload above [`MAX_FRAME`] cannot
    /// be sent: it is replaced by an `exec_error` naming its size.
    pub fn seal(&mut self) {
        let len = self.payload_len();
        if len > MAX_FRAME {
            return self.error(
                ErrCode::ExecError,
                &format!("reply of {len} bytes exceeds the {MAX_FRAME}-byte frame limit"),
            );
        }
        self.buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    /// Makes this an error response frame.
    pub fn error(&mut self, code: ErrCode, detail: &str) {
        let mut w = self.begin();
        w.begin_obj();
        w.key("type").str("error");
        w.key("code").str(code.as_str());
        w.key("detail").str(detail);
        w.end_obj();
        self.seal();
    }

    /// Makes this a frame carrying `payload` as is.
    ///
    /// # Errors
    ///
    /// A payload above [`MAX_FRAME`] is `InvalidInput`.
    pub fn set_payload(&mut self, payload: &str) -> io::Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame exceeds MAX_FRAME",
            ));
        }
        self.buf.clear();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(payload.as_bytes());
        Ok(())
    }

    /// Payload bytes written so far.
    pub fn payload_len(&self) -> usize {
        self.buf.len().saturating_sub(4)
    }

    /// The payload text.
    pub fn payload(&self) -> &str {
        std::str::from_utf8(self.buf.get(4..).unwrap_or_default())
            .expect("payloads are written as UTF-8")
    }

    /// Sends prefix and payload in one write: a separate prefix write
    /// would interact with Nagle's algorithm + delayed ACKs for ~40 ms
    /// per direction.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.buf)?;
        w.flush()
    }

    /// Gives back the buffer of a frame that outgrew `keep` bytes, so
    /// one large reply does not pin its size for the connection's life.
    pub fn trim(&mut self, keep: usize) {
        if self.buf.capacity() > keep {
            self.buf = Vec::new();
        }
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures; a payload above [`MAX_FRAME`] is
/// `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Frame::default();
    frame.set_payload(payload)?;
    frame.send(w)
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

/// Reads one length-prefixed frame into `buf` (reused across calls,
/// so a connection does not allocate per frame) and returns its
/// payload.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before a length prefix; see
/// [`FrameError`] for the rest.
pub fn read_frame<'b>(r: &mut impl Read, buf: &'b mut Vec<u8>) -> Result<&'b str, FrameError> {
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
    buf.resize(len, 0);
    r.read_exact(buf).map_err(FrameError::Io)?;
    std::str::from_utf8(buf).map_err(|_| FrameError::Utf8)
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

/// One known member of an object being decoded: not seen yet, decoded,
/// or structurally wrong (the `bad_request` detail). The first
/// occurrence of a key fills its slot; later ones are skipped.
type Slot<T> = Option<Result<T, String>>;

/// A decoding step: `None` is a syntax error (the whole payload is
/// `parse_error`), `Some(Err(detail))` a structural miss that was read
/// past, to the end of the member.
type Decoded<T> = Option<Result<T, String>>;

/// Fills `slot` from the next value, or skips the value when an earlier
/// occurrence of the key already did.
fn fill<T>(
    slot: &mut Slot<T>,
    r: &mut Reader<'_>,
    decode: impl FnOnce(&mut Reader<'_>) -> Decoded<T>,
) -> Option<()> {
    if slot.is_some() {
        return r.skip_value();
    }
    *slot = Some(decode(r)?);
    Some(())
}

/// Skips the next value and reports `detail` for it.
fn miss<T>(r: &mut Reader<'_>, detail: String) -> Decoded<T> {
    r.skip_value()?;
    Some(Err(detail))
}

/// Walks the members of the object that comes next; `not_object` is
/// the miss when something else does. A miss stops nothing: `member`
/// sees every key, the first miss (`member`'s or the shape's) is kept.
fn object<'a>(
    r: &mut Reader<'a>,
    not_object: impl FnOnce() -> String,
    mut member: impl FnMut(&mut Reader<'a>, &str) -> Decoded<()>,
) -> Decoded<()> {
    if r.peek()? != Kind::Obj {
        return miss(r, not_object());
    }
    r.begin_object()?;
    let mut first_miss = Ok(());
    while let Some(key) = r.next_key()? {
        let step = member(r, &key)?;
        if first_miss.is_ok() {
            first_miss = step;
        }
    }
    Some(first_miss)
}

fn string_member(r: &mut Reader<'_>, key: &str) -> Decoded<String> {
    if r.peek()? != Kind::Str {
        return miss(r, format!("missing string field `{key}`"));
    }
    Some(Ok(r.string()?.into_owned()))
}

/// The next value as a number, when it is one (skipped otherwise).
fn number(r: &mut Reader<'_>) -> Option<Option<f64>> {
    if r.peek()? != Kind::Num {
        r.skip_value()?;
        return Some(None);
    }
    r.number().map(Some)
}

fn u64_member(r: &mut Reader<'_>, key: &str) -> Decoded<u64> {
    Some(
        number(r)?
            .and_then(f64_as_u64)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    )
}

/// `config`: every value rendered to the string form the strict parsers
/// take.
fn config_member(r: &mut Reader<'_>) -> Decoded<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    let shape = object(
        r,
        || "`config` must be an object".to_owned(),
        |r, key| {
            let value = match r.peek()? {
                Kind::Str => r.string()?.into_owned(),
                Kind::Num => {
                    let n = r.number()?;
                    if n.fract() == 0.0 {
                        format!("{}", n as i64)
                    } else {
                        format!("{n}")
                    }
                }
                Kind::Bool => if r.bool()? { "on" } else { "off" }.to_owned(),
                _ => {
                    return miss(
                        r,
                        format!("config `{key}` must be a string, number or bool"),
                    )
                }
            };
            pairs.push((key.to_owned(), value));
            Some(Ok(()))
        },
    )?;
    Some(shape.map(|()| pairs))
}

fn results_member(r: &mut Reader<'_>) -> Decoded<Vec<String>> {
    let wrong = || "`results` must be an array of names".to_owned();
    if r.peek()? != Kind::Arr {
        return miss(r, wrong());
    }
    r.begin_array()?;
    let mut names = Vec::new();
    let mut all_names = true;
    while r.next_element()? {
        if r.peek()? == Kind::Str {
            names.push(r.string()?.into_owned());
        } else {
            r.skip_value()?;
            all_names = false;
        }
    }
    Some(if all_names { Ok(names) } else { Err(wrong()) })
}

/// `frame`: its members are checked in the order `scalars`, `arrays`,
/// unknown keys, wherever they stand in the document.
fn frame_member(r: &mut Reader<'_>) -> Decoded<FrameSpec> {
    let (mut scalars, mut arrays, mut unknown) = (None, None, None);
    let shape = object(
        r,
        || "`frame` must be an object".to_owned(),
        |r, key| {
            match key {
                "scalars" => fill(&mut scalars, r, scalars_member)?,
                "arrays" => fill(&mut arrays, r, arrays_member)?,
                _ => {
                    unknown.get_or_insert_with(|| format!("unknown `frame` key `{key}`"));
                    r.skip_value()?;
                }
            }
            Some(Ok(()))
        },
    )?;
    Some((|| {
        shape?;
        let spec = FrameSpec {
            scalars: scalars.transpose()?.unwrap_or_default(),
            arrays: arrays.transpose()?.unwrap_or_default(),
        };
        unknown.map_or(Ok(spec), Err)
    })())
}

fn scalars_member(r: &mut Reader<'_>) -> Decoded<Vec<(String, f64)>> {
    let mut pairs = Vec::new();
    let shape = object(
        r,
        || "`frame.scalars` must be an object".to_owned(),
        |r, key| {
            Some(match number(r)? {
                Some(n) => {
                    pairs.push((key.to_owned(), n));
                    Ok(())
                }
                None => Err(format!("scalar `{key}` must be a number")),
            })
        },
    )?;
    Some(shape.map(|()| pairs))
}

fn arrays_member(r: &mut Reader<'_>) -> Decoded<Vec<(String, ArraySpec)>> {
    let mut specs = Vec::new();
    let shape = object(
        r,
        || "`frame.arrays` must be an object".to_owned(),
        |r, key| Some(array_spec(r, key)?.map(|spec| specs.push((key.to_owned(), spec)))),
    )?;
    Some(shape.map(|()| specs))
}

/// One array initializer: members checked in the order `ty`, `data`,
/// `len`, `fill`, then that exactly one of `data` / `len` is there;
/// other keys are ignored.
fn array_spec(r: &mut Reader<'_>, name: &str) -> Decoded<ArraySpec> {
    let (mut ty, mut data, mut len, mut fill_value) = (None, None, None, None);
    let shape = object(
        r,
        || format!("array `{name}` must be an object"),
        |r, key| {
            match key {
                "ty" => fill(&mut ty, r, |r| {
                    let wrong = || format!("array `{name}` ty must be \"int\" or \"real\"");
                    if r.peek()? != Kind::Str {
                        return miss(r, wrong());
                    }
                    let t = r.string()?;
                    Some(if matches!(&*t, "int" | "real") {
                        Ok(t.into_owned())
                    } else {
                        Err(wrong())
                    })
                })?,
                "data" => fill(&mut data, r, |r| array_data(r, name))?,
                "len" => fill(&mut len, r, |r| {
                    Some(
                        number(r)?
                            .and_then(f64_as_u64)
                            .map(|l| l as usize)
                            .ok_or_else(|| {
                                format!("array `{name}` len must be a non-negative integer")
                            }),
                    )
                })?,
                "fill" => fill(&mut fill_value, r, |r| {
                    Some(number(r)?.ok_or_else(|| format!("array `{name}` fill must be a number")))
                })?,
                _ => r.skip_value()?,
            }
            Some(Ok(()))
        },
    )?;
    Some((|| {
        shape?;
        let spec = ArraySpec {
            ty: ty.transpose()?,
            data: data.transpose()?,
            len: len.transpose()?,
            fill: fill_value.transpose()?.unwrap_or(0.0),
        };
        match (&spec.data, spec.len) {
            (None, None) => Err(format!("array `{name}` needs `data` or `len`")),
            (Some(_), Some(_)) => Err(format!("array `{name}`: `data` and `len` are exclusive")),
            _ => Ok(spec),
        }
    })())
}

/// `data`: the elements go straight into their `Vec<f64>`.
fn array_data(r: &mut Reader<'_>, name: &str) -> Decoded<Vec<f64>> {
    if r.peek()? != Kind::Arr {
        return miss(r, format!("array `{name}` data must be an array"));
    }
    r.begin_array()?;
    let mut out = Vec::new();
    let mut all_numbers = true;
    while r.next_element()? {
        match number(r)? {
            Some(n) => out.push(n),
            None => all_numbers = false,
        }
    }
    Some(if all_numbers {
        Ok(out)
    } else {
        Err(format!("array `{name}` data must be numbers"))
    })
}

/// The known top-level members of a request, each filled by the first
/// occurrence of its key. Which of them a request needs depends on
/// `type`, which may come last, so all are decoded as they pass.
#[derive(Default)]
struct Members {
    ty: Slot<String>,
    program: Slot<String>,
    sub: Slot<String>,
    label: Slot<String>,
    config: Slot<Vec<(String, String)>>,
    frame: Slot<FrameSpec>,
    results: Slot<Vec<String>>,
    deadline_ms: Slot<u64>,
    cost: Slot<u64>,
    ms: Slot<u64>,
}

fn required(slot: Slot<String>, key: &str) -> Result<String, String> {
    slot.unwrap_or_else(|| Err(format!("missing string field `{key}`")))
}

impl Members {
    /// The request these members make, checking them in a fixed order
    /// per type — so the first miss reported does not depend on where
    /// the members stood in the document.
    fn assemble(self) -> Result<Request, String> {
        let config =
            |slot: Slot<Vec<(String, String)>>| slot.transpose().map(Option::unwrap_or_default);
        match required(self.ty, "type")?.as_str() {
            "run" => {
                let results = self.results.transpose()?.unwrap_or_default();
                Ok(Request::Run(Box::new(RunRequest {
                    program: required(self.program, "program")?,
                    sub: required(self.sub, "sub")?,
                    label: required(self.label, "loop")?,
                    config: config(self.config)?,
                    frame: self.frame.transpose()?.unwrap_or_default(),
                    results,
                    deadline_ms: self.deadline_ms.transpose()?,
                    cost: self.cost.transpose()?,
                })))
            }
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "explain" => Ok(Request::Explain {
                label: required(self.label, "loop")?,
                config: config(self.config)?,
            }),
            "burn" => {
                let ms = self.ms.transpose()?.unwrap_or(0);
                if ms > MAX_BURN_MS {
                    return Err(format!("`ms` is {ms} (limit {MAX_BURN_MS})"));
                }
                Ok(Request::Burn {
                    ms,
                    cost: self.cost.transpose()?,
                    config: config(self.config)?,
                })
            }
            "crash" => Ok(Request::Crash {
                config: config(self.config)?,
            }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

fn decode(r: &mut Reader<'_>) -> Decoded<Request> {
    let mut m = Members::default();
    let shape = object(
        r,
        || "request must be a JSON object".to_owned(),
        |r, key| {
            match key {
                "type" => fill(&mut m.ty, r, |r| string_member(r, "type"))?,
                "program" => fill(&mut m.program, r, |r| string_member(r, "program"))?,
                "sub" => fill(&mut m.sub, r, |r| string_member(r, "sub"))?,
                "loop" => fill(&mut m.label, r, |r| string_member(r, "loop"))?,
                "config" => fill(&mut m.config, r, config_member)?,
                "frame" => fill(&mut m.frame, r, frame_member)?,
                "results" => fill(&mut m.results, r, results_member)?,
                "deadline_ms" => fill(&mut m.deadline_ms, r, |r| u64_member(r, "deadline_ms"))?,
                "cost" => fill(&mut m.cost, r, |r| u64_member(r, "cost"))?,
                "ms" => fill(&mut m.ms, r, |r| u64_member(r, "ms"))?,
                _ => r.skip_value()?,
            }
            Some(Ok(()))
        },
    )?;
    r.finish()?;
    Some(shape.and_then(|()| m.assemble()))
}

/// Parses one request payload, in one pass over its bytes (see the
/// module docs for the rules).
///
/// # Errors
///
/// `(code, detail)` pairs ready for [`Frame::error`]: `parse_error` for
/// non-JSON, `bad_request` for anything structurally off.
pub fn parse_request(payload: &str) -> Result<Request, (ErrCode, String)> {
    match decode(&mut Reader::new(payload)) {
        None => Err((ErrCode::ParseError, "payload is not valid JSON".into())),
        Some(Err(detail)) => Err((ErrCode::BadRequest, detail)),
        Some(Ok(request)) => Ok(request),
    }
}

/// A minimal blocking client over one TCP connection — what the tests,
/// the bench traffic generator and `examples/serve.rs` drive.
pub struct Client {
    stream: TcpStream,
    /// The request frame and the reply bytes, reused across calls.
    out: Frame,
    inbuf: Vec<u8>,
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
        Ok(Client {
            stream,
            out: Frame::default(),
            inbuf: Vec::new(),
        })
    }

    /// Sends one request payload and reads the matching response.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or an unparseable response
    /// are all `io::Error`s.
    pub fn call(&mut self, payload: &str) -> io::Result<Json> {
        self.out.set_payload(payload)?;
        self.out.send(&mut self.stream)?;
        self.read_reply()
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
        self.read_reply_text().and_then(|reply| {
            Json::parse(reply).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "response is not valid JSON")
            })
        })
    }

    /// Reads one response frame and returns its payload as sent (what
    /// the byte-pinned reply tests compare).
    ///
    /// # Errors
    ///
    /// I/O failures and unreadable frames.
    pub fn read_reply_text(&mut self) -> io::Result<&str> {
        match read_frame(&mut self.stream, &mut self.inbuf) {
            Ok(reply) => Ok(reply),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unreadable response frame: {e:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"type\": \"ping\"}").expect("write");
        write_frame(&mut wire, "second").expect("write");
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut r, &mut buf).expect("one"),
            "{\"type\": \"ping\"}"
        );
        assert_eq!(read_frame(&mut r, &mut buf).expect("two"), "second");
        assert!(matches!(
            read_frame(&mut r, &mut buf),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let mut buf = Vec::new();
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..], &mut buf),
            Err(FrameError::TooLarge(_))
        ));
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend_from_slice(&2u32.to_be_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &bad_utf8[..], &mut buf),
            Err(FrameError::Utf8)
        ));
        // Truncated mid-frame: an I/O error, not a clean close.
        let mut cut = Vec::new();
        cut.extend_from_slice(&10u32.to_be_bytes());
        cut.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &cut[..], &mut buf),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn a_frame_is_written_behind_its_prefix_and_capped() {
        let mut frame = Frame::default();
        let mut w = frame.begin();
        w.begin_obj();
        w.key("type").str("pong");
        w.end_obj();
        frame.seal();
        assert_eq!(frame.payload(), "{\"type\": \"pong\"}");
        let mut wire = Vec::new();
        frame.send(&mut wire).expect("write");
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut &wire[..], &mut buf).expect("reads back"),
            frame.payload()
        );

        // One byte over the limit: the payload becomes an error naming
        // the size, and that frame is sendable.
        let mut w = frame.begin();
        w.str(&"x".repeat(MAX_FRAME - 1));
        frame.seal();
        let reply = Json::parse(frame.payload()).expect("valid JSON");
        assert_eq!(reply.get("code").and_then(Json::as_str), Some("exec_error"));
        let detail = reply.get("detail").and_then(Json::as_str).expect("detail");
        assert!(detail.contains(&format!("{}", MAX_FRAME + 1)), "{detail}");
        // Exactly at the limit it goes through.
        let mut w = frame.begin();
        w.str(&"x".repeat(MAX_FRAME - 2));
        frame.seal();
        assert_eq!(frame.payload_len(), MAX_FRAME);
        assert!(frame.payload().starts_with("\"xx"));
        assert!(frame.set_payload(&"x".repeat(MAX_FRAME + 1)).is_err());
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
        let deep = format!(
            "{{\"type\": \"ping\", \"x\": {}1{}}}",
            "[".repeat(64),
            "]".repeat(64)
        );
        let abyss = "[".repeat(1_000_000);
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
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "--1",
            "{\"type\": \"ping\", \"n\": 01}",
            "{\"type\": \"burn\", \"ms\": 1.}",
            // 65 containers deep; 64 would parse.
            deep.as_str(),
            abyss.as_str(),
            // A structural miss followed by a syntax error is still a
            // syntax error.
            "{\"type\": \"run\", \"program\": 7, \"oops\": tru}",
            "{\"type\": \"run\", \"frame\": {\"arrays\": {\"A\": 3}}, \"x\": }",
            "[] x",
        ] {
            let (code, _) = parse_request(bad).expect_err("rejects");
            let shown = &bad[..bad.len().min(60)];
            assert_eq!(code, ErrCode::ParseError, "{shown:?}");
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
        // At the depth cap (the request object + 63 arrays) an ignored
        // member still parses.
        let at_cap = format!(
            "{{\"type\": \"ping\", \"x\": {}1{}}}",
            "[".repeat(63),
            "]".repeat(63)
        );
        assert_eq!(parse_request(&at_cap), Ok(Request::Ping));
    }

    #[test]
    fn error_json_escapes_detail() {
        let mut frame = Frame::default();
        frame.error(ErrCode::Overloaded, "queue \"full\"\n");
        assert_eq!(
            frame.payload(),
            "{\"type\": \"error\", \"code\": \"overloaded\", \"detail\": \"queue \\\"full\\\"\\n\"}"
        );
        let parsed = Json::parse(frame.payload()).expect("valid JSON");
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
