//! The workspace's one way to read and write JSON.
//!
//! `bench_check`, the serve layer and the trace-validation tests read
//! back the JSON this workspace emits (`bench_e2e` report lines and
//! `BENCHMARK.json`, request frames, the Chrome trace export), and
//! `lip_obs` / `lip_serve` emit it. The build is offline, so instead of
//! serde there is one pull tokenizer ([`Reader`]) and one writer
//! ([`Writer`]), in the same spirit as the in-tree `proptest` stand-in.
//!
//! ## Reader contract
//!
//! [`Reader`] walks a `&str` once. It has exactly two consumers:
//! [`Json::parse`], which builds a tree from it, and
//! `lip_serve::protocol::parse_request`, which decodes a request frame
//! straight into typed fields. Every method returns `None` on a syntax
//! error; there is no recovery.
//!
//! * **Grammar.** RFC 8259, with two stated liberties kept from the
//!   parser this replaces: unescaped control characters inside strings
//!   are accepted, and a `\u` escape naming a surrogate decodes to
//!   U+FFFD instead of pairing. Numbers are *strict*:
//!   `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — `01`,
//!   `1.`, `-.5` and `+1` are syntax errors — and a number whose value
//!   is not finite (`1e999`) is rejected too. `\u` takes exactly four
//!   hex digits.
//! * **Depth.** Arrays and objects nest at most [`MAX_DEPTH`] deep; the
//!   next `[` or `{` is a syntax error. Consumers may therefore recurse
//!   per container: the cap, not the input, bounds their stack.
//! * **Number exactness.** A number without an exponent whose digits,
//!   read as one integer `m`, satisfy `m ≤ 2^53` (every text of up to
//!   15 significant digits does) is computed as `m as f64 / 10^k`, `k`
//!   the count of fraction digits (`k ≤ 19 < 22`). Both operands are
//!   exactly representable, so the one IEEE division is correctly
//!   rounded and the result is bit-identical to `str::parse::<f64>`
//!   (Clinger's fast path). Everything else *is* `str::parse::<f64>` on
//!   the validated slice.
//! * **Strings.** Runs between `"` / `\` are copied whole; a string
//!   without escapes is borrowed from the input.
//!
//! ## Writer contract
//!
//! [`Writer`] appends to a `Vec<u8>` and allocates nothing of its own.
//! Members are separated by `", "` and keys followed by `": "`, the
//! layout every emitter in the workspace already used. Strings go
//! through one escaper ([`crate::json_str`] is `Writer::str` returning
//! a `String`). Numbers are **byte-identical to
//! `format!("{v}")`**: integers are written digit by digit; an `f64`
//! that is an integer below `2^53` prints as that integer (neighbouring
//! floats are at most 1 apart there, so the exact expansion is the only
//! decimal in its rounding interval no longer than itself); an `f64`
//! with `|r| < 65 536` and `r · 1024` integral has an exact decimal
//! expansion of at most 5 + 10 = 15 significant digits, and since
//! distinct decimals of ≤ 15 digits map to distinct doubles, that
//! expansion is the shortest round-trip form `Display` prints;
//! everything else goes through `write!(out, "{r}")`. Non-finite
//! floats are written as `null`.

use std::borrow::Cow;
use std::io::Write as _;

/// Arrays and objects may nest this deep; one more level is a syntax
/// error. Far above anything the workspace emits (the deepest is the
/// `stats` reply, at 6).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64` (exact for the integers the workspace
    /// emits, up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `src` as one JSON document (trailing whitespace allowed,
    /// anything else after the value rejected). `None` on any syntax
    /// error, including nesting beyond [`MAX_DEPTH`].
    pub fn parse(src: &str) -> Option<Json> {
        let mut r = Reader::new(src);
        let v = build(&mut r)?;
        r.finish()?;
        Some(v)
    }

    /// Object member by key (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a path of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(f64_as_u64)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// `n` as `u64` when it is a non-negative integer in range — the rule
/// behind [`Json::as_u64`], shared with consumers that read numbers
/// straight off a [`Reader`].
pub fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// The tree builder: recursion is bounded by [`MAX_DEPTH`], enforced
/// by the reader's `begin_*`.
fn build(r: &mut Reader<'_>) -> Option<Json> {
    Some(match r.peek()? {
        Kind::Null => {
            r.null()?;
            Json::Null
        }
        Kind::Bool => Json::Bool(r.bool()?),
        Kind::Num => Json::Num(r.number()?),
        Kind::Str => Json::Str(r.string()?.into_owned()),
        Kind::Arr => {
            r.begin_array()?;
            let mut out = Vec::new();
            while r.next_element()? {
                // Long arrays are arrays of numbers: no call per element.
                out.push(match r.peek()? {
                    Kind::Num => Json::Num(r.number()?),
                    _ => build(r)?,
                });
            }
            Json::Arr(out)
        }
        Kind::Obj => {
            r.begin_object()?;
            let mut out = Vec::new();
            while let Some(key) = r.next_key()? {
                out.push((key.into_owned(), build(r)?));
            }
            Json::Obj(out)
        }
    })
}

/// What the next value is, by its first byte ([`Reader::peek`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// Powers of ten that are exact in `f64` (10^22 is the last).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The pull tokenizer. See the module docs for the grammar, the depth
/// cap and the number exactness argument.
///
/// The consumer drives the structure: [`Reader::peek`] says what the
/// next value is, one of the value methods consumes it, and containers
/// are walked with `begin_array` + `next_element` or `begin_object` +
/// `next_key`, consuming exactly one value per `true` / `Some(key)`.
/// [`Reader::skip_value`] consumes (and fully validates) a value the
/// consumer has no use for; [`Reader::finish`] checks nothing but
/// whitespace follows the document.
pub struct Reader<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
    /// The innermost open container has not yielded a member yet.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            b: src.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        self.skip_ws();
        self.b[self.pos..].starts_with(lit).then(|| {
            self.pos += lit.len();
        })
    }

    /// The kind of the next value (`None` at the end of input or at a
    /// byte no value starts with).
    #[inline]
    pub fn peek(&mut self) -> Option<Kind> {
        self.skip_ws();
        Some(match self.b.get(self.pos)? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Arr,
            b'{' => Kind::Obj,
            b'-' | b'0'..=b'9' => Kind::Num,
            _ => return None,
        })
    }

    /// Consumes `null`.
    pub fn null(&mut self) -> Option<()> {
        self.eat(b"null")
    }

    /// Consumes `true` or `false`.
    pub fn bool(&mut self) -> Option<bool> {
        self.skip_ws();
        match self.b.get(self.pos)? {
            b't' => self.eat(b"true").map(|()| true),
            _ => self.eat(b"false").map(|()| false),
        }
    }

    /// Consumes a number (strict grammar; finite values only).
    #[inline]
    pub fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let b = self.b;
        let start = self.pos;
        let mut p = start;
        let neg = b.get(p) == Some(&b'-');
        p += usize::from(neg);
        // All digits as one integer; wrapping is harmless because more
        // than 19 digits never take the fast path.
        let mut m: u64 = 0;
        let digits_from = p;
        match b.get(p)? {
            b'0' => p += 1,
            b'1'..=b'9' => {
                while let Some(d @ b'0'..=b'9') = b.get(p) {
                    m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    p += 1;
                }
            }
            _ => return None,
        }
        let mut digits = p - digits_from;
        let mut frac = 0;
        if b.get(p) == Some(&b'.') {
            p += 1;
            let frac_from = p;
            while let Some(d @ b'0'..=b'9') = b.get(p) {
                m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                p += 1;
            }
            frac = p - frac_from;
            if frac == 0 {
                return None;
            }
            digits += frac;
        }
        let mut exponent = false;
        if let Some(b'e' | b'E') = b.get(p) {
            exponent = true;
            p += 1;
            if let Some(b'+' | b'-') = b.get(p) {
                p += 1;
            }
            let exp_from = p;
            while let Some(b'0'..=b'9') = b.get(p) {
                p += 1;
            }
            if p == exp_from {
                return None;
            }
        }
        self.pos = p;
        if !exponent && digits <= 19 && m <= 1 << 53 {
            let v = m as f64 / POW10[frac];
            return Some(if neg { -v } else { v });
        }
        self.src[start..p]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
    }

    /// Consumes a string; borrowed from the input when it has no
    /// escapes.
    pub fn string(&mut self) -> Option<Cow<'a, str>> {
        self.skip_ws();
        if self.b.get(self.pos) != Some(&b'"') {
            return None;
        }
        let start = self.pos + 1;
        let mut p = self.run_end(start)?;
        if self.b[p] == b'"' {
            self.pos = p + 1;
            return Some(Cow::Borrowed(&self.src[start..p]));
        }
        let mut out = String::with_capacity(p - start + 16);
        out.push_str(&self.src[start..p]);
        loop {
            // `p` is at a backslash.
            let c = match *self.b.get(p + 1)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let code =
                        self.b.get(p + 2..p + 6)?.iter().try_fold(0u32, |acc, h| {
                            Some(acc << 4 | char::from(*h).to_digit(16)?)
                        })?;
                    p += 4;
                    // Surrogates (only produced for astral chars, which
                    // the workspace never emits) decode as the
                    // replacement character rather than pairing.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return None,
            };
            out.push(c);
            let run = p + 2;
            p = self.run_end(run)?;
            out.push_str(&self.src[run..p]);
            if self.b[p] == b'"' {
                self.pos = p + 1;
                return Some(Cow::Owned(out));
            }
        }
    }

    /// The position of the first `"` or `\` at or after `from` (`None`
    /// when the input ends first). Both are ASCII, so `from..` that
    /// position is whole UTF-8 scalars.
    #[inline]
    fn run_end(&self, from: usize) -> Option<usize> {
        self.b[from..]
            .iter()
            .position(|c| matches!(c, b'"' | b'\\'))
            .map(|n| from + n)
    }

    fn open(&mut self, bracket: u8) -> Option<()> {
        self.skip_ws();
        if self.b.get(self.pos) != Some(&bracket) || self.depth == MAX_DEPTH {
            return None;
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Some(())
    }

    /// Steps to the next member of the innermost container: `true` at
    /// a member, `false` once `close` was consumed.
    #[inline]
    fn next_member(&mut self, close: u8) -> Option<bool> {
        self.skip_ws();
        let c = *self.b.get(self.pos)?;
        if c == close {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Some(false);
        }
        // After a comma any value method fails on `]` / `}`, so `[1,]`
        // needs no check here.
        if !std::mem::take(&mut self.first) {
            if c != b',' {
                return None;
            }
            self.pos += 1;
        }
        Some(true)
    }

    /// Consumes `[`. Fails at [`MAX_DEPTH`] open containers.
    pub fn begin_array(&mut self) -> Option<()> {
        self.open(b'[')
    }

    /// `true` when another element follows (consume it with a value
    /// method), `false` once the closing `]` was consumed.
    #[inline]
    pub fn next_element(&mut self) -> Option<bool> {
        self.next_member(b']')
    }

    /// Consumes `{`. Fails at [`MAX_DEPTH`] open containers.
    pub fn begin_object(&mut self) -> Option<()> {
        self.open(b'{')
    }

    /// The next member's key, with its `:` consumed (consume the value
    /// with a value method); `Some(None)` once the closing `}` was
    /// consumed.
    pub fn next_key(&mut self) -> Option<Option<Cow<'a, str>>> {
        if !self.next_member(b'}')? {
            return Some(None);
        }
        let key = self.string()?;
        self.eat(b":")?;
        Some(Some(key))
    }

    /// Consumes one value of any kind, validating it exactly as the
    /// typed methods would.
    pub fn skip_value(&mut self) -> Option<()> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Some(())
            }
            Kind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Some(())
            }
        }
    }

    /// Succeeds when only whitespace is left.
    pub fn finish(&mut self) -> Option<()> {
        self.skip_ws();
        (self.pos == self.b.len()).then_some(())
    }
}

/// Appends `s` as a JSON string literal, quotes included: the one
/// escaper.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let b = s.as_bytes();
    let mut run = 0;
    for (i, c) in b.iter().enumerate() {
        let esc: &[u8] = match c {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            b'\r' => b"\\r",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&b[run..i]);
        run = i + 1;
        if esc.is_empty() {
            let _ = write!(out, "\\u{c:04x}");
        } else {
            out.extend_from_slice(esc);
        }
    }
    out.extend_from_slice(&b[run..]);
    out.push(b'"');
}

const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// One number is built right-aligned in a stack buffer — digits come
/// out last first — as `buf[at..NUM_END]`, with room on the left for a
/// sign and the `", "` before it; [`Writer::put`] then appends it in one
/// fixed-size copy. The longest text is a `u64`'s 20 digits.
const NUM_END: usize = 32;
type NumBuf = [u8; 2 * NUM_END];

/// Writes `n` in decimal ending at `at`; returns where it starts.
#[inline]
fn put_u64(buf: &mut NumBuf, mut at: usize, mut n: u64) -> usize {
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Writes a finite `a ≥ 0` as `format!("{a}")` renders it when one of
/// the two exact paths applies (see the module docs for why they are
/// the shortest round-trip form); returns where the text starts.
#[inline]
fn put_exact_f64(buf: &mut NumBuf, a: f64) -> Option<usize> {
    if a >= 65_536.0 {
        // Integers below 2^53 (`i64`: one conversion instruction).
        let whole = a as i64;
        return (a < 9_007_199_254_740_992.0 && whole as f64 == a)
            .then(|| put_u64(buf, NUM_END, whole as u64));
    }
    // `a · 1024` is exact; it is an integer when `a` has at most ten
    // fraction bits.
    let scaled = a * 1024.0;
    let n = scaled as i64;
    if n as f64 != scaled {
        return None;
    }
    let n = n as u64;
    let bits = n & 1023;
    let mut at = NUM_END;
    if bits != 0 {
        // The fraction is k / 2^j in lowest terms (k odd, 1 ≤ j ≤ 10),
        // which has exactly j decimal digits: the first j of
        // `bits · 10^10 / 1024` written as ten. All ten are written, a
        // fixed five pairs whatever j is, so that the zeros after the
        // j-th fall beyond `NUM_END` and are cut off with the rest.
        at -= 10 - bits.trailing_zeros() as usize;
        let mut digits = bits * 9_765_625;
        for pair_at in [8, 6, 4, 2, 0] {
            let pair = (digits % 100) as usize * 2;
            digits /= 100;
            buf[at + pair_at..at + pair_at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        at -= 1;
        buf[at] = b'.';
    }
    Some(put_u64(buf, at, n >> 10))
}

/// The JSON writer. See the module docs for the layout and the number
/// byte-identity contract.
///
/// Calls mirror the document: `begin_obj`, then `key` + one value per
/// member, `end_obj`; `begin_arr`, values, `end_arr`. The writer places
/// the separators; it does not check that the calls balance.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// The next key or element needs a `", "` before it.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending one document to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out, comma: false }
    }

    /// Bytes in the buffer being appended to (whatever it held before
    /// this writer included): how a caller bounds a document's size
    /// while writing it.
    pub fn buffer_len(&self) -> usize {
        self.out.len()
    }

    /// Renders one document into a fresh `String`.
    pub fn render(write: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut out = Vec::new();
        write(&mut Writer::new(&mut out));
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    #[inline]
    fn sep(&mut self) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.extend_from_slice(b", ");
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8) {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
    }

    #[inline]
    fn close(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// `{`.
    pub fn begin_obj(&mut self) {
        self.open(b'{');
    }

    /// `}`.
    pub fn end_obj(&mut self) {
        self.close(b'}');
    }

    /// `[`.
    pub fn begin_arr(&mut self) {
        self.open(b'[');
    }

    /// `]`.
    pub fn end_arr(&mut self) {
        self.close(b']');
    }

    /// A member key; the member's value comes next, usually chained:
    /// `w.key("n").u64(3)`.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_str(self.out, k);
        self.out.extend_from_slice(b": ");
        self.comma = false;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) {
        self.sep();
        write_str(self.out, s);
    }

    /// A string value, or `null`.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => self.str(s),
            None => self.null(),
        }
    }

    /// Appends the number text `buf[at..NUM_END]`, signed and separated:
    /// one fixed-size copy cut back to the text's length, which costs
    /// less than a copy of a length only known at run time.
    #[inline]
    fn put(&mut self, buf: &mut NumBuf, mut at: usize, negative: bool) {
        if negative {
            at -= 1;
            buf[at] = b'-';
        }
        if std::mem::replace(&mut self.comma, true) {
            at -= 2;
            buf[at..at + 2].copy_from_slice(b", ");
        }
        let chunk: &[u8; NUM_END] = buf[at..at + NUM_END]
            .try_into()
            .expect("a NUM_END-byte window");
        let len = self.out.len() + NUM_END - at;
        self.out.extend_from_slice(chunk);
        self.out.truncate(len);
    }

    /// An unsigned integer.
    #[inline]
    pub fn u64(&mut self, n: u64) {
        let mut buf = [0; 2 * NUM_END];
        let at = put_u64(&mut buf, NUM_END, n);
        self.put(&mut buf, at, false);
    }

    /// An unsigned integer, or `null`.
    pub fn opt_u64(&mut self, n: Option<u64>) {
        match n {
            Some(n) => self.u64(n),
            None => self.null(),
        }
    }

    /// A signed integer.
    #[inline]
    pub fn i64(&mut self, n: i64) {
        let mut buf = [0; 2 * NUM_END];
        let at = put_u64(&mut buf, NUM_END, n.unsigned_abs());
        self.put(&mut buf, at, n < 0);
    }

    /// A float, byte-identical to `format!("{v}")`; `null` when it is
    /// not finite.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        let mut buf = [0; 2 * NUM_END];
        match put_exact_f64(&mut buf, v.abs()) {
            Some(at) => self.put(&mut buf, at, v.is_sign_negative()),
            None => {
                self.sep();
                let _ = write!(self.out, "{v}");
            }
        }
    }

    /// A number the caller formats (fixed precision, scaled units):
    /// `w.number_fmt(format_args!("{x:.3}"))`. The text must be a JSON
    /// number.
    pub fn number_fmt(&mut self, text: std::fmt::Arguments<'_>) {
        self.sep();
        let _ = self.out.write_fmt(text);
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.extend_from_slice(b"null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_workspace_emits() {
        let v = Json::parse(
            r#"{"meta": {"schema": 2, "nthreads": 4}, "results": [{"name": "stencil", "wall_ns": 1234, "ok": true, "frac": 0.50}], "none": null}"#,
        )
        .expect("parses");
        assert_eq!(v.path(&["meta", "schema"]).unwrap().as_u64(), Some(2));
        let r = &v.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(r.get("name").unwrap().as_str(), Some("stencil"));
        assert_eq!(r.get("wall_ns").unwrap().as_u64(), Some(1234));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("frac").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let v = Json::parse(r#""\u00e9\u0041\ud800x\/\b\f""#).expect("parses");
        assert_eq!(v.as_str(), Some("éA\u{fffd}x/\u{8}\u{c}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
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
            // Strict RFC 8259 numbers.
            "01",
            "-01",
            "1.",
            "1.e5",
            ".5",
            "-.5",
            "+1",
            "1e",
            "1e+",
            "-",
            "--1",
            "1e999",
            // Structure.
            "[1,]",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 1 \"b\": 2}",
            "{1: 2}",
            "[]]",
            // Escapes.
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\u12g4\"",
            // Depth.
            deep.as_str(),
            abyss.as_str(),
        ] {
            let shown = &bad[..bad.len().min(40)];
            assert!(Json::parse(bad).is_none(), "accepted {shown:?}");
        }
    }

    #[test]
    fn nesting_to_the_cap_parses() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_some());
        let mixed = "{\"a\": [".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&mixed).is_some());
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}]", vec!["[[]]"; 500].join(", "));
        assert!(Json::parse(&wide).is_some());
    }

    #[test]
    fn numbers_take_the_exact_paths() {
        for (text, want) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("-0.0", -0.0),
            ("0.0009765625", 1.0 / 1024.0),
            ("9007199254740992", 9_007_199_254_740_992.0),
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("0.1", 0.1),
            ("0.30000000000000004", 0.1 + 0.2),
            ("123456789012345678901234567890", 1.2345678901234568e29),
            ("1e5", 1e5),
            ("1E-5", 1e-5),
            ("2.5e+3", 2500.0),
            ("5e-324", 5e-324),
        ] {
            let got = Json::parse(text).and_then(|v| v.as_f64()).expect(text);
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn round_trips_decision_json() {
        let mut d = crate::LoopDecision::new("do1");
        d.class = "StaticParallel".into();
        d.executor = "parallel".into();
        let parsed = Json::parse(&d.to_json()).expect("decision JSON parses");
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("do1"));
        assert_eq!(parsed.get("exact_test"), Some(&Json::Null));
    }

    #[test]
    fn reader_decodes_without_a_tree() {
        let mut r =
            Reader::new(r#" {"skip": [1, {"x": "y"}], "data": [1, 2.5, -3], "s": "a\nb"} "#);
        r.begin_object().unwrap();
        let mut data = Vec::new();
        let mut s = None;
        while let Some(key) = r.next_key().unwrap() {
            match &*key {
                "data" => {
                    r.begin_array().unwrap();
                    while r.next_element().unwrap() {
                        data.push(r.number().unwrap());
                    }
                }
                "s" => s = Some(r.string().unwrap().into_owned()),
                _ => r.skip_value().unwrap(),
            }
        }
        r.finish().unwrap();
        assert_eq!(data, [1.0, 2.5, -3.0]);
        assert_eq!(s.as_deref(), Some("a\nb"));
        // Unescaped strings are borrowed.
        let mut r = Reader::new("\"plain\"");
        assert!(matches!(r.string(), Some(Cow::Borrowed("plain"))));
    }

    #[test]
    fn writer_lays_out_like_the_emitters_it_replaced() {
        let text = Writer::render(|w| {
            w.begin_obj();
            w.key("a").u64(1);
            w.key("b").begin_arr();
            w.f64(0.5);
            w.i64(-7);
            w.f64(f64::NAN);
            w.begin_obj();
            w.end_obj();
            w.end_arr();
            w.key("c\"").opt_str(None);
            w.key("d").str("x\ny\u{1}é");
            w.key("e").number_fmt(format_args!("{:.3}", 0.5));
            w.key("f").bool(true);
            w.end_obj();
        });
        assert_eq!(
            text,
            "{\"a\": 1, \"b\": [0.5, -7, null, {}], \"c\\\"\": null, \
             \"d\": \"x\\ny\\u0001é\", \"e\": 0.500, \"f\": true}"
        );
        assert!(Json::parse(&text).is_some());
    }

    #[test]
    fn numbers_are_written_as_display_writes_them() {
        let f = |v: f64| Writer::render(|w| w.f64(v));
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            0.0009765625,
            65535.9990234375,
            65536.5,
            4.125,
            0.1,
            1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1.8446744073709552e19,
            1e300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            assert_eq!(f(v), format!("{v}"), "{v:e}");
        }
        assert_eq!(f(f64::INFINITY), "null");
        let i = |v: i64| Writer::render(|w| w.i64(v));
        for v in [0, 9, 10, 99, 100, -1, 12345, i64::MAX, i64::MIN] {
            assert_eq!(i(v), format!("{v}"));
        }
        assert_eq!(Writer::render(|w| w.u64(u64::MAX)), u64::MAX.to_string());
    }
}
