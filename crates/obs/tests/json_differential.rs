//! Differential tests for `lip_obs::json`: the reader against
//! `str::parse::<f64>` and against the recursive-descent parser it
//! replaced (kept below as the oracle), the writer against `Display`.
//!
//! The reader is stricter than the oracle in three stated ways — RFC
//! 8259 numbers (`01`, `1.`, `-.5`), nesting capped at `MAX_DEPTH`, four
//! hex digits after `\u` (`\u+123`) — and every disagreement a test
//! here tolerates is checked to be one of those.

use lip_obs::json::{Json, Reader, Writer, MAX_DEPTH};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ------------------------------------------------------------------
// The oracle: the parser `Json::parse` was until the pull tokenizer.
// ------------------------------------------------------------------

fn oracle_parse(src: &str) -> Option<Json> {
    let b = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    (pos == b.len()).then_some(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    let lit = lit.as_bytes();
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match b.get(*pos)? {
        b'n' => eat(b, pos, "null").map(|_| Json::Null),
        b't' => eat(b, pos, "true").map(|_| Json::Bool(true)),
        b'f' => eat(b, pos, "false").map(|_| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => parse_array(b, pos),
        b'{' => parse_object(b, pos),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => None,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(out));
            }
            _ => return None,
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        out.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(out));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogates (only produced for astral chars,
                        // which the workspace never emits) decode as
                        // the replacement character rather than pairing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (multi-byte sequences intact).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && b[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
}

// ------------------------------------------------------------------
// Numbers in.
// ------------------------------------------------------------------

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, nothing
/// else.
fn strict_number(t: &str) -> bool {
    let b = t.as_bytes();
    let digits = |mut p: usize| {
        let from = p;
        while b.get(p).is_some_and(u8::is_ascii_digit) {
            p += 1;
        }
        (p > from).then_some(p)
    };
    let mut p = usize::from(b.first() == Some(&b'-'));
    p = match b.get(p) {
        Some(b'0') => p + 1,
        Some(b'1'..=b'9') => digits(p).expect("one digit seen"),
        _ => return false,
    };
    if b.get(p) == Some(&b'.') {
        match digits(p + 1) {
            Some(q) => p = q,
            None => return false,
        }
    }
    if let Some(b'e' | b'E') = b.get(p) {
        p += 1;
        if let Some(b'+' | b'-') = b.get(p) {
            p += 1;
        }
        match digits(p) {
            Some(q) => p = q,
            None => return false,
        }
    }
    p == b.len()
}

/// What the reader must make of `text`: the bits `str::parse` gives a
/// strict, finite number; rejection for anything else.
fn expected_bits(text: &str) -> Option<u64> {
    if !strict_number(text) {
        return None;
    }
    let v: f64 = text.parse().expect("strict numbers parse");
    v.is_finite().then(|| v.to_bits())
}

fn assert_reads_like_str_parse(text: &str) {
    let got = Json::parse(text).map(|v| v.as_f64().expect("a number").to_bits());
    assert_eq!(got, expected_bits(text), "{text}");
}

fn digits(rng: &mut TestRng, count: usize, leading_zero: bool) -> String {
    (0..count)
        .map(|i| {
            let low = u64::from(i == 0 && !leading_zero);
            char::from(b'0' + (low + rng.below(10 - low)) as u8)
        })
        .collect()
}

/// Any finite or non-finite double, by its bits.
fn any_f64(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

#[test]
fn numbers_are_read_bit_identically_to_str_parse() {
    let mut rng = TestRng::from_name("numbers_in");
    // -?digits[.digits], up to 20 digits in all: both sides of the
    // 2^53 edge of the fast path, and past what a u64 holds.
    for _ in 0..200_000 {
        let total = 1 + rng.below(20) as usize;
        let int = 1 + rng.below(total as u64) as usize;
        let mut text = String::new();
        if rng.below(2) == 0 {
            text.push('-');
        }
        if int == 1 || rng.below(8) > 0 {
            text += &digits(&mut rng, int, int == 1);
        } else {
            text.push('0');
        }
        if total > int {
            text.push('.');
            text += &digits(&mut rng, total - int, true);
        }
        assert_reads_like_str_parse(&text);
    }
    // Exponent forms, including ones that overflow and underflow.
    for _ in 0..100_000 {
        let mantissa = 1 + rng.below(17) as usize;
        let mut text = digits(&mut rng, 1, false);
        if mantissa > 1 {
            text.push('.');
            text += &digits(&mut rng, mantissa - 1, true);
        }
        text.push(if rng.below(2) == 0 { 'e' } else { 'E' });
        text += ["", "+", "-"][rng.below(3) as usize];
        let exp = rng.below(400);
        text += &if rng.below(4) == 0 {
            format!("{exp:04}")
        } else {
            exp.to_string()
        };
        assert_reads_like_str_parse(&text);
    }
    // The shortest renderings of random bit patterns, plain and
    // scientific.
    for _ in 0..150_000 {
        let v = any_f64(&mut rng);
        if v.is_finite() {
            assert_reads_like_str_parse(&format!("{v}"));
            assert_reads_like_str_parse(&format!("{v:e}"));
        }
    }
    for edge in [
        "0",
        "-0",
        "0.0",
        "-0.000",
        "9007199254740992",
        "9007199254740993",
        "9007199254740991.5",
        "900719925474099.3",
        "0.9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "0.0000000000000000001",
        "1e22",
        "1e23",
        "1e308",
        "1e309",
        "-1e309",
        "4.9e-324",
        "2e-324",
        "1e-400",
        "2.2250738585072011e-308",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "0e0",
        "0E-0",
    ] {
        assert_reads_like_str_parse(edge);
    }
    // What `str::parse` tolerates and the grammar does not.
    for loose in [
        "01", "-01", "00", "1.", "-1.", "1.e3", ".5", "-.5", "+1", "1e", "1e+", "-", "--1", "1_0",
        "0x10", "1e1.5", "inf", "-inf", "NaN", "infinity", "1f64",
    ] {
        assert_eq!(expected_bits(loose), None);
        assert!(Json::parse(loose).is_none(), "accepted {loose}");
    }
}

// ------------------------------------------------------------------
// Numbers out.
// ------------------------------------------------------------------

fn assert_written_like_display(v: f64) {
    let text = Writer::render(|w| w.f64(v));
    if !v.is_finite() {
        assert_eq!(text, "null");
        return;
    }
    assert_eq!(text, format!("{v}"), "{v:e}");
    let back = Json::parse(&text).and_then(|j| j.as_f64()).expect(&text);
    assert_eq!(back.to_bits(), v.to_bits(), "{text}");
}

#[test]
fn numbers_are_written_byte_identically_to_display() {
    let mut rng = TestRng::from_name("numbers_out");
    for _ in 0..200_000 {
        assert_written_like_display(any_f64(&mut rng));
    }
    // Integers: the whole fast range, its edge, and beyond.
    for _ in 0..100_000 {
        let magnitude = rng.next_u64() >> rng.below(64);
        let v = magnitude as f64;
        assert_written_like_display(v);
        assert_written_like_display(-v);
    }
    for k in -2..=2i64 {
        for base in [1i64 << 53, 1 << 52, 65_536, 1 << 62, 10_000_000_000_000_000] {
            assert_written_like_display((base + k) as f64);
            assert_written_like_display(-((base + k) as f64));
        }
    }
    // k / 2^j: inside the dyadic fast path (j ≤ 10, |r| < 65 536), at
    // its edges, and outside.
    for _ in 0..200_000 {
        let j = rng.below(13) as i32;
        let k = (rng.next_u64() >> (20 + rng.below(44))) as f64;
        let v = k / 2f64.powi(j);
        assert_written_like_display(v);
        assert_written_like_display(-v);
    }
    for whole in [0u32, 1, 9, 10, 99, 100, 65_535, 65_536, 65_537] {
        for bits in 0..1024u32 {
            let v = f64::from(whole) + f64::from(bits) / 1024.0;
            assert_written_like_display(v);
            assert_written_like_display(-v);
        }
    }
    for v in [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        2.225073858507201e-308,
        1e300,
        -1e300,
        1e21,
        1e22,
        1e23,
        0.1,
        0.30000000000000004,
        1.0 / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_written_like_display(v);
    }
    // Integers proper.
    for _ in 0..100_000 {
        let n = rng.next_u64() >> rng.below(64);
        assert_eq!(Writer::render(|w| w.u64(n)), n.to_string());
        let i = (n as i64).wrapping_mul(if rng.below(2) == 0 { 1 } else { -1 });
        assert_eq!(Writer::render(|w| w.i64(i)), i.to_string());
    }
    for i in [0, -1, i64::MAX, i64::MIN, i64::MIN + 1] {
        assert_eq!(Writer::render(|w| w.i64(i)), i.to_string());
    }
    assert_eq!(Writer::render(|w| w.u64(u64::MAX)), u64::MAX.to_string());
}

// ------------------------------------------------------------------
// Documents.
// ------------------------------------------------------------------

/// Random JSON text, rendered with the liberties a writer may take:
/// whitespace anywhere it is allowed, any escape form for any
/// character, duplicate keys, nesting up to the cap.
struct Document;

impl Strategy for Document {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        // One document in eight is a spine nested exactly to the cap.
        let depth = if rng.below(8) == 0 {
            MAX_DEPTH
        } else {
            rng.below(6) as usize
        };
        ws(rng, &mut out);
        value(rng, &mut out, depth, depth == MAX_DEPTH);
        ws(rng, &mut out);
        out
    }
}

fn ws(rng: &mut TestRng, out: &mut String) {
    for _ in 0..rng.below(3) {
        out.push([' ', '\n', '\t', '\r'][rng.below(4) as usize]);
    }
}

fn string(rng: &mut TestRng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(8) {
        let c = match rng.below(10) {
            0 => '"',
            1 => '\\',
            2 => ['\n', '\t', '\r', '\u{8}', '\u{c}', '/'][rng.below(6) as usize],
            3 => char::from(rng.below(0x20) as u8),
            4 => ['é', 'ß', '€', '→', '漢', '🙂'][rng.below(6) as usize],
            _ => char::from(b' ' + rng.below(95) as u8),
        };
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.below(2) == 0 => out.push_str("\\/"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            // Control characters escaped, or raw: both parsers take them.
            c if (c as u32) < 0x20 && rng.below(2) == 0 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            // Any BMP character may be spelled `\uXXXX`, in either case;
            // a lone surrogate now and then (both decode it as U+FFFD).
            c if (c as u32) < 0x1_0000 && rng.below(4) == 0 => {
                if rng.below(2) == 0 {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
            }
            _ if rng.below(40) == 0 => out.push_str("\\ud83d"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number(rng: &mut TestRng, out: &mut String) {
    match rng.below(4) {
        0 => out.push_str(&(rng.next_u64() as i64 >> rng.below(64)).to_string()),
        1 => out.push_str(&format!("{}", (rng.below(4096) as f64 - 2048.0) / 64.0)),
        2 => {
            let v = any_f64(rng);
            out.push_str(&if v.is_finite() {
                format!("{v:e}")
            } else {
                "0".to_owned()
            });
        }
        _ => out.push_str(&format!("{}.{:03}", rng.below(1000), rng.below(1000))),
    }
}

fn value(rng: &mut TestRng, out: &mut String, depth: usize, spine: bool) {
    let kind = if depth == 0 {
        rng.below(5)
    } else if spine {
        5 + rng.below(2)
    } else {
        rng.below(7)
    };
    match kind {
        0 => out.push_str("null"),
        1 => out.push_str(["true", "false"][rng.below(2) as usize]),
        2 | 3 => number(rng, out),
        4 => string(rng, out),
        5 => {
            out.push('[');
            // On the spine one element carries the nesting down; the
            // others stay shallow so the document stays small.
            let len = if spine {
                1 + rng.below(2)
            } else {
                rng.below(4)
            };
            for i in 0..len {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                value(
                    rng,
                    out,
                    if i == 0 { depth - 1 } else { 0 },
                    spine && i == 0,
                );
                ws(rng, out);
            }
            if len == 0 {
                ws(rng, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            let len = if spine {
                1 + rng.below(2)
            } else {
                rng.below(4)
            };
            for i in 0..len {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                // Few distinct keys, so duplicates are common.
                if rng.below(3) == 0 {
                    string(rng, out);
                } else {
                    out.push_str(["\"a\"", "\"b\"", "\"\\u0061\"", "\"\""][rng.below(4) as usize]);
                }
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                value(
                    rng,
                    out,
                    if i == 0 { depth - 1 } else { 0 },
                    spine && i == 0,
                );
                ws(rng, out);
            }
            if len == 0 {
                ws(rng, out);
            }
            out.push('}');
        }
    }
}

/// Whether `text` is whitespace around one number the oracle takes and
/// the strict grammar does not: the one way a truncation of a generated
/// document may divide the two parsers.
fn is_loose_number(text: &str) -> bool {
    let t = text.trim_matches([' ', '\n', '\t', '\r']);
    !strict_number(t) && matches!(oracle_parse(t), Some(Json::Num(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The tree the new builder makes of a document is the tree the
    /// recursive parser made, and the two accept and reject the same
    /// truncations of it.
    #[test]
    fn builder_agrees_with_the_recursive_parser(text in Document) {
        let want = oracle_parse(&text);
        prop_assert!(want.is_some(), "generator wrote invalid JSON: {text}");
        prop_assert_eq!(Json::parse(&text), want);
        for cut in (0..text.len()).filter(|c| text.is_char_boundary(*c)) {
            let prefix = &text[..cut];
            let (new, old) = (Json::parse(prefix), oracle_parse(prefix));
            if new != old {
                prop_assert!(
                    new.is_none() && is_loose_number(prefix),
                    "parsers disagree on {prefix:?}: {new:?} vs {old:?}"
                );
            }
        }
    }

    /// `skip_value` accepts exactly what the typed methods accept.
    #[test]
    fn skipping_validates_like_building(text in Document) {
        let skipped = |src: &str| {
            let mut r = Reader::new(src);
            r.skip_value().and_then(|()| r.finish()).is_some()
        };
        prop_assert!(skipped(&text));
        for cut in (0..text.len()).filter(|c| text.is_char_boundary(*c)) {
            let prefix = &text[..cut];
            prop_assert_eq!(skipped(prefix), Json::parse(prefix).is_some(), "{:?}", prefix);
        }
    }
}

/// The three tightenings, case by case: the oracle takes each of these
/// and the reader does not.
#[test]
fn the_reader_is_stricter_than_the_oracle_exactly_where_stated() {
    let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
    for loose in [
        "01",
        "-01",
        "00.5",
        "1.",
        "-1.",
        "1.e5",
        "-.5",
        "[1, 2., 3]",
        "{\"a\": 007}",
        "\"\\u+123\"",
        deep.as_str(),
    ] {
        assert!(oracle_parse(loose).is_some(), "oracle rejects {loose}");
        assert!(Json::parse(loose).is_none(), "reader accepts {loose}");
    }
    // And one level shallower both agree.
    let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    assert_eq!(Json::parse(&at_cap), oracle_parse(&at_cap));
    assert!(Json::parse(&at_cap).is_some());
}
