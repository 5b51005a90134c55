//! A minimal JSON reader for the workspace's own artifacts.
//!
//! `bench_check`, the serve layer and the trace-validation tests need
//! to read back the JSON this workspace emits (`bench_e2e` report
//! lines and `BENCHMARK.json`, request frames, the Chrome trace
//! export). The build is offline, so instead of serde this is a
//! ~150-line recursive-descent parser in the same spirit as the
//! in-tree `proptest` stand-in: full JSON syntax, numbers as `f64`,
//! objects in insertion order.

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
    /// error.
    pub fn parse(src: &str) -> Option<Json> {
        let b = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        (pos == b.len()).then_some(v)
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
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
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
    }

    #[test]
    fn rejects_malformed_documents() {
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
            assert!(Json::parse(bad).is_none(), "accepted {bad:?}");
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
}
