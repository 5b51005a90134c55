//! The tree-walking request decoder `parse_request` replaced, kept as
//! the oracle that pins the streaming decoder's rules: which member
//! wins among duplicates, which keys are ignored and which rejected,
//! which miss is reported when there are several, and that a syntax
//! error anywhere outranks them all.
//!
//! The two differ only where [`lip_obs::json`]'s reader is stricter
//! than the tree parser was (RFC 8259 numbers, the nesting cap, four
//! hex digits after `\u`); `crates/obs/tests/json_differential.rs` pins
//! those, and nothing generated here steps on them.

use lip_obs::json::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use crate::protocol::{
    parse_request, ArraySpec, ErrCode, FrameSpec, Request, RunRequest, MAX_BURN_MS,
};

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

/// What `parse_request` was: parse the payload into a tree, then walk
/// the tree.
fn oracle(payload: &str) -> Result<Request, (ErrCode, String)> {
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
        "burn" => {
            let ms = opt_u64(&json, "ms")?.unwrap_or(0);
            if ms > MAX_BURN_MS {
                return Err(bad(format!("`ms` is {ms} (limit {MAX_BURN_MS})")));
            }
            Ok(Request::Burn {
                ms,
                cost: opt_u64(&json, "cost")?,
                config: parse_config(json.get("config"))?,
            })
        }
        "crash" => Ok(Request::Crash {
            config: parse_config(json.get("config"))?,
        }),
        other => Err(bad(format!("unknown request type `{other}`"))),
    }
}

fn assert_agrees(payload: &str) {
    assert_eq!(parse_request(payload), oracle(payload), "{payload}");
}

/// The unit-test corpus of `protocol.rs` and `serve_matrix.rs`, plus
/// the orderings the streaming decoder has to get right.
#[test]
fn decoders_agree_on_the_request_corpus() {
    for payload in [
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
        "null",
        "[]",
        "7",
        "\"run\"",
        "{}",
        "{\"type\": \"nope\"}",
        "{\"type\": 7}",
        "{\"type\": \"ping\"}",
        "{\"type\": \"stats\", \"frame\": 3, \"config\": 4}",
        "{\"t\\u0079pe\": \"ping\"}",
        "{\"type\": \"ping\", \"type\": \"stats\"}",
        "{\"type\": 1, \"type\": \"stats\"}",
        "{\"type\": \"run\"}",
        "{\"type\": \"run\", \"program\": 7, \"sub\": \"s\", \"loop\": \"l\"}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\"}",
        "{\"loop\": \"l\", \"sub\": \"s\", \"program\": \"p\", \"type\": \"run\"}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": 3}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"data\": [1], \"len\": 2}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"config\": {\"obs\": [1]}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"config\": {\"a\": 1.5, \"b\": -2, \"c\": false, \"a\": \"x\"}}",
        // `ty` after `data`, `fill` before `len`, an ignored spec key.
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"data\": [1, 2.5], \"ty\": \"real\"}, \"B\": {\"fill\": 3, \"len\": 4, \"note\": [1, {}]}}}}",
        // The second `frame` is never looked at, whatever it holds.
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"scalars\": {\"N\": 1}}, \"frame\": 3}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": 3, \"frame\": {\"scalars\": {\"N\": 1}}}",
        // Misses are reported in the decoder's order, not the document's:
        // `results` before `program`, `scalars` before an unknown key.
        "{\"type\": \"run\", \"program\": 1, \"results\": 2}",
        "{\"type\": \"run\", \"cost\": -1, \"deadline_ms\": 0.5, \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\"}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"extra\": 1, \"arrays\": 2, \"scalars\": 3}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"extra\": 1, \"scalars\": {\"N\": 1}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"scalars\": {\"N\": 1, \"N\": 2, \"M\": \"x\"}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"len\": 1, \"ty\": \"byte\", \"data\": 3}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"data\": [1, \"x\", 2]}, \"B\": 7}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"len\": 2.5}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"len\": 2, \"fill\": null}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"frame\": {\"arrays\": {\"A\": {\"len\": 1e15}}}}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"results\": [\"A\", 3]}",
        "{\"type\": \"run\", \"program\": \"p\", \"sub\": \"s\", \"loop\": \"l\", \"results\": {\"A\": 1}}",
        "{\"type\": \"explain\"}",
        "{\"type\": \"explain\", \"loop\": \"l\", \"config\": {\"obs\": \"trace\"}}",
        "{\"type\": \"burn\", \"ms\": 5, \"cost\": 10}",
        "{\"type\": \"burn\", \"ms\": -5}",
        "{\"type\": \"burn\", \"ms\": 10000}",
        "{\"type\": \"burn\", \"ms\": 9007199254740992, \"cost\": -1}",
        "{\"type\": \"burn\", \"config\": []}",
        "{\"type\": \"crash\", \"config\": {\"nthreads\": 2}}",
        // A structural miss, then a syntax error: still `parse_error`.
        "{\"type\": \"run\", \"program\": 7, \"oops\": tru}",
        "{\"type\": \"run\", \"frame\": {\"arrays\": {\"A\": 3}}, \"x\": }",
        "{\"type\": \"run\", \"frame\": {\"zzz\": 1}} trailing",
        "[] x",
    ] {
        assert_agrees(payload);
    }
}

/// One generated `run`-shaped request: known members right or wrong in
/// every way the decoder distinguishes, duplicated, shuffled, padded
/// with unknown keys.
struct RequestText;

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn sp(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", " ", "\n  "])
}

fn object(rng: &mut TestRng, mut members: Vec<(String, String)>) -> String {
    shuffle(rng, &mut members);
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}{k}{}:{}{v}", sp(rng), sp(rng), sp(rng)))
        .collect();
    format!("{{{}{}}}", body.join(","), sp(rng))
}

/// Mostly `right`; one time in `one_in`, something from `wrong`.
fn mostly(right: String, rng: &mut TestRng, one_in: u64, wrong: &[&str]) -> String {
    if rng.below(one_in) == 0 {
        pick(rng, wrong).to_owned()
    } else {
        right
    }
}

fn number_text(rng: &mut TestRng) -> String {
    match rng.below(4) {
        0 => rng.below(100).to_string(),
        1 => format!("{}", (rng.below(512) as f64 - 256.0) / 8.0),
        2 => format!("{:e}", rng.below(1000) as f64 / 7.0),
        _ => format!("-{}.{:02}", rng.below(50), rng.below(100)),
    }
}

fn array_spec_text(rng: &mut TestRng) -> String {
    let mut members = Vec::new();
    // One spec in twelve has neither `data` nor `len`, one has both.
    let shape = rng.below(12);
    let (has_data, has_len) = (shape % 2 == 1 || shape == 2, shape >= 2 && shape % 2 != 1);
    if shape != 0 {
        let data: Vec<String> = (0..rng.below(6))
            .map(|_| mostly(number_text(rng), rng, 30, &["\"x\"", "null", "[1]"]))
            .collect();
        let data = mostly(
            format!("[{}]", data.join(", ")),
            rng,
            20,
            &["3", "{}", "\"d\""],
        );
        if has_data {
            members.push(("\"data\"".to_owned(), data));
        }
        if has_len {
            let len = mostly(
                rng.below(9).to_string(),
                rng,
                8,
                &["-1", "2.5", "\"4\"", "1e15"],
            );
            members.push(("\"len\"".to_owned(), len));
        }
    }
    if rng.below(3) == 0 {
        let ty = mostly(
            pick(rng, &["\"int\"", "\"real\""]).to_owned(),
            rng,
            6,
            &["\"byte\"", "1"],
        );
        members.push(("\"ty\"".to_owned(), ty));
    }
    if rng.below(3) == 0 {
        let fill = mostly(number_text(rng), rng, 6, &["\"0\"", "null"]);
        members.push(("\"fill\"".to_owned(), fill));
    }
    if rng.below(6) == 0 {
        members.push(("\"note\"".to_owned(), "{\"any\": [1, 2]}".to_owned()));
    }
    if rng.below(8) == 0 && !members.is_empty() {
        // A duplicate: the first in document order is the one that counts.
        let (k, _) = members[rng.below(members.len() as u64) as usize].clone();
        members.push((k, pick(rng, &["1", "\"int\"", "[2]", "null"]).to_owned()));
    }
    mostly(object(rng, members), rng, 25, &["3", "[]", "null"])
}

fn frame_text(rng: &mut TestRng) -> String {
    let mut members = Vec::new();
    for _ in 0..2 {
        if rng.below(4) > 0 {
            let scalars = (0..rng.below(4))
                .map(|_| {
                    let name = pick(rng, &["\"N\"", "\"M\"", "\"X\""]).to_owned();
                    (
                        name,
                        mostly(number_text(rng), rng, 15, &["\"1\"", "[]", "true"]),
                    )
                })
                .collect();
            let scalars = mostly(object(rng, scalars), rng, 20, &["1", "[]"]);
            members.push(("\"scalars\"".to_owned(), scalars));
        }
        if rng.below(4) > 0 {
            let arrays = (0..rng.below(4))
                .map(|_| {
                    let name = pick(rng, &["\"A\"", "\"B\"", "\"C\""]).to_owned();
                    (name, array_spec_text(rng))
                })
                .collect();
            let arrays = mostly(object(rng, arrays), rng, 20, &["1", "\"a\""]);
            members.push(("\"arrays\"".to_owned(), arrays));
        }
        if rng.below(5) > 0 {
            break;
        }
    }
    if rng.below(10) == 0 {
        members.push((
            pick(rng, &["\"extra\"", "\"Scalars\""]).to_owned(),
            "{}".to_owned(),
        ));
    }
    mostly(object(rng, members), rng, 25, &["3", "[]", "\"f\""])
}

impl Strategy for RequestText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut members = Vec::new();
        let ty = pick(
            rng,
            &[
                "\"run\"",
                "\"run\"",
                "\"run\"",
                "\"run\"",
                "\"run\"",
                "\"explain\"",
                "\"burn\"",
                "\"crash\"",
                "\"ping\"",
                "\"stats\"",
                "\"nope\"",
                "7",
            ],
        );
        if rng.below(20) > 0 {
            members.push(("\"type\"".to_owned(), ty.to_owned()));
        }
        for key in ["\"program\"", "\"sub\"", "\"loop\""] {
            if rng.below(12) > 0 {
                let text = pick(rng, &["\"calc\"", "\"a\\nb\"", "\"\"", "\"é\""]).to_owned();
                members.push((
                    key.to_owned(),
                    mostly(text, rng, 12, &["7", "null", "[\"s\"]"]),
                ));
            }
        }
        if rng.below(2) == 0 {
            let pairs = (0..rng.below(4))
                .map(|_| {
                    let key = pick(rng, &["\"obs\"", "\"nthreads\"", "\"fission\"", "\"x\""]);
                    let value = pick(
                        rng,
                        &[
                            "\"metrics\"",
                            "2",
                            "2.5",
                            "-3",
                            "true",
                            "false",
                            "1e3",
                            "\"\"",
                        ],
                    );
                    (
                        key.to_owned(),
                        mostly(value.to_owned(), rng, 12, &["[1]", "null", "{}"]),
                    )
                })
                .collect();
            let config = mostly(object(rng, pairs), rng, 15, &["[]", "\"c\"", "1"]);
            members.push(("\"config\"".to_owned(), config));
        }
        for _ in 0..rng.below(3) {
            // Zero, one or two `frame`s.
            members.push(("\"frame\"".to_owned(), frame_text(rng)));
            if rng.below(6) > 0 {
                break;
            }
        }
        if rng.below(2) == 0 {
            let names: Vec<String> = (0..rng.below(4))
                .map(|_| {
                    mostly(
                        pick(rng, &["\"A\"", "\"B\""]).to_owned(),
                        rng,
                        15,
                        &["1", "null"],
                    )
                })
                .collect();
            let results = mostly(format!("[{}]", names.join(", ")), rng, 15, &["\"A\"", "{}"]);
            members.push(("\"results\"".to_owned(), results));
        }
        for key in ["\"deadline_ms\"", "\"cost\"", "\"ms\""] {
            if rng.below(3) == 0 {
                let n = mostly(
                    rng.below(5000).to_string(),
                    rng,
                    6,
                    &["-1", "0.5", "\"9\"", "null"],
                );
                members.push((key.to_owned(), n));
            }
        }
        for _ in 0..rng.below(3) {
            let key = pick(rng, &["\"zz\"", "\"Type\"", "\"\""]).to_owned();
            let value = pick(
                rng,
                &["1", "[[], {\"a\": [null]}]", "\"type\"", "{\"frame\": 3}"],
            );
            members.push((key, value.to_owned()));
        }
        if rng.below(8) == 0 && !members.is_empty() {
            // A duplicate top-level key with some other value.
            let (k, _) = members[rng.below(members.len() as u64) as usize].clone();
            members.push((k, pick(rng, &["1", "\"run\"", "{}", "[\"A\"]"]).to_owned()));
        }
        object(rng, members)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Same request or same `(code, detail)` from both decoders; and
    /// whatever the request's own faults, a syntax error after them
    /// (here: every truncation, and a broken member spliced in at the
    /// end) is what both report.
    #[test]
    fn decoders_agree_on_generated_requests(text in RequestText) {
        let want = oracle(&text);
        prop_assert!(
            !matches!(want, Err((ErrCode::ParseError, _))),
            "generator wrote invalid JSON: {text}"
        );
        prop_assert_eq!(parse_request(&text), want, "{}", text);

        let spliced = format!("{}, \"zz\": tru}}", &text[..text.len() - 1].trim_end());
        let broken = Err((ErrCode::ParseError, "payload is not valid JSON".to_owned()));
        prop_assert_eq!(&oracle(&spliced), &broken, "{}", spliced);
        prop_assert_eq!(&parse_request(&spliced), &broken, "{}", spliced);
        for cut in (0..text.len()).filter(|c| text.is_char_boundary(*c)) {
            prop_assert_eq!(&parse_request(&text[..cut]), &broken, "{}", &text[..cut]);
        }
    }
}

/// The generator reaches what it is for: requests that decode, and
/// every kind of miss.
#[test]
fn the_generator_covers_requests_and_misses() {
    let mut rng = TestRng::from_name("coverage");
    let (mut runs, mut details) = (0, std::collections::BTreeSet::new());
    for _ in 0..3000 {
        match oracle(&RequestText.generate(&mut rng)) {
            Ok(Request::Run(_)) => runs += 1,
            Ok(_) => {}
            Err((_, detail)) => {
                // The shape of the message, names aside.
                details.insert(detail.split('`').step_by(2).collect::<String>());
            }
        }
    }
    assert!(runs > 300, "{runs} run requests decoded");
    // All sixteen shapes of `bad_request` detail an object can earn.
    assert_eq!(details.len(), 16, "{details:#?}");
}
