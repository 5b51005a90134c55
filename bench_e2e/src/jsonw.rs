//! The one JSON writer of the benchmark. Every report, trace file and
//! serve request is built as a [`J`] tree and rendered here; `main`
//! re-parses what it prints with `lip_obs::json` before printing it.

/// A JSON value under construction. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    /// Rendered with Rust's shortest round-trip formatting, so every
    /// digit measured is printed; non-finite values render as `null`.
    Num(f64),
    /// Counts and identifiers, rendered without a fraction.
    Int(i64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn count(n: u64) -> J {
        J::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// `Num` when present, `null` when the measurement does not exist.
    pub fn opt(v: Option<f64>) -> J {
        v.map_or(J::Null, J::Num)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            J::Num(_) => out.push_str("null"),
            J::Int(i) => out.push_str(&i.to_string()),
            J::Str(s) => write_str(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_variant_and_escapes_strings() {
        let doc = J::obj([
            ("n", J::Num(1.25)),
            ("nan", J::Num(f64::NAN)),
            ("i", J::count(7)),
            ("s", J::str("a\"b\\c\nd\u{1}")),
            (
                "a",
                J::Arr(vec![
                    J::Null,
                    J::Bool(true),
                    J::opt(None),
                    J::opt(Some(0.5)),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\"n\": 1.25, \"nan\": null, \"i\": 7, \"s\": \"a\\\"b\\\\c\\nd\\u0001\", \
             \"a\": [null, true, null, 0.5]}"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 0.1 + 0.2;
        let text = J::Num(v).render();
        assert_eq!(text.parse::<f64>().expect("a number"), v);
    }
}
