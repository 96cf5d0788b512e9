//! Shared hand-rolled JSON emission (the workspace has no serde and no
//! registry access), plus the one JSON parser: exporter self-checks,
//! telemetry files and committed `BENCH_*.json` artifacts all read
//! through [`parse`].
//!
//! Every JSON artifact the bench crate writes — campaign rows, fuzz rows,
//! `BENCH_*.json` documents, and the trace exporters — funnels its string
//! escaping, fixed-precision float formatting, and row-array layout
//! through here so the formats stay consistent and the duplication stays
//! out of the call sites.

use std::fmt::Display;
use std::fmt::Write;

/// Escapes `s` for inclusion in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, control
/// characters become `\u00XX` (or the short forms for `\n`, `\r`, `\t`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Fixed-precision float, the only float style the repo emits (`{:.p$}`).
/// Non-finite values (which JSON cannot represent) render as `null`.
pub fn f64_fixed(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// Builder for a single-line JSON object in the repo's house style:
/// `{"a": 1, "b": "x"}` — `", "` separators, one space after the colon.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    /// An empty object builder.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `"key": value` with `value` rendered verbatim — for
    /// numbers, booleans, `null`, or pre-rendered nested JSON.
    pub fn raw(mut self, key: &str, value: impl Display) -> Obj {
        self.parts.push(format!("\"{}\": {}", escape(key), value));
        self
    }

    /// Appends `"key": "value"` with the value escaped.
    pub fn str(self, key: &str, value: &str) -> Obj {
        let quoted = string(value);
        self.raw(key, quoted)
    }

    /// Appends `"key": value` as a fixed-precision float.
    pub fn f64(self, key: &str, value: f64, precision: usize) -> Obj {
        let rendered = f64_fixed(value, precision);
        self.raw(key, rendered)
    }

    /// Renders the object on one line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// Renders pre-rendered rows as the repo's standard indented JSON array:
///
/// ```text
/// [
///     row,
///     row
///   ]
/// ```
///
/// `indent` is the indentation (in spaces) of the closing bracket; rows
/// are indented two spaces deeper. An empty row set keeps the same shape
/// (`[\n<indent>]`), matching the historical hand-rolled emitters so
/// refactored call sites stay byte-identical.
pub fn array<I>(rows: I, indent: usize) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let pad = " ".repeat(indent + 2);
    let mut out = String::from("[\n");
    let rows: Vec<_> = rows.into_iter().collect();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&pad);
        out.push_str(row.as_ref());
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str(&" ".repeat(indent));
    out.push(']');
    out
}

/// Renders pre-rendered values as a single-line JSON array: `[a, b, c]`.
pub fn inline_array<I>(values: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let vals: Vec<_> = values.into_iter().map(|v| v.as_ref().to_string()).collect();
    format!("[{}]", vals.join(", "))
}

/// A parsed JSON value. Numbers keep their raw text, so `u64` values
/// round-trip exactly and callers pick the numeric type they need.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's `(key, value)` pairs in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, when `self` is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`, when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses `s` as one complete JSON value (RFC 8259 grammar, minus the
/// nuances nobody emits here: no duplicate-key checking). Returns the
/// byte offset and a short description on the first error.
///
/// Besides reading committed artifacts and telemetry files back, this is
/// the self-check behind `write_figure_doc`, `trace_dump --smoke` and the
/// exporter round-trip tests: everything the bench crate writes must parse.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(v)
}

/// Recursion guard: deeper nesting than any artifact we emit.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut vals = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(vals));
        }
        loop {
            self.skip_ws();
            vals.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(vals));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // A run of plain characters up to the next quote,
                    // escape or control byte (all ASCII, so the run ends
                    // on a char boundary).
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| -> Result<(), String> {
            if !p.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(p.err("expected a digit"));
            }
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            Ok(())
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        assert_eq!(string("hi"), "\"hi\"");
    }

    #[test]
    fn obj_builds_house_style_single_line_objects() {
        let o = Obj::new()
            .str("bench", "gcc")
            .raw("sites", 12)
            .f64("rate", 0.51234, 4)
            .raw("le", "null")
            .finish();
        assert_eq!(
            o,
            r#"{"bench": "gcc", "sites": 12, "rate": 0.5123, "le": null}"#
        );
    }

    #[test]
    fn array_matches_historical_row_layout() {
        assert_eq!(array(["{}", "{}"], 2), "[\n    {},\n    {}\n  ]");
        assert_eq!(array(Vec::<String>::new(), 4), "[\n    ]");
        assert_eq!(inline_array(["1", "2"]), "[1, 2]");
    }

    #[test]
    fn f64_fixed_renders_non_finite_as_null() {
        assert_eq!(f64_fixed(1.0 / 3.0, 2), "0.33");
        assert_eq!(f64_fixed(f64::NAN, 2), "null");
        assert_eq!(f64_fixed(f64::INFINITY, 2), "null");
    }

    #[test]
    fn validate_accepts_everything_the_emitters_produce() {
        let doc = format!(
            "{{\n  \"rows\": {},\n  \"x\": {}\n}}\n",
            array(
                [
                    Obj::new().str("b", "a\"b").raw("n", 1).finish(),
                    Obj::new().raw("le", "null").f64("m", 2.5, 2).finish(),
                ],
                2,
            ),
            inline_array(["1", "-2.5e3", "true"]),
        );
        let v = parse(&doc).unwrap();
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("b").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(rows[0].get("n").and_then(Value::as_u64), Some(1));
        assert_eq!(rows[1].get("le"), Some(&Value::Null));
        let x = v.get("x").and_then(Value::as_arr).unwrap();
        assert_eq!(x[1], Value::Num("-2.5e3".to_string()));
        assert_eq!(x[2], Value::Bool(true));
        assert_eq!(
            parse("\"\\u0041\\n\\u00e9\"").unwrap(),
            Value::Str("A\né".to_string())
        );
        let big = u64::MAX.to_string();
        assert_eq!(parse(&big).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "{} trailing",
            "{\"a\": nul}",
            "\"\\u+041\"",
            "\"\\u04\"",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
