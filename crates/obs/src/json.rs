//! The workspace's one JSON layer.
//!
//! The workspace deliberately carries no JSON dependency. Every exported
//! document (metrics, Chrome traces, oracle/verify/lint reports, the
//! Figure 7 document, the `polarisd/v1` wire protocol) is built as a
//! [`Json`] value and printed by its `Display` impl, and every document
//! read back goes through [`Json::parse`]: this module is the one place
//! that parses, prints and escapes JSON.

use std::fmt::{self, Write};

/// Write `s` as a string literal. Unescaped runs go out as one slice;
/// every escaped byte is ASCII, so a run ends on a character boundary.
fn escape(out: &mut dyn Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate().filter(|&(_, b)| b < 0x20 || b == b'"' || b == b'\\') {
        out.write_str(&s[run..i])?;
        match b {
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b'"' | b'\\' => write!(out, "\\{}", b as char)?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A minimal JSON value. Objects keep their keys in document order.
/// Printed, a block `Arr` or `Obj` puts one member per line, two spaces
/// deeper per level, and its closing bracket on a line of its own; an
/// `Inline` one prints on one line. The parser never produces `Int` or
/// `Inline`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// An integer, printed without decimals.
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// An `Arr` or `Obj` printed on one line, with everything inside it.
    Inline(Box<Json>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, Some(0))
    }
}

/// `brackets` around `items`, each written by `item`: one per line below
/// a container at `depth`, or all on one line when `depth` is `None`.
fn container<T>(
    out: &mut dyn Write,
    depth: Option<usize>,
    brackets: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut dyn Write, T) -> fmt::Result,
) -> fmt::Result {
    out.write_str(&brackets[..1])?;
    for (i, v) in items.into_iter().enumerate() {
        match depth {
            Some(d) => write!(out, "{}\n{:2$}", if i > 0 { "," } else { "" }, "", 2 * d + 2)?,
            None if i > 0 => out.write_str(", ")?,
            None => {}
        }
        item(out, v)?;
    }
    if let Some(d) = depth {
        write!(out, "\n{:1$}", "", 2 * d)?;
    }
    out.write_str(&brackets[1..])
}

/// Print `doc`, a block object, with member `key`'s value replaced by a
/// block array of `items`, each printed and dropped in turn: for a
/// document too large to hold as one value (a capped Chrome trace holds
/// 2²⁰ events).
pub(crate) fn print_streamed(doc: &Json, key: &str, items: impl Iterator<Item = Json>) -> String {
    let members = doc.as_obj().expect("a streamed document is an object");
    let mut items = Some(items);
    let mut out = String::new();
    container(&mut out, Some(0), "{}", members, |out, (k, v)| {
        escape(out, k)?;
        out.write_str(": ")?;
        match items.take_if(|_| k == key) {
            Some(items) => container(out, Some(1), "[]", items, |out, v| v.write(out, Some(2))),
            None => v.write(out, Some(1)),
        }
    })
    .expect("printing into a String cannot fail");
    out
}

impl Json {
    /// Parse one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an integer, when it is one a JSON number parses to
    /// exactly: `0 ..= 2^53 - 1`. Past that, neighbouring integers parse
    /// to one `f64`, so a larger number is `None`, not a nearby integer.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for other values or a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Print as a container at `depth` would (`None`: on one line).
    fn write(&self, out: &mut dyn Write, depth: Option<usize>) -> fmt::Result {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            // Six decimals; JSON has no NaN or Infinity literal.
            Json::Num(v) if v.is_finite() => write!(out, "{v:.6}"),
            Json::Num(_) => out.write_str("null"),
            Json::Int(n) => write!(out, "{n}"),
            Json::Str(s) => escape(out, s),
            Json::Inline(v) => v.write(out, None),
            Json::Arr(items) => container(out, depth, "[]", items, |out, v| v.write(out, inner)),
            Json::Obj(members) => container(out, depth, "{}", members, |out, (k, v)| {
                escape(out, k)?;
                out.write_str(": ")?;
                v.write(out, inner)
            }),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.seq(*b"{}", Self::member).map(Json::Obj),
            Some(b'[') => self.seq(*b"[]", Self::value).map(Json::Arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape as one slice.
            // Both delimiters are ASCII, so the run starts and ends on
            // character boundaries of the (already valid) `&str`.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape_char()?);
                }
            }
        }
    }

    /// The character an escape sequence stands for; `pos` is just past
    /// the backslash on entry and just past the sequence on return.
    fn escape_char(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            other => return Err(format!("bad escape {other:?}")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits at `pos`, advancing past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }

    /// `\uXXXX` with `pos` just past the `u`. A high surrogate followed
    /// by an escaped low surrogate decodes to the one scalar the pair
    /// encodes; a lone surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            let after_hi = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            // Not a low surrogate: leave it for the next iteration.
            self.pos = after_hi;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn seq<T>(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                other => return Err(format!("expected `,` or `{}`, got {other:?}", close as char)),
            }
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(literal: &str) -> String {
        match Json::parse(literal) {
            Ok(Json::Str(s)) => s,
            other => panic!("{literal}: {other:?}"),
        }
    }

    fn str(s: &str) -> Json {
        Json::Str(s.into())
    }

    fn inline(v: Json) -> Json {
        Json::Inline(Box::new(v))
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        for s in ["plain", "q\"uote\\slash", "line\nfeed\r\ttab", "\u{1}\u{1f}", "é ∑ 😀", ""]
        {
            assert_eq!(parse_str(&str(s).to_string()), s, "{s:?}");
        }
        assert_eq!(str("a\tb\rc\u{2}é").to_string(), "\"a\\tb\\rc\\u0002é\"");
    }

    #[test]
    fn num_is_six_decimals_and_finite_only() {
        assert_eq!(Json::Num(1.5).to_string(), "1.500000");
        assert_eq!(Json::Num(-0.25).to_string(), "-0.250000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::Int(0).to_string(), "0");
        assert_eq!(Json::Int(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn block_containers_put_one_member_per_line() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)])),
            ("empty_arr".into(), Json::Arr(Vec::new())),
            ("empty_obj".into(), Json::Obj(Vec::new())),
            ("nested".into(), Json::Obj(vec![("x".into(), Json::Obj(vec![("y".into(), str("z"))]))])),
        ]);
        let want = "{\n  \"a\": [\n    1,\n    null,\n    true\n  ],\n  \"empty_arr\": [\n  ],\n  \
                    \"empty_obj\": {\n  },\n  \"nested\": {\n    \"x\": {\n      \"y\": \"z\"\n    }\n  }\n}";
        assert_eq!(doc.to_string(), want);
        assert_eq!(Json::Arr(Vec::new()).to_string(), "[\n]");
    }

    #[test]
    fn inline_containers_print_on_one_line_with_everything_inside() {
        let row = inline(Json::Obj(vec![
            ("k".into(), Json::Int(1)),
            ("block_inside".into(), Json::Arr(vec![Json::Num(0.5), Json::Obj(Vec::new())])),
            ("e".into(), Json::Arr(Vec::new())),
        ]));
        assert_eq!(row.to_string(), r#"{"k": 1, "block_inside": [0.500000, {}], "e": []}"#);
        assert_eq!(inline(Json::Obj(Vec::new())).to_string(), "{}");
        assert_eq!(inline(Json::Arr(Vec::new())).to_string(), "[]");
        let doc = Json::Obj(vec![
            ("rows".into(), Json::Arr(vec![row.clone(), row])),
            ("empty".into(), inline(Json::Arr(Vec::new()))),
        ]);
        let line = r#"{"k": 1, "block_inside": [0.500000, {}], "e": []}"#;
        assert_eq!(doc.to_string(), format!("{{\n  \"rows\": [\n    {line},\n    {line}\n  ],\n  \"empty\": []\n}}"));
    }

    #[test]
    fn keys_and_values_are_escaped() {
        let doc = inline(Json::Obj(vec![("k\"e\ny".into(), str("v\\al\u{7f}\u{1b}"))]));
        // DEL (0x7f) is no control character JSON escapes; ESC (0x1b) is.
        assert_eq!(doc.to_string(), "{\"k\\\"e\\ny\": \"v\\\\al\u{7f}\\u001b\"}");
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("k\"e\ny").and_then(Json::as_str), Some("v\\al\u{7f}\u{1b}"));
    }

    #[test]
    fn printed_documents_parse_back_to_their_values() {
        let doc = Json::Obj(vec![
            ("s".into(), str("x\ty")),
            ("n".into(), Json::Num(2.5)),
            ("rows".into(), Json::Arr(vec![inline(Json::Arr(vec![Json::Bool(false), Json::Null]))])),
        ]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("s"), Some(&str("x\ty")));
        assert_eq!(back.get("n"), Some(&Json::Num(2.5)));
        assert_eq!(back.get("rows"), Some(&Json::Arr(vec![Json::Arr(vec![Json::Bool(false), Json::Null])])));
    }

    #[test]
    fn a_streamed_member_prints_as_the_whole_value_would() {
        let rows = || (0..3).map(|i| inline(Json::Obj(vec![("i".into(), Json::Int(i))])));
        let doc = |arr: Vec<Json>| {
            Json::Obj(vec![
                ("head".into(), str("h")),
                ("rows".into(), Json::Arr(arr)),
                ("tail".into(), inline(Json::Obj(Vec::new()))),
            ])
        };
        assert_eq!(print_streamed(&doc(Vec::new()), "rows", rows()), doc(rows().collect()).to_string());
        assert_eq!(print_streamed(&doc(Vec::new()), "rows", std::iter::empty()), doc(Vec::new()).to_string());
    }

    #[test]
    fn documents_parse_to_values_in_key_order() {
        let v = Json::parse(r#" {"b": [1, -2.5e1, true, null], "a": {"s": "x"}} "#).unwrap();
        assert_eq!(v.as_obj().unwrap()[0].0, "b");
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0), Json::Bool(true), Json::Null]))
        );
        assert_eq!(v.get("a").and_then(|a| a.get("s")).and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").unwrap().as_obj(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
        let int = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(int("9007199254740991"), Some((1 << 53) - 1));
        // 2^53 + 1 parses to the `f64` of 2^53, and 2^64 is past every
        // u64: none of these is rounded or saturated into an answer.
        for past in ["9007199254740992", "9007199254740993", "18446744073709551616", "1e300"] {
            assert_eq!(int(past), None, "{past}");
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "\"\\x\"", "\"\\u12g4\"", "1 2", "nul"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse_str(r#""\ud83d\ude00""#), "😀");
        assert_eq!(parse_str(r#""a\uD83D\uDE00b""#), "a😀b");
        // Lone halves, in either order, each become one U+FFFD.
        assert_eq!(parse_str(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(parse_str(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(parse_str(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(parse_str(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    /// Decoding is linear in the string length: the previous parser
    /// re-validated the rest of the input per character, which takes
    /// over a minute on this input.
    #[test]
    fn a_two_megabyte_string_parses_in_linear_time() {
        let body = "abcdefghijklmnopqrstuvwxyz é\\n".repeat(70_000);
        assert!(body.len() > 2_000_000);
        let doc = format!("{{\"source\": \"{body}\"}}");
        let t0 = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "{:?}", t0.elapsed());
        let s = v.get("source").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), body.len() - 70_000);
        assert!(s.ends_with("z é\n"));
    }
}
