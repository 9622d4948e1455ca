//! The workspace's one JSON layer.
//!
//! The workspace deliberately carries no JSON dependency: every exported
//! document (metrics, Chrome traces, oracle/verify/lint reports, the
//! Figure 7 document, the `polarisd/v1` wire protocol) is hand-written.
//! This module holds the three pieces they share — string [`escape`],
//! the finite-only float formatter [`num`], and the [`Json`] value with
//! its parser — so there is one place that knows the grammar.

/// Escape `s` for use inside a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finite-only float formatting, six decimals (JSON has no NaN/Infinity
/// literals; those become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A minimal JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
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

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for other values or a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
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

    #[test]
    fn escape_round_trips_through_the_parser() {
        for s in ["plain", "q\"uote\\slash", "line\nfeed\r\ttab", "\u{1}\u{1f}", "é ∑ 😀", ""]
        {
            assert_eq!(parse_str(&format!("\"{}\"", escape(s))), s, "{s:?}");
        }
        assert_eq!(escape("a\tb\rc\u{2}"), "a\\tb\\rc\\u0002");
    }

    #[test]
    fn num_is_six_decimals_and_finite_only() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
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
