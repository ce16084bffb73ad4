//! A minimal hand-rolled JSON parser — the workspace's one JSON reader:
//! `repro serve` requests, replayed JSONL traces and `BENCH_*.json` gate
//! and baseline files all go through it.
//!
//! This workspace builds offline without `serde_json` (the vendored
//! `serde` is a marker-trait stub), and the documents it reads are small
//! — so a few hundred lines of recursive descent beat a dependency. The
//! parser accepts RFC 8259 JSON with two deliberate safety bounds for
//! untrusted network input: nesting depth is capped (stack safety) and
//! input length is the caller's responsibility (the serve line reader
//! caps line length).
//!
//! Parsing never panics on any input; every malformed byte becomes an
//! `Err(String)` that serve forwards to the client as a structured error
//! line.

/// Maximum nesting depth accepted; deeper input is rejected rather than
/// risking a stack overflow on adversarial `[[[[…`.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys last-wins on
    /// lookup (both are irrelevant to the serve schema).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value from `input` (leading/trailing whitespace
    /// allowed, nothing else may follow).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!(
                "trailing content at byte {} after the JSON value",
                parser.pos
            ));
        }
        Ok(value)
    }

    /// Object field lookup (last occurrence wins); `None` for non-objects
    /// and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number that
    /// fits (fractional and out-of-range numbers return `None`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // 2^53: beyond this, f64 cannot represent every integer and a
            // "round" conversion would silently corrupt seeds.
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, via [`Json::as_u64`].
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    /// The input; strings and numbers are sliced out of it directly.
    text: &'a str,
    /// `text` as bytes, for the byte-at-a-time scanning.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {}",
                byte as char,
                self.pos,
                self.peek()
                    .map_or("end of input".to_owned(), |b| format!("'{}'", b as char))
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte as one slice. All three stop bytes
            // are ASCII, so the run ends on a character boundary.
            let run = self.pos;
            while let Some(byte) = self.peek() {
                if byte == b'"' || byte == b'\\' || byte < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(format!("unescaped control byte at {}", self.pos)),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let escaped = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_owned())?;
        self.pos += 1;
        Ok(match escaped {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => self.unicode_escape()?,
            other => {
                return Err(format!(
                    "invalid escape '\\{}' at byte {}",
                    other as char, self.pos
                ))
            }
        })
    }

    /// Decodes the digits of a `\uXXXX` escape, joining a high surrogate
    /// and a following `\u` low surrogate into one character. Any other
    /// surrogate decodes to U+FFFD (never a panic), and whatever follows it
    /// is left in the input to be decoded on its own.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = u32::from(self.hex4()?);
        if (0xD800..=0xDBFF).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = u32::from(self.hex4()?);
            if (0xDC00..=0xDFFF).contains(&low) {
                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
            }
            self.pos = after_high;
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        // `from_str_radix` alone would also accept a leading '+'.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("invalid \\u escape at byte {}", self.pos));
        }
        let code = u16::from_str_radix(&self.text[self.pos..end], 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let value: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !value.is_finite() {
            return Err(format!("number '{text}' overflows f64"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_owned()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true}"#).unwrap();
        assert_eq!(v.get("f").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""line\nquote\"slash\\uA snow☃""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nquote\"slash\\uA snow☃"));
        // Surrogate pair (🎉 U+1F389).
        let v = Json::parse(r#""🎉""#).unwrap();
        assert_eq!(v.as_str(), Some("🎉"));
    }

    #[test]
    fn unpaired_surrogates_decode_to_replacement_char() {
        for (input, expected) in [
            (r#""\uD800A""#, "\u{FFFD}A"),
            (r#""\uD800\u0041""#, "\u{FFFD}A"),
            (r#""\uDBFF\uDBFF\uDFFF""#, "\u{FFFD}\u{10FFFF}"),
            (r#""\uDC00x""#, "\u{FFFD}x"),
            (r#""\uD800""#, "\u{FFFD}"),
            (r#""\uD83C\uDF89""#, "🎉"),
        ] {
            let v = Json::parse(input).unwrap();
            assert_eq!(v.as_str(), Some(expected), "{input}");
        }
        for bad in [r#""\u+041""#, r#""\uD800\u+041""#, r#""\u12""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn one_mebibyte_string_decodes_in_linear_time() {
        // The serve line cap is 1 MiB; the old per-character re-validation
        // of the rest of the input made this take minutes.
        let body = "a☃\\n".repeat((1 << 20) / 6);
        let doc = format!("{{\"s\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let elapsed = started.elapsed();
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), (1 << 20) / 6 * 5);
        assert!(s.starts_with("a☃\na☃\n"));
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{} trailing",
            "nan",
            "1e999",
            "--5",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_bound_rejects_adversarial_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A reasonable depth still parses.
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integer_extraction_guards_precision_and_sign() {
        assert_eq!(Json::parse("5").unwrap().as_u64(), Some(5));
        assert_eq!(Json::parse("5.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"5\"").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }
}
