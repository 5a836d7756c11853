//! A minimal JSON document model: compact rendering plus a
//! recursive-descent parser.
//!
//! The workspace builds hermetically, without a JSON crate, so the
//! stats exposition surface carries its own ~200-line JSON layer:
//! enough to emit [`super::RuntimeStats`] (the `/stats.json` page the
//! benchmark reads), query-log lines and Chrome traces, and to parse
//! what `trace-check`, `bench_trace --baseline` and the tests read
//! back. Input is untrusted (`trace-check --file`): nesting is capped
//! at [`MAX_DEPTH`] and parsing is linear in the input.
//! Integers are kept lossless in a dedicated [`Value::Uint`] variant —
//! nanosecond sums overflow `f64`'s 53-bit mantissa in long runs.

/// Deepest array/object nesting [`Value::parse`] accepts; the parser
/// recurses once per level, so unbounded nesting would overflow the
/// stack. The repo's own documents nest 6 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed or to-be-rendered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (lossless).
    Uint(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if numeric and representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Uint(u) => Some(u),
            Value::Num(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Uint(u) => Some(u as f64),
            Value::Num(f) => Some(f),
            _ => None,
        }
    }

    /// The array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Uint(u) => out.push_str(&u.to_string()),
            Value::Num(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    /// A message with the byte offset of the first syntax error, or of
    /// the bracket that nests deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs `container` one nesting level down, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c == b'-' || c == b'+' || c == b'.' || c == b'e' || c == b'E' || c.is_ascii_digit())
        {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if let Ok(u) = token.parse::<u64>() {
            return Ok(Value::Uint(u));
        }
        token.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole UTF-8 scalar, not just one byte.
                    // `pos` only ever stops after an ASCII byte or a
                    // whole scalar, so it is a char boundary.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Shorthand for building an object.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_documents() {
        let v = obj(vec![
            ("a", Value::Uint(18_446_744_073_709_551_615)),
            ("b", Value::Num(-1.5)),
            ("c", Value::Str("he\"llo\nworld".into())),
            ("d", Value::Arr(vec![Value::Null, Value::Bool(true), Value::Uint(0)])),
            ("e", obj(vec![("nested", Value::Arr(vec![]))])),
        ]);
        let text = v.render();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn big_integers_are_lossless() {
        let u = u64::MAX - 1;
        let parsed = Value::parse(&format!("{u}")).unwrap();
        assert_eq!(parsed.as_u64(), Some(u));
    }

    #[test]
    fn parses_whitespace_and_floats() {
        let v = Value::parse(" { \"x\" : [ 1 , 2.5 , -3e2 ] } ").unwrap();
        let xs = v.get("x").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(xs[2].as_f64(), Some(-300.0));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Value::parse(r#""aA\n\"\\é""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\"\\é"));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Value::parse(&at_cap).is_ok());
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            let err = Value::parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // The shape of a flight-recorder trace: 5 000 events with long
        // string args. Re-validating the rest of the input once per
        // character took 22.9 s on this document in a release build.
        let arg = "né€dle-".repeat(30);
        let events = (0..5_000u64)
            .map(|i| obj(vec![("ts", Value::Uint(i)), ("args", Value::Str(arg.clone()))]))
            .collect();
        let doc = Value::Arr(events);
        let text = doc.render();
        assert!(text.len() >= 1_500_000, "{} bytes", text.len());
        let t0 = std::time::Instant::now();
        assert_eq!(Value::parse(&text).unwrap(), doc);
        assert!(t0.elapsed().as_secs() < 5, "parse took {:?}", t0.elapsed());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
