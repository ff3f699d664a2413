//! A dependency-free JSON subset: deterministic writer + strict parser.
//!
//! The store's on-disk entries, the `tp-serve` wire payloads and the
//! `exp_* --json` artifacts all speak this one serializer, so every
//! machine-readable surface of the platform has the same shape. The subset
//! is exactly what [`Value`] can represent: objects with *ordered* keys,
//! arrays, strings, booleans and unsigned 64-bit integers. Floating-point
//! quantities are carried as strings holding Rust's shortest round-trip
//! decimal rendering (`{:?}`), which parses back bit-exactly — a plain
//! JSON number would invite readers to re-round.
//!
//! Writing is deterministic: object keys keep insertion order (builders
//! sort anything that comes out of a hash map), and the same [`Value`]
//! always renders to the same bytes — which is what makes entry checksums
//! and the golden round-trip test meaningful.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Value::parse`] accepts. The writer's
/// documents (records, STATS payloads, span rows) nest a few levels; the
/// cap keeps the recursive descent from overflowing the stack on hostile
/// input such as a million `[`.
pub const MAX_DEPTH: usize = 64;

/// A JSON value in the store's subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the store emits).
    Num(u64),
    /// A string (also the carrier for exact `f64` renderings).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved and significant for output bytes.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builder: an empty object.
    #[must_use]
    pub fn obj() -> Self {
        Value::Obj(Vec::new())
    }

    /// Builder: appends a field to an object (panics on non-objects —
    /// a programming error, not a data error).
    #[must_use]
    pub fn field(mut self, key: &str, value: Value) -> Self {
        match &mut self {
            Value::Obj(fields) => fields.push((key.to_owned(), value)),
            _ => panic!("field() on a non-object Value"),
        }
        self
    }

    /// A string value holding `x`'s shortest exact decimal rendering.
    /// `x.is_finite()` is required: the store never carries NaN/inf.
    #[must_use]
    pub fn f64(x: f64) -> Self {
        assert!(x.is_finite(), "non-finite f64 in store data: {x}");
        Value::Str(format!("{x:?}"))
    }

    /// The object field named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a string field written by [`Value::f64`] back to the exact
    /// `f64` (Rust's shortest rendering round-trips bit-exactly).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_str()?.parse().ok().filter(|x: &f64| x.is_finite())
    }

    /// Renders this value as pretty-printed JSON (2-space indent, `\n`
    /// line ends, no trailing newline). Deterministic: equal values render
    /// to equal bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document in the store's subset.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending byte for
    /// anything outside the subset (floats as bare numbers, `null`,
    /// negative numbers, duplicate keys are *not* rejected — the writer
    /// never produces them, and the parser's job is round-tripping, not
    /// validation of foreign documents). Arrays and objects nested deeper
    /// than [`MAX_DEPTH`] are an error too, so no input panics the parser.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }
}

/// A JSON parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where the problem was noticed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Bare floats are outside the subset; exact f64s travel as strings.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("float literals are not in the store subset"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse()
            .map(Value::Num)
            .map_err(|_| self.err("integer out of u64 range"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Only BMP scalars are ever written (control
                            // characters); surrogates are rejected.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 3; // +1 below covers the 4th digit
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character. `pos` only ever advances
                    // by ASCII bytes and whole characters, so it is on a
                    // character boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("not at a character boundary"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj()
            .field("name", Value::Str("CONV \"5x5\"\n".to_owned()))
            .field("count", Value::Num(u64::MAX))
            .field("ok", Value::Bool(true))
            .field(
                "items",
                Value::Arr(vec![
                    Value::Num(1),
                    Value::Str("two".to_owned()),
                    Value::obj(),
                ]),
            )
            .field("empty", Value::Arr(vec![]))
            .field("threshold", Value::f64(0.1))
    }

    #[test]
    fn round_trips_bit_exactly() {
        let v = sample();
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        assert_eq!(v, back);
        // Determinism: rendering the parse renders the same bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn f64_fields_round_trip_exactly() {
        for x in [0.1, 1e-3, 2.225e-307, 1.0000000000000002, 0.0] {
            let v = Value::f64(x);
            let back = Value::parse(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_f64_is_refused() {
        let _ = Value::f64(f64::NAN);
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("count").unwrap().as_num(), Some(u64::MAX));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("missing").is_none());
        assert_eq!(v.get("threshold").unwrap().as_f64(), Some(0.1));
        assert_eq!(Value::Num(3).as_str(), None);
    }

    #[test]
    fn control_characters_escape_and_return() {
        let v = Value::Str("a\u{1}b\tc".to_owned());
        let text = v.to_json();
        assert!(text.contains("\\u0001"), "{text}");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_what_the_writer_never_emits() {
        for bad in [
            "1.5", "-3", "null", "[1,]", "{\"a\":}", "\"open", "12 34", "1e9",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        const DEEP: usize = 1_000_000;
        assert!(Value::parse(&"[".repeat(DEEP)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(DEEP)).is_err());
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Each character is consumed without rescanning the rest of the
        // input, so a megabyte string parses at once.
        let long = "é".repeat(1 << 20);
        let v = Value::Str(long);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_variants() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v,
            Value::obj().field("a", Value::Arr(vec![Value::Num(1), Value::Num(2)]))
        );
    }
}
