//! The workspace's JSON codec: one value type, one compact writer and one
//! total parser.
//!
//! The lab's `records.jsonl`, `manifest.json` and `aggregates.json`, the
//! `bcc-metrics/v2` snapshots (work counters and series, the same at
//! every pool size, beside wall-time span histograms), the Chrome trace
//! and the `bcc-lint/v1` report are all written and read through this
//! module, so escaping, nesting and number handling agree across them.
//!
//! - A number keeps its text verbatim, so a `u64` seed and a
//!   shortest-round-trip `f64` both survive write → parse → write bit for
//!   bit; the reader picks the width ([`Value::as_u64`], [`Value::as_f64`]).
//! - An object keeps its key order, so a parsed document re-renders
//!   byte-identically. A repeated key is refused, not resolved.
//! - The writer ([`Value`]'s `Display`) emits no whitespace. It escapes
//!   `"`, `\`, `\n`, `\r`, `\t` and the other control characters (as
//!   `\u00XX`), and writes everything else verbatim.
//! - [`parse`] is total: any input yields a value or a named [`Error`],
//!   never a panic. Nesting deeper than [`MAX_DEPTH`] is refused before it
//!   can exhaust the stack, and every proper prefix of an object or array
//!   (a torn write) is [`ErrorKind::UnexpectedEnd`].

use std::fmt::{self, Write as _};

/// The deepest container nesting [`parse`] accepts. The deepest document
/// the workspace writes, `metrics.json`, nests 5 levels.
pub const MAX_DEPTH: usize = 32;

/// A JSON number, kept as its grammar-checked text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, written verbatim. Build one with `From` or
    /// [`Value::float`].
    Number(Number),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object with `fields` in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A float in Rust's shortest-round-trip form, which parses back to
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite, which JSON cannot express.
    pub fn float(x: f64) -> Value {
        assert!(x.is_finite(), "JSON cannot express {x}");
        Value::Number(Number(x.to_string()))
    }

    /// Like [`Value::float`], but a non-finite `x` becomes one of the
    /// marker strings `"inf"`, `"-inf"` or `"nan"`, which
    /// [`Value::as_f64`] maps back. For fields that can legitimately be
    /// infinite (an uncertainty with no information behind it).
    pub fn float_lenient(x: f64) -> Value {
        match x {
            _ if x.is_finite() => Value::float(x),
            _ if x.is_nan() => "nan".into(),
            _ if x > 0.0 => "inf".into(),
            _ => "-inf".into(),
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a `u64`, if it is an integer in range written
    /// without sign, fraction or exponent.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: a number, or one of the non-finite marker
    /// strings [`Value::float_lenient`] writes.
    pub fn as_f64(&self) -> Option<f64> {
        match (self, self.as_str()) {
            (Value::Number(Number(text)), _) => text.parse().ok(),
            (_, Some("inf")) => Some(f64::INFINITY),
            (_, Some("-inf")) => Some(f64::NEG_INFINITY),
            (_, Some("nan")) => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in key order, if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Number(Number(x.to_string()))
            }
        }
    )*};
}

from_unsigned!(u32, u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(items.into_iter().collect())
    }
}

/// The compact writer.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Number(text)) => f.write_str(text),
            Value::String(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_string(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Why [`parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value: the signature of a torn write.
    UnexpectedEnd,
    /// A character that cannot start or continue the value being read.
    UnexpectedCharacter(char),
    /// A number outside the JSON grammar (`-x`, `1.e5`, `1e+x`).
    InvalidNumber,
    /// An unknown escape, or a `\u` escape that is not a code point.
    InvalidEscape,
    /// A raw control character inside a string.
    ControlCharacter,
    /// An object repeats this key.
    DuplicateKey(String),
    /// Containers nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Something other than whitespace follows the document.
    TrailingCharacters,
}

/// A named refusal from [`parse`], with the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What was wrong.
    pub kind: ErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document; whitespace may surround it.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    match parser.byte() {
        Some(_) => Err(parser.error(ErrorKind::TrailingCharacters)),
        None => Ok(value),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ErrorKind) -> Error {
        Error {
            kind,
            offset: self.pos,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The refusal for the cursor: the character there, or the end.
    fn unexpected(&self) -> Error {
        let next = self.text.get(self.pos..).and_then(|s| s.chars().next());
        self.error(next.map_or(ErrorKind::UnexpectedEnd, ErrorKind::UnexpectedCharacter))
    }

    /// `kind` at the cursor, or [`ErrorKind::UnexpectedEnd`] past the
    /// input: a torn document always reads as torn.
    fn refuse(&self, kind: ErrorKind) -> Error {
        self.error(self.byte().map_or(ErrorKind::UnexpectedEnd, |_| kind))
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.byte().ok_or_else(|| self.unexpected())
    }

    fn eat(&mut self, want: u8) -> bool {
        let hit = self.byte() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `want` (after whitespace) or refuses.
    fn expect(&mut self, want: u8) -> Result<(), Error> {
        self.skip_ws();
        match self.eat(want) {
            true => Ok(()),
            false => Err(self.unexpected()),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.object(depth + 1),
            b'[' => {
                let mut items = Vec::new();
                self.sequence(depth + 1, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            b'"' => self.string().map(Value::String),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Comma-separated items up to `close`; the cursor is on the opening
    /// bracket of a container at nesting `depth`.
    fn sequence(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return Err(self.error(ErrorKind::TooDeep));
        }
        self.pos += 1;
        if self.peek()? == close {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        let start = self.pos;
        let mut fields = Vec::new();
        self.sequence(depth, b'}', |p| {
            if p.peek()? != b'"' {
                return Err(p.unexpected());
            }
            let key = p.string()?;
            p.expect(b':')?;
            fields.push((key, p.value(depth)?));
            Ok(())
        })?;
        let mut keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(Error {
                kind: ErrorKind::DuplicateKey(pair[0].to_string()),
                offset: start,
            }),
            None => Ok(Value::Object(fields)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        match word.bytes().all(|want| self.eat(want)) {
            true => Ok(value),
            false => Err(self.unexpected()),
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept verbatim.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Number(Number(
            self.text[start..self.pos].to_string(),
        )))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        match self.pos > start {
            true => Ok(()),
            false => Err(self.refuse(ErrorKind::InvalidNumber)),
        }
    }

    /// A string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        // Unescaped runs are copied whole. A run starts and ends at an
        // ASCII byte (a quote, a backslash, the end of an escape), so
        // its slice falls on character boundaries.
        let mut run = self.pos;
        loop {
            match self.byte() {
                None => return Err(self.unexpected()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error(ErrorKind::ControlCharacter)),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.byte() {
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.refuse(ErrorKind::InvalidEscape)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The code point of a `\uXXXX` escape, or of a surrogate pair of
    /// them; the cursor is on the first hex digit.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let start = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.refuse(ErrorKind::InvalidEscape));
            }
            let low = self.hex4()?.wrapping_sub(0xDC00);
            // An out-of-range low half leaves `code` a surrogate, which
            // `from_u32` refuses.
            if low < 0x400 {
                code = 0x10000 + ((code - 0xD800) << 10) + low;
            }
        }
        char::from_u32(code).ok_or(Error {
            kind: ErrorKind::InvalidEscape,
            offset: start,
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.byte().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.refuse(ErrorKind::InvalidEscape))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kind(text: &str) -> ErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn round_trips_every_value_kind() {
        let doc = Value::object([
            ("name", "rank-sweep_v1.2".into()),
            ("seed", u64::MAX.into()),
            ("estimate", Value::float(0.1 + 0.2)),
            ("met", true.into()),
            ("none", Value::Null),
            (
                "nested",
                Value::object([("axis", [1u32, 2].map(Value::from).into_iter().collect())]),
            ),
        ]);
        let line = doc.to_string();
        assert_eq!(
            line,
            "{\"name\":\"rank-sweep_v1.2\",\"seed\":18446744073709551615,\
             \"estimate\":0.30000000000000004,\"met\":true,\"none\":null,\"nested\":{\"axis\":[1,2]}}"
        );
        let parsed = parse(&line).expect("own output parses");
        assert_eq!(parsed, doc);
        let get = |key| parsed.get(key).expect(key);
        assert_eq!(get("name").as_str(), Some("rank-sweep_v1.2"));
        assert_eq!(get("seed").as_u64(), Some(u64::MAX));
        let bits = get("estimate").as_f64().map(f64::to_bits);
        assert_eq!(
            bits,
            Some((0.1f64 + 0.2).to_bits()),
            "floats round-trip bitwise"
        );
        assert_eq!(get("met").as_bool(), Some(true));
        assert_eq!(parsed.get("absent"), None);
    }

    #[test]
    fn torn_lines_are_rejected_not_misparsed() {
        let line = "{\"a\":1,\"b\":-2.5E+3,\"s\":\"x\\\"\\u00e9\\ud83d\\ude00\u{e9}\",\"t\":true,\
                    \"f\":false,\"z\":null,\"u\":[{},[]]}";
        assert!(parse(line).is_ok());
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert_eq!(kind(&line[..cut]), ErrorKind::UnexpectedEnd, "cut {cut}");
        }
        assert_eq!(kind("{\"a\":}"), ErrorKind::UnexpectedCharacter('}'));
        assert_eq!(kind("not json"), ErrorKind::UnexpectedCharacter('o'));
        assert_eq!(
            kind(&format!("{line}garbage")),
            ErrorKind::TrailingCharacters
        );
    }

    #[test]
    fn malformed_input_gets_a_named_refusal() {
        use ErrorKind::*;
        let cases = [
            ("{,}", UnexpectedCharacter(',')),
            ("{\"a\" 1}", UnexpectedCharacter('1')),
            ("{a:1}", UnexpectedCharacter('a')),
            ("[1,]", UnexpectedCharacter(']')),
            ("[1 2]", UnexpectedCharacter('2')),
            ("{} {}", TrailingCharacters),
            ("01", TrailingCharacters),
            ("+1", UnexpectedCharacter('+')),
            ("-x", InvalidNumber),
            ("1.e5", InvalidNumber),
            ("1e+x", InvalidNumber),
            ("trUe", UnexpectedCharacter('U')),
            ("nul\u{e9}", UnexpectedCharacter('\u{e9}')),
            ("\"\\x\"", InvalidEscape),
            ("\"\\u12g4\"", InvalidEscape),
            ("\"\\udc00\"", InvalidEscape),
            ("\"\\ud800x\"", InvalidEscape),
            ("\"\\ud800\\u0041\"", InvalidEscape),
            ("\"tab\there\"", ControlCharacter),
            ("{\"k\":1,\"k\":1}", DuplicateKey("k".into())),
        ];
        for (text, want) in cases {
            assert_eq!(kind(text), want, "{text:?}");
        }
        let err = parse("{\"a\":1,\n \"b\":x}").unwrap_err();
        assert_eq!(err.to_string(), "UnexpectedCharacter('x') at byte 13");
        // A repeated key names the object that repeats it; siblings may
        // share keys.
        let err = parse("{\"a\":1,\"b\":{\"a\":2,\"a\":3}}").unwrap_err();
        assert_eq!((err.kind, err.offset), (DuplicateKey("a".into()), 11));
        assert!(parse("[{\"a\":1},{\"a\":2}]").is_ok());
    }

    #[test]
    fn deep_nesting_is_refused_not_overflowed() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!((err.kind, err.offset), (ErrorKind::TooDeep, MAX_DEPTH));
        assert_eq!(kind(&"{\"a\":".repeat(100_000)), ErrorKind::TooDeep);
        assert!(parse(&format!(
            "{}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .is_ok());
    }

    #[test]
    fn negative_and_exponent_floats_parse() {
        let text = "{\"x\":-1.5e-3,\"y\":3,\"z\":2E+2,\"w\":-0,\"big\":18446744073709551616}";
        let parsed = parse(text).unwrap();
        let get = |key| parsed.get(key).unwrap();
        assert_eq!(get("x").as_f64(), Some(-1.5e-3));
        assert_eq!(get("y").as_u64(), Some(3));
        assert_eq!((get("z").as_f64(), get("z").as_u64()), (Some(200.0), None));
        assert_eq!(get("w").as_u64(), None);
        assert_eq!(get("big").as_u64(), None, "beyond u64: a number, not a u64");
        assert_eq!(parsed.to_string(), text, "numbers re-render as written");
    }

    #[test]
    fn strings_that_need_escaping_round_trip() {
        let s = "\"quotes\", \\, \n\r\t, \u{1}\u{1f}\u{7f} and \u{e9}\u{1F600}";
        let written = Value::from(s).to_string();
        let want = "\"\\\"quotes\\\", \\\\, \\n\\r\\t, \\u0001\\u001f\u{7f} and \u{e9}\u{1F600}\"";
        assert_eq!(written, want);
        assert_eq!(parse(&written).unwrap().as_str(), Some(s));
        // Escapes the writer never emits still read back.
        let read = parse("\"\\/\\b\\f\\u00E9\\ud83d\\ude00\"").unwrap();
        assert_eq!(read.as_str(), Some("/\u{8}\u{c}\u{e9}\u{1F600}"));
    }

    #[test]
    #[should_panic(expected = "cannot express")]
    fn non_finite_floats_are_rejected() {
        let _ = Value::float(f64::INFINITY);
    }

    #[test]
    fn lenient_floats_round_trip_non_finite_markers() {
        let xs = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5];
        let line: Value = xs.map(Value::float_lenient).into_iter().collect();
        assert_eq!(line.to_string(), "[\"inf\",\"-inf\",\"nan\",1.5]");
        let parsed = parse(&line.to_string()).unwrap();
        let back: Vec<f64> = parsed
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(
            (back[0], back[1], back[3]),
            (f64::INFINITY, f64::NEG_INFINITY, 1.5)
        );
        assert!(back[2].is_nan());
    }

    /// The next draw of a splitmix64 stream.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A string over characters that need escaping, or are multi-byte.
    fn text(state: &mut u64) -> String {
        let alphabet: Vec<char> = "aZ0 \"\\/\n\r\t\u{0}\u{1f}\u{7f}\u{e9}\u{2028}\u{1F600}"
            .chars()
            .collect();
        (0..draw(state) % 6)
            .map(|_| alphabet[(draw(state) % 16) as usize])
            .collect()
    }

    /// A document drawn from `state`: every value kind, and floats from
    /// all finite bit patterns.
    fn document(state: &mut u64, depth: usize) -> Value {
        let kinds = if depth >= 4 { 5 } else { 7 };
        let width = draw(state) % 4;
        match draw(state) % kinds {
            0 => Value::Null,
            1 => Value::Bool(draw(state) % 2 == 1),
            2 => draw(state).into(),
            3 => Value::float(
                Some(f64::from_bits(draw(state)))
                    .filter(|x| x.is_finite())
                    .unwrap_or(-0.0),
            ),
            4 => text(state).into(),
            5 => (0..width).map(|_| document(state, depth + 1)).collect(),
            _ => Value::Object(
                (0..width)
                    .map(|i| (format!("{i}{}", text(state)), document(state, depth + 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn write_parse_write_is_the_identity(seed in any::<u64>(), bits in any::<u64>()) {
            let value = document(&mut { seed }, 0);
            let written = value.to_string();
            let parsed = parse(&written).map_err(|e| format!("{e} in {written}"))?;
            prop_assert_eq!(&parsed, &value);
            prop_assert_eq!(parsed.to_string(), written);
            // Number text survives verbatim (above), and that text reads
            // back as the written float's exact bits.
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let back = parse(&Value::float(x).to_string()).ok().and_then(|v| v.as_f64());
                prop_assert_eq!(back.map(f64::to_bits), Some(bits));
            }
        }
    }
}
