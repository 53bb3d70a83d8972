//! The workspace's one JSON codec.
//!
//! The workspace builds offline (no serde), so every JSON document the VM
//! writes or reads goes through this module: trace-event and profile
//! lines, `FLIGHT.json`, `TIMELINE.json`, `PROFILE.json` and the metrics
//! document. [`ObjectWriter`] streams one compact document into a single
//! buffer, members in call order; a nested object or array is written by a
//! closure, so every scope it opens is closed. [`parse`] reads any
//! document into a [`Value`] tree, and [`parse_object`] reads one flat
//! record (the shape of a JSON-lines trace event or profile line).
//!
//! Numbers are integers: every number the tree emits is one, and the
//! parser rejects fractions and exponents. It reads any integer the
//! writer can emit (`u64::MAX` included) exactly, and a typed accessor
//! reports a number its type cannot hold as an error, never wrapping it.
//! Nesting is bounded by [`MAX_DEPTH`], so hostile input is an error,
//! never a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest nesting [`parse`] accepts. The documents the tree writes nest
/// at most five levels.
pub const MAX_DEPTH: usize = 128;

/// Error from [`parse`] or a typed field accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// The buffer a writer streams into, and whether its innermost scope has a
/// member yet (which decides the separating comma).
#[derive(Debug)]
struct Scope {
    buf: String,
    empty: bool,
}

impl Scope {
    fn open(mut buf: String, bracket: char) -> Self {
        buf.push(bracket);
        Scope { buf, empty: true }
    }

    fn close(mut self, bracket: char) -> String {
        self.buf.push(bracket);
        self.buf
    }

    fn separate(&mut self) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
    }

    /// Writes a nested object at the current position.
    fn object(&mut self, body: impl FnOnce(&mut ObjectWriter)) {
        let mut inner = ObjectWriter(Scope::open(std::mem::take(&mut self.buf), '{'));
        body(&mut inner);
        self.buf = inner.0.close('}');
    }

    /// Writes a nested array at the current position.
    fn array(&mut self, body: impl FnOnce(&mut ArrayWriter)) {
        let mut inner = ArrayWriter(Scope::open(std::mem::take(&mut self.buf), '['));
        body(&mut inner);
        self.buf = inner.0.close(']');
    }
}

/// Streams one JSON object, members in call order. Numbers are any
/// integer type up to 64 bits.
#[derive(Debug)]
pub struct ObjectWriter(Scope);

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    pub fn new() -> Self {
        ObjectWriter(Scope::open(String::new(), '{'))
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.0.separate();
        escape_into(&mut self.0.buf, key);
        self.0.buf.push(':');
        &mut self.0.buf
    }

    pub fn str(&mut self, key: &str, value: &str) {
        escape_into(self.key(key), value);
    }

    pub fn num(&mut self, key: &str, value: impl Into<i128>) {
        let _ = write!(self.key(key), "{}", value.into());
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }

    pub fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    pub fn str_array(&mut self, key: &str, values: &[String]) {
        self.array(key, |a| values.iter().for_each(|v| a.str(v)));
    }

    /// Writes `key` with a nested object whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut ObjectWriter)) {
        self.key(key);
        self.0.object(body);
    }

    /// Writes `key` with a nested array whose items `body` writes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut ArrayWriter)) {
        self.key(key);
        self.0.array(body);
    }

    pub fn finish(self) -> String {
        self.0.close('}')
    }
}

/// Streams the items of an array nested in an [`ObjectWriter`].
#[derive(Debug)]
pub struct ArrayWriter(Scope);

impl ArrayWriter {
    pub fn str(&mut self, value: &str) {
        self.0.separate();
        escape_into(&mut self.0.buf, value);
    }

    /// Appends an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut ObjectWriter)) {
        self.0.separate();
        self.0.object(body);
    }
}

/// Appends `s` to `buf` as a quoted JSON string.
fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value. Numbers are integers, wide enough for every one
/// [`ObjectWriter::num`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Num(i128),
    Bool(bool),
    Null,
    Array(Vec<Value>),
    Object(Object),
}

impl Value {
    pub fn as_object(&self) -> Result<&Object, JsonError> {
        match self {
            Value::Object(o) => Ok(o),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Whether the value is a string, number, bool, null or an array of
    /// strings: what a field of a flat record may hold.
    fn is_flat(&self) -> bool {
        match self {
            Value::Object(_) => false,
            Value::Array(items) => items.iter().all(|v| matches!(v, Value::Str(_))),
            _ => true,
        }
    }
}

/// A parsed JSON object with typed accessors. Members keep document
/// order; when a key repeats, the last member wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    fn field(&self, key: &str) -> Option<&Value> {
        self.fields
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        self.field(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    pub fn get_str(&self, key: &str) -> Result<&str, JsonError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected string, got {other:?}"
            ))),
        }
    }

    /// The number at `key` as a `T`; a number `T` cannot hold is an error.
    pub fn get_num<T: TryFrom<i128>>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key)? {
            Value::Num(n) => number(key, *n),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected number, got {other:?}"
            ))),
        }
    }

    pub fn get_bool(&self, key: &str) -> Result<bool, JsonError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected bool, got {other:?}"
            ))),
        }
    }

    /// The number at `key` as a `T`, or `None` when it is null.
    pub fn get_opt_num<T: TryFrom<i128>>(&self, key: &str) -> Result<Option<T>, JsonError> {
        self.get(key)?;
        self.opt_num(key)
    }

    /// The string at `key`, or `None` when the field is absent or null —
    /// for fields added after traces in the wild were recorded.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The number at `key` as a `T`, or `None` when the field is absent or
    /// null — for fields added after traces in the wild were recorded.
    pub fn opt_num<T: TryFrom<i128>>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.field(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Num(n)) => number(key, *n).map(Some),
            Some(other) => Err(JsonError::new(format!(
                "field {key:?}: expected number or null, got {other:?}"
            ))),
        }
    }

    pub fn get_str_array(&self, key: &str) -> Result<Vec<String>, JsonError> {
        let not_strings = || JsonError::new(format!("field {key:?}: expected string array"));
        match self.get(key)? {
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    _ => Err(not_strings()),
                })
                .collect(),
            _ => Err(not_strings()),
        }
    }

    pub fn get_array(&self, key: &str) -> Result<&[Value], JsonError> {
        match self.get(key)? {
            Value::Array(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected array, got {other:?}"
            ))),
        }
    }

    pub fn get_object(&self, key: &str) -> Result<&Object, JsonError> {
        self.get(key)?
            .as_object()
            .map_err(|e| JsonError::new(format!("field {key:?}: {}", e.0)))
    }
}

/// `n`, the number at `key`, as a `T`.
fn number<T: TryFrom<i128>>(key: &str, n: i128) -> Result<T, JsonError> {
    T::try_from(n).map_err(|_| {
        JsonError::new(format!(
            "field {key:?}: {n} is out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

/// Parses one JSON document.
///
/// # Errors
///
/// Malformed JSON, a number that is not an integer of at most 128 bits,
/// trailing data, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new("trailing data after value"));
    }
    Ok(value)
}

/// Parses one flat JSON object: every field a string, number, bool, null
/// or array of strings (the shape of one JSON-lines record).
///
/// # Errors
///
/// As [`parse`], or a document that is not a flat object.
pub fn parse_object(input: &str) -> Result<Object, JsonError> {
    let Value::Object(obj) = parse(input)? else {
        return Err(JsonError::new("expected an object"));
    };
    match obj.fields.iter().find(|(_, v)| !v.is_flat()) {
        Some((key, _)) => Err(JsonError::new(format!(
            "field {key:?}: nested value in a flat record"
        ))),
        None => Ok(obj),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        let got = self.next_byte()?;
        if got != want {
            return Err(JsonError::new(format!(
                "expected {:?}, got {:?}",
                want as char, got as char
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads the comma-separated items of an object or array whose opening
    /// bracket is the next byte, up to its `close` bracket.
    fn items(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.next_byte()? {
                b',' => continue,
                c if c == close => return Ok(()),
                c => {
                    return Err(JsonError::new(format!(
                        "expected ',' or {:?}, got {:?}",
                        close as char, c as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                b'"' => return Ok(out),
                b'\\' => match self.next_byte()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next_byte()?;
                            let v = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                            code = code * 16 + v;
                        }
                        // Surrogate pairs are not produced by the writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    c => {
                        return Err(JsonError::new(format!("bad escape \\{:?}", c as char)));
                    }
                },
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-assemble a UTF-8 multibyte sequence.
                    let len = if c >= 0xf0 {
                        4
                    } else if c >= 0xe0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(JsonError::new("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| JsonError::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self
            .peek()
            .ok_or_else(|| JsonError::new("unexpected end of input"))?
        {
            b'{' => {
                let mut fields = Vec::new();
                self.items(depth, b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(Object { fields }))
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(depth, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<i128>()
                    .map(Value::Num)
                    .map_err(|_| JsonError::new(format!("bad number {text:?}")))
            }
            c => Err(JsonError::new(format!(
                "unexpected character {:?}",
                c as char
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        let end = self.pos + text.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == text.as_bytes() {
            self.pos = end;
            Ok(value)
        } else {
            Err(JsonError::new(format!("expected literal {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_agree() {
        let mut w = ObjectWriter::new();
        w.str("s", "a \"b\" \\ ✓\n");
        w.num("n", -42);
        w.bool("t", true);
        w.bool("f", false);
        w.null("z");
        w.str_array("a", &["x".into(), "y\"z".into()]);
        let line = w.finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.get_str("s").unwrap(), "a \"b\" \\ ✓\n");
        assert_eq!(obj.get_num::<i64>("n").unwrap(), -42);
        assert!(obj.get_bool("t").unwrap());
        assert!(!obj.get_bool("f").unwrap());
        assert_eq!(obj.get_opt_num::<i64>("z").unwrap(), None);
        assert_eq!(obj.get_str_array("a").unwrap(), vec!["x", "y\"z"]);
    }

    #[test]
    fn nested_writer_round_trips() {
        let mut w = ObjectWriter::new();
        w.num("big", u64::MAX);
        w.object("empty", |_| {});
        w.array("rows", |rows| {
            rows.object(|r| {
                r.str("m", "f");
                r.array("tags", |t| t.str("x"));
            });
            rows.object(|r| r.null("m"));
            rows.str("last");
        });
        w.bool("after", true);
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"big":18446744073709551615,"empty":{},"rows":[{"m":"f","tags":["x"]},{"m":null},"last"],"after":true}"#
        );
        let root = parse(&doc).unwrap();
        let root = root.as_object().unwrap();
        assert_eq!(root.get_num::<u64>("big").unwrap(), u64::MAX);
        assert_eq!(root.get_object("empty").unwrap(), &Object::default());
        let rows = root.get_array("rows").unwrap();
        assert_eq!(rows.len(), 3);
        let first = rows[0].as_object().unwrap();
        assert_eq!(first.get_str("m").unwrap(), "f");
        assert_eq!(first.get_str_array("tags").unwrap(), vec!["x"]);
        assert_eq!(
            rows[1].as_object().unwrap().get_opt_num::<u64>("m"),
            Ok(None)
        );
        assert_eq!(rows[2], Value::Str("last".into()));
        assert!(root.get_bool("after").unwrap());
        assert!(root.get_object("rows").is_err());
        assert!(root.get_array("after").is_err());
    }

    #[test]
    fn every_integer_the_writer_emits_parses_back_exactly() {
        let mut w = ObjectWriter::new();
        w.num("u64_max", u64::MAX);
        w.num("i64_min", i64::MIN);
        w.num("i64_max", i64::MAX);
        w.num("past_i64", i64::MAX as u64 + 1);
        let doc = w.finish();
        let obj = parse_object(&doc).unwrap();
        assert_eq!(obj.get_num::<u64>("u64_max"), Ok(u64::MAX));
        assert_eq!(obj.get_num::<i64>("i64_min"), Ok(i64::MIN));
        assert_eq!(obj.get_num::<i64>("i64_max"), Ok(i64::MAX));
        assert_eq!(obj.get_num::<u64>("past_i64"), Ok(1 << 63));
        // An accessor whose type cannot hold the number reports it, and
        // never wraps it.
        assert!(obj.get_num::<i64>("u64_max").is_err());
        assert!(obj.get_num::<i64>("past_i64").is_err());
        assert!(obj.get_opt_num::<i64>("u64_max").is_err());
        assert!(obj.opt_num::<i64>("u64_max").is_err());
        assert!(obj.get_num::<u64>("i64_min").is_err());
        assert!(obj.get_num::<u32>("i64_max").is_err());
        assert_eq!(obj.opt_num::<u64>("absent"), Ok(None));
        assert!(obj.get_opt_num::<u64>("absent").is_err());
        // Past the widest integer the writer takes is malformed.
        assert!(parse("340282366920938463463374607431768211456").is_err());
    }

    #[test]
    fn parse_accepts_nesting_and_rejects_malformed() {
        let v = parse(" {\"a\":[1,2,{\"b\":null}],\"c\":-15} ").unwrap();
        let a = v.as_object().unwrap().get_array("a").unwrap();
        assert_eq!(a[1], Value::Num(2));
        assert!(parse("[]").is_ok());
        assert!(parse("\"s\"").is_ok());
        for bad in [
            "",
            "{\"a\":}",
            "[1,2",
            "[1,]",
            "{} extra",
            "{\"a\":1-2}",
            "{\"a\":--}",
            "{\"a\":-}",
            "-1.5e3",
            "{\"a\" 1}",
            "{1:2}",
            "[tru]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn flat_records_reject_nested_values() {
        assert!(parse_object("{\"a\":{}}").is_err());
        assert!(parse_object("{\"a\":[1]}").is_err());
        assert!(parse_object("{\"a\":[[]]}").is_err());
        // A shadowed member is still a member of the record.
        assert!(parse_object("{\"a\":{},\"a\":1}").is_err());
        assert!(parse_object("[]").is_err());
        let obj = parse_object("{\"a\":1,\"a\":[\"x\"]}").unwrap();
        assert_eq!(obj.get_str_array("a").unwrap(), vec!["x"]);
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        let hostile = [
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            deep(100_000),
        ];
        for input in &hostile {
            assert!(parse(input).is_err());
            assert!(parse_object(input).is_err());
        }
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_object("{}").unwrap(), Object::default());
        assert_eq!(parse_object("  { }  ").unwrap(), Object::default());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object("{\"a\":}").is_err());
        assert!(parse_object("{\"a\":1}x").is_err());
        assert!(parse_object("{\"a\":1.5}").is_err());
        let obj = parse_object("{\"a\":1}").unwrap();
        assert!(obj.get_str("a").is_err());
        assert!(obj.get("missing").is_err());
    }
}
