//! Minimal flat-JSON codec for trace events.
//!
//! The workspace builds offline (no serde), and trace events only need a
//! flat object with string / integer / bool / null / string-array values —
//! so this module implements exactly that: [`ObjectWriter`] emits one
//! compact object, [`parse_object`] reads one back. Nested objects and
//! floating-point numbers are intentionally unsupported.

use std::collections::BTreeMap;
use std::fmt;

/// Error from [`parse_object`] or a typed field accessor.
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

/// Writes one flat JSON object, preserving insertion order.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
}

impl ObjectWriter {
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        escape_into(&mut self.buf, value);
    }

    pub fn num(&mut self, key: &str, value: i64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    pub fn null(&mut self, key: &str) {
        self.key(key);
        self.buf.push_str("null");
    }

    pub fn str_array(&mut self, key: &str, values: &[String]) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            escape_into(&mut self.buf, v);
        }
        self.buf.push(']');
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Appends `s` to `buf` as a quoted JSON string.
pub(crate) fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed flat-JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Num(i64),
    Bool(bool),
    Null,
    StrArray(Vec<String>),
}

/// A parsed flat JSON object with typed accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Object {
    fields: BTreeMap<String, Value>,
}

impl Object {
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        self.fields
            .get(key)
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

    pub fn get_num(&self, key: &str) -> Result<i64, JsonError> {
        match self.get(key)? {
            Value::Num(n) => Ok(*n),
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

    pub fn get_opt_num(&self, key: &str) -> Result<Option<i64>, JsonError> {
        match self.get(key)? {
            Value::Num(n) => Ok(Some(*n)),
            Value::Null => Ok(None),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected number or null, got {other:?}"
            ))),
        }
    }

    /// The string at `key`, or `None` when the field is absent or null —
    /// for fields added after traces in the wild were recorded.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The number at `key`, or `None` when the field is absent or null.
    pub fn opt_num(&self, key: &str) -> Option<i64> {
        match self.fields.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    pub fn get_str_array(&self, key: &str) -> Result<Vec<String>, JsonError> {
        match self.get(key)? {
            Value::StrArray(v) => Ok(v.clone()),
            other => Err(JsonError::new(format!(
                "field {key:?}: expected string array, got {other:?}"
            ))),
        }
    }
}

/// Parses one flat JSON object (the shape [`ObjectWriter`] produces).
pub fn parse_object(input: &str) -> Result<Object, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.insert(key, value);
            p.skip_ws();
            match p.next_byte()? {
                b',' => continue,
                b'}' => break,
                c => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}', got {:?}",
                        c as char
                    )))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new("trailing data after object"));
    }
    Ok(Object { fields })
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

    fn value(&mut self) -> Result<Value, JsonError> {
        match self
            .peek()
            .ok_or_else(|| JsonError::new("unexpected end of input"))?
        {
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::StrArray(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.string()?);
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => break,
                        c => {
                            return Err(JsonError::new(format!(
                                "expected ',' or ']', got {:?}",
                                c as char
                            )));
                        }
                    }
                }
                Ok(Value::StrArray(items))
            }
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
                text.parse::<i64>()
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
        assert_eq!(obj.get_num("n").unwrap(), -42);
        assert!(obj.get_bool("t").unwrap());
        assert!(!obj.get_bool("f").unwrap());
        assert_eq!(obj.get_opt_num("z").unwrap(), None);
        assert_eq!(obj.get_str_array("a").unwrap(), vec!["x", "y\"z"]);
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
