//! The workspace's one JSON reader.
//!
//! Telemetry JSONL lines (`ble-telemetry`), campaign checkpoint sidecars
//! (`bench`) and experiment artefacts (`xtask gate`) are all read back
//! here; each writer stays with its crate, because it pins exact bytes.
//!
//! The input is untrusted: a kill can tear a line and a user can hand-edit
//! a sidecar. So [`parse`] never panics, rejects every strict prefix of a
//! document and any bytes after it, bounds nesting at [`MAX_DEPTH`], and
//! names the byte offset of the first error. Number tokens stay text until
//! [`Value::num`] converts them, so a `u64` never passes through `f64` and
//! a binary that reads only integers links no float parser.
//!
//! ```
//! let v = json_reader::parse(r#"{"seed":18446744073709551615,"tags":["a"]}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(|s| s.num::<u64>()), Some(u64::MAX));
//! assert_eq!(v.get("tags").and_then(|t| t.as_arr()).map(|t| t.len()), Some(1));
//! assert_eq!(json_reader::parse("{\"torn\":").unwrap_err().offset(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt;
use std::str::FromStr;

/// The deepest array/object nesting [`parse`] accepts. The workspace's
/// deepest document nests four levels.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source token (`-3.125`, `18446744073709551615`).
    Num(String),
    /// A string, with its escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in source order, duplicate names included.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let members = self.as_obj()?;
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number token converted to `T`; `None` for a non-number or a
    /// token `T` cannot represent.
    pub fn num<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    offset: usize,
    reason: &'static str,
}

impl Error {
    /// The byte offset into the input at which parsing stopped.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for Error {}

/// Parses one complete JSON text. Whitespace may surround the value;
/// anything else after it is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing bytes after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> Error {
        Error {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let byte = self.peek();
        if byte.is_some() {
            self.pos += 1;
        }
        byte
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn require(&mut self, byte: u8, reason: &'static str) -> Result<(), Error> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(reason))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nested too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let name = p.string()?;
                    p.skip_ws();
                    p.require(b':', "expected `:`")?;
                    members.push((name, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated items of the array or object that opens at the
    /// current byte, up to its `close` byte.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.require(b',', "expected `,` or a closing bracket")?;
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, Error> {
        let rest = self.text.get(self.pos..).unwrap_or_default();
        if !rest.starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("expected a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.error("expected an exponent digit"));
            }
        }
        let token = self.text.get(start..self.pos).unwrap_or_default();
        Ok(Value::Num(token.to_owned()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.require(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            // A run of plain characters. It stops only at ASCII bytes, so
            // both ends sit on character boundaries of the input.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated string or control character"));
            }
            out.push(match self.next() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("invalid escape")),
            });
        }
    }

    /// The `XXXX` of a `\uXXXX` escape, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.error("unpaired surrogate"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("unpaired surrogate"));
            }
            0x1_0000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let v = parse(r#" {"a":[1,-0.5,2e3,1E-2],"b":null,"c":true,"d":{},"a":[]} "#).unwrap();
        let nums = ["1", "-0.5", "2e3", "1E-2"].map(|t| Value::Num(t.into()));
        assert_eq!(v.get("a").and_then(Value::as_arr), Some(&nums[..]));
        assert_eq!(v.get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("d").and_then(Value::as_obj), Some(&[][..]));
        assert_eq!(v.as_obj().map(<[_]>::len), Some(5), "duplicates are kept");
        assert_eq!((v.get("missing"), nums[0].get("a")), (None, None));
        assert_eq!(nums[1].num::<f64>(), Some(-0.5));
        assert_eq!(nums[1].num::<u64>(), None);
        let too_big = parse("18446744073709551616").unwrap();
        assert_eq!(
            (too_big.num::<u64>(), too_big.num::<u128>()),
            (None, Some(1 << 64))
        );
    }

    #[test]
    fn strings_resolve_every_escape() {
        let v = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00 plain é""#).unwrap();
        let want = "q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀 plain é";
        assert_eq!(v.as_str(), Some(want));
    }

    #[test]
    fn malformed_input_is_rejected_with_its_offset() {
        for (text, offset) in [
            ("", 0),
            ("   ", 3),
            ("{", 1),
            ("{\"a\"}", 4),
            ("{\"a\":1,}", 7),
            ("{a:1}", 1),
            ("[1 2]", 3),
            ("[1,]", 3),
            ("01", 1),
            ("-", 1),
            ("1.", 2),
            ("1e", 2),
            ("+1", 0),
            ("nul", 0),
            ("NaN", 0),
            ("\"a\nb\"", 2),
            ("\"\\x\"", 3),
            ("\"\\u12\"", 3),
            ("\"\\u+123\"", 3),
            ("\"\\ud800\"", 7),
            ("\"\\ud800\\u0041\"", 13),
            ("\"\\udc00\"", 7),
            ("{}x", 2),
            ("[] []", 3),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset(), offset, "{text:?}: {err}");
        }
        assert_eq!(
            parse("[1,]").unwrap_err().to_string(),
            "byte 3: expected a value"
        );
    }
}
