//! # serde_json (offline shim)
//!
//! JSON rendering for the local `serde` shim. The workspace only ever
//! *writes* JSON (bench result files, a metrics round-trip smoke test), so
//! this shim implements encoding only, and it does so without proc macros:
//! the local `serde::Serialize` is blanket-implemented over `Debug`, and
//! this crate parses the std `Debug` grammar (`Name { field: v }`,
//! `Name(v)`, `[a, b]`, `(a, b)`, strings, numbers, `Some`/`None`) into a
//! [`Value`] tree which it renders as JSON.
//!
//! Mapping conventions (close to real serde's defaults):
//!
//! * structs and struct variants → objects (the type/variant name is
//!   dropped, as serde does for structs);
//! * newtype wrappers and `Some(x)` → the inner value; `None` → `null`;
//! * unit enum variants → their name as a string;
//! * tuples and slices → arrays;
//! * tokens that aren't valid JSON numbers (`NaN`, `inf`, `2ms`) → strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A numeric literal, kept verbatim as text.
    Number(String),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// An object; insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of field `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Encoding error. The Debug grammar parser is total (unknown trailing
/// input is tolerated), so in practice this is never produced, but the
/// `Result` return keeps call sites source-compatible with real serde_json.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convert any serializable (= `Debug`) value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    let debug = format!("{value:?}");
    let mut p = Parser { bytes: debug.as_bytes(), pos: 0 };
    Ok(p.value())
}

/// Render `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = to_value(value)?;
    let mut out = String::new();
    write_compact(&v, &mut out);
    Ok(out)
}

/// Render `value` as human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = to_value(value)?;
    let mut out = String::new();
    write_pretty(&v, 0, &mut out);
    Ok(out)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Recursive-descent parser over the std `Debug` grammar.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\n') | Some(b'\t') | Some(b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Value {
        self.skip_ws();
        match self.peek() {
            None => Value::Null,
            Some(b'"') => Value::String(self.string_literal()),
            Some(b'\'') => Value::String(self.char_literal()),
            Some(b'[') => self.sequence(b'[', b']'),
            Some(b'(') => self.tuple(),
            Some(b'{') => self.braces(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number_like(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.named(),
            Some(_) => {
                // Unknown token: consume one byte so parsing always advances.
                self.pos += 1;
                self.value()
            }
        }
    }

    /// A Rust string literal body, converted to its unescaped text.
    fn string_literal(&mut self) -> String {
        self.pos += 1; // opening quote
        let mut s = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let esc = self.peek().unwrap_or(b'\\');
                    self.pos += 1;
                    match esc {
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'0' => s.push('\0'),
                        b'u' => {
                            // \u{XXXX}
                            let mut hex = String::new();
                            if self.peek() == Some(b'{') {
                                self.pos += 1;
                                while let Some(h) = self.peek() {
                                    self.pos += 1;
                                    if h == b'}' {
                                        break;
                                    }
                                    hex.push(h as char);
                                }
                            }
                            if let Ok(n) = u32::from_str_radix(&hex, 16) {
                                if let Some(ch) = char::from_u32(n) {
                                    s.push(ch);
                                }
                            }
                        }
                        other => s.push(other as char),
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        s.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(c);
                        let end = (start + len).min(self.bytes.len());
                        if let Ok(frag) = std::str::from_utf8(&self.bytes[start..end]) {
                            s.push_str(frag);
                        }
                        self.pos = end;
                    }
                }
            }
        }
        s
    }

    fn char_literal(&mut self) -> String {
        self.pos += 1; // opening quote
        let mut s = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'\'' {
                break;
            }
            if c == b'\\' {
                if let Some(esc) = self.peek() {
                    self.pos += 1;
                    match esc {
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        other => s.push(other as char),
                    }
                }
            } else {
                s.push(c as char);
            }
        }
        s
    }

    fn sequence(&mut self, open: u8, close: u8) -> Value {
        debug_assert_eq!(self.peek(), Some(open));
        self.pos += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(c) if c == close => {
                    self.pos += 1;
                    break;
                }
                Some(b',') => {
                    self.pos += 1;
                }
                _ => items.push(self.value()),
            }
        }
        Value::Array(items)
    }

    fn tuple(&mut self) -> Value {
        match self.sequence(b'(', b')') {
            Value::Array(items) if items.is_empty() => Value::Null, // `()`
            Value::Array(mut items) if items.len() == 1 => items.pop().unwrap(),
            other => other,
        }
    }

    /// `{ ... }`: a struct body (`field: value`) or a map (`key: value`).
    fn braces(&mut self) -> Value {
        self.pos += 1; // '{'
        let mut entries = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'.') => {
                    // `..` from a non-exhaustive Debug impl.
                    self.pos += 1;
                }
                _ => {
                    let key = self.value();
                    self.skip_ws();
                    if self.peek() == Some(b':') {
                        self.pos += 1;
                        let val = self.value();
                        entries.push((key_to_string(key), val));
                    } else {
                        // A set-like Debug ({a, b}): render as array.
                        let mut items = vec![key];
                        loop {
                            self.skip_ws();
                            match self.peek() {
                                None => break,
                                Some(b'}') => {
                                    self.pos += 1;
                                    break;
                                }
                                Some(b',') => self.pos += 1,
                                _ => items.push(self.value()),
                            }
                        }
                        return Value::Array(items);
                    }
                }
            }
        }
        Value::Object(entries)
    }

    /// A bare token starting with a digit or `-`: number, or number-like
    /// text such as `2ms` / `-inf` that must be quoted for valid JSON.
    fn number_like(&mut self) -> Value {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'.' | b'_' | b'+' | b'-') {
                self.pos += 1;
            } else if self.bytes[self.pos..].starts_with("µ".as_bytes()) {
                // `Duration`'s Debug prints microseconds as `1.5µs`.
                self.pos += "µ".len();
            } else {
                break;
            }
        }
        let tok: String =
            std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default().replace('_', "");
        if tok.parse::<i128>().is_ok() {
            return Value::Number(tok);
        }
        match tok.parse::<f64>() {
            Ok(f) if f.is_finite() => Value::Number(tok),
            _ => Value::String(tok),
        }
    }

    /// An identifier: `true`/`false`, `None`, a struct/variant name
    /// followed by `(`/`{`, or a bare unit variant.
    fn named(&mut self) -> Value {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let name =
            std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default().to_string();
        match name.as_str() {
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            "None" => return Value::Null,
            _ => {}
        }
        self.skip_ws();
        match self.peek() {
            Some(b'(') => self.tuple(),
            Some(b'{') => self.braces(),
            _ => Value::String(name),
        }
    }
}

fn key_to_string(key: Value) -> String {
    match key {
        Value::String(s) => s,
        Value::Number(n) => n,
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_string(),
        other => {
            let mut s = String::new();
            write_compact(&other, &mut s);
            s
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fields are "read" only through Debug formatting, which dead-code
    // analysis does not count.
    #[derive(Debug)]
    #[allow(dead_code)]
    struct Metrics {
        rounds: u64,
        ratio: f64,
        per_machine: Vec<u64>,
        label: Option<String>,
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    enum Mode {
        Unlimited,
        Enforce { bits_per_round: u64 },
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    struct Wrapper(u64);

    #[test]
    fn struct_renders_as_object() {
        let m = Metrics {
            rounds: 3,
            ratio: 1.5,
            per_machine: vec![1, 2],
            label: Some("hi \"there\"".into()),
        };
        let s = to_string(&m).unwrap();
        assert_eq!(s, r#"{"rounds":3,"ratio":1.5,"per_machine":[1,2],"label":"hi \"there\""}"#);
    }

    #[test]
    fn enums_options_and_newtypes() {
        assert_eq!(to_string(&Mode::Unlimited).unwrap(), r#""Unlimited""#);
        assert_eq!(
            to_string(&Mode::Enforce { bits_per_round: 64 }).unwrap(),
            r#"{"bits_per_round":64}"#
        );
        assert_eq!(to_string(&Wrapper(9)).unwrap(), "9");
        assert_eq!(to_string(&Option::<u64>::None).unwrap(), "null");
        assert_eq!(to_string(&Some(4u64)).unwrap(), "4");
    }

    #[test]
    fn non_json_numerics_become_strings() {
        assert_eq!(to_string(&f64::NAN).unwrap(), r#""NaN""#);
        assert_eq!(to_string(&f64::INFINITY).unwrap(), r#""inf""#);
        assert_eq!(to_string(&std::time::Duration::from_millis(2)).unwrap(), r#""2ms""#);
    }

    #[test]
    fn microsecond_durations_keep_their_struct_whole() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Timed {
            a: u64,
            wall: std::time::Duration,
            b: u64,
        }
        let t = Timed { a: 1, wall: std::time::Duration::from_nanos(1500), b: 2 };
        assert_eq!(to_string(&t).unwrap(), r#"{"a":1,"wall":"1.5µs","b":2}"#);
        let v = to_value(&t).unwrap();
        assert_eq!(v.get("b"), Some(&Value::Number("2".into())));
    }

    #[test]
    fn tuples_and_maps() {
        assert_eq!(to_string(&(1u8, 2u8, 3u8)).unwrap(), "[1,2,3]");
        let mut map = std::collections::BTreeMap::new();
        map.insert(1u32, "a");
        map.insert(2, "b");
        assert_eq!(to_string(&map).unwrap(), r#"{"1":"a","2":"b"}"#);
    }

    #[test]
    fn pretty_output_is_indented_and_valid() {
        let m = Metrics { rounds: 1, ratio: 0.5, per_machine: vec![7], label: None };
        let s = to_string_pretty(&m).unwrap();
        assert!(s.contains("\n  \"rounds\": 1"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn floats_keep_exponent_notation() {
        assert_eq!(to_string(&1e-9f64).unwrap(), "1e-9");
        assert_eq!(to_string(&-2.5f64).unwrap(), "-2.5");
    }
}
