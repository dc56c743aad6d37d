//! JSON by construction: a pretty-printing writer and the [`WriteJson`]
//! trait the written types implement by hand, most through
//! [`json_object!`](crate::json_object).
//!
//! The layout is two-space indented, with fields in declared order. A
//! [`Duration`] renders as its `Debug` string (`"527.812µs"`), an `f64` as
//! its `Debug` text, a non-finite one as the string `"NaN"`, `"inf"` or
//! `"-inf"`, and `None` as `null`.

use std::fmt::{Display, Write};
use std::time::Duration;

/// A value that writes itself as one JSON value.
pub trait WriteJson {
    /// Write `self` to `w`.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Implements [`WriteJson`](crate::json::WriteJson) for a struct as an
/// object of the fields listed, in that order. The list must name every
/// field: it is destructured without `..`, so a field added to the struct
/// and left out of its JSON is a compile error.
#[macro_export]
macro_rules! json_object {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::WriteJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                let $ty { $($field),* } = self;
                w.object(|w| {
                    $(w.field(stringify!($field), $field);)*
                });
            }
        }
    };
}

/// `value` as two-space-indented JSON.
pub fn to_string_pretty<T: WriteJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::default();
    value.write_json(&mut w);
    w.out
}

/// Accumulates the JSON text of one value. An empty array or object
/// renders as `[]` / `{}`; a non-empty one puts each item on its own line.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Containers open around the next item.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// A field name was just written: the next value completes its line.
    keyed: bool,
}

impl JsonWriter {
    /// An object whose fields `fields` writes with [`JsonWriter::field`].
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) {
        self.container('{', fields, '}');
    }

    /// One `"name": value` field of the enclosing object.
    pub fn field(&mut self, name: &str, value: &dyn WriteJson) {
        self.next_item();
        self.escaped(name);
        self.out.push_str(": ");
        self.keyed = true;
        value.write_json(self);
    }

    fn container(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) {
        self.begin_value();
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
        body(self);
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(close);
        self.empty = false;
    }

    /// Starts a value: after a field name it continues the line, inside an
    /// array it is the next item.
    fn begin_value(&mut self) {
        if !std::mem::take(&mut self.keyed) && self.depth > 0 {
            self.next_item();
        }
    }

    fn next_item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// A bare token: a number, `true` / `false` or `null`.
    fn token(&mut self, token: impl Display) {
        self.begin_value();
        write!(self.out, "{token}").expect("writing to a String cannot fail");
    }

    fn string(&mut self, s: &str) {
        self.begin_value();
        self.escaped(s);
    }

    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.out, "\\u{:04x}", c as u32)
                    .expect("writing to a String cannot fail"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

macro_rules! token_json {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.token(self);
            }
        }
    )*};
}

token_json!(bool, u32, u64, usize);

impl WriteJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        if self.is_finite() {
            w.token(format_args!("{self:?}"));
        } else {
            w.string(&format!("{self:?}"));
        }
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl WriteJson for Duration {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(&format!("{self:?}"));
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(value) => value.write_json(w),
            None => w.token("null"),
        }
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.container('[', |w| self.iter().for_each(|item| item.write_json(w)), ']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_keep_non_ascii() {
        let s = "say \"hi\"\\ \u{1} ℓ µs";
        assert_eq!(to_string_pretty(s), r#""say \"hi\"\\ \u0001 ℓ µs""#);
        assert_eq!(to_string_pretty("tab\tline\nret\r"), r#""tab\tline\nret\r""#);
    }

    #[test]
    fn floats_render_as_debug_and_non_finite_as_strings() {
        let floats = vec![1.0, 1e-7, -2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let want = "[\n  1.0,\n  1e-7,\n  -2.5,\n  \"NaN\",\n  \"inf\",\n  \"-inf\"\n]";
        assert_eq!(to_string_pretty(&floats), want);
        assert_eq!(to_string_pretty(&Vec::<f64>::new()), "[]");
    }
}
