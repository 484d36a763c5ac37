//! The one JSON codec of the workspace: a reader for the artifacts the
//! tools load back, and a writer every exporter emits through (the
//! offline build has no serde).
//!
//! The writer appends into one `String`. [`object()`] and [`array()`] open a
//! builder, hand it to a closure and close it afterwards, so brackets
//! always balance; [`Obj`] and [`Arr`] alone place separators, quote and
//! escape keys, and write `null` for `None` and for non-finite floats.
//! Scalars go through [`ToJson`].
//!
//! ```
//! use marlin_telemetry::json::{object, parse_json};
//!
//! let mut out = String::new();
//! object(&mut out, |o| {
//!     o.field("name", "a \"b\"").field("ratio", f64::NAN);
//!     o.arr("pairs", |a| {
//!         a.arr(|p| {
//!             p.item(1u64).item(0.5);
//!         });
//!     });
//! });
//! assert_eq!(out, r#"{"name":"a \"b\"","ratio":null,"pairs":[[1,0.5]]}"#);
//! let back = parse_json(&out).unwrap();
//! assert_eq!(back.get("name").and_then(|v| v.as_str()), Some("a \"b\""));
//! ```

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer.

/// A value the writer can emit as one JSON scalar (or `null`).
pub trait ToJson {
    /// Append the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_to_json!(u8, u16, u32, u64, usize, i64);

impl ToJson for f64 {
    /// Finite floats print as-is; NaN/inf become `null` (JSON has
    /// neither).
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Append `s` as a quoted JSON string: `"` and `\` escaped, `\n` `\t`
/// `\r` by name, every other control character as `\u00XX`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if named.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(named);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// `v` as JSON: finite floats as-is, NaN/inf as `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Write one JSON object into `out`; `f` fills in its members.
pub fn object(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj { out, first: true });
    out.push('}');
}

/// Write one JSON array into `out`; `f` fills in its elements.
pub fn array(out: &mut String, f: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    f(&mut Arr {
        out,
        first: true,
        sep: ",",
    });
    out.push(']');
}

/// Write array elements one per line (`a,\nb`) into `out`, for a caller
/// that writes the brackets itself. `after` says `out` already ends with
/// an element, so the first new one is preceded by `,\n` too.
pub fn lines(out: &mut String, after: bool, f: impl FnOnce(&mut Arr<'_>)) {
    f(&mut Arr {
        out,
        first: !after,
        sep: ",\n",
    });
}

/// The members of an object being written.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A scalar member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// An object member.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        object(self.key(key), f);
        self
    }

    /// An object member written from `value`, or `null` when there is
    /// none.
    pub fn obj_or_null<T>(
        &mut self,
        key: &str,
        value: Option<&T>,
        f: impl FnOnce(&mut Obj<'_>, &T),
    ) -> &mut Self {
        let out = self.key(key);
        match value {
            Some(v) => object(out, |o| f(o, v)),
            None => out.push_str("null"),
        }
        self
    }

    /// An array member.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        array(self.key(key), f);
        self
    }
}

/// The elements of an array being written.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
    sep: &'static str,
}

impl Arr<'_> {
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push_str(self.sep);
        }
        self.first = false;
        self.out
    }

    /// A scalar element.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.next());
        self
    }

    /// An object element.
    pub fn obj(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        object(self.next(), f);
        self
    }

    /// An array element.
    pub fn arr(&mut self, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        array(self.next(), f);
        self
    }

    /// An element that is already JSON text, inserted verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.next().push_str(json);
        self
    }
}

// ---------------------------------------------------------------------------
// Reader.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the artifacts stay within f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += usize::from(b.is_some());
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected '{}'", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err(&format!("expected '{word}'")));
        }
        self.pos += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let span = &self.text[start..self.pos];
        span.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{span}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash (both ASCII,
            // so the run ends on a char boundary).
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(_) => {}
                None => return Err(self.err("unterminated string")),
            }
            let unescaped = match self.bump() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("invalid escape")),
            };
            out.push(unescaped);
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_separators_and_nulls() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.field("a", 1u64)
                .field("b", None::<u16>)
                .field("c", f64::INFINITY)
                .obj_or_null("d", None::<&u8>, |_, _| {})
                .obj_or_null("e", Some(&2u32), |o, v| {
                    o.field("v", *v);
                })
                .obj("f", |_| {})
                .arr("g", |a| {
                    a.item(true).raw("{\"x\":1}").arr(|_| {});
                });
        });
        assert_eq!(
            out,
            r#"{"a":1,"b":null,"c":null,"d":null,"e":{"v":2},"f":{},"g":[true,{"x":1},[]]}"#
        );
    }

    #[test]
    fn lines_separate_elements_one_per_line() {
        let mut out = String::from("[");
        lines(&mut out, false, |a| {
            a.item(1u8).item(2u8);
        });
        assert_eq!(out, "[1,\n2");
        lines(&mut out, true, |a| {
            a.item(3u8);
        });
        assert_eq!(out, "[1,\n2,\n3");
        // No elements, no separator.
        lines(&mut out, true, |_| {});
        assert_eq!(out, "[1,\n2,\n3");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("[{\"a\":[1]").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse_json("{\"a\":\"q\\\"\\\\\\n\\u0041é\"}").expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("q\"\\\nAé"));
    }
}
