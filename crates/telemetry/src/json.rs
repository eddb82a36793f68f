//! A minimal JSON document model and emitter.
//!
//! The workspace runs in environments with no crates.io access, so snapshot
//! export cannot lean on `serde_json`. This module provides the small subset
//! the suite needs: building a [`JsonValue`] tree and rendering it compactly
//! or pretty-printed, with correct string escaping and RFC 8785-style number
//! handling (non-finite floats become `null`).
//!
//! [`ToJson`] is the emission trait; it is implemented for the primitives,
//! strings, options, sequences and small tuples that the bench binaries and
//! CLI snapshots actually serialize.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted without a decimal point).
    UInt(u64),
    /// A signed integer (emitted without a decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of this node, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The unsigned value of this node, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value of this node, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of this node, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// The counterpart of the emitter, used by the trace-export smoke tests
    /// and the golden-file schema tests (no `serde_json` in this
    /// environment). Numbers without a fraction/exponent that fit the
    /// integer nodes parse as [`JsonValue::UInt`]/[`JsonValue::Int`];
    /// everything else numeric becomes [`JsonValue::Num`].
    ///
    /// # Errors
    ///
    /// Returns a `position: message` string on malformed input or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("{}: trailing characters", p.pos));
        }
        Ok(v)
    }

    /// Renders the document on one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) => {
                if v.is_finite() {
                    if *v == v.trunc() && v.abs() < 1e15 {
                        let _ = write!(out, "{:.1}", v);
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            JsonValue::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// How deep arrays and objects may nest before [`JsonValue::parse`] refuses
/// the document instead of recursing further. Every document the workspace
/// and the benchmark write is under 10 deep.
const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over raw bytes (multi-byte UTF-8 is only
/// ever copied through inside strings, never inspected).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("{}: expected {:?}", self.pos, b as char))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("{}: expected {word}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("{}: nesting too deep", self.pos));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("{}: expected a value", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("{}: expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("{}: expected ',' or '}}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("{start}: invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("{}: unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix` alone
                            // would also take a sign.
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| {
                                    u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                                })
                                .ok_or_else(|| format!("{}: bad \\u escape", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our emitter;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("{}: unknown escape", self.pos - 1)),
                    }
                }
                _ => return Err(format!("{}: unterminated string", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("{start}: bad number"))
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Conversion into a [`JsonValue`] tree.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as i64)
            }
        }
    )*};
}
impl_to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self as f64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (*self).to_json()
    }
}

macro_rules! impl_to_json_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> JsonValue {
                JsonValue::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
    };
}
impl_to_json_tuple!(A: 0);
impl_to_json_tuple!(A: 0, B: 1);
impl_to_json_tuple!(A: 0, B: 1, C: 2);
impl_to_json_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_rendering() {
        let doc = JsonValue::obj([
            ("name", "hi".to_json()),
            ("count", 3u64.to_json()),
            ("rate", 2.5f64.to_json()),
            ("on", true.to_json()),
            ("gone", JsonValue::Null),
        ]);
        assert_eq!(
            doc.to_compact(),
            r#"{"name":"hi","count":3,"rate":2.5,"on":true,"gone":null}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let doc = JsonValue::obj([("xs", JsonValue::arr([1u64.to_json(), 2u64.to_json()]))]);
        assert_eq!(doc.to_pretty(), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn string_escaping() {
        let doc = "a\"b\\c\nd\u{1}".to_json();
        assert_eq!(doc.to_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(f64::NAN.to_json().to_compact(), "null");
        assert_eq!(f64::INFINITY.to_json().to_compact(), "null");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(3.0f64.to_json().to_compact(), "3.0");
    }

    #[test]
    fn tuples_and_vecs_serialize_as_arrays() {
        let rows = vec![("hi".to_string(), 1.5f64), ("lo".to_string(), 0.5f64)];
        assert_eq!(rows.to_json().to_compact(), r#"[["hi",1.5],["lo",0.5]]"#);
    }

    #[test]
    fn lookup_helpers() {
        let doc = JsonValue::obj([("k", 7u64.to_json())]);
        assert_eq!(doc.get("k").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::arr([]).to_compact(), "[]");
        assert_eq!(JsonValue::obj::<String>([]).to_pretty(), "{}");
    }

    #[test]
    fn parse_roundtrips_the_emitter() {
        let doc = JsonValue::obj([
            ("name", "a\"b\\c\nd".to_json()),
            ("count", 3u64.to_json()),
            ("neg", (-7i64).to_json()),
            ("rate", 2.5f64.to_json()),
            ("whole", 3.0f64.to_json()),
            ("on", true.to_json()),
            ("gone", JsonValue::Null),
            ("xs", JsonValue::arr([1u64.to_json(), 2u64.to_json()])),
            ("nested", JsonValue::obj([("k", JsonValue::arr([]))])),
        ]);
        assert_eq!(JsonValue::parse(&doc.to_compact()), Ok(doc.clone()));
        assert_eq!(JsonValue::parse(&doc.to_pretty()), Ok(doc));
    }

    #[test]
    fn parse_number_forms() {
        assert_eq!(JsonValue::parse("42"), Ok(JsonValue::UInt(42)));
        assert_eq!(JsonValue::parse("-42"), Ok(JsonValue::Int(-42)));
        assert_eq!(JsonValue::parse("1e3"), Ok(JsonValue::Num(1000.0)));
        assert_eq!(JsonValue::parse("0.5"), Ok(JsonValue::Num(0.5)));
        assert_eq!(
            JsonValue::parse("18446744073709551615"),
            Ok(JsonValue::UInt(u64::MAX))
        );
    }

    #[test]
    fn parse_unicode_escapes_and_multibyte_passthrough() {
        assert_eq!(
            JsonValue::parse("\"a\\u0041\\u00e9\""),
            Ok(JsonValue::Str("aA\u{e9}".into()))
        );
        assert_eq!(
            JsonValue::parse("\"caf\u{e9}\""),
            Ok(JsonValue::Str("caf\u{e9}".into()))
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"open", "{} extra", "[1 2]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_refuses_deep_nesting_instead_of_overflowing_the_stack() {
        for open in ["[", "{\"k\":"] {
            let hostile = open.repeat(1_000_000);
            assert_eq!(
                JsonValue::parse(&hostile),
                Err(format!("{}: nesting too deep", MAX_DEPTH * open.len()))
            );
        }
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&deepest).is_ok());
    }

    #[test]
    fn parse_unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04""#,
            r#""\u0g41""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
        assert_eq!(
            JsonValue::parse(r#""\u004A""#),
            Ok(JsonValue::Str("J".into()))
        );
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
    }
}
