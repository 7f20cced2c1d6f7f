//! Minimal JSON value, writer and parser, and the one declaration form of a
//! JSON schema: the bench reports and the chaos corpus are written with it.
//!
//! The workspace's vendored `serde` is a no-op derive shim (the build
//! environment has no crates.io access), so the machine-readable
//! `BENCH_<tag>.json` reports and the chaos corpus are produced and
//! consumed through this small hand-rolled JSON layer instead. It supports
//! the full JSON data model with two deliberate simplifications: numbers are
//! `f64` (every value the schemas emit fits exactly: counts stay below 2^53)
//! and object keys keep their insertion order so documents diff cleanly.
//!
//! A schema type is declared once, with
//! [`json_struct!`](crate::json_struct) or
//! [`json_enum!`](crate::json_enum): its field list *is* its schema. The
//! macro emits the type and generates
//! `to_json` (fields in list order) and `from_json` (every field required
//! unless the list gives it a default, type- and range-checked through
//! [`JsonField`], errors naming the field). Rules across fields (a version
//! gate, a probability range) are written by hand after the generated
//! parse.

use std::fmt::Write as _;

/// A value with a JSON form: a field of a
/// [`json_struct!`](crate::json_struct) or [`json_enum!`](crate::json_enum)
/// type, or such a type itself.
pub trait JsonField: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Reads the value back, checking its JSON type and its range; the error
    /// says what was expected.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl JsonField for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    /// A non-negative integer up to 2^53, the range an `f64` holds exactly.
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
                Ok(*n as u64)
            }
            _ => Err("expected an integer".into()),
        }
    }
}

macro_rules! narrow_json_int {
    ($($ty:ty),+) => {$(
        impl JsonField for $ty {
            fn to_json(&self) -> Json {
                u64::from(*self).to_json()
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                let n = u64::from_json(v)?;
                <$ty>::try_from(n).map_err(|_| format!("{n} does not fit in {}", stringify!($ty)))
            }
        }
    )+};
}

narrow_json_int!(u16, u32);

impl JsonField for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(n) => Ok(*n),
            _ => Err("expected a number".into()),
        }
    }
}

impl JsonField for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("expected a string".into()),
        }
    }
}

/// An array.
impl<T: JsonField> JsonField for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Arr(items) = v else {
            return Err("expected an array".into());
        };
        let item = |(i, item)| T::from_json(item).map_err(|e| format!("item {i}: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// An object of string values, its keys in order.
impl JsonField for Vec<(String, String)> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err("expected an object".into());
        };
        let field = |(k, v): &(String, Json)| {
            Ok((
                k.clone(),
                String::from_json(v).map_err(|e| format!("'{k}': {e}"))?,
            ))
        };
        fields.iter().map(field).collect()
    }
}

/// Reads field `name` of the object `v`, or `default` if it is absent and
/// has one; the error names the field.
pub fn field<T: JsonField>(v: &Json, name: &str, default: Option<T>) -> Result<T, String> {
    let Json::Obj(_) = v else {
        return Err("expected an object".into());
    };
    match (v.get(name), default) {
        (Some(value), _) => T::from_json(value).map_err(|e| format!("field '{name}': {e}")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("missing field '{name}'")),
    }
}

/// Declares a struct from its field list and generates its JSON form, so a
/// field is written once.
///
/// Each field is `pub name: Type` with its doc comments, `Type` a
/// [`JsonField`]; the struct is emitted as written, attributes and derives
/// included. `to_json` is an object of the fields in list order, each under
/// its own name. `from_json` reads each field by name, type- and
/// range-checked; a missing field is an error unless the list gives it a
/// default, `pub name: Type = expr,`. Keys the list does not name are
/// ignored. The struct is also a [`JsonField`], so it nests.
#[macro_export]
macro_rules! json_struct {
    (@default) => {
        None
    };
    (@default $default:expr) => {
        Some($default)
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* pub $field:ident: $ty:ty $(= $default:expr)?,)+
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* pub $field: $ty,)+
        }

        impl $name {
            /// The value as a JSON object, its fields in declaration order.
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $((stringify!($field), $crate::json::JsonField::to_json(&self.$field)),)+
                ])
            }

            /// Reads the value from a JSON object; the error names the field
            /// that is missing or malformed.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                Ok($name {
                    $($field: $crate::json::field(
                        v,
                        stringify!($field),
                        $crate::json_struct!(@default $($default)?),
                    )?,)+
                })
            }
        }

        impl $crate::json::JsonField for $name {
            fn to_json(&self) -> $crate::json::Json {
                $name::to_json(self)
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                $name::from_json(v)
            }
        }
    };
}

/// Declares an enum from its variant list and generates its JSON form, so a
/// variant is written once.
///
/// Each variant is `"op" => Variant { field: Type, … }` (or `"op" =>
/// Variant` with no fields), with its doc comments; the enum is emitted as
/// written. `to_json` is an object that leads with `"op": "<op>"`, then the
/// variant's fields in list order. `from_json` picks the variant by `op`
/// and reads its fields as [`json_struct!`](crate::json_struct) does; an op
/// the list does not name is an error naming it.
#[macro_export]
macro_rules! json_enum {
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$variant_attr:meta])*
                $op:literal => $variant:ident $({
                    $($(#[$field_attr:meta])* $field:ident: $ty:ty,)+
                })?,
            )+
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$variant_attr])* $variant $({ $($(#[$field_attr])* $field: $ty,)+ })?,)+
        }

        impl $name {
            /// The value as a JSON object: `"op"`, then the variant's fields
            /// in declaration order.
            pub fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($name::$variant $({ $($field),+ })? => $crate::json::Json::obj(vec![
                        ("op", $crate::json::Json::Str($op.into())),
                        $($((stringify!($field), $crate::json::JsonField::to_json($field)),)+)?
                    ]),)+
                }
            }

            /// Reads the value from a JSON object; the error names the
            /// unknown op, or the field that is missing or malformed.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                let op: String = $crate::json::field(v, "op", None)?;
                match op.as_str() {
                    $($op => Ok($name::$variant $({
                        $($field: $crate::json::field(v, stringify!($field), None)?,)+
                    })?),)+
                    other => Err(format!("unknown op '{other}'")),
                }
            }
        }

        impl $crate::json::JsonField for $name {
            fn to_json(&self) -> $crate::json::Json {
                $name::to_json(self)
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                $name::from_json(v)
            }
        }
    };
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`]: a message plus the byte offset at
/// which parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (exactly one value plus trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the schema validator rejects them upstream,
        // but never emit invalid JSON regardless.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007199254740992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the bench
                            // schema; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::Str("fig08".into())),
            ("tps", Json::Num(12345.5)),
            (
                "tags",
                Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"fig08","tps":12345.5,"tags":[1,true,null]}"#
        );
        assert!(v.pretty().contains("\n  \"name\": \"fig08\""));
    }

    #[test]
    fn parses_what_it_renders() {
        let v = Json::obj(vec![
            ("s", Json::Str("a \"quoted\" line\nwith\ttabs\\".into())),
            ("n", Json::Num(-0.25)),
            ("i", 9_007_199_254_740_991u64.to_json()),
            (
                "arr",
                Json::Arr(vec![Json::Obj(Vec::new()), Json::Arr(Vec::new())]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parses_hand_written_documents() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5e1 , "xA" ] , "b" : { "c" : false } } "#).unwrap();
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!("'a' is not an array: {v:?}")
        };
        assert_eq!(a[1..], [Json::Num(25.0), Json::Str("xA".into())]);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "\"unterminated", "1 2", "tru"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(u64::from_json(&Json::Num(3.0)), Ok(3));
        assert!(u64::from_json(&Json::Num(3.5)).is_err());
        assert!(u64::from_json(&Json::Num(-1.0)).is_err());
    }
}
