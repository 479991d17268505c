//! The workspace's one JSON codec: a value tree, a writer, a reader, and
//! the [`ToJson`]/[`FromJson`] traits the persisted and printed types
//! implement by hand (DESIGN.md §JSON codec lists them).
//!
//! Two rules set it apart from a general-purpose codec:
//!
//! * **Integers are exact.** A number lexeme without `.`/`e` is kept as an
//!   integer covering `i64::MIN..=u64::MAX` and is never routed through
//!   `f64`, so 64-bit fingerprints, fix ids and CRCs survive. Floats are
//!   written with the shortest digits that read back to the same bits and
//!   always carry a `.` or an exponent, so the two never mix.
//! * **Non-finite floats round-trip.** JSON has no NaN or infinity; they
//!   are written as the strings `"NaN"`, `"inf"` and `"-inf"`, which
//!   `f64::from_json` accepts.
//!
//! The reader is for untrusted bytes: every failure is a [`JsonError`],
//! nesting is bounded, and nothing is allocated from a length the input
//! declares.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in insertion order: a document is written the way it was
    /// built, which keeps encoded bytes deterministic.
    Obj(Vec<(String, Json)>),
}

/// Why a document failed to parse or to decode into a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn expected(what: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Int(_) => "an integer",
        Json::Float(_) => "a float",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    JsonError(format!("expected {what}, found {kind}"))
}

/// Deepest nesting the reader follows; deeper input is an error, not a
/// stack overflow.
const MAX_DEPTH: usize = 128;

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `get`, with a missing key (or a non-object) as a decode error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            other => Err(expected("an object", other)),
        }
    }

    /// Decode the field `key` as a `T`.
    pub fn take<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.field(key)?).map_err(|e| JsonError(format!("{key}: {}", e.0)))
    }

    /// An enum value: `"Name"` for a unit variant, `{"Name": payload}`
    /// otherwise. Returns the name and the payload (`Null` for a unit).
    pub fn variant(&self) -> Result<(&str, &Json), JsonError> {
        match self {
            Json::Str(name) => Ok((name, &Json::Null)),
            Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
            other => Err(expected("an enum variant", other)),
        }
    }

    /// `{"name": payload}`, the encoding [`Json::variant`] reads back.
    pub fn tagged(name: &str, payload: Json) -> Json {
        Json::Obj(vec![(name.to_string(), payload)])
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(expected("a string", other)),
        }
    }

    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(expected("an array", other)),
        }
    }

    /// Indented two spaces per level, one element per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) if x.is_nan() => out.push_str("\"NaN\""),
            Json::Float(x) if x.is_infinite() => {
                out.push_str(if *x > 0.0 { "\"inf\"" } else { "\"-inf\"" })
            }
            // `{:?}` is the shortest round-trip form and keeps a `.0` or an
            // exponent on integral values.
            Json::Float(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, "[]", items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(fields) => write_seq(out, indent, "{}", fields, |out, (k, v), inner| {
                write_str(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner)
            }),
        }
    }

    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Compact: no whitespace at all.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `items` between the two `brackets`, comma-separated; with an `indent`
/// depth, one per line at the next depth and the closer back at this one.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(d) = depth.filter(|_| !items.is_empty()) {
            out.push('\n');
            for _ in 0..d {
                out.push_str("  ");
            }
        }
    };
    let inner = indent.map(|d| d + 1);
    out.push_str(&brackets[..1]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    newline(out, indent);
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
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
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let field = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.err("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                self.seq("}", field).map(Json::Obj)
            }
            Some(b'[') => {
                self.pos += 1;
                self.seq("]", |p| p.value(depth + 1)).map(Json::Arr)
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => self.number(),
        }
    }

    /// Comma-separated items up to `close`; the opener is already consumed.
    fn seq<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or the closing bracket"));
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.src.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // The token is ASCII by construction.
        let token = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        let parsed = if token.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            token
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .map(Json::Float)
        } else {
            token
                .parse::<i128>()
                .ok()
                .filter(|i| (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(i))
                .map(Json::Int)
        };
        parsed.ok_or_else(|| {
            self.pos = start;
            self.err("expected a value")
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat("\"") {
            return Err(self.err("expected '\"'"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8")),
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate must be followed by a low one.
                            if (0xd800..0xdc00).contains(&code) && self.eat("\\u") {
                                let low = self.hex4()?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                }
                            }
                            char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                b => out.push(b),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed layer
// ---------------------------------------------------------------------------

pub trait ToJson {
    fn to_json(&self) -> Json;
}

pub trait FromJson: Sized {
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Compact encoding of `v`, as bytes.
pub fn to_vec<T: ToJson + ?Sized>(v: &T) -> Vec<u8> {
    v.to_json().to_string().into_bytes()
}

/// Parse `bytes` and decode a `T`.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError("invalid UTF-8".into()))?;
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(expected("a boolean", other)),
        }
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j {
                    Json::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        JsonError(format!("{i} does not fit {}", stringify!($t)))
                    }),
                    other => Err(expected("an integer", other)),
                }
            }
        }
    )*};
}
int_codec!(u8, u16, u32, u64, usize, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(expected("a number", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(str::to_string)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_array()?.iter().map(T::from_json).collect()
    }
}

/// An object, keys in the map's (sorted) order.
impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json()))
                .collect(),
        )
    }
}

macro_rules! tuple_codec {
    ($n:literal: $($t:ident $i:tt),*) => {
        impl<$($t: ToJson),*> ToJson for ($($t,)*) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$i.to_json()),*])
            }
        }

        impl<$($t: FromJson),*> FromJson for ($($t,)*) {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j.as_array()? {
                    items if items.len() == $n => Ok(($($t::from_json(&items[$i])?,)*)),
                    _ => Err(JsonError(format!("expected an array of {}", $n))),
                }
            }
        }
    };
}
tuple_codec!(2: A 0, B 1);
tuple_codec!(3: A 0, B 1, C 2);

/// Codec for a struct with named fields (an object, fields in the listed
/// order), a one-field tuple struct (its field's encoding) or a `tagged`
/// enum whose variants are `V { fields }` or `V(inner)` (`{"V": payload}`).
/// The field list is the persisted format, and it is checked: leaving a
/// field or a variant out is a compile error.
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let Self { $($field),* } = self;
                $crate::json_codec!(@enc { $($field),* })
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self { $($field: j.take(stringify!($field))?),* })
            }
        }
    };
    (newtype $ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $crate::json::FromJson::from_json(j).map($ty)
            }
        }
    };
    (tagged $ty:ident { $($variant:ident $body:tt),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {$(
                    $crate::json_codec!(@pat $ty $variant $body) => $crate::json::Json::tagged(
                        stringify!($variant),
                        $crate::json_codec!(@enc $body),
                    ),
                )*}
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let (tag, payload) = j.variant()?;
                $(if tag == stringify!($variant) {
                    return Ok($crate::json_codec!(@dec payload $ty $variant $body));
                })*
                Err($crate::json::JsonError(format!(
                    "unknown {} variant `{tag}`", stringify!($ty)
                )))
            }
        }
    };
    (@pat $ty:ident $variant:ident { $($field:ident),* }) => { $ty::$variant { $($field),* } };
    (@pat $ty:ident $variant:ident ( $inner:ident )) => { $ty::$variant($inner) };
    (@enc { $($field:ident),* }) => {
        $crate::json::Json::Obj(vec![$((
            stringify!($field).to_string(),
            $crate::json::ToJson::to_json($field),
        )),*])
    };
    (@enc ( $inner:ident )) => { $crate::json::ToJson::to_json($inner) };
    (@dec $p:ident $ty:ident $variant:ident { $($field:ident),* }) => {
        $ty::$variant { $($field: $p.take(stringify!($field))?),* }
    };
    (@dec $p:ident $ty:ident $variant:ident ( $inner:ident )) => {
        $ty::$variant($crate::json::FromJson::from_json($p)?)
    };
}

/// Build a [`Json`] tree from a literal: `json!({"k": expr, "o": {...},
/// "a": [x, y]})`. Values are any [`ToJson`] expression; keys are string
/// literals.
#[macro_export]
macro_rules! json {
    ({ $($body:tt)* }) => {
        $crate::json::Json::Obj($crate::json_fields!([] $($body)*))
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![$($crate::json::ToJson::to_json(&$item)),*])
    };
    (null) => { $crate::json::Json::Null };
    ($value:expr) => { $crate::json::ToJson::to_json(&$value) };
}

/// Munches `"key": value` pairs into the `[..]` accumulator, then expands
/// to one `vec![(key, json), ..]`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ([$($done:tt)*]) => { vec![$($done)*] };
    ([$($done:tt)*] $k:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_fields!([$($done)* ($k.to_string(), $crate::json!({ $($v)* })),] $($($rest)*)?)
    };
    ([$($done:tt)*] $k:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_fields!([$($done)* ($k.to_string(), $crate::json!([ $($v)* ])),] $($($rest)*)?)
    };
    ([$($done:tt)*] $k:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_fields!([$($done)* ($k.to_string(), $crate::json::Json::Null),] $($($rest)*)?)
    };
    ([$($done:tt)*] $k:literal : $v:expr , $($rest:tt)*) => {
        $crate::json_fields!([$($done)* ($k.to_string(), $crate::json!($v)),] $($rest)*)
    };
    ([$($done:tt)*] $k:literal : $v:expr) => {
        $crate::json_fields!([$($done)* ($k.to_string(), $crate::json!($v)),])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_exact_and_floats_keep_their_bits() {
        let doc = json!({
            "min": i64::MIN, "max": u64::MAX, "big": (1u64 << 53) + 1,
            "neg_zero": -0.0f64, "tiny": 5e-324f64, "one": 1.0f64,
            "nan": f64::NAN, "inf": f64::INFINITY, "ninf": f64::NEG_INFINITY,
        });
        let text = doc.to_string();
        assert!(text.contains("\"min\":-9223372036854775808"), "{text}");
        assert!(text.contains("\"max\":18446744073709551615"), "{text}");
        assert!(text.contains("\"one\":1.0"), "{text}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.take::<i64>("min").unwrap(), i64::MIN);
        assert_eq!(back.take::<u64>("max").unwrap(), u64::MAX);
        assert_eq!(back.take::<u64>("big").unwrap(), (1u64 << 53) + 1);
        assert_eq!(
            back.take::<f64>("neg_zero").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.take::<f64>("tiny").unwrap(), 5e-324);
        assert!(back.take::<f64>("nan").unwrap().is_nan());
        assert_eq!(back.take::<f64>("inf").unwrap(), f64::INFINITY);
        assert_eq!(back.take::<f64>("ninf").unwrap(), f64::NEG_INFINITY);
        // Out of the 64-bit range, or out of the target type's: typed errors.
        assert!(Json::parse("18446744073709551616").is_err());
        assert!(back.take::<i64>("max").is_err());
        assert!(back.take::<u32>("min").is_err());
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn strings_and_nesting_round_trip() {
        let s = "quote \" slash \\ nl \n tab \t bell \u{7} é 漢 🦀";
        let doc =
            json!({ "s": s, "arr": [1u8, 2u8], "none": Option::<u8>::None, "o": { "k": true } });
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert_eq!(
            Json::parse(r#""\ud83e\udd80 \u00e9 \/""#).unwrap(),
            Json::Str("🦀 é /".into())
        );
        assert_eq!(
            json!({ "a": [1u8], "e": Vec::<u8>::new() }).to_pretty(),
            "{\n  \"a\": [\n    1\n  ],\n  \"e\": []\n}"
        );
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"abc",
            "\"\\x\"",
            "\"\\ud800\"",
            "1 2",
            "-",
            "1.2.3",
            "[1 2]",
            "{\"a\":1,}",
            "\"a\nb\"",
            "\u{0}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(from_slice::<u8>(&[0xff, 0xfe]).is_err());
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let ok_depth = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok_depth).is_ok());
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: i64,
        tag: Option<String>,
        pair: (u32, bool),
    }
    json_codec!(struct Point { x, tag, pair });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot(Point),
        Line { from: i64, to: i64 },
    }
    json_codec!(tagged Shape { Dot(p), Line { from, to } });

    #[test]
    fn codec_macros_round_trip_and_name_the_failing_field() {
        let shapes = vec![
            Shape::Line { from: -1, to: 1 },
            Shape::Dot(Point {
                x: 0,
                tag: None,
                pair: (0, false),
            }),
        ];
        let text = shapes.to_json().to_string();
        assert!(
            text.starts_with(r#"[{"Line":{"from":-1,"to":1}},{"Dot":{"x":0,"#),
            "{text}"
        );
        assert_eq!(from_slice::<Vec<Shape>>(text.as_bytes()).unwrap(), shapes);
        assert!(from_slice::<Shape>(br#"{"Arc":{}}"#).is_err());
        assert!(from_slice::<Shape>(br#"{"Line":{"from":1}}"#).is_err());

        let p = Point {
            x: -3,
            tag: Some("t".into()),
            pair: (7, true),
        };
        assert_eq!(from_slice::<Point>(&to_vec(&p)).unwrap(), p);
        let e = from_slice::<Point>(br#"{"x":1,"tag":null,"pair":[1]}"#).unwrap_err();
        assert!(e.0.starts_with("pair:"), "{e}");
        let e = from_slice::<Point>(br#"{"x":1,"tag":null}"#).unwrap_err();
        assert!(e.0.contains("missing field `pair`"), "{e}");
        let (name, payload) = Json::tagged("Fix", json!(5u8))
            .variant()
            .map(|(n, p)| (n.to_string(), p.clone()))
            .unwrap();
        assert_eq!((name.as_str(), payload), ("Fix", Json::Int(5)));
    }
}
