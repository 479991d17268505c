//! Stand-in for `serde_json` 1.x on top of the compile-only `serde`
//! stand-in: the entry points exist and every one of them returns `Err`.

use std::convert::Infallible;
use std::fmt;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Map<K, V> = std::collections::BTreeMap<K, V>;

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

impl Serialize for Value {
    fn serialize<S: serde::Serializer>(&self, _: S) -> std::result::Result<S::Ok, S::Error> {
        Err(<S::Error as serde::ser::Error>::custom(serde::UNSUPPORTED))
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: serde::Deserializer<'de>>(_: D) -> std::result::Result<Self, D::Error> {
        Err(<D::Error as serde::de::Error>::custom(serde::UNSUPPORTED))
    }
}

/// Has no methods, so no impl can produce its `Ok`.
struct NoSerializer;

impl serde::Serializer for NoSerializer {
    type Ok = Infallible;
    type Error = Error;
}

struct NoDeserializer;

impl serde::Deserializer<'_> for NoDeserializer {
    type Error = Error;
}

fn encode<T: ?Sized + Serialize, R>(value: &T) -> Result<R> {
    value.serialize(NoSerializer).map(|never| match never {})
}

pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    encode(value)
}

pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    encode(value)
}

pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    encode(value)
}

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    encode(&value)
}

pub fn from_str<T: DeserializeOwned>(_: &str) -> Result<T> {
    T::deserialize(NoDeserializer)
}

pub fn from_slice<T: DeserializeOwned>(_: &[u8]) -> Result<T> {
    T::deserialize(NoDeserializer)
}

/// Accepts any `json!` body and panics with the stand-in's message when
/// evaluated: building a `Value` from Rust expressions needs `to_value`,
/// which cannot succeed here.
#[macro_export]
macro_rules! json {
    ($($body:tt)*) => {
        $crate::to_value($crate::Value::Null).expect("json! in the hermetic benchmark build")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Deserialize, Debug)]
    struct Plain {
        #[serde(skip)]
        _a: u32,
    }

    // Only the derives are under test; the fields are never read.
    #[allow(dead_code)]
    #[derive(Serialize)]
    enum Borrowing<'a, T: Clone = u8, const N: usize = 1>
    where
        T: 'a,
    {
        _One(&'a [T; N]),
    }

    #[derive(Serialize, Deserialize)]
    struct Tuple<T>(T)
    where
        T: Copy;

    #[test]
    fn every_entry_point_fails_with_the_typed_error() {
        let p = Plain { _a: 1 };
        assert_eq!(to_string(&p).unwrap_err().to_string(), serde::UNSUPPORTED);
        assert!(to_vec(&vec![(1u32, 2u32, 3u64)]).is_err());
        assert!(to_string_pretty(&vec![Value::Null]).is_err());
        assert!(to_string(&Borrowing::<u8, 1>::_One(&[0])).is_err());
        assert!(to_string(&Tuple(1u8)).is_err());
        assert!(from_str::<Plain>("{}").is_err());
        assert!(from_slice::<Tuple<u8>>(b"[1]").is_err());
        assert!(from_str::<Vec<(u32, u32, u64)>>("[]").is_err());
    }

    #[test]
    #[should_panic(expected = "json! in the hermetic benchmark build")]
    fn json_macro_panics_instead_of_inventing_a_value() {
        let _ = json!({ "a": [1, 2, { "b": null }] });
    }
}
