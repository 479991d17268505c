//! Typed attribute values with a total order.
//!
//! REE++ predicates compare attribute values with `{=, ≠, <, ≤, >, ≥}`
//! (paper §2.1), so values need a total order; `Null` sorts lowest and is
//! never equal to anything under *SQL-style* comparison but **is** equal to
//! itself under the structural `Eq` used by indexes. The chase distinguishes
//! the two via [`Value::sql_eq`].

use rock_crystal::json::{FromJson, Json, JsonError, ToJson};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// Kept small (24 bytes on x86-64): large payloads (`Str`) are behind an
/// `Arc`, so cloning a [`Value`] never allocates.
///
/// ```
/// use rock_data::Value;
///
/// // SQL-style comparison: null equals nothing, not even itself…
/// assert!(!Value::Null.sql_eq(&Value::Null));
/// // …but the structural order is total (indexes need it)
/// assert!(Value::Null < Value::Int(0));
/// assert_eq!(Value::Int(3), Value::Float(3.0));
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing value. MI rules (`null(t[B]) → …`, paper §2.3) target these.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float; ordered by `f64::total_cmp`.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Date as days since the Unix epoch (compact; formats as YYYY-MM-DD).
    Date(i32),
}

/// Null, integers, finite floats, strings and booleans are the matching
/// JSON scalar (the codec keeps integer and float lexemes apart); dates and
/// non-finite floats are tagged: `{"date": days}`, `{"float": "NaN"}`.
impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Int(i) => i.to_json(),
            Value::Float(x) if x.is_finite() => Json::Float(*x),
            Value::Float(x) => Json::tagged("float", Json::Float(*x)),
            Value::Str(s) => Json::Str(s.to_string()),
            Value::Bool(b) => Json::Bool(*b),
            Value::Date(d) => Json::tagged("date", d.to_json()),
        }
    }
}

impl FromJson for Value {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(Value::Null),
            Json::Int(_) => i64::from_json(j).map(Value::Int),
            Json::Float(x) => Ok(Value::Float(*x)),
            Json::Str(s) => Ok(Value::str(s)),
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::Arr(_) | Json::Obj(_) => match j.variant()? {
                ("float", x) => f64::from_json(x).map(Value::Float),
                ("date", d) => i32::from_json(d).map(Value::Date),
                (tag, _) => Err(JsonError(format!("unknown value tag `{tag}`"))),
            },
        }
    }
}

impl Value {
    /// Build a string value (interning is handled by the database loader;
    /// this constructor is for ad-hoc values).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style equality: `Null` compares equal to nothing, including
    /// itself. Rule predicates `t.A = s.B` use this.
    #[inline]
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }

    /// SQL-style ordering: `None` when either side is `Null` or the types
    /// are incomparable; otherwise the total order restricted to non-null.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        if std::mem::discriminant(self) != std::mem::discriminant(other) {
            // Allow Int/Float cross-comparison; everything else is a type
            // error that simply never satisfies the predicate.
            if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
                return Some(a.total_cmp(&b));
            }
            return None;
        }
        Some(self.cmp(other))
    }

    /// Numeric view (Int, Float, Bool and Date coerce; Str parses if numeric).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Date(d) => Some(*d as f64),
            Value::Str(s) => s.parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// String view for textual values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render as a plain string for feature extraction / CSV output.
    /// `Null` renders as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            other => other.to_string(),
        }
    }

    /// Parse a CSV field into the given type; empty fields become `Null`.
    pub fn parse_as(raw: &str, ty: crate::schema::AttrType) -> Value {
        use crate::schema::AttrType;
        if raw.is_empty() || raw == "null" || raw == "NULL" {
            return Value::Null;
        }
        match ty {
            AttrType::Int => raw.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
            AttrType::Float => raw.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
            AttrType::Bool => match raw {
                "true" | "TRUE" | "1" => Value::Bool(true),
                "false" | "FALSE" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
            AttrType::Date => parse_date(raw).map(Value::Date).unwrap_or(Value::Null),
            AttrType::Str => Value::str(raw),
        }
    }
}

/// Days-since-epoch from `YYYY-MM-DD` (proleptic Gregorian, civil algorithm).
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.splitn(3, '-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// Civil-calendar day count (Howard Hinnant's algorithm).
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from((m + 9) % 12);
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = i64::from(z) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The one Int↔Float normalization used everywhere a mixed-type numeric
/// comparison happens: the row path ([`Value`]'s `Ord`, and through it
/// `sql_eq`/`sql_cmp`) and the columnar kernels
/// (`rock_data::ColumnSet::eval_const_op` / `eval_col_op_col`). Keeping it
/// in one place is what makes `Int(3) == Float(3.0)` hold identically in
/// both planes, so the row-store equivalence oracle can't silently diverge
/// on mixed-type columns.
#[inline]
pub fn cmp_int_float(a: i64, b: f64) -> Ordering {
    (a as f64).total_cmp(&b)
}

impl Ord for Value {
    /// Total order: Null < Bool < Int/Float (numeric, merged) < Date < Str.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Date(_) => 3,
                Str(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use Value::*;
        match self {
            Null => state.write_u8(0),
            Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            // Int and Float that are numerically equal must hash equally
            // (they compare equal under `cmp`).
            Int(i) => {
                state.write_u8(2);
                state.write_u64((*i as f64).to_bits());
            }
            Float(f) => {
                state.write_u8(2);
                state.write_u64(f.to_bits());
            }
            Date(d) => {
                state.write_u8(3);
                state.write_i32(*d);
            }
            Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => {
                let (y, m, dd) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint must hold whatever `parse_as` can produce: non-finite
    /// floats, the extremes of every integer width, and a float keeps its
    /// type (and sign of zero) instead of collapsing into an integer.
    #[test]
    fn json_codec_round_trips_every_edge_value_exactly() {
        use crate::schema::AttrType;
        let edge = vec![
            Value::Null,
            Value::parse_as("NaN", AttrType::Float),
            Value::parse_as("inf", AttrType::Float),
            Value::parse_as("-inf", AttrType::Float),
            Value::Float(-0.0),
            Value::Float(3.0),
            Value::Float(f64::MIN_POSITIVE),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int((1 << 53) + 1),
            Value::Date(i32::MIN),
            Value::Date(i32::MAX),
            Value::Bool(false),
            Value::str(""),
            Value::str("NaN"),
            Value::str("quote \" and \\ and \u{1} and 🦀"),
        ];
        assert!(matches!(edge[1], Value::Float(x) if x.is_nan()));
        let bytes = rock_crystal::json::to_vec(&edge);
        let back: Vec<Value> = rock_crystal::json::from_slice(&bytes).unwrap();
        assert_eq!(back.len(), edge.len());
        for (a, b) in edge.iter().zip(&back) {
            // `==` treats Int(3) and Float(3.0) alike; compare the variant
            // and the float bits too.
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{a:?}"
            );
            match (a, b) {
                (Value::Float(x), Value::Float(y)) if x.is_nan() => assert!(y.is_nan()),
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
        // u64::MAX is exact in the codec but no `Value` holds it: typed error.
        assert!(rock_crystal::json::from_slice::<Value>(b"18446744073709551615").is_err());
        assert!(rock_crystal::json::from_slice::<Value>(b"{\"int\":1}").is_err());
    }

    #[test]
    fn null_is_not_sql_equal_to_itself() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert_eq!(Value::Null, Value::Null); // structural
    }

    #[test]
    fn int_float_cross_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert_eq!(
            Value::Int(4).sql_cmp(&Value::Float(4.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn int_float_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn date_roundtrip() {
        for s in [
            "2020-12-18",
            "2021-11-11",
            "2023-08-12",
            "1970-01-01",
            "1969-12-31",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(Value::Date(d).to_string(), s);
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
    }

    #[test]
    fn date_ordering_matches_chronology() {
        let a = parse_date("2020-12-18").unwrap();
        let b = parse_date("2021-11-11").unwrap();
        assert!(Value::Date(a) < Value::Date(b));
    }

    #[test]
    fn parse_as_types() {
        use crate::schema::AttrType;
        assert_eq!(Value::parse_as("42", AttrType::Int), Value::Int(42));
        assert_eq!(Value::parse_as("", AttrType::Int), Value::Null);
        assert_eq!(Value::parse_as("x", AttrType::Int), Value::Null);
        assert_eq!(Value::parse_as("1.5", AttrType::Float), Value::Float(1.5));
        assert_eq!(Value::parse_as("true", AttrType::Bool), Value::Bool(true));
        assert_eq!(Value::parse_as("abc", AttrType::Str), Value::str("abc"));
    }

    #[test]
    fn render_null_is_empty() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(5).render(), "5");
    }

    #[test]
    fn total_order_across_kinds_is_consistent() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Float(0.5),
            Value::Int(7),
            Value::Date(10),
            Value::str("a"),
            Value::str("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn sql_cmp_incompatible_types_is_none() {
        assert_eq!(Value::str("x").sql_cmp(&Value::Date(1)), None);
        // numeric string vs int coerces
        assert_eq!(
            Value::str("5").sql_cmp(&Value::Int(5)),
            Some(Ordering::Equal)
        );
    }
}
