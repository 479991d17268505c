//! Stable hashes of values: FNV-1a, and the projection key ML pair
//! predicates are memoized, filtered and joined by.
//!
//! [`pair_key`] is FNV-1a over each value's `Debug` rendering followed by
//! `\u{1}`. Blocking keys its filter and verdicts by it, and every snapshot
//! caches it per tuple ([`crate::ColumnSet::projection_keys`]), so its
//! bytes must never change.

use crate::value::Value;

/// FNV-1a 64-bit hash — stable across platforms/runs (we must not use
/// `DefaultHasher`, whose seed varies and would break reproducibility).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// FNV-1a fed piecewise. As a [`std::fmt::Write`] sink it hashes formatted
/// output without collecting it; the result equals [`fnv1a`] of the
/// concatenated bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Key of a value vector (a tuple's projection on an ML predicate's
/// attributes): FNV-1a of the values' `Debug` renderings, each followed by
/// `\u{1}`. The bytes are hashed as they are formatted, never collected.
pub fn pair_key(vs: &[Value]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::default();
    for v in vs {
        // the writer never fails
        let _ = write!(h, "{v:?}\u{1}");
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_hashes_the_debug_bytes_of_every_variant() {
        // the key as it was computed before it streamed: format, then hash
        let formatted = |vs: &[Value]| {
            let mut buf = String::new();
            for v in vs {
                buf.push_str(&format!("{v:?}\u{1}"));
            }
            fnv1a(buf.as_bytes())
        };
        let each = [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(1.5e300),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("plain"),
            Value::str("quote \" slash \\ tab \t nl \n \u{1} é 北 😀 \u{301}"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(-1),
            Value::Date(19_000),
        ];
        for v in &each {
            let vs = std::slice::from_ref(v);
            assert_eq!(pair_key(vs), formatted(vs), "{v:?}");
        }
        assert_eq!(pair_key(&each), formatted(&each));
        assert_eq!(pair_key(&[]), formatted(&[]));
        // the separator keeps ("ab", "c") apart from ("a", "bc")
        assert_ne!(
            pair_key(&[Value::str("ab"), Value::str("c")]),
            pair_key(&[Value::str("a"), Value::str("bc")])
        );
        // pinned bytes: the memo and filter keys of earlier builds
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
