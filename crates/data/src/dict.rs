//! Append-only string dictionaries for the columnar plane.
//!
//! String columns store dense `u32` codes; the payload `Arc<str>`s live in
//! one per-column [`Dictionary`]. Interning is append-only within a column
//! snapshot: updating a cell may strand the old code. Once a dictionary
//! holds more than twice as many codes as its relation has slots, the
//! owning [`crate::column::ColumnSet`] is rebuilt, which re-encodes the
//! dictionary to the live value set — tested in
//! `tests/columnar_equivalence.rs` and `tests/column_patches.rs`.

use rock_crystal::hash::FxHashMap;
use std::sync::Arc;

/// A per-column string dictionary: code ↔ interned payload.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Intern a string, returning its code. Existing payloads share the
    /// caller's `Arc` allocation, new payloads clone the handle.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(code) = self.lookup.get(s.as_ref()) {
            return *code;
        }
        let code = self.values.len() as u32;
        self.values.push(Arc::clone(s));
        self.lookup.insert(Arc::clone(s), code);
        code
    }

    /// Code of an already-interned string, if any. Equality kernels use
    /// this: a constant that never reaches the dictionary matches nothing.
    pub fn code(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Payload of a code. Codes come from [`Dictionary::intern`] on the same
    /// dictionary, so the index is always in range.
    #[inline]
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Iterate `(code, payload)` pairs — the per-code satisfaction tables
    /// of the string kernels evaluate each distinct value exactly once.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Arc<str>)> {
        self.values.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// Approximate heap footprint (payload bytes + tables), for the
    /// bytes-touched accounting of the columnar bench panel.
    pub fn heap_bytes(&self) -> usize {
        let payloads: usize = self.values.iter().map(|s| s.len()).sum();
        payloads
            + self.values.len() * std::mem::size_of::<Arc<str>>()
            + self.lookup.len() * (std::mem::size_of::<Arc<str>>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a: Arc<str> = Arc::from("alpha");
        let b: Arc<str> = Arc::from("beta");
        assert_eq!(d.intern(&a), 0);
        assert_eq!(d.intern(&b), 1);
        assert_eq!(d.intern(&Arc::from("alpha")), 0, "re-intern reuses code");
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(1).as_ref(), "beta");
        assert_eq!(d.code("alpha"), Some(0));
        assert_eq!(d.code("missing"), None);
    }

    #[test]
    fn interned_payloads_share_allocation() {
        let mut d = Dictionary::new();
        let a: Arc<str> = Arc::from("shared");
        d.intern(&a);
        assert!(Arc::ptr_eq(
            d.value(0),
            &d.lookup.get_key_value("shared").unwrap().0.clone()
        ));
    }

    #[test]
    fn iter_yields_codes_in_order() {
        let mut d = Dictionary::new();
        for s in ["x", "y", "z"] {
            d.intern(&Arc::from(s));
        }
        let got: Vec<(u32, String)> = d.iter().map(|(c, s)| (c, s.to_string())).collect();
        assert_eq!(got, vec![(0, "x".into()), (1, "y".into()), (2, "z".into())]);
    }
}
