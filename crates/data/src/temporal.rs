//! Temporal relations (paper §2.2).
//!
//! A temporal relation is `(D, T)` where `T` is a *partial* function
//! associating a timestamp `T(t[A])` with the `A`-attribute of a tuple `t`.
//! Different attributes of the same tuple may carry different timestamps
//! (they may come from different sources). When both `T(t1[A])` and
//! `T(t2[A])` are defined and `T(t2[A]) ≤ T(t1[A])`, then `t2 ⪯A t1` — the
//! chase seeds its `[A]⪯` orders (`Γ⪯`) from these.

use crate::ids::{AttrId, TupleId};
use rock_crystal::hash::FxHashMap;
use rock_crystal::json::{FromJson, Json, JsonError, ToJson};

/// Timestamp: seconds since the Unix epoch. Orderable; `Timestamp(0)` is a
/// valid early time (we never treat 0 as "missing" — missing means *absent
/// from the partial map*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

rock_crystal::json_codec!(newtype Timestamp);

impl Timestamp {
    pub fn from_days(days: i32) -> Self {
        Timestamp(i64::from(days) * 86_400)
    }
}

/// Partial per-cell timestamp function `T` for one relation.
///
/// Encoded as a *sorted* `[(tid, attr, ts), ...]` entry list rather
/// than a map: JSON cannot key objects by tuples, and the sort makes the
/// encoding deterministic — the chase checkpoints whole databases and
/// compares serialized repairs byte-for-byte across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellTimestamps {
    map: FxHashMap<(TupleId, AttrId), Timestamp>,
}

impl ToJson for CellTimestamps {
    fn to_json(&self) -> Json {
        let mut entries: Vec<(TupleId, AttrId, Timestamp)> =
            self.map.iter().map(|(&(t, a), &ts)| (t, a, ts)).collect();
        entries.sort_unstable_by_key(|&(t, a, _)| (t, a));
        entries.to_json()
    }
}

impl FromJson for CellTimestamps {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let entries = Vec::<(TupleId, AttrId, Timestamp)>::from_json(j)?;
        let map = entries.into_iter().map(|(t, a, ts)| ((t, a), ts)).collect();
        Ok(CellTimestamps { map })
    }
}

impl CellTimestamps {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `T(t[A]) = ts`.
    pub fn set(&mut self, tid: TupleId, attr: AttrId, ts: Timestamp) {
        self.map.insert((tid, attr), ts);
    }

    /// Look up `T(t[A])`; `None` when the partial function is undefined.
    pub fn get(&self, tid: TupleId, attr: AttrId) -> Option<Timestamp> {
        self.map.get(&(tid, attr)).copied()
    }

    /// Number of timestamped cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all `((tid, attr), ts)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, AttrId, Timestamp)> + '_ {
        self.map.iter().map(|(&(t, a), &ts)| (t, a, ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_function_semantics() {
        let mut t = CellTimestamps::new();
        assert!(t.is_empty());
        t.set(TupleId(0), AttrId(1), Timestamp(100));
        assert_eq!(t.get(TupleId(0), AttrId(1)), Some(Timestamp(100)));
        assert_eq!(t.get(TupleId(0), AttrId(2)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_days() {
        assert_eq!(Timestamp::from_days(1), Timestamp(86_400));
    }

    #[test]
    fn json_round_trip_is_sorted_and_lossless() {
        let mut t = CellTimestamps::new();
        t.set(TupleId(5), AttrId(1), Timestamp(50));
        t.set(TupleId(0), AttrId(2), Timestamp(10));
        t.set(TupleId(0), AttrId(1), Timestamp(99));
        let js = t.to_json().to_string();
        // deterministic: entries sorted by (tid, attr)
        assert_eq!(js, "[[0,1,99],[0,2,10],[5,1,50]]");
        let back: CellTimestamps = rock_crystal::json::from_slice(js.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(TupleId(5), AttrId(1)), Some(Timestamp(50)));
        assert_eq!(back.get(TupleId(0), AttrId(2)), Some(Timestamp(10)));
    }
}
