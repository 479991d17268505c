//! The columnar data plane: typed columns behind the row API.
//!
//! Every [`Relation`] can materialize a [`ColumnSet`] — one typed column
//! per attribute (`i64`/`f64`/date/bool dense vectors, dictionary-encoded
//! strings with `u32` codes), a null bitmap per column, and a live bitmap
//! (the tombstone complement) reusing [`Bitset`]. On top sit the
//! vectorized predicate kernels [`ColumnSet::eval_const_op`] and
//! [`ColumnSet::eval_col_op_col`]: they return per-slot satisfaction
//! bitsets that feed the same AND+popcount machinery as the discovery
//! cache, so constant and single-variable predicates scan contiguous
//! memory instead of chasing `Arc<str>` pointers through `Option<Tuple>`
//! rows.
//!
//! ## Semantics discipline
//!
//! The row path and the kernels must agree *exactly* (the row store is the
//! byte-identical equivalence oracle, `tests/columnar_equivalence.rs`).
//! Two mechanisms enforce that:
//!
//! * [`PredOp::eval`] is the **one** scalar comparison implementation —
//!   `rock_rees::CmpOp` delegates to it, and every kernel either reduces
//!   to it (per-dictionary-code tables, per-slot fallback) or to an
//!   [`Ordering`] produced by the same normalization the row path uses
//!   (notably [`crate::value::cmp_int_float`] for `Int ⋈ Float`, so
//!   `Int(3) = Float(3.0)` holds identically in both planes);
//! * cells whose value does not fit the column's physical type (dirty data
//!   carries injected type errors) are stored in a per-column `fallback`
//!   side map holding the exact [`Value`], and kernels re-evaluate those
//!   slots with the scalar semantics.
//!
//! ## Lifecycle
//!
//! The rows stay the source of truth; the `ColumnSet` is a versioned
//! cache ([`ColumnCache`]) rebuilt lazily on first use after a structural
//! mutation. Cell overwrites (`Relation::set_cell`, the chase's commit
//! write path) write through into the cached columns in place when the
//! snapshot is exclusively held, so a chase round does not pay a rebuild
//! per committed fix. String dictionaries are append-only within a
//! snapshot; a rebuild re-encodes them down to the live value set.

use crate::bitset::Bitset;
use crate::ids::AttrId;
use crate::relation::Relation;
use crate::schema::AttrType;
use crate::value::{cmp_int_float, Value};
use crate::Dictionary;
use rock_crystal::hash::FxHashMap;
use rock_crystal::sync::{Arc, AtomicU64, LockRank, Ordering as AtomicOrdering, RankedRwLock};
use std::cmp::Ordering;

/// A comparison operator with the storage layer's SQL-null semantics:
/// any comparison involving `Null` is false (even `≠`). This is the single
/// scalar comparison implementation both planes share — the rule
/// language's `CmpOp` delegates here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl PredOp {
    /// Scalar evaluation — the normative semantics.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            PredOp::Eq => a.sql_eq(b),
            PredOp::Neq => !a.is_null() && !b.is_null() && !a.sql_eq(b),
            _ => match a.sql_cmp(b) {
                None => false,
                Some(ord) => self.holds(ord),
            },
        }
    }

    /// Decide from an [`Ordering`]. Only sound when the ordering was
    /// produced by the same comparison the scalar path would use on two
    /// non-null operands — the typed kernel loops guarantee that by
    /// construction (same physical type, or `Int ⋈ Float` through
    /// [`cmp_int_float`]).
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        use Ordering::*;
        matches!(
            (self, ord),
            (PredOp::Eq, Equal)
                | (PredOp::Neq, Less)
                | (PredOp::Neq, Greater)
                | (PredOp::Lt, Less)
                | (PredOp::Le, Less)
                | (PredOp::Le, Equal)
                | (PredOp::Gt, Greater)
                | (PredOp::Ge, Greater)
                | (PredOp::Ge, Equal)
        )
    }
}

/// Dense typed storage of one column. The vector holds one element per
/// *slot* (live or tombstoned); null/fallback slots hold a default filler
/// that is never decoded.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Days since epoch, as in [`Value::Date`].
    Date(Vec<i32>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: `codes[slot]` indexes `dict`.
    Str {
        codes: Vec<u32>,
        dict: Dictionary,
    },
}

impl ColumnData {
    fn for_type(ty: AttrType, slots: usize) -> ColumnData {
        match ty {
            AttrType::Int => ColumnData::Int64(Vec::with_capacity(slots)),
            AttrType::Float => ColumnData::Float64(Vec::with_capacity(slots)),
            AttrType::Date => ColumnData::Date(Vec::with_capacity(slots)),
            AttrType::Bool => ColumnData::Bool(Vec::with_capacity(slots)),
            AttrType::Str => ColumnData::Str {
                codes: Vec::with_capacity(slots),
                dict: Dictionary::new(),
            },
        }
    }

    fn push_default(&mut self) {
        match self {
            ColumnData::Int64(xs) => xs.push(0),
            ColumnData::Float64(xs) => xs.push(0.0),
            ColumnData::Date(xs) => xs.push(0),
            ColumnData::Bool(xs) => xs.push(false),
            ColumnData::Str { codes, .. } => codes.push(0),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int64(xs) => xs.capacity() * 8,
            ColumnData::Float64(xs) => xs.capacity() * 8,
            ColumnData::Date(xs) => xs.capacity() * 4,
            ColumnData::Bool(xs) => xs.capacity(),
            ColumnData::Str { codes, dict } => codes.capacity() * 4 + dict.heap_bytes(),
        }
    }
}

/// One typed column: dense data + null bitmap + the hetero-typed side map.
#[derive(Debug, Clone)]
pub struct Column {
    pub data: ColumnData,
    /// Bit set ⇔ the cell is SQL `Null` (tombstoned slots are also marked
    /// null so they can never satisfy a kernel predicate).
    pub nulls: Bitset,
    /// Cells whose value does not match the column's physical type —
    /// injected type errors. Keyed by slot; kernels re-evaluate these with
    /// the exact scalar semantics.
    fallback: FxHashMap<u32, Value>,
}

impl Column {
    fn new(ty: AttrType, slots: usize) -> Column {
        Column {
            data: ColumnData::for_type(ty, slots),
            nulls: Bitset::new(slots),
            fallback: FxHashMap::default(),
        }
    }

    fn push_value(&mut self, slot: usize, v: &Value) {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.nulls.set(slot);
                self.data.push_default();
            }
            (ColumnData::Int64(xs), Value::Int(i)) => xs.push(*i),
            (ColumnData::Float64(xs), Value::Float(f)) => xs.push(*f),
            (ColumnData::Date(xs), Value::Date(d)) => xs.push(*d),
            (ColumnData::Bool(xs), Value::Bool(b)) => xs.push(*b),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => codes.push(dict.intern(s)),
            _ => {
                self.fallback.insert(slot as u32, v.clone());
                self.data.push_default();
            }
        }
    }

    /// Overwrite one cell in place (the `set_cell` write-through path).
    fn set_value(&mut self, slot: usize, v: &Value) {
        self.fallback.remove(&(slot as u32));
        self.nulls.unset(slot);
        match (&mut self.data, v) {
            (_, Value::Null) => self.nulls.set(slot),
            (ColumnData::Int64(xs), Value::Int(i)) => xs[slot] = *i,
            (ColumnData::Float64(xs), Value::Float(f)) => xs[slot] = *f,
            (ColumnData::Date(xs), Value::Date(d)) => xs[slot] = *d,
            (ColumnData::Bool(xs), Value::Bool(b)) => xs[slot] = *b,
            // Append-only interning: the old code may go stranded until the
            // next full rebuild re-encodes the dictionary.
            (ColumnData::Str { codes, dict }, Value::Str(s)) => codes[slot] = dict.intern(s),
            _ => {
                self.fallback.insert(slot as u32, v.clone());
            }
        }
    }

    /// Materialize the exact [`Value`] stored at a slot.
    pub fn value_at(&self, slot: usize) -> Value {
        if self.nulls.get(slot) {
            return Value::Null;
        }
        if let Some(v) = self.fallback.get(&(slot as u32)) {
            return v.clone();
        }
        match &self.data {
            ColumnData::Int64(xs) => Value::Int(xs[slot]),
            ColumnData::Float64(xs) => Value::Float(xs[slot]),
            ColumnData::Date(xs) => Value::Date(xs[slot]),
            ColumnData::Bool(xs) => Value::Bool(xs[slot]),
            ColumnData::Str { codes, dict } => Value::Str(Arc::clone(dict.value(codes[slot]))),
        }
    }

    /// Number of hetero-typed cells parked in the side map.
    pub fn fallback_len(&self) -> usize {
        self.fallback.len()
    }

    /// Set `out[i]` for every non-null slot where `pred(i)` holds.
    fn fill(&self, out: &mut Bitset, pred: impl Fn(usize) -> bool) {
        for i in 0..out.len() {
            if !self.nulls.get(i) && pred(i) {
                out.set(i);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
            + self.nulls.heap_bytes()
            + self.fallback.len() * (4 + std::mem::size_of::<Value>())
    }
}

/// Set `out[i]` for every slot non-null in both columns where `pred(i)`.
fn fill2(a: &Column, b: &Column, out: &mut Bitset, pred: impl Fn(usize) -> bool) {
    for i in 0..out.len() {
        if !a.nulls.get(i) && !b.nulls.get(i) && pred(i) {
            out.set(i);
        }
    }
}

/// The columnar image of one relation: a live bitmap plus one [`Column`]
/// per attribute, all indexed by slot (= `TupleId`, which stays stable
/// across deletions — tombstoned slots simply have their live bit clear
/// and all cells marked null).
#[derive(Debug, Clone)]
pub struct ColumnSet {
    slots: usize,
    live: Bitset,
    columns: Vec<Column>,
}

impl ColumnSet {
    /// Encode a relation. Cost is one pass over the rows; the result is
    /// cached per relation by [`ColumnCache`].
    pub fn from_relation(rel: &Relation) -> ColumnSet {
        let slots = rel.capacity();
        let mut live = Bitset::new(slots);
        let mut columns: Vec<Column> = rel
            .schema
            .attrs
            .iter()
            .map(|a| Column::new(a.ty, slots))
            .collect();
        for slot in 0..slots {
            match rel.get(crate::ids::TupleId(slot as u32)) {
                Some(t) => {
                    live.set(slot);
                    for (i, col) in columns.iter_mut().enumerate() {
                        col.push_value(slot, t.get(AttrId(i as u16)));
                    }
                }
                None => {
                    for col in columns.iter_mut() {
                        col.nulls.set(slot);
                        col.data.push_default();
                    }
                }
            }
        }
        ColumnSet {
            slots,
            live,
            columns,
        }
    }

    /// Total slots (live + tombstoned); the length of every kernel bitset.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The tombstone-complement bitmap.
    pub fn live(&self) -> &Bitset {
        &self.live
    }

    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.index()]
    }

    /// Materialize the exact row value of one cell.
    pub fn value_at(&self, attr: AttrId, slot: usize) -> Value {
        self.columns[attr.index()].value_at(slot)
    }

    /// Satisfaction bitset of `null(t.A)` over live tuples.
    pub fn null_mask(&self, attr: AttrId) -> Bitset {
        self.columns[attr.index()].nulls.and(&self.live)
    }

    fn set_cell(&mut self, slot: usize, attr: AttrId, v: &Value) {
        self.columns[attr.index()].set_value(slot, v);
    }

    /// Vectorized `t.A ⊕ const`: one bit per slot, set iff the scalar
    /// semantics would accept. Tombstoned slots are never set (their cells
    /// are marked null, and null satisfies no operator).
    pub fn eval_const_op(&self, attr: AttrId, op: PredOp, v: &Value) -> Bitset {
        let col = &self.columns[attr.index()];
        let mut out = Bitset::new(self.slots);
        if v.is_null() {
            return out; // null const satisfies nothing, incl. ≠
        }
        match (&col.data, v) {
            (ColumnData::Int64(xs), Value::Int(c)) => {
                col.fill(&mut out, |i| op.holds(xs[i].cmp(c)));
            }
            (ColumnData::Int64(xs), Value::Float(c)) => {
                col.fill(&mut out, |i| op.holds(cmp_int_float(xs[i], *c)));
            }
            (ColumnData::Float64(xs), Value::Float(c)) => {
                col.fill(&mut out, |i| op.holds(xs[i].total_cmp(c)));
            }
            (ColumnData::Float64(xs), Value::Int(c)) => {
                col.fill(&mut out, |i| op.holds(cmp_int_float(*c, xs[i]).reverse()));
            }
            (ColumnData::Date(xs), Value::Date(c)) => {
                col.fill(&mut out, |i| op.holds(xs[i].cmp(c)));
            }
            (ColumnData::Bool(xs), Value::Bool(c)) => {
                col.fill(&mut out, |i| op.holds(xs[i].cmp(c)));
            }
            (ColumnData::Str { codes, dict }, _) => {
                // Per-code satisfaction table: each distinct string is
                // evaluated once with the shared scalar semantics (this
                // also covers numeric-string coercion under range ops),
                // then the scan compares u32 codes only. For `=`/`≠`
                // against a string constant this degenerates to code
                // equality, since the dictionary holds each payload once.
                let table: Vec<bool> = dict
                    .iter()
                    .map(|(_, s)| op.eval(&Value::Str(Arc::clone(s)), v))
                    .collect();
                col.fill(&mut out, |i| {
                    let c = codes[i] as usize;
                    c < table.len() && table[c]
                });
            }
            // remaining cross-type combos (e.g. int column vs date const)
            // are rare: exact per-slot scalar evaluation
            _ => col.fill(&mut out, |i| op.eval(&col.value_at(i), v)),
        }
        // hetero-typed cells always get the exact scalar verdict
        for (slot, cell) in &col.fallback {
            let s = *slot as usize;
            if op.eval(cell, v) {
                out.set(s);
            } else {
                out.unset(s);
            }
        }
        out
    }

    /// Vectorized `t.A ⊕ t.B` over one relation (the single-variable
    /// two-attribute prefilter). String equality compares dictionary codes
    /// through a one-shot cross-dictionary translation table.
    pub fn eval_col_op_col(&self, lattr: AttrId, op: PredOp, rattr: AttrId) -> Bitset {
        let a = &self.columns[lattr.index()];
        let b = &self.columns[rattr.index()];
        let mut out = Bitset::new(self.slots);
        match (&a.data, &b.data) {
            (ColumnData::Int64(xs), ColumnData::Int64(ys)) => {
                fill2(a, b, &mut out, |i| op.holds(xs[i].cmp(&ys[i])));
            }
            (ColumnData::Int64(xs), ColumnData::Float64(ys)) => {
                fill2(a, b, &mut out, |i| op.holds(cmp_int_float(xs[i], ys[i])));
            }
            (ColumnData::Float64(xs), ColumnData::Int64(ys)) => {
                fill2(a, b, &mut out, |i| {
                    op.holds(cmp_int_float(ys[i], xs[i]).reverse())
                });
            }
            (ColumnData::Float64(xs), ColumnData::Float64(ys)) => {
                fill2(a, b, &mut out, |i| op.holds(xs[i].total_cmp(&ys[i])));
            }
            (ColumnData::Date(xs), ColumnData::Date(ys)) => {
                fill2(a, b, &mut out, |i| op.holds(xs[i].cmp(&ys[i])));
            }
            (ColumnData::Bool(xs), ColumnData::Bool(ys)) => {
                fill2(a, b, &mut out, |i| op.holds(xs[i].cmp(&ys[i])));
            }
            (
                ColumnData::Str {
                    codes: ac,
                    dict: ad,
                },
                ColumnData::Str {
                    codes: bc,
                    dict: bd,
                },
            ) if matches!(op, PredOp::Eq | PredOp::Neq) => {
                // code translation: left code -> right code of the same
                // payload (None when the payload is absent on the right)
                let trans: Vec<Option<u32>> = ad.iter().map(|(_, s)| bd.code(s)).collect();
                fill2(a, b, &mut out, |i| {
                    let eq = trans.get(ac[i] as usize).is_some_and(|t| *t == Some(bc[i]));
                    op.holds(if eq { Ordering::Equal } else { Ordering::Less })
                });
            }
            // lexicographic string ranges and cross-type columns: exact
            // per-slot scalar evaluation
            _ => fill2(a, b, &mut out, |i| op.eval(&a.value_at(i), &b.value_at(i))),
        }
        for slot in a.fallback.keys().chain(b.fallback.keys()) {
            let s = *slot as usize;
            if op.eval(&a.value_at(s), &b.value_at(s)) {
                out.set(s);
            } else {
                out.unset(s);
            }
        }
        out
    }

    /// Heap footprint of the columnar image (bytes-touched accounting for
    /// the bench panel).
    pub fn heap_bytes(&self) -> usize {
        self.live.heap_bytes() + self.columns.iter().map(Column::heap_bytes).sum::<usize>()
    }
}

/// Approximate heap footprint of the row image of a relation — the
/// row-vs-column bytes comparison of the `figures -- columnar` panel.
pub fn row_heap_bytes(rel: &Relation) -> usize {
    let mut bytes = rel.capacity() * std::mem::size_of::<Option<crate::tuple::Tuple>>();
    for t in rel.iter() {
        bytes += t.values.capacity() * std::mem::size_of::<Value>();
        for v in &t.values {
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
    }
    bytes
}

/// Versioned per-relation cache of the [`ColumnSet`].
///
/// * never persisted: checkpoint/WAL bytes are unchanged by the columnar
///   plane;
/// * `Clone` yields an *empty* cache (a cloned relation rebuilds lazily);
/// * mutators bump `version`; readers rebuild when their snapshot's
///   version is stale;
/// * `write_cell` patches the snapshot in place when it is current and
///   exclusively held, keeping the chase's commit path rebuild-free.
#[derive(Debug)]
pub struct ColumnCache {
    // Release bump / Acquire read: a reader that observes version v also
    // observes every row mutation that preceded the bump to v, so a
    // version-matched snapshot is never stale.
    version: AtomicU64,
    snapshot: RankedRwLock<Option<(u64, Arc<ColumnSet>)>>,
}

impl Default for ColumnCache {
    fn default() -> Self {
        ColumnCache {
            version: AtomicU64::new(0),
            snapshot: RankedRwLock::new(LockRank::ColumnSnapshot, None),
        }
    }
}

impl Clone for ColumnCache {
    fn clone(&self) -> Self {
        ColumnCache::default()
    }
}

impl ColumnCache {
    /// Drop any snapshot validity (structural mutation: insert/delete/raw
    /// tuple access).
    pub(crate) fn invalidate(&self) {
        self.version.fetch_add(1, AtomicOrdering::Release);
    }

    /// Write one cell through to the cached snapshot, or invalidate when
    /// the snapshot is stale or shared.
    pub(crate) fn write_cell(&self, slot: usize, attr: AttrId, v: &Value) {
        let mut guard = self.snapshot.write();
        let current = self.version.load(AtomicOrdering::Acquire);
        match guard.as_mut() {
            Some((ver, set)) if *ver == current => match Arc::get_mut(set) {
                Some(set) => set.set_cell(slot, attr, v),
                None => self.invalidate(),
            },
            _ => self.invalidate(),
        }
    }

    /// Current snapshot, rebuilding from the rows if stale or absent.
    pub(crate) fn get_or_build(&self, rel: &Relation) -> Arc<ColumnSet> {
        let current = self.version.load(AtomicOrdering::Acquire);
        {
            let guard = self.snapshot.read();
            if let Some((ver, set)) = guard.as_ref() {
                if *ver == current {
                    return Arc::clone(set);
                }
            }
        }
        let built = Arc::new(ColumnSet::from_relation(rel));
        let mut guard = self.snapshot.write();
        // Concurrent readers may race to rebuild the same version; both
        // build identical data, so last-write-wins is fine. Mutation
        // cannot race (it needs `&mut Relation`).
        *guard = Some((current, Arc::clone(&built)));
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TupleId;
    use crate::schema::RelationSchema;

    fn rel() -> Relation {
        let mut r = Relation::new(RelationSchema::of(
            "T",
            &[
                ("name", AttrType::Str),
                ("n", AttrType::Int),
                ("x", AttrType::Float),
            ],
        ));
        r.insert_row(vec![Value::str("a"), Value::Int(1), Value::Float(1.5)])
            .unwrap();
        r.insert_row(vec![Value::str("b"), Value::Int(2), Value::Null])
            .unwrap();
        r.insert_row(vec![Value::str("a"), Value::Null, Value::Float(3.0)])
            .unwrap();
        // injected type error: a string in the int column
        r.insert_row(vec![Value::Null, Value::str("oops"), Value::Float(2.0)])
            .unwrap();
        r
    }

    fn ones(b: &Bitset) -> Vec<usize> {
        b.ones().collect()
    }

    #[test]
    fn value_roundtrip_is_exact() {
        let r = rel();
        let cols = r.columns();
        for t in r.iter() {
            for (attr, _) in r.schema.iter_attrs() {
                assert_eq!(
                    cols.value_at(attr, t.tid.index()),
                    *t.get(attr),
                    "cell {:?}/{attr:?}",
                    t.tid
                );
            }
        }
    }

    #[test]
    fn const_kernel_matches_scalar_on_every_op() {
        let r = rel();
        let cols = r.columns();
        let consts = [
            Value::str("a"),
            Value::Int(2),
            Value::Float(1.5),
            Value::Float(2.0),
            Value::Null,
            Value::str("oops"),
        ];
        for op in [
            PredOp::Eq,
            PredOp::Neq,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
        ] {
            for c in &consts {
                for (attr, _) in r.schema.iter_attrs() {
                    let mask = cols.eval_const_op(attr, op, c);
                    for t in r.iter() {
                        assert_eq!(
                            mask.get(t.tid.index()),
                            op.eval(t.get(attr), c),
                            "{op:?} {c:?} attr {attr:?} tid {:?}",
                            t.tid
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn int_float_cross_type_equality_mirrored() {
        // Int(3) == Float(3.0) on the row path must hold in the kernels
        let mut r = Relation::new(RelationSchema::of("T", &[("n", AttrType::Int)]));
        r.insert_row(vec![Value::Int(3)]).unwrap();
        r.insert_row(vec![Value::Int(4)]).unwrap();
        let cols = r.columns();
        let eq = cols.eval_const_op(AttrId(0), PredOp::Eq, &Value::Float(3.0));
        assert_eq!(ones(&eq), vec![0]);
        let ge = cols.eval_const_op(AttrId(0), PredOp::Ge, &Value::Float(3.5));
        assert_eq!(ones(&ge), vec![1]);
    }

    #[test]
    fn col_op_col_kernel_matches_scalar() {
        let mut r = Relation::new(RelationSchema::of(
            "T",
            &[
                ("a", AttrType::Str),
                ("b", AttrType::Str),
                ("n", AttrType::Int),
                ("x", AttrType::Float),
            ],
        ));
        r.insert_row(vec![
            Value::str("u"),
            Value::str("u"),
            Value::Int(1),
            Value::Float(1.0),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("u"),
            Value::str("v"),
            Value::Int(2),
            Value::Float(1.5),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::Null,
            Value::str("u"),
            Value::Int(3),
            Value::Float(3.0),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("w"),
            Value::Null,
            Value::Null,
            Value::Float(0.0),
        ])
        .unwrap();
        let cols = r.columns();
        for op in [
            PredOp::Eq,
            PredOp::Neq,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
        ] {
            for (l, rt) in [(0u16, 1u16), (2, 3), (0, 2)] {
                let mask = cols.eval_col_op_col(AttrId(l), op, AttrId(rt));
                for t in r.iter() {
                    assert_eq!(
                        mask.get(t.tid.index()),
                        op.eval(t.get(AttrId(l)), t.get(AttrId(rt))),
                        "{op:?} {l}/{rt} tid {:?}",
                        t.tid
                    );
                }
            }
        }
    }

    #[test]
    fn tombstones_never_satisfy_and_tids_stay_stable() {
        let mut r = rel();
        assert!(r.delete(TupleId(0)));
        let cols = r.columns();
        assert_eq!(cols.slots(), 4);
        assert!(!cols.live().get(0));
        let mask = cols.eval_const_op(AttrId(0), PredOp::Eq, &Value::str("a"));
        assert_eq!(ones(&mask), vec![2], "only the live 'a' row matches");
        assert_eq!(cols.value_at(AttrId(0), 2), Value::str("a"));
    }

    #[test]
    fn null_mask_excludes_tombstones() {
        let mut r = rel();
        let before = ones(&r.columns().null_mask(AttrId(2)));
        assert_eq!(before, vec![1]);
        r.delete(TupleId(1));
        assert!(ones(&r.columns().null_mask(AttrId(2))).is_empty());
    }

    #[test]
    fn write_through_keeps_snapshot_current() {
        let mut r = rel();
        let first = r.columns();
        drop(first); // exclusively held again
        assert!(r.set_cell(TupleId(0), AttrId(1), Value::Int(42)));
        let cols = r.columns();
        assert_eq!(cols.value_at(AttrId(1), 0), Value::Int(42));
        let mask = cols.eval_const_op(AttrId(1), PredOp::Eq, &Value::Int(42));
        assert_eq!(ones(&mask), vec![0]);
        // overwrite a fallback cell with a typed value: side map shrinks
        assert_eq!(cols.column(AttrId(1)).fallback_len(), 1);
        drop(cols);
        assert!(r.set_cell(TupleId(3), AttrId(1), Value::Int(7)));
        assert_eq!(r.columns().column(AttrId(1)).fallback_len(), 0);
    }

    #[test]
    fn shared_snapshot_invalidates_instead_of_mutating() {
        let mut r = rel();
        let held = r.columns(); // keep an Arc alive across the write
        assert!(r.set_cell(TupleId(0), AttrId(1), Value::Int(99)));
        assert_eq!(
            held.value_at(AttrId(1), 0),
            Value::Int(1),
            "held snapshot is immutable"
        );
        assert_eq!(r.columns().value_at(AttrId(1), 0), Value::Int(99));
    }

    #[test]
    fn dictionary_reencoding_compacts_on_rebuild() {
        let mut r = Relation::new(RelationSchema::of("T", &[("s", AttrType::Str)]));
        for s in ["a", "b", "a", "c"] {
            r.insert_row(vec![Value::str(s)]).unwrap();
        }
        let dict_len = |r: &Relation| match &r.columns().column(AttrId(0)).data {
            ColumnData::Str { dict, .. } => dict.len(),
            _ => unreachable!("string column"),
        };
        assert_eq!(dict_len(&r), 3);
        // overwrite every 'a' and 'c' with 'b': append-only interning keeps
        // stranded codes until a structural mutation forces a re-encode
        for tid in [0u32, 2, 3] {
            r.set_cell(TupleId(tid), AttrId(0), Value::str("b"));
        }
        assert_eq!(dict_len(&r), 3, "write-through interning is append-only");
        r.insert_row(vec![Value::str("b")]).unwrap(); // invalidates
        assert_eq!(dict_len(&r), 1, "rebuild re-encodes to the live set");
    }

    #[test]
    fn cloned_relation_rebuilds_independently() {
        let mut r = rel();
        let _ = r.columns();
        let mut c = r.clone();
        c.set_cell(TupleId(0), AttrId(1), Value::Int(5));
        assert_eq!(r.columns().value_at(AttrId(1), 0), Value::Int(1));
        assert_eq!(c.columns().value_at(AttrId(1), 0), Value::Int(5));
    }

    #[test]
    fn heap_accounting_is_nonzero_and_columnar_is_denser_for_strings() {
        let mut r = Relation::new(RelationSchema::of("T", &[("s", AttrType::Str)]));
        for i in 0..256 {
            r.insert_row(vec![Value::str(if i % 2 == 0 { "even" } else { "odd" })])
                .unwrap();
        }
        let cols = r.columns();
        assert!(cols.heap_bytes() > 0);
        assert!(
            cols.heap_bytes() < row_heap_bytes(&r),
            "dictionary codes beat 24-byte values: {} vs {}",
            cols.heap_bytes(),
            row_heap_bytes(&r)
        );
    }
}
