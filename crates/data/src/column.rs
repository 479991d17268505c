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
//! cache ([`ColumnCache`], one [`SnapshotCache`]) built from the rows on
//! the first read. After
//! that, every row mutation patches it: an insert appends a slot, a delete
//! tombstones one, and a cell write (`Relation::set_cell`, the chase's
//! commit path and a ΔD batch alike) overwrites one cell. A clone of a
//! relation shares the snapshot; the first write on either side patches a
//! copy, later ones patch that copy in place, so a stream batch costs what
//! its updates touch rather than a rebuild.
//!
//! Each snapshot also carries the equality-join index of every attribute
//! ([`ColumnSet::join_index`]) and the [`pair_key`] of every projection an
//! ML pair predicate reads ([`ColumnSet::projection_keys`]), each built on
//! first probe and shared by every reader of the snapshot. A patch keeps
//! every join index already built equal to a cold build: the tuple id is
//! appended, removed or moved, and each id list stays ascending. Projection
//! keys are not patched: an insert or delete drops them all, a cell write
//! those that read the written attribute.
//!
//! String dictionaries are append-only within a snapshot, so overwritten
//! payloads leave stale codes behind. Once a column's dictionary holds
//! more than twice as many codes as the relation has slots, the write
//! invalidates the snapshot and the next read rebuilds it, re-encoding
//! every dictionary to the live payloads.

use crate::bitset::Bitset;
use crate::ids::{AttrId, TupleId};
use crate::key::pair_key;
use crate::relation::Relation;
use crate::schema::AttrType;
use crate::tuple::Tuple;
use crate::value::{cmp_int_float, Value};
use crate::Dictionary;
use rock_crystal::hash::FxHashMap;
use rock_crystal::sync::{
    Arc, AtomicU64, LockRank, OnceLock, Ordering as AtomicOrdering, RankedRwLock,
};
use std::cmp::Ordering;

/// The hash side of an equality join over one attribute: each non-null
/// value maps to the live tuples holding it, in ascending id order.
pub type JoinIndex = FxHashMap<Value, Vec<TupleId>>;

/// The [`pair_key`] of every live tuple's projection on one attribute
/// list, and the live tuples of each key in ascending id order.
#[derive(Debug, Default, PartialEq)]
pub struct ProjectionKeys {
    /// Key of each slot's projection; 0 at tombstoned slots.
    keys: Vec<u64>,
    tids: FxHashMap<u64, Vec<TupleId>>,
}

impl ProjectionKeys {
    /// Key of the live tuple `tid`'s projection.
    pub fn key(&self, tid: TupleId) -> u64 {
        self.keys[tid.index()]
    }

    /// The live tuples whose projection has `key`, ascending.
    pub fn tids(&self, key: u64) -> &[TupleId] {
        self.tids.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Add live slot `tid`, holding `v`, to a join index; the key's list stays
/// ascending.
fn index_add(idx: &mut JoinIndex, v: &Value, tid: TupleId) {
    let list = idx.entry(v.clone()).or_default();
    let pos = list.partition_point(|t| *t < tid);
    list.insert(pos, tid);
    if pos == 0 {
        restore_key(idx, v);
    }
}

/// Remove live slot `tid`, holding `v` in column `col`, from a join index.
/// A key leaves with its last tuple: a cold build holds no empty lists.
fn index_remove(idx: &mut JoinIndex, col: &Column, v: &Value, tid: TupleId) {
    let Some(list) = idx.get_mut(v) else {
        return;
    };
    let Ok(pos) = list.binary_search(&tid) else {
        return;
    };
    list.remove(pos);
    match list.first() {
        None => {
            idx.remove(v);
        }
        Some(first) if pos == 0 => {
            let first = first.index();
            restore_key(idx, &col.value_at(first));
        }
        Some(_) => {}
    }
}

/// A cold build stores each key as the value of its smallest tuple; after
/// a patch changes the smallest tuple, store that tuple's value `v`, so
/// the two agree even where one key holds two types (`Int(1)` and
/// `Float(1.0)` are equal values).
fn restore_key(idx: &mut JoinIndex, v: &Value) {
    let stale = idx
        .get_key_value(v)
        .is_some_and(|(k, _)| std::mem::discriminant(k) != std::mem::discriminant(v));
    if stale {
        if let Some(list) = idx.remove(v) {
            idx.insert(v.clone(), list);
        }
    }
}

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

    /// Overwrite one cell in place (the `set_cell` patch).
    fn set_value(&mut self, slot: usize, v: &Value) {
        self.fallback.remove(&(slot as u32));
        self.nulls.unset(slot);
        match (&mut self.data, v) {
            (_, Value::Null) => self.nulls.set(slot),
            (ColumnData::Int64(xs), Value::Int(i)) => xs[slot] = *i,
            (ColumnData::Float64(xs), Value::Float(f)) => xs[slot] = *f,
            (ColumnData::Date(xs), Value::Date(d)) => xs[slot] = *d,
            (ColumnData::Bool(xs), Value::Bool(b)) => xs[slot] = *b,
            // Append-only interning: the old code may go stranded until a
            // rebuild re-encodes the dictionary.
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

    /// Codes in the string dictionary (0 for other column types).
    pub fn dict_len(&self) -> usize {
        match &self.data {
            ColumnData::Str { dict, .. } => dict.len(),
            _ => 0,
        }
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
///
/// `Clone` copies the columns and whatever indexes and projection keys are
/// built; it is the copy a write to a shared snapshot patches.
#[derive(Debug)]
pub struct ColumnSet {
    slots: usize,
    live: Bitset,
    columns: Vec<Column>,
    /// One lazily built [`JoinIndex`] per attribute; must match `columns`.
    join_indexes: Vec<OnceLock<JoinIndex>>,
    /// Lazily built [`ProjectionKeys`] per attribute list; must match
    /// `columns`.
    projections: RankedRwLock<FxHashMap<Vec<AttrId>, Arc<ProjectionKeys>>>,
}

impl Clone for ColumnSet {
    fn clone(&self) -> Self {
        ColumnSet {
            slots: self.slots,
            live: self.live.clone(),
            columns: self.columns.clone(),
            join_indexes: self.join_indexes.clone(),
            projections: RankedRwLock::new(LockRank::ColumnKeys, self.projections.read().clone()),
        }
    }
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
            join_indexes: columns.iter().map(|_| OnceLock::new()).collect(),
            columns,
            projections: RankedRwLock::new(LockRank::ColumnKeys, FxHashMap::default()),
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

    /// The equality-join index of one attribute, built from the columns on
    /// the first call and shared by every later caller of this snapshot.
    /// Equal to what [`Relation::index_on`] builds from the rows.
    pub fn join_index(&self, attr: AttrId) -> &JoinIndex {
        self.join_indexes[attr.index()].get_or_init(|| {
            let col = &self.columns[attr.index()];
            let mut idx = JoinIndex::default();
            for slot in self.live.ones() {
                if !col.nulls.get(slot) {
                    idx.entry(col.value_at(slot))
                        .or_default()
                        .push(TupleId(slot as u32));
                }
            }
            idx
        })
    }

    /// The [`pair_key`] of every live tuple's projection on `attrs`,
    /// built from the columns on the first call for `attrs` and shared by
    /// every later caller of this snapshot.
    pub fn projection_keys(&self, attrs: &[AttrId]) -> Arc<ProjectionKeys> {
        if let Some(keys) = self.projections.read().get(attrs) {
            return Arc::clone(keys);
        }
        let mut built = ProjectionKeys {
            keys: vec![0; self.slots],
            tids: FxHashMap::default(),
        };
        let mut vals: Vec<Value> = Vec::with_capacity(attrs.len());
        for slot in self.live.ones() {
            vals.clear();
            vals.extend(attrs.iter().map(|a| self.value_at(*a, slot)));
            let key = pair_key(&vals);
            built.keys[slot] = key;
            built
                .tids
                .entry(key)
                .or_default()
                .push(TupleId(slot as u32));
        }
        // racing builders build equal keys; the first insert wins
        let mut cache = self.projections.write();
        Arc::clone(
            cache
                .entry(attrs.to_vec())
                .or_insert_with(|| Arc::new(built)),
        )
    }

    /// Append the slot of the tuple an insert just created: every column
    /// and built join index gains it, and the projection keys are dropped.
    /// The patched snapshot always stays (`true`).
    pub(crate) fn push_row(&mut self, t: &Tuple) -> bool {
        let slot = self.slots;
        debug_assert_eq!(t.tid.index(), slot, "inserts append a slot");
        self.slots += 1;
        self.live.push(true);
        for (col, v) in self.columns.iter_mut().zip(&t.values) {
            col.nulls.push(false);
            col.push_value(slot, v);
        }
        for (idx, v) in self.join_indexes.iter_mut().zip(&t.values) {
            if let Some(idx) = idx.get_mut().filter(|_| !v.is_null()) {
                index_add(idx, v, t.tid);
            }
        }
        self.projections.get_mut().clear();
        true
    }

    /// Tombstone a live slot: its cells turn null, it leaves every built
    /// join index, and the projection keys are dropped. The patched
    /// snapshot always stays (`true`).
    pub(crate) fn delete_row(&mut self, slot: usize) -> bool {
        let tid = TupleId(slot as u32);
        for (idx, col) in self.join_indexes.iter_mut().zip(&self.columns) {
            if let Some(idx) = idx.get_mut().filter(|_| !col.nulls.get(slot)) {
                index_remove(idx, col, &col.value_at(slot), tid);
            }
        }
        self.projections.get_mut().clear();
        self.live.unset(slot);
        for col in &mut self.columns {
            col.fallback.remove(&(slot as u32));
            col.nulls.set(slot);
        }
        true
    }

    /// Overwrite one cell of a live slot, moving the slot within the
    /// written attribute's join index; the projection keys that read the
    /// attribute are dropped. Returns `false` when the written column's
    /// dictionary has outgrown its bound (the snapshot is then invalidated
    /// and rebuilt).
    pub(crate) fn set_cell(&mut self, slot: usize, attr: AttrId, v: &Value) -> bool {
        let tid = TupleId(slot as u32);
        let col = &mut self.columns[attr.index()];
        if let Some(idx) = self.join_indexes[attr.index()].get_mut() {
            if !col.nulls.get(slot) {
                index_remove(idx, col, &col.value_at(slot), tid);
            }
            if !v.is_null() {
                index_add(idx, v, tid);
            }
        }
        col.set_value(slot, v);
        self.projections
            .get_mut()
            .retain(|attrs, _| !attrs.contains(&attr));
        col.dict_len() <= 2 * self.slots
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
    /// the bench panel). Join indexes are not counted: they exist only
    /// once probed.
    pub fn heap_bytes(&self) -> usize {
        self.live.heap_bytes() + self.columns.iter().map(Column::heap_bytes).sum::<usize>()
    }
}

/// Approximate heap footprint of the row image of a relation — the
/// row-vs-column bytes comparison of the `figures -- columnar` panel. Each
/// slot is a pointer, each live tuple its own reference-counted block.
pub fn row_heap_bytes(rel: &Relation) -> usize {
    let mut bytes = rel.capacity() * std::mem::size_of::<Option<Arc<Tuple>>>();
    for t in rel.iter() {
        bytes += 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Tuple>();
        bytes += t.values.capacity() * std::mem::size_of::<Value>();
        for v in &t.values {
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
    }
    bytes
}

/// A snapshot a relation derives from its rows and caches in a
/// [`SnapshotCache`]: the [`ColumnSet`] and the
/// [`crate::classes::ClassIndex`].
pub(crate) trait Snapshot: Clone {
    /// Build the snapshot from the rows.
    fn build(rel: &Relation) -> Self;
}

impl Snapshot for ColumnSet {
    fn build(rel: &Relation) -> Self {
        ColumnSet::from_relation(rel)
    }
}

impl Snapshot for crate::classes::ClassIndex {
    fn build(rel: &Relation) -> Self {
        crate::classes::ClassIndex::from_relation(rel)
    }
}

/// The columnar image's cache.
pub(crate) type ColumnCache = SnapshotCache<ColumnSet>;

/// Versioned per-relation cache of one snapshot of the rows (the
/// [`ColumnSet`], and beside it the entity class index).
///
/// * never persisted: checkpoint/WAL bytes are unchanged by the cached
///   snapshots;
/// * `Clone` shares the current snapshot (a stale one is not carried);
/// * readers rebuild when the snapshot's version is stale or absent;
/// * [`SnapshotCache::patch`] applies a row mutation to a current snapshot
///   in place when it is exclusively held, and to a copy installed under
///   the same version when it is shared, so an `Arc` a reader was served
///   never changes under it. A stale snapshot, or a patch that cannot
///   keep the snapshot within bounds, bumps `version` instead.
#[derive(Debug)]
pub(crate) struct SnapshotCache<T> {
    // Bumped only under `&mut Relation` (`patch`), so no reader is inside
    // while it moves: a reader that observes version v also observes every
    // row mutation that preceded the bump to v, and a version-matched
    // snapshot is never stale.
    version: AtomicU64,
    snapshot: RankedRwLock<Option<(u64, Arc<T>)>>,
}

impl<T> Default for SnapshotCache<T> {
    fn default() -> Self {
        SnapshotCache {
            version: AtomicU64::new(0),
            snapshot: RankedRwLock::new(LockRank::ColumnSnapshot, None),
        }
    }
}

impl<T> Clone for SnapshotCache<T> {
    fn clone(&self) -> Self {
        let version = self.version.load(AtomicOrdering::Acquire);
        let snapshot = self
            .snapshot
            .read()
            .as_ref()
            .filter(|(ver, _)| *ver == version)
            .map(|(ver, set)| (*ver, Arc::clone(set)));
        SnapshotCache {
            version: AtomicU64::new(version),
            snapshot: RankedRwLock::new(LockRank::ColumnSnapshot, snapshot),
        }
    }
}

impl<T: Snapshot> SnapshotCache<T> {
    /// Apply one row mutation to the cached snapshot. `apply` returns
    /// whether the patched snapshot may stay; when it may not, or the
    /// snapshot is stale or absent, the cache is invalidated and the next
    /// read rebuilds from the rows.
    pub(crate) fn patch(&mut self, apply: impl FnOnce(&mut T) -> bool) {
        let current = *self.version.get_mut();
        let snapshot = self.snapshot.get_mut();
        let kept = match snapshot {
            Some((ver, set)) if *ver == current => apply(Arc::make_mut(set)),
            _ => false,
        };
        if !kept {
            *snapshot = None;
            *self.version.get_mut() += 1;
        }
    }

    /// Current snapshot, rebuilding from the rows if stale or absent.
    pub(crate) fn get_or_build(&self, rel: &Relation) -> Arc<T> {
        let current = self.version.load(AtomicOrdering::Acquire);
        {
            let guard = self.snapshot.read();
            if let Some((ver, set)) = guard.as_ref() {
                if *ver == current {
                    return Arc::clone(set);
                }
            }
        }
        let built = Arc::new(T::build(rel));
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
    fn shared_snapshot_is_patched_on_a_copy() {
        let mut r = rel();
        let held = r.columns(); // keep an Arc alive across the write
        assert!(r.set_cell(TupleId(0), AttrId(1), Value::Int(99)));
        assert_eq!(
            held.value_at(AttrId(1), 0),
            Value::Int(1),
            "held snapshot is immutable"
        );
        let patched = r.columns();
        assert!(!Arc::ptr_eq(&held, &patched), "the write installed a copy");
        assert_eq!(patched.value_at(AttrId(1), 0), Value::Int(99));
        let copy = Arc::as_ptr(&patched);
        drop((held, patched));
        assert!(r.set_cell(TupleId(1), AttrId(1), Value::Int(98)));
        assert_eq!(
            Arc::as_ptr(&r.columns()),
            copy,
            "once exclusive again, the copy is patched in place"
        );
    }

    fn dict_len(r: &Relation) -> usize {
        r.columns().column(AttrId(0)).dict_len()
    }

    #[test]
    fn dictionary_reencodes_past_its_bound() {
        let mut r = Relation::new(RelationSchema::of("T", &[("s", AttrType::Str)]));
        for s in ["a", "b", "a"] {
            r.insert_row(vec![Value::str(s)]).unwrap();
        }
        assert_eq!(dict_len(&r), 2);
        // Overwrites intern append-only: stale codes pile up, and the
        // patched snapshot keeps serving, until the dictionary holds more
        // than twice as many codes as the relation has slots.
        let snapshot = Arc::as_ptr(&r.columns());
        for (i, s) in ["c", "d", "e", "f"].into_iter().enumerate() {
            r.set_cell(TupleId(i as u32 % 3), AttrId(0), Value::str(s));
            assert_eq!(dict_len(&r), 3 + i, "write {i} interns append-only");
            assert_join_indexes_match_rows(&r);
        }
        assert_eq!(dict_len(&r), 6, "six codes for three slots: at the bound");
        assert_eq!(Arc::as_ptr(&r.columns()), snapshot, "patched in place");
        r.set_cell(TupleId(1), AttrId(0), Value::str("g"));
        // past the bound: the next read re-encodes to the live payloads,
        // exactly as a cold build does
        let cols = r.columns();
        assert_eq!(dict_len(&r), 3, "f, g and e are the live payloads");
        let cold = ColumnSet::from_relation(&r);
        match (&cols.column(AttrId(0)).data, &cold.column(AttrId(0)).data) {
            (ColumnData::Str { codes, dict }, ColumnData::Str { codes: c, dict: d }) => {
                assert_eq!(codes, c);
                let payloads = |d: &Dictionary| d.iter().map(|(_, s)| s.to_string()).collect();
                let live: Vec<String> = payloads(dict);
                assert_eq!(live, payloads(d));
                assert_eq!(live, ["f", "g", "e"].map(String::from));
            }
            _ => unreachable!("string column"),
        }
        assert_join_indexes_match_rows(&r);
    }

    #[test]
    fn cloned_relation_shares_the_snapshot_and_patches_independently() {
        let r = rel();
        let base = r.columns();
        let _ = base.join_index(AttrId(1));
        let mut c = r.clone();
        assert!(
            Arc::ptr_eq(&base, &c.columns()),
            "a clone shares the snapshot"
        );
        c.set_cell(TupleId(0), AttrId(1), Value::Int(5));
        c.insert_row(vec![Value::str("z"), Value::Int(5), Value::Null])
            .unwrap();
        assert!(
            Arc::ptr_eq(&base, &r.columns()),
            "the original keeps its own"
        );
        assert_eq!(r.columns().value_at(AttrId(1), 0), Value::Int(1));
        assert_eq!(r.columns().slots(), 4);
        assert_eq!(c.columns().value_at(AttrId(1), 0), Value::Int(5));
        assert!(
            join_index_built(&c, AttrId(1)),
            "the copy carries the index"
        );
        assert_join_indexes_match_rows(&r);
        assert_join_indexes_match_rows(&c);
    }

    /// Probe every attribute's cached join index and compare it with the
    /// reference build from the rows.
    fn assert_join_indexes_match_rows(r: &Relation) {
        let cols = r.columns();
        for (attr, _) in r.schema.iter_attrs() {
            assert_eq!(*cols.join_index(attr), r.index_on(attr), "attr {attr:?}");
        }
    }

    fn join_index_built(r: &Relation, attr: AttrId) -> bool {
        r.columns().join_indexes[attr.index()].get().is_some()
    }

    #[test]
    fn join_index_is_patched_across_inserts_and_deletes() {
        let mut r = rel();
        assert_join_indexes_match_rows(&r);
        let snapshot = Arc::as_ptr(&r.columns());
        // a second fallback cell with the same payload shares its key
        r.insert_row(vec![Value::str("b"), Value::str("oops"), Value::Int(2)])
            .unwrap();
        assert_join_indexes_match_rows(&r);
        assert!(r.delete(TupleId(1)));
        assert_join_indexes_match_rows(&r);
        assert_eq!(
            r.columns().join_index(AttrId(1))[&Value::str("oops")],
            vec![TupleId(3), TupleId(4)]
        );
        // inserts append to the built indexes, deletes remove from them:
        // the snapshot is the same one throughout
        r.insert_row(vec![Value::str("a"), Value::Int(1), Value::Null])
            .unwrap();
        assert!(join_index_built(&r, AttrId(0)));
        assert_join_indexes_match_rows(&r);
        assert!(r.delete(TupleId(0)));
        assert!(join_index_built(&r, AttrId(0)));
        assert_join_indexes_match_rows(&r);
        assert_eq!(
            r.columns().join_index(AttrId(1))[&Value::Int(1)],
            vec![TupleId(5)]
        );
        assert!(!r
            .columns()
            .join_index(AttrId(0))
            .contains_key(&Value::str("never")));
        assert_eq!(Arc::as_ptr(&r.columns()), snapshot, "patched in place");
    }

    #[test]
    fn in_place_write_patches_the_written_attributes_index() {
        let mut r = rel();
        assert_join_indexes_match_rows(&r);
        // the written attribute's index moves the tuple between keys
        assert!(r.set_cell(TupleId(0), AttrId(0), Value::str("b")));
        assert!(join_index_built(&r, AttrId(0)));
        assert_eq!(
            r.columns().join_index(AttrId(0))[&Value::str("b")],
            vec![TupleId(0), TupleId(1)],
            "ascending after the move"
        );
        assert_join_indexes_match_rows(&r);
        // nulling a cell drops it from the index; overwriting a fallback
        // cell with a typed value moves it to the typed key
        assert!(r.set_cell(TupleId(0), AttrId(1), Value::Null));
        assert!(r.set_cell(TupleId(3), AttrId(1), Value::Int(2)));
        assert!(join_index_built(&r, AttrId(1)));
        assert!(!r
            .columns()
            .join_index(AttrId(1))
            .contains_key(&Value::str("oops")));
        assert_join_indexes_match_rows(&r);
        // and a null cell filled joins its key
        assert!(r.set_cell(TupleId(2), AttrId(1), Value::Int(2)));
        assert_eq!(
            r.columns().join_index(AttrId(1))[&Value::Int(2)],
            vec![TupleId(1), TupleId(2), TupleId(3)]
        );
        assert_join_indexes_match_rows(&r);
    }

    fn projections_built(r: &Relation) -> usize {
        r.columns().projections.read().len()
    }

    #[test]
    fn patches_drop_the_projection_keys_they_touch() {
        let mut r = rel();
        for attrs in [[AttrId(0), AttrId(2)], [AttrId(1), AttrId(2)]] {
            let _ = r.columns().projection_keys(&attrs);
        }
        // a cell write drops only the projections reading its attribute
        assert!(r.set_cell(TupleId(0), AttrId(0), Value::str("c")));
        assert_eq!(projections_built(&r), 1);
        let keys = r.columns().projection_keys(&[AttrId(1), AttrId(2)]);
        assert_eq!(
            *keys,
            *ColumnSet::from_relation(&r).projection_keys(&[AttrId(1), AttrId(2)])
        );
        drop(keys);
        // inserts and deletes drop them all; the rebuild matches a cold one
        r.insert_row(vec![Value::str("c"), Value::Int(2), Value::Null])
            .unwrap();
        assert_eq!(projections_built(&r), 0);
        let _ = r.columns().projection_keys(&[AttrId(0)]);
        assert!(r.delete(TupleId(1)));
        assert_eq!(projections_built(&r), 0);
        assert_eq!(
            *r.columns().projection_keys(&[AttrId(0)]),
            *ColumnSet::from_relation(&r).projection_keys(&[AttrId(0)])
        );
    }

    #[test]
    fn racing_first_probes_share_one_index() {
        use rock_crystal::sync::AtomicUsize;
        const THREADS: usize = 4;
        let mut r = Relation::new(RelationSchema::of("T", &[("k", AttrType::Int)]));
        for i in 0..64 {
            r.insert_row(vec![Value::Int(i % 5)]).unwrap();
        }
        let cols = r.columns();
        let ready = AtomicUsize::new(0);
        let seen: Vec<(usize, JoinIndex)> = std::thread::scope(|s| {
            let probes: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        // start gate: no thread probes before all are running
                        ready.fetch_add(1, AtomicOrdering::AcqRel);
                        while ready.load(AtomicOrdering::Acquire) < THREADS {
                            std::thread::yield_now();
                        }
                        let idx = cols.join_index(AttrId(0));
                        (idx as *const JoinIndex as usize, idx.clone())
                    })
                })
                .collect();
            probes.into_iter().map(|p| p.join().unwrap()).collect()
        });
        let expected = r.index_on(AttrId(0));
        for (addr, idx) in &seen {
            assert_eq!(*addr, seen[0].0, "every thread sees the one built map");
            assert_eq!(*idx, expected);
        }
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
