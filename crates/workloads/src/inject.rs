//! Error injection with ground-truth tracking.
//!
//! The injector takes a *clean* database and corrupts it with the error
//! classes the paper targets: **typos/conflicts** (CR), **nulls** (MI),
//! **stale values** (TD), and **duplicates** (ER). Every corruption is
//! recorded in [`ErrorTruth`], so the evaluation measures precision and
//! recall exactly (the paper manually checked 10,000 tuples; we have the
//! full oracle).

use crate::namegen::typo;
use rock_data::{
    rng::StdRng, AttrId, CellRef, Database, FxHashMap, FxHashSet, GlobalTid, RelId, Timestamp,
    TupleId, Value,
};

/// The record of injected errors: cell → correct (clean) value.
#[derive(Debug, Clone, Default)]
pub struct ErrorTruth {
    /// Typo/conflict corruptions.
    pub corrupted: FxHashMap<CellRef, Value>,
    /// Nulled-out cells.
    pub nulled: FxHashMap<CellRef, Value>,
    /// Stale (outdated) values written over current ones.
    pub stale: FxHashMap<CellRef, Value>,
    /// Injected duplicate tuples: (original, duplicate).
    pub duplicate_pairs: Vec<(GlobalTid, GlobalTid)>,
}

impl ErrorTruth {
    /// All cells carrying an injected error.
    pub fn error_cells(&self) -> FxHashSet<CellRef> {
        self.corrupted
            .keys()
            .chain(self.nulled.keys())
            .chain(self.stale.keys())
            .copied()
            .collect()
    }

    /// Total injected errors (cells + duplicate pairs).
    pub fn total(&self) -> usize {
        self.corrupted.len() + self.nulled.len() + self.stale.len() + self.duplicate_pairs.len()
    }

    /// The correct value of an injected-error cell.
    pub fn correct_value(&self, cell: &CellRef) -> Option<&Value> {
        self.corrupted
            .get(cell)
            .or_else(|| self.nulled.get(cell))
            .or_else(|| self.stale.get(cell))
    }

    pub fn merge(&mut self, other: ErrorTruth) {
        self.corrupted.extend(other.corrupted);
        self.nulled.extend(other.nulled);
        self.stale.extend(other.stale);
        self.duplicate_pairs.extend(other.duplicate_pairs);
    }
}

/// Seeded error injector over one database.
pub struct Injector {
    rng: StdRng,
    pub truth: ErrorTruth,
}

impl Injector {
    pub fn new(seed: u64) -> Self {
        Injector {
            rng: StdRng::seed_from_u64(seed),
            truth: ErrorTruth::default(),
        }
    }

    /// Corrupt a fraction `rate` of the non-null cells of `attr` with
    /// typos (string columns) or perturbation (numeric columns).
    pub fn corrupt_attr(&mut self, db: &mut Database, rel: RelId, attr: AttrId, rate: f64) {
        let tids: Vec<TupleId> = db.relation(rel).tids().collect();
        for tid in tids {
            if self.rng.gen_f64() >= rate {
                continue;
            }
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            let new = match &old {
                Value::Null => continue,
                Value::Str(s) => Value::str(typo(&mut self.rng, s)),
                Value::Int(i) => Value::Int(i + self.rng.gen_range(1..100)),
                Value::Float(f) => Value::Float(f * self.rng.gen_range(1.1..3.0)),
                Value::Bool(b) => Value::Bool(!b),
                Value::Date(d) => Value::Date(d + self.rng.gen_range(1..365)),
            };
            if new == old {
                continue;
            }
            db.relation_mut(rel).set_cell(tid, attr, new);
            self.truth.corrupted.insert(cell, old);
        }
    }

    /// Replace a fraction of the non-null cells of `attr` with a value
    /// drawn from a supplied pool (semantic conflicts like a wrong-but-
    /// plausible manufactory, rather than typos).
    pub fn conflict_attr(
        &mut self,
        db: &mut Database,
        rel: RelId,
        attr: AttrId,
        rate: f64,
        pool: &[Value],
    ) {
        if pool.is_empty() {
            return;
        }
        let tids: Vec<TupleId> = db.relation(rel).tids().collect();
        for tid in tids {
            if self.rng.gen_f64() >= rate {
                continue;
            }
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            if old.is_null() {
                continue;
            }
            let new = pool[self.rng.gen_range(0..pool.len())].clone();
            if new == old {
                continue;
            }
            db.relation_mut(rel).set_cell(tid, attr, new);
            self.truth.corrupted.insert(cell, old);
        }
    }

    /// Null out a fraction of the non-null cells of `attr`.
    pub fn null_attr(&mut self, db: &mut Database, rel: RelId, attr: AttrId, rate: f64) {
        let tids: Vec<TupleId> = db.relation(rel).tids().collect();
        for tid in tids {
            if self.rng.gen_f64() >= rate {
                continue;
            }
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            if old.is_null() {
                continue;
            }
            db.relation_mut(rel).set_cell(tid, attr, Value::Null);
            self.truth.nulled.insert(cell, old);
        }
    }

    /// Overwrite a fraction of cells with a *stale* value from the pool —
    /// a recent erroneous write of an outdated value. The cell is stamped
    /// with `ts`; callers pass a timestamp *later* than the legitimate
    /// writes, so a monotonicity REE++ (φ4-style) catches the violation:
    /// the cell claims an early-stage value confirmed at a late time.
    pub fn stale_attr(
        &mut self,
        db: &mut Database,
        rel: RelId,
        attr: AttrId,
        rate: f64,
        stale_pool: &[Value],
        ts: Timestamp,
    ) {
        if stale_pool.is_empty() {
            return;
        }
        let tids: Vec<TupleId> = db.relation(rel).tids().collect();
        for tid in tids {
            if self.rng.gen_f64() >= rate {
                continue;
            }
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            if old.is_null() {
                continue;
            }
            let new = stale_pool[self.rng.gen_range(0..stale_pool.len())].clone();
            if new == old {
                continue;
            }
            let r = db.relation_mut(rel);
            r.set_cell(tid, attr, new);
            r.set_timestamp(tid, attr, ts);
            self.truth.stale.insert(cell, old);
        }
    }

    /// Corrupt one attribute of explicitly chosen tuples with typos
    /// (used to break join keys of duplicates so ER must go through its
    /// ML path — the interaction chains of §4.2).
    pub fn corrupt_cells(&mut self, db: &mut Database, rel: RelId, tids: &[TupleId], attr: AttrId) {
        for &tid in tids {
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            let Value::Str(s) = &old else { continue };
            let new = Value::str(typo(&mut self.rng, s));
            if new == old {
                continue;
            }
            db.relation_mut(rel).set_cell(tid, attr, new);
            self.truth.corrupted.insert(cell, old);
        }
    }

    /// Null one attribute of explicitly chosen tuples.
    pub fn null_cells(&mut self, db: &mut Database, rel: RelId, tids: &[TupleId], attr: AttrId) {
        for &tid in tids {
            let cell = CellRef::new(rel, tid, attr);
            if self.truth.error_cells().contains(&cell) {
                continue;
            }
            let old = db.cell(rel, tid, attr).cloned().unwrap_or(Value::Null);
            if old.is_null() {
                continue;
            }
            db.relation_mut(rel).set_cell(tid, attr, Value::Null);
            self.truth.nulled.insert(cell, old);
        }
    }

    /// Duplicate a fraction of tuples with reformatting noise on the given
    /// string attributes (a fresh entity id is assigned — the duplicates
    /// are what ER must re-identify). Returns ids of the duplicates.
    pub fn duplicate_tuples(
        &mut self,
        db: &mut Database,
        rel: RelId,
        rate: f64,
        noisy_attrs: &[AttrId],
    ) -> Vec<TupleId> {
        let originals: Vec<TupleId> = db.relation(rel).tids().collect();
        let mut dups = Vec::new();
        for tid in originals {
            if self.rng.gen_f64() >= rate {
                continue;
            }
            let Some(orig) = db.relation(rel).get(tid).cloned() else {
                continue;
            };
            let mut values = orig.values.clone();
            let mut noised: Vec<(AttrId, Value)> = Vec::new();
            for a in noisy_attrs {
                if let Value::Str(s) = &values[a.index()] {
                    let re = Value::str(crate::namegen::reformat(&mut self.rng, s));
                    if re != values[a.index()] {
                        noised.push((*a, values[a.index()].clone()));
                        values[a.index()] = re;
                    }
                }
            }
            let new_eid = rock_data::Eid(db.relation(rel).capacity() as u32 + 1_000_000);
            let stamps: Vec<(AttrId, Timestamp)> = (0..db.relation(rel).schema.arity())
                .filter_map(|a| {
                    let attr = AttrId(a as u16);
                    db.relation(rel)
                        .timestamps
                        .get(tid, attr)
                        .map(|ts| (attr, ts))
                })
                .collect();
            let dup = db
                .relation_mut(rel)
                .insert(new_eid, values)
                .expect("duplicated row keeps its source arity");
            for (attr, ts) in stamps {
                db.relation_mut(rel).set_timestamp(dup, attr, ts);
            }
            // the reformatted cells of the duplicate are dirty values in
            // their own right (correct value = the original's)
            for (a, correct) in noised {
                self.truth
                    .corrupted
                    .insert(CellRef::new(rel, dup, a), correct);
            }
            self.truth
                .duplicate_pairs
                .push((GlobalTid::new(rel, tid), GlobalTid::new(rel, dup)));
            dups.push(dup);
        }
        dups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema};

    fn db(n: usize) -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("name", AttrType::Str), ("price", AttrType::Float)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..n {
            r.insert_row(vec![
                Value::str(format!("item number {i}")),
                Value::Float(100.0 + i as f64),
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn corruption_recorded_and_applied() {
        let clean = db(100);
        let mut dirty = clean.clone();
        let mut inj = Injector::new(7);
        inj.corrupt_attr(&mut dirty, RelId(0), AttrId(0), 0.2);
        let n = inj.truth.corrupted.len();
        assert!(n > 5 && n < 40, "rate ~0.2 of 100: {n}");
        for (cell, correct) in &inj.truth.corrupted {
            let dirty_v = dirty.cell(cell.rel, cell.tid, cell.attr).unwrap();
            let clean_v = clean.cell(cell.rel, cell.tid, cell.attr).unwrap();
            assert_ne!(dirty_v, clean_v);
            assert_eq!(correct, clean_v);
        }
    }

    #[test]
    fn nulling_and_totals() {
        let mut d = db(50);
        let mut inj = Injector::new(3);
        inj.null_attr(&mut d, RelId(0), AttrId(1), 0.3);
        assert!(!inj.truth.nulled.is_empty());
        for cell in inj.truth.nulled.keys() {
            assert!(d.cell(cell.rel, cell.tid, cell.attr).unwrap().is_null());
        }
        assert_eq!(inj.truth.total(), inj.truth.nulled.len());
        let any = inj.truth.nulled.iter().next().unwrap();
        assert_eq!(inj.truth.correct_value(any.0), Some(any.1));
    }

    #[test]
    fn no_double_corruption_of_same_cell() {
        let mut d = db(60);
        let mut inj = Injector::new(11);
        inj.corrupt_attr(&mut d, RelId(0), AttrId(0), 0.5);
        inj.null_attr(&mut d, RelId(0), AttrId(0), 0.5);
        let corrupted: FxHashSet<_> = inj.truth.corrupted.keys().collect();
        for c in inj.truth.nulled.keys() {
            assert!(!corrupted.contains(c), "cell corrupted twice: {c}");
        }
    }

    #[test]
    fn stale_injection_stamps_old_time() {
        let mut d = db(40);
        let mut inj = Injector::new(5);
        let pool = vec![Value::str("old town road")];
        inj.stale_attr(&mut d, RelId(0), AttrId(0), 0.4, &pool, Timestamp(1));
        assert!(!inj.truth.stale.is_empty());
        for cell in inj.truth.stale.keys() {
            assert_eq!(
                d.relation(cell.rel).timestamps.get(cell.tid, cell.attr),
                Some(Timestamp(1))
            );
            assert_eq!(
                d.cell(cell.rel, cell.tid, cell.attr),
                Some(&Value::str("old town road"))
            );
        }
    }

    #[test]
    fn duplicates_get_fresh_eids() {
        let mut d = db(30);
        let before = d.relation(RelId(0)).len();
        let mut inj = Injector::new(9);
        let dups = inj.duplicate_tuples(&mut d, RelId(0), 0.3, &[AttrId(0)]);
        assert_eq!(d.relation(RelId(0)).len(), before + dups.len());
        assert_eq!(inj.truth.duplicate_pairs.len(), dups.len());
        for (orig, dup) in &inj.truth.duplicate_pairs {
            let o = d.relation(orig.rel).get(orig.tid).unwrap();
            let du = d.relation(dup.rel).get(dup.tid).unwrap();
            assert_ne!(o.eid, du.eid, "duplicate must claim a different entity");
            // numeric attrs identical, name attr token-equal
            assert_eq!(o.get(AttrId(1)), du.get(AttrId(1)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut d = db(50);
            let mut inj = Injector::new(42);
            inj.corrupt_attr(&mut d, RelId(0), AttrId(0), 0.2);
            inj.truth.corrupted.keys().copied().collect::<Vec<_>>()
        };
        let (mut a, mut b) = (run(), run());
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
