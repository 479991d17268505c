//! A seeded stream of ΔD batches over a generated application, and the
//! scorer for the database the stream folds into.
//!
//! The last quarter of the main relation's dirty tuples is held out of the
//! base instance and arrives through the stream. Each update is, by a
//! seeded draw, an insert of the next held-out tuple (70 %), a `SetCell`
//! that overwrites one cell of a live tuple with another tuple's dirty
//! value (20 %), or a delete (10 %). The whole stream is fixed before the
//! first batch runs; tuple ids of inserted tuples are predicted from the
//! relation's capacity, which `run` verifies as the batches are applied.

use rock_data::{AttrId, CellRef, Database, Delta, RelId, TupleId, Update, Value};
use rock_workloads::{Metrics, Workload};
use std::collections::{HashMap, HashSet};

pub const UPDATES_PER_BATCH: usize = 20;

/// splitmix64: the harness's own generator, so the stream does not change
/// when the engine's `rand` does.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

pub struct Stream {
    /// The dirty instance without the held-out tuples.
    pub base: Database,
    pub main: RelId,
    pub batches: Vec<Delta>,
    /// Main-relation tuple id in the folded database -> the dirty tuple it
    /// came from, for tuples that arrived through the stream.
    origin: HashMap<TupleId, TupleId>,
    /// Cells the stream overwrote, with the value it wrote last.
    redirtied: HashMap<(TupleId, AttrId), Value>,
}

impl Stream {
    pub fn generate(w: &Workload, seed: u64, n_batches: usize) -> Stream {
        let mut rng = SplitMix64(seed);
        // The application's first relation is its principal entity table
        // (Bank: Customer), the one its ER and ML rules read.
        let main = RelId(0);
        let dirty = w.dirty.relation(main);
        let arity = dirty.schema.arity();
        let tids: Vec<TupleId> = dirty.tids().collect();
        let (kept, held) = tids.split_at(tids.len() - tids.len() / 4);

        let mut base = w.dirty.clone();
        for tid in held {
            base.relation_mut(main).delete(*tid);
        }
        let trusted: HashSet<TupleId> = w
            .trusted
            .iter()
            .filter(|g| g.rel == main)
            .map(|g| g.tid)
            .collect();
        // Tuples the stream may overwrite or delete; trusted tuples are the
        // chase's ground truth and stay as they are.
        let mut pool: Vec<TupleId> = kept
            .iter()
            .copied()
            .filter(|t| !trusted.contains(t))
            .collect();
        let mut next_tid = base.relation(main).capacity() as u32;
        let mut held = held.iter();
        let mut origin = HashMap::new();
        let mut redirtied = HashMap::new();

        let mut batches = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            // Only tuples present before this batch are overwritten or
            // deleted, so no update depends on an insert of its own batch.
            let mut eligible = pool.len();
            let mut updates = Vec::with_capacity(UPDATES_PER_BATCH);
            for _ in 0..UPDATES_PER_BATCH {
                let draw = rng.below(10);
                let insert = if draw < 7 { held.next() } else { None };
                if let Some(&from) = insert {
                    let t = dirty.get(from).expect("held-out tuple is live in dirty");
                    updates.push(Update::Insert {
                        rel: main,
                        eid: t.eid,
                        values: t.values.clone(),
                    });
                    let tid = TupleId(next_tid);
                    next_tid += 1;
                    origin.insert(tid, from);
                    pool.push(tid);
                } else if draw == 9 && eligible > 1 {
                    let i = rng.below(eligible);
                    // Keep the first `eligible` entries the pre-batch ones.
                    let tid = pool[i];
                    pool[i] = pool[eligible - 1];
                    pool.swap_remove(eligible - 1);
                    eligible -= 1;
                    updates.push(Update::Delete { rel: main, tid });
                } else {
                    let tid = pool[rng.below(eligible)];
                    let attr = AttrId(rng.below(arity) as u16);
                    let donor = tids[rng.below(tids.len())];
                    let value = dirty.cell(donor, attr).expect("donor is live").clone();
                    redirtied.insert((tid, attr), value.clone());
                    updates.push(Update::SetCell {
                        rel: main,
                        tid,
                        attr,
                        value,
                    });
                }
            }
            batches.push(Delta::new(updates));
        }
        Stream {
            base,
            main,
            batches,
            origin,
            redirtied,
        }
    }

    /// The stream as text: equal strings mean equal streams.
    #[cfg(test)]
    pub fn encode(&self) -> String {
        format!("{:?}", self.batches)
    }

    /// Main-relation capacity after `applied` batches, if every insert got
    /// the tuple id this generator predicted.
    pub fn expected_capacity(&self, applied: usize) -> usize {
        let inserts = self.batches[..applied]
            .iter()
            .flat_map(|d| &d.updates)
            .filter(|u| matches!(u, Update::Insert { .. }))
            .count();
        self.base.relation(self.main).capacity() + inserts
    }

    /// Correction metrics of a folded database against the clean oracle,
    /// by the rules of `rock_workloads::correction_metrics`: a cell counts
    /// as changed when it differs from the value it entered with (its
    /// dirty value, or what the stream last wrote there), a change is
    /// right when it equals the clean value, and an error left in place is
    /// a miss. Streamed tuples are compared with the dirty and clean
    /// tuples they came from.
    pub fn score(&self, folded: &Database, w: &Workload) -> Metrics {
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for (rid, rel) in folded.iter() {
            for t in rel.iter() {
                let from = match self.origin.get(&t.tid) {
                    Some(from) if rid == self.main => *from,
                    _ => t.tid,
                };
                let dirty_tuple = w.dirty.relation(rid).get(from);
                let clean_tuple = w.clean.relation(rid).get(from);
                for a in 0..rel.schema.arity() {
                    let attr = AttrId(a as u16);
                    let entered = match self.redirtied.get(&(t.tid, attr)) {
                        Some(v) if rid == self.main => v.clone(),
                        _ => dirty_tuple.map_or(Value::Null, |d| d.get(attr).clone()),
                    };
                    // Injected duplicates are absent from `clean`; their
                    // oracle is the recorded value, or the dirty one.
                    let clean = match clean_tuple {
                        Some(c) => c.get(attr).clone(),
                        None => w
                            .truth
                            .correct_value(&CellRef::new(rid, from, attr))
                            .cloned()
                            .unwrap_or_else(|| entered.clone()),
                    };
                    if *t.get(attr) != entered {
                        if *t.get(attr) == clean {
                            tp += 1;
                        } else {
                            fp += 1;
                        }
                    } else if entered != clean {
                        fn_ += 1;
                    }
                }
            }
        }
        Metrics::new(tp, fp, fn_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_workloads::workload::GenConfig;

    fn bank() -> Workload {
        // Enough customers that the held-out quarter outlasts 12 batches.
        rock_workloads::bank::generate(&GenConfig {
            rows: 700,
            ..Default::default()
        })
    }

    #[test]
    fn one_seed_one_stream_two_seeds_two_streams() {
        let w = bank();
        let a = Stream::generate(&w, 42, 12).encode();
        let b = Stream::generate(&w, 42, 12).encode();
        let c = Stream::generate(&w, 7, 12).encode();
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a, c);
    }

    #[test]
    fn the_mix_is_as_specified_and_every_update_applies() {
        let w = bank();
        let s = Stream::generate(&w, 42, 12);
        assert_eq!(s.batches.len(), 12);
        let all: Vec<&Update> = s.batches.iter().flat_map(|d| &d.updates).collect();
        assert_eq!(all.len(), 12 * UPDATES_PER_BATCH);
        let inserts = all
            .iter()
            .filter(|u| matches!(u, Update::Insert { .. }))
            .count();
        let deletes = all
            .iter()
            .filter(|u| matches!(u, Update::Delete { .. }))
            .count();
        assert!((130..=200).contains(&inserts), "{inserts} inserts of 240");
        assert!((8..=45).contains(&deletes), "{deletes} deletes of 240");

        // Held-out tuples are gone from the base and nothing else is.
        let main = w.dirty.relation(s.main);
        assert_eq!(s.base.relation(s.main).len(), main.len() - main.len() / 4);

        // Folding the raw batches (no chase) hits only live tuples and
        // lands on the predicted capacity.
        let mut db = s.base.clone();
        for (i, d) in s.batches.iter().enumerate() {
            for u in &d.updates {
                match u {
                    Update::Delete { tid, .. } | Update::SetCell { tid, .. } => {
                        assert!(db.relation(s.main).get(*tid).is_some(), "{u:?} misses");
                    }
                    Update::Insert { .. } => {}
                }
            }
            db.apply(d).unwrap();
            assert_eq!(db.relation(s.main).capacity(), s.expected_capacity(i + 1));
        }
        // Unrepaired, the fold has errors to find and no changes to credit.
        let m = s.score(&db, &w);
        assert_eq!((m.tp, m.fp), (0, 0));
        assert!(m.fn_ > 0);
    }
}
