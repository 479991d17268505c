//! A seeded stream of ΔD batches over a generated application, for
//! folding through `run_incremental`.
//!
//! The last quarter of the main relation's tuples is held out of the base
//! instance and arrives through the stream. Each update is, by a seeded
//! draw, an insert of the next held-out tuple (70 %), a `SetCell` that
//! overwrites one cell of a live tuple with another tuple's value (20 %),
//! or a delete (10 %). Overwrites and deletes hit only tuples that are
//! live before their batch and not trusted; a deleted tuple leaves the
//! pool, so no later update names it. The draws are those of the
//! benchmark harness's `bank-stream` generator, so a seed gives the same
//! batches in both.

use crate::workload::Workload;
use rock_data::rng::StdRng;
use rock_data::{AttrId, Database, Delta, FxHashSet, RelId, TupleId, Update};

/// Updates per ΔD batch.
pub const UPDATES_PER_BATCH: usize = 20;

/// The base instance (the dirty database without the held-out tuples) and
/// `n_batches` batches over the workload's first relation, its principal
/// entity table (Bank: Customer).
pub fn generate(w: &Workload, seed: u64, n_batches: usize) -> (Database, Vec<Delta>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let main = RelId(0);
    let dirty = w.dirty.relation(main);
    let arity = dirty.schema.arity();
    let tids: Vec<TupleId> = dirty.tids().collect();
    let (kept, held) = tids.split_at(tids.len() - tids.len() / 4);

    let mut base = w.dirty.clone();
    for tid in held {
        base.relation_mut(main).delete(*tid);
    }
    let trusted: FxHashSet<TupleId> = w
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

    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        // The first `eligible` pool entries are the tuples live before
        // this batch: no update depends on an insert of its own batch.
        let mut eligible = pool.len();
        let mut updates = Vec::with_capacity(UPDATES_PER_BATCH);
        for _ in 0..UPDATES_PER_BATCH {
            let draw = rng.gen_range(0..10usize);
            let insert = if draw < 7 { held.next() } else { None };
            // Held-out tuples and donors are drawn from `dirty`'s live
            // tids, so both lookups succeed (the tests pin it).
            if let Some(t) = insert.and_then(|&from| dirty.get(from)) {
                updates.push(Update::Insert {
                    rel: main,
                    eid: t.eid,
                    values: t.values.clone(),
                });
                pool.push(TupleId(next_tid));
                next_tid += 1;
            } else if draw == 9 && eligible > 1 {
                let i = rng.gen_range(0..eligible);
                let tid = pool[i];
                pool[i] = pool[eligible - 1];
                pool.swap_remove(eligible - 1);
                eligible -= 1;
                updates.push(Update::Delete { rel: main, tid });
            } else {
                let tid = pool[rng.gen_range(0..eligible)];
                let attr = AttrId(rng.gen_range(0..arity) as u16);
                let donor = tids[rng.gen_range(0..tids.len())];
                if let Some(value) = dirty.cell(donor, attr) {
                    updates.push(Update::SetCell {
                        rel: main,
                        tid,
                        attr,
                        value: value.clone(),
                    });
                }
            }
        }
        batches.push(Delta::new(updates));
    }
    (base, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GenConfig;

    #[test]
    fn every_update_names_a_live_untrusted_tuple() {
        let w = crate::bank::generate(&GenConfig {
            rows: 300,
            ..Default::default()
        });
        let (base, batches) = generate(&w, 42, 8);
        assert_eq!(batches, generate(&w, 42, 8).1, "one seed, one stream");
        let main = RelId(0);
        let trusted: FxHashSet<TupleId> = w
            .trusted
            .iter()
            .filter(|g| g.rel == main)
            .map(|g| g.tid)
            .collect();
        let mut db = base;
        let mut deletes = 0;
        for d in &batches {
            assert_eq!(d.updates.len(), UPDATES_PER_BATCH);
            for u in &d.updates {
                if let Update::Delete { tid, .. } | Update::SetCell { tid, .. } = u {
                    assert!(db.relation(main).get(*tid).is_some(), "{u:?} misses");
                    assert!(!trusted.contains(tid), "{u:?} hits a trusted tuple");
                    deletes += matches!(u, Update::Delete { .. }) as usize;
                }
            }
            db.apply(d).unwrap();
        }
        assert!(deletes > 0, "the stream must delete");
    }

    /// Inserts replay the held-out tuples in order, and every overwrite
    /// copies a live donor cell of the same attribute: both lookups in
    /// `generate` find a live tuple, so no update is dropped.
    #[test]
    fn held_out_and_donor_tuples_are_live() {
        let w = crate::bank::generate(&GenConfig {
            rows: 300,
            ..Default::default()
        });
        let (base, batches) = generate(&w, 7, 12);
        let main = RelId(0);
        let dirty = w.dirty.relation(main);
        let updates: Vec<&Update> = batches.iter().flat_map(|d| &d.updates).collect();
        assert_eq!(updates.len(), 12 * UPDATES_PER_BATCH);
        let inserted: Vec<_> = updates
            .iter()
            .filter_map(|u| match u {
                Update::Insert { eid, values, .. } => Some((*eid, values.clone())),
                _ => None,
            })
            .collect();
        let held: Vec<_> = dirty
            .iter()
            .filter(|t| base.relation(main).get(t.tid).is_none())
            .take(inserted.len())
            .map(|t| (t.eid, t.values.clone()))
            .collect();
        assert!(!inserted.is_empty());
        assert_eq!(inserted, held);
        for u in &updates {
            if let Update::SetCell { attr, value, .. } = u {
                assert!(dirty.iter().any(|t| t.get(*attr) == value), "{u:?}");
            }
        }
    }
}
