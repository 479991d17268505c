//! The §4.2 interaction chains, asserted explicitly: the errors that need
//! MI → ER → CR (Bank) or MI → ER → MI (Sales) chains are fixed by the
//! unified chase (and by the iterating Rockseq), but NOT by the single-pass
//! RocknoC — the mechanism behind Fig 4(i)/(j)'s ablation gap.

use rock::core::{RockConfig, RockSystem, Variant};
use rock::data::{AttrId, CellRef, RelId, Value};
use rock::workloads::workload::GenConfig;
use rock::workloads::{bank, sales};

fn cfg(seed: u64) -> GenConfig {
    GenConfig {
        rows: 180,
        error_rate: 0.08,
        seed,
        trusted_per_rel: 20,
    }
}

#[test]
fn bank_phone_chain_needs_iteration() {
    // chain: MI fills nulled phones -> ML ER merges cid-corrupted
    // duplicates -> CR repairs the duplicate's cid
    let w = bank::generate(&cfg(23));
    let task = w.task("CNC").unwrap().clone();
    // the chain's targets: corrupted duplicate cids
    let cid_errors: Vec<(CellRef, Value)> = w
        .truth
        .corrupted
        .iter()
        .filter(|(c, _)| c.rel == RelId(bank::rels::CUSTOMER) && c.attr == AttrId(bank::cust::CID))
        .map(|(c, v)| (*c, v.clone()))
        .collect();
    assert!(
        !cid_errors.is_empty(),
        "workload must corrupt duplicate cids"
    );

    let repaired_by = |variant: Variant| {
        let out = RockSystem::new(RockConfig {
            variant,
            ..RockConfig::default()
        })
        .correct(&w, &task);
        cid_errors
            .iter()
            .filter(|(c, correct)| out.repaired.cell(c.rel, c.tid, c.attr) == Some(correct))
            .count()
    };
    let rock = repaired_by(Variant::Rock);
    let seq = repaired_by(Variant::RockSeq);
    let noc = repaired_by(Variant::RockNoC);
    assert!(rock > 0, "the unified chase must complete the chain");
    assert_eq!(rock, seq, "Rockseq iterates to the same result");
    assert!(
        noc < rock,
        "single-pass RocknoC must miss chained cid repairs: noc={noc} rock={rock}"
    );
}

#[test]
fn sales_category_chain_needs_iteration() {
    // chain: MI fills nulled categories -> ER aligns Item↔ItemExt ->
    // MI imputes the manufactory from the aligned external row
    let w = sales::generate(&cfg(29));
    let task = w.task("SClean").unwrap().clone();
    // targets: Item rows whose mfg AND cat were both nulled
    let item = RelId(sales::rels::ITEM);
    let chained: Vec<CellRef> = w
        .truth
        .nulled
        .keys()
        .filter(|c| {
            c.rel == item
                && c.attr == AttrId(sales::item::MFG)
                && w.truth
                    .nulled
                    .contains_key(&CellRef::new(item, c.tid, AttrId(sales::item::CAT)))
        })
        .copied()
        .collect();
    assert!(!chained.is_empty(), "workload must null cat+mfg together");

    let filled_by = |variant: Variant| {
        let out = RockSystem::new(RockConfig {
            variant,
            ..RockConfig::default()
        })
        .correct(&w, &task);
        chained
            .iter()
            .filter(|c| {
                out.repaired
                    .cell(c.rel, c.tid, c.attr)
                    .map(|v| !v.is_null())
                    .unwrap_or(false)
            })
            .count()
    };
    let rock = filled_by(Variant::Rock);
    let noc = filled_by(Variant::RockNoC);
    assert_eq!(rock, chained.len(), "Rock fills every chained manufactory");
    assert!(
        noc < rock,
        "RocknoC misses chained imputations: {noc} vs {rock}"
    );
}

#[test]
fn incremental_correction_handles_new_dirty_rows() {
    let w = rock::workloads::logistics::generate(&cfg(31));
    let task = w.task("RClean").unwrap().clone();
    // a new scan event arrives with a wrong region
    let sample = w
        .dirty
        .relation(RelId(0))
        .iter()
        .next()
        .expect("non-empty")
        .clone();
    let mut values = sample.values.clone();
    values[4] = Value::str("West"); // region that contradicts the city FD
    let delta = rock::data::Delta::new(vec![rock::data::Update::Insert {
        rel: RelId(0),
        eid: rock::data::Eid(999_999),
        values,
    }]);
    let sys = RockSystem::new(RockConfig::default());
    let out = sys
        .correct_incremental(&w, &task, &delta)
        .expect("a well-formed insert");
    // the inserted row's region got reconciled with its city group
    let new_tid = rock::data::TupleId(w.dirty.relation(RelId(0)).capacity() as u32);
    let fixed = out.repaired.cell(RelId(0), new_tid, AttrId(4)).unwrap();
    assert_ne!(
        fixed,
        &Value::str("West"),
        "incremental chase must repair the insert"
    );
    assert!(out.changes > 0);
}
