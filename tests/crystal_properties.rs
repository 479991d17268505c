//! Property tests for the Crystal substrate: consistent-hash remapping
//! bounds, partial-order antisymmetry under random insertions, and
//! scheduler completeness.

mod common;

use common::check;
use rock::chase::PartialOrderStore;
use rock::crystal::ring::{ConsistentHashRing, NodeId};
use rock::crystal::work::{partition_range, Partition, WorkUnit};
use rock::crystal::Cluster;
use rock::data::TupleId;
use rock_data::FxHashMap;

const CASES: u64 = 24;

/// Removing a node only remaps that node's keys (the consistent-hash
/// guarantee of §5.1).
#[test]
fn ring_remaps_only_removed_nodes_keys() {
    check(CASES, |g| {
        let (nodes, removed) = (g.range(2usize..12), g.range(0usize..12));
        let keys = g.vec(10..80, |g| {
            g.string("abcdefghijklmnopqrstuvwxyz0123456789", 3..13)
        });
        let removed = removed % nodes;
        let mut ring = ConsistentHashRing::new(32);
        for i in 0..nodes {
            ring.add_node(NodeId(i as u32), &format!("10.1.0.{i}"));
        }
        let before: FxHashMap<&String, NodeId> = keys
            .iter()
            .map(|k| (k, ring.owner(k.as_bytes()).unwrap()))
            .collect();
        ring.remove_node(NodeId(removed as u32));
        for k in &keys {
            let after = ring.owner(k.as_bytes()).unwrap();
            if before[k] != NodeId(removed as u32) {
                assert_eq!(before[k], after, "key {} moved needlessly", k);
            } else {
                assert_ne!(after, NodeId(removed as u32));
            }
        }
    });
}

/// Partition ranges always cover [0, rows) exactly, contiguously, with
/// near-equal sizes.
#[test]
fn partitions_cover_exactly() {
    check(CASES, |g| {
        let (rows, units) = (g.range(0u32..5000), g.range(1u32..64));
        let parts = partition_range(0, rows, units);
        let total: u32 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rows);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        if let (Some(min), Some(max)) = (
            parts.iter().map(|p| p.len()).min(),
            parts.iter().map(|p| p.len()).max(),
        ) {
            assert!(max - min <= 1);
        }
    });
}

/// The scheduler executes every unit exactly once, in result order,
/// for any worker count.
#[test]
fn scheduler_executes_all() {
    check(CASES, |g| {
        let (units, workers) = (g.range(1usize..60), g.range(1usize..8));
        let us: Vec<WorkUnit> = (0..units)
            .map(|i| WorkUnit::new(i as u32, vec![Partition::new(0, i as u32, i as u32 + 1)]))
            .collect();
        let cluster = Cluster::new(workers);
        let outcome = cluster.execute(us, |u| Ok(u.rule));
        assert!(outcome.is_complete());
        assert_eq!(outcome.results.len(), units);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.unwrap() as usize, i);
        }
        assert_eq!(outcome.stats.executed.iter().sum::<u64>() as usize, units);
    });
}

/// Partial order: inserting random pairs never yields a state where
/// both `a ≺ b` and `b ⪯ a` hold.
#[test]
fn partial_order_antisymmetry() {
    check(CASES, |g| {
        let pairs = g.vec(1..40, |g| (g.range(0u32..6), g.range(0u32..6), g.bool()));
        let mut store = PartialOrderStore::new();
        for (a, b, strict) in &pairs {
            let _ = store.insert(TupleId(*a), TupleId(*b), *strict);
        }
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a == b {
                    continue;
                }
                let a_strictly_before_b = store.holds(TupleId(a), TupleId(b), true);
                let b_before_a = store.holds(TupleId(b), TupleId(a), false);
                assert!(
                    !(a_strictly_before_b && b_before_a),
                    "antisymmetry violated for ({a}, {b})"
                );
            }
        }
    });
}

/// Transitivity: whatever was accepted is transitively closed under
/// `holds`.
#[test]
fn partial_order_transitive() {
    check(CASES, |g| {
        let pairs = g.vec(1..20, |g| (g.range(0u32..5), g.range(0u32..5)));
        let mut store = PartialOrderStore::new();
        for (a, b) in &pairs {
            let _ = store.insert(TupleId(*a), TupleId(*b), false);
        }
        for a in 0..5u32 {
            for b in 0..5u32 {
                for c in 0..5u32 {
                    if store.holds(TupleId(a), TupleId(b), false)
                        && store.holds(TupleId(b), TupleId(c), false)
                    {
                        assert!(store.holds(TupleId(a), TupleId(c), false));
                    }
                }
            }
        }
    });
}
