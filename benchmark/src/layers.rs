//! Single-layer measurements taken from outside, through each crate's
//! public functions, on the workload's own data. They run after the traced
//! passes and outside any stage span: they explain the stage numbers and
//! are not part of them.

use crate::stats::{median, timed};
use crate::stream::{SplitMix64, UPDATES_PER_BATCH};
use rock_crystal::work::Partition;
use rock_crystal::{Cluster, WorkUnit};
use rock_data::{row_heap_bytes, Bitset, ColumnSet, Database, Delta, Update, Value};
use rock_rees::eval::enumerate_valuations;
use rock_rees::{EvalContext, Predicate, RuleSet};
use rock_workloads::Workload;
use std::hint::black_box;

fn median_timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).0).collect();
    median(&times)
}

/// AND + popcount over two 64 MiB bitsets, in GB/s of input read. The same
/// kernel on another machine gives another number, which is the point:
/// result sets from different machines can be told apart.
pub fn calib_bitset_gbps() -> f64 {
    const BITS: usize = 64 << 23;
    let a = Bitset::full(BITS);
    let mut b = Bitset::new(BITS);
    b.set_range(BITS / 4, BITS / 2);
    let s = median_timed(3, || {
        black_box(black_box(&a).and_popcount(black_box(&b)));
    });
    2.0 * (BITS / 8) as f64 / s / 1e9
}

/// Scheduling cost per unit: `units` no-op units through
/// `Cluster::execute`. Returns (µs per unit, units stolen).
pub fn crystal_overhead(workers: usize, units: usize) -> (f64, u64) {
    let cluster = Cluster::new(workers);
    // One distinct partition per unit, so placement spreads them over the
    // workers the way it spreads real rule x partition units.
    let work: Vec<WorkUnit> = (0..units as u32)
        .map(|i| WorkUnit::new(i, vec![Partition::new(0, i, i + 1)]))
        .collect();
    let (s, outcome) = timed(|| cluster.execute(work, |u| Ok(black_box(u.rule))));
    assert!(outcome.is_complete(), "no-op units cannot fail");
    (s / units as f64 * 1e6, outcome.stats.stolen.iter().sum())
}

/// `enumerate_valuations` for every rule over the dirty database, with no
/// chase around it. Returns (seconds, valuations).
pub fn rees_enumerate(w: &Workload, rules: &RuleSet) -> (f64, u64) {
    let ctx = EvalContext::new(&w.dirty, &w.registry);
    let ctx = match &w.graph {
        Some(g) => ctx.with_graph(g),
        None => ctx,
    };
    let mut valuations = 0u64;
    let (s, ()) = timed(|| {
        for rule in rules.iter() {
            enumerate_valuations(rule, &ctx, |_| {
                valuations += 1;
                true
            });
        }
    });
    (s, valuations)
}

pub struct DataLayer {
    pub column_build_s: f64,
    pub column_bytes: usize,
    pub row_bytes: usize,
    pub kernel_const_op_s: f64,
    pub kernel_rows: u64,
    pub clone_s: f64,
    pub apply_delta_s: f64,
    pub snapshot_after_write_s: f64,
}

pub fn data_layer(w: &Workload, rules: &RuleSet, seed: u64) -> DataLayer {
    let db = &w.dirty;
    let (column_build_s, sets) = timed(|| {
        db.iter()
            .map(|(_, rel)| ColumnSet::from_relation(rel))
            .collect::<Vec<_>>()
    });
    let column_bytes = sets.iter().map(ColumnSet::heap_bytes).sum();
    let row_bytes = db.iter().map(|(_, rel)| row_heap_bytes(rel)).sum();

    // Every unary constant predicate of the rules, as one kernel call each.
    let mut kernel_rows = 0u64;
    let (kernel_const_op_s, ()) = timed(|| {
        for rule in rules.iter() {
            for p in rule.all_predicates() {
                if let Predicate::Const {
                    var,
                    attr,
                    op,
                    value,
                } = p
                {
                    let cols = &sets[rule.rel_of(*var).0 as usize];
                    black_box(cols.eval_const_op(*attr, op.kernel(), value));
                    kernel_rows += cols.slots() as u64;
                }
            }
        }
    });

    let clone_s = median_timed(5, || {
        black_box(db.clone());
    });

    // One batch-sized ΔD of inserts into the largest relation, then the
    // column snapshot the next reader has to rebuild.
    let (main, rel) = db
        .iter()
        .max_by_key(|(_, rel)| rel.len())
        .expect("workload has a relation");
    let tids: Vec<_> = rel.tids().collect();
    let mut rng = SplitMix64(seed);
    let delta = Delta::new(
        (0..UPDATES_PER_BATCH)
            .map(|_| {
                let t = rel.get(tids[rng.below(tids.len())]).expect("live tuple");
                Update::Insert {
                    rel: main,
                    eid: t.eid,
                    values: t.values.clone(),
                }
            })
            .collect(),
    );
    let mut applied = Vec::new();
    let mut snapshot = Vec::new();
    for _ in 0..5 {
        let mut work: Database = db.clone();
        black_box(work.relation(main).columns());
        applied.push(timed(|| work.apply(&delta).expect("arity matches")).0);
        snapshot.push(timed(|| black_box(work.relation(main).columns())).0);
    }
    DataLayer {
        column_build_s,
        column_bytes,
        row_bytes,
        kernel_const_op_s,
        kernel_rows,
        clone_s,
        apply_delta_s: median(&applied),
        snapshot_after_write_s: median(&snapshot),
    }
}

/// Cost of one model inference and of one memoised lookup, in ns, over
/// `pairs` seeded tuple pairs of the first pair model the rules use.
/// (0, 0) when the rules use none.
pub fn ml_pair_ns(w: &Workload, rules: &RuleSet, seed: u64, pairs: usize) -> (f64, f64) {
    let Some((rule, model, lvar, lattrs, rvar, rattrs)) = rules.iter().find_map(|r| {
        r.all_predicates().find_map(|p| match p {
            Predicate::Ml {
                model,
                lvar,
                lattrs,
                rvar,
                rattrs,
            } => Some((r, model, *lvar, lattrs, *rvar, rattrs)),
            _ => None,
        })
    }) else {
        return (0.0, 0.0);
    };
    let id = model.resolved();
    let Some(classifier) = w.registry.pair(id) else {
        return (0.0, 0.0);
    };
    let mut rng = SplitMix64(seed);
    let mut side = |var, attrs: &[_]| -> Vec<Vec<Value>> {
        let rel = w.dirty.relation(rule.rel_of(var));
        let tids: Vec<_> = rel.tids().collect();
        (0..pairs)
            .map(|_| {
                rel.get(tids[rng.below(tids.len())])
                    .expect("live tuple")
                    .project(attrs)
            })
            .collect()
    };
    let left = side(lvar, lattrs);
    let right = side(rvar, rattrs);

    let (cold_s, ()) = timed(|| {
        for (a, b) in left.iter().zip(&right) {
            black_box(classifier.predict(a, b));
        }
    });
    // First pass answers every pair (from the model or the block filter);
    // the second finds each answer without running the model.
    for (a, b) in left.iter().zip(&right) {
        w.registry.predict_pair(id, a, b);
    }
    let (hit_s, ()) = timed(|| {
        for (a, b) in left.iter().zip(&right) {
            black_box(w.registry.predict_pair(id, a, b));
        }
    });
    (cold_s / pairs as f64 * 1e9, hit_s / pairs as f64 * 1e9)
}
