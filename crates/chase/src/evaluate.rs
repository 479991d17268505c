//! The production evaluation phase: semi-naive delta rounds over Crystal
//! work units (paper §4.1 incremental evaluation, DESIGN.md "Semi-naive
//! delta rounds").
//!
//! A rule's first run is a full scan, partitioned on its first variable.
//! Every later run — and every run of an incremental chase — is a *delta
//! round*: one pass per tuple variable pins that variable to the tuples
//! touched since the rule last ran ([`Frontier::pending`]), and valuations
//! binding no touched tuple re-emit what they emitted then from the
//! per-rule carry. A valuation whose tuples, oracles and gate inputs are
//! all unchanged emits exactly what it emitted before, so the round's
//! proposal set equals a full re-scan's (`crate::reference` is that
//! re-scan; `tests/engine_equivalence.rs` holds the two together).

use crate::chase::ChaseEngine;
use crate::commit::{Committed, Support};
use crate::delta::{DeltaSet, RoundStats};
use crate::fixes::FixStore;
use crate::proposal::{visit_valuation, with_context, Emission, Proposal};
use rock_crystal::work::{partition_range, Partition};
use rock_crystal::{Cluster, FaultStats, UnitFailure, WorkUnit};
use rock_data::{Database, FxHashMap, FxHashSet, TupleId};
use rock_ml::{MlBlockIndex, ModelRegistry, PairSignature};
use rock_rees::eval::{
    enumerate_valuations_restricted, enumerate_valuations_with_candidates, EvalContext,
};
use rock_rees::{Predicate, Rule};

/// Work-unit payload tag (see [`WorkUnit::payload`]): scan the partition's
/// slot range of variable 0 in full.
const PAYLOAD_FULL: u64 = 0;
/// `PAYLOAD_PINNED_BASE + v`: pin tuple variable `v` to a chunk of the
/// rule's pending-delta ones-list; the partition's `[start, end)` indexes
/// into that shared list.
const PAYLOAD_PINNED_BASE: u64 = 1;

/// Per-rule semi-naive state carried across rounds (and checkpoints).
pub(crate) struct Frontier {
    /// Incremental run: there is no full scan, round 1 is already a delta
    /// round over the tuples ΔD touched.
    pub seeded: bool,
    /// Per-rule delta accumulated since the rule last completed a round.
    pub pending: Vec<DeltaSet>,
    /// Emissions of each rule's last completed round, keyed by the
    /// valuation's bound tuples; `None` until the rule has run.
    pub carry: Vec<Option<Vec<Emission>>>,
    /// Union of every delta since chase start. Blocking-pruned pinned
    /// enumeration unions this into the non-pinned candidates: block-mate
    /// lists are build-time state, so tuples rewritten after the index was
    /// built must always stay candidates.
    pub cumulative: DeltaSet,
}

impl Frontier {
    pub fn new(db: &Database, nrules: usize, seed: Option<DeltaSet>) -> Self {
        let seeded = seed.is_some();
        let start = seed.unwrap_or_else(|| DeltaSet::empty(db));
        Frontier {
            seeded,
            pending: vec![start.clone(); nrules],
            carry: vec![None; nrules],
            cumulative: start,
        }
    }

    /// Fold one round's committed delta into every rule's pending set.
    pub fn absorb(&mut self, delta: &DeltaSet) {
        self.cumulative.union_with(delta);
        for p in &mut self.pending {
            p.union_with(delta);
        }
    }

    /// A rule with nothing to complete a delta round with scans in full.
    fn full_scan(&self, ri: usize) -> bool {
        !self.seeded && self.carry[ri].is_none()
    }
}

/// One round's evaluation outcome.
pub(crate) struct Evaluation {
    /// Sorted by [`Proposal::key`], deduplicated.
    pub proposals: Vec<Proposal>,
    /// Supporting valuations per proposal (durable runs only).
    pub support: Option<Support>,
    /// Rules with a quarantined unit. Their round is voided — nothing they
    /// emitted commits, and carry and pending stay as they were, exactly as
    /// if the rule had been inactive — and they retry next round.
    pub failed: FxHashSet<usize>,
    pub unit_seconds: Vec<f64>,
    pub faults: FaultStats,
    pub failures: Vec<UnitFailure>,
}

/// Evaluate the `active` rules (ascending) against the committed state.
pub(crate) fn evaluate(
    engine: &ChaseEngine<'_>,
    cluster: &Cluster,
    st: &Committed,
    frontier: &mut Frontier,
    active: &[usize],
    capture: bool,
    stat: &mut RoundStats,
) -> Evaluation {
    // Full scans partition var0's slot range; pinned delta units partition
    // the rule's pending ones-list for one variable (symmetric over
    // variables, so every delta-touching valuation is reached).
    let mut units = Vec::new();
    let mut pinned_lists: FxHashMap<(usize, usize), Vec<TupleId>> = FxHashMap::default();
    let parts = engine.config.partitions_per_rule;
    for &ri in active {
        let rule = &engine.rules.rules[ri];
        if frontier.full_scan(ri) {
            let rel0 = rule.rel_of(0);
            let rows = st.db.relation(rel0).capacity() as u32;
            let mut ranges = partition_range(rel0.0, rows, parts);
            if rows == 0 {
                ranges.push(Partition::new(rel0.0, 0, 0));
            }
            units.extend(
                ranges
                    .into_iter()
                    .map(|p| WorkUnit::new(ri as u32, vec![p]).with_payload(PAYLOAD_FULL)),
            );
            continue;
        }
        stat.delta_tuples += frontier.pending[ri].count();
        for v in 0..rule.tuple_vars.len() {
            let rel = rule.rel_of(v);
            let ones = frontier.pending[ri].ones_vec(rel);
            if ones.is_empty() {
                continue;
            }
            let payload = PAYLOAD_PINNED_BASE + v as u64;
            units.extend(
                partition_range(rel.0, ones.len() as u32, parts)
                    .into_iter()
                    .map(|p| WorkUnit::new(ri as u32, vec![p]).with_payload(payload)),
            );
            pinned_lists.insert((ri, v), ones);
        }
    }

    let unit_rules: Vec<usize> = units.iter().map(|u| u.rule as usize).collect();
    let frontier_ref = &*frontier;
    let outcome = with_context(engine, st, true, |ctx| {
        cluster.execute(units, |unit| {
            Ok(run_unit(
                engine,
                ctx,
                &st.fixes,
                frontier_ref,
                &pinned_lists,
                unit,
            ))
        })
    });

    let failed: FxHashSet<usize> = outcome.failures.iter().map(|f| f.rule as usize).collect();
    let mut per_rule: FxHashMap<usize, Vec<Emission>> = FxHashMap::default();
    for (ri, res) in unit_rules.iter().zip(outcome.results) {
        let Some((ems, cnt)) = res else { continue };
        stat.valuations += cnt;
        per_rule.entry(*ri).or_default().extend(ems);
    }
    let mut support = capture.then(Support::default);
    let mut proposals: Vec<Proposal> = Vec::new();
    for &ri in active {
        if failed.contains(&ri) {
            // partial emissions could miss valuations: nothing commits
            continue;
        }
        let mut emissions = per_rule.remove(&ri).unwrap_or_default();
        if let Some(prev) = &frontier.carry[ri] {
            let pend = &frontier.pending[ri];
            // untouched valuations re-emit verbatim; touched ones were
            // re-derived (or retracted) by the delta enumeration
            let untouched = prev
                .iter()
                .filter(|(tids, _)| !tids.iter().any(|gt| pend.contains(gt.rel, gt.tid)));
            let before = emissions.len();
            emissions.extend(untouched.cloned());
            stat.carried += emissions.len() - before;
        }
        emissions.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.key().cmp(&b.1.key())));
        emissions.dedup();
        for (tids, p) in &emissions {
            if let Some(support) = &mut support {
                support.entry(p.key()).or_default().extend(tids);
            }
            proposals.push(p.clone());
        }
        frontier.carry[ri] = Some(emissions);
        // the rule consumed its pending delta
        frontier.pending[ri].clear();
    }
    proposals.sort_by_key(|p| p.key());
    proposals.dedup();
    if let Some(support) = &mut support {
        for v in support.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
    }
    stat.proposals = proposals.len();
    Evaluation {
        proposals,
        support,
        failed,
        unit_seconds: outcome.stats.unit_seconds,
        faults: outcome.stats.faults,
        failures: outcome.failures,
    }
}

/// Evaluate one work unit: its emissions and the valuations it enumerated.
fn run_unit(
    engine: &ChaseEngine<'_>,
    ctx: &EvalContext<'_>,
    fixes: &FixStore,
    frontier: &Frontier,
    pinned_lists: &FxHashMap<(usize, usize), Vec<TupleId>>,
    unit: &WorkUnit,
) -> (Vec<Emission>, u64) {
    let ri = unit.rule as usize;
    let rule = &engine.rules.rules[ri];
    let gate = engine.config.gate;
    let (start, end) = (unit.partitions[0].start, unit.partitions[0].end);
    let mut out: Vec<Emission> = Vec::new();
    let mut count = 0u64;
    if unit.payload == PAYLOAD_FULL {
        enumerate_valuations_restricted(rule, ctx, Some((0, start..end)), |h| {
            count += 1;
            visit_valuation(rule, unit.rule, h, ctx, gate, fixes, &mut out);
            true
        });
        return (out, count);
    }
    let v = (unit.payload - PAYLOAD_PINNED_BASE) as usize;
    let chunk = &pinned_lists[&(ri, v)][start as usize..end as usize];
    let pend = &frontier.pending[ri];
    let mut overrides: FxHashMap<usize, Vec<TupleId>> = FxHashMap::default();
    overrides.insert(v, chunk.to_vec());
    prune_with_blocking(
        rule,
        v,
        chunk,
        engine.blocking,
        engine.registry,
        &frontier.cumulative,
        ctx.db,
        &mut overrides,
    );
    enumerate_valuations_with_candidates(rule, ctx, &overrides, |h| {
        count += 1;
        // symmetric passes overlap: a valuation is handled by the pass
        // pinning its first delta variable only
        if !(0..v).any(|w| pend.contains(h.tuples[w].rel, h.tuples[w].tid)) {
            visit_valuation(rule, unit.rule, h, ctx, gate, fixes, &mut out);
        }
        true
    });
    (out, count)
}

/// Blocking-pruned pair enumeration: for each tuple variable paired with
/// the pinned variable by an ML predicate, restrict its candidates to the
/// pinned chunk's block-mates plus the cumulative dirty set.
///
/// Soundness: a pair excluded here has both projections unchanged since the
/// index build (the pinned side is checked against its build-time key
/// below; the other side would be in `dirty` otherwise), was no LSH
/// candidate at build time, and is therefore excluded by the model's block
/// filter — the full scan would evaluate it to `false` anyway. Pruning is
/// skipped (full fallback for that variable) when the index or block filter
/// is missing or any pinned tuple's projection changed.
#[allow(clippy::too_many_arguments)]
fn prune_with_blocking(
    rule: &Rule,
    pinned: usize,
    chunk: &[TupleId],
    blocking: Option<&MlBlockIndex>,
    registry: &ModelRegistry,
    dirty: &DeltaSet,
    db: &Database,
    overrides: &mut FxHashMap<usize, Vec<TupleId>>,
) {
    let Some(index) = blocking else {
        return;
    };
    for p in &rule.precondition {
        let Predicate::Ml {
            model,
            lvar,
            lattrs,
            rvar,
            rattrs,
        } = p
        else {
            continue;
        };
        if lvar == rvar {
            continue;
        }
        let (other, pinned_left) = if *lvar == pinned {
            (*rvar, true)
        } else if *rvar == pinned {
            (*lvar, false)
        } else {
            continue;
        };
        if overrides.contains_key(&other) {
            continue; // first applicable predicate wins
        }
        let id = model.resolved();
        if !registry.has_block_filter(id) {
            continue;
        }
        let sig = PairSignature {
            model: id,
            lrel: rule.rel_of(*lvar),
            lattrs: lattrs.clone(),
            rrel: rule.rel_of(*rvar),
            rattrs: rattrs.clone(),
        };
        let Some(pair_idx) = index.get(&sig) else {
            continue;
        };
        // every pinned tuple must still project to its build-time key,
        // otherwise its mate list is stale and pruning would be unsound
        let attrs = if pinned_left { lattrs } else { rattrs };
        let rel = db.relation(rule.rel_of(pinned));
        let fresh = chunk.iter().all(|tid| match rel.get(*tid) {
            Some(t) => {
                pair_idx.build_key(*tid, pinned_left)
                    == Some(ModelRegistry::pair_key(&t.project(attrs)))
            }
            None => true, // dead tuples bind nothing
        });
        if !fresh {
            continue;
        }
        let mut cands: Vec<TupleId> = Vec::new();
        for tid in chunk {
            cands.extend_from_slice(pair_idx.mates(*tid, pinned_left));
        }
        cands.extend(dirty.ones_vec(rule.rel_of(other)));
        cands.sort_unstable();
        cands.dedup();
        overrides.insert(other, cands);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{ChaseConfig, GateMode};
    use rock_crystal::{ClusterConfig, FaultPlan};
    use rock_data::{AttrType, DatabaseSchema, RelId, RelationSchema, Value};
    use rock_rees::{parse_rules, RuleSet};

    /// A voided round is an inactive round: the quarantined rule commits
    /// nothing and keeps both its carry and its pending delta, so its retry
    /// emits what the voided round would have — including the carried
    /// emissions of valuations nothing has touched since.
    #[test]
    fn voided_round_keeps_carry_and_pending() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("k", AttrType::Str), ("a", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        for (k, a) in [("k0", "a0"), ("k0", "a1"), ("k1", "a2"), ("k1", "a3")] {
            db.relation_mut(RelId(0))
                .insert_row(vec![Value::str(k), Value::str(a)])
                .unwrap();
        }
        let rules = RuleSet::new(
            parse_rules("rule r: T(t) && T(s) && t.k = s.k -> t.a = s.a", &schema).unwrap(),
        );
        let reg = ModelRegistry::new();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let st = Committed::seed(db.clone(), FixStore::new(), &[], GateMode::Resolved);
        let mut seed = DeltaSet::empty(&db);
        seed.mark(RelId(0), TupleId(0));
        seed.mark(RelId(0), TupleId(2));
        let mut frontier = Frontier::new(&db, 1, Some(seed));
        let clean = Cluster::with_config(1, ClusterConfig::default());
        let round = |cluster: &Cluster, frontier: &mut Frontier| {
            let mut stat = RoundStats::default();
            let ev = evaluate(&engine, cluster, &st, frontier, &[0], false, &mut stat);
            (ev, stat)
        };

        let (first, _) = round(&clean, &mut frontier);
        assert_eq!(first.proposals.len(), 4, "both orientations per key group");
        assert!(frontier.pending[0].is_empty());

        // some commit touches the k1 group only, then the rule's round is voided
        let mut touched = DeltaSet::empty(&db);
        touched.mark(RelId(0), TupleId(2));
        frontier.absorb(&touched);
        let (carry, pending) = (frontier.carry[0].clone(), frontier.pending[0].clone());
        rock_crystal::fault::silence_injected_panics();
        let poisoned = Cluster::with_config(
            1,
            ClusterConfig::default()
                .with_fault_plan(FaultPlan::seeded(1).with_poison(vec![0]))
                .with_max_retries(0),
        );
        let (voided, _) = round(&poisoned, &mut frontier);
        assert!(voided.failed.contains(&0) && voided.proposals.is_empty());
        assert_eq!(frontier.carry[0], carry, "a voided round keeps the carry");
        assert_eq!(frontier.pending[0], pending, "and the pending delta");

        // the retry re-derives the k1 group and carries the untouched k0 one
        let (retry, stat) = round(&clean, &mut frontier);
        assert_eq!(retry.proposals, first.proposals);
        assert_eq!(stat.carried, 2);
    }
}
