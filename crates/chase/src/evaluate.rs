//! The production evaluation phase: semi-naive delta rounds over Crystal
//! work units (paper §4.1 incremental evaluation, DESIGN.md "Semi-naive
//! delta chase").
//!
//! The units come from [`ScanPlan`], the scan plan detection uses too. A
//! rule's first run is a full scan. Every later run — and every run of an
//! incremental chase — is a plan delta pass over the tuples touched since
//! the rule last ran ([`Frontier::pending`]), so each touched valuation is
//! enumerated exactly once; valuations binding no touched tuple re-emit
//! what they emitted then from the per-rule carry. This module keeps what
//! only the chase has: the frontier and the carry. A valuation whose
//! tuples, oracles and gate inputs are all unchanged emits exactly what it
//! emitted before, so the round's proposal set equals a full re-scan's
//! (`crate::reference` is that re-scan; `tests/engine_equivalence.rs`
//! holds the two together). Every enumerated valuation reaches the one
//! leaf, `visit_valuation`: under [`GateMode::Resolved`] it drops a
//! valuation whose consequence already holds, and Strict records that
//! consequence in U.
//!
//! Under Resolved, an FD-shaped rule ([`FdShape`]) runs per join run
//! instead (`rock_rees::runs`): each run emits one [`Proposal::EquateGroup`]
//! per connected component of its violating pairs, supported by the union
//! of their tuples, and its carry is kept per run ([`Carry::Runs`]). A
//! delta round re-histograms the runs that hold a pending tuple now or
//! held one when their carried groups were emitted, and carries every
//! other run's groups verbatim. An incremental chase restricts each run to
//! the pairs binding a tuple of its cumulative delta — the valuations the
//! pairwise delta rounds would ever have enumerated.

use crate::chase::{ChaseEngine, GateMode};
use crate::commit::{Committed, Support};
use crate::fixes::FixStore;
use crate::proposal::{visit_valuation, with_context, Emission, Proposal};
use rock_crystal::{Cluster, FaultStats, UnitFailure, WorkUnit};
use rock_data::{CellRef, Database, DeltaSet, FxHashMap, FxHashSet, GlobalTid};
use rock_rees::eval::{EvalContext, Valuation};
use rock_rees::{FdRuns, FdShape, Run, RunKey, ScanPlan};

/// Per-round evaluation observability (surfaced by `debug_panel` and the
/// `chase-delta` figure panel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStats {
    /// Rules evaluated this round.
    pub active_rules: usize,
    /// Sum over delta-mode rules of their pending delta sizes (0 in
    /// full-scan rounds).
    pub delta_tuples: u64,
    /// Valuations that reached the leaf (callbacks) across all work units;
    /// a run unit counts its run's violating pairs.
    pub valuations: u64,
    /// Proposals after global dedup.
    pub proposals: usize,
    /// Carried emissions re-used without re-enumeration.
    pub carried: usize,
    /// Rules the rule graph removed from this round's classic activation.
    pub rules_pruned: usize,
}

rock_data::json_codec!(struct RoundStats {
    active_rules, delta_tuples, valuations, proposals, carried, rules_pruned,
});

/// A rule's emissions from its last completed round, as the next round
/// carries them.
#[derive(Debug, Clone, PartialEq)]
pub enum Carry {
    /// Per valuation: the tuples it bound and its proposal.
    Pairs(Vec<Emission>),
    /// Per join run of an FD-shaped rule, ascending by key: its equate
    /// groups, each with the union of its pairs' tuples.
    Runs(Vec<(RunKey, Vec<Emission>)>),
}

rock_data::json_codec!(tagged Carry {
    Pairs(pairs),
    Runs(runs),
});

impl Carry {
    fn emissions(&self) -> Box<dyn Iterator<Item = &Emission> + '_> {
        match self {
            Carry::Pairs(e) => Box::new(e.iter()),
            Carry::Runs(runs) => Box::new(runs.iter().flat_map(|(_, groups)| groups)),
        }
    }
}

/// Per-rule semi-naive state carried across rounds (and checkpoints).
pub(crate) struct Frontier {
    /// Incremental run: there is no full scan, round 1 is already a delta
    /// round over the tuples ΔD touched.
    pub seeded: bool,
    /// Per-rule delta accumulated since the rule last completed a round.
    pub pending: Vec<DeltaSet>,
    /// Emissions of each rule's last completed round; `None` until the
    /// rule has run.
    pub carry: Vec<Option<Carry>>,
    /// Union of every delta since chase start. An incremental chase
    /// restricts FD-shaped rules' join runs to the pairs binding one of
    /// these tuples.
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
    let mut plan = ScanPlan::new(engine.rules, &st.db, engine.config.partitions_per_rule);
    for &ri in active {
        let fd = per_run(engine, ri)
            .then(|| FdRuns::new(&engine.rules.rules[ri], &st.db))
            .flatten();
        if let Some(mut fd) = fd {
            if frontier.seeded {
                fd.restrict(&frontier.cumulative);
            }
            let keys = if frontier.full_scan(ri) {
                fd.all_keys()
            } else {
                let pend = &frontier.pending[ri];
                stat.delta_tuples += pend.count();
                affected_runs(&fd, pend, frontier.carry[ri].as_ref())
            };
            plan.runs(ri, fd, keys);
            continue;
        }
        if frontier.full_scan(ri) {
            plan.full(ri);
            continue;
        }
        let pend = &frontier.pending[ri];
        stat.delta_tuples += pend.count();
        plan.delta(ri, pend);
    }

    let units = plan.units();
    let unit_rules: Vec<usize> = units.iter().map(|u| u.rule as usize).collect();
    let outcome = with_context(engine, st, true, |ctx| {
        cluster.execute(units, |unit| {
            Ok(run_unit(engine, ctx, &st.fixes, &plan, unit))
        })
    });

    let failed: FxHashSet<usize> = outcome.failures.iter().map(|f| f.rule as usize).collect();
    let mut per_rule: FxHashMap<usize, UnitOut> = FxHashMap::default();
    for (ri, res) in unit_rules.iter().zip(outcome.results) {
        let Some(out) = res else { continue };
        stat.valuations += out.valuations;
        let acc = per_rule.entry(*ri).or_default();
        acc.pairs.extend(out.pairs);
        acc.runs.extend(out.runs);
    }
    let mut support = capture.then(Support::default);
    let mut proposals: Vec<Proposal> = Vec::new();
    for &ri in active {
        if failed.contains(&ri) {
            // partial emissions could miss valuations: nothing commits
            continue;
        }
        let out = per_rule.remove(&ri).unwrap_or_default();
        let carry = if per_run(engine, ri) {
            let mut runs: Vec<(RunKey, Vec<Emission>)> = Vec::new();
            if let Some(Carry::Runs(prev)) = frontier.carry[ri].take() {
                // runs nothing touched re-emit their groups verbatim; every
                // recomputed run is in `out`, with its groups or none
                let recomputed: FxHashSet<&RunKey> = out.runs.iter().map(|(k, _)| k).collect();
                runs.extend(prev.into_iter().filter(|(k, _)| !recomputed.contains(k)));
                stat.carried += runs.iter().map(|(_, g)| g.len()).sum::<usize>();
            }
            runs.extend(out.runs.into_iter().filter(|(_, g)| !g.is_empty()));
            runs.sort_by(|a, b| a.0.cmp(&b.0));
            Carry::Runs(runs)
        } else {
            let mut emissions = out.pairs;
            if let Some(Carry::Pairs(prev)) = frontier.carry[ri].take() {
                let pend = &frontier.pending[ri];
                // untouched valuations re-emit verbatim; touched ones were
                // re-derived (or retracted) by the delta enumeration
                let untouched = prev
                    .into_iter()
                    .filter(|(tids, _)| !tids.iter().any(|gt| pend.contains(gt.rel, gt.tid)));
                let before = emissions.len();
                emissions.extend(untouched);
                stat.carried += emissions.len() - before;
            }
            sort_emissions(&mut emissions);
            emissions.dedup();
            Carry::Pairs(emissions)
        };
        for (tids, p) in carry.emissions() {
            if let Some(support) = &mut support {
                support.entry(p.key()).or_default().extend(tids);
            }
            proposals.push(p.clone());
        }
        frontier.carry[ri] = Some(carry);
        // the rule consumed its pending delta
        frontier.pending[ri].clear();
    }
    proposals.sort_by_cached_key(Proposal::key);
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

/// Sort by the bound tuples, then by [`Proposal::key`]: a valuation that
/// emits several proposals breaks the tie on their keys, each built once.
fn sort_emissions(emissions: &mut [Emission]) {
    emissions.sort_by(|a, b| a.0.cmp(&b.0));
    let mut start = 0;
    while start < emissions.len() {
        let tied = emissions[start..]
            .iter()
            .take_while(|e| e.0 == emissions[start].0)
            .count();
        if tied > 1 {
            emissions[start..start + tied].sort_by_cached_key(|e| e.1.key());
        }
        start += tied;
    }
}

/// Whether rule `ri` evaluates per join run: an FD-shaped rule under the
/// Resolved gate. Strict keeps the pairwise path, which records satisfied
/// consequences and checks validated cells per valuation.
pub(crate) fn per_run(engine: &ChaseEngine<'_>, ri: usize) -> bool {
    engine.config.gate == GateMode::Resolved && FdShape::of(&engine.rules.rules[ri]).is_some()
}

/// The runs a delta round of an FD-shaped rule re-histograms: every run
/// holding a pending tuple now, and every run whose carried groups held
/// one when they were emitted (the tuple may have left the run since, or
/// flipped a filter, or nulled its cell).
fn affected_runs(fd: &FdRuns<'_>, pend: &DeltaSet, carry: Option<&Carry>) -> Vec<RunKey> {
    let mut keys = fd.marked_keys(pend);
    if let Some(Carry::Runs(runs)) = carry {
        let mut seen: FxHashSet<RunKey> = keys.iter().cloned().collect();
        for (key, groups) in runs {
            let held = groups
                .iter()
                .any(|(tids, _)| tids.iter().any(|g| pend.contains(g.rel, g.tid)));
            if held && seen.insert(key.clone()) {
                keys.push(key.clone());
            }
        }
    }
    keys
}

/// One work unit's output.
#[derive(Default)]
struct UnitOut {
    /// Emissions of a pair unit.
    pairs: Vec<Emission>,
    /// Equate groups of each run of a run unit.
    runs: Vec<(RunKey, Vec<Emission>)>,
    /// Valuations enumerated (a run counts its violating pairs).
    valuations: u64,
}

/// Evaluate one work unit.
fn run_unit(
    engine: &ChaseEngine<'_>,
    ctx: &EvalContext<'_>,
    fixes: &FixStore,
    plan: &ScanPlan<'_>,
    unit: &WorkUnit,
) -> UnitOut {
    let mut out = UnitOut::default();
    if let Some((fd, keys)) = plan.runs_of(unit) {
        for key in keys {
            let run = fd.run(key);
            let violations = run.violations();
            out.valuations += violations;
            let groups = match violations {
                0 => Vec::new(),
                _ => equate_groups(&fd.shape, unit.rule, &run),
            };
            out.runs.push((key.clone(), groups));
        }
        return out;
    }
    let rule = &engine.rules.rules[unit.rule as usize];
    let gate = engine.config.gate;
    plan.run(ctx, unit, |h: &Valuation| {
        out.valuations += 1;
        visit_valuation(rule, unit.rule, h, ctx, gate, fixes, &mut out.pairs);
        true
    });
    out
}

/// One `EquateGroup` per connected component of a run's violating pairs,
/// supported by the union of the pairs' tuples.
fn equate_groups(shape: &FdShape, rule: u32, run: &Run) -> Vec<Emission> {
    let tid = |(side, i): (usize, u32)| run.sides[side][i as usize].tid;
    run.components(shape.shared_cells())
        .into_iter()
        .map(|comp| {
            let mut cells: Vec<CellRef> = comp.iter().map(|&n| shape.cell(n.0, tid(n))).collect();
            cells.sort_unstable();
            cells.dedup();
            let mut tids: Vec<GlobalTid> = comp.iter().map(|&n| shape.tuple(n.0, tid(n))).collect();
            tids.sort_unstable();
            tids.dedup();
            (tids, Proposal::EquateGroup { cells, rule })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{ChaseConfig, GateMode};
    use rock_crystal::{ClusterConfig, FaultPlan};
    use rock_data::{AttrType, DatabaseSchema, RelId, RelationSchema, TupleId, Value};
    use rock_ml::ModelRegistry;
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
        assert_eq!(first.proposals.len(), 2, "one equate group per key group");
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
        assert_eq!(stat.carried, 1, "the k0 run's group");
    }
}
