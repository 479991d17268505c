//! The reference chase: a deliberately naive implementation of the same
//! `Chase(D, Σ, Γ)` that production computes, kept so that
//! `tests/engine_equivalence.rs` (and the bench panels) can hold the two
//! together. It is meant to be checked by reading it:
//!
//! * every round, each activated rule enumerates **all** its valuations
//!   with `enumerate_valuations`, on one thread, with scalar predicate
//!   evaluation — no work units, no delta rounds, no carried emissions, no
//!   blocking index;
//! * activation is the classic lazy rule of §4.1: everything after a merge,
//!   otherwise the rules whose precondition reads a changed cell — no
//!   dependency graph, no dead-rule pruning;
//! * an incremental run applies ΔD and keeps the valuations binding a tuple
//!   in the *cumulative* delta (ΔD's tuples plus every tuple a commit has
//!   touched since).
//!
//! What it shares with production is what defines the chase rather than
//! how fast it runs: the valuation leaf (`visit_valuation`: distinctness,
//! the Strict gate, the consequence check, the proposal), the commit
//! phase, the seeding of Γ and the final ER materialization.

use crate::chase::{ChaseEngine, GateMode};
use crate::commit::{Committed, Committer};
use crate::evaluate::RoundStats;
use crate::fixes::FixStore;
use crate::proposal::{visit_valuation, with_context, Emission, Proposal};
use rock_data::{
    AttrId, CellRef, Database, Delta, DeltaSet, FxHashSet, GlobalTid, RelId, Update, Value,
};
use rock_rees::eval::enumerate_valuations;

/// What the reference chase computed — the fields production is compared on.
#[derive(Debug)]
pub struct ReferenceResult {
    pub db: Database,
    pub fixes: FixStore,
    pub rounds: usize,
    pub changes: Vec<(CellRef, Value, Value)>,
    pub merged_pairs: Vec<(GlobalTid, GlobalTid)>,
    pub conflicts: usize,
    pub steps: usize,
    /// `active_rules`, `valuations` and `proposals` per round.
    pub round_stats: Vec<RoundStats>,
}

/// Batch reference chase with `engine`'s rules, models, graph, gate, policy
/// and round budget.
pub fn run(engine: &ChaseEngine<'_>, db: &Database, trusted: &[GlobalTid]) -> ReferenceResult {
    run_seeded(engine, db, trusted, FixStore::new())
}

/// Batch reference chase continuing from an existing fix store.
pub fn run_seeded(
    engine: &ChaseEngine<'_>,
    db: &Database,
    trusted: &[GlobalTid],
    fixes: FixStore,
) -> ReferenceResult {
    chase(engine, db.clone(), trusted, fixes, None)
}

/// Incremental reference chase: apply ΔD, then chase the touched tuples.
pub fn run_incremental(
    engine: &ChaseEngine<'_>,
    db: &Database,
    trusted: &[GlobalTid],
    delta: &Delta,
) -> Result<ReferenceResult, rock_data::DataError> {
    run_incremental_seeded(engine, db, trusted, delta, FixStore::new())
}

/// Incremental reference chase continuing from an existing fix store.
pub fn run_incremental_seeded(
    engine: &ChaseEngine<'_>,
    db: &Database,
    trusted: &[GlobalTid],
    delta: &Delta,
    fixes: FixStore,
) -> Result<ReferenceResult, rock_data::DataError> {
    let mut work = db.clone();
    let mut inserted = work.apply(delta)?.into_iter();
    let mut seed = DeltaSet::empty(&work);
    for u in &delta.updates {
        match u {
            Update::Insert { rel, .. } => {
                if let Some(tid) = inserted.next() {
                    seed.mark(*rel, tid);
                }
            }
            Update::Delete { rel, tid } | Update::SetCell { rel, tid, .. } => seed.mark(*rel, *tid),
        }
    }
    Ok(chase(engine, work, trusted, fixes, Some(seed)))
}

fn chase(
    engine: &ChaseEngine<'_>,
    work: Database,
    trusted: &[GlobalTid],
    fixes: FixStore,
    mut delta: Option<DeltaSet>,
) -> ReferenceResult {
    let rules = &engine.rules.rules;
    let gate: GateMode = engine.config.gate;
    let mut st = Committed::seed(work, fixes, trusted, gate);
    let mut committer = Committer::new(engine.registry, &engine.config.policy, gate, &st);
    // cells each rule's precondition reads
    let reads: Vec<FxHashSet<(RelId, AttrId)>> = rules
        .iter()
        .map(|rule| {
            let mut cells = FxHashSet::default();
            for p in &rule.precondition {
                for v in p.tuple_vars() {
                    cells.extend(p.reads_of(v).into_iter().map(|a| (rule.rel_of(v), a)));
                }
            }
            cells
        })
        .collect();
    // batch: every rule; incremental: rules binding a relation ΔD touched
    let mut active: Vec<usize> = (0..rules.len())
        .filter(|&ri| {
            delta.as_ref().map_or(true, |d| {
                rules[ri]
                    .tuple_vars
                    .iter()
                    .any(|(_, r)| d.rel_count(*r) > 0)
            })
        })
        .collect();
    let mut rounds = 0;
    let mut round_stats = Vec::new();

    while rounds < engine.config.max_rounds && !active.is_empty() {
        rounds += 1;
        let mut stat = RoundStats {
            active_rules: active.len(),
            ..RoundStats::default()
        };
        let mut emissions: Vec<Emission> = Vec::new();
        with_context(engine, &st, false, |ctx| {
            for &ri in &active {
                enumerate_valuations(&rules[ri], ctx, |h| {
                    stat.valuations += 1;
                    let touched = delta
                        .as_ref()
                        .map_or(true, |d| h.tuples.iter().any(|t| d.contains(t.rel, t.tid)));
                    if touched {
                        visit_valuation(
                            &rules[ri],
                            ri as u32,
                            h,
                            ctx,
                            gate,
                            &st.fixes,
                            &mut emissions,
                        );
                    }
                    true
                });
            }
        });
        let mut proposals: Vec<Proposal> = emissions.into_iter().map(|(_, p)| p).collect();
        proposals.sort_by_key(|p| p.key());
        proposals.dedup();
        stat.proposals = proposals.len();
        round_stats.push(stat);
        if proposals.is_empty() {
            break;
        }
        let commit = committer.commit(&mut st, &proposals, None);
        if let Some(d) = &mut delta {
            d.union_with(&commit.delta);
        }
        active = (0..rules.len())
            .filter(|&ri| {
                commit.any_merge || reads[ri].iter().any(|c| commit.changed_cells.contains(c))
            })
            .collect();
    }

    st.materialize_entities();
    ReferenceResult {
        db: st.db,
        fixes: st.fixes,
        rounds,
        changes: st.changes,
        merged_pairs: st.merged_pairs,
        conflicts: st.conflicts,
        steps: st.steps,
        round_stats,
    }
}
