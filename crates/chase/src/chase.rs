//! The round-based chase engine (paper §4.1 "Implementing the chase").
//!
//! Each round: (1) activated rules enumerate valuations whose precondition
//! holds under the *resolved view* (the working database with all committed
//! fixes materialized, validated temporal orders, and `[EID]=` classes) and
//! valuations whose consequence is not yet satisfied emit *proposals*
//! (`crate::evaluate`); (2) all proposals commit together with
//! deterministic, learning-based conflict resolution (`crate::commit`);
//! (3) the committed delta decides which rules run next (below).
//! Round-atomic commits with deterministic resolution give the
//! Church–Rosser property: the final `Chase(D, Σ, Γ)` does not depend on
//! rule order (property-tested in the workspace `tests/`).
//!
//! There is one production path: semi-naive delta rounds, lazy activation
//! filtered by the [`RuleGraph`], columnar prefilters. Its
//! correctness is pinned against `crate::reference`, a deliberately naive
//! chase that shares only the valuation leaf and the commit phase.
//!
//! Ground-truth gating: trusted tuples' raw cells are never overwritten
//! (certain fixes respect Γ), and in [`GateMode::Strict`] a rule only fires
//! when every precondition cell is trusted or already validated in `U` —
//! the letter of §4.1's chase-step condition (1). The default
//! [`GateMode::Resolved`] treats the current resolved view as validated,
//! which is how the deployed system bootstraps beyond its 10k-tuple seed
//! (DESIGN.md §3 discusses the interpretation).

use crate::commit::{Committed, Committer, RoundCommit};
use crate::conflict::ConflictPolicy;
use crate::evaluate::{evaluate, Frontier, RoundStats};
use crate::fixes::FixStore;
use crate::wal::{DurabilityConfig, DurabilityCtx, WalSummary};
use rock_crystal::sync::OnceLock;
use rock_crystal::{Cluster, ClusterConfig, FaultStats, UnitFailure};
use rock_data::{AttrId, CellRef, Database, Delta, DeltaSet, FxHashSet, GlobalTid, RelId, Value};
use rock_kg::Graph;
use rock_ml::{MlBlockIndex, ModelRegistry};
use rock_rees::graph::value_reads;
use rock_rees::{RuleGraph, RuleSet};

pub use crate::proposal::Proposal;

/// The chase loop's complete mutable state, factored out of the engine so
/// a `ChaseCheckpoint` can capture it at a round boundary and `resume` can
/// re-enter `run_loop` with recovered state. Every round is a
/// deterministic function of this struct (plus the immutable engine), so
/// checkpoint + re-run reproduces an uninterrupted run byte-identically.
pub(crate) struct LoopState {
    pub st: Committed,
    pub frontier: Frontier,
    pub active: FxHashSet<usize>,
    /// Rules the rule graph pruned from the upcoming round's activation.
    pub pruned_carry: usize,
    pub rounds: usize,
    pub round_stats: Vec<RoundStats>,
    /// ΔD batch this loop belongs to (1 for plain runs; durable sessions
    /// increment it per [`ChaseEngine::run_incremental_durable`] step).
    pub batch: u64,
    /// Global rounds committed by earlier batches of a durable session:
    /// `rounds - round_base` is this batch's own round count, and the
    /// round budget is relative to it.
    pub round_base: usize,
    /// Loop decided to stop after the last completed round; resume skips
    /// straight to the final ER materialization.
    pub done: bool,
}

/// How strictly preconditions must be backed by ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Precondition cells must be trusted or validated in `U` (§4.1 chase
    /// step condition (1), literally).
    Strict,
    /// The resolved view is treated as validated (bootstrap mode; default).
    Resolved,
}

/// Chase configuration: what a caller can meaningfully choose. How rounds
/// are evaluated and scheduled is not an option — see the module docs.
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Safety bound on rounds (the fix lattice is finite, but adversarial
    /// rule sets can oscillate through conflict overrides).
    pub max_rounds: usize,
    /// Crystal workers evaluating rule × partition work units.
    pub workers: usize,
    /// Target partitions per rule for work-unit generation.
    pub partitions_per_rule: u32,
    pub policy: ConflictPolicy,
    pub gate: GateMode,
    /// Crystal resilience knobs (fault plan, retry budget). A rule with a
    /// quarantined unit has its round voided and retries the next round,
    /// so recoverable faults never change the committed fixes.
    pub cluster: ClusterConfig,
    /// Durable chase: append every committed fix to a CRC-framed WAL and
    /// checkpoint the loop state at round boundaries, so a crashed run
    /// resumes from its last durable round byte-identically (see
    /// `crate::wal` / `crate::checkpoint`). `None` (default) keeps the
    /// zero-IO in-memory chase.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 32,
            workers: 1,
            partitions_per_rule: 4,
            policy: ConflictPolicy::default(),
            gate: GateMode::Resolved,
            cluster: ClusterConfig::default(),
            durability: None,
        }
    }
}

/// Chase outcome.
#[derive(Debug)]
pub struct ChaseResult {
    /// The corrected database (fixes materialized).
    pub db: Database,
    /// The final fix store `U`.
    pub fixes: FixStore,
    pub rounds: usize,
    /// Cell changes materialized: (cell, old value, new value).
    pub changes: Vec<(CellRef, Value, Value)>,
    /// Entity merges committed: pairs of tuples identified.
    pub merged_pairs: Vec<(GlobalTid, GlobalTid)>,
    /// Conflicts encountered (CR value conflicts + TD order conflicts + ER
    /// merge-vs-distinct conflicts).
    pub conflicts: usize,
    /// Total proposals applied (chase steps that extended `U`).
    pub steps: usize,
    /// Modeled per-round scheduler makespans (scaling experiments read the
    /// sum; see `rock_crystal::scheduler::makespan_lpt`).
    pub round_makespans: Vec<Vec<f64>>,
    /// Per-round evaluation observability (valuations enumerated, delta
    /// sizes, carried emissions).
    pub round_stats: Vec<RoundStats>,
    /// Fault-handling counters accumulated over all rounds (all zero in an
    /// undisturbed run).
    pub fault_stats: FaultStats,
    /// Units quarantined across the whole chase. Each voids its rule's
    /// round (the rule retries the next round), so this being non-empty
    /// means degraded progress, not wrong fixes.
    pub unit_failures: Vec<UnitFailure>,
    /// Durability totals (records/checkpoints written, resumed round,
    /// degradation error). `None` when durability was not configured.
    pub wal: Option<WalSummary>,
}

/// The chase engine. Borrows the rule set, model registry and optional
/// knowledge graph; owns its configuration and what it derives from the
/// rules once, on the first run.
pub struct ChaseEngine<'a> {
    pub rules: &'a RuleSet,
    pub registry: &'a ModelRegistry,
    pub graph: Option<&'a Graph>,
    pub config: ChaseConfig,
    derived: OnceLock<Derived>,
}

/// What the round loop reads of the rule set alone: the rule graph and
/// each rule's precondition reads. Both depend on the rules and the
/// schema they are typed against, so an engine derives them once.
struct Derived {
    graph: RuleGraph,
    reads: Vec<Vec<(RelId, AttrId)>>,
}

impl<'a> ChaseEngine<'a> {
    pub fn new(rules: &'a RuleSet, registry: &'a ModelRegistry, config: ChaseConfig) -> Self {
        ChaseEngine {
            rules,
            registry,
            graph: None,
            config,
            derived: OnceLock::new(),
        }
    }

    /// The rule graph and value reads, derived against `db`'s schema on
    /// the engine's first run.
    fn derived(&self, db: &Database) -> &Derived {
        self.derived.get_or_init(|| Derived {
            graph: RuleGraph::derive(self.rules, &db.schema()),
            reads: self.rules.rules.iter().map(value_reads).collect(),
        })
    }

    pub fn with_graph(mut self, g: &'a Graph) -> Self {
        self.graph = Some(g);
        self
    }

    /// Kept for source compatibility; a no-op. ML pair predicates are
    /// joined on the registry's block filters (`rock_rees::eval`), so the
    /// chase takes no block index.
    pub fn with_blocking(self, _idx: &MlBlockIndex) -> Self {
        self
    }

    /// Batch chase: `Chase(D, Σ, Γ)` with `trusted` seeding Γ=.
    pub fn run(&self, db: &Database, trusted: &[GlobalTid]) -> ChaseResult {
        self.run_seeded(db, trusted, FixStore::new())
    }

    /// Batch chase continuing from an existing fix store — the Rockseq /
    /// RocknoC schedules run the ER/CR/MI/TD groups one at a time and must
    /// carry `[EID]=` classes and validated orders across the group runs.
    pub fn run_seeded(&self, db: &Database, trusted: &[GlobalTid], fixes: FixStore) -> ChaseResult {
        let ls = self.start(db.clone(), trusted, None, fixes);
        self.run_loop(ls, self.begin_durable())
    }

    /// Incremental chase: apply ΔD, then chase with the round-1 delta
    /// seeded from the *tuples* ΔD touched (paper §4.1 workflow,
    /// incremental mode). Only valuations binding at least one touched
    /// tuple fire — the tuple-level analogue of incremental detection.
    ///
    /// A malformed ΔD (wrong-arity insert) is rejected as
    /// [`rock_data::DataError`] before anything runs — `Database::apply`
    /// validates the whole batch up front.
    pub fn run_incremental(
        &self,
        db: &Database,
        trusted: &[GlobalTid],
        delta: &Delta,
    ) -> Result<ChaseResult, rock_data::DataError> {
        self.run_incremental_seeded(db, trusted, delta, FixStore::new())
    }

    /// Incremental chase continuing from an existing fix store: its
    /// `[EID]=` classes and validated values hold from round 1 on, and
    /// only valuations binding a ΔD tuple fire, as in
    /// [`ChaseEngine::run_incremental`].
    pub fn run_incremental_seeded(
        &self,
        db: &Database,
        trusted: &[GlobalTid],
        delta: &Delta,
        fixes: FixStore,
    ) -> Result<ChaseResult, rock_data::DataError> {
        let mut work = db.clone();
        let inserted = work.apply(delta)?;
        let seed = delta.touched(&work, &inserted);
        let ls = self.start(work, trusted, Some(seed), fixes);
        Ok(self.run_loop(ls, self.begin_durable()))
    }

    /// Round-0 state of a chase over `work_db`: Γ seeded and the initial
    /// activation — every live rule in batch mode, live rules binding a
    /// seeded relation in incremental mode.
    pub(crate) fn start(
        &self,
        work_db: Database,
        trusted: &[GlobalTid],
        seed: Option<DeltaSet>,
        fixes: FixStore,
    ) -> LoopState {
        let graph = &self.derived(&work_db).graph;
        let classic = initial_activation(self.rules, seed.as_ref());
        let active: FxHashSet<usize> = classic
            .iter()
            .copied()
            .filter(|&ri| !graph.dead[ri])
            .collect();
        LoopState {
            pruned_carry: classic.len() - active.len(),
            active,
            frontier: Frontier::new(&work_db, self.rules.len(), seed),
            st: Committed::seed(work_db, fixes, trusted, self.config.gate),
            rounds: 0,
            round_stats: Vec::new(),
            batch: 1,
            round_base: 0,
            done: false,
        }
    }

    /// Fingerprint of the ruleset (names and bodies) plus the
    /// semantics-relevant config, stamped into the WAL's `Begin` header:
    /// resume refuses state written under different rules or gating
    /// instead of silently diverging.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes: Vec<u8> = Vec::new();
        for r in &self.rules.rules {
            bytes.extend_from_slice(r.name.as_bytes());
            bytes.push(0);
            let body = format!(
                "{:?}{:?}{:?}{:?}",
                r.tuple_vars, r.vertex_vars, r.precondition, r.consequence
            );
            bytes.extend_from_slice(body.as_bytes());
            bytes.push(0);
        }
        bytes.push((self.config.gate == GateMode::Strict) as u8);
        bytes.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        let lo = rock_crystal::crc32(&bytes) as u64;
        (lo << 32) | rock_crystal::crc32(&lo.to_le_bytes()) as u64
    }

    /// The round loop, entered with a fresh [`LoopState`] (`start`) or a
    /// recovered one (`resume`). Every round is a deterministic function
    /// of `ls`, which is what makes checkpoint + re-run byte-identical to
    /// an uninterrupted run.
    pub(crate) fn run_loop(
        &self,
        mut ls: LoopState,
        mut dur: Option<DurabilityCtx>,
    ) -> ChaseResult {
        let mut committer =
            Committer::new(self.registry, &self.config.policy, self.config.gate, &ls.st);
        let derived = self.derived(&ls.st.db);
        // One Cluster for all rounds: membership (a crashed node) persists
        // across rounds, so later rounds place work on survivors only.
        let cluster = Cluster::with_config(self.config.workers, self.config.cluster.clone());
        let mut round_makespans: Vec<Vec<f64>> = Vec::new();
        let mut fault_stats = FaultStats::default();
        let mut unit_failures: Vec<UnitFailure> = Vec::new();

        while !ls.done
            && ls.rounds - ls.round_base < self.config.max_rounds
            && !ls.active.is_empty()
        {
            ls.rounds += 1;
            let mut sorted_active: Vec<usize> = ls.active.iter().copied().collect();
            sorted_active.sort_unstable();
            let mut stat = RoundStats {
                active_rules: sorted_active.len(),
                rules_pruned: ls.pruned_carry,
                ..RoundStats::default()
            };

            let eval = evaluate(
                self,
                &cluster,
                &ls.st,
                &mut ls.frontier,
                &sorted_active,
                dur.is_some(),
                &mut stat,
            );
            round_makespans.push(eval.unit_seconds);
            fault_stats.merge(&eval.faults);
            unit_failures.extend(eval.failures);
            ls.round_stats.push(stat);

            let committed = if eval.proposals.is_empty() {
                None
            } else {
                let c = committer.commit(&mut ls.st, &eval.proposals, eval.support.as_ref());
                ls.frontier.absorb(&c.delta);
                Some(c)
            };
            self.activate(&mut ls, derived, committed.as_ref(), eval.failed);
            let round_fixes = committed.map(|c| c.fixes).unwrap_or_default();
            self.commit_round_durable(&ls, &mut dur, &round_fixes);
        }

        ls.st.materialize_entities();
        ChaseResult {
            db: ls.st.db,
            fixes: ls.st.fixes,
            rounds: ls.rounds - ls.round_base,
            changes: ls.st.changes,
            merged_pairs: ls.st.merged_pairs,
            conflicts: ls.st.conflicts,
            steps: ls.st.steps,
            round_makespans,
            round_stats: ls.round_stats,
            fault_stats,
            unit_failures,
            wal: dur.map(DurabilityCtx::into_summary),
        }
    }

    /// Decide the next round's activation from what this round committed
    /// (`None`: no proposals, nothing changed).
    ///
    /// Lazy activation (§4.1 Novelty (a)): a merge may enable any rule with
    /// multi-variable predicates, so it re-activates everything; otherwise
    /// only rules whose precondition reads a changed cell re-run. The
    /// rule graph then filters that set — every filter is a
    /// `retain()`, so a subset of the classic rule × round pairs runs and
    /// the committed fixes are identical: statically dead rules never run,
    /// and a live rule is kept only when the round's committed delta can
    /// reach it — its reads saw a changed cell, one of its relations holds
    /// pending delta tuples (covers merges, validated-value visibility and
    /// the order-write coarsening, all of which mark tuples), or another
    /// rule writes into its write set (its carried proposals must keep
    /// joining those conflict clusters). Voided rules always retry.
    fn activate(
        &self,
        ls: &mut LoopState,
        derived: &Derived,
        committed: Option<&RoundCommit>,
        failed: FxHashSet<usize>,
    ) {
        let (g, reads) = (&derived.graph, &derived.reads);
        ls.active.clear();
        let changed = |ri: usize| {
            committed.is_some_and(|c| reads[ri].iter().any(|ra| c.changed_cells.contains(ra)))
        };
        if committed.is_some_and(|c| c.any_merge) {
            ls.active.extend(0..self.rules.len());
        } else {
            ls.active
                .extend((0..self.rules.len()).filter(|&ri| changed(ri)));
        }
        ls.active.extend(failed.iter().copied());
        let before = ls.active.len();
        let pending = &ls.frontier.pending;
        ls.active.retain(|&ri| {
            !g.dead[ri]
                && (failed.contains(&ri)
                    || g.follows_writes[ri]
                    || changed(ri)
                    || g.rels[ri].iter().any(|r| pending[ri].rel_count(*r) > 0))
        });
        ls.pruned_carry = before - ls.active.len();
        let quiescent = committed.map_or(true, |c| c.changed_cells.is_empty() && !c.any_merge);
        if quiescent && failed.is_empty() {
            ls.done = true;
        }
    }
}

/// Classic initial activation: every rule in batch mode, rules binding a
/// seeded relation in incremental mode.
fn initial_activation(rules: &RuleSet, seed: Option<&DeltaSet>) -> Vec<usize> {
    (0..rules.len())
        .filter(|&i| {
            seed.map_or(true, |d| {
                rules.rules[i]
                    .tuple_vars
                    .iter()
                    .any(|(_, r)| d.rel_count(*r) > 0)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixes::EntityKey;
    use rock_data::{AttrType, DatabaseSchema, Eid, RelationSchema, TupleId};
    use rock_rees::parse_rules;

    fn trans_schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "Trans",
            &[
                ("pid", AttrType::Str),
                ("com", AttrType::Str),
                ("mfg", AttrType::Str),
                ("price", AttrType::Float),
            ],
        )])
    }

    fn trans_db() -> Database {
        let mut db = Database::new(&trans_schema());
        let r = db.relation_mut(RelId(0));
        r.insert(
            Eid(0),
            vec![
                Value::str("p1"),
                Value::str("IPhone 14"),
                Value::str("Apple"),
                Value::Float(6500.0),
            ],
        )
        .unwrap();
        r.insert(
            Eid(1),
            vec![
                Value::str("p2"),
                Value::str("IPhone 14"),
                Value::str("Appel"),
                Value::Float(6500.0),
            ],
        )
        .unwrap();
        r.insert(
            Eid(2),
            vec![
                Value::str("p3"),
                Value::str("IPhone 14"),
                Value::str("Apple"),
                Value::Null,
            ],
        )
        .unwrap();
        db
    }

    fn registry() -> ModelRegistry {
        ModelRegistry::new()
    }

    #[test]
    fn cr_fix_majority() {
        // φ2: same com → same mfg; majority (Apple ×2 vs Appel ×1) wins.
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let db = trans_db();
        let res = engine.run(&db, &[]);
        for tid in [0u32, 1, 2] {
            assert_eq!(
                res.db.cell(RelId(0), TupleId(tid), AttrId(2)),
                Some(&Value::str("Apple")),
                "tuple {tid}"
            );
        }
        assert!(
            res.conflicts >= 1,
            "the Appel/Apple conflict must be counted"
        );
        assert!(res.changes.iter().any(|(c, old, new)| {
            c.tid == TupleId(1) && old == &Value::str("Appel") && new == &Value::str("Apple")
        }));
    }

    #[test]
    fn trusted_tuple_wins_over_majority() {
        // trust the Appel tuple: ground truth overrides majority.
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let db = trans_db();
        let trusted = vec![GlobalTid::new(RelId(0), TupleId(1))];
        let res = engine.run(&db, &trusted);
        assert_eq!(
            res.db.cell(RelId(0), TupleId(0), AttrId(2)),
            Some(&Value::str("Appel"))
        );
        // the trusted tuple itself is untouched
        assert_eq!(
            res.db.cell(RelId(0), TupleId(1), AttrId(2)),
            Some(&Value::str("Appel"))
        );
    }

    #[test]
    fn mi_constant_fix() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule fill: Trans(t) && t.com = 'IPhone 14' && null(t.price) -> t.price = 6500",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let res = engine.run(&trans_db(), &[]);
        assert_eq!(
            res.db.cell(RelId(0), TupleId(2), AttrId(3)),
            Some(&Value::Float(6500.0))
        );
        assert!(res.rounds >= 1);
    }

    #[test]
    fn er_merge_and_interaction() {
        // ER: same com+price → same entity; then CR propagates mfg within
        // the merged entity via φ2' (eid-based).
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule er: Trans(t) && Trans(s) && t.com = s.com && t.price = s.price -> t.eid = s.eid\nrule cr: Trans(t) && Trans(s) && t.eid = s.eid -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let res = engine.run(&trans_db(), &[]);
        assert!(!res.merged_pairs.is_empty());
        assert!(res.fixes.same_entity(
            EntityKey::new(RelId(0), Eid(0)),
            EntityKey::new(RelId(0), Eid(1))
        ));
        // mfg reconciled within the merged entity
        assert_eq!(
            res.db.cell(RelId(0), TupleId(1), AttrId(2)),
            res.db.cell(RelId(0), TupleId(0), AttrId(2))
        );
    }

    #[test]
    fn td_orders_deduced() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Person",
            &[("pid", AttrType::Str), ("status", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        r.insert(Eid(0), vec![Value::str("p1"), Value::str("single")])
            .unwrap();
        r.insert(Eid(1), vec![Value::str("p1"), Value::str("married")])
            .unwrap();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi4: Person(t) && Person(s) && t.status = 'single' && s.status = 'married' -> t <=[status] s",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let res = engine.run(&db, &[]);
        assert!(res
            .fixes
            .order_holds(RelId(0), AttrId(1), TupleId(0), TupleId(1), false));
        assert!(!res
            .fixes
            .order_holds(RelId(0), AttrId(1), TupleId(1), TupleId(0), false));
    }

    #[test]
    fn incremental_only_activates_touched() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule fill: Trans(t) && t.com = 'IPhone 14' && null(t.price) -> t.price = 6500",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let db = trans_db();
        let delta = Delta::new(vec![rock_data::Update::Insert {
            rel: RelId(0),
            eid: Eid(9),
            values: vec![
                Value::str("p9"),
                Value::str("IPhone 14"),
                Value::str("Apple"),
                Value::Null,
            ],
        }]);
        let res = engine.run_incremental(&db, &[], &delta).unwrap();
        // the inserted tuple's null gets filled...
        assert_eq!(
            res.db.cell(RelId(0), TupleId(3), AttrId(3)),
            Some(&Value::Float(6500.0))
        );
        // ...but the pre-existing null does NOT: incremental mode is
        // tuple-level — only valuations binding a ΔD tuple fire
        assert_eq!(
            res.db.cell(RelId(0), TupleId(2), AttrId(3)),
            Some(&Value::Null)
        );
    }

    #[test]
    fn fixpoint_reached_and_idempotent() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let res1 = engine.run(&trans_db(), &[]);
        // chasing the already-chased database changes nothing
        let res2 = engine.run(&res1.db, &[]);
        assert!(res2.changes.is_empty(), "{:?}", res2.changes);
        assert!(res1.rounds < ChaseConfig::default().max_rounds);
    }

    #[test]
    fn parallel_chase_same_result() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let seq = ChaseEngine::new(&rules, &reg, ChaseConfig::default()).run(&trans_db(), &[]);
        let par = ChaseEngine::new(
            &rules,
            &reg,
            ChaseConfig {
                workers: 4,
                partitions_per_rule: 8,
                ..ChaseConfig::default()
            },
        )
        .run(&trans_db(), &[]);
        for tid in 0..3u32 {
            assert_eq!(
                seq.db.cell(RelId(0), TupleId(tid), AttrId(2)),
                par.db.cell(RelId(0), TupleId(tid), AttrId(2))
            );
        }
    }

    #[test]
    fn every_run_matches_the_reference() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let naive = crate::reference::run(&engine, &trans_db(), &[]);
        let run = engine.run(&trans_db(), &[]);
        assert_eq!(naive.changes, run.changes);
        assert_eq!(naive.merged_pairs, run.merged_pairs);
        assert_eq!(naive.conflicts, run.conflicts);
        assert!(run.rounds <= naive.rounds);
    }

    #[test]
    fn fingerprint_covers_rule_bodies() {
        let schema = trans_schema();
        let parse = |text: &str| RuleSet::new(parse_rules(text, &schema).unwrap());
        let a = parse("rule fill: Trans(t) && t.com = 'IPhone 14' -> t.price = 6500");
        let b = parse("rule fill: Trans(t) && t.com = 'IPhone 15' -> t.price = 6500");
        let reg = registry();
        let fp = |rules: &RuleSet, gate| {
            let cfg = ChaseConfig {
                gate,
                ..ChaseConfig::default()
            };
            ChaseEngine::new(rules, &reg, cfg).fingerprint()
        };
        assert_eq!(fp(&a, GateMode::Resolved), fp(&a, GateMode::Resolved));
        // same name, one predicate constant edited
        assert_ne!(fp(&a, GateMode::Resolved), fp(&b, GateMode::Resolved));
        assert_ne!(fp(&a, GateMode::Resolved), fp(&a, GateMode::Strict));
    }

    #[test]
    fn strict_gate_requires_validated_precondition() {
        let schema = trans_schema();
        let rules = RuleSet::new(
            parse_rules(
                "rule fill: Trans(t) && t.com = 'IPhone 14' && null(t.price) -> t.price = 6500",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let cfg = ChaseConfig {
            gate: GateMode::Strict,
            ..ChaseConfig::default()
        };
        let engine = ChaseEngine::new(&rules, &reg, cfg);
        // no trusted tuples: nothing may fire (t2.com is not validated)
        let res = engine.run(&trans_db(), &[]);
        assert!(res.changes.is_empty(), "{:?}", res.changes);
        // trusting the null-price tuple validates its com; the MI rule fires
        let trusted = vec![GlobalTid::new(RelId(0), TupleId(2))];
        let res = engine.run(&trans_db(), &trusted);
        assert_eq!(
            res.db.cell(RelId(0), TupleId(2), AttrId(3)),
            Some(&Value::Float(6500.0))
        );
    }

    #[test]
    fn strict_gate_accumulates_ground_truth() {
        // Chained deduction across an entity: rule1 fires on the trusted
        // tuple t0 and validates mfg='AppleInc' on its entity, which
        // materializes onto the untrusted co-entity tuple t1; in a later
        // round rule2 (reading the now-validated mfg) fills t1's price —
        // the "accumulating ground truth" loop of §4.1.
        let schema = trans_schema();
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        r.insert(
            Eid(0),
            vec![
                Value::str("p1"),
                Value::str("IPhone 14"),
                Value::str("AppleInc"),
                Value::Float(1.0),
            ],
        )
        .unwrap();
        r.insert(
            Eid(0),
            vec![
                Value::str("p1"),
                Value::Null,
                Value::str("junk"),
                Value::Null,
            ],
        )
        .unwrap();
        let rules = RuleSet::new(
            parse_rules(
                "rule r1: Trans(t) && t.com = 'IPhone 14' -> t.mfg = 'AppleInc'\nrule r2: Trans(t) && t.mfg = 'AppleInc' && null(t.price) -> t.price = 6500",
                &schema,
            )
            .unwrap(),
        );
        let reg = registry();
        let cfg = ChaseConfig {
            gate: GateMode::Strict,
            ..ChaseConfig::default()
        };
        let engine = ChaseEngine::new(&rules, &reg, cfg);
        let trusted = vec![GlobalTid::new(RelId(0), TupleId(0))];
        let res = engine.run(&db, &trusted);
        assert_eq!(
            res.db.cell(RelId(0), TupleId(1), AttrId(2)),
            Some(&Value::str("AppleInc")),
            "rule1's validated value must materialize onto the co-entity tuple"
        );
        // t1 shares t0's entity, and t0's price=1.0 is trusted ground
        // truth: the entity's validated price fills t1's null. Rule2's
        // constant 6500 must NOT override a validated fact — that is the
        // certain-fix guarantee.
        assert_eq!(
            res.db.cell(RelId(0), TupleId(1), AttrId(3)),
            Some(&Value::Float(1.0)),
            "validated entity value must beat rule2's constant"
        );
        assert!(res.rounds >= 2);
    }
}
