//! The levelwise REE++ miner, parallelized over Crystal work units.
//!
//! For each candidate consequence `p0` the miner searches conjunctions `X`
//! of increasing size (up to `max_preconditions`). Pruning:
//!
//! * **anti-monotone support** — `supp(X ∧ p0)` only shrinks as `X` grows,
//!   so a candidate below the support threshold is pruned along with all
//!   its supersets;
//! * **minimality** — once `X → p0` is accepted, no superset of `X` is
//!   explored for the same `p0` (its instances are already covered);
//! * **trivial-precondition filter** — `p0 ∈ X` is skipped.
//!
//! Support/confidence are the normalized measures of
//! [`rock_rees::measures`], and the thresholds default to the paper's
//! values (§6: support 1e-8, confidence 0.9).
//!
//! One search serves both miners. It is generic over a private `Measurer`
//! that decides how one candidate is measured (static dispatch). Production
//! ([`Discoverer::mine_relation`]) measures with bitset kernels: predicates
//! are materialized once into satisfaction bitsets via
//! [`crate::cache::PredicateBitsets`]; each frontier entry keeps its
//! conjunction's bitset, and a level-k candidate ANDs one predicate bitset
//! into its level-(k−1) parent's and measures by popcount. Workers share
//! the parent bitsets read-only (`Arc`), addressed through the Crystal work
//! unit's `payload`.
//!
//! [`Discoverer::mine_relation_scan`] is the reference: the same search
//! with a measurer that keeps nothing and re-measures every candidate rule
//! by a tuple re-scan via [`measure`]. It mines the identical rule set
//! (`tests/engine_equivalence.rs`) and is the uncached arm of the
//! `rdcache` panel.

use crate::cache::{CacheStats, PredicateBitsets};
use crate::space::PredicateSpace;
use rock_crystal::work::Partition;
use rock_crystal::{Cluster, ClusterConfig, FaultStats, UnitFailure, WorkUnit};
use rock_data::{Database, RelId};
use rock_kg::Graph;
use rock_ml::ModelRegistry;
use rock_rees::measures::{measure, Measures, SatBits};
use rock_rees::{EvalContext, Predicate, Rule, RuleSet};
use std::sync::Arc;

/// Consequences whose own support is below this are skipped (a
/// consequence that almost never holds cannot anchor a high-confidence
/// rule).
const MIN_CONSEQUENCE_SUPPORT: f64 = 1e-9;

/// Discovery configuration.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Normalized support threshold (paper default 1e-8).
    pub min_support: f64,
    /// Confidence threshold (paper default 0.9).
    pub min_confidence: f64,
    /// Maximum precondition size.
    pub max_preconditions: usize,
    /// Crystal workers.
    pub workers: usize,
    /// Byte budget for the predicate satisfaction-bitset cache; entries
    /// beyond it are LRU-evicted and re-materialized on demand.
    pub cache_budget_bytes: usize,
    /// Fault-injection / retry knobs for candidate
    /// measurement on the cluster.
    pub cluster: ClusterConfig,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_support: 1e-8,
            min_confidence: 0.9,
            max_preconditions: 3,
            workers: 1,
            cache_budget_bytes: 64 << 20,
            cluster: ClusterConfig::default(),
        }
    }
}

/// Outcome of a discovery run.
#[derive(Debug, Default)]
pub struct DiscoveryReport {
    pub rules: RuleSet,
    /// Candidates evaluated (search-space size actually visited).
    pub candidates_evaluated: usize,
    /// Candidates pruned by the support anti-monotonicity.
    pub pruned: usize,
    pub wall_seconds: f64,
    /// Per-candidate evaluation durations (for modeled parallel time).
    pub unit_seconds: Vec<f64>,
    /// Predicate-bitset cache counters (`None` from the scan reference).
    pub cache: Option<CacheStats>,
    /// Fault/retry counters from the Crystal scheduler.
    pub fault_stats: FaultStats,
    /// Candidate units quarantined after exhausting retries; their
    /// candidates are treated as pruned (not measured).
    pub unit_failures: Vec<UnitFailure>,
    /// `rock-analyze` counters from the post-mining screen.
    pub analyzer: rock_analyze::AnalyzerStats,
    /// Mined rules the screen rejected: error-severity diagnostics
    /// (unsatisfiable or ill-typed) or subsumed by another mined rule.
    pub rules_dropped_by_analyzer: usize,
}

/// The miner.
pub struct Discoverer<'a> {
    pub registry: &'a ModelRegistry,
    pub graph: Option<&'a Graph>,
    pub config: DiscoveryConfig,
}

impl<'a> Discoverer<'a> {
    pub fn new(registry: &'a ModelRegistry, config: DiscoveryConfig) -> Self {
        Discoverer {
            registry,
            graph: None,
            config,
        }
    }

    /// Mine rules over one relation's two-variable template, measuring
    /// candidates with cached predicate bitsets. The mined set is screened
    /// by `rock-analyze` before it is returned: rules with error-severity
    /// diagnostics or subsumed by another mined rule are dropped (with
    /// counters in the report).
    pub fn mine_relation(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        let ctx = self.ctx(db);
        let bits = PredicateBitsets::new(
            &ctx,
            db,
            rel,
            &space.preconditions(),
            &space.consequences,
            self.registry,
            self.config.cache_budget_bytes,
        );
        self.search(db, rel, space, &bits)
    }

    /// Reference for [`Self::mine_relation`]: the same search and the same
    /// screen, with every candidate measured by re-scanning the tuples.
    pub fn mine_relation_scan(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        self.search(db, rel, space, &Rescan(self.ctx(db)))
    }

    /// The static-analysis screen over a freshly mined ruleset. Mining
    /// enumerates predicates syntactically, so it can emit conjunctions no
    /// tuple satisfies (support floors catch most, but not rules accepted
    /// on vacuous confidence) and near-duplicate rules one of which
    /// subsumes the other; the analyzer rejects both classes before the
    /// chase ever schedules them.
    fn screen_mined(db: &Database, report: &mut DiscoveryReport) {
        let schema = db.schema();
        let analysis = rock_analyze::Analyzer::new(&schema).analyze(&report.rules);
        report.analyzer = analysis.stats();
        let errors = analysis.rules_with_errors();
        let subsumed = analysis.subsumed_rules();
        let before = report.rules.len();
        report
            .rules
            .rules
            .retain(|r| !errors.contains(&r.name) && !subsumed.contains(&r.name));
        report.rules_dropped_by_analyzer = before - report.rules.len();
    }

    /// The levelwise search for every measurer: frontier expansion,
    /// the minimality check, candidate naming, support pruning and
    /// acceptance. Each level's candidates are measured in parallel, one
    /// Crystal work unit per candidate; the unit payload names the parent
    /// frontier entry whose [`Measurer::Conj`] the worker extends.
    fn search<M: Measurer>(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
        measurer: &M,
    ) -> DiscoveryReport {
        let start = std::time::Instant::now();
        let rel_name = db.relation(rel).schema.name.clone();
        let n = db.relation(rel).len();
        let preconditions = space.preconditions();
        let mut report = DiscoveryReport::default();
        let cluster = Cluster::with_config(self.config.workers, self.config.cluster.clone());
        // every candidate takes a number, whether or not it is measured;
        // an accepted candidate's rule is named after it
        let mut counter = 0usize;

        for (ci, consequence) in space.consequences.iter().enumerate() {
            // the rule of a candidate conjunction, built only where it is
            // read: by an accepted candidate, or by a measurer that scans
            let rule_of = |name: String, idxs: &[usize]| {
                let precondition = idxs.iter().map(|&i| preconditions[i].clone()).collect();
                self.make_rule(name, rel, consequence, precondition)
            };
            // level 0: the consequence alone must clear the support floor.
            // An unknown-model consequence yields no rule and is skipped.
            let Some((base, root)) =
                measurer.base(ci, || rule_of(format!("{rel_name}-c{ci}"), &[]))
            else {
                continue;
            };
            report.candidates_evaluated += 1;
            if base.support() < MIN_CONSEQUENCE_SUPPORT {
                report.pruned += 1;
                continue;
            }

            // frontier: precondition index-vectors (sorted, no dups), each
            // with what the measurer keeps of its conjunction
            let mut frontier: Vec<(Vec<usize>, M::Conj)> = vec![(Vec::new(), root)];
            let mut accepted_for_consequence: Vec<Vec<usize>> = Vec::new();

            for level in 1..=self.config.max_preconditions {
                // expand frontier
                let mut candidates: Vec<Vec<usize>> = Vec::new();
                let mut parents: Vec<usize> = Vec::new();
                for (fi, (x, _)) in frontier.iter().enumerate() {
                    let startp = x.last().map(|&i| i + 1).unwrap_or(0);
                    #[allow(clippy::needless_range_loop)] // pi is also data
                    for pi in startp..preconditions.len() {
                        if &preconditions[pi] == consequence {
                            continue;
                        }
                        // minimality: skip supersets of accepted rules
                        let mut next = x.clone();
                        next.push(pi);
                        if accepted_for_consequence
                            .iter()
                            .any(|acc| acc.iter().all(|i| next.contains(i)))
                        {
                            continue;
                        }
                        candidates.push(next);
                        parents.push(fi);
                    }
                }
                if candidates.is_empty() {
                    break;
                }
                let first = counter + 1;
                counter += candidates.len();
                let name = |i: usize| format!("{rel_name}-r{}", first + i);
                measurer.prepare(&candidates);
                let units: Vec<WorkUnit> = (0..candidates.len())
                    .map(|i| {
                        WorkUnit::new(i as u32, vec![Partition::new(rel.0, 0, n as u32)])
                            .with_payload(parents[i] as u64)
                    })
                    .collect();
                let frontier_ref = &frontier;
                let outcome = cluster.execute(units, |u| {
                    let i = u.rule as usize;
                    let evaluate = || {
                        let pi = *candidates[i].last()?;
                        let parent = &frontier_ref[u.payload as usize].1;
                        measurer.extend(ci, parent, pi, || rule_of(name(i), &candidates[i]))
                    };
                    Ok(evaluate())
                });
                report.unit_seconds.extend(outcome.stats.unit_seconds);
                report.fault_stats.merge(&outcome.stats.faults);
                report.unit_failures.extend(outcome.failures);
                // a quarantined unit leaves `None`: its candidate is
                // dropped exactly like a support-pruned one
                let outs = outcome.results.into_iter().map(Option::flatten);

                let mut next_frontier: Vec<(Vec<usize>, M::Conj)> = Vec::new();
                for ((i, idxs), out) in candidates.into_iter().enumerate().zip(outs) {
                    // `None` also stands for an unknown model: no rule
                    let Some((m, conj)) = out else {
                        continue;
                    };
                    report.candidates_evaluated += 1;
                    if m.support() < self.config.min_support {
                        report.pruned += 1;
                        continue; // anti-monotone: no supersets either
                    }
                    if m.confidence() >= self.config.min_confidence && m.precondition_count > 0 {
                        let Some(mut rule) = rule_of(name(i), &idxs) else {
                            continue;
                        };
                        rule.support = m.support();
                        rule.confidence = m.confidence();
                        accepted_for_consequence.push(idxs);
                        report.rules.push(rule);
                    } else if level < self.config.max_preconditions {
                        next_frontier.push((idxs, conj));
                    }
                }
                frontier = next_frontier;
                if frontier.is_empty() {
                    break;
                }
            }
        }
        report.cache = measurer.cache_stats();
        report.wall_seconds = start.elapsed().as_secs_f64();
        Self::screen_mined(db, &mut report);
        report
    }

    /// The evaluation context every measure of this miner runs under.
    pub(crate) fn ctx<'b>(&'b self, db: &'b Database) -> EvalContext<'b> {
        let mut ctx = EvalContext::new(db, self.registry);
        if let Some(g) = self.graph {
            ctx = ctx.with_graph(g);
        }
        ctx
    }

    /// Assemble a two-variable rule, resolving models; `None` when a model
    /// is unknown (such candidates are skipped, not fatal). Rules that
    /// never touch the second variable are simplified to single-variable
    /// rules — a vacuous `R(s)` atom multiplies evaluation cost by |R|.
    fn make_rule(
        &self,
        name: String,
        rel: RelId,
        consequence: &Predicate,
        precondition: Vec<Predicate>,
    ) -> Option<Rule> {
        let uses_s = precondition
            .iter()
            .chain(std::iter::once(consequence))
            .any(|p| p.tuple_vars().contains(&1));
        let tuple_vars = if uses_s {
            vec![("t".into(), rel), ("s".into(), rel)]
        } else {
            vec![("t".into(), rel)]
        };
        let mut rule = Rule::new(name, tuple_vars, vec![], precondition, consequence.clone());
        rule.resolve(self.registry).ok()?;
        Some(rule)
    }
}

/// How the levelwise search measures a candidate `X ∧ p → p0`. A frontier
/// entry keeps the measurer's [`Self::Conj`] for its conjunction `X`, and
/// every worker extending that entry reads it.
trait Measurer: Sync {
    /// What a frontier entry keeps of its conjunction.
    type Conj: Send + Sync;

    /// The measures of `∅ → p0` (the consequence at slot `ci`) and the
    /// empty conjunction the first level extends. `base` builds that rule,
    /// for a measurer that reads it; `None` when a model is unknown.
    fn base(
        &self,
        ci: usize,
        base: impl FnOnce() -> Option<Rule>,
    ) -> Option<(Measures, Self::Conj)>;

    /// Runs serially before a level's candidates are measured.
    fn prepare(&self, _candidates: &[Vec<usize>]) {}

    /// Measures of the parent conjunction `x` extended with precondition
    /// slot `pi`, implying consequence slot `ci`. `rule` builds that
    /// candidate's rule, for a measurer that reads it; `None` when a model
    /// is unknown.
    fn extend(
        &self,
        ci: usize,
        x: &Self::Conj,
        pi: usize,
        rule: impl FnOnce() -> Option<Rule>,
    ) -> Option<(Measures, Self::Conj)>;

    /// Cache counters, for a measurer that caches.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// Production: a frontier entry keeps its conjunction's satisfaction
/// bitset; a candidate ANDs one predicate bitset into its parent's and
/// measures by popcount.
impl Measurer for PredicateBitsets<'_> {
    type Conj = Arc<SatBits>;

    fn base(
        &self,
        ci: usize,
        _base: impl FnOnce() -> Option<Rule>,
    ) -> Option<(Measures, Arc<SatBits>)> {
        let root = self.root();
        Some((self.measure(ci, &root)?, root))
    }

    /// Materialize each distinct new conjunct's bitset before the level
    /// runs, so workers hit the cache instead of racing to build it.
    fn prepare(&self, candidates: &[Vec<usize>]) {
        let mut fresh: Vec<usize> = candidates
            .iter()
            .filter_map(|idxs| idxs.last().copied())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        for pi in fresh {
            let _ = self.precondition(pi);
        }
    }

    fn extend(
        &self,
        ci: usize,
        x: &Arc<SatBits>,
        pi: usize,
        _rule: impl FnOnce() -> Option<Rule>,
    ) -> Option<(Measures, Arc<SatBits>)> {
        let child = x.and(self.precondition(pi)?.as_ref(), self.n());
        Some((self.measure(ci, &child)?, Arc::new(child)))
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

/// The reference: keeps nothing and measures every candidate rule by
/// enumerating its valuations ([`measure`]).
struct Rescan<'a>(EvalContext<'a>);

impl Measurer for Rescan<'_> {
    type Conj = ();

    fn base(&self, _ci: usize, base: impl FnOnce() -> Option<Rule>) -> Option<(Measures, ())> {
        Some((measure(&base()?, &self.0), ()))
    }

    fn extend(
        &self,
        _ci: usize,
        _x: &(),
        _pi: usize,
        rule: impl FnOnce() -> Option<Rule>,
    ) -> Option<(Measures, ())> {
        Some((measure(&rule()?, &self.0), ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, Value};

    /// city → area_code FD holds; name is a key (no FD from it violated).
    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[("city", AttrType::Str), ("area_code", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..8 {
            let (city, code) = if i % 2 == 0 {
                ("Beijing", "010")
            } else {
                ("Shanghai", "021")
            };
            r.insert_row(vec![Value::str(city), Value::str(code)])
                .unwrap();
        }
        db
    }

    #[test]
    fn discovers_fd_city_determines_area_code() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let miner = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.01,
                min_confidence: 0.95,
                max_preconditions: 2,
                ..Default::default()
            },
        );
        let report = miner.mine_relation(&db, RelId(0), &space);
        assert!(report.candidates_evaluated > 0);
        // the FD t.city = s.city → t.area_code = s.area_code must be found
        let schema = db.schema();
        let found = report.rules.iter().any(|r| {
            matches!(
                (&r.precondition[..], &r.consequence),
                (
                    [Predicate::Attr { lattr: a, .. }],
                    Predicate::Attr { lattr: b, .. }
                ) if a.0 == 0 && b.0 == 1
            )
        });
        assert!(
            found,
            "rules: {:?}",
            report
                .rules
                .iter()
                .map(|r| r.display(&schema).to_string())
                .collect::<Vec<_>>()
        );
        // every accepted rule clears both thresholds
        for r in report.rules.iter() {
            assert!(r.support >= 0.01);
            assert!(r.confidence >= 0.95);
        }
        // the default path populates cache statistics
        let stats = report.cache.expect("bitset path reports cache stats");
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn constant_rules_discovered() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let miner = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.01,
                min_confidence: 0.95,
                max_preconditions: 1,
                ..Default::default()
            },
        );
        let report = miner.mine_relation(&db, RelId(0), &space);
        // φ12-style: t.city='Beijing' → t.area_code='010'
        let found = report.rules.iter().any(|r| {
            matches!(
                (&r.precondition[..], &r.consequence),
                (
                    [Predicate::Const { attr: a, value: va, .. }],
                    Predicate::Const { attr: b, value: vb, .. }
                ) if a.0 == 0 && b.0 == 1
                    && va == &Value::str("Beijing") && vb == &Value::str("010")
            )
        });
        assert!(found);
    }

    #[test]
    fn minimality_no_redundant_supersets() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let miner = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.01,
                min_confidence: 0.95,
                max_preconditions: 3,
                ..Default::default()
            },
        );
        let report = miner.mine_relation(&db, RelId(0), &space);
        // For a fixed consequence, no accepted precondition set is a
        // superset of another accepted set.
        for (i, a) in report.rules.iter().enumerate() {
            for (j, b) in report.rules.iter().enumerate() {
                if i == j || a.consequence != b.consequence {
                    continue;
                }
                let a_in_b = a.precondition.iter().all(|p| b.precondition.contains(p));
                assert!(
                    !(a_in_b && a.precondition.len() < b.precondition.len()),
                    "{} subsumes {}",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn parallel_mining_matches_sequential() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let cfg = DiscoveryConfig {
            min_support: 0.01,
            min_confidence: 0.9,
            max_preconditions: 2,
            ..Default::default()
        };
        let seq = Discoverer::new(&reg, cfg.clone()).mine_relation(&db, RelId(0), &space);
        let par = Discoverer::new(&reg, DiscoveryConfig { workers: 4, ..cfg }).mine_relation(
            &db,
            RelId(0),
            &space,
        );
        assert_eq!(seq.rules.len(), par.rules.len());
        let names = |r: &DiscoveryReport| -> Vec<(Vec<Predicate>, Predicate)> {
            r.rules
                .iter()
                .map(|r| (r.precondition.clone(), r.consequence.clone()))
                .collect()
        };
        assert_eq!(names(&seq), names(&par));
    }

    #[test]
    fn strict_thresholds_prune_everything() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let miner = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.9,
                min_confidence: 0.99,
                max_preconditions: 2,
                ..Default::default()
            },
        );
        let report = miner.mine_relation(&db, RelId(0), &space);
        assert!(report.pruned > 0);
        assert!(report.rules.is_empty() || report.rules.iter().all(|r| r.support >= 0.9));
    }

    /// Production and the scan reference mine identical rule sets (names,
    /// measures and all), with identical search-space accounting.
    #[test]
    fn cached_and_scan_paths_mine_identical_rules() {
        let db = db();
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        for max_preconditions in 1..=3 {
            let cfg = DiscoveryConfig {
                min_support: 0.01,
                min_confidence: 0.9,
                max_preconditions,
                ..Default::default()
            };
            let miner = Discoverer::new(&reg, cfg);
            let cached = miner.mine_relation(&db, RelId(0), &space);
            let scan = miner.mine_relation_scan(&db, RelId(0), &space);
            assert_eq!(
                cached.rules.rules, scan.rules.rules,
                "rule sets diverge at max_preconditions={max_preconditions}"
            );
            assert_eq!(cached.candidates_evaluated, scan.candidates_evaluated);
            assert_eq!(cached.pruned, scan.pruned);
            assert!(cached.cache.is_some() && scan.cache.is_none());
        }
    }
}
