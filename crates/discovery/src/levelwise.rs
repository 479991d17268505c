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
//! Candidates are measured with bitset kernels: predicates are
//! materialized once into satisfaction bitsets via
//! [`crate::cache::PredicateBitsets`]; each level-k candidate intersects its
//! level-(k−1) parent's running bitset with one predicate bitset and
//! measures by AND+popcount. Workers share the parent bitsets read-only
//! (`Arc`), addressed through the Crystal work unit's `payload`.
//!
//! [`Discoverer::mine_relation_scan`] is the reference: the same search
//! with every candidate measured by a tuple re-scan via [`measure`]. It
//! mines the identical rule set (`tests/engine_equivalence.rs`) and is the
//! uncached arm of the `rdcache` panel.

use crate::cache::{CacheStats, PredicateBitsets};
use crate::space::PredicateSpace;
use rock_crystal::work::Partition;
use rock_crystal::{Cluster, ClusterConfig, FaultStats, UnitFailure, WorkUnit};
use rock_data::{Database, RelId};
use rock_kg::Graph;
use rock_ml::ModelRegistry;
use rock_rees::measures::{measure, SatBits};
use rock_rees::{EvalContext, Predicate, Rule, RuleSet};
use std::sync::Arc;

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
    /// Skip consequences whose own support is below this (a consequence
    /// that almost never holds cannot anchor a high-confidence rule).
    pub min_consequence_support: f64,
    /// Byte budget for the predicate satisfaction-bitset cache; entries
    /// beyond it are LRU-evicted and re-materialized on demand.
    pub cache_budget_bytes: usize,
    /// Fault-injection / retry / speculation knobs for candidate
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
            min_consequence_support: 1e-9,
            cache_budget_bytes: 64 << 20,
            cluster: ClusterConfig::default(),
        }
    }
}

/// Outcome of a discovery run.
#[derive(Debug)]
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
    /// Fault/retry/speculation counters from the Crystal scheduler.
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

impl DiscoveryReport {
    pub fn modeled_parallel_seconds(&self, workers: usize) -> f64 {
        rock_crystal::scheduler::makespan_lpt(&self.unit_seconds, workers)
    }
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

    /// Mine rules over one relation's two-variable template. The mined
    /// set is screened by `rock-analyze` before it is returned: rules with
    /// error-severity diagnostics or subsumed by another mined rule are
    /// dropped (with counters in the report).
    pub fn mine_relation(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        let mut report = self.mine_relation_cached(db, rel, space);
        Self::screen_mined(db, &mut report);
        report
    }

    /// Reference for [`Self::mine_relation`]: the same levelwise search and
    /// the same screen, with every candidate measured by re-scanning the
    /// tuples instead of intersecting cached bitsets.
    pub fn mine_relation_scan(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        let mut report = self.scan_candidates(db, rel, space);
        Self::screen_mined(db, &mut report);
        report
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

    /// Bitset-kernel mining: measures computed by AND+popcount over cached
    /// satisfaction bitsets.
    fn mine_relation_cached(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        let start = std::time::Instant::now();
        let rel_name = db.relation(rel).schema.name.clone();
        let preconditions = space.preconditions();
        let mut report = DiscoveryReport {
            rules: RuleSet::default(),
            candidates_evaluated: 0,
            pruned: 0,
            wall_seconds: 0.0,
            unit_seconds: Vec::new(),
            cache: None,
            fault_stats: FaultStats::default(),
            unit_failures: Vec::new(),
            analyzer: rock_analyze::AnalyzerStats::default(),
            rules_dropped_by_analyzer: 0,
        };

        let ctx = self.ctx(db);
        let bits = PredicateBitsets::new(
            &ctx,
            db,
            rel,
            &preconditions,
            &space.consequences,
            self.registry,
            self.config.cache_budget_bytes,
        );
        let n = bits.n();
        let cluster = Cluster::with_config(self.config.workers, self.config.cluster.clone());
        let mut counter = 0usize;

        for (ci, consequence) in space.consequences.iter().enumerate() {
            // level 0: the consequence alone must clear the support floor.
            // An unknown-model consequence yields no measure and is skipped.
            let root = bits.root();
            let Some(base) = bits.measure(ci, &root) else {
                continue;
            };
            report.candidates_evaluated += 1;
            if base.support() < self.config.min_consequence_support {
                report.pruned += 1;
                continue;
            }

            // frontier: precondition index-vectors (sorted, no dups), each
            // carrying the running satisfaction bitset of its conjunction —
            // shared read-only with every worker expanding it at level k.
            let mut frontier: Vec<(Vec<usize>, Arc<SatBits>)> = vec![(Vec::new(), root)];
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
                let rules: Vec<Option<Rule>> = candidates
                    .iter()
                    .map(|idxs| {
                        counter += 1;
                        self.make_rule(
                            format!("{rel_name}-r{counter}"),
                            rel,
                            consequence,
                            idxs.iter().map(|&i| preconditions[i].clone()).collect(),
                        )
                    })
                    .collect();
                // prefetch each distinct new conjunct's bitset serially so
                // workers hit the cache instead of racing to materialize
                let mut fresh: Vec<usize> = candidates
                    .iter()
                    .filter_map(|idxs| idxs.last().copied())
                    .collect();
                fresh.sort_unstable();
                fresh.dedup();
                for &pi in &fresh {
                    let _ = bits.precondition(pi);
                }
                // measure candidates in parallel; the unit payload names
                // the parent frontier entry whose bitset the worker reuses
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
                        rules[i].as_ref()?;
                        let pi = *candidates[i].last()?;
                        let parent = &frontier_ref[u.payload as usize].1;
                        let child = parent.and(bits.precondition(pi)?.as_ref(), n);
                        let m = bits.measure(ci, &child)?;
                        Some((m, Arc::new(child)))
                    };
                    Ok(evaluate())
                });
                report.unit_seconds.extend(outcome.stats.unit_seconds);
                report.fault_stats.merge(&outcome.stats.faults);
                report.unit_failures.extend(outcome.failures);
                // a quarantined unit leaves `None`: its candidate is
                // dropped exactly like a support-pruned one
                let outs = outcome.results.into_iter().map(Option::flatten);

                let mut next_frontier: Vec<(Vec<usize>, Arc<SatBits>)> = Vec::new();
                for ((idxs, rule), out) in candidates.into_iter().zip(rules).zip(outs) {
                    let (Some(mut rule), Some((m, child))) = (rule, out) else {
                        continue;
                    };
                    report.candidates_evaluated += 1;
                    if m.support() < self.config.min_support {
                        report.pruned += 1;
                        continue; // anti-monotone: no supersets either
                    }
                    if m.confidence() >= self.config.min_confidence && m.precondition_count > 0 {
                        rule.support = m.support();
                        rule.confidence = m.confidence();
                        accepted_for_consequence.push(idxs);
                        report.rules.push(rule);
                    } else if level < self.config.max_preconditions {
                        next_frontier.push((idxs, child));
                    }
                }
                frontier = next_frontier;
                if frontier.is_empty() {
                    break;
                }
            }
        }
        report.cache = Some(bits.stats());
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    /// Tuple re-scan mining: identical candidate generation, ordering and
    /// naming as [`Self::mine_relation_cached`], every candidate measured
    /// by enumerating valuations.
    fn scan_candidates(
        &self,
        db: &Database,
        rel: RelId,
        space: &PredicateSpace,
    ) -> DiscoveryReport {
        let start = std::time::Instant::now();
        let rel_name = db.relation(rel).schema.name.clone();
        let preconditions = space.preconditions();
        let mut report = DiscoveryReport {
            rules: RuleSet::default(),
            candidates_evaluated: 0,
            pruned: 0,
            wall_seconds: 0.0,
            unit_seconds: Vec::new(),
            cache: None,
            fault_stats: FaultStats::default(),
            unit_failures: Vec::new(),
            analyzer: rock_analyze::AnalyzerStats::default(),
            rules_dropped_by_analyzer: 0,
        };

        // Parallel evaluation of candidates happens per level: build the
        // level's candidate list, measure each as a work unit, then expand
        // survivors.
        let cluster = Cluster::with_config(self.config.workers, self.config.cluster.clone());
        let mut counter = 0usize;

        for (ci, consequence) in space.consequences.iter().enumerate() {
            // level 0: the consequence alone must clear the support floor
            let base_rule =
                self.make_rule(format!("{rel_name}-c{ci}"), rel, consequence, Vec::new());
            let Some(base_rule) = base_rule else { continue };
            let ctx = self.ctx(db);
            let base = measure(&base_rule, &ctx);
            report.candidates_evaluated += 1;
            if base.support() < self.config.min_consequence_support {
                report.pruned += 1;
                continue;
            }

            // frontier: vectors of predicate indices (sorted, no dups)
            let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
            let mut accepted_for_consequence: Vec<Vec<usize>> = Vec::new();

            for level in 1..=self.config.max_preconditions {
                // expand frontier
                let mut candidates: Vec<Vec<usize>> = Vec::new();
                for x in &frontier {
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
                    }
                }
                if candidates.is_empty() {
                    break;
                }
                // measure candidates in parallel
                let units: Vec<WorkUnit> = (0..candidates.len())
                    .map(|i| WorkUnit::new(i as u32, vec![Partition::new(rel.0, 0, 1)]))
                    .collect();
                let rules: Vec<Option<Rule>> = candidates
                    .iter()
                    .map(|idxs| {
                        counter += 1;
                        self.make_rule(
                            format!("{rel_name}-r{counter}"),
                            rel,
                            consequence,
                            idxs.iter().map(|&i| preconditions[i].clone()).collect(),
                        )
                    })
                    .collect();
                let ctx = self.ctx(db);
                let outcome = cluster.execute(units, |u| {
                    let i = u.rule as usize;
                    Ok(rules[i].as_ref().map(|r| measure(r, &ctx)))
                });
                report.unit_seconds.extend(outcome.stats.unit_seconds);
                report.fault_stats.merge(&outcome.stats.faults);
                report.unit_failures.extend(outcome.failures);
                let measures = outcome.results.into_iter().map(Option::flatten);

                let mut next_frontier = Vec::new();
                for ((idxs, rule), m) in candidates.into_iter().zip(rules).zip(measures) {
                    let (Some(mut rule), Some(m)) = (rule, m) else {
                        continue;
                    };
                    report.candidates_evaluated += 1;
                    if m.support() < self.config.min_support {
                        report.pruned += 1;
                        continue; // anti-monotone: no supersets either
                    }
                    if m.confidence() >= self.config.min_confidence && m.precondition_count > 0 {
                        rule.support = m.support();
                        rule.confidence = m.confidence();
                        accepted_for_consequence.push(idxs);
                        report.rules.push(rule);
                    } else if level < self.config.max_preconditions {
                        next_frontier.push(idxs);
                    }
                }
                frontier = next_frontier;
                if frontier.is_empty() {
                    break;
                }
            }
        }
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    fn ctx<'b>(&'b self, db: &'b Database) -> EvalContext<'b> {
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
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
