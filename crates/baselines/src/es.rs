//! **ES** — evidence-set rule discovery ([72]; paper §6: "a rule discovery
//! system that uses the idea of evidence set to discover REE++s in parallel
//! in a purely mining manner").
//!
//! The evidence set of a tuple pair is the set of candidate predicates the
//! pair satisfies. A rule `X → p0` is *exact* iff no evidence contains all
//! of `X` but not `p0`. ES enumerates the full evidence multiset (every
//! ordered pair — no sampling, which is exactly why "ES does not have
//! effective pruning strategies" and times out at scale) and then mines
//! exact minimal rules. Being exact-only makes it precision-oriented: "it
//! mainly focuses on the precision and does not optimize the recall".

use rock_data::{Database, RelId};
use rock_ml::ModelRegistry;
use rock_rees::eval::{distinct_ok, enumerate_valuations, EvalContext};
use rock_rees::{Predicate, Rule, RuleSet};
use std::time::Instant;

/// One evidence: bitset of satisfied candidate predicates for a pair.
type Evidence = u64;

/// ES mining output.
#[derive(Debug)]
pub struct EsReport {
    pub rules: RuleSet,
    /// Evidence rows materialized (the quadratic cost driver).
    pub evidence_rows: usize,
    pub wall_seconds: f64,
}

/// The ES miner.
pub struct EsMiner<'a> {
    pub registry: &'a ModelRegistry,
    /// Maximum precondition size mined.
    pub max_preconditions: usize,
    /// Approximate-constraint confidence floor ([72] discovers exact *and*
    /// approximate DCs). Kept high — ES "mainly focuses on the precision
    /// and does not optimize the recall" (§6).
    pub min_confidence: f64,
}

impl<'a> EsMiner<'a> {
    pub fn new(registry: &'a ModelRegistry) -> Self {
        EsMiner {
            registry,
            max_preconditions: 2,
            min_confidence: 0.94,
        }
    }

    /// Mine exact rules over one relation's two-variable template, from
    /// the provided predicate candidates (precondition pool + consequence
    /// pool). Pools beyond 64 predicates are truncated (bitset width).
    pub fn mine(
        &self,
        db: &Database,
        rel: RelId,
        preconditions: &[Predicate],
        consequences: &[Predicate],
    ) -> EsReport {
        let start = Instant::now();
        let pre: Vec<Predicate> = preconditions.iter().take(40).cloned().collect();
        let cons: Vec<Predicate> = consequences.iter().take(24).cloned().collect();
        let all: Vec<Predicate> = pre.iter().chain(cons.iter()).cloned().collect();

        // a template rule binding (t, s) so we can evaluate predicates
        let probe = Rule::new(
            "es-probe",
            vec![("t".into(), rel), ("s".into(), rel)],
            vec![],
            Vec::new(),
            // consequence is irrelevant for enumeration; use a tautology-ish
            Predicate::EidCmp {
                lvar: 0,
                rvar: 1,
                eq: true,
            },
        );
        let ctx = EvalContext::new(db, self.registry);

        // full evidence multiset over all ordered distinct pairs — the
        // deliberately unpruned quadratic pass
        let mut evidence: Vec<Evidence> = Vec::new();
        enumerate_valuations(&probe, &ctx, |h| {
            if !distinct_ok(&probe, h) {
                return true;
            }
            let mut bits: Evidence = 0;
            for (i, p) in all.iter().enumerate() {
                if ctx.eval_predicate(&probe, h, p) == Some(true) {
                    bits |= 1 << i;
                }
            }
            evidence.push(bits);
            true
        });

        // mine exact minimal rules: for each consequence c, find minimal
        // precondition sets X (|X| ≤ max) with: ∀e: X ⊆ e ⇒ c ∈ e, and X
        // non-vacuous (some evidence contains X).
        let mut rules = RuleSet::default();
        let mut counter = 0usize;
        for (ci, c) in cons.iter().enumerate() {
            let cbit = 1u64 << (pre.len() + ci);
            let mut accepted: Vec<Vec<usize>> = Vec::new();
            let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
            for _level in 1..=self.max_preconditions {
                let mut next = Vec::new();
                for x in &frontier {
                    let startp = x.last().map(|&i| i + 1).unwrap_or(0);
                    for pi in startp..pre.len() {
                        if &pre[pi] == c {
                            continue;
                        }
                        let mut cand = x.clone();
                        cand.push(pi);
                        if accepted.iter().any(|a| a.iter().all(|i| cand.contains(i))) {
                            continue; // minimality
                        }
                        let xbits: u64 = cand.iter().map(|&i| 1u64 << i).sum();
                        let mut support = 0usize;
                        let mut holds = 0usize;
                        for &e in &evidence {
                            if e & xbits == xbits {
                                support += 1;
                                if e & cbit != 0 {
                                    holds += 1;
                                }
                            }
                        }
                        let confidence = if support == 0 {
                            0.0
                        } else {
                            holds as f64 / support as f64
                        };
                        if support > 0 && confidence >= self.min_confidence {
                            counter += 1;
                            let mut rule = Rule::new(
                                format!("es-{counter}"),
                                vec![("t".into(), rel), ("s".into(), rel)],
                                vec![],
                                cand.iter().map(|&i| pre[i].clone()).collect(),
                                c.clone(),
                            );
                            rule.support =
                                support as f64 / (db.relation(rel).len() as f64).powi(2).max(1.0);
                            rule.confidence = confidence;
                            if rule.resolve(self.registry).is_ok() {
                                rules.push(rule);
                            }
                            accepted.push(cand);
                        } else if support > 0 {
                            next.push(cand);
                        }
                        // support == 0: vacuous; supersets are too — prune
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
        }
        EsReport {
            rules,
            evidence_rows: evidence.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

/// ES-style *correction*: one direct repair pass, without the chase,
/// ground truth or entity classes (those are Rock's contribution). For
/// each violated `t.A = s.B` consequence, the left cell is rewritten to
/// the majority value among its violating partners — but only when that
/// majority is strict (a lone disagreeing pair gives no direction), which
/// keeps ES precise and recall-poor, as in §6.
pub fn es_correct(db: &Database, rules: &RuleSet, registry: &ModelRegistry) -> Database {
    use rock_data::FxHashMap;
    use rock_rees::eval::find_violations;
    let mut out = db.clone();
    let ctx = EvalContext::new(db, registry);
    // collect partner values per violated cell
    let mut votes: FxHashMap<rock_data::CellRef, Vec<rock_data::Value>> = FxHashMap::default();
    for rule in rules.iter() {
        for h in find_violations(rule, &ctx) {
            if let Predicate::Attr {
                lvar,
                lattr,
                rvar,
                rattr,
                op: rock_rees::CmpOp::Eq,
            } = &rule.consequence
            {
                let l = h.tuples[*lvar];
                let r = h.tuples[*rvar];
                if let Some(v) = db.cell(r.rel, r.tid, *rattr) {
                    if !v.is_null() {
                        votes
                            .entry(rock_data::CellRef::new(l.rel, l.tid, *lattr))
                            .or_default()
                            .push(v.clone());
                    }
                }
            }
        }
    }
    let mut cells: Vec<_> = votes.keys().copied().collect();
    cells.sort();
    for cell in cells {
        let vs = &votes[&cell];
        let mut counts: FxHashMap<&rock_data::Value, usize> = FxHashMap::default();
        for v in vs {
            *counts.entry(v).or_insert(0) += 1;
        }
        let mut ranked: Vec<(&rock_data::Value, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        // strict majority among partners required
        if (ranked.len() == 1 || (ranked.len() > 1 && ranked[0].1 > ranked[1].1))
            && ranked[0].1 * 2 > vs.len()
        {
            out.relation_mut(cell.rel)
                .set_cell(cell.tid, cell.attr, ranked[0].0.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, AttrType, DatabaseSchema, RelationSchema, Value};
    use rock_rees::CmpOp;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[("city", AttrType::Str), ("area_code", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..10 {
            let (c, a) = if i % 2 == 0 {
                ("Beijing", "010")
            } else {
                ("Shanghai", "021")
            };
            r.insert_row(vec![Value::str(c), Value::str(a)]).unwrap();
        }
        db
    }

    fn pools() -> (Vec<Predicate>, Vec<Predicate>) {
        let eq = |a: u16| Predicate::Attr {
            lvar: 0,
            lattr: AttrId(a),
            op: CmpOp::Eq,
            rvar: 1,
            rattr: AttrId(a),
        };
        (vec![eq(0), eq(1)], vec![eq(0), eq(1)])
    }

    #[test]
    fn mines_exact_fd() {
        let db = db();
        let reg = ModelRegistry::new();
        let (pre, cons) = pools();
        let report = EsMiner::new(&reg).mine(&db, RelId(0), &pre, &cons);
        assert_eq!(report.evidence_rows, 90); // all ordered pairs
                                              // both directions of the city ↔ area_code FD are exact here
        assert!(report.rules.len() >= 2, "{}", report.rules.len());
        for r in report.rules.iter() {
            assert!(r.confidence >= 0.94);
        }
    }

    #[test]
    fn dirty_data_breaks_exactness() {
        let mut d = db();
        // one dirty cell breaks the exact FD — ES (exact-only) drops it;
        // this is precisely its recall problem on real data
        d.relation_mut(RelId(0))
            .set_cell(rock_data::TupleId(0), AttrId(1), Value::str("999"));
        let reg = ModelRegistry::new();
        let (pre, cons) = pools();
        let mut miner = EsMiner::new(&reg);
        miner.min_confidence = 1.0; // exact mode
        let report = miner.mine(&d, RelId(0), &pre, &cons);
        let has_city_fd = report.rules.iter().any(|r| {
            matches!(&r.precondition[..], [Predicate::Attr { lattr, .. }] if lattr.0 == 0)
                && matches!(&r.consequence, Predicate::Attr { lattr, .. } if lattr.0 == 1)
        });
        assert!(!has_city_fd, "exact miner must reject the broken FD");
    }

    #[test]
    fn es_correction_is_naive() {
        let mut d = db();
        d.relation_mut(RelId(0))
            .set_cell(rock_data::TupleId(0), AttrId(1), Value::str("999"));
        let reg = ModelRegistry::new();
        let schema = d.schema();
        let rules = RuleSet::new(
            rock_rees::parse_rules(
                "rule fd: Store(t) && Store(s) && t.city = s.city -> t.area_code = s.area_code",
                &schema,
            )
            .unwrap(),
        );
        let fixed = es_correct(&d, &rules, &reg);
        // the dirty cell is overwritten with a partner's value
        assert_eq!(
            fixed.cell(RelId(0), rock_data::TupleId(0), AttrId(1)),
            Some(&Value::str("010"))
        );
    }
}
