//! Data-quality assessment (paper §4.1: "Rock adopts built-in constraints
//! and user-defined templates to monitor data quality in terms of
//! completeness, timeliness, validity and consistency, e.g., checking
//! nulls/duplicates in an attribute").

use rock_data::{AttrId, Database, FxHashMap, RelId};
use rock_ml::ModelRegistry;
use rock_rees::eval::{find_violations, EvalContext};
use rock_rees::RuleSet;

/// Quality report over a database.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// 1 − fraction of null cells.
    pub completeness: f64,
    /// 1 − duplicate fraction over designated key attributes.
    pub uniqueness: f64,
    /// 1 − (rule violations / precondition matches), over the supplied Σ.
    pub consistency: f64,
    /// Fraction of timestamped cells (timeliness coverage).
    pub timeliness_coverage: f64,
    /// Per-rule violation counts.
    pub violations: Vec<(String, usize)>,
}

impl QualityReport {
    /// Assess a database. `keys` lists (relation, attribute) pairs expected
    /// to be duplicate-free (the "checking nulls/duplicates in an
    /// attribute" template). `rules` drive the consistency dimension.
    pub fn assess(
        db: &Database,
        keys: &[(RelId, AttrId)],
        rules: &RuleSet,
        registry: &ModelRegistry,
    ) -> QualityReport {
        let completeness = 1.0 - db.null_fraction();

        // uniqueness over designated keys
        let mut dup = 0usize;
        let mut total = 0usize;
        for (rel, attr) in keys {
            let r = db.relation(*rel);
            let mut seen: FxHashMap<rock_data::Value, usize> = FxHashMap::default();
            for t in r.iter() {
                let v = t.get(*attr);
                if v.is_null() {
                    continue;
                }
                *seen.entry(v.clone()).or_insert(0) += 1;
                total += 1;
            }
            dup += seen
                .values()
                .filter(|&&c| c > 1)
                .map(|c| c - 1)
                .sum::<usize>();
        }
        let uniqueness = if total == 0 {
            1.0
        } else {
            1.0 - dup as f64 / total as f64
        };

        // consistency: violations of the rules
        let ctx = EvalContext::new(db, registry);
        let mut violations = Vec::new();
        let mut viol_count = 0usize;
        for rule in rules.iter() {
            let v = find_violations(rule, &ctx).len();
            viol_count += v;
            violations.push((rule.name.clone(), v));
        }
        let tuples = db.total_tuples().max(1);
        let consistency = (1.0 - viol_count as f64 / tuples as f64).max(0.0);

        // timeliness coverage
        let mut stamped = 0usize;
        let mut cells = 0usize;
        for (_, rel) in db.iter() {
            stamped += rel.timestamps.len();
            cells += rel.len() * rel.schema.arity();
        }
        let timeliness_coverage = if cells == 0 {
            0.0
        } else {
            stamped as f64 / cells as f64
        };

        QualityReport {
            completeness,
            uniqueness,
            consistency,
            timeliness_coverage,
            violations,
        }
    }

    /// Scalar summary in [0, 1] (equal-weight mean of the dimensions,
    /// ignoring timeliness coverage which measures metadata presence, not
    /// quality).
    pub fn overall(&self) -> f64 {
        (self.completeness + self.uniqueness + self.consistency) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, Value};
    use rock_rees::parse_rules;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("k", AttrType::Str), ("v", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        r.insert_row(vec![Value::str("a"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("a"), Value::str("2")])
            .unwrap(); // dup key + conflict
        r.insert_row(vec![Value::str("b"), Value::Null]).unwrap(); // null
        db
    }

    #[test]
    fn dimensions_reflect_errors() {
        let d = db();
        let schema = d.schema();
        let rules = RuleSet::new(
            parse_rules("rule fd: T(t) && T(s) && t.k = s.k -> t.v = s.v", &schema).unwrap(),
        );
        let reg = ModelRegistry::new();
        let q = QualityReport::assess(&d, &[(RelId(0), AttrId(0))], &rules, &reg);
        assert!((q.completeness - (1.0 - 1.0 / 6.0)).abs() < 1e-9);
        assert!(q.uniqueness < 1.0);
        assert!(q.consistency < 1.0);
        assert_eq!(q.violations[0].0, "fd");
        assert_eq!(q.violations[0].1, 2); // (t0,t1) both directions
        assert!(q.overall() < 1.0);
    }

    #[test]
    fn clean_db_scores_high() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("k", AttrType::Str), ("v", AttrType::Str)],
        )]);
        let mut d = Database::new(&schema);
        d.relation_mut(RelId(0))
            .insert_row(vec![Value::str("a"), Value::str("1")])
            .unwrap();
        let rules = RuleSet::default();
        let reg = ModelRegistry::new();
        let q = QualityReport::assess(&d, &[(RelId(0), AttrId(0))], &rules, &reg);
        assert_eq!(q.completeness, 1.0);
        assert_eq!(q.uniqueness, 1.0);
        assert_eq!(q.consistency, 1.0);
        assert_eq!(q.overall(), 1.0);
    }
}
