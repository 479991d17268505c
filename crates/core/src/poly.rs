//! The polynomial-expression pipeline (paper §5.4 "Polynomial
//! expressions") wired as a detection/correction path for the arithmetic
//! tasks TPA (Bank: `total = amount + fee`) and TPWT (Sales:
//! `price_wot = price − tax`).
//!
//! Discovery fits on *trusted* rows when available ("Rock continually
//! accumulates ground truth … so that the rule discovery module could
//! discover rules on cleaner data", §5.4), falling back to all rows.
//! Detection flags cells violating the expression; correction recomputes
//! the target from the expression when every input attribute is present.

use rock_data::{AttrId, CellRef, Database, FxHashSet, GlobalTid, RelId, Value};
use rock_discovery::prune::{discover_polynomial, PolynomialExpression};

/// A fitted polynomial pipeline for one target attribute.
#[derive(Debug)]
pub struct PolyPipeline {
    pub expr: PolynomialExpression,
    pub tolerance: f64,
}

impl PolyPipeline {
    /// Fit the expression for `(rel, target)`. When `trusted` is non-empty
    /// the fit restricts to those rows.
    pub fn fit(
        db: &Database,
        rel: RelId,
        target: AttrId,
        trusted: &[GlobalTid],
        tolerance: f64,
    ) -> Option<PolyPipeline> {
        let trusted_here: FxHashSet<_> = trusted
            .iter()
            .filter(|g| g.rel == rel)
            .map(|g| g.tid)
            .collect();
        let fit_on =
            |tids: Option<&FxHashSet<rock_data::TupleId>>| -> Option<PolynomialExpression> {
                match tids {
                    Some(set) => {
                        let mut sub = rock_data::Relation::new(db.relation(rel).schema.clone());
                        for tid in set {
                            if let Some(t) = db.relation(rel).get(*tid) {
                                sub.insert(t.eid, t.values.clone());
                            }
                        }
                        let tmp = Database::from_relations(vec![sub]);
                        discover_polynomial(&tmp, RelId(0), target, 0.05).map(|mut e| {
                            e.rel = rel;
                            e
                        })
                    }
                    None => discover_polynomial(db, rel, target, 0.05),
                }
            };
        let mut expr = if trusted_here.len() >= 8 {
            fit_on(Some(&trusted_here))?
        } else {
            // Robust fit: least squares is thrown off by corrupted rows, so
            // iterate fit → trim the worst-residual quartile → refit
            // (self-supervised outlier trimming, standing in for the
            // ground-truth-accumulation loop of §5.4 when no trusted rows
            // exist yet).
            let mut cur = fit_on(None)?;
            for _ in 0..2 {
                let mut residuals: Vec<(rock_data::TupleId, f64)> = db
                    .relation(rel)
                    .iter()
                    .filter_map(|t| {
                        let pred = cur.eval(&t.values)?;
                        let y = t.get(target).as_f64()?;
                        Some((t.tid, (pred - y).abs()))
                    })
                    .collect();
                if residuals.len() < 8 {
                    break;
                }
                residuals.sort_by(|a, b| a.1.total_cmp(&b.1));
                let keep: FxHashSet<rock_data::TupleId> = residuals[..residuals.len() * 3 / 4]
                    .iter()
                    .map(|(t, _)| *t)
                    .collect();
                match fit_on(Some(&keep)) {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            cur
        };
        // Recompute the residual over all rows for reporting.
        let mut resid = 0.0;
        let mut n = 0usize;
        for t in db.relation(rel).iter() {
            if let (Some(pred), Some(y)) = (expr.eval(&t.values), t.get(target).as_f64()) {
                resid += (pred - y).abs();
                n += 1;
            }
        }
        expr.mean_abs_residual = if n == 0 {
            f64::INFINITY
        } else {
            resid / n as f64
        };
        if expr.mean_abs_residual.is_infinite() {
            return None;
        }
        Some(PolyPipeline { expr, tolerance })
    }

    /// Cells violating the expression (detection). Null targets are also
    /// flagged (they are missing values the expression can fill).
    pub fn detect(&self, db: &Database) -> FxHashSet<CellRef> {
        let mut out = FxHashSet::default();
        let rel = self.expr.rel;
        for t in db.relation(rel).iter() {
            let target_cell = CellRef::new(rel, t.tid, self.expr.target);
            if t.get(self.expr.target).is_null() {
                if self.expr.eval(&t.values).is_some() {
                    out.insert(target_cell);
                }
                continue;
            }
            if self.expr.check(&t.values, self.tolerance) == Some(false) {
                out.insert(target_cell);
            }
        }
        out
    }

    /// Recompute violating/null targets (correction). Returns the changed
    /// cells with their new values.
    pub fn correct(&self, db: &mut Database) -> Vec<(CellRef, Value)> {
        let rel = self.expr.rel;
        let flagged = self.detect(db);
        let mut changes = Vec::new();
        for cell in flagged {
            let Some(t) = db.relation(rel).get(cell.tid) else {
                continue;
            };
            let Some(pred) = self.expr.eval(&t.values) else {
                continue;
            };
            let rounded = (pred * 100.0).round() / 100.0;
            let new = Value::Float(rounded);
            db.relation_mut(rel)
                .set_cell(cell.tid, self.expr.target, new.clone());
            changes.push((cell, new));
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, TupleId};

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Payment",
            &[
                ("amount", AttrType::Float),
                ("fee", AttrType::Float),
                ("total", AttrType::Float),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 1..40 {
            let amount = i as f64 * 10.0;
            let fee = i as f64;
            r.insert_row(vec![
                Value::Float(amount),
                Value::Float(fee),
                Value::Float(amount + fee),
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn detects_and_corrects_corrupted_totals() {
        let mut d = db();
        // corrupt two totals, null one
        d.relation_mut(RelId(0))
            .set_cell(TupleId(0), AttrId(2), Value::Float(999.0));
        d.relation_mut(RelId(0))
            .set_cell(TupleId(5), AttrId(2), Value::Float(-3.0));
        d.relation_mut(RelId(0))
            .set_cell(TupleId(9), AttrId(2), Value::Null);
        let pipe = PolyPipeline::fit(&d, RelId(0), AttrId(2), &[], 0.02).expect("fit");
        let flagged = pipe.detect(&d);
        assert_eq!(flagged.len(), 3, "{flagged:?}");
        let changes = pipe.correct(&mut d);
        assert_eq!(changes.len(), 3);
        // corrected values match amount + fee
        assert_eq!(
            d.cell(RelId(0), TupleId(0), AttrId(2)),
            Some(&Value::Float(11.0))
        );
        assert_eq!(
            d.cell(RelId(0), TupleId(9), AttrId(2)),
            Some(&Value::Float(110.0))
        );
        // nothing left to flag
        assert!(pipe.detect(&d).is_empty());
    }

    #[test]
    fn fit_on_trusted_rows_only() {
        let mut d = db();
        // corrupt a third of totals — enough to disturb a naive full fit
        for i in (0..39).step_by(3) {
            d.relation_mut(RelId(0))
                .set_cell(TupleId(i), AttrId(2), Value::Float(1e6));
        }
        let trusted: Vec<GlobalTid> = (1..39)
            .filter(|i| i % 3 != 0)
            .take(12)
            .map(|i| GlobalTid::new(RelId(0), TupleId(i)))
            .collect();
        let pipe = PolyPipeline::fit(&d, RelId(0), AttrId(2), &trusted, 0.02).expect("fit");
        // the trusted fit still recovers total = amount + fee
        let flagged = pipe.detect(&d);
        assert_eq!(
            flagged.len(),
            13,
            "all corrupted rows flagged: {}",
            flagged.len()
        );
    }

    #[test]
    fn clean_data_not_flagged() {
        let d = db();
        let pipe = PolyPipeline::fit(&d, RelId(0), AttrId(2), &[], 0.02).unwrap();
        assert!(pipe.detect(&d).is_empty());
    }
}
