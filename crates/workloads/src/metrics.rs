//! Precision / recall / F-measure for detection and correction (paper §6:
//! "F-Measure = 2 · (recall · precision)/(recall + precision), where
//! precision (resp. recall) is the ratio of correctly detected errors to
//! all detected errors (resp. to all errors)").

use crate::inject::ErrorTruth;
use rock_data::{CellRef, Database, FxHashSet, Value};

/// Precision/recall/F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Metrics {
    pub fn new(tp: usize, fp: usize, fn_: usize) -> Self {
        Metrics { tp, fp, fn_ }
    }

    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merge counts (micro-average across tasks).
    pub fn merge(&mut self, other: &Metrics) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Detection metrics: flagged cells vs the injected error cells, restricted
/// to `scope` (a task's target cells; `None` = all injected errors).
pub fn detection_metrics(
    flagged: &FxHashSet<CellRef>,
    truth: &ErrorTruth,
    scope: Option<&FxHashSet<CellRef>>,
) -> Metrics {
    let errors: FxHashSet<CellRef> = match scope {
        Some(s) => truth.error_cells().intersection(s).copied().collect(),
        None => truth.error_cells(),
    };
    let flagged: FxHashSet<CellRef> = match scope {
        Some(s) => flagged.intersection(s).copied().collect(),
        None => flagged.clone(),
    };
    let tp = flagged.intersection(&errors).count();
    Metrics::new(tp, flagged.len() - tp, errors.len() - tp)
}

/// Correction metrics: compare the repaired database against the clean
/// oracle.
///
/// * a *change* is a cell whose repaired value differs from the dirty one;
/// * a change is **correct** (tp) if the repaired value equals the clean
///   value at that cell;
/// * errors never repaired (cell still differs from clean) are fn.
///
/// Restricted to `scope` when given.
pub fn correction_metrics(
    dirty: &Database,
    repaired: &Database,
    clean: &Database,
    truth: &ErrorTruth,
    scope: Option<&FxHashSet<CellRef>>,
) -> Metrics {
    let in_scope = |c: &CellRef| scope.map(|s| s.contains(c)).unwrap_or(true);
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (rid, rel) in repaired.iter() {
        for t in rel.iter() {
            let clean_tuple = clean.relation(rid).get(t.tid);
            for a in 0..rel.schema.arity() {
                let attr = rock_data::AttrId(a as u16);
                let cell = CellRef::new(rid, t.tid, attr);
                if !in_scope(&cell) {
                    continue;
                }
                let rep = t.get(attr);
                let dirty_v = dirty
                    .relation(rid)
                    .get(t.tid)
                    .map(|t| t.get(attr).clone())
                    .unwrap_or(Value::Null);
                // Oracle value: the clean database where the tuple exists;
                // injected duplicate tuples are absent from `clean`, so
                // their oracle is the recorded correct value (reformat-
                // noised cells) or the dirty value itself (faithful copy).
                let clean_v = match clean_tuple {
                    Some(ct) => ct.get(attr).clone(),
                    None => truth
                        .correct_value(&cell)
                        .cloned()
                        .unwrap_or_else(|| dirty_v.clone()),
                };
                let changed = *rep != dirty_v;
                let was_error = dirty_v != clean_v;
                if changed {
                    if *rep == clean_v {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                } else if was_error {
                    fn_ += 1;
                }
            }
        }
    }
    Metrics::new(tp, fp, fn_)
}

/// Duplicate-pair metrics for ER: predicted vs true duplicate pairs
/// (order-normalized).
pub fn er_pair_metrics(
    predicted: &[(rock_data::GlobalTid, rock_data::GlobalTid)],
    truth: &[(rock_data::GlobalTid, rock_data::GlobalTid)],
) -> Metrics {
    let norm = |pairs: &[(rock_data::GlobalTid, rock_data::GlobalTid)]| -> FxHashSet<_> {
        pairs
            .iter()
            .map(|(a, b)| if a <= b { (*a, *b) } else { (*b, *a) })
            .collect()
    };
    let p = norm(predicted);
    let t = norm(truth);
    let tp = p.intersection(&t).count();
    Metrics::new(tp, p.len() - tp, t.len() - tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, AttrType, DatabaseSchema, GlobalTid, RelId, RelationSchema, TupleId};

    #[test]
    fn metric_arithmetic() {
        let m = Metrics::new(8, 2, 2);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 0.8).abs() < 1e-12);
        assert!((m.f1() - 0.8).abs() < 1e-12);
        let zero = Metrics::default();
        assert_eq!(zero.f1(), 0.0);
        let mut acc = Metrics::new(1, 0, 0);
        acc.merge(&Metrics::new(1, 2, 3));
        assert_eq!((acc.tp, acc.fp, acc.fn_), (2, 2, 3));
    }

    fn cell(t: u32, a: u16) -> CellRef {
        CellRef::new(RelId(0), TupleId(t), AttrId(a))
    }

    #[test]
    fn detection_metrics_with_scope() {
        let mut truth = ErrorTruth::default();
        truth.corrupted.insert(cell(0, 0), Value::str("x"));
        truth.corrupted.insert(cell(1, 0), Value::str("y"));
        truth.nulled.insert(cell(2, 0), Value::str("z"));
        let flagged: FxHashSet<CellRef> = [cell(0, 0), cell(5, 0)].into_iter().collect();
        let m = detection_metrics(&flagged, &truth, None);
        assert_eq!((m.tp, m.fp, m.fn_), (1, 1, 2));
        // scoping to tuple 0 and 5 drops the unflagged errors
        let scope: FxHashSet<CellRef> = [cell(0, 0), cell(5, 0)].into_iter().collect();
        let m = detection_metrics(&flagged, &truth, Some(&scope));
        assert_eq!((m.tp, m.fp, m.fn_), (1, 1, 0));
    }

    #[test]
    fn correction_metrics_cases() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of("T", &[("v", AttrType::Str)])]);
        let mut clean = Database::new(&schema);
        let r = clean.relation_mut(RelId(0));
        for s in ["a", "b", "c", "d"] {
            r.insert_row(vec![Value::str(s)]).unwrap();
        }
        // dirty: t0 corrupted, t1 corrupted, t2 fine, t3 corrupted
        let mut dirty = clean.clone();
        dirty
            .relation_mut(RelId(0))
            .set_cell(TupleId(0), AttrId(0), Value::str("X"));
        dirty
            .relation_mut(RelId(0))
            .set_cell(TupleId(1), AttrId(0), Value::str("Y"));
        dirty
            .relation_mut(RelId(0))
            .set_cell(TupleId(3), AttrId(0), Value::str("Z"));
        // repaired: t0 fixed correctly, t1 "fixed" wrongly, t2 broken, t3 untouched
        let mut rep = dirty.clone();
        rep.relation_mut(RelId(0))
            .set_cell(TupleId(0), AttrId(0), Value::str("a"));
        rep.relation_mut(RelId(0))
            .set_cell(TupleId(1), AttrId(0), Value::str("W"));
        rep.relation_mut(RelId(0))
            .set_cell(TupleId(2), AttrId(0), Value::str("V"));
        let truth = ErrorTruth::default();
        let m = correction_metrics(&dirty, &rep, &clean, &truth, None);
        assert_eq!((m.tp, m.fp, m.fn_), (1, 2, 1));
    }

    #[test]
    fn er_pairs_order_normalized() {
        let g = |a: u32, b: u32| {
            (
                GlobalTid::new(RelId(0), TupleId(a)),
                GlobalTid::new(RelId(0), TupleId(b)),
            )
        };
        let pred = vec![g(1, 0), g(2, 3)];
        let truth = vec![g(0, 1), g(4, 5)];
        let m = er_pair_metrics(&pred, &truth);
        assert_eq!((m.tp, m.fp, m.fn_), (1, 1, 1));
    }
}
