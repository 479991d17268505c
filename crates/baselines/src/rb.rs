//! **RB** — the Baran-style holistic cleaner ([65]; paper §6: "a holistic
//! data cleaning system that adopts the feature engineering and learns ML
//! models for error detection and correction").
//!
//! Behavioral profile reproduced from the paper's observations:
//! * "costly feature engineering" — RB materializes, per cell, a wide
//!   feature vector (value frequency, format pattern frequency,
//!   co-occurrence with every other cell of the row); metered per feature;
//! * good on textual values (0.88 F-measure correcting text per §6),
//!   weaker on numerics (0.52);
//! * error detection via a learned classifier over the cell features
//!   (stand-in: gradient-boosted stumps);
//! * correction via context co-occurrence voting (Baran's value models);
//! * no ER and no TD support ("TD and ER of RB are not shown because they
//!   do not support these operations").

use rock_data::{AttrId, CellRef, Database, FxHashMap, FxHashSet, RelId, Value};
use rock_ml::tree::GradientBoosting;
use rock_ml::CostMeter;
use std::time::Instant;

/// Modeled cost per cell featurization (wide feature engineering).
pub const COST_PER_FEATURIZE: f64 = 120.0;

/// Format pattern of a value: letters→a, digits→9, other kept.
pub fn format_pattern(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphabetic() {
                'a'
            } else if c.is_numeric() {
                '9'
            } else {
                c
            }
        })
        .collect()
}

/// Per-column statistics RB's features read.
struct ColStats {
    value_freq: FxHashMap<Value, u32>,
    pattern_freq: FxHashMap<String, u32>,
    rows: u32,
}

/// Co-occurrence: (context attr, context value, target attr) -> target
/// value -> count. This is Baran's "value model" context.
type Cooc = FxHashMap<(AttrId, Value, AttrId), FxHashMap<Value, u32>>;

/// The RB cleaner for one relation.
pub struct RbCleaner {
    rel: RelId,
    stats: Vec<ColStats>,
    cooc: Cooc,
    detector: GradientBoosting,
    pub meter: CostMeter,
    pub train_seconds: f64,
}

impl RbCleaner {
    /// Feature vector of a cell (given the row): [value rarity, pattern
    /// rarity, null flag, mean context co-occurrence support].
    fn features(
        stats: &[ColStats],
        cooc: &Cooc,
        meter: &CostMeter,
        values: &[Value],
        attr: AttrId,
    ) -> Vec<f64> {
        meter.add(COST_PER_FEATURIZE);
        let v = &values[attr.index()];
        let col = &stats[attr.index()];
        if v.is_null() {
            return vec![1.0, 1.0, 1.0, 0.0];
        }
        let vf = col.value_freq.get(v).copied().unwrap_or(0) as f64 / col.rows.max(1) as f64;
        let pf = col
            .pattern_freq
            .get(&format_pattern(&v.render()))
            .copied()
            .unwrap_or(0) as f64
            / col.rows.max(1) as f64;
        // context support: over the other cells, how often does this
        // target value co-occur with that context value?
        let mut support = 0.0;
        let mut n = 0usize;
        for (i, cv) in values.iter().enumerate() {
            let cattr = AttrId(i as u16);
            if cattr == attr || cv.is_null() {
                continue;
            }
            n += 1;
            if let Some(dist) = cooc.get(&(cattr, cv.clone(), attr)) {
                let total: u32 = dist.values().sum();
                let mine = dist.get(v).copied().unwrap_or(0);
                if total > 0 {
                    support += mine as f64 / total as f64;
                }
            }
        }
        let support = if n == 0 { 0.0 } else { support / n as f64 };
        vec![1.0 - vf.min(1.0), 1.0 - pf.min(1.0), 0.0, support]
    }

    /// Train on a labeled sample: `(clean, dirty)` databases of the same
    /// shape (the paper samples a small labeled set "so that they could
    /// finish training in one day").
    pub fn train(clean_sample: &Database, dirty_sample: &Database, rel: RelId) -> RbCleaner {
        let start = Instant::now();
        let meter = CostMeter::default();
        let r = dirty_sample.relation(rel);
        // column stats + co-occurrence from the dirty sample (what RB sees)
        let mut stats = Vec::new();
        for a in 0..r.schema.arity() {
            let attr = AttrId(a as u16);
            let mut value_freq: FxHashMap<Value, u32> = FxHashMap::default();
            let mut pattern_freq: FxHashMap<String, u32> = FxHashMap::default();
            for t in r.iter() {
                let v = t.get(attr);
                if v.is_null() {
                    continue;
                }
                *value_freq.entry(v.clone()).or_insert(0) += 1;
                *pattern_freq.entry(format_pattern(&v.render())).or_insert(0) += 1;
            }
            stats.push(ColStats {
                value_freq,
                pattern_freq,
                rows: r.len() as u32,
            });
        }
        let mut cooc: Cooc = FxHashMap::default();
        for t in r.iter() {
            for i in 0..t.values.len() {
                for j in 0..t.values.len() {
                    if i == j || t.values[i].is_null() || t.values[j].is_null() {
                        continue;
                    }
                    *cooc
                        .entry((AttrId(i as u16), t.values[i].clone(), AttrId(j as u16)))
                        .or_default()
                        .entry(t.values[j].clone())
                        .or_insert(0) += 1;
                }
            }
        }
        // labeled training rows: cell is an error iff dirty != clean
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in r.iter() {
            let Some(ct) = clean_sample.relation(rel).get(t.tid) else {
                continue;
            };
            for a in 0..t.values.len() {
                let attr = AttrId(a as u16);
                xs.push(Self::features(&stats, &cooc, &meter, &t.values, attr));
                ys.push(if t.get(attr) != ct.get(attr) {
                    1.0
                } else {
                    0.0
                });
            }
        }
        let detector = GradientBoosting::fit(&xs, &ys, 40, 0.3);
        RbCleaner {
            rel,
            stats,
            cooc,
            detector,
            meter,
            train_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Detect erroneous cells of the relation.
    pub fn detect(&self, db: &Database) -> (FxHashSet<CellRef>, f64) {
        let start = Instant::now();
        let mut out = FxHashSet::default();
        for t in db.relation(self.rel).iter() {
            for a in 0..t.values.len() {
                let attr = AttrId(a as u16);
                let f = Self::features(&self.stats, &self.cooc, &self.meter, &t.values, attr);
                if self.detector.predict(&f) >= 0.5 {
                    out.insert(CellRef::new(self.rel, t.tid, attr));
                }
            }
        }
        (out, start.elapsed().as_secs_f64())
    }

    /// Correct: context co-occurrence vote over the row's other cells.
    pub fn correct(&self, db: &Database) -> (Database, f64) {
        let start = Instant::now();
        let (flagged, _) = self.detect(db);
        let mut out = db.clone();
        for cell in flagged {
            let Some(t) = db.relation(self.rel).get(cell.tid) else {
                continue;
            };
            let mut votes: FxHashMap<Value, f64> = FxHashMap::default();
            for (i, cv) in t.values.iter().enumerate() {
                let cattr = AttrId(i as u16);
                if cattr == cell.attr || cv.is_null() {
                    continue;
                }
                if let Some(dist) = self.cooc.get(&(cattr, cv.clone(), cell.attr)) {
                    let total: u32 = dist.values().sum();
                    for (v, c) in dist {
                        *votes.entry(v.clone()).or_insert(0.0) += *c as f64 / total.max(1) as f64;
                    }
                }
            }
            let mut winner = votes
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .map(|(v, _)| v);
            // Baran's value models: when context co-occurrence gives no
            // answer (near-unique textual values), propose the training
            // value most edit-similar to the corrupted surface form.
            if winner.is_none() {
                if let Some(cur) = db.cell(cell.rel, cell.tid, cell.attr) {
                    if let Some(s) = cur.as_str() {
                        winner = self.stats[cell.attr.index()]
                            .value_freq
                            .keys()
                            .filter_map(|v| {
                                v.as_str()
                                    .map(|vs| (v, rock_ml::text::edit_similarity(s, vs)))
                            })
                            .filter(|(_, sim)| *sim >= 0.75)
                            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
                            .map(|(v, _)| v.clone());
                    }
                }
            }
            if let Some(v) = winner {
                if !v.is_null() && Some(&v) != db.cell(cell.rel, cell.tid, cell.attr) {
                    out.relation_mut(cell.rel).set_cell(cell.tid, cell.attr, v);
                }
            }
        }
        (out, start.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, TupleId};

    fn clean() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("city", AttrType::Str), ("code", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..40 {
            let (c, a) = if i % 2 == 0 {
                ("Beijing", "010")
            } else {
                ("Shanghai", "021")
            };
            r.insert_row(vec![Value::str(c), Value::str(a)]).unwrap();
        }
        db
    }

    fn dirtied() -> (Database, Database) {
        let c = clean();
        let mut d = c.clone();
        d.relation_mut(RelId(0))
            .set_cell(TupleId(0), AttrId(1), Value::str("0999"));
        d.relation_mut(RelId(0))
            .set_cell(TupleId(3), AttrId(0), Value::str("Shangha!"));
        (c, d)
    }

    #[test]
    fn format_patterns() {
        assert_eq!(format_pattern("010"), "999");
        assert_eq!(format_pattern("Beijing"), "aaaaaaa");
        assert_eq!(format_pattern("A-12"), "a-99");
    }

    #[test]
    fn detects_trained_error_classes() {
        let (c, d) = dirtied();
        let rb = RbCleaner::train(&c, &d, RelId(0));
        let (flagged, _) = rb.detect(&d);
        assert!(
            flagged.contains(&CellRef::new(RelId(0), TupleId(0), AttrId(1))),
            "{flagged:?}"
        );
        assert!(flagged.contains(&CellRef::new(RelId(0), TupleId(3), AttrId(0))));
        // precision: not everything flagged
        assert!(flagged.len() < 10, "{}", flagged.len());
    }

    #[test]
    fn corrects_via_cooccurrence() {
        let (c, d) = dirtied();
        let rb = RbCleaner::train(&c, &d, RelId(0));
        let (fixed, _) = rb.correct(&d);
        // the wrong code co-occurs with "Beijing" → restored to 010
        assert_eq!(
            fixed.cell(RelId(0), TupleId(0), AttrId(1)),
            Some(&Value::str("010"))
        );
    }

    #[test]
    fn feature_engineering_is_metered() {
        let (c, d) = dirtied();
        let rb = RbCleaner::train(&c, &d, RelId(0));
        let cost0 = rb.meter.cost();
        rb.detect(&d);
        assert!(rb.meter.cost() > cost0);
        assert!(rb.meter.cost() >= 80.0 * COST_PER_FEATURIZE);
    }
}
