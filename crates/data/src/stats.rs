//! Column statistics and metadata (paper §5.1, "Metadata management":
//! Crystal maintains column distributions for categorical/numerical
//! attributes and attribute summaries — signatures — for textual ones).
//!
//! These feed three consumers:
//! * the discovery layer, to build constant predicates from frequent values
//!   and to prune uncorrelated predicate candidates (FDX-style, §5.4);
//! * the work-unit **cost estimation** of the scheduler (§5.2);
//! * the data-quality assessment report (§4.1).

use crate::ids::AttrId;
use crate::relation::Relation;
use crate::schema::AttrType;
use crate::value::Value;
use rock_crystal::hash::FxHashMap;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub attr: AttrId,
    pub ty: AttrType,
    /// Live (non-tombstone) rows seen.
    pub count: usize,
    pub null_count: usize,
    pub distinct: usize,
    /// Most frequent non-null values with their frequencies, descending.
    pub top_values: Vec<(Value, usize)>,
    /// Numeric summary, when the column is numeric.
    pub numeric: Option<NumericStats>,
    /// Mean string length for textual columns (signature used by the
    /// attribute-summary metadata and the T5s/RB cost models).
    pub mean_len: f64,
}

/// min/max/mean/variance of a numeric column.
#[derive(Debug, Clone, Copy)]
pub struct NumericStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub variance: f64,
}

impl ColumnStats {
    /// Compute stats for one column of a relation. `top_k` limits the
    /// frequent-value list.
    ///
    /// Scans the columnar image rather than the rows: a stats pass touches
    /// one attribute of every tuple, which is exactly the access pattern
    /// the typed columns are laid out for, and [`Column::value_at`]
    /// materializes the same [`Value`]s the row path would yield.
    ///
    /// [`Column::value_at`]: crate::column::Column::value_at
    pub fn compute(rel: &Relation, attr: AttrId, top_k: usize) -> Self {
        let ty = rel.schema.attr(attr).ty;
        let cols = rel.columns();
        let col = cols.column(attr);
        let mut freq: FxHashMap<Value, usize> = FxHashMap::default();
        let mut count = 0usize;
        let mut null_count = 0usize;
        let mut len_sum = 0usize;
        let mut n = 0usize;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for slot in cols.live().ones() {
            count += 1;
            let v = col.value_at(slot);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if let Some(s) = v.as_str() {
                len_sum += s.len();
            }
            if let Some(x) = v.as_f64() {
                n += 1;
                sum += x;
                sumsq += x * x;
                min = min.min(x);
                max = max.max(x);
            }
            *freq.entry(v).or_insert(0) += 1;
        }
        let distinct = freq.len();
        let mut top_values: Vec<(Value, usize)> = freq.into_iter().collect();
        top_values.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_values.truncate(top_k);
        let non_null = count - null_count;
        let numeric = if ty.is_numeric() && n > 0 {
            let mean = sum / n as f64;
            Some(NumericStats {
                min,
                max,
                mean,
                variance: (sumsq / n as f64 - mean * mean).max(0.0),
            })
        } else {
            None
        };
        ColumnStats {
            attr,
            ty,
            count,
            null_count,
            distinct,
            top_values,
            numeric,
            mean_len: if non_null == 0 {
                0.0
            } else {
                len_sum as f64 / non_null as f64
            },
        }
    }

    /// Fraction of nulls.
    pub fn null_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.null_count as f64 / self.count as f64
        }
    }

    /// Selectivity estimate of an equality predicate on this column
    /// (`1/distinct` under a uniform assumption) — the scheduler's cost
    /// estimator uses this.
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// Is this column categorical enough to enumerate constant predicates
    /// over (few distinct values relative to rows)?
    pub fn is_categorical(&self, max_distinct: usize) -> bool {
        self.distinct > 0 && self.distinct <= max_distinct
    }
}

/// Statistics for one relation: all columns.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rel_name: String,
    pub rows: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(rel: &Relation, top_k: usize) -> Self {
        TableStats {
            rel_name: rel.schema.name.clone(),
            rows: rel.len(),
            columns: (0..rel.schema.arity())
                .map(|i| ColumnStats::compute(rel, AttrId(i as u16), top_k))
                .collect(),
        }
    }

    pub fn column(&self, attr: AttrId) -> &ColumnStats {
        &self.columns[attr.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;

    fn rel() -> Relation {
        let mut r = Relation::new(RelationSchema::of(
            "T",
            &[("cat", AttrType::Str), ("num", AttrType::Float)],
        ));
        r.insert_row(vec![Value::str("a"), Value::Float(1.0)])
            .unwrap();
        r.insert_row(vec![Value::str("a"), Value::Float(3.0)])
            .unwrap();
        r.insert_row(vec![Value::str("b"), Value::Null]).unwrap();
        r.insert_row(vec![Value::Null, Value::Float(2.0)]).unwrap();
        r
    }

    #[test]
    fn categorical_stats() {
        let s = ColumnStats::compute(&rel(), AttrId(0), 10);
        assert_eq!(s.count, 4);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.top_values[0], (Value::str("a"), 2));
        assert!((s.null_fraction() - 0.25).abs() < 1e-12);
        assert!(s.is_categorical(10));
        assert!(!s.is_categorical(1));
    }

    #[test]
    fn numeric_stats() {
        let s = ColumnStats::compute(&rel(), AttrId(1), 10);
        let n = s.numeric.unwrap();
        assert_eq!(n.min, 1.0);
        assert_eq!(n.max, 3.0);
        assert!((n.mean - 2.0).abs() < 1e-12);
        assert!((n.variance - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn table_stats_and_selectivity() {
        let ts = TableStats::compute(&rel(), 5);
        assert_eq!(ts.rows, 4);
        assert_eq!(ts.columns.len(), 2);
        assert!((ts.column(AttrId(0)).eq_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_k_truncation_deterministic() {
        let s = ColumnStats::compute(&rel(), AttrId(0), 1);
        assert_eq!(s.top_values.len(), 1);
        assert_eq!(s.top_values[0].0, Value::str("a"));
    }
}
