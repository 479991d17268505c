//! Column statistics (paper §5.1, "Metadata management": Crystal
//! maintains column distributions for categorical attributes).
//!
//! Their one consumer is the discovery layer's predicate space
//! (`rock_discovery::space`), which builds constant predicates from the
//! frequent values of categorical columns and null triggers from the null
//! counts.

use crate::ids::AttrId;
use crate::relation::Relation;
use crate::value::Value;
use rock_crystal::hash::FxHashMap;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub null_count: usize,
    pub distinct: usize,
    /// Most frequent non-null values with their frequencies, descending.
    pub top_values: Vec<(Value, usize)>,
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
        let cols = rel.columns();
        let col = cols.column(attr);
        let mut freq: FxHashMap<Value, usize> = FxHashMap::default();
        let mut null_count = 0usize;
        for slot in cols.live().ones() {
            let v = col.value_at(slot);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            *freq.entry(v).or_insert(0) += 1;
        }
        let distinct = freq.len();
        let mut top_values: Vec<(Value, usize)> = freq.into_iter().collect();
        top_values.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_values.truncate(top_k);
        ColumnStats {
            null_count,
            distinct,
            top_values,
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
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(rel: &Relation, top_k: usize) -> Self {
        TableStats {
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
    use crate::schema::{AttrType, RelationSchema};

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
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.top_values[0], (Value::str("a"), 2));
        assert!(s.is_categorical(10));
        assert!(!s.is_categorical(1));
    }

    #[test]
    fn table_stats_cover_every_column() {
        let ts = TableStats::compute(&rel(), 5);
        assert_eq!(ts.columns.len(), 2);
        assert_eq!(ts.column(AttrId(1)).null_count, 1);
        assert_eq!(ts.column(AttrId(1)).distinct, 3);
    }

    #[test]
    fn top_k_truncation_deterministic() {
        let s = ColumnStats::compute(&rel(), AttrId(0), 1);
        assert_eq!(s.top_values.len(), 1);
        assert_eq!(s.top_values[0].0, Value::str("a"));
    }
}
