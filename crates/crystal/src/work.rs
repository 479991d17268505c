//! Work units and cost estimation (paper §5.2).
//!
//! "In rule discovery and error detection/correction, each work unit is
//! specified as T = (φ, D_T), where φ is a (partial) REE++ and D_T is a data
//! partition. … During work unit generation, Rock estimates the cost of
//! each work unit using the metadata stored in Crystal."
//!
//! The unit here is deliberately generic: a rule identifier, a partition
//! descriptor, and an estimated cost — the scheduler does not care what the
//! unit computes. The detect/chase/discovery crates construct units with a
//! closure payload when they submit to the [`crate::scheduler::Cluster`].

/// Descriptor of a data partition `D_T` (a HyperCube-style virtual block:
/// a relation plus a contiguous tuple-id range; multi-relation rules carry
/// one range per variable, flattened by the producer into multiple units).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    /// Relation index.
    pub rel: u16,
    /// Tuple-id range `[start, end)`.
    pub start: u32,
    pub end: u32,
}

impl Partition {
    pub fn new(rel: u16, start: u32, end: u32) -> Self {
        assert!(start <= end);
        Partition { rel, start, end }
    }

    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Stable placement key: units are distributed "based on the hash of
    /// D_T" (§5.2).
    pub fn placement_hash(&self) -> u32 {
        crate::crc32::crc32(format!("{}/{}..{}", self.rel, self.start, self.end).as_bytes())
    }
}

/// One work unit `T = (φ, D_T)` plus its cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Which rule (index into the submitted Σ) this unit evaluates.
    pub rule: u32,
    /// The data partitions bound to the rule's tuple variables.
    pub partitions: Vec<Partition>,
    /// Estimated cost (abstract units; drives initial placement order).
    pub est_cost: f64,
    /// Opaque producer tag carried through scheduling untouched. Discovery
    /// uses it to name the parent frontier entry whose satisfaction bitset
    /// the worker extends, so siblings share one read-only parent.
    pub payload: u64,
}

impl WorkUnit {
    pub fn new(rule: u32, partitions: Vec<Partition>) -> Self {
        WorkUnit {
            rule,
            partitions,
            est_cost: 1.0,
            payload: 0,
        }
    }

    /// Attach a producer tag (builder-style).
    pub fn with_payload(mut self, payload: u64) -> Self {
        self.payload = payload;
        self
    }

    /// Placement hash combines all partitions.
    pub fn placement_hash(&self) -> u32 {
        let mut h = 0u32;
        for p in &self.partitions {
            h = h.rotate_left(13) ^ p.placement_hash();
        }
        h ^ self.rule
    }
}

/// Metadata-driven cost estimation (§5.2 strategy 2). Inputs come from
/// `rock_data::TableStats`; the estimate multiplies partition sizes (join
/// fan-out) and scales by predicate selectivity and per-ML-inference cost.
#[derive(Debug, Clone, Default)]
pub struct CostEstimator {
    /// Estimated equality-join selectivity of the rule's cheap predicates.
    pub selectivity: f64,
    /// Number of ML predicates in the rule.
    pub ml_predicates: usize,
    /// Declared per-inference cost of the most expensive model in the rule.
    pub ml_unit_cost: f64,
}

impl CostEstimator {
    pub fn new(selectivity: f64, ml_predicates: usize, ml_unit_cost: f64) -> Self {
        CostEstimator {
            selectivity: selectivity.clamp(0.0, 1.0),
            ml_predicates,
            ml_unit_cost,
        }
    }

    /// Estimate the cost of one unit.
    pub fn estimate(&self, unit: &WorkUnit) -> f64 {
        let cartesian: f64 = unit
            .partitions
            .iter()
            .map(|p| p.len().max(1) as f64)
            .product();
        // cheap-predicate pass + surviving pairs hitting ML predicates
        let survivors = cartesian * self.selectivity.max(1e-9);
        cartesian + survivors * self.ml_predicates as f64 * self.ml_unit_cost.max(0.0)
    }

    /// Estimate and record into the unit.
    pub fn annotate(&self, unit: &mut WorkUnit) {
        unit.est_cost = self.estimate(unit);
    }
}

/// Split a relation of `rows` tuples into `target_units` roughly equal
/// partitions (HyperCube's virtual-block division; §5.3).
pub fn partition_range(rel: u16, rows: u32, target_units: u32) -> Vec<Partition> {
    if rows == 0 {
        return Vec::new();
    }
    let units = target_units.clamp(1, rows);
    let base = rows / units;
    let extra = rows % units;
    let mut out = Vec::with_capacity(units as usize);
    let mut start = 0;
    for i in 0..units {
        let len = base + u32::from(i < extra);
        out.push(Partition::new(rel, start, start + len));
        start += len;
    }
    debug_assert_eq!(start, rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_range_covers_exactly() {
        let parts = partition_range(0, 103, 10);
        assert_eq!(parts.len(), 10);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, 103);
        let total: u32 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 103);
        // contiguity
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // sizes differ by at most 1
        let lens: Vec<u32> = parts.iter().map(|p| p.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_range_edge_cases() {
        assert!(partition_range(0, 0, 4).is_empty());
        let one = partition_range(0, 3, 10);
        assert_eq!(one.len(), 3, "never more units than rows");
    }

    #[test]
    fn cost_scales_with_partition_product_and_ml() {
        let est_cheap = CostEstimator::new(0.01, 0, 0.0);
        let est_ml = CostEstimator::new(0.01, 1, 100.0);
        let unit = WorkUnit::new(
            0,
            vec![Partition::new(0, 0, 100), Partition::new(0, 0, 100)],
        );
        let c0 = est_cheap.estimate(&unit);
        let c1 = est_ml.estimate(&unit);
        assert!(c1 > c0);
        assert!((c0 - 10_000.0).abs() < 1e-6);
        let small = WorkUnit::new(0, vec![Partition::new(0, 0, 10), Partition::new(0, 0, 10)]);
        assert!(est_ml.estimate(&small) < c1);
    }

    #[test]
    fn placement_hash_stable_and_distinct() {
        let a = WorkUnit::new(0, vec![Partition::new(0, 0, 10)]);
        let b = WorkUnit::new(0, vec![Partition::new(0, 10, 20)]);
        assert_eq!(a.placement_hash(), a.placement_hash());
        assert_ne!(a.placement_hash(), b.placement_hash());
    }

    #[test]
    fn payload_defaults_to_zero() {
        let unit = WorkUnit::new(3, vec![Partition::new(0, 0, 5)]);
        assert_eq!(unit.payload, 0);
        assert_eq!(unit.with_payload(42).payload, 42);
    }

    #[test]
    fn annotate_records_cost() {
        let mut unit = WorkUnit::new(2, vec![Partition::new(1, 0, 50)]);
        CostEstimator::new(0.1, 0, 0.0).annotate(&mut unit);
        assert!((unit.est_cost - 50.0).abs() < 1e-9);
    }
}
