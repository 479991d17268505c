//! Fix provenance: "why is this cell 42?" (ROADMAP item 4; the repair-
//! lineage framing follows HoloClean — see PAPERS.md).
//!
//! The WAL already records everything a lineage query needs: each
//! [`FixRecord`] carries its rule id, the valuation's bound tuples, and
//! the ids of the prior fixes that last touched those tuples. This module
//! replays a log's *committed* prefix (records past the last
//! `RoundCommit` are a crashed tail and excluded — durable provenance
//! only) into an id-indexed graph with a per-cell index.

use crate::chase::{ChaseConfig, ChaseEngine};
use crate::wal::{self, DurabilityConfig, FixKind, FixRecord, WalError, WalRecord};
use rock_crystal::sync::{AtomicU64, Ordering};
use rock_data::{AttrId, CellRef, DataError, Database, DatabaseSchema, FxHashMap, RelId, Value};
use rock_ml::ModelRegistry;
use rock_rees::RuleSet;
use std::fmt;
use std::path::Path;

/// The provenance graph of one chase run.
#[derive(Debug, Default)]
pub struct ProvenanceGraph {
    /// All committed fixes, ascending id.
    nodes: Vec<FixRecord>,
    by_id: FxHashMap<u64, usize>,
    /// Fix ids that rewrote each cell, in commit order.
    by_cell: FxHashMap<CellRef, Vec<u64>>,
}

/// Answer to a `why(cell)` query.
#[derive(Debug, Clone)]
pub struct ProvenanceChain {
    /// The last fix that wrote the cell.
    pub fix: FixRecord,
    /// Its transitive parents, ascending id — the full derivation.
    pub ancestors: Vec<FixRecord>,
}

rock_data::json_codec!(struct ProvenanceChain { fix, ancestors });

impl ProvenanceGraph {
    /// Load from a durability directory's WAL (all segments, in order).
    pub fn load(dir: &Path) -> Result<Self, WalError> {
        let scan = wal::read_wal_dir(dir)?;
        // keep only the committed prefix
        let mut committed = 0usize;
        for (i, (_, rec)) in scan.records.iter().enumerate() {
            if matches!(rec, WalRecord::RoundCommit { .. }) {
                committed = i + 1;
            }
        }
        let records: Vec<WalRecord> = scan
            .records
            .into_iter()
            .take(committed)
            .map(|(_, r)| r)
            .collect();
        Ok(Self::from_records(&records))
    }

    /// Build from an already-decoded record sequence.
    pub fn from_records(records: &[WalRecord]) -> Self {
        let mut g = ProvenanceGraph::default();
        for rec in records {
            if let WalRecord::Fix(f) = rec {
                if let Some(cell) = f.kind.cell() {
                    g.by_cell.entry(cell).or_default().push(f.id);
                }
                g.by_id.insert(f.id, g.nodes.len());
                g.nodes.push(f.clone());
            }
        }
        g
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: u64) -> Option<&FixRecord> {
        self.by_id.get(&id).map(|&i| &self.nodes[i])
    }

    /// All committed fixes, ascending id.
    pub fn nodes(&self) -> &[FixRecord] {
        &self.nodes
    }

    /// Every fix that rewrote `cell`, in commit order.
    pub fn fixes_for_cell(&self, cell: CellRef) -> &[u64] {
        self.by_cell.get(&cell).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Cells with at least one recorded fix, sorted (stable output for
    /// panels and the harness's `--provenance auto` mode).
    pub fn repaired_cells(&self) -> Vec<CellRef> {
        let mut cells: Vec<CellRef> = self.by_cell.keys().copied().collect();
        cells.sort_unstable();
        cells
    }

    /// The derivation of one fix: the record plus the transitive closure
    /// of its provenance parents, ascending id.
    fn chain_of(&self, id: u64) -> Option<ProvenanceChain> {
        let fix = self.node(id)?.clone();
        let mut seen: Vec<u64> = Vec::new();
        let mut stack: Vec<u64> = fix.parents.clone();
        while let Some(id) = stack.pop() {
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            if let Some(n) = self.node(id) {
                stack.extend(n.parents.iter().copied());
            }
        }
        seen.sort_unstable();
        let ancestors = seen
            .into_iter()
            .filter_map(|id| self.node(id).cloned())
            .collect();
        Some(ProvenanceChain { fix, ancestors })
    }

    /// Why does this cell hold its value? Returns the last fix that wrote
    /// it plus the transitive closure of its provenance parents.
    pub fn why(&self, cell: CellRef) -> Option<ProvenanceChain> {
        let &last = self.by_cell.get(&cell)?.last()?;
        self.chain_of(last)
    }

    /// Every fix chain that rewrote `cell`, in commit order — the
    /// competing-writers view: where [`Self::why`] answers with the write
    /// that won, this keeps each earlier write's derivation too, so
    /// `rock-analyze --why` can print both sides of a W301 hazard.
    pub fn why_all(&self, cell: CellRef) -> Vec<ProvenanceChain> {
        self.fixes_for_cell(cell)
            .iter()
            .filter_map(|&id| self.chain_of(id))
            .collect()
    }
}

/// Error surface of [`replay_witness`]. Every failure is a value — this
/// crate denies `unwrap`/`expect` outside tests, and the replay path runs
/// inside the `rock-analyze` CLI where a panic would mask the diagnostics
/// the user asked for.
#[derive(Debug)]
pub enum ReplayError {
    /// Creating the scratch durability directory failed.
    Io(std::io::Error),
    /// The witness tuple did not fit the relation (arity or type).
    Witness(DataError),
    /// The scratch WAL could not be read back.
    Wal(WalError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay scratch dir: {e}"),
            ReplayError::Witness(e) => write!(f, "witness tuple rejected: {e}"),
            ReplayError::Wal(e) => write!(f, "replay WAL unreadable: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What replaying a witness tuple produced.
#[derive(Debug)]
pub struct WitnessReplay {
    /// One provenance chain per committed fix on the contested cell, in
    /// commit order. Competing writers yield one chain per write that the
    /// conflict policy let through; a rejected write shows up in
    /// `conflicts` instead.
    pub chains: Vec<ProvenanceChain>,
    /// Chase conflicts observed on the replay instance.
    pub conflicts: usize,
    /// Rounds the replay chase ran.
    pub rounds: usize,
}

/// Replay a minimal synthetic instance — a single `rel` tuple — through a
/// durable chase in a process-private scratch directory and return the
/// provenance chains of the contested `attr` cell.
///
/// This is the counterexample generator behind `rock-analyze --why`: the
/// W301 witness tuple satisfies both competing preconditions, so the
/// replay makes the predicted race actually happen, and the WAL-backed
/// [`ProvenanceGraph`] shows each fix chain that fought over the cell.
/// The scratch directory is removed afterwards (best-effort).
pub fn replay_witness(
    rules: &RuleSet,
    registry: &ModelRegistry,
    schema: &DatabaseSchema,
    rel: RelId,
    tuple: Vec<Value>,
    attr: AttrId,
) -> Result<WitnessReplay, ReplayError> {
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rock-why-{}-{}",
        std::process::id(),
        // Relaxed: a unique-id counter — only atomicity matters, no
        // other memory is published under it.
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(ReplayError::Io)?;
    let replay = || {
        let mut db = Database::new(schema);
        let tid = db
            .relation_mut(rel)
            .insert_row(tuple)
            .map_err(ReplayError::Witness)?;
        let config = ChaseConfig {
            durability: Some(DurabilityConfig {
                sync: false,
                ..DurabilityConfig::new(&dir)
            }),
            ..ChaseConfig::default()
        };
        let result = ChaseEngine::new(rules, registry, config).run(&db, &[]);
        let graph = ProvenanceGraph::load(&dir).map_err(ReplayError::Wal)?;
        Ok(WitnessReplay {
            chains: graph.why_all(CellRef::new(rel, tid, attr)),
            conflicts: result.conflicts,
            rounds: result.rounds,
        })
    };
    let out = replay();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, GlobalTid, RelId, TupleId, Value};

    fn fix(id: u64, round: u64, cell_tid: u32, parents: Vec<u64>) -> WalRecord {
        let cell = CellRef::new(RelId(0), TupleId(cell_tid), AttrId(1));
        WalRecord::Fix(FixRecord {
            id,
            round,
            rule: 3,
            kind: FixKind::Cell {
                cell,
                old: Value::Null,
                new: Value::Int(42),
            },
            valuation: vec![GlobalTid::new(RelId(0), TupleId(cell_tid))],
            parents,
        })
    }

    #[test]
    fn why_walks_transitive_parents() {
        let records = vec![
            WalRecord::Begin { fingerprint: 1 },
            WalRecord::RoundBegin { round: 1 },
            fix(0, 1, 0, vec![]),
            fix(1, 1, 1, vec![0]),
            WalRecord::RoundCommit {
                round: 1,
                checkpoint: None,
                state_crc: 0,
            },
            WalRecord::RoundBegin { round: 2 },
            fix(2, 2, 2, vec![1]),
            WalRecord::RoundCommit {
                round: 2,
                checkpoint: None,
                state_crc: 0,
            },
        ];
        let g = ProvenanceGraph::from_records(&records);
        assert_eq!(g.len(), 3);
        let chain = g
            .why(CellRef::new(RelId(0), TupleId(2), AttrId(1)))
            .unwrap();
        assert_eq!(chain.fix.id, 2);
        assert_eq!(chain.fix.rule, 3);
        assert!(!chain.fix.valuation.is_empty());
        let ids: Vec<u64> = chain.ancestors.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1]);
        // unknown cell
        assert!(g
            .why(CellRef::new(RelId(0), TupleId(9), AttrId(1)))
            .is_none());
    }

    #[test]
    fn why_all_keeps_every_competing_write() {
        let records = vec![
            WalRecord::Begin { fingerprint: 1 },
            WalRecord::RoundBegin { round: 1 },
            fix(0, 1, 0, vec![]),
            fix(1, 1, 0, vec![0]),
            WalRecord::RoundCommit {
                round: 1,
                checkpoint: None,
                state_crc: 0,
            },
        ];
        let g = ProvenanceGraph::from_records(&records);
        let cell = CellRef::new(RelId(0), TupleId(0), AttrId(1));
        let all = g.why_all(cell);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].fix.id, 0);
        assert!(all[0].ancestors.is_empty());
        assert_eq!(all[1].fix.id, 1);
        let ids: Vec<u64> = all[1].ancestors.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0]);
        // `why` stays the last-writer view
        assert_eq!(g.why(cell).map(|c| c.fix.id), Some(1));
        assert!(g
            .why_all(CellRef::new(RelId(0), TupleId(9), AttrId(1)))
            .is_empty());
    }

    #[test]
    fn replay_witness_realizes_a_competing_write() {
        use rock_data::{AttrType, DatabaseSchema, RelationSchema};
        use rock_rees::parse_rules;
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[
                ("city", AttrType::Str),
                ("code", AttrType::Str),
                ("pop", AttrType::Int),
            ],
        )]);
        let rules = RuleSet::new(
            parse_rules(
                "rule lo: T(t) && t.pop > 10 -> t.code = 'a'\n\
                 rule hi: T(t) && t.pop < 90 -> t.code = 'b'\n",
                &schema,
            )
            .unwrap(),
        );
        let reg = rock_ml::ModelRegistry::new();
        // pop = 11 satisfies both preconditions — the W301 witness shape.
        let rep = replay_witness(
            &rules,
            &reg,
            &schema,
            RelId(0),
            vec![Value::Null, Value::Null, Value::Int(11)],
            AttrId(1),
        )
        .unwrap();
        assert!(rep.rounds >= 1);
        assert!(
            !rep.chains.is_empty(),
            "one write must commit and leave a chain: {rep:?}"
        );
        assert!(
            rep.chains.len() + rep.conflicts >= 2,
            "the losing writer must surface as a chain or a conflict: {rep:?}"
        );
        // arity mismatch is a typed error, not a panic
        assert!(matches!(
            replay_witness(&rules, &reg, &schema, RelId(0), vec![], AttrId(1)),
            Err(ReplayError::Witness(_))
        ));
    }
}
