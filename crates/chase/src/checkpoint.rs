//! Round-boundary checkpoints (full + incremental) and the crash-recovery
//! locator.
//!
//! A [`ChaseCheckpoint`] is the complete loop state of `run_inner` at a
//! round boundary: every round is a deterministic function of this state,
//! so `checkpoint(round k)` + re-running rounds `k+1..` reproduces an
//! uninterrupted run *byte-identically* (enforced by the CI kill-and-
//! resume job, the crashsim sweep, and `tests/wal_durability.rs`).
//!
//! On disk a checkpoint is a [`CheckpointDoc`]: either a **full** snapshot
//! or a **delta** against the previous snapshot. A delta stores only the
//! cells/eids of the working database that changed, the per-rule
//! pending/carry slots that changed, and the suffixes of the append-only
//! accumulators (changes, merged pairs, round stats); the fix store,
//! activation set, and cumulative delta ride along verbatim (they are
//! small next to the database). Deltas chain back to their full through
//! `(base_name, base_crc)` pairs — `base_crc` is the CRC-32 of the base
//! *file*, the same value the base's own `RoundCommit` marker carries, so
//! one flipped bit anywhere in the chain invalidates every checkpoint
//! built on it. [`DurabilityConfig::full_every`] inserts periodic fulls to
//! bound chain length and re-anchor compaction.
//!
//! Recovery invariants:
//!
//! 1. The checkpoint file is written (atomically, fsynced) **before** its
//!    `RoundCommit` marker is appended — a marker in the WAL's valid
//!    prefix implies its checkpoint is complete on disk.
//! 2. Resume picks the **last** commit marker in the valid prefix whose
//!    checkpoint *chain* exists, parses, and matches every CRC link,
//!    falling back to earlier markers if any file in the chain was lost
//!    or damaged.
//! 3. The WAL is truncated to the chosen marker before appending — the
//!    re-run rounds regenerate their records in place, so replay after
//!    any number of crashes is idempotent.
//! 4. Whether round k's checkpoint is full or delta is a pure function of
//!    `(round, round_base, full_every, previous checkpoint)` — a resumed
//!    run makes the same choices as the uninterrupted one, keeping the
//!    on-disk chain byte-identical across crashes.
//! 5. Timing observability (`round_makespans`, fault counters) is *not*
//!    checkpointed: it restarts empty on resume. Repair state — database,
//!    fixes, deltas, carries, changes — is complete, and since v2 the
//!    provenance id state (`next_fix_id`, `last_fix`) is stored in the
//!    document itself, so resume needs no WAL replay and compaction may
//!    drop segments older than the latest full.

use crate::chase::Proposal;
use crate::delta::{DeltaSet, RoundStats};
use crate::fixes::FixSnapshot;
use crate::wal::{self, DurabilityConfig, WalError, WalPos, WalRecord, WalWriter};
use rock_crystal::{crc32, FaultVfs};
use rock_data::{
    json::{self, Json, ToJson},
    AttrId, CellRef, Database, Eid, GlobalTid, RelId, TupleId, Value,
};
use std::path::Path;

/// Bumped when the checkpoint encoding changes incompatibly.
/// v2: self-contained provenance id state, session batches, delta docs.
/// v3: the in-tree JSON codec (`rock_data::json`): exact 64-bit integers,
/// tagged dates and non-finite floats, no optional fields.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Hard cap on delta-chain length: a longer chain means a corrupt or
/// cyclic `base_name` graph, not a real configuration.
const MAX_CHAIN: usize = 1024;

/// Complete chase loop state at a round boundary.
#[derive(Debug, Clone)]
pub struct ChaseCheckpoint {
    pub version: u32,
    /// Engine fingerprint (rules + config) the state belongs to.
    pub fingerprint: u64,
    /// Rounds completed when this checkpoint was taken (global across the
    /// batches of a durable session).
    pub round: u64,
    /// ΔD batch this state belongs to (1 for plain runs).
    pub batch: u64,
    /// Global rounds committed by earlier batches of the session.
    pub round_base: u64,
    /// True when the loop decided to stop after this round — resume then
    /// skips straight to the final materialization.
    pub done: bool,
    /// The working database with all committed fixes materialized.
    pub db: Database,
    pub fixes: FixSnapshot,
    /// Rules activated for the next round (sorted).
    pub active: Vec<usize>,
    pub pruned_carry: usize,
    pub seeded: bool,
    /// Per-rule deltas accumulated since each rule last ran.
    pub pending: Vec<DeltaSet>,
    /// Per-rule carried emissions (valuation tuples + proposal).
    pub carry: Vec<Option<Vec<(Vec<GlobalTid>, Proposal)>>>,
    /// Union of every committed delta since the batch started.
    pub cumulative: DeltaSet,
    pub changes: Vec<(CellRef, Value, Value)>,
    pub merged_pairs: Vec<(GlobalTid, GlobalTid)>,
    pub conflicts: usize,
    pub steps: usize,
    pub round_stats: Vec<RoundStats>,
    /// Provenance id state as of this round's commit marker: the next fix
    /// id and the last fix that touched each tuple (sorted). Filled by the
    /// durability context at write time.
    pub next_fix_id: u64,
    pub last_fix: Vec<(GlobalTid, u64)>,
}

rock_data::json_codec!(struct ChaseCheckpoint {
    version, fingerprint, round, batch, round_base, done, db, fixes, active, pruned_carry,
    seeded, pending, carry, cumulative, changes, merged_pairs, conflicts, steps,
    round_stats, next_fix_id, last_fix,
});

impl ChaseCheckpoint {
    /// Canonical file name of a **full** checkpoint for a round.
    pub fn file_name(round: u64) -> String {
        format!("checkpoint-{round:06}.json")
    }

    /// Canonical file name of a **delta** checkpoint for a round.
    pub fn delta_file_name(round: u64) -> String {
        format!("checkpoint-{round:06}.delta.json")
    }
}

/// Incremental checkpoint: the difference between this round's state and
/// `base_name`'s (the previously written checkpoint). Everything not
/// listed is inherited from the base.
#[derive(Debug, Clone)]
pub struct CheckpointDelta {
    pub version: u32,
    pub fingerprint: u64,
    pub round: u64,
    pub batch: u64,
    pub round_base: u64,
    pub done: bool,
    /// Round of the checkpoint this delta builds on.
    pub base_round: u64,
    /// File name of the base document.
    pub base_name: String,
    /// CRC-32 of the base document's bytes (= the base marker's
    /// `state_crc`) — the chain link.
    pub base_crc: u32,
    /// Working-database cells whose value changed since the base.
    pub cells: Vec<(CellRef, Value)>,
    /// Tuples whose entity id changed since the base (defensive: the loop
    /// only materializes eids after it finishes).
    pub eids: Vec<(RelId, TupleId, Eid)>,
    /// Fix store, verbatim (small next to the database).
    pub fixes: FixSnapshot,
    pub active: Vec<usize>,
    pub pruned_carry: usize,
    pub seeded: bool,
    /// Per-rule pending slots that differ from the base.
    pub pending: Vec<(usize, DeltaSet)>,
    /// Per-rule carry slots that differ from the base.
    pub carry: Vec<(usize, Option<Vec<(Vec<GlobalTid>, Proposal)>>)>,
    pub cumulative: DeltaSet,
    /// `changes` is append-only within a batch: the base's length plus the
    /// new suffix reconstructs it.
    pub changes_base: usize,
    pub changes_suffix: Vec<(CellRef, Value, Value)>,
    pub merged_base: usize,
    pub merged_suffix: Vec<(GlobalTid, GlobalTid)>,
    pub conflicts: usize,
    pub steps: usize,
    pub stats_base: usize,
    pub stats_suffix: Vec<RoundStats>,
    pub next_fix_id: u64,
    pub last_fix: Vec<(GlobalTid, u64)>,
}

rock_data::json_codec!(struct CheckpointDelta {
    version, fingerprint, round, batch, round_base, done, base_round, base_name, base_crc,
    cells, eids, fixes, active, pruned_carry, seeded, pending, carry, cumulative,
    changes_base, changes_suffix, merged_base, merged_suffix, conflicts, steps, stats_base,
    stats_suffix, next_fix_id, last_fix,
});

/// What actually sits in a `checkpoint-*.json` file.
#[derive(Debug, Clone)]
pub enum CheckpointDoc {
    Full(ChaseCheckpoint),
    Delta(CheckpointDelta),
}

rock_data::json_codec!(tagged CheckpointDoc { Full(ck), Delta(d) });

impl CheckpointDoc {
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WalError> {
        json::from_slice(bytes).map_err(|e| WalError::Codec(e.to_string()))
    }
}

/// The last checkpoint the durability context wrote: the delta base, its
/// file identity, and the live chain (full first) that compaction must
/// keep.
pub(crate) struct PrevCheckpoint {
    pub(crate) state: ChaseCheckpoint,
    pub(crate) name: String,
    pub(crate) crc: u32,
    pub(crate) chain: Vec<String>,
}

/// A checkpoint encoded for writing.
pub(crate) struct EncodedCheckpoint {
    pub(crate) name: String,
    pub(crate) bytes: Vec<u8>,
    pub(crate) is_full: bool,
    /// The full materialized state (delta or not) — the next delta base.
    pub(crate) state: ChaseCheckpoint,
}

/// True when round `round` of a batch rooted at `round_base` is scheduled
/// to be a full checkpoint. Pure in its inputs (invariant 4).
fn periodic_full(round: u64, round_base: u64, full_every: usize) -> bool {
    if full_every <= 1 {
        return true;
    }
    let k = round.saturating_sub(round_base).saturating_sub(1);
    k % full_every as u64 == 0
}

/// Encode `ck` as a full or delta document per the schedule and the
/// available base. Falls back to a full whenever a delta is unsafe (no
/// base, batch boundary, shape change).
pub(crate) fn encode_doc(
    prev: Option<&PrevCheckpoint>,
    ck: ChaseCheckpoint,
    full_every: usize,
) -> EncodedCheckpoint {
    let delta = if periodic_full(ck.round, ck.round_base, full_every) {
        None
    } else {
        prev.and_then(|p| diff_checkpoint(p, &ck))
    };
    match delta {
        Some(d) => EncodedCheckpoint {
            name: ChaseCheckpoint::delta_file_name(ck.round),
            bytes: json::to_vec(&Json::tagged("Delta", d.to_json())),
            is_full: false,
            state: ck,
        },
        None => EncodedCheckpoint {
            name: ChaseCheckpoint::file_name(ck.round),
            bytes: json::to_vec(&Json::tagged("Full", ck.to_json())),
            is_full: true,
            state: ck,
        },
    }
}

/// Cell/eid difference between two working databases. `None` when the
/// shapes diverge (different relations, capacities, or liveness) — then
/// only a full checkpoint is safe.
#[allow(clippy::type_complexity)]
fn diff_db(
    base: &Database,
    new: &Database,
) -> Option<(Vec<(CellRef, Value)>, Vec<(RelId, TupleId, Eid)>)> {
    let base_rels: Vec<(RelId, &rock_data::Relation)> = base.iter().collect();
    let new_rels: Vec<(RelId, &rock_data::Relation)> = new.iter().collect();
    if base_rels.len() != new_rels.len() {
        return None;
    }
    let mut cells = Vec::new();
    let mut eids = Vec::new();
    for ((rid, rb), (_, rn)) in base_rels.iter().zip(&new_rels) {
        if rb.capacity() != rn.capacity() || rb.len() != rn.len() {
            return None;
        }
        for tid in rn.tids() {
            let tn = rn.get(tid)?;
            let tb = rb.get(tid)?; // same liveness or bail to a full
            if tb.values.len() != tn.values.len() {
                return None;
            }
            if tb.eid != tn.eid {
                eids.push((*rid, tid, tn.eid));
            }
            for (ai, (vb, vn)) in tb.values.iter().zip(&tn.values).enumerate() {
                if vb != vn {
                    cells.push((CellRef::new(*rid, tid, AttrId(ai as u16)), vn.clone()));
                }
            }
        }
    }
    Some((cells, eids))
}

/// Compute the delta of `ck` against `p`. `None` forces a full checkpoint
/// (batch boundary, engine change, non-monotonic accumulators, shape
/// change).
fn diff_checkpoint(p: &PrevCheckpoint, ck: &ChaseCheckpoint) -> Option<CheckpointDelta> {
    let b = &p.state;
    if b.fingerprint != ck.fingerprint
        || b.batch != ck.batch
        || ck.round <= b.round
        || b.pending.len() != ck.pending.len()
        || b.carry.len() != ck.carry.len()
        || ck.changes.len() < b.changes.len()
        || ck.changes[..b.changes.len()] != b.changes[..]
        || ck.merged_pairs.len() < b.merged_pairs.len()
        || ck.merged_pairs[..b.merged_pairs.len()] != b.merged_pairs[..]
        || ck.round_stats.len() < b.round_stats.len()
        || ck.round_stats[..b.round_stats.len()] != b.round_stats[..]
    {
        return None;
    }
    let (cells, eids) = diff_db(&b.db, &ck.db)?;
    let pending = ck
        .pending
        .iter()
        .enumerate()
        .filter(|(i, d)| b.pending[*i] != **d)
        .map(|(i, d)| (i, d.clone()))
        .collect();
    let carry = ck
        .carry
        .iter()
        .enumerate()
        .filter(|(i, c)| b.carry[*i] != **c)
        .map(|(i, c)| (i, c.clone()))
        .collect();
    Some(CheckpointDelta {
        version: ck.version,
        fingerprint: ck.fingerprint,
        round: ck.round,
        batch: ck.batch,
        round_base: ck.round_base,
        done: ck.done,
        base_round: b.round,
        base_name: p.name.clone(),
        base_crc: p.crc,
        cells,
        eids,
        fixes: ck.fixes.clone(),
        active: ck.active.clone(),
        pruned_carry: ck.pruned_carry,
        seeded: ck.seeded,
        pending,
        carry,
        cumulative: ck.cumulative.clone(),
        changes_base: b.changes.len(),
        changes_suffix: ck.changes[b.changes.len()..].to_vec(),
        merged_base: b.merged_pairs.len(),
        merged_suffix: ck.merged_pairs[b.merged_pairs.len()..].to_vec(),
        conflicts: ck.conflicts,
        steps: ck.steps,
        stats_base: b.round_stats.len(),
        stats_suffix: ck.round_stats[b.round_stats.len()..].to_vec(),
        next_fix_id: ck.next_fix_id,
        last_fix: ck.last_fix.clone(),
    })
}

/// Materialize `base + delta` back into a full state. Inverse of
/// [`diff_checkpoint`] — `apply_delta(b, diff(b, ck)) == ck` (checked by
/// the round-trip unit test and, transitively, by every byte-identity
/// assertion over resumed runs).
pub(crate) fn apply_delta(
    base: &ChaseCheckpoint,
    d: &CheckpointDelta,
) -> Result<ChaseCheckpoint, WalError> {
    if d.base_round != base.round || d.fingerprint != base.fingerprint {
        return Err(WalError::Mismatch(format!(
            "delta for round {} bases on round {} but chained to round {}",
            d.round, d.base_round, base.round
        )));
    }
    let mut st = base.clone();
    st.version = d.version;
    st.round = d.round;
    st.batch = d.batch;
    st.round_base = d.round_base;
    st.done = d.done;
    let rels = st.db.iter().count();
    for (cell, v) in &d.cells {
        if cell.rel.index() >= rels
            || !st
                .db
                .relation_mut(cell.rel)
                .set_cell(cell.tid, cell.attr, v.clone())
        {
            return Err(WalError::Codec(format!(
                "delta cell {cell} targets a dead tuple"
            )));
        }
    }
    for (rel, tid, eid) in &d.eids {
        let tuple = if rel.index() < rels {
            st.db.relation_mut(*rel).get_mut(*tid)
        } else {
            None
        };
        match tuple {
            Some(t) => t.eid = *eid,
            None => {
                return Err(WalError::Codec(format!(
                    "delta eid update targets a dead tuple {rel}.{tid}"
                )))
            }
        }
    }
    st.fixes = d.fixes.clone();
    st.active = d.active.clone();
    st.pruned_carry = d.pruned_carry;
    st.seeded = d.seeded;
    for (i, p) in &d.pending {
        match st.pending.get_mut(*i) {
            Some(slot) => *slot = p.clone(),
            None => {
                return Err(WalError::Codec(format!(
                    "delta pending rule {i} out of range"
                )))
            }
        }
    }
    for (i, c) in &d.carry {
        match st.carry.get_mut(*i) {
            Some(slot) => *slot = c.clone(),
            None => {
                return Err(WalError::Codec(format!(
                    "delta carry rule {i} out of range"
                )))
            }
        }
    }
    st.cumulative = d.cumulative.clone();
    if d.changes_base > st.changes.len()
        || d.merged_base > st.merged_pairs.len()
        || d.stats_base > st.round_stats.len()
    {
        return Err(WalError::Codec(
            "delta suffix bases exceed base state".into(),
        ));
    }
    st.changes.truncate(d.changes_base);
    st.changes.extend(d.changes_suffix.iter().cloned());
    st.merged_pairs.truncate(d.merged_base);
    st.merged_pairs.extend(d.merged_suffix.iter().cloned());
    st.round_stats.truncate(d.stats_base);
    st.round_stats.extend(d.stats_suffix.iter().cloned());
    st.conflicts = d.conflicts;
    st.steps = d.steps;
    st.next_fix_id = d.next_fix_id;
    st.last_fix = d.last_fix.clone();
    Ok(st)
}

/// Everything `ChaseEngine::resume` needs: the recovered (materialized)
/// state, where to truncate the WAL, the chosen checkpoint's file
/// identity, and the chain of files it depends on.
pub struct ResumePoint {
    pub checkpoint: ChaseCheckpoint,
    /// Position one past the chosen `RoundCommit` frame.
    pub pos: WalPos,
    /// File name of the chosen checkpoint document.
    pub name: String,
    /// CRC-32 of that document (= the marker's `state_crc`).
    pub crc: u32,
    /// Files the recovered state depends on, full first.
    pub chain: Vec<String>,
}

impl ResumePoint {
    pub(crate) fn prev(&self) -> PrevCheckpoint {
        PrevCheckpoint {
            state: self.checkpoint.clone(),
            name: self.name.clone(),
            crc: self.crc,
            chain: self.chain.clone(),
        }
    }
}

/// Load and verify a checkpoint chain ending at `name`/`crc`, walking
/// `base_name` links back to a full and re-applying the deltas oldest
/// first. Any read error, CRC mismatch, parse failure, or fingerprint /
/// version divergence anywhere in the chain fails the whole chain.
fn load_chain(
    vfs: &FaultVfs,
    dir: &Path,
    name: &str,
    crc: u32,
    fingerprint: u64,
) -> Result<(ChaseCheckpoint, Vec<String>), WalError> {
    let mut deltas: Vec<CheckpointDelta> = Vec::new();
    let mut chain_rev: Vec<String> = Vec::new();
    let mut cur_name = name.to_string();
    let mut cur_crc = crc;
    let full = loop {
        if chain_rev.len() > MAX_CHAIN {
            return Err(WalError::Codec("checkpoint chain too long".into()));
        }
        let bytes = vfs.read(&dir.join(&cur_name))?;
        if crc32(&bytes) != cur_crc {
            return Err(WalError::Mismatch(format!(
                "checkpoint {cur_name} fails its CRC"
            )));
        }
        chain_rev.push(cur_name.clone());
        match CheckpointDoc::from_bytes(&bytes)? {
            CheckpointDoc::Full(ck) => {
                if ck.version != CHECKPOINT_VERSION || ck.fingerprint != fingerprint {
                    return Err(WalError::Mismatch(format!(
                        "checkpoint {cur_name} has version {} / fingerprint {:#x}",
                        ck.version, ck.fingerprint
                    )));
                }
                break ck;
            }
            CheckpointDoc::Delta(d) => {
                if d.version != CHECKPOINT_VERSION || d.fingerprint != fingerprint {
                    return Err(WalError::Mismatch(format!(
                        "checkpoint {cur_name} has version {} / fingerprint {:#x}",
                        d.version, d.fingerprint
                    )));
                }
                cur_name = d.base_name.clone();
                cur_crc = d.base_crc;
                deltas.push(d);
            }
        }
    };
    let mut state = full;
    for d in deltas.iter().rev() {
        state = apply_delta(&state, d)?;
    }
    chain_rev.reverse();
    Ok((state, chain_rev))
}

/// Locate the last durable round in `cfg.dir` (or the specific round
/// `at`, for the resume-at-every-round oracle tests) and load its
/// checkpoint chain. See the module docs for the recovery invariants.
/// Reads go through `cfg.vfs`, so injected read faults exercise the
/// fallback path.
pub fn locate(
    cfg: &DurabilityConfig,
    fingerprint: u64,
    at: Option<u64>,
) -> Result<ResumePoint, WalError> {
    let scan = wal::read_wal_dir_vfs(&cfg.vfs, &cfg.dir)?;
    match scan.records.first() {
        Some((_, WalRecord::Begin { fingerprint: f })) if *f == fingerprint => {}
        Some((_, WalRecord::Begin { fingerprint: f })) => {
            return Err(WalError::Mismatch(format!(
                "WAL belongs to a different engine (fingerprint {f:#x}, expected {fingerprint:#x})"
            )));
        }
        _ => return Err(WalError::Mismatch("WAL has no Begin header".into())),
    }
    // candidate commit markers, newest last
    let mut commits: Vec<(u64, WalPos, String, u32)> = Vec::new();
    for (pos, rec) in &scan.records {
        if let WalRecord::RoundCommit {
            round,
            checkpoint: Some(name),
            state_crc,
        } = rec
        {
            if at.is_none() || at == Some(*round) {
                commits.push((*round, *pos, name.clone(), *state_crc));
            }
        }
    }
    while let Some((round, pos, name, state_crc)) = commits.pop() {
        let Ok((state, chain)) = load_chain(&cfg.vfs, &cfg.dir, &name, state_crc, fingerprint)
        else {
            continue;
        };
        if state.round != round {
            continue;
        }
        return Ok(ResumePoint {
            checkpoint: state,
            pos,
            name,
            crc: state_crc,
            chain,
        });
    }
    Err(WalError::NoDurableRound)
}

/// One link of a checkpoint chain, for the `debug_panel wal` inspector.
#[derive(Debug, Clone)]
pub struct ChainEntry {
    pub name: String,
    pub round: u64,
    pub full: bool,
    pub bytes: u64,
    pub crc_ok: bool,
}

/// Walk the chain ending at `name`/`crc` tolerantly (for display): stops
/// at the first unreadable or unparsable link instead of failing. Entries
/// come back newest first.
pub fn checkpoint_chain(vfs: &FaultVfs, dir: &Path, name: &str, crc: u32) -> Vec<ChainEntry> {
    let mut out = Vec::new();
    let mut cur_name = name.to_string();
    let mut cur_crc = crc;
    while out.len() <= MAX_CHAIN {
        let Ok(bytes) = vfs.read(&dir.join(&cur_name)) else {
            break;
        };
        let crc_ok = crc32(&bytes) == cur_crc;
        let Ok(doc) = CheckpointDoc::from_bytes(&bytes) else {
            out.push(ChainEntry {
                name: cur_name,
                round: 0,
                full: false,
                bytes: bytes.len() as u64,
                crc_ok,
            });
            break;
        };
        match doc {
            CheckpointDoc::Full(ck) => {
                out.push(ChainEntry {
                    name: cur_name,
                    round: ck.round,
                    full: true,
                    bytes: bytes.len() as u64,
                    crc_ok,
                });
                break;
            }
            CheckpointDoc::Delta(d) => {
                out.push(ChainEntry {
                    name: cur_name,
                    round: d.round,
                    full: false,
                    bytes: bytes.len() as u64,
                    crc_ok,
                });
                cur_name = d.base_name;
                cur_crc = d.base_crc;
            }
        }
    }
    out
}

/// Open the WAL for appending at a resume point (truncating the crashed
/// suffix and deleting younger segments).
pub(crate) fn reopen_writer(
    cfg: &DurabilityConfig,
    pos: WalPos,
    fingerprint: u64,
) -> Result<WalWriter, WalError> {
    WalWriter::open_at(cfg, pos, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::rng::StdRng;
    use rock_data::{AttrType, Attribute, DatabaseSchema, RelationSchema};

    fn tiny_db(vals: &[i64]) -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "T",
            vec![Attribute::new("a", AttrType::Int)],
        )]);
        let mut db = Database::new(&schema);
        for v in vals {
            db.relation_mut(RelId(0))
                .insert_row(vec![Value::Int(*v)])
                .unwrap();
        }
        db
    }

    fn ck_at(round: u64, vals: &[i64]) -> ChaseCheckpoint {
        let db = tiny_db(vals);
        let cumulative = DeltaSet::empty(&db);
        ChaseCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: 0xfeed,
            round,
            batch: 1,
            round_base: 0,
            done: false,
            db,
            fixes: crate::fixes::FixStore::new().to_snapshot(),
            active: vec![0],
            pruned_carry: 0,
            seeded: false,
            pending: vec![cumulative.clone()],
            carry: vec![None],
            cumulative,
            changes: Vec::new(),
            merged_pairs: Vec::new(),
            conflicts: 0,
            steps: round as usize,
            round_stats: Vec::new(),
            next_fix_id: round,
            last_fix: Vec::new(),
        }
    }

    #[test]
    fn full_schedule_is_periodic_within_a_batch() {
        // full_every = 3, batch rounds 1.. → full at 1, 4, 7, …
        assert!(periodic_full(1, 0, 3));
        assert!(!periodic_full(2, 0, 3));
        assert!(!periodic_full(3, 0, 3));
        assert!(periodic_full(4, 0, 3));
        // batch 2 rooted at round_base 4 restarts the cycle
        assert!(periodic_full(5, 4, 3));
        assert!(!periodic_full(6, 4, 3));
        // full_every = 1 → always full
        assert!(periodic_full(9, 0, 1));
    }

    #[test]
    fn diff_apply_round_trips() {
        let base = ck_at(1, &[1, 2, 3]);
        let mut next = ck_at(2, &[1, 2, 3]);
        next.db
            .relation_mut(RelId(0))
            .set_cell(TupleId(1), AttrId(0), Value::Int(99));
        next.changes.push((
            CellRef::new(RelId(0), TupleId(1), AttrId(0)),
            Value::Int(2),
            Value::Int(99),
        ));
        let prev = PrevCheckpoint {
            state: base.clone(),
            name: ChaseCheckpoint::file_name(1),
            crc: 7,
            chain: vec![ChaseCheckpoint::file_name(1)],
        };
        let d = diff_checkpoint(&prev, &next).expect("delta must apply");
        assert_eq!(d.cells.len(), 1);
        assert!(d.eids.is_empty());
        let rebuilt = apply_delta(&base, &d).unwrap();
        assert_eq!(json::to_vec(&rebuilt), json::to_vec(&next));
    }

    #[test]
    fn shape_changes_force_a_full() {
        let base = ck_at(1, &[1, 2, 3]);
        let next = ck_at(2, &[1, 2, 3, 4]); // extra tuple: capacity changed
        let prev = PrevCheckpoint {
            state: base,
            name: ChaseCheckpoint::file_name(1),
            crc: 7,
            chain: vec![],
        };
        assert!(diff_checkpoint(&prev, &next).is_none());
        // encode_doc then falls back to a full document
        let enc = encode_doc(Some(&prev), next, 100);
        assert!(enc.is_full);
        assert_eq!(enc.name, ChaseCheckpoint::file_name(2));
    }

    /// One random edit of `bytes`: flip a bit, insert a byte, delete a
    /// byte, truncate, or overwrite a run of digits with a small or a huge
    /// number (the edit that forges lengths, indices and counts).
    fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..5u8) {
            0 => out[at] ^= 1 << rng.gen_range(0..8u8),
            1 => out.insert(at, rng.gen_range(0..=255u8)),
            2 => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {
                if let Some(start) = (at..out.len()).find(|&i| out[i].is_ascii_digit()) {
                    let end = (start..out.len())
                        .find(|&i| !out[i].is_ascii_digit())
                        .unwrap_or(out.len());
                    let forged = match rng.gen_range(0..4u8) {
                        0 => u64::MAX,
                        1 => u32::MAX as u64 + 1,
                        _ => rng.gen_range(0..16u64),
                    };
                    out.splice(start..end, forged.to_string().into_bytes());
                }
            }
        }
        out
    }

    /// Everything that decodes bytes from disk — the JSON reader, the WAL
    /// frame scanner, the checkpoint documents and the delta application —
    /// answers damaged input with a typed error or a valid value: no panic,
    /// and nothing allocated from a forged length. (The CRCs normally keep
    /// damaged bytes away from the decoders; this drives them directly.)
    #[test]
    fn damaged_bytes_never_panic_a_decoder() {
        let mut rng = StdRng::seed_from_u64(0xdec0de);
        let base = ck_at(1, &[1, 2, 3]);
        let mut next = ck_at(2, &[1, 2, 3]);
        let cell = CellRef::new(RelId(0), TupleId(1), AttrId(0));
        next.db
            .relation_mut(RelId(0))
            .set_cell(cell.tid, cell.attr, Value::Float(f64::NAN));
        next.changes
            .push((cell, Value::Int(2), Value::str("a \"quoted\" \u{1} é")));
        next.carry = vec![Some(vec![(
            vec![cell.tuple()],
            Proposal::SetCell {
                cell,
                value: Value::Date(-3),
                rule: 0,
            },
        )])];
        next.pending[0].mark(RelId(0), TupleId(2));
        next.last_fix = vec![(cell.tuple(), u64::MAX)];
        let prev = PrevCheckpoint {
            state: base.clone(),
            name: ChaseCheckpoint::file_name(1),
            crc: 7,
            chain: vec![ChaseCheckpoint::file_name(1)],
        };
        let full = encode_doc(None, base.clone(), 1).bytes;
        let delta = encode_doc(Some(&prev), next, 100);
        assert!(!delta.is_full);

        // JSON reader + checkpoint documents + delta application.
        let (mut applied, mut refused) = (0, 0);
        for doc in [&full, &delta.bytes] {
            for _ in 0..8_000 {
                let damaged = mutate(&mut rng, doc);
                if let Ok(text) = std::str::from_utf8(&damaged) {
                    let _ = Json::parse(text);
                }
                if let Ok(CheckpointDoc::Delta(d)) = CheckpointDoc::from_bytes(&damaged) {
                    match apply_delta(&base, &d) {
                        Ok(_) => applied += 1,
                        Err(_) => refused += 1,
                    }
                }
            }
        }
        // the edits must reach past the parser, into both outcomes
        assert!(
            applied > 50 && refused > 50,
            "{applied} applied, {refused} refused"
        );

        // A WAL segment: whatever survives is a prefix of what was written.
        let records = vec![
            WalRecord::Begin {
                fingerprint: u64::MAX,
            },
            WalRecord::BatchBegin {
                batch: 1,
                round_base: 0,
            },
            WalRecord::RoundBegin { round: 1 },
            WalRecord::Fix(crate::wal::FixRecord {
                id: 0,
                round: 1,
                rule: 3,
                kind: crate::wal::FixKind::Cell {
                    cell,
                    old: Value::Null,
                    new: Value::Float(f64::INFINITY),
                },
                valuation: vec![cell.tuple()],
                parents: vec![],
            }),
            WalRecord::RoundCommit {
                round: 1,
                checkpoint: Some(ChaseCheckpoint::file_name(1)),
                state_crc: u32::MAX,
            },
        ];
        let mut segment = wal::WAL_MAGIC.to_vec();
        for r in &records {
            segment.extend_from_slice(&wal::encode_frame(r).unwrap());
        }
        let clean = wal::decode_wal(&segment).unwrap();
        assert_eq!(clean.records.len(), records.len());
        for _ in 0..4_000 {
            let damaged = mutate(&mut rng, &segment);
            if let Ok(scan) = wal::decode_wal(&damaged) {
                assert!(scan.valid_len as usize <= damaged.len());
                for ((_, got), want) in scan.records.iter().zip(&records) {
                    assert_eq!(got, want, "a damaged frame passed its CRC");
                }
            }
        }
        // A frame that claims 4 GiB of payload ends the prefix; nothing is
        // allocated for it.
        let first_len = wal::WAL_MAGIC.len();
        segment[first_len..first_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = wal::decode_wal(&segment).unwrap();
        assert!(scan.corrupt_tail && scan.records.is_empty());
    }
}
