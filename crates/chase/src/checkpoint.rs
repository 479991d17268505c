//! Round-boundary checkpoints and the crash-recovery locator.
//!
//! A [`ChaseCheckpoint`] is the complete loop state of `run_inner` at a
//! round boundary: every round is a deterministic function of this state,
//! so `checkpoint(round k)` + re-running rounds `k+1..` reproduces an
//! uninterrupted run *byte-identically* (enforced by the CI kill-and-
//! resume job, the crashsim sweep, and `tests/wal_durability.rs`).
//!
//! On disk every checkpoint is the whole state, one self-contained file
//! per round holding the tagged document `{"Full": …}`
//! (`ChaseCheckpoint::to_bytes`). Its `RoundCommit` marker carries the
//! CRC-32 of the file, so a flipped bit anywhere in it invalidates that
//! round and recovery falls back to an earlier one.
//!
//! Recovery invariants:
//!
//! 1. The checkpoint file is written (atomically, fsynced) **before** its
//!    `RoundCommit` marker is appended — a marker in the WAL's valid
//!    prefix implies its checkpoint is complete on disk.
//! 2. Resume picks the **last** commit marker in the valid prefix whose
//!    checkpoint file exists, passes the marker's CRC, decodes, and
//!    matches the format version and the engine fingerprint, falling back
//!    to earlier markers if the file was lost or damaged.
//! 3. The WAL is truncated to the chosen marker before appending — the
//!    re-run rounds regenerate their records in place, so replay after
//!    any number of crashes is idempotent.
//! 4. A checkpoint's bytes are a pure function of the loop state, so a
//!    resumed run rewrites the files of its re-run rounds byte-identically
//!    to the uninterrupted run's.
//! 5. Timing observability (`round_makespans`, fault counters) is *not*
//!    checkpointed: it restarts empty on resume. Repair state — database,
//!    fixes, deltas, carries, changes — is complete, and since v2 the
//!    provenance id state (`next_fix_id`, `last_fix`) is stored in the
//!    document itself, so resume needs no WAL replay.

use crate::evaluate::Carry;
use crate::evaluate::RoundStats;
use crate::fixes::FixSnapshot;
use crate::wal::{self, DurabilityConfig, WalError, WalRecord};
use rock_crystal::crc32;
use rock_data::{
    json::{self, FromJson, Json, JsonError, ToJson},
    CellRef, Database, DeltaSet, GlobalTid, Value,
};

/// Bumped when the checkpoint encoding changes incompatibly.
/// v2: self-contained provenance id state, session batches, delta docs.
/// v3: the in-tree JSON codec (`rock_data::json`): exact 64-bit integers,
/// tagged dates and non-finite floats, no optional fields.
/// v4: per-rule carries are tagged [`Carry`]s; FD-shaped rules carry
/// equate groups per join run.
pub const CHECKPOINT_VERSION: u32 = 4;

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
    /// Per-rule carried emissions.
    pub carry: Vec<Option<Carry>>,
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
    /// Canonical file name of the checkpoint for a round.
    pub fn file_name(round: u64) -> String {
        format!("checkpoint-{round:06}.json")
    }

    /// The file's bytes: the state as the tagged document `{"Full": …}`.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        json::to_vec(&Json::tagged("Full", self.to_json()))
    }

    /// Decode a checkpoint file. Damaged bytes and any document other than
    /// `{"Full": …}` are a [`WalError::Codec`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WalError> {
        let codec = |e: JsonError| WalError::Codec(e.to_string());
        let doc = json::parse_slice(bytes).map_err(codec)?;
        match doc.variant().map_err(codec)? {
            ("Full", state) => Self::from_json(state).map_err(codec),
            (tag, _) => Err(WalError::Codec(format!(
                "`{tag}` is not a full checkpoint document"
            ))),
        }
    }
}

/// A durably committed round: its recovered state, where its
/// `RoundCommit` marker ends, and its checkpoint's file name.
/// [`locate`] returns the one `ChaseEngine::resume` restarts from.
#[derive(Debug)]
pub struct ResumePoint {
    pub checkpoint: ChaseCheckpoint,
    /// Byte offset in the log one past the `RoundCommit` frame.
    pub pos: u64,
    /// File name of the checkpoint document.
    pub name: String,
}

/// Load the checkpoint file `name`: it must pass the marker's `crc`,
/// decode, and belong to this format version and to the engine with
/// `fingerprint`.
fn load(
    cfg: &DurabilityConfig,
    name: &str,
    crc: u32,
    fingerprint: u64,
) -> Result<ChaseCheckpoint, WalError> {
    let bytes = cfg.vfs.read(&cfg.dir.join(name))?;
    if crc32(&bytes) != crc {
        return Err(WalError::Mismatch(format!(
            "checkpoint {name} fails its CRC"
        )));
    }
    let ck = ChaseCheckpoint::from_bytes(&bytes)?;
    if (ck.version, ck.fingerprint) != (CHECKPOINT_VERSION, fingerprint) {
        return Err(WalError::Mismatch(format!(
            "checkpoint {name} belongs to another format version or engine"
        )));
    }
    Ok(ck)
}

/// Locate the last durable round in `cfg.dir` (or the specific round
/// `at`, for the resume-at-every-round oracle tests) and load its
/// checkpoint. See the module docs for the recovery invariants. Reads go
/// through `cfg.vfs`, so injected read faults exercise the fallback path.
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
    let mut commits: Vec<(u64, u64, String, u32)> = Vec::new();
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
    while let Some((round, pos, name, crc)) = commits.pop() {
        match load(cfg, &name, crc, fingerprint) {
            Ok(checkpoint) if checkpoint.round == round => {
                return Ok(ResumePoint {
                    checkpoint,
                    pos,
                    name,
                })
            }
            _ => continue,
        }
    }
    Err(WalError::NoDurableRound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::Proposal;
    use rock_data::json;
    use rock_data::rng::StdRng;
    use rock_data::{AttrId, AttrType, Attribute, DatabaseSchema, RelId, RelationSchema, TupleId};

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

    /// A checkpoint file is exactly the tagged `{"Full": …}` document and
    /// decodes back to the same state; a `{"Delta": …}` document, the
    /// incremental format older writers produced, is a codec error.
    #[test]
    fn checkpoints_are_full_documents() {
        let ck = ck_at(2, &[1, 2, 3]);
        let bytes = ck.to_bytes();
        assert_eq!(bytes, json::to_vec(&Json::tagged("Full", ck.to_json())));
        let back = ChaseCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(json::to_vec(&back), json::to_vec(&ck));
        let delta = json::to_vec(&Json::tagged("Delta", ck.to_json()));
        assert!(matches!(
            ChaseCheckpoint::from_bytes(&delta),
            Err(WalError::Codec(_))
        ));
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
    /// frame scanner and the checkpoint document — answers damaged input
    /// with a typed error or a valid value: no panic, and nothing allocated
    /// from a forged length. (The CRCs normally keep damaged bytes away
    /// from the decoders; this drives them directly.)
    #[test]
    fn damaged_bytes_never_panic_a_decoder() {
        let mut rng = StdRng::seed_from_u64(0xdec0de);
        let mut ck = ck_at(2, &[1, 2, 3]);
        let cell = CellRef::new(RelId(0), TupleId(1), AttrId(0));
        ck.db
            .relation_mut(RelId(0))
            .set_cell(cell.tid, cell.attr, Value::Float(f64::NAN));
        ck.changes
            .push((cell, Value::Int(2), Value::str("a \"quoted\" \u{1} é")));
        ck.carry = vec![Some(Carry::Pairs(vec![(
            vec![cell.tuple()],
            Proposal::SetCell {
                cell,
                value: Value::Date(-3),
                rule: 0,
            },
        )]))];
        ck.pending[0].mark(RelId(0), TupleId(2));
        ck.last_fix = vec![(cell.tuple(), u64::MAX)];
        let doc = ck.to_bytes();

        // JSON reader + checkpoint document.
        let (mut decoded, mut refused) = (0, 0);
        for _ in 0..16_000 {
            let damaged = mutate(&mut rng, &doc);
            if let Ok(text) = std::str::from_utf8(&damaged) {
                let _ = Json::parse(text);
            }
            match ChaseCheckpoint::from_bytes(&damaged) {
                Ok(_) => decoded += 1,
                Err(_) => refused += 1,
            }
        }
        // the edits must reach past the parser, into both outcomes
        assert!(
            decoded > 50 && refused > 50,
            "{decoded} decoded, {refused} refused"
        );

        // A WAL: whatever survives is a prefix of what was written.
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
        let mut log = wal::WAL_MAGIC.to_vec();
        for r in &records {
            log.extend_from_slice(&wal::encode_frame(r).unwrap());
        }
        let clean = wal::decode_wal(&log).unwrap();
        assert_eq!(clean.records.len(), records.len());
        for _ in 0..4_000 {
            let damaged = mutate(&mut rng, &log);
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
        log[first_len..first_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = wal::decode_wal(&log).unwrap();
        assert!(scan.corrupt_tail && scan.records.is_empty());
    }
}
