//! Write-ahead log for the durable chase.
//!
//! The log is one file, [`WAL_FILE`], inside the durability directory. It
//! starts with the magic and a `Begin { fingerprint }` header frame; every
//! round that commits fixes appends, at the round boundary, one frame
//! sequence:
//!
//! ```text
//! RoundBegin(r) · Fix* · RoundCommit(r, checkpoint, state_crc)
//! ```
//!
//! Frames are CRC-32 framed (`rock_crystal::crc32`, the same CRC Crystal
//! places work units with):
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: compact JSON, rock_data::json]
//! ```
//!
//! The reader accepts the longest valid prefix and stops at the first
//! truncated or corrupt frame — a crash mid-append (or a torn sector)
//! loses at most the uncommitted tail, never a committed round. State is
//! only ever resumed from rounds whose `RoundCommit` marker is inside the
//! valid prefix *and* whose checkpoint file verifies against the marker's
//! CRC (see `crate::checkpoint`).
//!
//! The header is written and fsynced (file + directory) before any round
//! frame lands in the file, and every round boundary ends with one fsync.
//! Nothing is ever deleted from the directory except stale checkpoint temp
//! files, so the log and every round's checkpoint stay for resume at any
//! round and for whole-history provenance.
//!
//! **I/O faults.** All I/O goes through the config's
//! [`rock_crystal::FaultVfs`]. Transient errors are retried under the
//! chase's one retry policy, the [`rock_crystal::ClusterConfig`] its work
//! units retry under (`max_retries`, capped exponential `backoff_for`).
//! A write of several steps retries each on its own: the log's header file
//! and its directory fsync; a checkpoint's temp file (create, write,
//! fsync), rename and directory fsync. Once retries are exhausted the
//! context *poisons*: durability degrades to in-memory, the chase keeps
//! repairing, and the failure surfaces as [`WalHealth::Degraded`] on the
//! run's [`WalSummary`].
//!
//! Each [`FixRecord`] doubles as a **provenance node**: it carries the
//! rule id, the valuation's bound tuples, and the ids of the prior fixes
//! those tuples last received (`parents`). `crate::provenance` replays
//! the log into a queryable "why is this cell 42?" graph.

use crate::checkpoint::{ChaseCheckpoint, ResumePoint};
use crate::fixes::EntityKey;
use rock_crystal::{crc32, tmp_path, ClusterConfig, FaultVfs, VfsFile};
use rock_data::{json, AttrId, CellRef, DataError, FxHashMap, GlobalTid, RelId, TupleId, Value};
use std::path::{Path, PathBuf};

/// File magic: identifies the format and its version.
pub const WAL_MAGIC: &[u8; 8] = b"ROCKWAL1";

/// The log's file name inside the durability directory. It is the first
/// segment's name of the earlier segmented layout, so a log of that layout
/// that never rotated reads and resumes unchanged.
pub const WAL_FILE: &str = "wal.000001";

/// Errors surfaced by the durability layer. The chase itself never fails
/// on these — a mid-run WAL error degrades durability to off and is
/// reported as [`WalHealth::Degraded`] — but [`crate::ChaseEngine::resume`]
/// is fallible by nature.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// A frame or checkpoint failed to encode/decode.
    Codec(String),
    /// The log or checkpoint contradicts itself or the engine (bad magic,
    /// fingerprint mismatch, missing checkpoint file, a checkpoint whose
    /// state does not fit the rules).
    Mismatch(String),
    /// No round has been durably committed yet, so there is nothing to
    /// resume from.
    NoDurableRound,
    /// The engine has no durability configured.
    NotConfigured,
    /// The ΔD batch of a durable session does not apply to its database
    /// (a wrong-arity insert).
    Delta(DataError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Codec(m) => write!(f, "wal codec error: {m}"),
            WalError::Mismatch(m) => write!(f, "wal mismatch: {m}"),
            WalError::NoDurableRound => write!(f, "no durably committed round to resume from"),
            WalError::NotConfigured => write!(f, "chase has no durability configured"),
            WalError::Delta(e) => write!(f, "malformed delta: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Durability knobs, threaded through `ChaseConfig::durability`. I/O
/// retries follow the chase's `ChaseConfig::cluster` policy
/// ([`ClusterConfig::max_retries`], [`ClusterConfig::backoff_for`]), the
/// one Crystal's work units retry under.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding [`WAL_FILE`] and the `checkpoint-*` files.
    pub dir: PathBuf,
    /// fsync the WAL at each round boundary and fsync checkpoint writes.
    /// `false` trades power-loss durability for speed (tests, panels).
    pub sync: bool,
    /// Filesystem shim all WAL/checkpoint I/O routes through. The clean
    /// default injects nothing; the crash-consistency harness swaps in a
    /// seeded fault plan.
    pub vfs: FaultVfs,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            sync: true,
            vfs: FaultVfs::clean(),
        }
    }

    pub fn with_vfs(mut self, vfs: FaultVfs) -> Self {
        self.vfs = vfs;
        self
    }
}

/// Run `op`, retrying a failure up to `policy.max_retries` times with the
/// policy's capped backoff in between; every retry is counted into
/// `retries`. `op` must be idempotent. It reports each failure with
/// whether it left the files as they were: one that did not ends the
/// retries.
fn retry_io<T>(
    policy: &ClusterConfig,
    retries: &mut u64,
    mut op: impl FnMut() -> Result<T, (std::io::Error, bool)>,
) -> Result<T, WalError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err((e, retryable)) if !retryable || attempt >= policy.max_retries => {
                return Err(WalError::Io(e))
            }
            Err(_) => {
                *retries += 1;
                std::thread::sleep(policy.backoff_for(attempt));
                attempt += 1;
            }
        }
    }
}

/// Typed durability health of a finished run, surfaced on
/// [`crate::ChaseResult`] via [`WalSummary::health`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalHealth {
    /// Every append, sync, and checkpoint write succeeded first try.
    Healthy,
    /// Transient I/O errors occurred but the capped-backoff retries
    /// recovered all of them; the log is complete.
    Recovered { io_retries: u64 },
    /// An I/O error exhausted its retries: durability degraded to
    /// in-memory from that point on. Repairs are still byte-identical to
    /// the in-memory oracle — only the log is incomplete. `reason` is the
    /// first durability failure.
    Degraded { reason: String },
}

/// What one fix did to the store / working database.
#[derive(Debug, Clone, PartialEq)]
pub enum FixKind {
    /// A cell of the working database was rewritten.
    Cell {
        cell: CellRef,
        old: Value,
        new: Value,
    },
    /// Two entity classes were merged (`[EID]=`).
    Merge { a: GlobalTid, b: GlobalTid },
    /// Two entities were validated distinct.
    Distinct { a: GlobalTid, b: GlobalTid },
    /// A value was validated on an entity class (`[EID.A]=`).
    Validate {
        entity: EntityKey,
        rel: RelId,
        attr: AttrId,
        value: Value,
    },
    /// A temporal order edge was validated (`[A]⪯`).
    Order {
        rel: RelId,
        attr: AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
    },
}

rock_data::json_codec!(tagged FixKind {
    Cell { cell, old, new },
    Merge { a, b },
    Distinct { a, b },
    Validate { entity, rel, attr, value },
    Order { rel, attr, t1, t2, strict },
});

impl FixKind {
    /// Tuples this fix writes/affects — they become the fix's provenance
    /// footprint (later fixes touching them list this fix as a parent).
    pub fn touched(&self) -> Vec<GlobalTid> {
        match self {
            FixKind::Cell { cell, .. } => vec![cell.tuple()],
            FixKind::Merge { a, b } | FixKind::Distinct { a, b } => vec![*a, *b],
            FixKind::Validate { .. } => Vec::new(),
            FixKind::Order { rel, t1, t2, .. } => {
                vec![GlobalTid::new(*rel, *t1), GlobalTid::new(*rel, *t2)]
            }
        }
    }

    /// The cell this fix rewrote, if it is a cell fix.
    pub fn cell(&self) -> Option<CellRef> {
        match self {
            FixKind::Cell { cell, .. } => Some(*cell),
            _ => None,
        }
    }
}

/// One committed fix = one WAL record = one provenance node.
#[derive(Debug, Clone, PartialEq)]
pub struct FixRecord {
    /// Monotonic fix id (stable across crash/resume: rounds re-run after
    /// a resume regenerate identical ids).
    pub id: u64,
    /// Round that committed the fix (1-based, global across session
    /// batches).
    pub round: u64,
    /// Id of the rule whose valuation derived the fix.
    pub rule: u32,
    pub kind: FixKind,
    /// Tuples the deriving valuation bound (sorted, deduplicated).
    pub valuation: Vec<GlobalTid>,
    /// Ids of the prior fixes that last touched the valuation's tuples —
    /// the provenance edges.
    pub parents: Vec<u64>,
}

rock_data::json_codec!(struct FixRecord { id, round, rule, kind, valuation, parents });

/// One framed WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Run header: guards resume against a different rule set / config.
    /// The log starts with one.
    Begin {
        fingerprint: u64,
    },
    /// A durable `run_incremental` session started ΔD batch `batch`
    /// (1-based); `round_base` is the global round count already committed
    /// by earlier batches.
    BatchBegin {
        batch: u64,
        round_base: u64,
    },
    RoundBegin {
        round: u64,
    },
    Fix(FixRecord),
    /// Round boundary marker: everything up to here is one committed
    /// round. `checkpoint` names the snapshot document written just before
    /// this marker (None on non-snapshot rounds), `state_crc` is the
    /// CRC-32 of its bytes.
    RoundCommit {
        round: u64,
        checkpoint: Option<String>,
        state_crc: u32,
    },
}

rock_data::json_codec!(tagged WalRecord {
    Begin { fingerprint },
    BatchBegin { batch, round_base },
    RoundBegin { round },
    Fix(rec),
    RoundCommit { round, checkpoint, state_crc },
});

/// Encode a record into one `[len][crc][payload]` frame.
pub fn encode_frame(rec: &WalRecord) -> Result<Vec<u8>, WalError> {
    let payload = json::to_vec(rec);
    let len = u32::try_from(payload.len()).map_err(|_| {
        WalError::Codec(format!(
            "a {}-byte record exceeds the frame length field",
            payload.len()
        ))
    })?;
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Result of scanning the log: records of the longest valid prefix, each
/// with the byte offset one past its frame.
#[derive(Debug)]
pub struct WalScan {
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes of the valid prefix (magic + whole frames).
    pub valid_len: u64,
    /// True when bytes past `valid_len` exist but fail to frame-decode —
    /// the crashed tail the recovery discards.
    pub corrupt_tail: bool,
}

/// Decode a WAL byte image into its longest valid prefix. Never errors on
/// damage past the magic: truncated length fields, short payloads, CRC
/// mismatches and JSON garbage all just end the prefix.
pub fn decode_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::Mismatch("bad or missing WAL magic".into()));
    }
    let mut records = Vec::new();
    let mut off = WAL_MAGIC.len();
    let mut corrupt_tail = false;
    while off < bytes.len() {
        if off + 8 > bytes.len() {
            corrupt_tail = true;
            break;
        }
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[off + 4],
            bytes[off + 5],
            bytes[off + 6],
            bytes[off + 7],
        ]);
        let start = off + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= bytes.len() => e,
            _ => {
                corrupt_tail = true;
                break;
            }
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            corrupt_tail = true;
            break;
        }
        let rec: WalRecord = match json::from_slice(payload) {
            Ok(r) => r,
            Err(_) => {
                corrupt_tail = true;
                break;
            }
        };
        off = end;
        records.push((off as u64, rec));
    }
    Ok(WalScan {
        records,
        valid_len: off as u64,
        corrupt_tail,
    })
}

/// Whether `dir` holds a log (an absent directory holds none).
/// Metadata-only: the check is neither traced nor faulted.
pub(crate) fn wal_exists(vfs: &FaultVfs, dir: &Path) -> Result<bool, WalError> {
    match vfs.file_size(&dir.join(WAL_FILE)) {
        Ok(_) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Read and scan the log in `dir` through `vfs`.
pub fn read_wal_dir_vfs(vfs: &FaultVfs, dir: &Path) -> Result<WalScan, WalError> {
    decode_wal(&vfs.read(&dir.join(WAL_FILE))?)
}

/// [`read_wal_dir_vfs`] through a clean (fault-free) vfs — the reader used
/// by provenance, panels, and tests.
pub fn read_wal_dir(dir: &Path) -> Result<WalScan, WalError> {
    read_wal_dir_vfs(&FaultVfs::clean(), dir)
}

/// Raw bytes of the log — the byte-idempotence oracle (`resume` must leave
/// these bytes unchanged after re-running).
pub fn wal_bytes(dir: &Path) -> Result<Vec<u8>, WalError> {
    Ok(FaultVfs::clean().read(&dir.join(WAL_FILE))?)
}

/// Append-only WAL writer: every WAL and checkpoint write of a run goes
/// through it, with the chase's retry policy, and its counters are the
/// run's.
#[derive(Debug)]
pub struct WalWriter {
    vfs: FaultVfs,
    dir: PathBuf,
    sync: bool,
    retry: ClusterConfig,
    file: VfsFile,
    offset: u64,
    /// Records appended this run (the header included).
    pub(crate) appended: u64,
    /// Transient I/O errors recovered by retry.
    pub(crate) io_retries: u64,
}

/// Create `path` holding `bytes`, fsynced when `sync` is on. Creation
/// truncates, so the step is idempotent and a transient failure anywhere
/// in it can be retried from the top.
fn write_new(vfs: &FaultVfs, path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<VfsFile> {
    let mut file = vfs.create(path)?;
    file.write_all(bytes)?;
    if sync {
        file.sync_all()?;
    }
    Ok(file)
}

impl WalWriter {
    /// Start a fresh log: create (or truncate) [`WAL_FILE`] holding the
    /// magic + `Begin` header, synced when the config syncs. The file and
    /// the directory entry are retried as separate steps, so a failed
    /// directory fsync does not rewrite the file.
    pub(crate) fn create(
        cfg: &DurabilityConfig,
        retry: &ClusterConfig,
        fingerprint: u64,
    ) -> Result<Self, WalError> {
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&encode_frame(&WalRecord::Begin { fingerprint })?);
        let path = cfg.dir.join(WAL_FILE);
        let mut io_retries = 0;
        let file = retry_io(retry, &mut io_retries, || {
            write_new(&cfg.vfs, &path, &header, cfg.sync).map_err(|e| (e, true))
        })?;
        if cfg.sync {
            retry_io(retry, &mut io_retries, || {
                cfg.vfs.fsync_dir(&cfg.dir).map_err(|e| (e, true))
            })?;
        }
        let mut w = WalWriter::at(cfg, retry, file, header.len() as u64);
        w.appended = 1;
        w.io_retries = io_retries;
        Ok(w)
    }

    /// Open the log for appending at byte offset `pos`, discarding any
    /// crashed or uncommitted suffix: the file is truncated to `pos` —
    /// rounds re-run after a resume then regenerate their records in place
    /// (replay is idempotent).
    pub(crate) fn open_at(
        cfg: &DurabilityConfig,
        retry: &ClusterConfig,
        pos: u64,
    ) -> Result<Self, WalError> {
        let mut file = cfg.vfs.open_rw(&cfg.dir.join(WAL_FILE))?;
        file.set_len(pos)?;
        file.seek_to(pos)?;
        if cfg.sync {
            file.sync_all()?;
            cfg.vfs.fsync_dir(&cfg.dir)?;
        }
        Ok(WalWriter::at(cfg, retry, file, pos))
    }

    fn at(cfg: &DurabilityConfig, retry: &ClusterConfig, file: VfsFile, offset: u64) -> Self {
        WalWriter {
            vfs: cfg.vfs.clone(),
            dir: cfg.dir.clone(),
            sync: cfg.sync,
            retry: retry.clone(),
            file,
            offset,
            appended: 0,
            io_retries: 0,
        }
    }

    /// Append one frame, retrying transient write errors after truncating
    /// the partial frame back off the tail (keeps the file frame-aligned
    /// even when a torn write persisted a prefix). A tail that cannot be
    /// truncated back ends the retries.
    pub(crate) fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let frame = encode_frame(rec)?;
        let (file, offset) = (&mut self.file, self.offset);
        retry_io(&self.retry, &mut self.io_retries, || {
            file.write_all(&frame).map_err(|e| {
                let repaired = file.set_len(offset).and_then(|()| file.seek_to(offset));
                (e, repaired.is_ok())
            })
        })?;
        self.offset += frame.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Fsync the log (no-op when the config is async), retrying
    /// transient errors.
    pub(crate) fn sync(&mut self) -> Result<(), WalError> {
        if !self.sync {
            return Ok(());
        }
        let file = &mut self.file;
        retry_io(&self.retry, &mut self.io_retries, || {
            file.sync_all().map_err(|e| (e, true))
        })
    }

    /// Write one checkpoint document next to the log, atomically and (when
    /// the config syncs) durably: the temp file (created, written and
    /// fsynced), the rename and the directory fsync are each retried on
    /// their own, so a step that fails after an earlier one succeeded
    /// does not redo it. A failed write may leave `<name>.tmp` behind; the
    /// open-time GC reaps terminal strays.
    pub(crate) fn write_checkpoint(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.dir.join(name);
        let (vfs, retry, retries) = (&self.vfs, &self.retry, &mut self.io_retries);
        if !self.sync {
            return retry_io(retry, retries, || {
                write_new(vfs, &path, bytes, false)
                    .map(drop)
                    .map_err(|e| (e, true))
            });
        }
        let tmp = tmp_path(&path);
        retry_io(retry, retries, || {
            write_new(vfs, &tmp, bytes, true)
                .map(drop)
                .map_err(|e| (e, true))
        })?;
        retry_io(retry, retries, || {
            vfs.rename(&tmp, &path).map_err(|e| (e, true))
        })?;
        retry_io(retry, retries, || {
            vfs.fsync_dir(&self.dir).map_err(|e| (e, true))
        })
    }
}

/// Totals reported back on [`crate::ChaseResult`] when durability is on.
#[derive(Debug, Clone)]
pub struct WalSummary {
    /// Records appended this run (excluding replayed history).
    pub records: u64,
    /// Checkpoint documents written this run.
    pub checkpoints: u64,
    /// Round the run resumed from (None for a fresh run).
    pub resumed_from: Option<u64>,
    /// ΔD batch this run executed (1 for plain runs; >1 for durable
    /// session continuations).
    pub batch: u64,
    /// Transient I/O errors recovered by capped-backoff retry.
    pub io_retries: u64,
    /// Stale checkpoint temp files garbage-collected on open.
    pub temp_files_removed: u64,
    /// Typed durability health (see [`WalHealth`]).
    pub health: WalHealth,
}

/// A committed fix captured by the chase's commit phases before it is
/// assigned an id: `(kind, rule, valuation tuples)`.
pub(crate) type RoundFix = (FixKind, u32, Vec<GlobalTid>);

/// Live durability state carried through `run_loop`. Infallible from the
/// caller's view: the first unrecoverable error poisons the context (later
/// calls no-op) and surfaces as [`WalHealth::Degraded`] — a failing disk
/// must degrade durability, never the fixes.
pub(crate) struct DurabilityCtx {
    /// `None` only when the log could not be opened (`error` says why).
    writer: Option<WalWriter>,
    next_fix_id: u64,
    /// Last fix id that touched each tuple (provenance parent lookup).
    last_fix: FxHashMap<GlobalTid, u64>,
    resumed_from: Option<u64>,
    /// ΔD batch this context logs for (1 unless attached by a session).
    batch: u64,
    checkpoints: u64,
    temp_files_removed: u64,
    /// The first unrecoverable error; once set, nothing more is logged.
    error: Option<String>,
}

/// Best-effort GC of stale `*.tmp` checkpoint files (a crash between the
/// temp write and the rename leaves them behind). Returns how many were
/// removed; listing errors read as zero.
fn gc_temp_files(vfs: &FaultVfs, dir: &Path) -> u64 {
    let Ok(entries) = vfs.list_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for path in entries {
        if path.extension().is_some_and(|x| x == "tmp") && vfs.remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

impl DurabilityCtx {
    /// Start a fresh log for a new run.
    pub(crate) fn begin(cfg: &DurabilityConfig, retry: &ClusterConfig, fingerprint: u64) -> Self {
        let mut temp_files_removed = 0;
        let writer = cfg
            .vfs
            .create_dir_all(&cfg.dir)
            .map_err(WalError::from)
            .and_then(|()| {
                temp_files_removed = gc_temp_files(&cfg.vfs, &cfg.dir);
                WalWriter::create(cfg, retry, fingerprint)
            });
        DurabilityCtx::new(writer, None, temp_files_removed)
    }

    /// Attach to a recovered log (see `crate::checkpoint::locate`): the WAL
    /// is truncated to `rp.pos`, the resumed round's commit boundary. The
    /// provenance id state comes from `rp`'s checkpoint itself.
    pub(crate) fn attach(
        cfg: &DurabilityConfig,
        retry: &ClusterConfig,
        rp: &ResumePoint,
    ) -> Result<Self, WalError> {
        let writer = WalWriter::open_at(cfg, retry, rp.pos)?;
        let temp_files_removed = gc_temp_files(&cfg.vfs, &cfg.dir);
        Ok(DurabilityCtx::new(Ok(writer), Some(rp), temp_files_removed))
    }

    fn new(
        writer: Result<WalWriter, WalError>,
        prev: Option<&ResumePoint>,
        temp_files_removed: u64,
    ) -> Self {
        let (writer, error) = match writer {
            Ok(w) => (Some(w), None),
            Err(e) => (None, Some(e.to_string())),
        };
        let state = prev.map(|p| &p.checkpoint);
        DurabilityCtx {
            next_fix_id: state.map_or(0, |s| s.next_fix_id),
            last_fix: state
                .map_or_else(FxHashMap::default, |s| s.last_fix.iter().copied().collect()),
            resumed_from: state.map(|s| s.round),
            batch: state.map_or(1, |s| s.batch.max(1)),
            writer,
            checkpoints: 0,
            temp_files_removed,
            error,
        }
    }

    /// Mark this context as logging for ΔD batch `batch` of a durable
    /// session and append the `BatchBegin` record. A fresh batch is not a
    /// "resume" even though it attaches to an existing log.
    pub(crate) fn begin_batch(&mut self, batch: u64, round_base: u64) {
        self.batch = batch;
        self.resumed_from = None;
        self.step(|ctx| {
            let Some(writer) = ctx.writer.as_mut() else {
                return Ok(());
            };
            writer.append(&WalRecord::BatchBegin { batch, round_base })?;
            writer.sync()
        });
    }

    /// Log one committed round: `RoundBegin`, each fix (with provenance
    /// parents), the round's checkpoint document, and the `RoundCommit`
    /// marker — then one fsync covering the whole boundary.
    pub(crate) fn commit_round(
        &mut self,
        round: u64,
        fixes: &[RoundFix],
        checkpoint: ChaseCheckpoint,
    ) {
        self.step(|ctx| ctx.log_round(round, fixes, checkpoint));
    }

    /// Run one logging step unless an earlier one failed; a failure
    /// poisons the context.
    fn step(&mut self, f: impl FnOnce(&mut Self) -> Result<(), WalError>) {
        if self.error.is_none() {
            if let Err(e) = f(self) {
                self.error = Some(e.to_string());
            }
        }
    }

    fn log_round(
        &mut self,
        round: u64,
        fixes: &[RoundFix],
        checkpoint: ChaseCheckpoint,
    ) -> Result<(), WalError> {
        let Some(writer) = self.writer.as_mut() else {
            return Ok(());
        };
        writer.append(&WalRecord::RoundBegin { round })?;
        for (kind, rule, valuation) in fixes {
            let id = self.next_fix_id;
            self.next_fix_id += 1;
            let mut val = valuation.clone();
            val.sort_unstable();
            val.dedup();
            let mut parents: Vec<u64> = val
                .iter()
                .chain(kind.touched().iter())
                .filter_map(|t| self.last_fix.get(t).copied())
                .collect();
            parents.sort_unstable();
            parents.dedup();
            let rec = FixRecord {
                id,
                round,
                rule: *rule,
                kind: kind.clone(),
                valuation: val,
                parents,
            };
            // within-round chaining: a merge's materialized cell writes
            // list the merge itself as a parent
            for t in rec.kind.touched() {
                self.last_fix.insert(t, id);
            }
            writer.append(&WalRecord::Fix(rec))?;
        }
        // The document is self-contained for resume: it carries the
        // provenance id state as of this marker.
        let mut ck = checkpoint;
        ck.next_fix_id = self.next_fix_id;
        let mut lf: Vec<(GlobalTid, u64)> = self.last_fix.iter().map(|(t, id)| (*t, *id)).collect();
        lf.sort_unstable();
        ck.last_fix = lf;
        let name = ChaseCheckpoint::file_name(ck.round);
        let bytes = ck.to_bytes();
        let state_crc = crc32(&bytes);
        writer.write_checkpoint(&name, &bytes)?;
        self.checkpoints += 1;
        writer.append(&WalRecord::RoundCommit {
            round,
            checkpoint: Some(name),
            state_crc,
        })?;
        writer.sync()
    }

    pub(crate) fn into_summary(self) -> WalSummary {
        let (records, io_retries) = self
            .writer
            .as_ref()
            .map_or((0, 0), |w| (w.appended, w.io_retries));
        let health = match self.error {
            Some(reason) => WalHealth::Degraded { reason },
            None if io_retries > 0 => WalHealth::Recovered { io_retries },
            None => WalHealth::Healthy,
        };
        WalSummary {
            records,
            checkpoints: self.checkpoints,
            resumed_from: self.resumed_from,
            batch: self.batch,
            io_retries,
            temp_files_removed: self.temp_files_removed,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_crystal::StorageFaultPlan;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rock-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg(d: &Path) -> DurabilityConfig {
        DurabilityConfig {
            sync: false,
            ..DurabilityConfig::new(d)
        }
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::Fix(FixRecord {
            id: i,
            round: 1,
            rule: 7,
            kind: FixKind::Order {
                rel: RelId(0),
                attr: AttrId(1),
                t1: TupleId(i as u32),
                t2: TupleId(i as u32 + 1),
                strict: false,
            },
            valuation: vec![GlobalTid::new(RelId(0), TupleId(i as u32))],
            parents: vec![],
        })
    }

    fn log(d: &Path) -> PathBuf {
        d.join(WAL_FILE)
    }

    #[test]
    fn append_then_scan_round_trips() {
        let d = dir("roundtrip");
        let mut w = WalWriter::create(&cfg(&d), &ClusterConfig::default(), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let scan = decode_wal(&std::fs::read(log(&d)).unwrap()).unwrap();
        assert!(!scan.corrupt_tail);
        let got: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            got,
            vec![WalRecord::Begin { fingerprint: 42 }, rec(0), rec(1)]
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn truncated_tail_is_ignored() {
        let d = dir("trunc");
        let mut w = WalWriter::create(&cfg(&d), &ClusterConfig::default(), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let path = log(&d);
        let full = std::fs::read(&path).unwrap();
        // chop mid-way through the last frame
        let second_end = decode_wal(&std::fs::read(&path).unwrap()).unwrap().records[1].0 as usize;
        std::fs::write(&path, &full[..second_end + 5]).unwrap();
        let scan = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(scan.corrupt_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len as usize, second_end);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bit_flip_is_detected_by_crc() {
        let d = dir("flip");
        let mut w = WalWriter::create(&cfg(&d), &ClusterConfig::default(), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let path = log(&d);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_end = decode_wal(&std::fs::read(&path).unwrap()).unwrap().records[1].0 as usize;
        // flip one payload bit in the last frame
        let i = second_end + 12;
        bytes[i] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let scan = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(scan.corrupt_tail);
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let d = dir("magic");
        let path = log(&d);
        std::fs::write(&path, b"NOTAWAL0rest").unwrap();
        assert!(matches!(
            decode_wal(&std::fs::read(&path).unwrap()),
            Err(WalError::Mismatch(_))
        ));
        assert!(matches!(read_wal_dir(&d), Err(WalError::Mismatch(_))));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn open_at_truncates_the_tail() {
        let d = dir("openat");
        let c = cfg(&d);
        let mut w = WalWriter::create(&c, &ClusterConfig::default(), 42).unwrap();
        w.append(&rec(0)).unwrap();
        let pos = w.offset;
        w.append(&rec(1)).unwrap();
        drop(w);
        let mut w = WalWriter::open_at(&c, &ClusterConfig::default(), pos).unwrap();
        w.append(&rec(9)).unwrap();
        drop(w);
        let got: Vec<WalRecord> = decode_wal(&std::fs::read(log(&d)).unwrap())
            .unwrap()
            .records
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            got,
            vec![WalRecord::Begin { fingerprint: 42 }, rec(0), rec(9)]
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn transient_write_faults_are_retried() {
        let d = dir("retry");
        let vfs = FaultVfs::with_plan(
            StorageFaultPlan::seeded(17)
                .with_torn_writes(0.3)
                .with_transient_fraction(1.0),
        );
        let c = cfg(&d).with_vfs(vfs);
        let retry = ClusterConfig::default().with_max_retries(8);
        let mut w = WalWriter::create(&c, &retry, 42).unwrap();
        for i in 0..32 {
            w.append(&rec(i)).unwrap();
        }
        assert!(w.io_retries > 0, "some writes must have been retried");
        drop(w);
        // retries truncated every partial frame: the log is fully valid
        let scan = decode_wal(&std::fs::read(log(&d)).unwrap()).unwrap();
        assert!(!scan.corrupt_tail);
        assert_eq!(scan.records.len(), 33);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A torn append whose truncate-back fails leaves a tail the writer
    /// cannot make frame-aligned again: the append fails at once instead of
    /// writing a second frame after the torn prefix.
    #[test]
    fn torn_append_with_a_failed_repair_is_not_retried() {
        let d = dir("norepair");
        let c = cfg(&d);
        let w = WalWriter::create(&c, &ClusterConfig::default(), 42).unwrap();
        let pos = w.offset;
        drop(w);
        // Reopening takes op 0 (Open) and op 1 (SetLen); the append's write
        // is op 2 and tears (transiently), and the SetLen repairing it is
        // op 3, where the disk dies.
        let plan = StorageFaultPlan::seeded(3)
            .with_torn_writes(1.0)
            .with_transient_fraction(1.0)
            .with_crash_at_op(3);
        let c = c.with_vfs(FaultVfs::with_plan(plan));
        let retry = ClusterConfig::default().with_max_retries(8);
        let mut w = WalWriter::open_at(&c, &retry, pos).unwrap();
        assert!(matches!(w.append(&rec(0)), Err(WalError::Io(_))));
        assert_eq!(w.io_retries, 0, "an unrepaired tail must not be retried");
        assert_eq!(w.appended, 0);
        let stats = c.vfs.stats();
        assert_eq!((stats.torn_writes, stats.ops), (1, 4));
        assert!(stats.crashed);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistent_sync_failure_degrades_not_panics() {
        let d = dir("degrade");
        let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(5).with_sync_errors(1.0));
        let c = DurabilityConfig::new(&d).with_vfs(vfs); // sync: true
        let mut ctx = DurabilityCtx::begin(&c, &ClusterConfig::default(), 42);
        assert!(ctx.error.is_some(), "header sync must fail persistently");
        ctx.begin_batch(2, 1); // no-op on a poisoned context
        let s = ctx.into_summary();
        assert!(matches!(s.health, WalHealth::Degraded { .. }));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gc_reaps_stale_temp_files() {
        let d = dir("tmpgc");
        std::fs::write(d.join("checkpoint-000002.json.tmp"), b"stray").unwrap();
        std::fs::write(d.join("checkpoint-000003.json.tmp"), b"stray").unwrap();
        std::fs::write(d.join("checkpoint-000001.json"), b"keep").unwrap();
        let ctx = DurabilityCtx::begin(&cfg(&d), &ClusterConfig::default(), 42);
        assert!(ctx.error.is_none());
        assert_eq!(ctx.temp_files_removed, 2);
        assert!(d.join("checkpoint-000001.json").exists());
        assert!(!d.join("checkpoint-000002.json.tmp").exists());
        std::fs::remove_dir_all(&d).unwrap();
    }
}
