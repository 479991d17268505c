//! Segmented write-ahead log for the durable chase (ROADMAP item 4).
//!
//! The log is a sequence of segment files `wal.000001`, `wal.000002`, …
//! inside the durability directory. Every segment starts with the magic and
//! a `Begin { fingerprint }` header frame; every round that commits fixes
//! appends, at the round boundary, one frame sequence:
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
//! valid prefix *and* whose checkpoint chain verifies against the
//! marker's CRC (see `crate::checkpoint`).
//!
//! **Segments and compaction.** The writer rotates to a fresh segment at the
//! first round boundary where the live segment exceeds
//! [`DurabilityConfig::segment_bytes`]. The switch is crash-safe: the new
//! segment's header is written and fsynced (file + directory) *before* any
//! round frame lands in it, and a crash mid-rotation at worst leaves a
//! partial next segment that the reader discards as a corrupt tail. With
//! [`DurabilityConfig::compact`] on, committing a *full* checkpoint retires
//! every earlier segment and every checkpoint file outside the live chain —
//! bounding the directory to the latest full checkpoint, its deltas, and at
//! most two segments.
//!
//! **I/O faults.** All I/O goes through the config's
//! [`rock_crystal::FaultVfs`]. Transient errors are retried with the capped
//! exponential backoff Crystal's compute retries use
//! ([`rock_crystal::ClusterConfig::backoff_for`]); once retries are
//! exhausted the context *poisons*: durability degrades to in-memory, the
//! chase keeps repairing, and the failure surfaces as
//! [`WalHealth::Degraded`] on the run's [`WalSummary`].
//!
//! Each [`FixRecord`] doubles as a **provenance node**: it carries the
//! rule id, the valuation's bound tuples, and the ids of the prior fixes
//! those tuples last received (`parents`). `crate::provenance` replays
//! the log into a queryable "why is this cell 42?" graph.

use crate::fixes::EntityKey;
use rock_crystal::{crc32, ClusterConfig, FaultVfs};
use rock_data::{json, AttrId, CellRef, DataError, FxHashMap, GlobalTid, RelId, TupleId, Value};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic: identifies the format and its version.
pub const WAL_MAGIC: &[u8; 8] = b"ROCKWAL1";

/// Name of WAL segment `seq` (1-based): `wal.000001`, `wal.000002`, …
pub fn segment_file_name(seq: u64) -> String {
    format!("wal.{seq:06}")
}

/// Parse a segment file name back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?;
    if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Position in the segmented log: segment sequence number + byte offset
/// within that segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPos {
    pub seg: u64,
    pub off: u64,
}

/// Errors surfaced by the durability layer. The chase itself never fails
/// on these — a mid-run WAL error degrades durability to off and is
/// reported in [`WalSummary::error`] — but [`crate::ChaseEngine::resume`]
/// is fallible by nature.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// A frame or checkpoint failed to encode/decode.
    Codec(String),
    /// The log or checkpoint contradicts itself or the engine (bad magic,
    /// fingerprint mismatch, missing checkpoint file).
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

/// Durability knobs, threaded through `ChaseConfig::durability`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.NNNNNN` segments and `checkpoint-*` files.
    pub dir: PathBuf,
    /// Checkpoint every N round boundaries (1 = every round). Rounds
    /// without a checkpoint still log their fixes; resume falls back to
    /// the last checkpointed round and deterministically re-runs the gap.
    pub snapshot_every: usize,
    /// fsync the WAL at each round boundary and fsync checkpoint writes.
    /// `false` trades power-loss durability for speed (tests, panels).
    pub sync: bool,
    /// Crash drill: abort the process right *after* round N's commit is
    /// durable. Wired from `ROCK_CRASH_AT_ROUND` by the harness binaries;
    /// never set in production configs.
    pub crash_at_round: Option<usize>,
    /// Rotate to a new WAL segment at the first round boundary where the
    /// live segment holds at least this many bytes (soft budget: a round's
    /// frames never straddle segments).
    pub segment_bytes: u64,
    /// Retire WAL segments and checkpoint files fully covered by the
    /// latest full checkpoint. Off by default: compaction trades
    /// resume-at-any-round and whole-history provenance for bounded disk.
    pub compact: bool,
    /// Write a full checkpoint every N checkpoints, deltas in between
    /// (1 = every checkpoint is full). Deltas diff cells/carries/activation
    /// against the previous snapshot and chain CRCs back to their full.
    pub full_every: usize,
    /// Transient I/O errors on append/sync/checkpoint writes are retried
    /// this many times before durability poisons to in-memory.
    pub max_io_retries: u32,
    /// Base of the capped exponential retry backoff (same shape as
    /// [`rock_crystal::ClusterConfig::backoff_for`]).
    pub io_backoff: Duration,
    /// Filesystem shim all WAL/checkpoint I/O routes through. The clean
    /// default injects nothing; the crash-consistency harness swaps in a
    /// seeded fault plan.
    pub vfs: FaultVfs,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        // Reuse Crystal's compute-retry constants for the I/O retry ladder.
        let retry = ClusterConfig::default();
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 1,
            sync: true,
            crash_at_round: None,
            segment_bytes: 8 * 1024 * 1024,
            compact: false,
            full_every: 1,
            max_io_retries: retry.max_retries,
            io_backoff: retry.retry_backoff,
            vfs: FaultVfs::clean(),
        }
    }

    pub fn with_vfs(mut self, vfs: FaultVfs) -> Self {
        self.vfs = vfs;
        self
    }

    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    pub fn with_compaction(mut self, on: bool) -> Self {
        self.compact = on;
        self
    }

    pub fn with_full_every(mut self, n: usize) -> Self {
        self.full_every = n.max(1);
        self
    }
}

/// Capped exponential backoff before I/O retry `attempt` (0-based): the
/// formula Crystal's unit retries use, on the durability layer's base.
fn io_backoff(base: Duration, attempt: u32) -> Duration {
    ClusterConfig {
        retry_backoff: base,
        ..ClusterConfig::default()
    }
    .backoff_for(attempt)
}

/// Run `op`, retrying a failure up to `max_retries` times with
/// [`io_backoff`] naps in between; every retry is counted into `retries`.
/// `op` must be idempotent.
fn retry_io<T>(
    max_retries: u32,
    base: Duration,
    retries: &mut u64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T, WalError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt >= max_retries => return Err(WalError::Io(e)),
            Err(_) => {
                *retries += 1;
                std::thread::sleep(io_backoff(base, attempt));
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
    /// the in-memory oracle — only the log is incomplete.
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
    /// Run/segment header: guards resume against a different rule set /
    /// config. Every segment starts with one.
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

/// Result of scanning one segment: records of the longest valid prefix,
/// each with the byte offset one past its frame.
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

/// Read and scan a single WAL segment file.
pub fn read_wal(path: &Path) -> Result<WalScan, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_wal(&bytes)
}

/// WAL segments present in `dir`, sorted by sequence number. An absent
/// directory reads as "no segments".
pub fn list_segments(vfs: &FaultVfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let entries = match vfs.list_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut segs: Vec<(u64, PathBuf)> = entries
        .into_iter()
        .filter_map(|p| {
            let seq = p.file_name()?.to_str().and_then(parse_segment_name)?;
            Some((seq, p))
        })
        .collect();
    segs.sort_by_key(|(seq, _)| *seq);
    Ok(segs)
}

/// Per-segment summary from a directory scan.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    pub seq: u64,
    /// Total file bytes on disk.
    pub bytes: u64,
    /// Bytes of the valid prefix.
    pub valid_len: u64,
    /// Valid records in this segment (including its `Begin` header).
    pub records: usize,
    pub corrupt_tail: bool,
}

/// The logical log assembled from all valid segments in order.
#[derive(Debug)]
pub struct WalDirScan {
    /// Records of the longest valid cross-segment prefix. Segment headers
    /// after the first segment are elided, so this reads like one log:
    /// `Begin · (BatchBegin | RoundBegin · Fix* · RoundCommit)*`.
    pub records: Vec<(WalPos, WalRecord)>,
    pub segments: Vec<SegmentInfo>,
    /// True when any scanned segment ended in garbage (later segments are
    /// then ignored — they postdate the tear).
    pub corrupt_tail: bool,
    /// Fingerprint from the first segment's header, when present.
    pub fingerprint: Option<u64>,
}

/// Scan all WAL segments in `dir` through `vfs` and concatenate their
/// valid prefixes. Segments after a corrupt or header-less one are
/// discarded: a torn segment means everything younger is uncommitted.
pub fn read_wal_dir_vfs(vfs: &FaultVfs, dir: &Path) -> Result<WalDirScan, WalError> {
    let segs = list_segments(vfs, dir)?;
    if segs.is_empty() {
        return Err(WalError::Mismatch(format!(
            "no WAL segments in {}",
            dir.display()
        )));
    }
    let mut records = Vec::new();
    let mut segments = Vec::new();
    let mut corrupt_tail = false;
    let mut fingerprint: Option<u64> = None;
    for (i, (seq, path)) in segs.iter().enumerate() {
        let bytes = vfs.read(path)?;
        let scan = match decode_wal(&bytes) {
            Ok(s) => s,
            Err(e) if i == 0 => return Err(e),
            Err(_) => {
                corrupt_tail = true;
                break;
            }
        };
        // Every segment must open with a Begin header matching the first
        // segment's fingerprint; anything else is rotation debris.
        let header_fp = match scan.records.first() {
            Some((_, WalRecord::Begin { fingerprint })) => *fingerprint,
            _ if i == 0 => {
                // first segment with no header at all: surface as-is so
                // locate reports the mismatch
                segments.push(SegmentInfo {
                    seq: *seq,
                    bytes: bytes.len() as u64,
                    valid_len: scan.valid_len,
                    records: scan.records.len(),
                    corrupt_tail: scan.corrupt_tail,
                });
                for (off, rec) in scan.records {
                    records.push((WalPos { seg: *seq, off }, rec));
                }
                corrupt_tail |= scan.corrupt_tail;
                break;
            }
            _ => {
                corrupt_tail = true;
                break;
            }
        };
        match fingerprint {
            None => fingerprint = Some(header_fp),
            Some(fp) if fp != header_fp => {
                corrupt_tail = true;
                break;
            }
            Some(_) => {}
        }
        segments.push(SegmentInfo {
            seq: *seq,
            bytes: bytes.len() as u64,
            valid_len: scan.valid_len,
            records: scan.records.len(),
            corrupt_tail: scan.corrupt_tail,
        });
        let seg_corrupt = scan.corrupt_tail;
        for (j, (off, rec)) in scan.records.into_iter().enumerate() {
            if i > 0 && j == 0 {
                continue; // elide the duplicated segment header
            }
            records.push((WalPos { seg: *seq, off }, rec));
        }
        if seg_corrupt {
            corrupt_tail = true;
            break;
        }
    }
    Ok(WalDirScan {
        records,
        segments,
        corrupt_tail,
        fingerprint,
    })
}

/// [`read_wal_dir_vfs`] through a clean (fault-free) vfs — the reader used
/// by provenance, panels, and tests.
pub fn read_wal_dir(dir: &Path) -> Result<WalDirScan, WalError> {
    read_wal_dir_vfs(&FaultVfs::clean(), dir)
}

/// Raw bytes of all segments concatenated in order — the byte-idempotence
/// oracle (`resume` must leave these bytes unchanged after re-running).
pub fn wal_bytes(dir: &Path) -> Result<Vec<u8>, WalError> {
    let vfs = FaultVfs::clean();
    let mut out = Vec::new();
    for (_, path) in list_segments(&vfs, dir)? {
        out.extend_from_slice(&vfs.read(&path)?);
    }
    Ok(out)
}

/// Append-only segmented WAL writer with capped-backoff I/O retries.
#[derive(Debug)]
pub struct WalWriter {
    vfs: FaultVfs,
    dir: PathBuf,
    sync: bool,
    segment_bytes: u64,
    fingerprint: u64,
    max_retries: u32,
    backoff: Duration,
    seq: u64,
    file: rock_crystal::VfsFile,
    offset: u64,
    /// Records appended this run (headers included).
    pub(crate) appended: u64,
    /// Transient I/O errors recovered by retry.
    pub(crate) io_retries: u64,
    /// Segment rotations performed this run.
    pub(crate) segments_rotated: u64,
}

/// The bytes every segment starts with: the magic and a `Begin` frame.
fn segment_header(fingerprint: u64) -> Result<Vec<u8>, WalError> {
    let mut header = WAL_MAGIC.to_vec();
    header.extend_from_slice(&encode_frame(&WalRecord::Begin { fingerprint })?);
    Ok(header)
}

/// Create segment `seq` holding `header`, synced (file + directory) when
/// `sync` is on. Creation truncates, so the whole step is idempotent and a
/// transient failure anywhere in it can be retried from the top.
fn start_segment(
    vfs: &FaultVfs,
    dir: &Path,
    seq: u64,
    header: &[u8],
    sync: bool,
) -> std::io::Result<rock_crystal::VfsFile> {
    let mut file = vfs.create(&dir.join(segment_file_name(seq)))?;
    file.write_all(header)?;
    if sync {
        file.sync_all()?;
        vfs.fsync_dir(dir)?;
    }
    Ok(file)
}

impl WalWriter {
    /// Start a fresh log: remove any existing segments, create
    /// `wal.000001`, and write its magic + `Begin` header durably.
    pub(crate) fn create(cfg: &DurabilityConfig, fingerprint: u64) -> Result<Self, WalError> {
        let vfs = cfg.vfs.clone();
        for (_, path) in list_segments(&vfs, &cfg.dir)? {
            vfs.remove_file(&path)?;
        }
        let header = segment_header(fingerprint)?;
        let mut io_retries = 0;
        let file = retry_io(cfg.max_io_retries, cfg.io_backoff, &mut io_retries, || {
            start_segment(&vfs, &cfg.dir, 1, &header, cfg.sync)
        })?;
        Ok(WalWriter {
            vfs,
            dir: cfg.dir.clone(),
            sync: cfg.sync,
            segment_bytes: cfg.segment_bytes,
            fingerprint,
            max_retries: cfg.max_io_retries,
            backoff: cfg.io_backoff,
            seq: 1,
            file,
            offset: header.len() as u64,
            appended: 1,
            io_retries,
            segments_rotated: 0,
        })
    }

    /// Open the log for appending at `pos`, discarding any crashed or
    /// uncommitted suffix: segments younger than `pos.seg` are deleted and
    /// the live segment is truncated to `pos.off` — rounds re-run after a
    /// resume then regenerate their records in place (replay is
    /// idempotent).
    pub(crate) fn open_at(
        cfg: &DurabilityConfig,
        pos: WalPos,
        fingerprint: u64,
    ) -> Result<Self, WalError> {
        let vfs = cfg.vfs.clone();
        for (seq, path) in list_segments(&vfs, &cfg.dir)? {
            if seq > pos.seg {
                vfs.remove_file(&path)?;
            }
        }
        let path = cfg.dir.join(segment_file_name(pos.seg));
        let mut file = vfs.open_rw(&path)?;
        file.set_len(pos.off)?;
        file.seek_to(pos.off)?;
        if cfg.sync {
            file.sync_all()?;
            vfs.fsync_dir(&cfg.dir)?;
        }
        Ok(WalWriter {
            vfs,
            dir: cfg.dir.clone(),
            sync: cfg.sync,
            segment_bytes: cfg.segment_bytes,
            fingerprint,
            max_retries: cfg.max_io_retries,
            backoff: cfg.io_backoff,
            seq: pos.seg,
            file,
            offset: pos.off,
            appended: 0,
            io_retries: 0,
            segments_rotated: 0,
        })
    }

    /// Append one frame, retrying transient write errors after truncating
    /// the partial frame back off the tail (keeps the file frame-aligned
    /// even when a torn write persisted a prefix).
    pub(crate) fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let frame = encode_frame(rec)?;
        let mut attempt = 0u32;
        loop {
            match self.file.write_all(&frame) {
                Ok(()) => {
                    self.offset += frame.len() as u64;
                    self.appended += 1;
                    return Ok(());
                }
                Err(e) => {
                    let repaired = self
                        .file
                        .set_len(self.offset)
                        .and_then(|()| self.file.seek_to(self.offset))
                        .is_ok();
                    if !repaired || attempt >= self.max_retries {
                        return Err(WalError::Io(e));
                    }
                    self.io_retries += 1;
                    std::thread::sleep(io_backoff(self.backoff, attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Fsync the live segment (no-op when the config is async), retrying
    /// transient errors.
    pub(crate) fn sync(&mut self) -> Result<(), WalError> {
        if !self.sync {
            return Ok(());
        }
        retry_io(self.max_retries, self.backoff, &mut self.io_retries, || {
            self.file.sync_all()
        })
    }

    /// Rotate to a fresh segment if the live one is over budget. Called at
    /// round boundaries only, so a round's frames never straddle segments.
    /// Crash-safe: the new header is written and fsynced (file + dir)
    /// before the writer switches; the old segment was already synced at
    /// its last round boundary.
    pub(crate) fn maybe_rotate(&mut self) -> Result<(), WalError> {
        if self.offset < self.segment_bytes {
            return Ok(());
        }
        let next_seq = self.seq + 1;
        let header = segment_header(self.fingerprint)?;
        self.file = retry_io(self.max_retries, self.backoff, &mut self.io_retries, || {
            start_segment(&self.vfs, &self.dir, next_seq, &header, self.sync)
        })?;
        self.seq = next_seq;
        self.offset = header.len() as u64;
        self.appended += 1;
        self.segments_rotated += 1;
        Ok(())
    }

    /// Delete every segment older than the live one (compaction after a
    /// full checkpoint). Returns how many were retired.
    pub(crate) fn retire_old_segments(&mut self) -> Result<u64, WalError> {
        let mut retired = 0;
        for (seq, path) in list_segments(&self.vfs, &self.dir)? {
            if seq < self.seq {
                self.vfs.remove_file(&path)?;
                retired += 1;
            }
        }
        Ok(retired)
    }
}

/// Totals reported back on [`crate::ChaseResult`] when durability is on.
#[derive(Debug, Clone)]
pub struct WalSummary {
    /// Records appended this run (excluding replayed history).
    pub records: u64,
    /// Checkpoint documents written this run (full + delta).
    pub checkpoints: u64,
    /// Full checkpoints among them.
    pub full_checkpoints: u64,
    /// Delta checkpoints among them.
    pub delta_checkpoints: u64,
    /// Round the run resumed from (None for a fresh run).
    pub resumed_from: Option<u64>,
    /// ΔD batch this run executed (1 for plain runs; >1 for durable
    /// session continuations).
    pub batch: u64,
    /// Transient I/O errors recovered by capped-backoff retry.
    pub io_retries: u64,
    /// Segment rotations performed.
    pub segments_rotated: u64,
    /// Segments retired by compaction.
    pub segments_compacted: u64,
    /// Stale checkpoint temp files garbage-collected on open.
    pub temp_files_removed: u64,
    /// Typed durability health (see [`WalHealth`]).
    pub health: WalHealth,
    /// First durability failure, if any. Fixes stay correct — the run
    /// merely degraded to non-durable from that point on.
    pub error: Option<String>,
}

/// A committed fix captured by the chase's commit phases before it is
/// assigned an id: `(kind, rule, valuation tuples)`.
pub(crate) type RoundFix = (FixKind, u32, Vec<GlobalTid>);

/// Live durability state carried through `run_loop`. Infallible from the
/// caller's view: the first unrecoverable error poisons the context (later
/// calls no-op) and surfaces in [`WalSummary::error`] — a failing disk must
/// degrade durability, never the fixes.
pub(crate) struct DurabilityCtx {
    pub(crate) cfg: DurabilityConfig,
    writer: Option<WalWriter>,
    next_fix_id: u64,
    /// Last fix id that touched each tuple (provenance parent lookup).
    last_fix: FxHashMap<GlobalTid, u64>,
    pub(crate) resumed_from: Option<u64>,
    /// ΔD batch this context logs for (1 unless attached by a session).
    batch: u64,
    /// Last written checkpoint (delta base + live chain).
    prev: Option<crate::checkpoint::PrevCheckpoint>,
    records: u64,
    checkpoints: u64,
    full_checkpoints: u64,
    delta_checkpoints: u64,
    wal_io_retries: u64,
    ckpt_io_retries: u64,
    segments_rotated: u64,
    segments_compacted: u64,
    temp_files_removed: u64,
    pub(crate) error: Option<String>,
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
    pub(crate) fn begin(cfg: DurabilityConfig, fingerprint: u64) -> Self {
        let mut ctx = DurabilityCtx {
            cfg,
            writer: None,
            next_fix_id: 0,
            last_fix: FxHashMap::default(),
            resumed_from: None,
            batch: 1,
            prev: None,
            records: 0,
            checkpoints: 0,
            full_checkpoints: 0,
            delta_checkpoints: 0,
            wal_io_retries: 0,
            ckpt_io_retries: 0,
            segments_rotated: 0,
            segments_compacted: 0,
            temp_files_removed: 0,
            error: None,
        };
        let res = (|| -> Result<WalWriter, WalError> {
            ctx.cfg.vfs.create_dir_all(&ctx.cfg.dir)?;
            ctx.temp_files_removed = gc_temp_files(&ctx.cfg.vfs, &ctx.cfg.dir);
            WalWriter::create(&ctx.cfg, fingerprint)
        })();
        match res {
            Ok(w) => {
                ctx.records = w.appended;
                ctx.wal_io_retries = w.io_retries;
                ctx.writer = Some(w);
            }
            Err(e) => ctx.error = Some(e.to_string()),
        }
        ctx
    }

    /// Attach to a recovered log (see `crate::checkpoint::locate`): the
    /// writer is positioned at the resumed round's commit boundary and
    /// `prev` carries the resumed checkpoint as the next delta base. The
    /// provenance id state comes from the checkpoint itself.
    pub(crate) fn attach(
        cfg: DurabilityConfig,
        writer: WalWriter,
        prev: crate::checkpoint::PrevCheckpoint,
        resumed_from: u64,
    ) -> Self {
        let temp_files_removed = gc_temp_files(&cfg.vfs, &cfg.dir);
        let next_fix_id = prev.state.next_fix_id;
        let last_fix: FxHashMap<GlobalTid, u64> = prev.state.last_fix.iter().copied().collect();
        DurabilityCtx {
            cfg,
            writer: Some(writer),
            next_fix_id,
            last_fix,
            resumed_from: Some(resumed_from),
            batch: prev.state.batch.max(1),
            prev: Some(prev),
            records: 0,
            checkpoints: 0,
            full_checkpoints: 0,
            delta_checkpoints: 0,
            wal_io_retries: 0,
            ckpt_io_retries: 0,
            segments_rotated: 0,
            segments_compacted: 0,
            temp_files_removed,
            error: None,
        }
    }

    /// Mark this context as logging for ΔD batch `batch` of a durable
    /// session and append the `BatchBegin` record. A fresh batch is not a
    /// "resume" even though it attaches to an existing log.
    pub(crate) fn begin_batch(&mut self, batch: u64, round_base: u64) {
        self.batch = batch;
        self.resumed_from = None;
        if self.error.is_some() {
            return;
        }
        let res = (|| -> Result<(), WalError> {
            let Some(writer) = self.writer.as_mut() else {
                return Ok(());
            };
            writer.maybe_rotate()?;
            writer.append(&WalRecord::BatchBegin { batch, round_base })?;
            writer.sync()?;
            Ok(())
        })();
        self.capture_writer_counters();
        if let Err(e) = res {
            self.poison(e);
        }
    }

    fn capture_writer_counters(&mut self) {
        if let Some(w) = self.writer.as_ref() {
            self.records = w.appended;
            self.wal_io_retries = w.io_retries;
            self.segments_rotated = w.segments_rotated;
        }
    }

    fn poison(&mut self, e: WalError) {
        self.error = Some(e.to_string());
        self.writer = None;
    }

    /// Log one committed round: `RoundBegin`, each fix (with provenance
    /// parents), the checkpoint document (when given), and the
    /// `RoundCommit` marker — then one fsync covering the whole boundary,
    /// then compaction when a full checkpoint just made history dead.
    pub(crate) fn commit_round(
        &mut self,
        round: u64,
        fixes: &[RoundFix],
        checkpoint: Option<crate::checkpoint::ChaseCheckpoint>,
    ) {
        if self.error.is_some() {
            return;
        }
        let Some(mut writer) = self.writer.take() else {
            return;
        };
        let res = self.commit_round_inner(&mut writer, round, fixes, checkpoint);
        self.records = writer.appended;
        self.wal_io_retries = writer.io_retries;
        self.segments_rotated = writer.segments_rotated;
        match res {
            Ok(()) => self.writer = Some(writer),
            Err(e) => self.poison(e),
        }
    }

    fn commit_round_inner(
        &mut self,
        writer: &mut WalWriter,
        round: u64,
        fixes: &[RoundFix],
        checkpoint: Option<crate::checkpoint::ChaseCheckpoint>,
    ) -> Result<(), WalError> {
        writer.maybe_rotate()?;
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
        let mut compact_after: Option<Vec<String>> = None;
        let (name, state_crc) = match checkpoint {
            Some(mut ck) => {
                // The document is self-contained for resume: it carries the
                // provenance id state as of this marker.
                ck.next_fix_id = self.next_fix_id;
                let mut lf: Vec<(GlobalTid, u64)> =
                    self.last_fix.iter().map(|(t, id)| (*t, *id)).collect();
                lf.sort_unstable();
                ck.last_fix = lf;
                let enc =
                    crate::checkpoint::encode_doc(self.prev.as_ref(), ck, self.cfg.full_every);
                let crc = crc32(&enc.bytes);
                self.write_checkpoint_file(&enc.name, &enc.bytes)?;
                self.checkpoints += 1;
                if enc.is_full {
                    self.full_checkpoints += 1;
                } else {
                    self.delta_checkpoints += 1;
                }
                let old_chain = self.prev.take().map(|p| p.chain).unwrap_or_default();
                let chain = if enc.is_full {
                    if self.cfg.compact {
                        let obsolete: Vec<String> = old_chain
                            .iter()
                            .filter(|f| **f != enc.name)
                            .cloned()
                            .collect();
                        compact_after = Some(obsolete);
                    }
                    vec![enc.name.clone()]
                } else {
                    let mut c = old_chain;
                    c.push(enc.name.clone());
                    c
                };
                self.prev = Some(crate::checkpoint::PrevCheckpoint {
                    state: enc.state,
                    name: enc.name.clone(),
                    crc,
                    chain,
                });
                (Some(enc.name), crc)
            }
            None => (None, 0),
        };
        writer.append(&WalRecord::RoundCommit {
            round,
            checkpoint: name,
            state_crc,
        })?;
        writer.sync()?;
        // Only after the marker is durable may covered history be retired.
        if let Some(obsolete) = compact_after {
            for f in &obsolete {
                self.cfg.vfs.remove_file(&self.cfg.dir.join(f))?;
            }
            self.segments_compacted += writer.retire_old_segments()?;
        }
        Ok(())
    }

    /// Write one checkpoint document, retrying transient failures with the
    /// capped backoff. A failed atomic write may leave `<name>.tmp` behind;
    /// the retry recreates it from scratch and the open-time GC reaps
    /// terminal strays.
    fn write_checkpoint_file(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.cfg.dir.join(name);
        let cfg = &self.cfg;
        retry_io(
            cfg.max_io_retries,
            cfg.io_backoff,
            &mut self.ckpt_io_retries,
            || {
                if cfg.sync {
                    cfg.vfs.write_atomic_durable(&path, bytes, true)
                } else {
                    cfg.vfs.write_file(&path, bytes)
                }
            },
        )
    }

    pub(crate) fn into_summary(self) -> WalSummary {
        let io_retries = self.wal_io_retries + self.ckpt_io_retries;
        let health = match &self.error {
            Some(reason) => WalHealth::Degraded {
                reason: reason.clone(),
            },
            None if io_retries > 0 => WalHealth::Recovered { io_retries },
            None => WalHealth::Healthy,
        };
        WalSummary {
            records: self.records,
            checkpoints: self.checkpoints,
            full_checkpoints: self.full_checkpoints,
            delta_checkpoints: self.delta_checkpoints,
            resumed_from: self.resumed_from,
            batch: self.batch,
            io_retries,
            segments_rotated: self.segments_rotated,
            segments_compacted: self.segments_compacted,
            temp_files_removed: self.temp_files_removed,
            health,
            error: self.error,
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

    fn seg1(d: &Path) -> PathBuf {
        d.join(segment_file_name(1))
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(1), "wal.000001");
        assert_eq!(parse_segment_name("wal.000001"), Some(1));
        assert_eq!(parse_segment_name("wal.001234"), Some(1234));
        assert_eq!(parse_segment_name("wal.log"), None);
        assert_eq!(parse_segment_name("wal.12"), None);
        assert_eq!(parse_segment_name("checkpoint-000001.json"), None);
    }

    #[test]
    fn append_then_scan_round_trips() {
        let d = dir("roundtrip");
        let mut w = WalWriter::create(&cfg(&d), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let scan = read_wal(&seg1(&d)).unwrap();
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
        let mut w = WalWriter::create(&cfg(&d), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let path = seg1(&d);
        let full = std::fs::read(&path).unwrap();
        // chop mid-way through the last frame
        let second_end = read_wal(&path).unwrap().records[1].0 as usize;
        std::fs::write(&path, &full[..second_end + 5]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.corrupt_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len as usize, second_end);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bit_flip_is_detected_by_crc() {
        let d = dir("flip");
        let mut w = WalWriter::create(&cfg(&d), 42).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let path = seg1(&d);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_end = read_wal(&path).unwrap().records[1].0 as usize;
        // flip one payload bit in the last frame
        let i = second_end + 12;
        bytes[i] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.corrupt_tail);
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let d = dir("magic");
        let path = seg1(&d);
        std::fs::write(&path, b"NOTAWAL0rest").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::Mismatch(_))));
        assert!(matches!(read_wal_dir(&d), Err(WalError::Mismatch(_))));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn open_at_truncates_the_tail() {
        let d = dir("openat");
        let c = cfg(&d);
        let mut w = WalWriter::create(&c, 42).unwrap();
        w.append(&rec(0)).unwrap();
        let pos = WalPos {
            seg: w.seq,
            off: w.offset,
        };
        w.append(&rec(1)).unwrap();
        drop(w);
        let mut w = WalWriter::open_at(&c, pos, 42).unwrap();
        w.append(&rec(9)).unwrap();
        drop(w);
        let got: Vec<WalRecord> = read_wal(&seg1(&d))
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
    fn rotation_splits_segments_and_dir_scan_merges_them() {
        let d = dir("rotate");
        let c = DurabilityConfig {
            segment_bytes: 1, // rotate at every opportunity
            ..cfg(&d)
        };
        let mut w = WalWriter::create(&c, 42).unwrap();
        for i in 0..3 {
            w.maybe_rotate().unwrap();
            w.append(&rec(i)).unwrap();
        }
        assert_eq!(w.segments_rotated, 3);
        drop(w);
        let segs = list_segments(&FaultVfs::clean(), &d).unwrap();
        assert_eq!(segs.len(), 4);
        let scan = read_wal_dir(&d).unwrap();
        assert!(!scan.corrupt_tail);
        assert_eq!(scan.fingerprint, Some(42));
        // headers of later segments are elided: Begin, then the 3 fixes
        let got: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            got,
            vec![WalRecord::Begin { fingerprint: 42 }, rec(0), rec(1), rec(2)]
        );
        // each fix sits in its own segment
        assert_eq!(scan.segments.len(), 4);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_drops_younger_segments() {
        let d = dir("midcorrupt");
        let c = DurabilityConfig {
            segment_bytes: 1,
            ..cfg(&d)
        };
        let mut w = WalWriter::create(&c, 42).unwrap();
        for i in 0..3 {
            w.maybe_rotate().unwrap();
            w.append(&rec(i)).unwrap();
        }
        drop(w);
        // Segment 1 holds only the header (the first rotation happens before
        // the first append), segment 2 holds rec(0). Destroy segment 3's
        // magic: segments 3..4 must be discarded, 1..2 kept.
        std::fs::write(d.join(segment_file_name(3)), b"garbage").unwrap();
        let scan = read_wal_dir(&d).unwrap();
        assert!(scan.corrupt_tail);
        let got: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, vec![WalRecord::Begin { fingerprint: 42 }, rec(0)]);
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
        let c = DurabilityConfig {
            max_io_retries: 8,
            ..cfg(&d)
        }
        .with_vfs(vfs);
        let mut w = WalWriter::create(&c, 42).unwrap();
        for i in 0..32 {
            w.append(&rec(i)).unwrap();
        }
        assert!(w.io_retries > 0, "some writes must have been retried");
        drop(w);
        // retries truncated every partial frame: the log is fully valid
        let scan = read_wal(&seg1(&d)).unwrap();
        assert!(!scan.corrupt_tail);
        assert_eq!(scan.records.len(), 33);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistent_sync_failure_degrades_not_panics() {
        let d = dir("degrade");
        let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(5).with_sync_errors(1.0));
        let c = DurabilityConfig::new(&d).with_vfs(vfs); // sync: true
        let mut ctx = DurabilityCtx::begin(c, 42);
        assert!(ctx.error.is_some(), "header sync must fail persistently");
        ctx.commit_round(1, &[], None); // no-op on a poisoned context
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
        let ctx = DurabilityCtx::begin(cfg(&d), 42);
        assert!(ctx.error.is_none());
        assert_eq!(ctx.temp_files_removed, 2);
        assert!(d.join("checkpoint-000001.json").exists());
        assert!(!d.join("checkpoint-000002.json.tmp").exists());
        std::fs::remove_dir_all(&d).unwrap();
    }
}
