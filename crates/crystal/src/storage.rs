//! Durable file primitives + a deterministic storage fault layer.
//!
//! Two layers live here:
//!
//! * [`fsync_dir`] and [`tmp_path`] — the plain building blocks of a
//!   crash-safe whole-file write (the chase's checkpoint write, the bench
//!   harness's result files). `rename(2)` within a directory is atomic on
//!   POSIX, but atomicity alone is not durability: the temp file is
//!   fsynced before the rename and the parent directory after it, so a
//!   completed write survives power loss with either the old or the new
//!   complete contents — never a torn file.
//! * [`FaultVfs`] — a seeded virtual-filesystem shim that every I/O operation
//!   of `rock_chase::wal` and `rock_chase::checkpoint` routes through. It
//!   mirrors the compute-side fault injector in [`crate::fault`]: every fault
//!   decision is a pure function of `(seed, op_index, salt)` via the same
//!   [`crate::fault::mix`]/[`crate::fault::unit_fraction`] derivation, so a
//!   fault schedule is reproducible from a single `u64` and independent of
//!   wall-clock or thread interleaving.
//!
//! Fault taxonomy (all opt-in, all off by default):
//!
//! * **Torn writes** — a write persists a seeded prefix of the buffer, then
//!   errors. Models a partial page flush.
//! * **fsync errors** — `sync_all`/`fsync_dir` fail with `EIO`/`ENOSPC`
//!   text (kind [`std::io::ErrorKind::Other`]; the pinned toolchain predates
//!   `ErrorKind::StorageFull`). Transient variants use
//!   [`std::io::ErrorKind::Interrupted`].
//! * **Rename failures** — the atomic-publish step of a checkpoint fails,
//!   leaving the temp file behind.
//! * **Read bit-flips** — a read returns the file contents with one seeded
//!   bit flipped; downstream CRCs must catch it.
//! * **Crash at op `k`** — the `k`-th operation takes partial effect (writes
//!   persist a seeded prefix; renames/syncs/removes do not happen at all) and
//!   every subsequent operation fails. The process keeps running — the chase
//!   degrades to in-memory — while the on-disk state is frozen exactly as a
//!   kill at that instant would leave it. Recovery then reopens the directory
//!   with a clean [`FaultVfs`].
//!
//! With `record` enabled the vfs keeps a full I/O trace; the crash-consistency
//! harness replays a recorded run once per trace point with
//! `crash_at_op = Some(i)` and asserts recovery is byte-identical to the
//! uninterrupted oracle.

use crate::fault::{mix, unit_fraction};
use crate::sync::{Arc, AtomicBool, AtomicU64, LockRank, Ordering, RankedMutex};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Flush a directory's entry table to stable storage. On non-Unix
/// platforms directories cannot be opened for syncing; the rename is
/// still atomic there, just not power-loss durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// `<path>.tmp` — the staging name used by atomic writes. A crash between
/// the temp write and the rename leaves this file behind; the durability
/// layer garbage-collects strays with this suffix on open.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

// Salts separating the storage fault lanes (arbitrary odd constants,
// distinct from the compute-fault salts in `crate::fault`).
const SALT_TORN: u64 = 0xb1;
const SALT_SYNC: u64 = 0xb3;
const SALT_RENAME: u64 = 0xb5;
const SALT_READ: u64 = 0xb7;
const SALT_PREFIX: u64 = 0xb9;
const SALT_TRANSIENT: u64 = 0xbb;
const SALT_KIND: u64 = 0xbd;
const SALT_FLIPBIT: u64 = 0xbf;

/// Seeded storage fault schedule. `Default` is the clean plan: no faults, no
/// crash. Probabilities are per-operation; `transient_fraction` splits fired
/// faults into retryable ([`io::ErrorKind::Interrupted`]) vs persistent.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaultPlan {
    /// Master seed; all decisions derive from it via [`mix`].
    pub seed: u64,
    /// Probability a file write persists only a seeded prefix, then errors.
    pub torn_write: f64,
    /// Probability `sync_all`/`fsync_dir` fail (EIO/ENOSPC).
    pub sync_error: f64,
    /// Probability a rename fails without taking effect.
    pub rename_fail: f64,
    /// Probability a whole-file read comes back with one seeded bit flipped.
    pub read_flip: f64,
    /// Fraction of fired faults reported as transient (`Interrupted`);
    /// the rest are persistent (`Other` with EIO/ENOSPC text).
    pub transient_fraction: f64,
    /// Simulate a crash at this operation index: the op takes partial
    /// effect and all later I/O through this vfs fails.
    pub crash_at_op: Option<u64>,
}

impl Default for StorageFaultPlan {
    fn default() -> Self {
        StorageFaultPlan {
            seed: 0,
            torn_write: 0.0,
            sync_error: 0.0,
            rename_fail: 0.0,
            read_flip: 0.0,
            transient_fraction: 0.0,
            crash_at_op: None,
        }
    }
}

impl StorageFaultPlan {
    /// Clean plan carrying a seed (enable faults via the builders below).
    pub fn seeded(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            ..StorageFaultPlan::default()
        }
    }

    pub fn with_torn_writes(mut self, p: f64) -> Self {
        self.torn_write = p;
        self
    }

    pub fn with_sync_errors(mut self, p: f64) -> Self {
        self.sync_error = p;
        self
    }

    pub fn with_rename_failures(mut self, p: f64) -> Self {
        self.rename_fail = p;
        self
    }

    pub fn with_read_flips(mut self, p: f64) -> Self {
        self.read_flip = p;
        self
    }

    pub fn with_transient_fraction(mut self, f: f64) -> Self {
        self.transient_fraction = f;
        self
    }

    pub fn with_crash_at_op(mut self, op: u64) -> Self {
        self.crash_at_op = Some(op);
        self
    }
}

/// Kind of a traced I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOpKind {
    Create,
    Open,
    Write,
    Sync,
    SyncDir,
    Rename,
    Remove,
    Read,
    SetLen,
    CreateDir,
}

/// One entry of a recorded I/O trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Operation index (the value `crash_at_op` matches against).
    pub index: u64,
    pub op: IoOpKind,
    pub path: String,
}

/// Snapshot of fault-layer counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageFaultStats {
    /// Operations issued (faulted or not).
    pub ops: u64,
    pub torn_writes: u64,
    pub sync_errors: u64,
    pub rename_failures: u64,
    pub read_flips: u64,
    /// Fired faults reported as transient (retryable).
    pub transient_errors: u64,
    /// Whether the simulated crash has fired.
    pub crashed: bool,
}

struct VfsInner {
    plan: StorageFaultPlan,
    record: bool,
    ops: AtomicU64,
    // Release/Acquire pair: the Release store in `set_crashed` publishes
    // the partially-flushed file contents that precede the simulated
    // crash; every Acquire load that observes `true` therefore also sees
    // the frozen on-disk state the harness asserts against.
    crashed: AtomicBool,
    trace: RankedMutex<Vec<TraceOp>>,
    torn_writes: AtomicU64,
    sync_errors: AtomicU64,
    rename_failures: AtomicU64,
    read_flips: AtomicU64,
    transient_errors: AtomicU64,
}

/// Seeded virtual-filesystem shim. Cheap to clone (clones share the op
/// counter, crash flag, and trace). The clean default injects nothing and
/// adds one atomic increment per operation.
#[derive(Clone)]
pub struct FaultVfs(Arc<VfsInner>);

impl Default for FaultVfs {
    fn default() -> Self {
        FaultVfs::clean()
    }
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultVfs")
            .field("plan", &self.0.plan)
            .field("ops", &self.0.ops.load(Ordering::Relaxed))
            .field("crashed", &self.0.crashed.load(Ordering::Relaxed))
            .field("record", &self.0.record)
            .finish()
    }
}

impl FaultVfs {
    fn build(plan: StorageFaultPlan, record: bool) -> Self {
        FaultVfs(Arc::new(VfsInner {
            plan,
            record,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            trace: RankedMutex::new(LockRank::StorageTrace, Vec::new()),
            torn_writes: AtomicU64::new(0),
            sync_errors: AtomicU64::new(0),
            rename_failures: AtomicU64::new(0),
            read_flips: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
        }))
    }

    /// No faults, no recording (production default).
    pub fn clean() -> Self {
        FaultVfs::build(StorageFaultPlan::default(), false)
    }

    /// Inject faults according to `plan`.
    pub fn with_plan(plan: StorageFaultPlan) -> Self {
        FaultVfs::build(plan, false)
    }

    /// No faults, but record the full I/O trace (harness oracle runs).
    pub fn recording() -> Self {
        FaultVfs::build(StorageFaultPlan::default(), true)
    }

    /// The fault plan this vfs runs under.
    pub fn plan(&self) -> &StorageFaultPlan {
        &self.0.plan
    }

    /// Whether the simulated crash has fired.
    pub fn crashed(&self) -> bool {
        // Acquire: pairs with the Release in `set_crashed` so a `true`
        // observation also sees the frozen pre-crash file contents.
        self.0.crashed.load(Ordering::Acquire)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StorageFaultStats {
        // Relaxed: pure statistics; each counter is independent and the
        // snapshot makes no cross-counter consistency promise.
        StorageFaultStats {
            ops: self.0.ops.load(Ordering::Relaxed),
            torn_writes: self.0.torn_writes.load(Ordering::Relaxed),
            sync_errors: self.0.sync_errors.load(Ordering::Relaxed),
            rename_failures: self.0.rename_failures.load(Ordering::Relaxed),
            read_flips: self.0.read_flips.load(Ordering::Relaxed),
            transient_errors: self.0.transient_errors.load(Ordering::Relaxed),
            crashed: self.crashed(),
        }
    }

    /// Copy of the recorded trace (empty unless built via [`FaultVfs::recording`]).
    pub fn trace(&self) -> Vec<TraceOp> {
        self.0.trace.lock().clone()
    }

    fn begin_op(&self, op: IoOpKind, path: &Path) -> io::Result<u64> {
        if self.crashed() {
            return Err(crash_error());
        }
        // Relaxed: allocates a unique trace index; ordering against the
        // traced file operation is irrelevant (single-writer per handle).
        let idx = self.0.ops.fetch_add(1, Ordering::Relaxed);
        if self.0.record {
            self.0.trace.lock().push(TraceOp {
                index: idx,
                op,
                path: path.display().to_string(),
            });
        }
        Ok(idx)
    }

    fn crash_due(&self, idx: u64) -> bool {
        self.0.plan.crash_at_op == Some(idx)
    }

    fn set_crashed(&self) {
        // Release: publishes the partial write that precedes the crash;
        // see the field comment on `VfsInner::crashed`.
        self.0.crashed.store(true, Ordering::Release);
    }

    /// Does the `salt` fault lane fire at op `idx`?
    fn fires(&self, idx: u64, salt: u64, prob: f64) -> bool {
        prob > 0.0 && unit_fraction(mix(self.0.plan.seed, idx as usize, 0, salt)) < prob
    }

    /// Build the error for a fired fault: transient (`Interrupted`) with
    /// probability `transient_fraction`, else persistent EIO/ENOSPC.
    fn fault_error(&self, idx: u64, what: &str) -> io::Error {
        let p = &self.0.plan;
        let t = unit_fraction(mix(p.seed, idx as usize, 0, SALT_TRANSIENT));
        if t < p.transient_fraction {
            // Relaxed: statistics counter, read only via `stats()`.
            self.0.transient_errors.fetch_add(1, Ordering::Relaxed);
            io::Error::new(
                io::ErrorKind::Interrupted,
                format!("transient io fault: {what} (op {idx})"),
            )
        } else {
            let k = mix(p.seed, idx as usize, 0, SALT_KIND);
            let errno = if k & 1 == 0 { "EIO" } else { "ENOSPC" };
            io::Error::other(format!("{errno}: {what} (op {idx})"))
        }
    }

    /// Seeded prefix length in `[0, len]` for torn/crashed writes.
    fn prefix_len(&self, idx: u64, len: usize) -> usize {
        (mix(self.0.plan.seed, idx as usize, 0, SALT_PREFIX) % (len as u64 + 1)) as usize
    }

    /// Create (truncate) a file for writing.
    pub fn create(&self, path: &Path) -> io::Result<VfsFile> {
        let idx = self.begin_op(IoOpKind::Create, path)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        let file = File::create(path)?;
        Ok(VfsFile {
            vfs: self.clone(),
            file,
            path: path.to_path_buf(),
        })
    }

    /// Open an existing file for read+write (resume path).
    pub fn open_rw(&self, path: &Path) -> io::Result<VfsFile> {
        let idx = self.begin_op(IoOpKind::Open, path)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(VfsFile {
            vfs: self.clone(),
            file,
            path: path.to_path_buf(),
        })
    }

    /// Read a whole file. A fired read-flip fault returns the contents with
    /// one seeded bit flipped (no error — CRCs downstream must catch it).
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let idx = self.begin_op(IoOpKind::Read, path)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        let mut bytes = std::fs::read(path)?;
        if !bytes.is_empty() && self.fires(idx, SALT_READ, self.0.plan.read_flip) {
            let bit =
                mix(self.0.plan.seed, idx as usize, 0, SALT_FLIPBIT) % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            // Relaxed: statistics counter, read only via `stats()`.
            self.0.read_flips.fetch_add(1, Ordering::Relaxed);
        }
        Ok(bytes)
    }

    /// Rename a file. A fired fault (or crash) leaves the rename undone.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let idx = self.begin_op(IoOpKind::Rename, from)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        if self.fires(idx, SALT_RENAME, self.0.plan.rename_fail) {
            // Relaxed: statistics counter, read only via `stats()`.
            self.0.rename_failures.fetch_add(1, Ordering::Relaxed);
            return Err(self.fault_error(idx, "rename"));
        }
        std::fs::rename(from, to)
    }

    /// Remove a file (the open-time temp GC).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        let idx = self.begin_op(IoOpKind::Remove, path)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        std::fs::remove_file(path)
    }

    /// Fsync a directory (same fault lane as file fsync).
    pub fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let idx = self.begin_op(IoOpKind::SyncDir, dir)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        if self.fires(idx, SALT_SYNC, self.0.plan.sync_error) {
            // Relaxed: statistics counter, read only via `stats()`.
            self.0.sync_errors.fetch_add(1, Ordering::Relaxed);
            return Err(self.fault_error(idx, "fsync dir"));
        }
        fsync_dir(dir)
    }

    /// Create a directory tree.
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let idx = self.begin_op(IoOpKind::CreateDir, dir)?;
        if self.crash_due(idx) {
            self.set_crashed();
            return Err(crash_error());
        }
        std::fs::create_dir_all(dir)
    }

    /// Sorted listing of a directory's entries (metadata-only: not traced,
    /// not faulted, but refused once crashed).
    pub fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if self.crashed() {
            return Err(crash_error());
        }
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    /// File size in bytes (metadata-only).
    pub fn file_size(&self, path: &Path) -> io::Result<u64> {
        if self.crashed() {
            return Err(crash_error());
        }
        Ok(std::fs::metadata(path)?.len())
    }
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: storage offline")
}

/// A writable file handle whose operations route through the owning
/// [`FaultVfs`].
pub struct VfsFile {
    vfs: FaultVfs,
    file: File,
    path: PathBuf,
}

impl std::fmt::Debug for VfsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VfsFile").field("path", &self.path).finish()
    }
}

impl VfsFile {
    /// Write the whole buffer. Torn-write faults and crashes persist a
    /// seeded prefix before erroring.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let idx = self.vfs.begin_op(IoOpKind::Write, &self.path)?;
        if self.vfs.crash_due(idx) {
            let n = self.vfs.prefix_len(idx, buf.len());
            let _ = self.file.write_all(&buf[..n]);
            let _ = self.file.flush();
            self.vfs.set_crashed();
            return Err(crash_error());
        }
        if self.vfs.fires(idx, SALT_TORN, self.vfs.0.plan.torn_write) {
            let n = self.vfs.prefix_len(idx, buf.len());
            self.file.write_all(&buf[..n])?;
            // Relaxed: statistics counter, read only via `stats()`.
            self.vfs.0.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Err(self.vfs.fault_error(idx, "torn write"));
        }
        self.file.write_all(buf)
    }

    /// Fsync the file.
    pub fn sync_all(&mut self) -> io::Result<()> {
        let idx = self.vfs.begin_op(IoOpKind::Sync, &self.path)?;
        if self.vfs.crash_due(idx) {
            self.vfs.set_crashed();
            return Err(crash_error());
        }
        if self.vfs.fires(idx, SALT_SYNC, self.vfs.0.plan.sync_error) {
            // Relaxed: statistics counter, read only via `stats()`.
            self.vfs.0.sync_errors.fetch_add(1, Ordering::Relaxed);
            return Err(self.vfs.fault_error(idx, "fsync"));
        }
        self.file.sync_all()
    }

    /// Truncate (or extend) to `len` bytes.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        let idx = self.vfs.begin_op(IoOpKind::SetLen, &self.path)?;
        if self.vfs.crash_due(idx) {
            self.vfs.set_crashed();
            return Err(crash_error());
        }
        self.file.set_len(len)
    }

    /// Position the cursor at `pos` bytes from the start (metadata-only).
    pub fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        if self.vfs.crashed() {
            return Err(crash_error());
        }
        self.file.seek(SeekFrom::Start(pos))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rock-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_vfs_is_transparent() {
        let d = dir("clean");
        let vfs = FaultVfs::clean();
        let p = d.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        assert!(!vfs.crashed());
        assert!(vfs.trace().is_empty());
    }

    #[test]
    fn recording_traces_every_op() {
        let d = dir("trace");
        let vfs = FaultVfs::recording();
        let p = d.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"xy").unwrap();
        f.sync_all().unwrap();
        vfs.rename(&p, &d.join("b.bin")).unwrap();
        let trace = vfs.trace();
        let kinds: Vec<IoOpKind> = trace.iter().map(|t| t.op).collect();
        assert_eq!(
            kinds,
            vec![
                IoOpKind::Create,
                IoOpKind::Write,
                IoOpKind::Sync,
                IoOpKind::Rename
            ]
        );
        assert_eq!(trace[0].index, 0);
        assert_eq!(trace[3].index, 3);
    }

    #[test]
    fn crash_freezes_disk_and_fails_later_ops() {
        let d = dir("crash");
        // Crash at the second op (the write): a prefix lands, then all
        // later operations fail.
        let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(7).with_crash_at_op(1));
        let p = d.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"hello world").unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert!(vfs.crashed());
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() < b"hello world".len());
        assert!(b"hello world".starts_with(&on_disk[..]));
        assert!(f.sync_all().is_err());
        assert!(vfs.create(&d.join("b.bin")).is_err());
        assert!(vfs.read(&p).is_err());
    }

    #[test]
    fn torn_write_persists_a_prefix_and_errors() {
        let d = dir("torn");
        let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(3).with_torn_writes(1.0));
        let p = d.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() <= 10);
        assert!(b"0123456789".starts_with(&on_disk[..]));
        assert_eq!(vfs.stats().torn_writes, 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let decide = |seed: u64| -> Vec<bool> {
            let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(seed).with_sync_errors(0.5));
            (0..64)
                .map(|i| vfs.fires(i, SALT_SYNC, vfs.0.plan.sync_error))
                .collect()
        };
        assert_eq!(decide(11), decide(11));
        assert_ne!(decide(11), decide(12));
        assert!(decide(11).iter().any(|&b| b));
        assert!(decide(11).iter().any(|&b| !b));
    }

    #[test]
    fn transient_fraction_splits_error_kinds() {
        let vfs = FaultVfs::with_plan(
            StorageFaultPlan::seeded(5)
                .with_sync_errors(1.0)
                .with_transient_fraction(0.5),
        );
        let kinds: Vec<io::ErrorKind> = (0..64).map(|i| vfs.fault_error(i, "x").kind()).collect();
        assert!(kinds.contains(&io::ErrorKind::Interrupted));
        assert!(kinds.contains(&io::ErrorKind::Other));
    }

    #[test]
    fn read_flip_changes_exactly_one_bit() {
        let d = dir("flip");
        let p = d.join("a.bin");
        std::fs::write(&p, vec![0u8; 128]).unwrap();
        let vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(9).with_read_flips(1.0));
        let bytes = vfs.read(&p).unwrap();
        let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        assert_eq!(vfs.stats().read_flips, 1);
    }
}
