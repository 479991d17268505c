//! The durable driver: the chase loop's WAL / checkpoint boundary and the
//! entry points that start from durable state — [`ChaseEngine::resume`],
//! [`ChaseEngine::resume_at`] and the durable incremental session. The
//! round loop itself (`crate::chase`) is the same one in-memory runs use;
//! this module only decides what state it is entered with and what is
//! written at each round boundary.

use crate::chase::{seed_from_delta, ChaseEngine, ChaseResult, LoopState};
use crate::checkpoint::{self, ChaseCheckpoint, CHECKPOINT_VERSION};
use crate::commit::Committed;
use crate::evaluate::Frontier;
use crate::fixes::FixStore;
use crate::wal::{DurabilityCtx, RoundFix, WalError};
use rock_data::{Database, Delta, GlobalTid};
use rock_rees::ChaseSchedule;

impl ChaseEngine<'_> {
    /// A fresh WAL for a run starting from round 0, when configured.
    pub(crate) fn begin_durable(&self) -> Option<DurabilityCtx> {
        self.config
            .durability
            .clone()
            .map(|cfg| DurabilityCtx::begin(cfg, self.fingerprint()))
    }

    /// Resume a crashed durable run from its last durable round. The
    /// continued run commits byte-identical repairs to an uninterrupted
    /// one (see `crate::checkpoint` for the recovery invariants).
    ///
    /// Requires `config.durability`; `trusted` must match the original
    /// run's trusted set (it is re-applied idempotently).
    pub fn resume(&self, trusted: &[GlobalTid]) -> Result<ChaseResult, WalError> {
        self.resume_impl(trusted, None)
    }

    /// Resume from a *specific* durable round instead of the newest — the
    /// resume-at-every-round oracle check in `tests/wal_durability.rs`.
    pub fn resume_at(&self, trusted: &[GlobalTid], round: u64) -> Result<ChaseResult, WalError> {
        self.resume_impl(trusted, Some(round))
    }

    fn resume_impl(&self, trusted: &[GlobalTid], at: Option<u64>) -> Result<ChaseResult, WalError> {
        let cfg = self
            .config
            .durability
            .clone()
            .ok_or(WalError::NotConfigured)?;
        let rp = checkpoint::locate(&cfg, self.fingerprint(), at)?;
        let writer = checkpoint::reopen_writer(&cfg, rp.pos, self.fingerprint())?;
        let prev = rp.prev();
        let ck = rp.checkpoint;
        let mut fixes = FixStore::from_snapshot(&ck.fixes);
        for t in trusted {
            fixes.trust_tuple(*t);
        }
        let schedule = ChaseSchedule::derive(self.rules, &ck.db.schema());
        let ls = LoopState {
            st: Committed {
                db: ck.db,
                fixes,
                changes: ck.changes,
                merged_pairs: ck.merged_pairs,
                conflicts: ck.conflicts,
                steps: ck.steps,
            },
            frontier: Frontier {
                seeded: ck.seeded,
                pending: ck.pending,
                carry: ck.carry,
                cumulative: ck.cumulative,
            },
            active: ck.active.iter().copied().collect(),
            pruned_carry: ck.pruned_carry,
            rounds: ck.round as usize,
            round_stats: ck.round_stats,
            batch: ck.batch.max(1),
            round_base: ck.round_base as usize,
            done: ck.done,
        };
        let dur = DurabilityCtx::attach(cfg, writer, prev, ck.round);
        Ok(self.run_loop(ls, schedule, Some(dur)))
    }

    /// One ΔD batch of a **durable incremental session**: semantically the
    /// fold `run_incremental(run_incremental(db, Δ1).db, Δ2)…`, but with
    /// the session state persisted in `config.durability.dir` so a crashed
    /// batch resumes mid-stream via [`ChaseEngine::resume`] and the next
    /// batch continues from the durable state.
    ///
    /// Behaviour per call:
    /// 1. **Empty durability dir** — runs a plain durable incremental
    ///    batch 1 over `db`.
    /// 2. **Existing session** — first brings the log current (finishing a
    ///    crashed batch durably; a no-op when the last batch completed),
    ///    then starts batch N+1 from the previous batch's materialized
    ///    database: applies ΔD, logs a `BatchBegin` record, and chases
    ///    with a fresh fix store (matching the in-memory fold). `db` is
    ///    ignored in this case — the durable state is authoritative.
    ///
    /// `trusted` must be the same set across all batches of a session (it
    /// is re-applied idempotently on resume). Fix ids and provenance
    /// parents continue across batches, so `ProvenanceGraph::load` answers
    /// "why" across the whole session.
    pub fn run_incremental_durable(
        &self,
        db: &Database,
        trusted: &[GlobalTid],
        delta: &Delta,
    ) -> Result<ChaseResult, WalError> {
        let cfg = self
            .config
            .durability
            .clone()
            .ok_or(WalError::NotConfigured)?;
        if crate::wal::list_segments(&cfg.vfs, &cfg.dir)?.is_empty() {
            return self
                .run_incremental(db, trusted, delta)
                .map_err(|e| WalError::Codec(e.to_string()));
        }
        // Bring the existing log current: a crashed batch finishes its
        // remaining rounds durably; a completed one just re-materializes.
        let finished = self.resume(trusted)?;
        let mut work = finished.db;
        // Re-locate for the durable position/state the new batch chains to.
        let rp = checkpoint::locate(&cfg, self.fingerprint(), None)?;
        let round_base = rp.checkpoint.round;
        let inserted = work
            .apply(delta)
            .map_err(|e| WalError::Codec(e.to_string()))?;
        let seed = seed_from_delta(&work, delta, &inserted);
        // Fresh fix store per batch, like the in-memory fold; Strict mode
        // re-seeds Γ= from the trusted tuples of the *current* database.
        let (mut ls, schedule) = self.start(work, trusted, Some(seed), FixStore::new());
        ls.batch = rp.checkpoint.batch.max(1) + 1;
        ls.rounds = round_base as usize;
        ls.round_base = round_base as usize;
        let writer = checkpoint::reopen_writer(&cfg, rp.pos, self.fingerprint())?;
        let prev = rp.prev();
        let mut dur = DurabilityCtx::attach(cfg, writer, prev, round_base);
        dur.begin_batch(ls.batch, round_base);
        // Batch-opening checkpoint: the post-ΔD state becomes durable
        // *before* the first round runs, so a crash anywhere in this batch
        // (even before its first commit) resumes with the delta applied —
        // and a batch that activates nothing still advances the session.
        // It re-uses the previous batch's final round number; being a
        // batch boundary it is always encoded as a full document.
        dur.commit_round(round_base, &[], Some(self.make_checkpoint(&ls)));
        Ok(self.run_loop(ls, schedule, Some(dur)))
    }

    /// Snapshot the loop state for a round-boundary checkpoint.
    fn make_checkpoint(&self, ls: &LoopState) -> ChaseCheckpoint {
        let mut active: Vec<usize> = ls.active.iter().copied().collect();
        active.sort_unstable();
        ChaseCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint(),
            round: ls.rounds as u64,
            batch: ls.batch,
            round_base: ls.round_base as u64,
            done: ls.done,
            db: ls.st.db.clone(),
            fixes: ls.st.fixes.to_snapshot(),
            active,
            pruned_carry: ls.pruned_carry,
            seeded: ls.frontier.seeded,
            pending: ls.frontier.pending.clone(),
            carry: ls.frontier.carry.clone(),
            cumulative: ls.frontier.cumulative.clone(),
            changes: ls.st.changes.clone(),
            merged_pairs: ls.st.merged_pairs.clone(),
            conflicts: ls.st.conflicts,
            steps: ls.st.steps,
            round_stats: ls.round_stats.clone(),
            // provenance id state is stamped by the durability context at
            // write time (it owns the fix-id counter)
            next_fix_id: 0,
            last_fix: Vec::new(),
        }
    }

    /// Round-boundary durability hook: append the round's fix records to
    /// the WAL, write a checkpoint when due (every `snapshot_every` rounds
    /// and always on the final round), fsync the boundary, then honour the
    /// planned-crash drill. A no-op without durability or after the
    /// context poisoned itself on an earlier IO error.
    pub(crate) fn commit_round_durable(
        &self,
        ls: &LoopState,
        dur: &mut Option<DurabilityCtx>,
        round_fixes: &[RoundFix],
    ) {
        let Some(d) = dur.as_mut() else { return };
        let due = ls.done
            || ls.active.is_empty()
            || ls.rounds - ls.round_base >= self.config.max_rounds
            || d.cfg.snapshot_every <= 1
            || ls.rounds % d.cfg.snapshot_every == 0;
        let checkpoint = due.then(|| self.make_checkpoint(ls));
        d.commit_round(ls.rounds as u64, round_fixes, checkpoint);
        if d.cfg.crash_at_round == Some(ls.rounds) {
            // planned crash drill (the CI kill-and-resume job): die hard
            // *after* the round became durable, like a kill -9 would
            std::process::abort();
        }
    }
}
