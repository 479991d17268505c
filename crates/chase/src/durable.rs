//! The durable driver: the chase loop's WAL / checkpoint boundary and the
//! entry points that start from durable state — [`ChaseEngine::resume`],
//! [`ChaseEngine::resume_at`] and the durable incremental session. The
//! round loop itself (`crate::chase`) is the same one in-memory runs use;
//! this module only decides what state it is entered with and what is
//! written at each round boundary.

use crate::chase::{ChaseEngine, ChaseResult, LoopState};
use crate::checkpoint::{self, ChaseCheckpoint, CHECKPOINT_VERSION};
use crate::commit::{Committed, MergedClasses};
use crate::evaluate::{per_run, Carry, Frontier};
use crate::fixes::FixStore;
use crate::wal::{DurabilityCtx, RoundFix, WalError};
use rock_data::{Database, Delta, GlobalTid};

impl ChaseEngine<'_> {
    /// A fresh WAL for a run starting from round 0, when configured.
    pub(crate) fn begin_durable(&self) -> Option<DurabilityCtx> {
        self.config
            .durability
            .as_ref()
            .map(|cfg| DurabilityCtx::begin(cfg, &self.config.cluster, self.fingerprint()))
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
            .as_ref()
            .ok_or(WalError::NotConfigured)?;
        let rp = checkpoint::locate(cfg, self.fingerprint(), at)?;
        self.check_fits(&rp.checkpoint)?;
        let dur = DurabilityCtx::attach(cfg, &self.config.cluster, &rp)?;
        let ck = rp.checkpoint;
        let mut fixes = FixStore::from_snapshot(&ck.fixes);
        for t in trusted {
            fixes.trust_tuple(*t);
        }
        let ls = LoopState {
            st: Committed {
                classes: MergedClasses::new(&ck.db, &fixes),
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
        Ok(self.run_loop(ls, Some(dur)))
    }

    /// A checkpoint that decodes and matches the fingerprint can still
    /// disagree with the engine about its shape (a hand-edited file with
    /// a re-pointed marker CRC). Refuse it before the round loop indexes
    /// by rule or relation.
    fn check_fits(&self, ck: &ChaseCheckpoint) -> Result<(), WalError> {
        let nrules = self.rules.len();
        let misfit = if let Some(i) = ck.active.iter().find(|&&i| i >= nrules) {
            format!("activates rule {i} of {nrules}")
        } else if ck.pending.len() != nrules || ck.carry.len() != nrules {
            format!(
                "holds {} pending and {} carry slots for {nrules} rules",
                ck.pending.len(),
                ck.carry.len()
            )
        } else if let Some(i) = (0..nrules).find(|&i| match &ck.carry[i] {
            Some(Carry::Pairs(_)) => per_run(self, i),
            Some(Carry::Runs(_)) => !per_run(self, i),
            None => false,
        }) {
            format!("carries rule {i}'s emissions in the other evaluation's shape")
        } else if let Some((_, rel)) = self
            .rules
            .rules
            .iter()
            .flat_map(|r| &r.tuple_vars)
            .find(|(_, rel)| rel.index() >= ck.db.len())
        {
            format!("lacks relation {rel} a rule binds")
        } else {
            return Ok(());
        };
        Err(WalError::Mismatch(format!(
            "checkpoint of round {} {misfit}",
            ck.round
        )))
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
            .as_ref()
            .ok_or(WalError::NotConfigured)?;
        if !crate::wal::wal_exists(&cfg.vfs, &cfg.dir)? {
            return self
                .run_incremental(db, trusted, delta)
                .map_err(WalError::Delta);
        }
        // Bring the existing log current: a crashed batch finishes its
        // remaining rounds durably; a completed one just re-materializes.
        let finished = self.resume(trusted)?;
        let mut work = finished.db;
        // Re-locate for the durable position/state the new batch chains to.
        let rp = checkpoint::locate(cfg, self.fingerprint(), None)?;
        let round_base = rp.checkpoint.round;
        let inserted = work.apply(delta).map_err(WalError::Delta)?;
        let seed = delta.touched(&work, &inserted);
        // Fresh fix store per batch, like the in-memory fold; Strict mode
        // re-seeds Γ= from the trusted tuples of the *current* database.
        let mut ls = self.start(work, trusted, Some(seed), FixStore::new());
        ls.batch = rp.checkpoint.batch.max(1) + 1;
        ls.rounds = round_base as usize;
        ls.round_base = round_base as usize;
        let mut dur = DurabilityCtx::attach(cfg, &self.config.cluster, &rp)?;
        dur.begin_batch(ls.batch, round_base);
        // Batch-opening checkpoint: the post-ΔD state becomes durable
        // *before* the first round runs, so a crash anywhere in this batch
        // (even before its first commit) resumes with the delta applied —
        // and a batch that activates nothing still advances the session.
        // It re-uses the previous batch's final round number, so it
        // overwrites that round's checkpoint file.
        dur.commit_round(round_base, &[], self.make_checkpoint(&ls));
        Ok(self.run_loop(ls, Some(dur)))
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

    /// Round-boundary durability hook: append the round's fix records and
    /// its checkpoint to the WAL and fsync the boundary. A no-op without
    /// durability or after the context poisoned itself on an earlier IO
    /// error.
    pub(crate) fn commit_round_durable(
        &self,
        ls: &LoopState,
        dur: &mut Option<DurabilityCtx>,
        round_fixes: &[RoundFix],
    ) {
        if let Some(d) = dur.as_mut() {
            d.commit_round(ls.rounds as u64, round_fixes, self.make_checkpoint(ls));
        }
    }
}
