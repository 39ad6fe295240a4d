//! TC restart and DC-crash recovery (paper Sections 4.2.1 `restart` and
//! 5.3.2).
//!
//! **TC restart** (after the TC lost its volatile state, including the
//! unforced log tail): tell every DC to discard effects of operations
//! beyond the stable log end (causality guarantees they are cache-only),
//! then repeat history logically — resend every logged operation from the
//! redo scan start point in LSN order (idempotence makes this
//! exactly-once) — and finally roll back loser transactions: each loser's
//! write set (last write LSN per key, read off its `Op` records) is its
//! whole undo log, one `RevertVersion` per key.
//!
//! **DC-crash recovery** (the DC rebooted from its stable state; the TC
//! is healthy): after the DC's own restart has made its structures
//! well-formed, the TC resends operations from the redo scan start point
//! (including the *unforced* tail — the TC's log buffer is intact).
//! Active transactions keep running afterwards; nothing is rolled back.

use crate::session::Path;
use crate::stats::TcStats;
use crate::tc::{Tc, WriteSet};
use crate::tclog::TcLogRecord;
use crate::twopc::TwopcOutcome;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use unbundled_core::{DcId, Lsn, TcError, TcId, TxnId};

impl Tc {
    /// Full TC restart from the stable log. Call after `register_dc` /
    /// `register_table` on a freshly constructed `Tc` whose log store
    /// survived the crash (with its unforced tail already dropped).
    pub fn run_recovery(&self) -> Result<(), TcError> {
        self.set_available(false);
        let stable_end = self.log.stable();
        let records = self.log.store().read_all_stable();

        // --- Analysis: losers and their write sets, RSSP. A
        // transaction's first record is its first `Op` or `Prepare`, so
        // that is where analysis learns of it; it stays a loser unless a
        // resolution record follows. Redo-only records never create one. A commit
        // is one log group — its stamps, then its resolution record — so
        // a stable resolution record implies stable stamps, which redo
        // resends like any other record.
        let mut rssp = Lsn(1);
        // Each unresolved transaction's write set: undo reverts it, and
        // a prepared branch committed below stamps it. It counts a
        // failed last op too (the log cannot tell), which is why a
        // revert acts on any version at or below the LSN it names.
        let mut losers: HashMap<TxnId, WriteSet> = HashMap::new();
        // Cross-TC 2PC state: prepared participant branches (in-doubt
        // unless a later resolution record appears), our own retained
        // commit decisions (re-pinned and re-broadcast), and each
        // transaction's first LSN (the log floor a parked in-doubt
        // branch pins).
        let mut prepared: HashMap<TxnId, (TcId, TxnId)> = HashMap::new();
        let mut decisions: Vec<(TxnId, Vec<TcId>, Lsn)> = Vec::new();
        let mut firsts: HashMap<TxnId, Lsn> = HashMap::new();
        // Failover intents without a matching Promote record: the TC
        // crashed mid-promotion; re-drive it below.
        let mut promote_intents: Vec<(DcId, DcId)> = Vec::new();
        // Elastic rebalance: the latest RebalanceDone wins; an intent
        // without a matching done record means the move never took
        // effect (the map is only republished after the done record is
        // stable) and is simply discarded.
        let mut rebalance_done: Option<(u64, u64, TcId, u64)> = None;
        let mut max_txn = 0u64;
        for (seq, rec) in &records {
            if let Some(t) = rec.txn() {
                max_txn = max_txn.max(t.0);
            }
            match rec {
                TcLogRecord::Checkpoint { rssp: r } => rssp = (*r).max(rssp),
                TcLogRecord::Promote { old, new, floor } => {
                    // Re-derive the failover topology: ops addressed to
                    // the deposed primary go to the promoted DC, and raw
                    // history below the floor is never replayed to it
                    // (its replica-era state has abLSN holes at
                    // rolled-back operations).
                    self.session.repoint(*old, *new, None);
                    self.session.raise_redo_floor(*new, *floor);
                    promote_intents.retain(|(o, n)| !(o == old && n == new));
                }
                TcLogRecord::PromoteIntent { old, new } => {
                    promote_intents.push((*old, *new));
                }
                TcLogRecord::Op { txn, dc, op } => {
                    firsts.entry(*txn).or_insert(Lsn(*seq));
                    let writes = losers.entry(*txn).or_default();
                    if let Some(k) = op.point_key() {
                        writes.insert((*dc, op.table(), k.clone()), Lsn(*seq));
                    }
                }
                TcLogRecord::Commit { txn }
                | TcLogRecord::Abort { txn }
                | TcLogRecord::ParticipantCommit { txn }
                | TcLogRecord::ParticipantAbort { txn } => {
                    losers.remove(txn);
                    prepared.remove(txn);
                }
                TcLogRecord::Prepare { txn, coord, gtxn } => {
                    // A branch opened only by reads logs its Prepare first.
                    firsts.entry(*txn).or_insert(Lsn(*seq));
                    losers.entry(*txn).or_default();
                    prepared.insert(*txn, (*coord, *gtxn));
                }
                TcLogRecord::CommitDecision { txn, participants } => {
                    // The distributed commit point: this transaction is a
                    // winner, and the decision stays pinned until every
                    // participant re-acknowledges it.
                    losers.remove(txn);
                    // A decision with no participants needs no acks;
                    // re-pinning it would block truncation forever.
                    if !participants.is_empty() {
                        decisions.push((*txn, participants.clone(), Lsn(*seq)));
                    }
                }
                TcLogRecord::RedoOnly { .. } | TcLogRecord::RebalanceIntent { .. } => {}
                TcLogRecord::RebalanceDone {
                    lo, hi, to, epoch, ..
                } => {
                    if rebalance_done.is_none_or(|(_, _, _, e)| *epoch > e) {
                        rebalance_done = Some((*lo, *hi, *to, *epoch));
                    }
                }
            }
        }
        self.bump_txn_counter_to(max_txn + 1);
        self.session.acks.reset(stable_end);
        self.rssp.store(rssp.0.max(1), Ordering::Relaxed);

        // --- Elastic rebalance: a RebalanceDone whose epoch is above
        // the installed map's means the move committed but the crash
        // interrupted the republish. Re-install the fence (no new work
        // may enter the moved range under the stale map) and stash the
        // move; the kernel consumes it after recovery and finishes the
        // republish, which clears the fence.
        if let Some((lo, hi, to, epoch)) = rebalance_done {
            if epoch > self.map_epoch() {
                *self.rebalance_fence.lock() =
                    Some(crate::rebalance::RebalanceFence { lo, hi, to, epoch });
                *self.recovered_rebalance.lock() = Some((lo, hi, to, epoch));
            }
        }

        // --- Resolve prepared (in-doubt) participant branches against
        // their coordinators: presumed abort — a stable CommitDecision in
        // the coordinator's log commits the branch; no decision and no
        // live coordinator transaction aborts it; a coordinator still
        // mid-commit parks the branch with its locks re-acquired.
        let mut branch_commits: Vec<(TxnId, TcId, TxnId, WriteSet)> = Vec::new();
        let mut branch_parks: Vec<(TxnId, TcId, TxnId, Lsn, WriteSet)> = Vec::new();
        for (txn, (coord, gtxn)) in &prepared {
            if !losers.contains_key(txn) {
                continue;
            }
            let outcome = match self.peer_tc(*coord) {
                Some(p) => p.twopc_outcome_for(*gtxn),
                // No handle to the coordinator at all: presume abort.
                None => TwopcOutcome::Aborted,
            };
            match outcome {
                TwopcOutcome::Committed => {
                    // The branch's versions are stamped at the fresh
                    // ParticipantCommit LSN logged below.
                    let writes = losers.remove(txn).unwrap_or_default();
                    branch_commits.push((*txn, *coord, *gtxn, writes));
                }
                TwopcOutcome::InDoubt => {
                    let writes = losers.remove(txn).unwrap_or_default();
                    let first = firsts.get(txn).copied().unwrap_or(Lsn(1));
                    branch_parks.push((*txn, *coord, *gtxn, first, writes));
                }
                // Stays a loser; undone below (with a ParticipantAbort
                // record instead of Abort).
                TwopcOutcome::Aborted => {}
            }
        }

        // --- Restart conversation, half one: reset.
        let dcs = self.session.dcs();
        for &dc in &dcs {
            self.session.restart(dc, Some(stable_end))?;
        }

        // --- Redo: repeat history logically from the RSSP. A promoted
        // DC additionally has a redo floor: records below it are stable
        // there and must not be replayed raw.
        for (seq, rec) in &records {
            if *seq < rssp.0 {
                continue;
            }
            match rec {
                TcLogRecord::Op { dc, op, .. } | TcLogRecord::RedoOnly { dc, op, .. } => {
                    let target = self.session.resolve_dc(*dc);
                    if let Some(floor) = self.session.redo_floor(target) {
                        if Lsn(*seq) < floor {
                            continue;
                        }
                    }
                    TcStats::bump(&self.stats().redo_resends);
                    self.session.redo(*dc, Lsn(*seq), op)?;
                }
                _ => {}
            }
        }

        // --- Undo losers: revert each one's write set. Losers held X
        // locks on what they wrote, so their write sets are disjoint
        // and the order across losers does not matter.
        for (txn, writes) in &mut losers {
            self.revert_writes(*txn, std::mem::take(writes), Path::Bypass)?;
        }
        for txn in losers.keys() {
            // A prepared branch resolves with the participant-side 2PC
            // records so a later recovery does not re-ask the
            // coordinator.
            if prepared.contains_key(txn) {
                self.log_bookkeeping(TcLogRecord::ParticipantAbort { txn: *txn });
            } else {
                self.log_bookkeeping(TcLogRecord::Abort { txn: *txn });
            }
        }
        for (txn, _, _, writes) in &mut branch_commits {
            let resolution = TcLogRecord::ParticipantCommit { txn: *txn };
            let (_, stamps) = self.log_commit(*txn, std::mem::take(writes), resolution);
            for (dc, l, op) in &stamps {
                self.send_redo_only(*dc, *l, op, Path::Bypass)?;
            }
        }
        self.force_log();

        // --- Park still-in-doubt branches (locks re-acquired) before
        // accepting new work, so conflicting transactions block instead
        // of reading uncommitted state.
        for (txn, coord, gtxn, first, writes) in branch_parks {
            self.park_indoubt_recovered(txn, coord, gtxn, first, writes);
        }

        // --- Restart conversation, half two: done; resume.
        for &dc in &dcs {
            self.session.restart(dc, None)?;
        }
        self.set_available(true);
        self.republish();

        // --- 2PC tail. Acknowledge branch commits only now: the
        // ParticipantCommit records above are stable, so the coordinator
        // may truncate the decisions away.
        for (_, coord, gtxn, _) in &branch_commits {
            TcStats::bump(&self.stats().indoubt_resolved);
            if let Some(p) = self.peer_tc(*coord) {
                p.twopc_ack(*gtxn, self.id());
            }
        }
        // Coordinator side: re-pin every retained decision and
        // re-broadcast it (idempotent at the participants — branches
        // already resolved simply re-acknowledge).
        if !decisions.is_empty() {
            let mut pd = self.pending_decisions.lock();
            for (txn, parts, lsn) in &decisions {
                pd.insert(*txn, (*lsn, parts.iter().copied().collect()));
            }
            drop(pd);
            self.redeliver_decisions();
        }

        // --- Re-drive failovers whose intent was forced but whose
        // completion was lost with the crash. Best effort: the replica
        // may itself be gone, in which case the deployment re-detects.
        for (old, new) in promote_intents {
            let _ = self.promote_replica(old, new);
        }
        Ok(())
    }

    /// Drive recovery of a single crashed-and-rebooted DC (the TC is
    /// healthy; its full log — including the unforced tail — is intact).
    pub fn recover_dc(&self, dc: DcId) -> Result<(), TcError> {
        TcStats::bump(&self.stats().dc_recoveries);
        self.session.gate(dc);
        let result = self.recover_dc_inner(dc);
        self.session.ungate(dc);
        result
    }

    fn recover_dc_inner(&self, dc: DcId) -> Result<(), TcError> {
        // The DC rebooted from stable state: nothing of ours is cached,
        // so the reset half is trivial — but the conversation is the
        // same, and the DC replies once its structures are well-formed.
        self.session.restart(dc, Some(self.log.stable()))?;
        let rssp = self.rssp().0;
        let target = self.session.resolve_dc(dc);
        // A promoted DC's redo floor: below it the flushed state made
        // stable at promotion is the authority — never replay raw.
        let floor = self
            .session
            .redo_floor(target)
            .unwrap_or(Lsn(0))
            .0
            .max(rssp);
        for (seq, rec) in self.log.store().read_all_volatile() {
            if seq < floor {
                continue;
            }
            match rec {
                // Lineage-aware: records logged against an id this DC
                // was promoted over belong to it too.
                TcLogRecord::Op { dc: d, op, .. } | TcLogRecord::RedoOnly { dc: d, op, .. }
                    if self.session.resolve_dc(d) == target =>
                {
                    TcStats::bump(&self.stats().redo_resends);
                    self.session.redo(dc, Lsn(seq), &op)?;
                }
                _ => {}
            }
        }
        self.session.restart(dc, None)?;
        self.republish();
        Ok(())
    }

    /// Drop all volatile transaction state (crash simulation helper used
    /// together with `LogStore::crash` by the kernel's crash injector).
    pub fn crash_volatile(&self) {
        self.set_available(false);
        // Wake anyone parked on a rebalance fence: they must observe
        // unavailability, not sleep out their timeout against a dead TC.
        self.abandon_fence();
        self.txns.clear();
        self.session.forget_replies();
        self.participants.lock().clear();
        self.pending_decisions.lock().clear();
        self.log.store().crash();
    }

    /// Active transactions (diagnostics).
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.txns.all().into_iter().map(|(t, _)| t).collect()
    }
}
