//! TC restart and DC-crash recovery (paper Sections 4.2.1 `restart` and
//! 5.3.2).
//!
//! **TC restart** (after the TC lost its volatile state, including the
//! unforced log tail): tell every DC to discard effects of operations
//! beyond the stable log end (causality guarantees they are cache-only),
//! then repeat history logically — resend every logged operation from the
//! redo scan start point in LSN order (idempotence makes this
//! exactly-once) — and finally roll back loser transactions with inverse
//! operations taken from the logged undo information.
//!
//! **DC-crash recovery** (the DC rebooted from its stable state; the TC
//! is healthy): after the DC's own restart has made its structures
//! well-formed, the TC resends operations from the redo scan start point
//! (including the *unforced* tail — the TC's log buffer is intact).
//! Active transactions keep running afterwards; nothing is rolled back.

use crate::stats::TcStats;
use crate::tc::Tc;
use crate::tclog::TcLogRecord;
use crate::twopc::TwopcOutcome;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use unbundled_core::{DcId, Key, LogicalOp, Lsn, TableId, TcError, TcId, TxnId};

impl Tc {
    /// Full TC restart from the stable log. Call after `register_dc` /
    /// `register_table` on a freshly constructed `Tc` whose log store
    /// survived the crash (with its unforced tail already dropped).
    pub fn run_recovery(&self) -> Result<(), TcError> {
        self.set_available(false);
        let stable_end = self.log.stable();
        let records = self.log.store().read_all_stable();

        // --- Analysis: losers, undo chains, RSSP. A transaction's first
        // record is its first `Op` or `Prepare`, so that is where
        // analysis learns of it; it stays a loser unless a resolution
        // record follows. Redo-only records never create one. A commit
        // is one log group — its stamps, then its resolution record — so
        // a stable resolution record implies stable stamps, which redo
        // resends like any other record.
        let mut rssp = Lsn(1);
        let mut losers: HashMap<TxnId, Vec<(Lsn, DcId, LogicalOp)>> = HashMap::new();
        // Each unresolved transaction's last write per key: a prepared
        // branch committed below stamps these.
        let mut wtrack: HashMap<TxnId, HashMap<(DcId, TableId, Key), Lsn>> = HashMap::new();
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
                TcLogRecord::Op { txn, dc, op, undo } => {
                    firsts.entry(*txn).or_insert(Lsn(*seq));
                    let chain = losers.entry(*txn).or_default();
                    if let Some(u) = undo {
                        chain.push((Lsn(*seq), *dc, u.clone()));
                    }
                    if op.is_mutation() {
                        if let Some(k) = op.point_key() {
                            wtrack
                                .entry(*txn)
                                .or_default()
                                .insert((*dc, op.table(), k.clone()), Lsn(*seq));
                        }
                    }
                }
                TcLogRecord::Commit { txn }
                | TcLogRecord::Abort { txn }
                | TcLogRecord::ParticipantCommit { txn }
                | TcLogRecord::ParticipantAbort { txn } => {
                    losers.remove(txn);
                    prepared.remove(txn);
                    wtrack.remove(txn);
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
                    wtrack.remove(txn);
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
        #[allow(clippy::type_complexity)]
        let mut branch_commits: Vec<(
            TxnId,
            TcId,
            TxnId,
            HashMap<(DcId, TableId, Key), Lsn>,
        )> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut branch_parks: Vec<(TxnId, TcId, TxnId, Lsn, Vec<(Lsn, DcId, LogicalOp)>)> =
            Vec::new();
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
                    losers.remove(txn);
                    // The branch's versions are stamped at the fresh
                    // ParticipantCommit LSN logged below.
                    let writes = wtrack.remove(txn).unwrap_or_default();
                    branch_commits.push((*txn, *coord, *gtxn, writes));
                }
                TwopcOutcome::InDoubt => {
                    let chain = losers.remove(txn).unwrap_or_default();
                    let first = firsts.get(txn).copied().unwrap_or(Lsn(1));
                    branch_parks.push((*txn, *coord, *gtxn, first, chain));
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

        // --- Undo losers: inverse operations in reverse LSN order.
        let mut undo_work: Vec<(Lsn, TxnId, DcId, LogicalOp)> = Vec::new();
        for (txn, chain) in &losers {
            for (lsn, dc, inv) in chain {
                undo_work.push((*lsn, *txn, *dc, inv.clone()));
            }
        }
        undo_work.sort_by_key(|w| std::cmp::Reverse(w.0));
        for (_, txn, dc, inv) in undo_work {
            let l = self.log_op_record(TcLogRecord::RedoOnly {
                txn,
                dc,
                op: inv.clone(),
            });
            TcStats::bump(&self.stats().undo_ops);
            self.session.redo(dc, l, &inv)?;
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
                self.session.redo(*dc, *l, op)?;
            }
        }
        self.force_log();

        // --- Park still-in-doubt branches (locks re-acquired) before
        // accepting new work, so conflicting transactions block instead
        // of reading uncommitted state.
        for (txn, coord, gtxn, first, chain) in branch_parks {
            self.park_indoubt_recovered(txn, coord, gtxn, first, &chain);
        }

        // --- Restart conversation, half two: done; resume.
        for &dc in &dcs {
            self.session.restart(dc, None)?;
        }
        self.set_available(true);
        self.force_and_publish();

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
        self.force_and_publish();
        Ok(())
    }

    /// Drop all volatile transaction state (crash simulation helper used
    /// together with `LogStore::crash` by the kernel's crash injector).
    pub fn crash_volatile(&self) {
        self.set_available(false);
        // Wake anyone parked on a rebalance fence: they must observe
        // unavailability, not sleep out their timeout against a dead TC.
        self.abandon_fence();
        self.txns.lock().clear();
        self.session.forget_replies();
        self.participants.lock().clear();
        self.pending_decisions.lock().clear();
        self.log.store().crash();
    }

    /// Active transactions (diagnostics).
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.txns.lock().keys().copied().collect()
    }
}
