//! The TC's logical log (paper Section 4.1.1(3)).
//!
//! Every state-changing logical operation is logged in its redo form
//! (the operation itself — resent verbatim during recovery). Its undo
//! needs no record of its own: the DC keeps the committed state beneath
//! every uncommitted write, so a transaction is undone by one
//! [`LogicalOp::RevertVersion`] per key it wrote, naming that key's last
//! write LSN. Because the TC never sees pages, no record here contains a
//! page id: redo is *logical* (Section 3.2(1)).
//!
//! Lock-before-log discipline gives OPSR (order-preserving serializable)
//! log order: conflicting operations are serialized by the lock manager
//! before their LSNs are drawn, so replaying the log in LSN order
//! reproduces every conflict in its original order even though
//! non-conflicting operations may have executed out of LSN order.
//!
//! A transaction enters the log with its first `Op` (or, for a 2PC
//! branch that only read, its `Prepare`); one that never writes never
//! enters it at all.

use std::sync::Arc;
use unbundled_core::{DcId, LogicalOp, Lsn, TcId, TxnId};
use unbundled_storage::LogStore;

/// One TC-log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcLogRecord {
    /// A logged logical operation (LSN = its sequence number).
    Op {
        /// Owning transaction.
        txn: TxnId,
        /// Destination DC.
        dc: DcId,
        /// The operation (redo form: resent verbatim).
        op: LogicalOp,
    },
    /// Redo-only operation: version reverts issued during rollback (the
    /// logical analogue of compensation log records) and post-commit
    /// version stamps. Never undone.
    RedoOnly {
        /// Owning transaction.
        txn: TxnId,
        /// Destination DC.
        dc: DcId,
        /// The operation.
        op: LogicalOp,
    },
    /// Transaction committed (forced).
    Commit {
        /// Committed transaction.
        txn: TxnId,
    },
    /// Cross-TC 2PC, participant side: this shard's branch of a
    /// distributed transaction is prepared — all its operations are
    /// logged and stable, its locks are held, and the shard has voted
    /// yes. Forced before the vote is returned. Recovery finding a
    /// Prepare with no later resolution record re-resolves the branch
    /// against the coordinator's log (presumed abort: no decision there
    /// and no live coordinator transaction means abort).
    Prepare {
        /// The participant-local branch transaction.
        txn: TxnId,
        /// The coordinating TC shard.
        coord: TcId,
        /// The coordinator's (global) transaction id.
        gtxn: TxnId,
    },
    /// Cross-TC 2PC, coordinator side: the commit point of a distributed
    /// transaction. Forced; once stable the transaction is committed
    /// everywhere even if the decision broadcast is lost — participants
    /// re-read it from this log. Presumed abort means no analogous abort
    /// decision is ever logged: an aborting coordinator just logs its
    /// ordinary [`TcLogRecord::Abort`].
    CommitDecision {
        /// The committing (coordinator-local) transaction.
        txn: TxnId,
        /// The participant shards that prepared.
        participants: Vec<TcId>,
    },
    /// Cross-TC 2PC, participant side: the branch learned the commit
    /// decision and committed locally. Forced before acknowledging the
    /// decision so the coordinator may forget it (truncate its log past
    /// the decision).
    ParticipantCommit {
        /// The participant-local branch transaction.
        txn: TxnId,
    },
    /// Cross-TC 2PC, participant side: the branch was aborted (all
    /// reverts logged before this, as for
    /// [`TcLogRecord::Abort`]).
    ParticipantAbort {
        /// The participant-local branch transaction.
        txn: TxnId,
    },
    /// Transaction aborted (all reverts logged before this).
    Abort {
        /// Aborted transaction.
        txn: TxnId,
    },
    /// Checkpoint: the granted redo scan start point (contract
    /// termination, Section 4.2).
    Checkpoint {
        /// Granted redo scan start point.
        rssp: Lsn,
    },
    /// Failover promotion: replica `new` replaced deposed primary `old`
    /// as the writable primary of its partition. Everything below
    /// `floor` was made stable at `new` during promotion (stream
    /// catch-up + flush), so recovery must never replay raw history
    /// below the floor to it — a replica's committed-only state has
    /// abstract-LSN "holes" at rolled-back operations, and re-executing
    /// those against newer state would corrupt it. Also teaches a
    /// recovering TC the `old → new` routing alias.
    Promote {
        /// The deposed (fenced) primary.
        old: DcId,
        /// The promoted replica, now primary.
        new: DcId,
        /// Redo floor: records below this are stable at `new`.
        floor: Lsn,
    },
    /// Write-ahead intent for a failover promotion: forced *before* the
    /// old primary is fenced, so a TC crash mid-promotion no longer
    /// loses the failover. Recovery finding an intent with no matching
    /// [`TcLogRecord::Promote`] re-drives the promotion.
    PromoteIntent {
        /// The primary about to be deposed.
        old: DcId,
        /// The replica about to be promoted.
        new: DcId,
    },
    /// Write-ahead intent for an elastic rebalance: forced *before* the
    /// moving range `[lo, hi]` is fenced and drained. An intent with no
    /// matching [`TcLogRecord::RebalanceDone`] means the move never took
    /// effect — the new map is only published after the done record is
    /// stable — so recovery simply discards it and the old topology
    /// stands.
    RebalanceIntent {
        /// Inclusive low end of the moving range.
        lo: u64,
        /// Inclusive high end of the moving range.
        hi: u64,
        /// The TC gaining the range.
        to: TcId,
        /// The epoch the republished map will carry.
        epoch: u64,
    },
    /// Elastic rebalance completion: lock and log authority for
    /// `[lo, hi]` has left this TC in favour of `to`. Forced *before*
    /// the epoch-`epoch` map is republished, so a map any peer ever saw
    /// implies this record is durable. `floor` records the source's
    /// `min(stable, twopc_floor, replication_floor)` at handoff: nothing
    /// below it — no pinned 2PC decision, no unshipped replication group
    /// — can be stranded by the move, because the source's self-contained
    /// log keeps serving both until they drain past it.
    RebalanceDone {
        /// Inclusive low end of the moved range.
        lo: u64,
        /// Inclusive high end of the moved range.
        hi: u64,
        /// The TC that gained the range.
        to: TcId,
        /// The epoch of the map that publishes this move.
        epoch: u64,
        /// Source durability floor at handoff (diagnostic).
        floor: Lsn,
    },
}

fn op_size(op: &LogicalOp) -> usize {
    match op {
        LogicalOp::Insert { key, value, .. }
        | LogicalOp::Update { key, value, .. }
        | LogicalOp::VersionedWrite { key, value, .. } => 16 + key.len() + value.len(),
        LogicalOp::Delete { key, .. } | LogicalOp::Read { key, .. } => 16 + key.len(),
        LogicalOp::RevertVersion { key, .. } => 24 + key.len(),
        LogicalOp::StampCommit { key, .. } => 32 + key.len(),
        LogicalOp::ScanRange { low, high, .. } => {
            16 + low.len() + high.as_ref().map(|h| h.len()).unwrap_or(0)
        }
        LogicalOp::ProbeKeys { from, .. } => 16 + from.len(),
    }
}

impl TcLogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            TcLogRecord::Op { txn, .. }
            | TcLogRecord::RedoOnly { txn, .. }
            | TcLogRecord::Commit { txn }
            | TcLogRecord::Abort { txn }
            | TcLogRecord::Prepare { txn, .. }
            | TcLogRecord::CommitDecision { txn, .. }
            | TcLogRecord::ParticipantCommit { txn }
            | TcLogRecord::ParticipantAbort { txn } => Some(*txn),
            TcLogRecord::Checkpoint { .. }
            | TcLogRecord::Promote { .. }
            | TcLogRecord::PromoteIntent { .. }
            | TcLogRecord::RebalanceIntent { .. }
            | TcLogRecord::RebalanceDone { .. } => None,
        }
    }

    /// Approximate encoded size (log-space accounting).
    pub fn encoded_size(&self) -> usize {
        match self {
            TcLogRecord::Commit { .. }
            | TcLogRecord::Abort { .. }
            | TcLogRecord::Checkpoint { .. }
            | TcLogRecord::ParticipantCommit { .. }
            | TcLogRecord::ParticipantAbort { .. } => 17,
            TcLogRecord::Op { op, .. } | TcLogRecord::RedoOnly { op, .. } => 19 + op_size(op),
            TcLogRecord::Promote { .. } => 21,
            TcLogRecord::PromoteIntent { .. } => 13,
            TcLogRecord::RebalanceIntent { .. } => 27,
            TcLogRecord::RebalanceDone { .. } => 35,
            TcLogRecord::Prepare { .. } => 27,
            TcLogRecord::CommitDecision { participants, .. } => 17 + 2 * participants.len(),
        }
    }
}

/// Handle around the TC's log store: LSNs are the store's sequence
/// numbers.
pub struct TcLogHandle {
    store: Arc<LogStore<TcLogRecord>>,
}

impl TcLogHandle {
    /// Wrap a (possibly crash-surviving) store.
    pub fn new(store: Arc<LogStore<TcLogRecord>>) -> Self {
        TcLogHandle { store }
    }

    /// Append; returns the record's LSN.
    pub fn append(&self, rec: TcLogRecord) -> Lsn {
        let size = rec.encoded_size();
        Lsn(self.store.append(rec, size))
    }

    /// Append records built from the LSN the first of them gets, as one
    /// group no force or crash can split (see
    /// [`LogStore::append_group`]); returns that first LSN.
    pub fn append_group(&self, build: impl FnOnce(Lsn) -> Vec<TcLogRecord>) -> Lsn {
        Lsn(self.store.append_group(|first| {
            build(Lsn(first)).into_iter().map(|rec| {
                let size = rec.encoded_size();
                (rec, size)
            })
        }))
    }

    /// Force; returns the new end of stable log (EOSL).
    pub fn force(&self) -> Lsn {
        Lsn(self.store.force())
    }

    /// End of stable log.
    pub fn stable(&self) -> Lsn {
        Lsn(self.store.stable_seq())
    }

    /// Last assigned LSN.
    pub fn last(&self) -> Lsn {
        Lsn(self.store.last_seq())
    }

    /// Underlying store.
    pub fn store(&self) -> &Arc<LogStore<TcLogRecord>> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_force_crash_semantics() {
        let h = TcLogHandle::new(Arc::new(LogStore::new()));
        let l1 = h.append(TcLogRecord::Checkpoint { rssp: Lsn(1) });
        assert_eq!(l1, Lsn(1));
        assert_eq!(h.stable(), Lsn(0));
        assert_eq!(h.force(), Lsn(1));
        h.append(TcLogRecord::Commit { txn: TxnId(1) });
        assert_eq!(h.store().crash(), 1, "unforced commit lost");
    }

    #[test]
    fn txn_extraction() {
        assert_eq!(TcLogRecord::Abort { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        assert_eq!(TcLogRecord::Checkpoint { rssp: Lsn(1) }.txn(), None);
        assert_eq!(TcLogRecord::Checkpoint { rssp: Lsn(1) }.encoded_size(), 17);
    }
}
