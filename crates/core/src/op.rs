//! Logical (record-oriented) operations — the only vocabulary the TC may
//! use when talking to a DC (paper Section 4.1.1: "The locks cannot
//! exploit knowledge of data pagination"; Section 4.2.1:
//! `perform_operation` carries an operation name, a table, a key or key
//! range, and a unique identifier — never a page id).
//!
//! ## Undo information
//!
//! Every record keeps the committed state beneath an uncommitted write
//! (its version chain), so a logged mutation is undone by
//! [`LogicalOp::RevertVersion`] naming the op LSN it undoes — the
//! paper's Section 6.2.2 "remove the new versions". The undo is derived
//! from the write itself: the TC logs no before-image and fetches none,
//! and a transaction's write set (last write LSN per key) is its whole
//! undo log.

use crate::ids::TableId;
use crate::key::Key;
use crate::lsn::Lsn;

/// Isolation flavor of a read request (paper Section 6.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadFlavor {
    /// The latest version, committed or not. For a TC reading its own
    /// updatable partition this is "read own writes"; for a foreign TC it
    /// is a *dirty read* (Section 6.2.1) — always well-formed thanks to
    /// operation atomicity, but possibly uncommitted.
    Latest,
    /// *Read committed* (Section 6.2.2): the newest version carrying a
    /// commit stamp, whatever its LSN — so a reader TC in a different
    /// LSN space can use it. While a write is in flight (or rolled back
    /// but not yet overwritten) it sees the committed version beneath;
    /// never blocks.
    Committed,
    /// MVCC snapshot read: the newest version whose **commit LSN** is
    /// `<=` the given LSN. Uncommitted and not-yet-stamped data is
    /// invisible; never blocks and takes no locks at the TC.
    Snapshot(Lsn),
}

/// A logical operation on a DC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogicalOp {
    /// Insert a new record. Fails with `DuplicateKey` if present.
    Insert {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// Record payload.
        value: Vec<u8>,
    },
    /// Replace an existing record's payload. Fails if absent.
    Update {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// New payload.
        value: Vec<u8>,
    },
    /// Remove a record. Fails if absent.
    Delete {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
    },
    /// Insert-or-update: installs `value` as the unstamped head of the
    /// record's version chain, whether or not the record exists. Like
    /// every mutation it is committed by [`LogicalOp::StampCommit`] and
    /// undone by [`LogicalOp::RevertVersion`].
    VersionedWrite {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// New (uncommitted) payload.
        value: Vec<u8>,
    },
    /// Abort (the paper's "remove the new version"): undo every write
    /// of one transaction to `key`, whose last write had op LSN `op`.
    /// Drops an unstamped head whose op LSN is `<= op` and reinstates
    /// the newest *stamped* version beneath it, removing the record if
    /// there is none (an insert). A no-op on a stamped head or on a head
    /// written after `op`, so a resend can never revert a later owner's
    /// write. `<=`, not `==`: recovery counts a loser's failed last op
    /// (it cannot know it failed), which created no version of its own.
    /// Redo-only: never undone.
    ///
    /// Invariant: because a revert reinstates the newest *stamped*
    /// version, a key's commit stamp must reach its DC before the next
    /// writer's op on that key. Stamps are delivered synchronously under
    /// the committer's X locks and redo is LSN-ordered, so this holds;
    /// pipelined stamps (ROADMAP item 5) must keep it.
    RevertVersion {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// LSN of the transaction's last write to `key`.
        op: Lsn,
    },
    /// Post-commit: stamp the version created by op LSN `op` with the
    /// transaction's `commit` LSN, publishing it to committed and
    /// snapshot readers. Identified by the creating op's LSN so that
    /// resends and reordering cannot stamp a later write by mistake.
    /// Redo-only: never undone.
    StampCommit {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// LSN of the mutation whose version is being stamped.
        op: Lsn,
        /// The transaction's commit LSN.
        commit: Lsn,
    },
    /// Point read (unlogged).
    Read {
        /// Target table.
        table: TableId,
        /// Record key.
        key: Key,
        /// Isolation flavor.
        flavor: ReadFlavor,
    },
    /// Range scan (unlogged): keys in `[low, high)`, at most `limit`.
    ScanRange {
        /// Target table.
        table: TableId,
        /// Inclusive lower bound.
        low: Key,
        /// Exclusive upper bound (`None` = unbounded).
        high: Option<Key>,
        /// Maximum number of entries (`None` = unbounded).
        limit: Option<usize>,
        /// Isolation flavor.
        flavor: ReadFlavor,
    },
    /// Speculative key probe for the fetch-ahead locking protocol
    /// (Section 3.1): return up to `count` existing keys ≥ `from`,
    /// without their payloads. Unlogged.
    ProbeKeys {
        /// Target table.
        table: TableId,
        /// Inclusive lower bound.
        from: Key,
        /// Maximum number of keys.
        count: usize,
    },
}

impl LogicalOp {
    /// The table this operation targets.
    pub fn table(&self) -> TableId {
        match self {
            LogicalOp::Insert { table, .. }
            | LogicalOp::Update { table, .. }
            | LogicalOp::Delete { table, .. }
            | LogicalOp::VersionedWrite { table, .. }
            | LogicalOp::RevertVersion { table, .. }
            | LogicalOp::StampCommit { table, .. }
            | LogicalOp::Read { table, .. }
            | LogicalOp::ScanRange { table, .. }
            | LogicalOp::ProbeKeys { table, .. } => *table,
        }
    }

    /// The single key this operation targets, if it is a point operation.
    pub fn point_key(&self) -> Option<&Key> {
        match self {
            LogicalOp::Insert { key, .. }
            | LogicalOp::Update { key, .. }
            | LogicalOp::Delete { key, .. }
            | LogicalOp::VersionedWrite { key, .. }
            | LogicalOp::RevertVersion { key, .. }
            | LogicalOp::StampCommit { key, .. }
            | LogicalOp::Read { key, .. } => Some(key),
            LogicalOp::ScanRange { .. } | LogicalOp::ProbeKeys { .. } => None,
        }
    }

    /// True if the operation changes DC state (must be logged, consumes
    /// an LSN, participates in idempotence).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            LogicalOp::Insert { .. }
                | LogicalOp::Update { .. }
                | LogicalOp::Delete { .. }
                | LogicalOp::VersionedWrite { .. }
                | LogicalOp::RevertVersion { .. }
                | LogicalOp::StampCommit { .. }
        )
    }

    /// Short operation name for logs and traces.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::Insert { .. } => "insert",
            LogicalOp::Update { .. } => "update",
            LogicalOp::Delete { .. } => "delete",
            LogicalOp::VersionedWrite { .. } => "vwrite",
            LogicalOp::RevertVersion { .. } => "revert",
            LogicalOp::StampCommit { .. } => "stamp",
            LogicalOp::Read { .. } => "read",
            LogicalOp::ScanRange { .. } => "scan",
            LogicalOp::ProbeKeys { .. } => "probe",
        }
    }
}

/// Result of a successfully performed logical operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpResult {
    /// Mutation applied (or suppressed as a duplicate — indistinguishable
    /// by design: exactly-once).
    Done,
    /// Point read result (`None` = absent).
    Value(Option<Vec<u8>>),
    /// Probe result: existing keys, ascending.
    Keys(Vec<Key>),
    /// Scan result: key/payload pairs, ascending.
    Entries(Vec<(Key, Vec<u8>)>),
}

impl OpResult {
    /// Unwrap a point-read result.
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self {
            OpResult::Value(v) => v,
            other => panic!("expected Value, got {other:?}"),
        }
    }

    /// Unwrap a scan result.
    pub fn into_entries(self) -> Vec<(Key, Vec<u8>)> {
        match self {
            OpResult::Entries(e) => e,
            other => panic!("expected Entries, got {other:?}"),
        }
    }

    /// Unwrap a probe result.
    pub fn into_keys(self) -> Vec<Key> {
        match self {
            OpResult::Keys(k) => k,
            other => panic!("expected Keys, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TableId {
        TableId(1)
    }

    #[test]
    fn mutation_classification() {
        assert!(LogicalOp::Insert {
            table: t(),
            key: Key::from_u64(1),
            value: vec![]
        }
        .is_mutation());
        assert!(LogicalOp::RevertVersion {
            table: t(),
            key: Key::from_u64(1),
            op: Lsn(1)
        }
        .is_mutation());
        assert!(LogicalOp::StampCommit {
            table: t(),
            key: Key::from_u64(1),
            op: Lsn(2),
            commit: Lsn(3)
        }
        .is_mutation());
        assert!(!LogicalOp::ProbeKeys {
            table: t(),
            from: Key::empty(),
            count: 4
        }
        .is_mutation());
        assert!(!LogicalOp::ScanRange {
            table: t(),
            low: Key::empty(),
            high: None,
            limit: None,
            flavor: ReadFlavor::Committed
        }
        .is_mutation());
    }

    #[test]
    fn point_key_extraction() {
        let op = LogicalOp::Delete {
            table: t(),
            key: Key::from_u64(5),
        };
        assert_eq!(op.point_key(), Some(&Key::from_u64(5)));
        let scan = LogicalOp::ScanRange {
            table: t(),
            low: Key::empty(),
            high: None,
            limit: None,
            flavor: ReadFlavor::Latest,
        };
        assert_eq!(scan.point_key(), None);
    }
}
