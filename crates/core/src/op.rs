//! Logical (record-oriented) operations — the only vocabulary the TC may
//! use when talking to a DC (paper Section 4.1.1: "The locks cannot
//! exploit knowledge of data pagination"; Section 4.2.1:
//! `perform_operation` carries an operation name, a table, a key or key
//! range, and a unique identifier — never a page id).
//!
//! ## Undo information
//!
//! The TC logs *logical undo* as inverse operations (Section 4.1.1(2b)).
//! Because redo must be resendable after a TC crash, the undo information
//! has to be in the TC log **before** the operation's effects can become
//! stable at the DC. This implementation therefore requires the TC to
//! know the prior value when it logs an `Update`/`Delete`: it uses the
//! transaction's earlier read of the record, or issues the read itself
//! (the locks it holds make the read stable). [`LogicalOp::inverse`]
//! computes the inverse given that prior state.

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
    /// Versioned insert-or-update (Section 6.2.2): installs `value` as
    /// the unstamped head of the record's version chain. The committed
    /// state beneath stays in the chain (nothing there for an insert),
    /// which is why the inverse needs no before-image. The
    /// transaction's [`LogicalOp::StampCommit`] commits it — the
    /// paper's "eliminate the before version".
    VersionedWrite {
        /// Target (versioned) table.
        table: TableId,
        /// Record key.
        key: Key,
        /// New (uncommitted) payload.
        value: Vec<u8>,
    },
    /// Abort (the paper's "remove the new version"): drop the unstamped
    /// head of the chain and reinstate the newest stamped version
    /// beneath it, removing the record if there is none (a versioned
    /// insert). A no-op on a record whose head is stamped.
    RevertVersion {
        /// Target (versioned) table.
        table: TableId,
        /// Record key.
        key: Key,
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

    /// The inverse operation, given the record's prior payload
    /// (`prior = None` means the record did not exist).
    ///
    /// Returns `None` for reads (nothing to undo) and for the version
    /// bookkeeping operations: `StampCommit` runs only after commit and
    /// `RevertVersion` only during abort — neither is ever itself undone
    /// (they are redo-only, like compensation records).
    pub fn inverse(&self, prior: Option<&[u8]>) -> Option<LogicalOp> {
        match self {
            LogicalOp::Insert { table, key, .. } => Some(LogicalOp::Delete {
                table: *table,
                key: key.clone(),
            }),
            LogicalOp::Update { table, key, .. } => Some(LogicalOp::Update {
                table: *table,
                key: key.clone(),
                value: prior.expect("update undo requires prior value").to_vec(),
            }),
            LogicalOp::Delete { table, key } => Some(LogicalOp::Insert {
                table: *table,
                key: key.clone(),
                value: prior.expect("delete undo requires prior value").to_vec(),
            }),
            // A versioned write is undone by reverting to the committed
            // version beneath it in the chain — the DC holds the prior
            // state, so the TC needs no prior payload.
            LogicalOp::VersionedWrite { table, key, .. } => Some(LogicalOp::RevertVersion {
                table: *table,
                key: key.clone(),
            }),
            LogicalOp::RevertVersion { .. }
            | LogicalOp::StampCommit { .. }
            | LogicalOp::Read { .. }
            | LogicalOp::ScanRange { .. }
            | LogicalOp::ProbeKeys { .. } => None,
        }
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
    fn inverse_of_insert_is_delete() {
        let op = LogicalOp::Insert {
            table: t(),
            key: Key::from_u64(1),
            value: b"v".to_vec(),
        };
        assert_eq!(
            op.inverse(None),
            Some(LogicalOp::Delete {
                table: t(),
                key: Key::from_u64(1)
            })
        );
    }

    #[test]
    fn inverse_of_update_restores_prior() {
        let op = LogicalOp::Update {
            table: t(),
            key: Key::from_u64(1),
            value: b"new".to_vec(),
        };
        assert_eq!(
            op.inverse(Some(b"old")),
            Some(LogicalOp::Update {
                table: t(),
                key: Key::from_u64(1),
                value: b"old".to_vec()
            })
        );
    }

    #[test]
    fn inverse_of_delete_reinserts() {
        let op = LogicalOp::Delete {
            table: t(),
            key: Key::from_u64(2),
        };
        assert_eq!(
            op.inverse(Some(b"old")),
            Some(LogicalOp::Insert {
                table: t(),
                key: Key::from_u64(2),
                value: b"old".to_vec()
            })
        );
    }

    #[test]
    fn inverse_of_versioned_write_is_revert() {
        let op = LogicalOp::VersionedWrite {
            table: t(),
            key: Key::from_u64(3),
            value: b"v".to_vec(),
        };
        assert_eq!(
            op.inverse(None),
            Some(LogicalOp::RevertVersion {
                table: t(),
                key: Key::from_u64(3)
            })
        );
    }

    #[test]
    fn reads_and_compensations_have_no_inverse() {
        assert_eq!(
            LogicalOp::Read {
                table: t(),
                key: Key::from_u64(1),
                flavor: ReadFlavor::Latest
            }
            .inverse(None),
            None
        );
        assert_eq!(
            LogicalOp::RevertVersion {
                table: t(),
                key: Key::from_u64(1)
            }
            .inverse(None),
            None
        );
        assert_eq!(
            LogicalOp::StampCommit {
                table: t(),
                key: Key::from_u64(1),
                op: Lsn(4),
                commit: Lsn(9)
            }
            .inverse(None),
            None
        );
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
            key: Key::from_u64(1)
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
