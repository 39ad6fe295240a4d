//! The read-consistency spectrum — one first-class surface for every
//! read the transaction tier can serve (primary locking reads, primary
//! MVCC snapshot reads, bounded-staleness replica reads, and the
//! unlocked read-committed and dirty reads of Section 6.2).
//!
//! "Towards Transaction as a Service" argues a decoupled transaction
//! tier must expose read consistency as a service surface rather than a
//! per-method choice; here the caller states *what* guarantee it needs
//! and the TC decides *where* to serve it (primary vs replica, locked
//! vs version chain).

use crate::lsn::Lsn;

/// Which LSN an MVCC snapshot read observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotSpec {
    /// Pin the transaction's snapshot at its first snapshot read (the
    /// TC's visible LSN at that moment: stable, with every commit at or
    /// below it fully stamped) and reuse it for every later snapshot
    /// read — repeatable reads within the transaction.
    Pinned,
    /// Read at an explicit LSN (e.g. a position captured earlier via
    /// [`stable position`](crate::lsn::Lsn) bookkeeping). Positions
    /// older than the checkpoint truncation floor are served
    /// best-effort: garbage collection may have pruned the exact
    /// version.
    At(Lsn),
    /// Read at the TC's visible LSN *now*: sees every commit
    /// acknowledged before the read, whole, without pinning.
    Fresh,
}

/// What a read is allowed to observe, and implicitly what it may cost.
///
/// | variant | locks | staleness | serving tier |
/// |---|---|---|---|
/// | `Locking` | S record lock | none (serializable) | primary |
/// | `Snapshot` | none | commits ≤ snapshot LSN | primary |
/// | `BoundedLag(n)` | none | ≤ `n` LSNs behind stable | replica, else primary snapshot |
/// | `AtLeast(lsn)` | none | anything ≥ `lsn` | replica, else primary snapshot |
/// | `Committed` | none | newest stamped version, any TC's | routed DC |
/// | `Dirty` | none | latest, uncommitted included | routed DC |
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadConsistency {
    /// Serializable locking read on the primary: takes an S record
    /// lock, sees the latest committed state, blocks on (and is
    /// blocked by) writers. The default for read-write transactions.
    Locking,
    /// Lock-free MVCC snapshot read on the primary: sees exactly the
    /// commits stamped at or below the snapshot LSN, never blocks on
    /// writers and never blocks them.
    Snapshot(SnapshotSpec),
    /// Any replica whose replication lag is within `n` LSNs of the
    /// primary's stable position; falls back to a fresh primary
    /// snapshot read when no replica qualifies.
    BoundedLag(u64),
    /// Any replica that has applied at least `lsn` (read-your-writes:
    /// pass the stable position observed after your commit); falls
    /// back to a fresh primary snapshot read.
    AtLeast(Lsn),
    /// Read committed (Section 6.2.2): the newest version carrying a
    /// commit stamp from any TC sharing the DC. Served straight by the
    /// routed DC — no lock, no pinned snapshot, no shard forwarding —
    /// which makes it the read of Figure 2's reader TC.
    Committed,
    /// Dirty read (Section 6.2.1): the latest version, uncommitted work
    /// included, but always operation-atomic ("well formed"). Served
    /// like [`ReadConsistency::Committed`].
    Dirty,
}

impl ReadConsistency {
    /// Shorthand for a pinned (repeatable-read) snapshot.
    pub const SNAPSHOT: ReadConsistency = ReadConsistency::Snapshot(SnapshotSpec::Pinned);

    /// True if this read may be served without record locks.
    pub fn lock_free(&self) -> bool {
        !matches!(self, ReadConsistency::Locking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_freedom() {
        assert!(!ReadConsistency::Locking.lock_free());
        assert!(ReadConsistency::SNAPSHOT.lock_free());
        assert!(ReadConsistency::Snapshot(SnapshotSpec::At(Lsn(3))).lock_free());
        assert!(ReadConsistency::BoundedLag(0).lock_free());
        assert!(ReadConsistency::AtLeast(Lsn(9)).lock_free());
        assert!(ReadConsistency::Committed.lock_free());
        assert!(ReadConsistency::Dirty.lock_free());
    }
}
