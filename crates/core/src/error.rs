//! Error types shared across the unbundled kernel.

use crate::ids::{DcId, RequestId, TableId, TcId, TxnId};
use crate::key::Key;
use std::fmt;

/// Errors from the contract layer itself (codec, invariant violations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// Malformed binary image.
    Codec {
        /// What went wrong.
        what: &'static str,
        /// Byte offset of the failure.
        at: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Codec { what, at } => write!(f, "codec error at byte {at}: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Errors a DC can return for a logical operation. These surface in the
/// `perform_operation` reply; the TC maps them to transaction outcomes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DcError {
    /// The named table does not exist at this DC.
    NoSuchTable(TableId),
    /// Insert of a key that already exists.
    DuplicateKey(TableId, Key),
    /// Update/delete of a key that does not exist.
    KeyNotFound(TableId, Key),
    /// The DC is restarting and cannot serve normal requests yet.
    Restarting,
    /// The DC refuses mutations: it is a read-only replica, or an old
    /// primary fenced off after a failover promotion. Reads still work.
    Fenced(DcId),
    /// Corrupt stable state encountered.
    Corrupt(String),
}

impl fmt::Display for DcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcError::NoSuchTable(t) => write!(f, "no such table {t}"),
            DcError::DuplicateKey(t, k) => write!(f, "duplicate key {k} in {t}"),
            DcError::KeyNotFound(t, k) => write!(f, "key {k} not found in {t}"),
            DcError::Restarting => write!(f, "data component is restarting"),
            DcError::Fenced(d) => write!(f, "{d} is fenced: not the writable primary"),
            DcError::Corrupt(s) => write!(f, "corrupt state: {s}"),
        }
    }
}

impl std::error::Error for DcError {}

/// Errors surfaced to applications by the TC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcError {
    /// The transaction was chosen as a deadlock victim and rolled back.
    Deadlock(TxnId),
    /// The transaction was already committed/aborted.
    NotActive(TxnId),
    /// A DC rejected an operation; the transaction has been rolled back.
    OperationFailed(TxnId, DcError),
    /// A request to an unknown DC.
    NoSuchDc(DcId),
    /// The TC is not accepting work (crashed or restarting).
    Unavailable(TcId),
    /// A DC stopped responding to (re)sends.
    DcUnreachable(DcId),
    /// Lock acquisition timed out (distinct from detected deadlock).
    LockTimeout(TxnId),
    /// A cross-TC participant refused to prepare (or failed an op); the
    /// whole distributed transaction has been rolled back.
    PrepareRefused(TxnId),
    /// A key is owned by a TC shard this TC has no peer handle for.
    NoSuchTc(TcId),
    /// A forwarded operation carried a shard-map epoch that does not
    /// match the receiver's (`tc` rejected at `epoch`), or addressed a
    /// range the receiver no longer owns. The sender must refresh its
    /// map and re-route; the op was **not** executed.
    StaleShardMap {
        /// The rejecting TC.
        tc: TcId,
        /// The shard-map epoch installed at the rejecting TC.
        epoch: u64,
    },
    /// A DC answered a read, scan or probe with a result of the wrong
    /// shape (a malformed or misrouted reply). The operation failed;
    /// nothing was changed at the DC.
    UnexpectedReply {
        /// The DC that was asked.
        dc: DcId,
        /// The request whose reply was unusable.
        req: RequestId,
    },
}

impl fmt::Display for TcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcError::Deadlock(x) => write!(f, "{x} aborted: deadlock victim"),
            TcError::NotActive(x) => write!(f, "{x} is not active"),
            TcError::OperationFailed(x, e) => write!(f, "{x} aborted: {e}"),
            TcError::NoSuchDc(d) => write!(f, "unknown data component {d}"),
            TcError::Unavailable(t) => write!(f, "{t} unavailable"),
            TcError::DcUnreachable(d) => write!(f, "{d} unreachable"),
            TcError::LockTimeout(x) => write!(f, "{x} aborted: lock timeout"),
            TcError::PrepareRefused(x) => write!(f, "{x} aborted: cross-TC prepare refused"),
            TcError::NoSuchTc(t) => write!(f, "unknown transaction component {t}"),
            TcError::StaleShardMap { tc, epoch } => {
                write!(
                    f,
                    "{tc} rejected forward: stale shard map (its epoch {epoch})"
                )
            }
            TcError::UnexpectedReply { dc, req } => {
                write!(f, "{dc} answered {req} with a reply of the wrong shape")
            }
        }
    }
}

impl std::error::Error for TcError {}

/// Why a proposed shard split is invalid. Surfaced as a value (not a
/// panic) so both the manual `split_shard` path and the automatic
/// rebalance policy can *reject* a bad cut — an empty or single-point
/// shard has no observable interior median, and splitting "at" one of
/// its bounds would move nothing while still burning a fence + drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitError {
    /// The cut point is not interior to the partition containing it: a
    /// cut exactly on the partition's lower bound (the empty-shard /
    /// no-observable-median case collapses to this) would move the
    /// whole partition, and the bound itself moves nothing.
    NotInterior {
        /// The rejected cut point.
        at: u64,
        /// Lower bound (inclusive) of the partition containing `at`.
        lo: u64,
    },
    /// The proposed target already owns the partition containing the
    /// cut: the "split" would change no ownership.
    SameOwner {
        /// The rejected cut point.
        at: u64,
        /// The TC that already owns the partition.
        owner: TcId,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::NotInterior { at, lo } => write!(
                f,
                "split at {at:#x} rejected: not interior to its partition (lower bound {lo:#x})"
            ),
            SplitError::SameOwner { at, owner } => write!(
                f,
                "split at {at:#x} rejected: {owner} already owns the partition"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DcError::DuplicateKey(TableId(1), Key::from_u64(9));
        assert!(e.to_string().contains("duplicate key"));
        let t = TcError::OperationFailed(TxnId(4), e);
        assert!(t.to_string().contains("X4"));
        let c = CoreError::Codec { what: "x", at: 3 };
        assert!(c.to_string().contains("byte 3"));
    }
}
