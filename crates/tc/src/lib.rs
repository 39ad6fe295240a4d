//! # unbundled-tc
//!
//! The **Transactional Component** of the unbundled kernel (paper
//! Section 4.1.1): transactional locking without knowledge of pages,
//! logical redo logging, log forcing for durability, transaction
//! atomicity by reverting the versions a transaction wrote (its write
//! set is its undo log), checkpointing (redo scan start point) and
//! restart.
//!
//! The TC is a *client* of one or more Data Components, speaking the
//! message API in `unbundled-core` under the interaction contracts:
//! unique LSN-based request ids, resend-until-ack, end-of-stable-log
//! (causality / cross-component WAL), low-water marks (abLSN pruning)
//! and the checkpoint/restart conversations.
//!
//! Modules:
//! * [`tclog`] — the logical log (redo ops, reverts and stamps; OPSR
//!   order by lock-before-log).
//! * [`acks`] — ack tracking → low-water mark computation.
//! * [`routing`] — table→DC routing and the Section 3.1 range-locking
//!   protocols (fetch-ahead / static range locks).
//! * [`tc`] — the transaction API: begin/read/scan/insert/update/delete/
//!   versioned-write/commit/abort, plus lock-free committed and dirty
//!   reads for cross-TC sharing (Section 6.2).
//! * `session` — the TC's conversation with its DCs (Section 4.2): the
//!   route/link/alias directory, request ids with resend until acked,
//!   the ack frontier, the recovery gate, and the checkpoint, restart
//!   and replication-ack exchanges, all waiting on one reply-slot type.
//! * [`recovery`] — TC restart and DC-crash recovery.
//! * [`shipper`] — logical log shipping to read-only DC replicas:
//!   committed-redo stream extraction, per-replica cursors with
//!   go-back-N resend, bounded-staleness read routing and failover
//!   promotion support.
//! * [`twopc`] — cross-TC transactions for a key-range-sharded TC tier:
//!   operation forwarding between shards and two-phase commit written
//!   through the shards' existing redo logs (presumed abort).
//! * [`rebalance`] — online split/merge of the shard map: fence + drain
//!   of the moving range, write-ahead intent/done records in the
//!   source's redo log, epoch-checked forwards.

#![warn(missing_docs)]

pub mod acks;
pub mod rebalance;
pub mod recovery;
pub mod routing;
mod session;
pub mod shipper;
pub mod stats;
pub mod tc;
pub mod tclog;
pub mod twopc;

pub use acks::AckTracker;
pub use rebalance::RebalanceFence;
pub use routing::{DcLink, RangePartitioner, ScanProtocol, TableRoute};
pub use shipper::ReplicaLag;
pub use stats::{KeySketch, TcSnapshot, TcStats};
pub use tc::{GroupCommitCfg, Tc, TcConfig};
pub use tclog::{TcLogHandle, TcLogRecord};
pub use twopc::{TcPeer, TwopcOutcome};
pub use unbundled_core::TcShardMap;
pub use unbundled_core::{ReadConsistency, SnapshotSpec};
pub use unbundled_storage::GatherWindow;
