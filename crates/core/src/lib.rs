//! # unbundled-core
//!
//! The contract layer of an *unbundled* database kernel, following
//! D. Lomet, A. Fekete, G. Weikum, M. Zwilling,
//! **"Unbundling Transaction Services in the Cloud"**, CIDR 2009.
//!
//! The paper factors the monolithic transactional storage manager into a
//! **Transactional Component (TC)** — logical locking + logical undo/redo
//! logging, no knowledge of pages — and a **Data Component (DC)** — access
//! methods, cache management and atomic, *idempotent*, record-oriented
//! operations, no knowledge of transactions. The two interact at arm's
//! length through the message API in [`msg`], governed by the interaction
//! contracts of the paper's Section 4.2 (causality, unique request ids,
//! idempotence, resend, recovery ordering, contract termination).
//!
//! This crate holds everything both sides must agree on:
//!
//! * [`lsn`] — TC log sequence numbers ([`Lsn`]), DC log sequence numbers
//!   ([`DLsn`]) and the paper's **abstract page LSN** ([`AbstractLsn`],
//!   Section 5.1.2) with its generalized `<=` test, low-water-mark pruning
//!   and the merge rule used by page consolidation.
//! * [`ids`] — component / page / table / transaction identifiers.
//! * [`key`] — byte-ordered record keys with composite-key helpers.
//! * [`record`] — stored record representation: one commit-LSN version
//!   chain per record, serving MVCC snapshots and the Section 6.2.2
//!   cross-TC read-committed sharing without two-phase commit.
//! * [`op`] — the logical (record-oriented) operations a TC may submit and
//!   their results; a write is undone by reverting the version it made.
//! * [`msg`] — the TC:DC API of Section 4.2.1: `perform_operation`,
//!   `end_of_stable_log`, `checkpoint`, `low_water_mark`, `restart`, plus
//!   the DC→TC replies and out-of-band prompts.
//! * [`consistency`] — the read-consistency spectrum ([`ReadConsistency`]):
//!   locking reads, MVCC snapshot reads by commit LSN, and bounded-staleness
//!   replica reads, unified behind one surface.
//! * [`codec`] — a small binary codec used for page images and log records.
//! * [`shard`] — key-range partition resolution shared by DC routing and
//!   the TC shard map ([`TcShardMap`]) that drives cross-TC transactions.
//! * [`error`] — shared error types.

#![warn(missing_docs)]

pub mod codec;
pub mod consistency;
pub mod error;
pub mod ids;
pub mod key;
pub mod lsn;
pub mod msg;
pub mod op;
pub mod record;
pub mod shard;

pub use consistency::{ReadConsistency, SnapshotSpec};
pub use error::{CoreError, DcError, SplitError, TcError};
pub use ids::{DcId, PageId, RequestId, SysTxnId, TableId, TcId, TxnId};
pub use key::Key;
pub use lsn::{AbstractLsn, DLsn, Lsn, PerTcAbLsn};
pub use msg::{DataComponentApi, DcToTc, TcToDc};
pub use op::{LogicalOp, OpResult, ReadFlavor};
pub use record::{StoredRecord, TableSpec};
pub use shard::{range_owner, range_owners, route_point, TcShardMap};
