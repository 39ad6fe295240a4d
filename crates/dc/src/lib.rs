//! # unbundled-dc
//!
//! The **Data Component** of the unbundled kernel (paper Section 4.1.2):
//! it organizes, searches, updates, caches and makes durable the data —
//! and knows *nothing* about transactions. It supports a
//! non-transactional, record-oriented interface whose operations are
//! **atomic** and **idempotent**; how records map to pages is invisible
//! to the Transactional Component.
//!
//! Modules:
//! * [`page`] — slotted pages carrying a dLSN (system-transaction
//!   idempotence) and per-TC abstract LSNs (logical-operation
//!   idempotence, Sections 5.1.2 / 6.1.1).
//! * [`dclog`] — the DC's private log of system transactions
//!   (Section 5.2.2's split / consolidate logging discipline).
//! * [`pool`] — buffer pool and the three page-sync policies.
//! * [`catalog`] — table catalog persisted in a reserved page.
//! * [`engine`] — record operations, B-tree maintenance, flushing,
//!   eviction, checkpoint handling.
//! * [`recovery`] — DC restart (structures first!) and TC-crash page
//!   reset (full-drop and selective per-owner modes).
//! * [`server`] — the message-level [`unbundled_core::DataComponentApi`]
//!   implementation.

#![warn(missing_docs)]

pub mod catalog;
pub mod dclog;
mod dirty;
pub mod engine;
pub mod page;
pub mod pool;
pub mod recovery;
pub mod server;
pub mod stats;

pub use dclog::{DcLog, DcLogRecord};
pub use engine::{DcConfig, DcEngine, FlushResult, ResetMode};
pub use page::{Page, PageData};
pub use pool::{BufferPool, SyncPolicy};
pub use server::DcServer;
pub use stats::{DcSnapshot, DcStats};
