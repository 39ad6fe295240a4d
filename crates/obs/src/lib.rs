//! Observability substrate for the unbundled TC/DC stack.
//!
//! Three pieces, all compile-time cheap and runtime-gated:
//!
//! - **Spans** ([`span`], [`span1`], [`ctx`], [`take_spans`],
//!   [`build_trees`]): lightweight enter/exit events in per-thread
//!   ring buffers, off by default, that reconstruct a cross-TC commit
//!   as a tree (`tc.commit → lockmgr.lock_wait → storage.gather_wait →
//!   storage.force → tc.ship → dc.apply → tc.ack`, with
//!   `tc.twopc_prepare`/`tc.twopc_decision` branches per participant).
//! - **Metrics registry** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): named metrics registered once with type + unit +
//!   help, snapshotted in one pass, merged by name across component
//!   instances ([`merge_snapshots`]).
//! - **Latency histograms** ([`LatencyHistogram`],
//!   [`AtomicHistogram`]): the bench suite's HDR log-linear histogram,
//!   hoisted here so runtime metrics and bench measurements are the
//!   same tested code.
//!
//! [`stage`] carries per-commit stage attribution (gather/force/apply
//! nanoseconds) from the storage and DC layers up to the TC's commit
//! wrapper without plumbing a context argument through every call.
//!
//! Telemetry recorded here is consumed by machines as well as humans:
//! the kernel's shard autopilot reads per-shard registry counters
//! (`tc.commits`) and gauges (`storage.force_queue_depth`) to decide
//! when to split or merge shards, and emits its own `policy.*` spans
//! so the decision trail renders as a tree alongside the commit path.

#![warn(missing_docs)]

mod hist;
pub mod registry;
pub mod span;
pub mod stage;
pub mod stripe;

pub use hist::{AtomicHistogram, LatencyHistogram};
pub use registry::{
    merge_snapshots, validate_metric_name, Counter, Gauge, Histogram, MetricKind, MetricSample,
    Registry, RegistrySnapshot, SampleValue,
};
pub use span::{
    build_trees, clear_spans, close_span, ctx, open_span, set_spans_enabled, span, span1, span2,
    span_interval_ago, spans_enabled, take_spans, CtxGuard, Event, EventKind, SpanGuard, SpanNode,
};
