//! DC-side counters and histograms backing the experiments.
//!
//! All metrics live in a per-instance [`Registry`] (one per engine),
//! named `dc.*`; [`DcSnapshot`] is the field-per-stat public view,
//! declared by the same `dc_stats!` list and materialized from a single
//! registry pass.
//!
//! Snapshot semantics: the registry pass reads every counter once,
//! back-to-back under the registry lock. Each field is individually
//! exact and monotone; cross-field invariants (e.g. `versions_stamped ≤
//! versions_created`) are best-effort when read mid-traffic. Quiesce
//! the engine before asserting exact cross-field relations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unbundled_obs::{Counter, Histogram, Registry};

macro_rules! dc_stats {
    ($( $(#[$doc:meta])* $field:ident => $name:literal, $help:literal; )+) => {
        /// Monotonic DC counters (lock-free; snapshot with
        /// [`DcStats::snapshot`]) plus the apply-latency histogram,
        /// registered in one per-instance metrics [`Registry`].
        pub struct DcStats {
            $( $(#[$doc])* pub $field: Counter, )+
            /// Latency of one performed operation (mutation apply or
            /// read), one sample per request.
            pub apply_ns: Histogram,
            registry: Arc<Registry>,
        }

        impl Default for DcStats {
            fn default() -> Self {
                let registry = Registry::new();
                DcStats {
                    $( $field: registry.counter($name, "ops", $help), )+
                    apply_ns: registry.histogram(
                        "dc.apply_ns", "ns", "per-operation apply/read latency"),
                    registry: Arc::new(registry),
                }
            }
        }

        /// Point-in-time copy of the [`DcStats`] counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct DcSnapshot {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl DcStats {
            /// Copy the current values in one registry pass.
            pub fn snapshot(&self) -> DcSnapshot {
                let snap = self.registry.snapshot();
                DcSnapshot {
                    $( $field: snap.counter($name), )+
                }
            }

            /// This instance's metrics registry.
            pub fn registry(&self) -> &Arc<Registry> {
                &self.registry
            }

            pub(crate) fn bump(counter: &AtomicU64) {
                counter.fetch_add(1, Ordering::Relaxed);
            }

            pub(crate) fn add(counter: &AtomicU64, n: u64) {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    };
}

dc_stats! {
    /// Mutations applied (first delivery).
    ops_applied => "dc.ops_applied", "mutations applied";
    /// Duplicate deliveries suppressed by the abLSN test.
    duplicates_suppressed => "dc.duplicates_suppressed", "duplicate deliveries suppressed";
    /// Mutations that arrived with an LSN below the page's max included
    /// LSN (out-of-order executions, Section 5.1).
    out_of_order => "dc.out_of_order", "out-of-order arrivals";
    /// Reads served.
    reads => "dc.reads", "reads served";
    /// Page splits (system transactions).
    splits => "dc.splits", "page splits";
    /// Page consolidations (system transactions).
    consolidations => "dc.consolidations", "page consolidations";
    /// Pages flushed.
    flushes => "dc.flushes", "pages flushed";
    /// Flushes that had to wait for a low-water-mark advance
    /// (page-sync policies 1/3).
    flush_waits => "dc.flush_waits", "flushes that waited on the LWM";
    /// Operations that backed off from a sync-frozen page.
    freeze_backoffs => "dc.freeze_backoffs", "sync-freeze backoffs";
    /// Pages evicted from the cache.
    evictions => "dc.evictions", "pages evicted";
    /// Pages reset after a TC crash.
    pages_reset => "dc.pages_reset", "pages reset after a TC crash";
    /// Records selectively reset after a TC crash (Section 6.1.2).
    records_reset => "dc.records_reset", "records selectively reset";
    /// Bytes of abstract-LSN state written into flushed page images.
    ablsn_bytes_flushed => "dc.ablsn_bytes_flushed", "abLSN bytes flushed";
    /// Replication `ShipBatch` datagrams applied (frontier advanced).
    ship_batches_applied => "dc.ship_batches_applied", "ship batches applied";
    /// Redo records applied from ship batches (duplicates excluded —
    /// those count under `duplicates_suppressed`).
    ship_records_applied => "dc.ship_records_applied", "shipped records applied";
    /// Ship batches discarded because an earlier batch was lost (the
    /// batch's `prev` was ahead of the applied frontier).
    ship_gap_drops => "dc.ship_gap_drops", "ship batches dropped on a gap";
    /// Re-delivered stream groups skipped because the applied frontier
    /// already covered them (duplicated ship batches are idempotent at
    /// group granularity — a group never re-executes on newer state).
    ship_groups_skipped => "dc.ship_groups_skipped", "redelivered groups skipped";
    /// Shipped records whose replay returned a logical error. Only
    /// committed transactions ship, each with its compensations, and a
    /// failed operation aborts its transaction — so a count here means
    /// the replica diverged from its primary.
    ship_apply_errors => "dc.ship_apply_errors", "shipped records replayed to error";
    /// Mutations rejected because this DC is fenced (read-only replica
    /// or deposed primary).
    fenced_rejects => "dc.fenced_rejects", "fenced mutations rejected";
    /// MVCC version-chain entries created (payloads displaced into a
    /// record's history by a newer write).
    versions_created => "dc.versions_created", "version-chain entries created";
    /// MVCC version-chain entries pruned by garbage collection
    /// (including physically reclaimed tombstones).
    versions_pruned => "dc.versions_pruned", "version-chain entries pruned";
    /// Commit stamps applied to versions (`StampCommit` with effect).
    versions_stamped => "dc.versions_stamped", "commit stamps applied";
    /// Point reads served at snapshot isolation (lock-free MVCC reads).
    snapshot_reads => "dc.snapshot_reads", "snapshot point reads served";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = DcStats::default();
        DcStats::bump(&s.splits);
        DcStats::add(&s.ablsn_bytes_flushed, 32);
        let snap = s.snapshot();
        assert_eq!(snap.splits, 1);
        assert_eq!(snap.ablsn_bytes_flushed, 32);
        assert_eq!(snap.ops_applied, 0);
    }

    #[test]
    fn registry_carries_every_counter() {
        let s = DcStats::default();
        DcStats::add(&s.versions_stamped, 3);
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("dc.versions_stamped"), 3);
        assert!(snap.histogram("dc.apply_ns").is_some());
    }
}
