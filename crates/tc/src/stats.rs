//! TC-side counters and histograms backing the experiments.
//!
//! All metrics live in a per-instance [`Registry`] (one per TC), named
//! `tc.*`; [`TcSnapshot`] is the field-per-stat public view, declared
//! by the same `tc_stats!` list and materialized from a single registry
//! pass.
//!
//! Snapshot semantics: the registry pass reads every counter once,
//! back-to-back under the registry lock. Each field is individually
//! exact and monotone, but cross-field invariants (`stamps_sent` vs.
//! `commits`, `cross_commits ≤ commits`, …) are best-effort when read
//! mid-traffic — the pass is not a linearization point across writer
//! threads. Quiesce the TC (as the tests and benches do) before
//! asserting exact cross-field relations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unbundled_obs::{Counter, Histogram, Registry};

/// Sliding-window sketch of the route points of recently executed
/// mutations, kept per TC so the rebalance policy can place a split cut
/// where the *traffic* median is — not the key-space midpoint, which a
/// skewed workload makes useless.
///
/// The sketch is a fixed ring of the last [`KeySketch::WINDOW`] observed
/// route points: each record is one relaxed `fetch_add` plus one relaxed
/// store, cheap enough to leave on for every mutation. Recency-weighting
/// is deliberate — a controller wants the median of *current* traffic,
/// and old samples aging out is exactly the hysteresis-friendly behavior
/// (a shard whose hotspot moved is re-observed within one window).
///
/// Readers ([`KeySketch::median_in`], [`KeySketch::count_in`]) copy the
/// filled slots without locking; a torn read against concurrent writers
/// perturbs individual samples, never the structure, which is fine for a
/// policy input.
pub struct KeySketch {
    slots: Vec<AtomicU64>,
    next: AtomicU64,
}

impl Default for KeySketch {
    fn default() -> Self {
        KeySketch::new(Self::WINDOW)
    }
}

impl KeySketch {
    /// Default ring capacity: large enough that a 50 ms policy tick at
    /// tens of thousands of commits/s still sees a full window of fresh
    /// samples, small enough to scan in microseconds.
    pub const WINDOW: usize = 4096;

    /// A sketch with `slots` ring capacity (rounded up to 1).
    pub fn new(slots: usize) -> Self {
        KeySketch {
            slots: (0..slots.max(1)).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Record one observed route point.
    pub fn record(&self, point: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        self.slots[i % self.slots.len()].store(point, Ordering::Relaxed);
    }

    /// Samples currently held (saturates at the ring capacity).
    pub fn observed(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// Held samples whose route point falls inside `[lo, hi]`.
    pub fn count_in(&self, lo: u64, hi: u64) -> usize {
        self.slots[..self.observed()]
            .iter()
            .filter(|s| {
                let p = s.load(Ordering::Relaxed);
                (lo..=hi).contains(&p)
            })
            .count()
    }

    /// Median route point of the held samples inside `[lo, hi]`, or
    /// `None` when no sample landed there (an unobserved — e.g. empty —
    /// shard has no median to split at; the policy must reject the
    /// split rather than guess).
    pub fn median_in(&self, lo: u64, hi: u64) -> Option<u64> {
        let mut pts: Vec<u64> = self.slots[..self.observed()]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|p| (lo..=hi).contains(p))
            .collect();
        if pts.is_empty() {
            return None;
        }
        let mid = pts.len() / 2;
        let (_, m, _) = pts.select_nth_unstable(mid);
        Some(*m)
    }
}

macro_rules! tc_stats {
    ($( $(#[$doc:meta])* $field:ident => $name:literal, $help:literal; )+) => {
        /// Monotonic TC counters plus commit-path latency histograms,
        /// registered in one per-instance metrics [`Registry`].
        pub struct TcStats {
            $( $(#[$doc])* pub $field: Counter, )+
            /// End-to-end commit latency (all commit flavours).
            pub commit_ns: Histogram,
            /// Per-commit time blocked acquiring locks.
            pub stage_lock_wait_ns: Histogram,
            /// Per-commit time gathering (group-commit window/leader wait).
            pub stage_gather_wait_ns: Histogram,
            /// Per-commit time in device flushes.
            pub stage_force_ns: Histogram,
            /// Per-commit time applying operations at DCs.
            pub stage_dc_apply_ns: Histogram,
            /// Per-commit cross-TC 2PC residual (coordination time not
            /// accounted to gather/force/apply; 0 for local commits).
            pub stage_twopc_ns: Histogram,
            /// Replication ship-batch send latency.
            pub ship_batch_ns: Histogram,
            /// Route points of recent mutations (split-placement input
            /// for the rebalance policy). Not part of the registry: it
            /// is a structural sketch, not a scalar metric.
            pub keys: KeySketch,
            registry: Arc<Registry>,
        }

        impl Default for TcStats {
            fn default() -> Self {
                let registry = Registry::new();
                TcStats {
                    $( $field: registry.counter($name, "ops", $help), )+
                    commit_ns: registry.histogram(
                        "tc.commit_ns", "ns", "end-to-end commit latency"),
                    stage_lock_wait_ns: registry.histogram(
                        "tc.commit_stage.lock_wait_ns", "ns",
                        "per-commit lock wait"),
                    stage_gather_wait_ns: registry.histogram(
                        "tc.commit_stage.gather_wait_ns", "ns",
                        "per-commit group-commit gather wait"),
                    stage_force_ns: registry.histogram(
                        "tc.commit_stage.force_ns", "ns",
                        "per-commit device flush time"),
                    stage_dc_apply_ns: registry.histogram(
                        "tc.commit_stage.dc_apply_ns", "ns",
                        "per-commit DC apply time"),
                    stage_twopc_ns: registry.histogram(
                        "tc.commit_stage.twopc_ns", "ns",
                        "per-commit 2PC coordination residual"),
                    ship_batch_ns: registry.histogram(
                        "tc.ship_batch_ns", "ns",
                        "replication ship-batch send latency"),
                    keys: KeySketch::default(),
                    registry: Arc::new(registry),
                }
            }
        }

        /// Point-in-time copy of the [`TcStats`] counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct TcSnapshot {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl TcStats {
            /// Copy current counter values in one registry pass.
            pub fn snapshot(&self) -> TcSnapshot {
                let snap = self.registry.snapshot();
                TcSnapshot {
                    $( $field: snap.counter($name), )+
                }
            }

            /// This instance's metrics registry.
            pub fn registry(&self) -> &Arc<Registry> {
                &self.registry
            }

            pub(crate) fn bump(c: &Counter) {
                c.inc();
            }

            pub(crate) fn add(c: &Counter, n: u64) {
                c.add(n);
            }
        }
    };
}

tc_stats! {
    /// Low-water-mark broadcasts skipped because the clamped mark had
    /// not advanced since the last one.
    lwm_skipped => "tc.lwm_skipped", "low-water-mark broadcasts skipped (not advanced)";
    /// Transactions committed.
    commits => "tc.commits", "transactions committed";
    /// Transactions aborted (user abort, deadlock, operation failure).
    aborts => "tc.aborts", "transactions aborted";
    /// Aborts caused by deadlock victims.
    deadlock_aborts => "tc.deadlock_aborts", "deadlock-victim aborts";
    /// Logged operations sent (first sends).
    ops_sent => "tc.ops_sent", "logged operations sent";
    /// Resends of operations (lost/late replies).
    resends => "tc.resends", "operation resends";
    /// Unlogged reads/probes/scans sent.
    reads_sent => "tc.reads_sent", "unlogged reads sent";
    /// Replies that arrived after their waiter gave up (duplicates).
    stale_replies => "tc.stale_replies", "stale replies received";
    /// Checkpoints taken.
    checkpoints => "tc.checkpoints", "checkpoints taken";
    /// Operations resent during recovery (redo).
    redo_resends => "tc.redo_resends", "recovery redo resends";
    /// Version reverts sent during rollback/recovery (undo): one per
    /// key a rolled-back transaction wrote.
    undo_ops => "tc.undo_ops", "undo operations sent";
    /// Redo-only records (commit stamps and version reverts) a DC
    /// answered with an error: a DC that does not honour the stamp and
    /// revert contract shows up here instead of failing silently.
    redo_only_rejects => "tc.redo_only_rejects", "stamps and reverts a DC rejected";
    /// DC-crash recoveries driven.
    dc_recoveries => "tc.dc_recoveries", "DC recoveries driven";
    /// EOSL/LWM publications skipped because a group-commit leader's
    /// broadcast already covered this committer's frontier.
    publishes_coalesced => "tc.publishes_coalesced", "coalesced EOSL/LWM publications";
    /// Coalesced `ReplyBatch` messages received (each advanced the ack
    /// frontier once for all the acks it carried).
    reply_batches => "tc.reply_batches", "coalesced reply batches received";
    /// Replication `ShipBatch` datagrams put on the wire (resends
    /// included).
    ship_batches => "tc.ship_batches", "replication ship batches sent";
    /// Redo records carried inside those batches.
    ship_records => "tc.ship_records", "redo records shipped";
    /// Reads served by a replica (routing found a fresh-enough one).
    replica_reads => "tc.replica_reads", "replica-served reads";
    /// Replica-eligible reads that fell back to the primary (no replica
    /// covered the requested snapshot, or the chosen replica failed).
    replica_read_fallbacks => "tc.replica_read_fallbacks", "replica reads that fell back";
    /// Failover promotions driven (replica → writable primary).
    promotions => "tc.promotions", "failover promotions driven";
    /// Cross-TC 2PC: participant branches prepared (yes votes).
    prepares => "tc.prepares", "participant branches prepared";
    /// Cross-TC 2PC: distributed transactions committed at this
    /// coordinator (also counted in `commits`).
    cross_commits => "tc.cross_commits", "distributed transactions committed";
    /// Cross-TC 2PC: distributed transactions aborted at this
    /// coordinator (prepare refused, or coordinator-side failure).
    cross_aborts => "tc.cross_aborts", "distributed transactions aborted";
    /// Cross-TC 2PC: in-doubt participant branches resolved against the
    /// coordinator's log (recovery or explicit re-resolution).
    indoubt_resolved => "tc.indoubt_resolved", "in-doubt branches resolved";
    /// Elastic rebalance: range moves completed at this TC as the
    /// source (RebalanceDone forced).
    rebalances => "tc.rebalances", "range moves completed";
    /// Elastic rebalance: forwards rejected here because the sender's
    /// map epoch was stale (the op was not executed).
    stale_forward_rejects => "tc.stale_forward_rejects", "stale-epoch forwards rejected";
    /// Elastic rebalance: forwards re-routed by this (sender) TC after
    /// a stale-epoch rejection.
    stale_forward_reroutes => "tc.stale_forward_reroutes", "forwards re-routed after rejection";
    /// Elastic rebalance: local ops that slept on a fence, woke after
    /// it resolved, and re-resolved their owner under the republished
    /// map instead of executing under lapsed authority.
    fence_reroutes => "tc.fence_reroutes", "ops re-routed after a fence";
    /// Serializable locking point reads served (S record lock taken).
    lock_reads => "tc.lock_reads", "locking point reads served";
    /// Lock-free MVCC snapshot point reads served from the primary
    /// (explicit snapshot requests plus replica-read fallbacks).
    snapshot_reads => "tc.snapshot_reads", "snapshot point reads served";
    /// Commit-stamp operations sent to DCs (one per distinct key a
    /// committed transaction wrote).
    stamps_sent => "tc.stamps_sent", "commit stamps sent";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_tracks_bumps() {
        let s = TcStats::default();
        TcStats::bump(&s.commits);
        TcStats::bump(&s.resends);
        TcStats::bump(&s.resends);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.resends, 2);
    }

    #[test]
    fn key_sketch_median_and_window() {
        let k = KeySketch::new(8);
        assert_eq!(k.observed(), 0);
        assert_eq!(k.median_in(0, u64::MAX), None);
        for p in [10u64, 20, 30, 40, 50] {
            k.record(p);
        }
        assert_eq!(k.observed(), 5);
        assert_eq!(k.count_in(15, 45), 3);
        assert_eq!(k.median_in(0, u64::MAX), Some(30));
        // No sample inside the probed range: no median is observable.
        assert_eq!(k.median_in(100, 200), None);
        // Overflow the ring: old samples age out, recency wins.
        for p in [100u64, 100, 100, 100, 100, 100, 100, 100] {
            k.record(p);
        }
        assert_eq!(k.observed(), 8);
        assert_eq!(k.median_in(0, u64::MAX), Some(100));
    }

    #[test]
    fn registry_carries_every_counter() {
        let s = TcStats::default();
        TcStats::add(&s.stamps_sent, 5);
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("tc.stamps_sent"), 5);
        assert!(snap.histogram("tc.commit_ns").is_some());
        assert!(snap.histogram("tc.commit_stage.twopc_ns").is_some());
    }
}
