//! Online split/merge of the TC shard map (elastic repartitioning).
//!
//! The sharded transaction service only becomes *elastic* when a key
//! range can move between TCs without downtime. The move protocol is
//! driven by the kernel's `Deployment` against the **source** TC (the
//! current owner of the moving range) and is write-ahead logged in the
//! source's ordinary redo log:
//!
//! 1. **Intent** — the source forces a [`TcLogRecord::RebalanceIntent`]
//!    and installs a *fence* over the moving range. New transactions
//!    (and forwards) that would enter the range block, bounded by the
//!    lock timeout; transactions already holding a point inside the
//!    range are *drain members* and keep running under the old
//!    authority until they commit or abort.
//! 2. **Drain** — the driver waits until no live transaction holds a
//!    point inside the range ([`Tc::rebalance_drained`]), pumping 2PC
//!    decision redelivery and in-doubt resolution so cross-TC members
//!    finish. Nothing can be *stranded* by the handoff: 2PC decisions
//!    and replication shipping address TCs by id, not by key range, and
//!    the source keeps its self-contained log — `twopc_floor()` and
//!    `replication_floor()` keep pinning the source's log until every
//!    pinned decision is acknowledged and every group is shipped.
//! 3. **Done** — the source first *checkpoints until its RSSP covers
//!    its whole log*: redo authority moves with the range, and per-TC
//!    redo streams have no cross-TC order, so every pre-move effect
//!    must be stable at the DCs (and permanently outside the source's
//!    redo scan) before another TC may write the range. It then forces
//!    a [`TcLogRecord::RebalanceDone`]
//!    (recording its `min(stable, twopc_floor, replication_floor)`
//!    at handoff). Only after this record is stable does the driver
//!    **republish** the epoch-bumped map to every TC; installing it
//!    clears the fence. Forwarded operations carry the sender's map
//!    epoch and a stale-epoch forward is rejected and re-routed, never
//!    executed on a non-owning shard.
//!
//! Crash rules (enforced by recovery):
//! * Intent without Done ⇒ the move never took effect (no map with the
//!   new epoch was ever published, because publishing waits for Done to
//!   be stable). Recovery discards the intent; the old topology stands.
//! * Done with an epoch above the installed map's ⇒ the move committed
//!   but the republish may not have completed. Recovery re-installs the
//!   fence and records the move; the kernel finishes the republish when
//!   it reboots the TC.
//!
//! Moves may be operator-initiated (`Deployment::split_shard` /
//! `merge_shards` / `move_range`) or driven automatically by the
//! kernel's shard autopilot (`unbundled_kernel::RebalancePolicy`),
//! which watches per-shard commit rates, force-queue depth and the
//! [`KeySketch`](crate::stats::KeySketch) key-distribution window and
//! runs this same protocol — this module is the mechanism and stays
//! policy-free.

use crate::stats::TcStats;
use crate::tc::{Tc, TxnState};
use crate::tclog::TcLogRecord;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{route_point, Key, Lsn, TcError, TcId, TxnId};

/// A fence over a key range moving away from this TC: installed with
/// the forced [`TcLogRecord::RebalanceIntent`], cleared when a shard
/// map with `epoch >= self.epoch` is installed.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceFence {
    /// Inclusive low end of the moving range.
    pub lo: u64,
    /// Inclusive high end of the moving range.
    pub hi: u64,
    /// The TC gaining the range.
    pub to: TcId,
    /// The epoch the republished map will carry.
    pub epoch: u64,
}

impl RebalanceFence {
    /// Whether the fence covers shard point `p`.
    pub fn covers(&self, p: u64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

impl Tc {
    fn fence_timeout(&self) -> Duration {
        self.cfg.lock_timeout.unwrap_or(Duration::from_secs(2))
    }

    /// Local-path fence check, called before any lock is drawn for an
    /// op on `point`. Atomically (under the fence mutex) either records
    /// the point in the transaction's `shard_points` — making it
    /// visible to a concurrent drain check — or blocks until the fence
    /// clears. A transaction already holding a point inside the fence
    /// is a drain member and passes through. Timing out rolls the
    /// transaction back (like a lock timeout: the move must not be
    /// blockable forever by a queue of new entrants).
    ///
    /// Returns `Ok(true)` when the point was admitted (and recorded).
    /// Returns `Ok(false)` when the op *slept on a fence that then
    /// resolved*: the usual resolution is a completed move, which
    /// republished a map under which this TC no longer owns the point.
    /// The caller must re-resolve the owner and forward instead of
    /// executing here — the routing decision it made before sleeping
    /// was under the pre-move map, and lock and redo authority for the
    /// range may have moved away with the fence.
    pub(crate) fn fence_pass(
        &self,
        txn: TxnId,
        st: &Arc<Mutex<TxnState>>,
        point: u64,
    ) -> Result<bool, TcError> {
        let deadline = Instant::now() + self.fence_timeout();
        let mut fence = self.rebalance_fence.lock();
        let mut waited = false;
        loop {
            let blocked = match fence.as_ref() {
                Some(f) if f.covers(point) => {
                    let mut g = st.lock();
                    if g.shard_points.iter().any(|p| f.covers(*p)) {
                        g.shard_points.insert(point);
                        false
                    } else {
                        true
                    }
                }
                _ => {
                    if waited {
                        TcStats::bump(&self.stats().fence_reroutes);
                        return Ok(false);
                    }
                    st.lock().shard_points.insert(point);
                    false
                }
            };
            if !blocked {
                return Ok(true);
            }
            if self.fence_cv.wait_until(&mut fence, deadline).timed_out() {
                drop(fence);
                self.rollback(txn)?;
                return Err(TcError::LockTimeout(txn));
            }
            if self.ensure_available().is_err() {
                return Err(TcError::Unavailable(self.id()));
            }
            waited = true;
        }
    }

    /// Participant-side admission check for a forwarded op on `key`
    /// carrying the sender's map `epoch`. Runs *before* any branch
    /// state is created, so a rejection needs no repair at the sender:
    ///
    /// * a fence over the key's point blocks the forward (bounded)
    ///   unless the sender's existing branch here is a drain member;
    /// * once unfenced, an epoch mismatch — or a key this shard does
    ///   not own under its installed map — is rejected with
    ///   [`TcError::StaleShardMap`] instead of being executed on a
    ///   non-owning shard.
    pub(crate) fn check_forwarded(
        &self,
        coord: TcId,
        gtxn: TxnId,
        key: &Key,
        epoch: u64,
    ) -> Result<(), TcError> {
        let point = route_point(key);
        let deadline = Instant::now() + self.fence_timeout();
        let mut fence = self.rebalance_fence.lock();
        while let Some(f) = fence.as_ref().copied() {
            if !f.covers(point) {
                break;
            }
            let member = self
                .participants
                .lock()
                .get(&(coord, gtxn))
                .copied()
                .and_then(|local| self.txns.get(local))
                .map(|st| {
                    let mut g = st.lock();
                    if g.shard_points.iter().any(|p| f.covers(*p)) {
                        g.shard_points.insert(point);
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if member {
                return Ok(());
            }
            if self.fence_cv.wait_until(&mut fence, deadline).timed_out() {
                return Err(TcError::LockTimeout(gtxn));
            }
            self.ensure_available()
                .map_err(|_| TcError::Unavailable(self.id()))?;
        }
        drop(fence);
        let local_owner = {
            let g = self.shard_map.read();
            g.as_ref().is_some_and(|m| m.tc_for(key) == self.id())
        };
        if epoch != self.map_epoch() || !local_owner {
            TcStats::bump(&self.stats().stale_forward_rejects);
            return Err(TcError::StaleShardMap {
                tc: self.id(),
                epoch: self.map_epoch(),
            });
        }
        Ok(())
    }

    /// Clear a fence whose epoch the newly installed map covers, waking
    /// blocked work (called by [`Tc::set_shard_map`]).
    pub(crate) fn clear_fence_up_to(&self, epoch: u64) {
        let mut fence = self.rebalance_fence.lock();
        if fence.is_some_and(|f| f.epoch <= epoch) {
            *fence = None;
            drop(fence);
            self.fence_cv.notify_all();
        }
    }

    /// Wake fence waiters unconditionally (volatile crash: waiters must
    /// observe unavailability rather than sleep out their timeout).
    pub(crate) fn abandon_fence(&self) {
        *self.rebalance_fence.lock() = None;
        self.fence_cv.notify_all();
    }

    /// Phase 1 of a range move out of this TC: force the write-ahead
    /// [`TcLogRecord::RebalanceIntent`] and install the fence over
    /// `[lo, hi]`. The caller (the kernel's rebalance driver) must hold
    /// the current map's ownership of the whole range at this TC.
    pub fn begin_rebalance(&self, lo: u64, hi: u64, to: TcId, epoch: u64) -> Result<(), TcError> {
        self.ensure_available()?;
        debug_assert!(
            self.shard_map
                .read()
                .as_ref()
                .is_some_and(|m| m.range_containing(lo).2 == self.id()
                    && m.range_containing(hi).2 == self.id()),
            "rebalance source must own the moving range"
        );
        {
            let mut fence = self.rebalance_fence.lock();
            assert!(fence.is_none(), "one rebalance at a time per TC");
            self.log_bookkeeping(TcLogRecord::RebalanceIntent { lo, hi, to, epoch });
            self.force_log();
            *fence = Some(RebalanceFence { lo, hi, to, epoch });
        }
        Ok(())
    }

    /// Whether no live transaction holds a shard point inside
    /// `[lo, hi]` — the drain-complete condition. Checked under the
    /// fence mutex, which `fence_pass` also holds while recording
    /// points, so a transaction is either visible here or will block on
    /// the fence.
    pub fn rebalance_drained(&self, lo: u64, hi: u64) -> bool {
        let _fence = self.rebalance_fence.lock();
        !self
            .txns
            .all()
            .iter()
            .any(|(_, st)| st.lock().shard_points.iter().any(|p| *p >= lo && *p <= hi))
    }

    /// Phase 3: the range is drained — force the
    /// [`TcLogRecord::RebalanceDone`] that commits the move. Returns
    /// the recorded durability floor. The caller must republish the
    /// epoch-`epoch` map to every TC afterwards (installing it here
    /// clears the fence).
    pub fn finish_rebalance(&self, lo: u64, hi: u64, to: TcId, epoch: u64) -> Result<Lsn, TcError> {
        self.ensure_available()?;
        debug_assert!(
            self.rebalance_fence
                .lock()
                .is_some_and(|f| f.lo == lo && f.hi == hi && f.epoch == epoch),
            "finish_rebalance without a matching begin_rebalance"
        );
        // The handoff moves *redo authority* along with lock authority.
        // Per-TC redo streams carry no cross-TC order, so once the
        // target starts writing the range, a crash must never make this
        // TC redo its old ops over the target's newer ones (a replayed
        // insert would resurrect a row the new owner deleted).
        // Checkpoint until the granted RSSP covers everything logged
        // here — the drained fence guarantees no further ops enter the
        // range — so every pre-move effect is stable at the DCs and
        // permanently outside this TC's redo scan before Done commits
        // the move.
        let target = self.log.last().next();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.checkpoint()? < target {
            if Instant::now() > deadline {
                return Err(TcError::Unavailable(self.id()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut floor = self.log.stable();
        if let Some(f) = self.twopc_floor() {
            floor = floor.min(f);
        }
        if let Some(f) = self.shipper.replication_floor() {
            floor = floor.min(f);
        }
        self.log_bookkeeping(TcLogRecord::RebalanceDone {
            lo,
            hi,
            to,
            epoch,
            floor,
        });
        self.force_log();
        TcStats::bump(&self.stats().rebalances);
        Ok(floor)
    }

    /// The active fence, if any (diagnostics; a quiesced TC reports
    /// `None`).
    pub fn fence_info(&self) -> Option<RebalanceFence> {
        *self.rebalance_fence.lock()
    }

    /// A committed-but-unpublished move found during recovery:
    /// `(lo, hi, to, epoch)`. The kernel consumes this after rebooting
    /// the TC and finishes the map republish.
    pub fn take_recovered_rebalance(&self) -> Option<(u64, u64, TcId, u64)> {
        self.recovered_rebalance.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TcConfig;
    use unbundled_core::{Key, TcShardMap};
    use unbundled_storage::LogStore;

    fn bare_tc(id: TcId) -> Arc<Tc> {
        let cfg = TcConfig {
            lock_timeout: Some(Duration::from_millis(50)),
            ..TcConfig::default()
        };
        Tc::new(id, cfg, Arc::new(LogStore::new()))
    }

    #[test]
    fn stale_epoch_forward_is_rejected_not_executed() {
        let tc = bare_tc(TcId(1));
        tc.set_shard_map(TcShardMap::even(&[TcId(1), TcId(2)]));
        // Key in TC1's half, but the sender claims epoch 7 — reject.
        let err = tc
            .check_forwarded(TcId(2), TxnId(9), &Key::from_u64(1), 7)
            .unwrap_err();
        assert_eq!(
            err,
            TcError::StaleShardMap {
                tc: TcId(1),
                epoch: 0
            }
        );
        // Matching epoch but a key TC1 does not own — also rejected.
        let err = tc
            .check_forwarded(TcId(2), TxnId(9), &Key::from_u64(u64::MAX - 1), 0)
            .unwrap_err();
        assert!(matches!(err, TcError::StaleShardMap { .. }));
        assert_eq!(tc.stats().snapshot().stale_forward_rejects, 2);
        // Matching epoch, owned key: admitted.
        tc.check_forwarded(TcId(2), TxnId(9), &Key::from_u64(1), 0)
            .unwrap();
    }

    #[test]
    fn fence_blocks_forward_until_timeout_then_map_install_unblocks() {
        let tc = bare_tc(TcId(1));
        let map = TcShardMap::even(&[TcId(1), TcId(2)]);
        tc.set_shard_map(map.clone());
        tc.begin_rebalance(0, 100, TcId(2), 1).unwrap();
        // A forward into the fenced range (non-member) times out.
        let err = tc
            .check_forwarded(TcId(2), TxnId(9), &Key::from_u64(5), 0)
            .unwrap_err();
        assert_eq!(err, TcError::LockTimeout(TxnId(9)));
        // Publishing the epoch-1 map clears the fence; the same forward
        // now fails the *epoch* test instead of blocking (sender must
        // re-route under the new map).
        tc.set_shard_map(map.with_range_owner(0, 100, TcId(2), 1));
        assert!(tc.fence_info().is_none());
        let err = tc
            .check_forwarded(TcId(2), TxnId(9), &Key::from_u64(5), 0)
            .unwrap_err();
        assert!(matches!(err, TcError::StaleShardMap { epoch: 1, .. }));
    }

    #[test]
    fn intent_then_done_records_are_forced() {
        let tc = bare_tc(TcId(1));
        tc.set_shard_map(TcShardMap::even(&[TcId(1), TcId(2)]));
        tc.begin_rebalance(0, 100, TcId(2), 1).unwrap();
        assert!(tc.rebalance_drained(0, 100));
        // The intent is forced (and stable) the moment the fence goes up.
        assert!(tc
            .log
            .store()
            .read_all_stable()
            .iter()
            .any(|(_, r)| matches!(
                r,
                TcLogRecord::RebalanceIntent {
                    lo: 0,
                    hi: 100,
                    to: TcId(2),
                    epoch: 1
                }
            )));
        tc.finish_rebalance(0, 100, TcId(2), 1).unwrap();
        // finish_rebalance checkpoints first (redo authority handoff),
        // which may truncate the prefix holding the intent — but Done is
        // forced after the checkpoint and must be stable.
        assert!(tc
            .log
            .store()
            .read_all_stable()
            .iter()
            .any(|(_, r)| matches!(r, TcLogRecord::RebalanceDone { epoch: 1, .. })));
        assert_eq!(tc.stats().snapshot().rebalances, 1);
    }
}
