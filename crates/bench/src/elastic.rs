//! The elastic two-shard workload e15 and e17 share: two TCs over two
//! DCs behind one partitioned table route, worker-private keys committed
//! through whichever TC the current shard map names, and a check
//! afterwards that no acknowledged write was lost.

use crate::TABLE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unbundled_core::{DcId, Key, TableSpec, TcId, TcShardMap};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_tc::{GatherWindow, GroupCommitCfg, ReadConsistency, TableRoute, TcConfig};

const TCS: [TcId; 2] = [TcId(1), TcId(2)];
const DCS: [DcId; 2] = [DcId(1), DcId(2)];

/// Two TC shards over two DCs, wired all-to-all with one *shared*
/// partitioned table route: moving TC ownership of a key range never
/// moves the data underneath it, so the DC placement must be common
/// topology rather than per-TC opinion. `max_waiters` caps each shard's
/// group commit; `map` is the starting shard map.
pub fn deployment(max_waiters: usize, map: TcShardMap) -> Deployment {
    let tc_cfg = TcConfig {
        // Only the commit path may force.
        force_every: usize::MAX,
        resend_interval: Duration::from_millis(5),
        // Bounds the fence wait; a move completes in milliseconds, so
        // waiters resolve long before this, and even a pathological
        // timeout-plus-retry stays inside the disturbance budget.
        lock_timeout: Some(Duration::from_millis(300)),
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::adaptive(),
            max_waiters,
        }),
        ..TcConfig::default()
    };
    let route = TableRoute::Partitioned(Arc::new(vec![(u64::MAX / 2, DCS[0]), (u64::MAX, DCS[1])]));
    let mut d = Deployment::new();
    for dc in DCS {
        d.add_dc(dc, DcConfig::default());
    }
    for tc in TCS {
        d.add_tc(tc, tc_cfg.clone());
        for dc in DCS {
            d.connect(tc, dc, TransportKind::Inline);
        }
    }
    for dc in DCS {
        d.create_table(dc, TableSpec::plain(TABLE, "t"));
    }
    for tc in TCS {
        d.route(tc, TABLE, route.clone());
    }
    d.set_shard_map(map);
    d
}

/// Charge both shards' redo logs `latency` per force.
pub fn set_force_latency(d: &Deployment, latency: Duration) {
    for tc in TCS {
        d.tc_log(tc).set_force_latency(latency);
    }
}

/// The published map epoch, and whether every shard is at it with no
/// fence left behind.
pub fn settled(d: &Deployment) -> (u64, bool) {
    let epoch = d.shard_map().expect("sharded").epoch();
    let settled = TCS.iter().all(|id| {
        let tc = d.tc(*id);
        tc.map_epoch() == epoch && tc.fence_info().is_none()
    });
    (epoch, settled)
}

fn owner(d: &Deployment, key: &Key) -> TcId {
    d.shard_map().expect("sharded").tc_for(key)
}

/// Worker-private keys, `slots` per worker: the workload is
/// conflict-free, so the lost-ack check is exact (the last acknowledged
/// write is the last write).
pub struct Load {
    slots: usize,
    slot_key: fn(usize, usize) -> Key,
    /// Last acknowledged arrival index per (worker, slot); `u64::MAX` =
    /// never acked. A worker's arrivals are serviced in admission order
    /// on its own thread, so the last store is the last commit.
    last_acked: Vec<AtomicU64>,
    retries: AtomicU64,
}

impl Load {
    /// Preload every worker's keys through their owners.
    pub fn new(
        d: &Deployment,
        workers: usize,
        slots: usize,
        slot_key: fn(usize, usize) -> Key,
    ) -> Load {
        for w in 0..workers {
            for slot in 0..slots {
                let key = slot_key(w, slot);
                let tc = d.tc(owner(d, &key));
                let txn = tc.begin().expect("begin preload");
                tc.insert(txn, TABLE, key, vec![0u8; 8]).expect("preload");
                tc.commit(txn).expect("commit preload");
            }
        }
        Load {
            slots,
            slot_key,
            last_acked: (0..workers * slots)
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
            retries: AtomicU64::new(0),
        }
    }

    /// Worker `w` commits arrival `i` to its next slot, routing by the
    /// *current* map on every attempt (after a move, the same key
    /// commits through the new owner) until it is acknowledged.
    pub fn commit(&self, d: &Deployment, w: usize, i: usize) {
        let slot = i % self.slots;
        let key = (self.slot_key)(w, slot);
        let val = (i as u64).to_le_bytes().to_vec();
        loop {
            let tc = d.tc(owner(d, &key));
            let Ok(txn) = tc.begin() else {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            if tc.update(txn, TABLE, key.clone(), val.clone()).is_ok() && tc.commit(txn).is_ok() {
                self.last_acked[w * self.slots + slot].store(i as u64, Ordering::Release);
                return;
            }
            // A failed op already rolled the transaction back; a failed
            // commit aborted it. Either way re-route and re-issue.
            let _ = tc.abort(txn);
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Client-visible retries (re-routed and re-issued commits).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Keys whose current value is not the payload of their last
    /// acknowledged commit.
    pub fn lost_acks(&self, d: &Deployment) -> u64 {
        let mut lost = 0;
        for (idx, acked) in self.last_acked.iter().enumerate() {
            let acked = acked.load(Ordering::Acquire);
            if acked == u64::MAX {
                continue;
            }
            let key = (self.slot_key)(idx / self.slots, idx % self.slots);
            let tc = d.tc(owner(d, &key));
            let txn = tc.begin().expect("begin check");
            let got = tc
                .read(txn, TABLE, key, ReadConsistency::Locking)
                .expect("read check");
            tc.commit(txn).expect("commit check");
            if got.as_deref() != Some(acked.to_le_bytes().as_slice()) {
                lost += 1;
            }
        }
        lost
    }
}
