//! The TC's table of live transactions, sharded so that client threads
//! never share a lock or a counter on the way through `begin`, every
//! operation's state lookup and the commit.
//!
//! A transaction id carries the stripe of the thread that began it
//! (`id % STRIPES`), drawn from that stripe's own counter; the shard
//! holding the transaction is the same stripe. Threads on different
//! stripes therefore allocate ids and find their transactions without
//! touching a common cache line. Ids stay unique per TC and grow per
//! stripe; nothing orders transactions by id.

use crate::tc::TxnState;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unbundled_core::{Lsn, TxnId};
use unbundled_obs::stripe::{stripe, Padded, STRIPES};

/// A live transaction's state, shared by the calls that act on it.
pub(crate) type TxnRef = Arc<Mutex<TxnState>>;

/// Live transactions by id. See the module docs.
pub(crate) struct TxnTable {
    shards: [Padded<Mutex<HashMap<TxnId, TxnRef>>>; STRIPES],
    /// Per-stripe id sequence: stripe `s` hands out `seq * STRIPES + s`.
    next: [Padded<AtomicU64>; STRIPES],
}

impl Default for TxnTable {
    fn default() -> Self {
        TxnTable {
            shards: std::array::from_fn(|_| Padded(Mutex::new(HashMap::new()))),
            next: std::array::from_fn(|_| Padded(AtomicU64::new(1))),
        }
    }
}

impl TxnTable {
    fn shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, TxnRef>> {
        &self.shards[(txn.0 % STRIPES as u64) as usize].0
    }

    /// A fresh id on the calling thread's stripe.
    pub(crate) fn next_id(&self) -> TxnId {
        let s = stripe();
        let seq = self.next[s].0.fetch_add(1, Ordering::Relaxed);
        TxnId(seq * STRIPES as u64 + s as u64)
    }

    /// Make every id handed out from now on exceed `floor` (recovery:
    /// ids found in the log must not be reissued).
    pub(crate) fn bump_past(&self, floor: u64) {
        for n in &self.next {
            n.0.fetch_max(floor / STRIPES as u64 + 1, Ordering::Relaxed);
        }
    }

    pub(crate) fn insert(&self, txn: TxnId, st: TxnState) {
        self.shard(txn).lock().insert(txn, Arc::new(Mutex::new(st)));
    }

    pub(crate) fn get(&self, txn: TxnId) -> Option<TxnRef> {
        self.shard(txn).lock().get(&txn).cloned()
    }

    pub(crate) fn remove(&self, txn: TxnId) -> Option<TxnRef> {
        self.shard(txn).lock().remove(&txn)
    }

    pub(crate) fn contains(&self, txn: TxnId) -> bool {
        self.shard(txn).lock().contains_key(&txn)
    }

    /// Every live transaction, shard by shard (not one atomic cut:
    /// callers that need one hold a lock that excludes the changes they
    /// care about, as the rebalance drain holds the fence mutex).
    pub(crate) fn all(&self) -> Vec<(TxnId, TxnRef)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.0.lock()
                    .iter()
                    .map(|(t, st)| (*t, st.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Drop every transaction (TC crash).
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            s.0.lock().clear();
        }
    }
}

/// Open pinned-snapshot positions (LSN → pin count), striped like the
/// transaction table: a transaction pins and unpins on the stripe it
/// pinned from, and only the low-water-mark publication, which reads
/// the oldest pin, visits every stripe.
pub(crate) struct SnapshotPins {
    stripes: [Padded<Mutex<BTreeMap<u64, usize>>>; STRIPES],
}

impl Default for SnapshotPins {
    fn default() -> Self {
        SnapshotPins {
            stripes: std::array::from_fn(|_| Padded(Mutex::new(BTreeMap::new()))),
        }
    }
}

impl SnapshotPins {
    /// Pin `at` from the calling thread's stripe; returns the stripe to
    /// unpin from.
    pub(crate) fn pin(&self, at: Lsn) -> usize {
        let s = stripe();
        *self.stripes[s].0.lock().entry(at.0).or_insert(0) += 1;
        s
    }

    /// Move one pin on stripe `s` from `from` to `to`.
    pub(crate) fn repin(&self, s: usize, from: Lsn, to: Lsn) {
        let mut g = self.stripes[s].0.lock();
        *g.entry(to.0).or_insert(0) += 1;
        drop(g);
        self.unpin(s, from);
    }

    /// Drop one pin of `at` taken on stripe `s`.
    pub(crate) fn unpin(&self, s: usize, at: Lsn) {
        let mut g = self.stripes[s].0.lock();
        if let Some(n) = g.get_mut(&at.0) {
            *n -= 1;
            if *n == 0 {
                g.remove(&at.0);
            }
        }
    }

    /// The oldest open pin, if any.
    pub(crate) fn oldest(&self) -> Option<Lsn> {
        self.stripes
            .iter()
            .filter_map(|s| s.0.lock().keys().next().copied())
            .min()
            .map(Lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_across_threads_and_find_their_shard() {
        let t = TxnTable::default();
        let ids: Vec<TxnId> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| t.next_id()).collect::<Vec<_>>()))
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
        assert!(ids.iter().all(|id| id.0 != 0));
        for id in &ids[..10] {
            t.insert(*id, TxnState::default());
            assert!(t.contains(*id));
        }
        assert_eq!(t.all().len(), 10);
        assert!(t.remove(ids[0]).is_some() && !t.contains(ids[0]));
    }

    #[test]
    fn bump_past_skips_every_logged_id() {
        let t = TxnTable::default();
        t.bump_past(1_000);
        std::thread::scope(|s| {
            for _ in 0..STRIPES {
                s.spawn(|| assert!(t.next_id().0 > 1_000));
            }
        });
    }
}
