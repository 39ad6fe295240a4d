//! Ack tracking: computing the low-water mark the TC sends to DCs
//! (Section 5.1.2, "Establishing LSNlw").
//!
//! The DC cannot know by itself which LSNs below some point are all
//! applied — multithreading delivers operations out of LSN order. The TC
//! can: the LWM is the largest LSN such that every operation with a
//! lower-or-equal LSN has been replied to. Non-operation log records
//! (Commit/Prepare/Checkpoint/…) also consume LSNs; they count as
//! instantly "acked".
//!
//! The same bookkeeping yields the **visible frontier** snapshot reads
//! pin to: the largest LSN such that every commit stamp at or below it
//! has been delivered. A commit's stamps sit below its commit LSN, so a
//! snapshot at or below the frontier sees each commit whole or not at
//! all. It is published in an atomic, so readers take no lock.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use unbundled_core::Lsn;

/// Tracks outstanding (sent, unacknowledged) operation LSNs.
#[derive(Default)]
pub struct AckTracker {
    inner: Mutex<AckInner>,
    /// The visible frontier (see the module docs), stored under `inner`
    /// whenever it moves.
    visible: AtomicU64,
}

#[derive(Default)]
struct AckInner {
    /// LSNs sent but not yet acked.
    outstanding: BTreeSet<u64>,
    /// The commit stamps among `outstanding`.
    stamps: BTreeSet<u64>,
    /// Highest LSN ever assigned (by anyone — ops or bookkeeping).
    highest: u64,
}

impl AckInner {
    fn visible(&self) -> u64 {
        match self.stamps.first() {
            Some(&min) => min - 1,
            None => self.highest,
        }
    }
}

impl AckTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn publish(&self, g: &AckInner) {
        // Store only on a change: readers on other cores keep the line.
        let v = g.visible();
        if self.visible.load(Ordering::Relaxed) != v {
            self.visible.store(v, Ordering::Release);
        }
    }

    /// Note that `lsn` was assigned to an operation now in flight.
    pub fn sent(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.outstanding.insert(lsn.0);
        g.highest = g.highest.max(lsn.0);
        self.publish(&g);
    }

    /// Note that `lsn` was assigned to a commit stamp now in flight:
    /// the visible frontier stays below it until it is acknowledged.
    pub fn stamp_sent(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.outstanding.insert(lsn.0);
        g.stamps.insert(lsn.0);
        g.highest = g.highest.max(lsn.0);
        self.publish(&g);
    }

    /// Note a non-operation LSN (instantly complete).
    pub fn bookkeeping(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.highest = g.highest.max(lsn.0);
        self.publish(&g);
    }

    /// Note that `lsn` was acknowledged.
    pub fn acked(&self, lsn: Lsn) {
        self.acked_many([lsn]);
    }

    /// Note a whole batch of acknowledgements (a [`ReplyBatch`] arrived):
    /// one lock acquisition — and therefore one low-water-mark frontier
    /// advance — per batch instead of per ack, and none for a batch that
    /// acks no operation (read replies).
    ///
    /// [`ReplyBatch`]: unbundled_core::DcToTc::ReplyBatch
    pub fn acked_many(&self, lsns: impl IntoIterator<Item = Lsn>) {
        let mut lsns = lsns.into_iter().peekable();
        if lsns.peek().is_none() {
            return;
        }
        let mut g = self.inner.lock();
        for lsn in lsns {
            if g.outstanding.remove(&lsn.0) {
                g.stamps.remove(&lsn.0);
            }
        }
        self.publish(&g);
    }

    /// The visible frontier: every commit stamp at or below it has been
    /// delivered. Lock-free.
    pub fn visible(&self) -> Lsn {
        Lsn(self.visible.load(Ordering::Acquire))
    }

    /// The low-water mark: all operations ≤ this LSN have replies.
    pub fn lwm(&self) -> Lsn {
        let g = self.inner.lock();
        match g.outstanding.first() {
            Some(&min) => Lsn(min - 1),
            None => Lsn(g.highest),
        }
    }

    /// Number of in-flight operations.
    pub fn outstanding(&self) -> usize {
        self.inner.lock().outstanding.len()
    }

    /// Forget everything (TC restart).
    pub fn reset(&self, highest: Lsn) {
        let mut g = self.inner.lock();
        g.outstanding.clear();
        g.stamps.clear();
        g.highest = highest.0;
        self.publish(&g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visible_frontier_waits_for_stamps_only() {
        let t = AckTracker::new();
        t.sent(Lsn(1)); // an operation in flight
        t.stamp_sent(Lsn(2));
        t.stamp_sent(Lsn(3));
        t.bookkeeping(Lsn(4)); // their commit record
        assert_eq!(t.visible(), Lsn(1), "stamp 2 undelivered");
        t.acked(Lsn(2));
        assert_eq!(t.visible(), Lsn(2), "stamp 3 undelivered");
        t.acked(Lsn(3));
        assert_eq!(
            t.visible(),
            Lsn(4),
            "every stamp delivered: an unacked op does not hold it"
        );
        assert_eq!(t.lwm(), Lsn(0), "the low-water mark still does");
        t.reset(Lsn(9));
        assert_eq!(t.visible(), Lsn(9));
    }

    #[test]
    fn lwm_is_contiguous_acked_prefix() {
        let t = AckTracker::new();
        t.sent(Lsn(1));
        t.sent(Lsn(2));
        t.sent(Lsn(3));
        assert_eq!(t.lwm(), Lsn(0));
        t.acked(Lsn(2)); // gap at 1 remains
        assert_eq!(t.lwm(), Lsn(0));
        t.acked(Lsn(1));
        assert_eq!(t.lwm(), Lsn(2));
        t.acked(Lsn(3));
        assert_eq!(t.lwm(), Lsn(3));
    }

    #[test]
    fn bookkeeping_lsns_do_not_block() {
        let t = AckTracker::new();
        t.bookkeeping(Lsn(1)); // Checkpoint record
        t.sent(Lsn(2));
        t.acked(Lsn(2));
        t.bookkeeping(Lsn(3)); // Commit record
        assert_eq!(t.lwm(), Lsn(3));
    }

    #[test]
    fn reset_clears_outstanding() {
        let t = AckTracker::new();
        t.sent(Lsn(5));
        t.reset(Lsn(10));
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.lwm(), Lsn(10));
    }

    #[test]
    fn fully_out_of_order_acks_advance_only_at_the_end() {
        let t = AckTracker::new();
        for l in 1..=5 {
            t.sent(Lsn(l));
        }
        // Ack in strictly reverse order: the gap at the front pins the
        // LWM until the very first LSN is acked.
        for l in (2..=5).rev() {
            t.acked(Lsn(l));
            assert_eq!(t.lwm(), Lsn(0), "gap at LSN 1 must pin the LWM");
        }
        t.acked(Lsn(1));
        assert_eq!(t.lwm(), Lsn(5));
    }

    #[test]
    fn gap_at_the_very_first_lsn_yields_lwm_zero() {
        let t = AckTracker::new();
        t.sent(Lsn(1));
        assert_eq!(t.lwm(), Lsn(0), "nothing acked: LWM is the null LSN");
        t.sent(Lsn(2));
        t.acked(Lsn(2));
        assert_eq!(t.lwm(), Lsn(0), "LSN 1 still outstanding");
        t.acked(Lsn(1));
        assert_eq!(t.lwm(), Lsn(2));
    }

    #[test]
    fn acked_many_advances_like_individual_acks() {
        let t = AckTracker::new();
        for l in 1..=6 {
            t.sent(Lsn(l));
        }
        // A batch covering a strict prefix with a gap left at 5.
        t.acked_many([Lsn(2), Lsn(1), Lsn(4), Lsn(3), Lsn(6)]);
        assert_eq!(t.lwm(), Lsn(4), "gap at 5 pins the LWM despite the batch");
        assert_eq!(t.outstanding(), 1);
        t.acked_many([Lsn(5), Lsn(99)]); // stale entries are harmless
        assert_eq!(t.lwm(), Lsn(6));
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn acking_an_unknown_lsn_is_harmless() {
        let t = AckTracker::new();
        t.sent(Lsn(3));
        t.acked(Lsn(99)); // stale/duplicate reply for something long done
        assert_eq!(t.lwm(), Lsn(2));
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn bookkeeping_lsns_interleaved_with_ops() {
        let t = AckTracker::new();
        t.bookkeeping(Lsn(1)); // Checkpoint
        t.sent(Lsn(2)); // op
        t.bookkeeping(Lsn(3)); // Commit of another txn
        t.sent(Lsn(4)); // op
        t.bookkeeping(Lsn(5)); // Commit
        assert_eq!(t.lwm(), Lsn(1), "ops at 2 and 4 outstanding");
        t.acked(Lsn(4));
        assert_eq!(t.lwm(), Lsn(1), "op at 2 still outstanding");
        t.acked(Lsn(2));
        assert_eq!(t.lwm(), Lsn(5), "bookkeeping LSNs fill every gap");
    }

    #[test]
    fn lwm_is_monotone_under_concurrent_assign_and_ack() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};

        let t = Arc::new(AckTracker::new());
        let done = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<u64>();

        // Assigner: sequential LSNs, mixing ops and bookkeeping (this is
        // what the TC's alloc lock guarantees in production).
        let assigner = {
            let t = t.clone();
            std::thread::spawn(move || {
                for lsn in 1..=4000u64 {
                    if lsn % 3 == 0 {
                        t.bookkeeping(Lsn(lsn));
                    } else {
                        t.sent(Lsn(lsn));
                        tx.send(lsn).unwrap();
                    }
                }
            })
        };
        // Acker: acks out of order within a sliding window of 8.
        let acker = {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut window: Vec<u64> = Vec::new();
                let mut state = 0x9E3779B97F4A7C15u64;
                let mut drain = |w: &mut Vec<u64>, all: bool| {
                    while w.len() >= 8 || (all && !w.is_empty()) {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let i = (state >> 33) as usize % w.len();
                        t.acked(Lsn(w.swap_remove(i)));
                    }
                };
                while let Ok(lsn) = rx.recv() {
                    window.push(lsn);
                    drain(&mut window, false);
                }
                drain(&mut window, true);
            })
        };
        // Observer: the published low-water mark must never move
        // backwards while sends and acks race.
        let observer = {
            let t = t.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = Lsn(0);
                while !done.load(Ordering::Acquire) {
                    let now = t.lwm();
                    assert!(now >= last, "LWM regressed: {last:?} -> {now:?}");
                    last = now;
                }
                last
            })
        };
        assigner.join().unwrap();
        acker.join().unwrap();
        done.store(true, Ordering::Release);
        let final_seen = observer.join().unwrap();
        assert_eq!(
            t.lwm(),
            Lsn(4000),
            "everything acked: LWM is the highest LSN"
        );
        assert!(final_seen <= Lsn(4000));
        assert_eq!(t.outstanding(), 0);
    }
}
