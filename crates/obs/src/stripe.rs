//! Per-thread striping for shared hot-path state.
//!
//! A counter or histogram that every thread bumps is one cache line
//! every core writes: two client threads recording the same metric
//! bounce that line between them on every operation. Striping gives
//! each thread its own copy — a thread writes only its stripe, readers
//! sum the stripes — so recording stays a local write.
//!
//! Threads draw a stripe index once, round-robin, so up to
//! [`STRIPES`] threads never share one.
//!
//! [`ReadMostly`] applies the same idea to a lock: a reader takes only
//! its own stripe's read lock, a writer takes all of them and changes
//! every stripe's copy.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per striped value.
pub const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// This thread's stripe index, in `0..STRIPES`.
#[inline]
pub fn stripe() -> usize {
    STRIPE.with(|s| *s)
}

/// A value padded to its own cache-line pair, so neighbours in an
/// array of stripes never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Padded<T>(pub T);

/// A monotone counter striped per thread: [`StripedU64::add`] writes
/// only the caller's stripe; [`StripedU64::get`] sums them.
#[derive(Debug, Default)]
pub struct StripedU64 {
    stripes: [Padded<AtomicU64>; STRIPES],
}

impl StripedU64 {
    /// Add `n` on this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The sum over every stripe: exact once writers are quiet, and
    /// never below a count whose `add` returned before the read began.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A reader-writer lock for data that is read on hot paths and written
/// rarely (a "big-reader" lock). Each stripe holds its own copy of the
/// value: [`ReadMostly::read`] read-locks only the calling thread's
/// stripe, so concurrent readers on different threads write no common
/// cache line, and [`ReadMostly::write`] write-locks every stripe, in
/// order, and applies each change to every copy.
///
/// Like any reader-writer lock, a thread must not take a read guard it
/// already holds while a writer may be waiting, nor write while reading.
pub struct ReadMostly<T> {
    stripes: [Padded<RwLock<T>>; STRIPES],
}

impl<T: Clone + Default> Default for ReadMostly<T> {
    fn default() -> Self {
        ReadMostly::new(T::default())
    }
}

impl<T: Clone> ReadMostly<T> {
    /// One copy of `value` per stripe.
    pub fn new(value: T) -> Self {
        ReadMostly {
            stripes: std::array::from_fn(|_| Padded(RwLock::new(value.clone()))),
        }
    }

    /// Shared access to this thread's stripe's copy.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.stripes[stripe()].0.read()
    }

    /// Exclusive access to every copy: write-locks every stripe.
    pub fn write(&self) -> ReadMostlyWriteGuard<'_, T> {
        ReadMostlyWriteGuard {
            copies: self.stripes.iter().map(|s| s.0.write()).collect(),
        }
    }
}

/// Exclusive access to a [`ReadMostly`]: every stripe's copy, locked.
pub struct ReadMostlyWriteGuard<'a, T> {
    copies: Vec<RwLockWriteGuard<'a, T>>,
}

impl<T> ReadMostlyWriteGuard<'_, T> {
    /// The value (every copy is equal).
    pub fn get(&self) -> &T {
        &self.copies[0]
    }

    /// Apply `change` to every copy; returns what it returned for the
    /// first. `change` must act the same on equal copies.
    pub fn update<R>(&mut self, mut change: impl FnMut(&mut T) -> R) -> R {
        let (first, rest) = self.copies.split_first_mut().expect("STRIPES > 0");
        let out = change(first);
        for c in rest {
            change(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_sum_into_one_value() {
        let c = StripedU64::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        c.add(5);
        assert_eq!(c.get(), 4005);
    }

    #[test]
    fn read_mostly_writers_exclude_readers() {
        let v = ReadMostly::new((0u64, 0u64));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        v.write().update(|c| {
                            c.0 += 1;
                            c.1 += 1;
                        });
                    }
                });
                s.spawn(|| {
                    for _ in 0..2000 {
                        let g = v.read();
                        assert_eq!(g.0, g.1, "a reader saw a half-done write");
                    }
                });
            }
        });
        assert_eq!(*v.read(), (4000, 4000));
        assert_eq!(*v.write().get(), (4000, 4000));
    }

    #[test]
    fn stripes_are_round_robin_and_in_range() {
        let ids: Vec<usize> = (0..STRIPES)
            .map(|_| std::thread::spawn(stripe).join().unwrap())
            .collect();
        assert!(ids.iter().all(|&i| i < STRIPES));
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 128);
    }
}
