//! Counting global allocator: how many heap allocations, and how many
//! bytes, the whole process asks for. Read as deltas over the window
//! (`alloc.count_per_txn`, `alloc.bytes_per_txn`).
//!
//! Counters are striped over cache lines by thread so two busy threads
//! do not bounce one line on every `malloc`; the stripe sum is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe {
    count: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe {
    count: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static STRIPES_: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // No destructor and const-initialised, so touching it from inside
    // the allocator never allocates.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn record(size: usize) {
    let idx = MY_STRIPE
        .try_with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            c.get()
        })
        .unwrap_or(0);
    // Relaxed: statistics only, publishes no other data.
    STRIPES_[idx].count.fetch_add(1, Ordering::Relaxed);
    STRIPES_[idx]
        .bytes
        .fetch_add(size as u64, Ordering::Relaxed);
}

/// The system allocator plus the two counters.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counting
// touches only atomics and a destructor-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn totals() -> (u64, u64) {
    STRIPES_.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.count.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
