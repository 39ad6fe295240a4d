//! The DC's buffer pool ("cache management … staging the data pages to
//! and from the disk as needed", paper Section 4.1.2(3)).
//!
//! The pool only manages frames; *flush eligibility* — the causality/WAL
//! check against the TC's end-of-stable-log and the page-sync policies of
//! Section 5.1.2 — is decided by the engine, which owns the per-TC state.

use crate::page::Page;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unbundled_core::PageId;
use unbundled_obs::stripe::ReadMostly;
use unbundled_storage::SimDisk;

/// How abstract LSNs are made stable with a page (Section 5.1.2, "Page
/// Sync"). The policy gates when a dirty page may be written.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Algorithm 1: refuse new operations on the page and wait until the
    /// TC's low-water mark covers every in-set entry, then write a scalar
    /// LSN. Delays the flush; costs no page space.
    WaitForLwm,
    /// Algorithm 2: write the entire abstract LSN into the page. Never
    /// delays; costs page space proportional to the in-set.
    FullAbLsn,
    /// Algorithm 3: wait until the total in-set size shrinks to at most
    /// this bound, then write the (small) abstract LSN.
    Bounded(usize),
}

struct Frame {
    page: Arc<RwLock<Page>>,
    /// CLOCK reference bit: set by a hit, cleared as the hand passes.
    referenced: AtomicBool,
}

/// Page frames with CLOCK (second-chance) replacement, the usual
/// approximation of LRU. Misses load from the disk.
///
/// The frame map is read-mostly: a hit read-locks only the calling
/// thread's stripe's copy of it ([`ReadMostly`]), and only misses,
/// installs and removals write it (every copy). A hit sets its frame's
/// reference bit, and only when it is clear, so pages every thread
/// visits (the root) stay read-only on the hit path. The clock ring
/// holds frames in load order; [`BufferPool::next_victim`] turns the
/// hand past referenced frames (clearing their bit) to the first one
/// that was not used since the hand last passed it.
pub struct BufferPool {
    frames: ReadMostly<HashMap<PageId, Arc<Frame>>>,
    /// The clock ring. May hold ids of frames already removed; the hand
    /// drops them when it reaches them.
    ring: Mutex<VecDeque<PageId>>,
    disk: SimDisk,
}

impl BufferPool {
    /// A pool over `disk`.
    pub fn new(disk: SimDisk) -> Self {
        BufferPool {
            frames: ReadMostly::new(HashMap::new()),
            ring: Mutex::new(VecDeque::new()),
            disk,
        }
    }

    /// The backing disk.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    fn touch(f: &Frame) {
        if !f.referenced.load(Ordering::Relaxed) {
            f.referenced.store(true, Ordering::Relaxed);
        }
    }

    fn new_frame(page: Page) -> Arc<Frame> {
        Arc::new(Frame {
            page: Arc::new(RwLock::new(page)),
            referenced: AtomicBool::new(false),
        })
    }

    /// Fetch a page, loading (and caching) the disk version on a miss.
    /// `None` if the page exists neither in cache nor on disk.
    pub fn get(&self, id: PageId) -> Option<Arc<RwLock<Page>>> {
        if let Some(page) = self.get_cached(id) {
            return Some(page);
        }
        let arc = {
            // The miss loads under the write lock, so no eviction can
            // slip between the disk read and the insert.
            let mut frames = self.frames.write();
            if let Some(f) = frames.get().get(&id) {
                Self::touch(f);
                return Some(f.page.clone());
            }
            let image = self.disk.read_page(id)?;
            let page = Page::decode(&image).ok()?;
            let frame = Self::new_frame(page);
            let arc = frame.page.clone();
            frames.update(|m| m.insert(id, frame.clone()));
            arc
        };
        self.ring.lock().push_back(id);
        Some(arc)
    }

    /// Fetch only if cached (reset and checkpoint walk the cache without
    /// faulting pages in).
    pub fn get_cached(&self, id: PageId) -> Option<Arc<RwLock<Page>>> {
        let frames = self.frames.read();
        frames.get(&id).map(|f| {
            Self::touch(f);
            f.page.clone()
        })
    }

    /// Install a new page (fresh allocation or recovery image), replacing
    /// any cached version.
    pub fn install(&self, page: Page) -> Arc<RwLock<Page>> {
        let id = page.id;
        let frame = Self::new_frame(page);
        let arc = frame.page.clone();
        let old = self.frames.write().update(|m| m.insert(id, frame.clone()));
        match old {
            Some(o) => o.page.write().evicted = true,
            None => self.ring.lock().push_back(id),
        }
        arc
    }

    /// Drop a page from the cache (eviction after flush, or page free).
    /// The frame is marked `evicted` so latch-holders retry.
    pub fn remove(&self, id: PageId) {
        let removed = self.frames.write().update(|m| m.remove(&id));
        if let Some(f) = removed {
            f.page.write().evicted = true;
        }
    }

    /// The next eviction candidate under the clock: the first cached
    /// page past the hand whose reference bit is clear (bits passed on
    /// the way are cleared). The candidate goes to the back of the ring;
    /// if it is not evicted it simply waits for the hand again. `None`
    /// when nothing is cached.
    pub fn next_victim(&self) -> Option<PageId> {
        let mut ring = self.ring.lock();
        let frames = self.frames.read();
        // Two turns clear every bit, so the hand finds a candidate.
        for _ in 0..=2 * ring.len() {
            let id = ring.pop_front()?;
            let Some(f) = frames.get(&id) else {
                continue; // removed since it was queued
            };
            ring.push_back(id);
            if !f.referenced.swap(false, Ordering::Relaxed) {
                return Some(id);
            }
        }
        None
    }

    /// Ids of all cached pages.
    pub fn cached_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.frames.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.frames.read().len()
    }

    /// True if no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.frames.read().is_empty()
    }

    /// Cached page ids in the order the clock would evict them: pages
    /// not referenced since the hand last passed, in ring order, then
    /// referenced ones (introspection; reads no bit).
    pub fn lru_order(&self) -> Vec<PageId> {
        let ring = self.ring.lock();
        let frames = self.frames.read();
        let (mut cold, hot): (Vec<PageId>, Vec<PageId>) = ring
            .iter()
            .filter(|id| frames.contains_key(id))
            .partition(|id| !frames[*id].referenced.load(Ordering::Relaxed));
        cold.extend(hot);
        cold
    }

    /// Drop every frame (complete DC crash: volatile state dies).
    pub fn clear(&self) {
        let drained: Vec<Arc<Frame>> = self
            .frames
            .write()
            .update(|m| m.drain().map(|(_, f)| f).collect());
        self.ring.lock().clear();
        for f in drained {
            f.page.write().evicted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unbundled_core::{Key, TableId};

    fn mk_page(id: u64) -> Page {
        Page::new_leaf(PageId(id), TableId(1), Key::empty(), None)
    }

    #[test]
    fn install_and_get() {
        let pool = BufferPool::new(SimDisk::new());
        pool.install(mk_page(2));
        assert!(pool.get(PageId(2)).is_some());
        assert!(pool.get(PageId(3)).is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn miss_loads_from_disk() {
        let disk = SimDisk::new();
        let mut p = mk_page(2);
        p.dirty = false;
        disk.write_page(PageId(2), p.encode());
        let pool = BufferPool::new(disk);
        assert!(pool.is_empty());
        let arc = pool.get(PageId(2)).unwrap();
        assert_eq!(arc.read().id, PageId(2));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn remove_marks_evicted() {
        let pool = BufferPool::new(SimDisk::new());
        let arc = pool.install(mk_page(2));
        pool.remove(PageId(2));
        assert!(arc.read().evicted);
        assert!(pool.get_cached(PageId(2)).is_none());
    }

    #[test]
    fn reinstall_evicts_old_frame() {
        let pool = BufferPool::new(SimDisk::new());
        let old = pool.install(mk_page(2));
        let new = pool.install(mk_page(2));
        assert!(old.read().evicted);
        assert!(!new.read().evicted);
    }

    #[test]
    fn lru_order_tracks_access() {
        let pool = BufferPool::new(SimDisk::new());
        pool.install(mk_page(2));
        pool.install(mk_page(3));
        pool.install(mk_page(4));
        // touch 2 so it becomes most recent
        pool.get(PageId(2));
        let order = pool.lru_order();
        assert_eq!(*order.last().unwrap(), PageId(2));
    }

    #[test]
    fn the_clock_passes_over_recently_used_pages() {
        let pool = BufferPool::new(SimDisk::new());
        for id in 2..6 {
            pool.install(mk_page(id));
        }
        pool.get(PageId(2));
        pool.get(PageId(3));
        assert_eq!(pool.next_victim(), Some(PageId(4)), "2 and 3 were used");
        assert_eq!(pool.next_victim(), Some(PageId(5)));
        // The hand cleared 2's and 3's bits on its way: they are next.
        assert_eq!(pool.next_victim(), Some(PageId(2)));
        pool.remove(PageId(3));
        assert_eq!(
            pool.next_victim(),
            Some(PageId(4)),
            "a removed page is skipped"
        );
    }

    #[test]
    fn clear_evicts_everything() {
        let pool = BufferPool::new(SimDisk::new());
        let a = pool.install(mk_page(2));
        pool.install(mk_page(3));
        pool.clear();
        assert!(pool.is_empty());
        assert!(a.read().evicted);
    }
}
