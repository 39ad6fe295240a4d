//! The dirty page table: per TC, each cached page that holds effects of
//! that TC's operations not yet on disk, with its *recLSN* — the lowest
//! op LSN applied to the page since its last flush (ARIES).
//!
//! A TC checkpoint asking for `new_rssp` must make stable every effect
//! of an operation below it. Those effects sit exactly on the pages
//! whose recLSN is below `new_rssp`, so the checkpoint flushes those
//! pages and nothing else, instead of scanning the cache.
//!
//! A page's own entries live on the page ([`Page::rec_lsn`], under its
//! latch), and the table mirrors them so a checkpoint can find the
//! pages without walking the cache. The table is written only when a
//! page's recLSN changes — its first op after a flush, or an op older
//! than any since — so a busy page costs one table update per flush
//! interval, not one per operation.
//!
//! Structure modifications carry the recLSN with the records they move
//! (a split's new page inherits the old page's, a consolidation merges
//! both). Pages that DC restart or a TC-crash reset re-dirties hold
//! effects the engine did not apply as logged operations, so they are
//! entered at the lowest LSN: the next checkpoint flushes them.

use crate::page::Page;
use parking_lot::Mutex;
use std::collections::HashMap;
use unbundled_core::{Lsn, PageId, TcId};

/// The recLSN of a page re-dirtied by restart or reset: below every
/// operation, so any checkpoint flushes the page.
pub(crate) const CONSERVATIVE: Lsn = Lsn(1);

/// Per-TC dirty page tables. See the module docs.
#[derive(Default)]
pub(crate) struct DirtyPages {
    tables: Mutex<HashMap<TcId, HashMap<PageId, Lsn>>>,
}

/// Lower `page`'s recLSN for `tc` to `lsn`; true if it changed.
fn lower(page: &mut Page, tc: TcId, lsn: Lsn) -> bool {
    match page.rec_lsn.iter_mut().find(|(t, _)| *t == tc) {
        Some((_, r)) if *r <= lsn => false,
        Some((_, r)) => {
            *r = lsn;
            true
        }
        None => {
            page.rec_lsn.push((tc, lsn));
            true
        }
    }
}

impl DirtyPages {
    fn record(&self, pid: PageId, changed: &[(TcId, Lsn)]) {
        if changed.is_empty() {
            return;
        }
        let mut tables = self.tables.lock();
        for &(tc, lsn) in changed {
            let r = tables.entry(tc).or_default().entry(pid).or_insert(lsn);
            *r = (*r).min(lsn);
        }
    }

    /// `tc`'s operation at `lsn` was applied to `page` (latched).
    pub(crate) fn applied(&self, page: &mut Page, tc: TcId, lsn: Lsn) {
        if lower(page, tc, lsn) {
            self.record(page.id, &[(tc, lsn)]);
        }
    }

    /// Records moved from `from` into `to` (split or consolidation):
    /// `to` inherits `from`'s recLSNs.
    pub(crate) fn carry(&self, from: &Page, to: &mut Page) {
        let changed: Vec<(TcId, Lsn)> = from
            .rec_lsn
            .iter()
            .copied()
            .filter(|&(tc, lsn)| lower(to, tc, lsn))
            .collect();
        self.record(to.id, &changed);
    }

    /// `page` was re-dirtied by DC restart or TC-crash reset: enter it
    /// at [`CONSERVATIVE`] for every TC with data on it.
    pub(crate) fn redirtied(&self, page: &mut Page) {
        let tcs: Vec<TcId> = page.ab.iter().map(|(tc, _)| tc).collect();
        let changed: Vec<(TcId, Lsn)> = tcs
            .into_iter()
            .filter(|&tc| lower(page, tc, CONSERVATIVE))
            .map(|tc| (tc, CONSERVATIVE))
            .collect();
        self.record(page.id, &changed);
    }

    /// `page` reached disk, or left the cache: it is clean for every TC.
    pub(crate) fn cleaned(&self, page: &mut Page) {
        page.rec_lsn.clear();
        self.forget(page.id);
    }

    /// Drop every entry for `pid` (a page that is gone from the cache).
    pub(crate) fn forget(&self, pid: PageId) {
        for t in self.tables.lock().values_mut() {
            t.remove(&pid);
        }
    }

    /// `tc`'s pages with recLSN below `below`, in page order.
    pub(crate) fn pages_below(&self, tc: TcId, below: Lsn) -> Vec<(PageId, Lsn)> {
        let tables = self.tables.lock();
        let mut v: Vec<(PageId, Lsn)> = tables
            .get(&tc)
            .map(|t| {
                t.iter()
                    .filter(|(_, r)| **r < below)
                    .map(|(p, r)| (*p, *r))
                    .collect()
            })
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Number of pages dirty for `tc`.
    pub(crate) fn len(&self, tc: TcId) -> usize {
        self.tables.lock().get(&tc).map_or(0, |t| t.len())
    }

    /// Forget everything (the cache died with a DC crash).
    pub(crate) fn clear(&self) {
        self.tables.lock().clear();
    }
}
