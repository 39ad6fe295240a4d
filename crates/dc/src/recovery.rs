//! DC restart (Section 5.2.2) and TC-crash page reset (Sections 5.3.2,
//! 6.1.2).
//!
//! **DC restart** replays *complete* system transactions from the stable
//! DC log against the stable page state, gated by per-page dLSNs, so the
//! search structures are well-formed *before* the TC begins logical redo.
//! System transactions thereby execute out of their original order
//! relative to TC operations — the physical images they logged (with
//! their abLSNs) are exactly what makes that sound.
//!
//! **TC-crash reset** removes from the DC cache precisely the effects of
//! operations the failed TC lost: causality guarantees no such effect is
//! on disk, and SMO image capture is EOSL-gated (see `engine.rs`), so the
//! stable basis of every page is clean. Two modes:
//! * **full drop** — replace each affected page by its stable basis
//!   (cheap, but in a multi-TC deployment it also discards other TCs'
//!   cached work: "turning a partial failure into a complete failure");
//! * **selective** — restore only the failed TC's records and abLSN
//!   (Section 6.1.2's per-record ownership chains), leaving other TCs
//!   untouched.

use crate::catalog::{Catalog, CATALOG_PAGE, FIRST_DATA_PAGE};
use crate::dclog::DcLogRecord;
use crate::engine::{DcConfig, DcEngine, ResetMode};
use crate::page::{Page, PageData};
use crate::stats::DcStats;
use std::collections::HashMap;
use std::sync::Arc;
use unbundled_core::{DLsn, DcId, Lsn, PageId, TcId};
use unbundled_storage::{LogStore, SimDisk};

impl DcEngine {
    /// Boot a DC from its stable state (disk + forced DC log): the
    /// "conventional recovery" half of Section 5.3.2, which must complete
    /// before any TC redo is accepted.
    pub fn recover(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Arc<DcEngine> {
        let engine = DcEngine::attach(id, cfg, disk.clone(), log);
        if let Some((catalog, next_page)) = Catalog::load(&disk) {
            engine.set_catalog(catalog);
            engine.set_next_page(next_page);
        }
        engine.replay_dclog();
        engine.compute_allocation_floor();
        engine.persist_catalog();
        engine
    }

    /// Replay complete system transactions from the stable DC log.
    pub(crate) fn replay_dclog(&self) {
        let records = self.dclog().complete_stable_records();
        let catalog = self.catalog();
        for (dlsn, rec) in records {
            self.apply_recovery_record(&catalog, dlsn, &rec, true);
        }
    }

    fn apply_recovery_record(
        &self,
        catalog: &Catalog,
        dlsn: DLsn,
        rec: &DcLogRecord,
        persistent: bool,
    ) {
        match rec {
            DcLogRecord::SysTxnBegin { .. }
            | DcLogRecord::SysTxnEnd { .. }
            | DcLogRecord::AllocPage { .. } => {}
            DcLogRecord::PageImage { page, image, .. } => {
                let newer = self
                    .recovery_page(*page)
                    .map(|a| a.read().dlsn >= dlsn)
                    .unwrap_or(false);
                if !newer {
                    if let Ok(mut p) = Page::decode(image) {
                        p.dlsn = dlsn;
                        p.dirty = true;
                        self.dirty_pages_table().redirtied(&mut p);
                        self.pool().install(p);
                    }
                }
            }
            DcLogRecord::SplitTruncate {
                page,
                split_key,
                new_page,
                ..
            } => {
                if let Some(arc) = self.recovery_page(*page) {
                    let mut g = arc.write();
                    if g.dlsn < dlsn {
                        match &mut g.data {
                            PageData::Leaf(v) => v.retain(|(k, _)| k < split_key),
                            PageData::Branch(v) => v.retain(|(k, _)| k < split_key),
                        }
                        g.high_fence = Some(split_key.clone());
                        if g.is_leaf() {
                            g.next_leaf = *new_page;
                        }
                        g.dlsn = dlsn;
                        g.dirty = true;
                        self.dirty_pages_table().redirtied(&mut g);
                    }
                }
            }
            DcLogRecord::BranchInsert {
                page, sep, child, ..
            } => {
                if let Some(arc) = self.recovery_page(*page) {
                    let mut g = arc.write();
                    if g.dlsn < dlsn {
                        let entries = g.branch_entries_mut();
                        match entries.binary_search_by(|(k, _)| k.cmp(sep)) {
                            Ok(i) => entries[i].1 = *child,
                            Err(i) => entries.insert(i, (sep.clone(), *child)),
                        }
                        g.dlsn = dlsn;
                        g.dirty = true;
                    }
                }
            }
            DcLogRecord::BranchRemove { page, sep, .. } => {
                if let Some(arc) = self.recovery_page(*page) {
                    let mut g = arc.write();
                    if g.dlsn < dlsn {
                        let entries = g.branch_entries_mut();
                        if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(sep)) {
                            entries.remove(i);
                        }
                        g.dlsn = dlsn;
                        g.dirty = true;
                    }
                }
            }
            DcLogRecord::FreePage { page, .. } => {
                self.pool().remove(*page);
                if persistent {
                    self.pool().disk().free_page(*page);
                }
            }
            DcLogRecord::RootChanged { table, root, .. } => {
                let mut cat_dlsn = catalog.dlsn.lock();
                if *cat_dlsn < dlsn {
                    if let Some(t) = catalog.get(*table) {
                        *t.root.lock() = *root;
                    }
                    *cat_dlsn = dlsn;
                }
            }
        }
    }

    fn recovery_page(&self, pid: PageId) -> Option<Arc<parking_lot::RwLock<Page>>> {
        self.pool().get(pid)
    }

    /// Recompute the page/systxn allocation floors from stable state
    /// (surviving any lost log tail).
    pub(crate) fn compute_allocation_floor(&self) {
        let mut max_page = FIRST_DATA_PAGE;
        for pid in self.pool().disk().page_ids() {
            if pid != CATALOG_PAGE && pid != crate::server::FRONTIER_PAGE {
                max_page = max_page.max(pid.0);
            }
        }
        for pid in self.pool().cached_ids() {
            max_page = max_page.max(pid.0);
        }
        let mut max_stx = 0u64;
        for (_, rec) in self.dclog().store().read_all_volatile() {
            if let Some(p) = rec.page() {
                max_page = max_page.max(p.0);
            }
            max_stx = max_stx.max(rec.stx().0);
        }
        self.set_next_page(max_page + 1);
        self.set_next_stx(max_stx + 1);
    }

    // ------------------------------------------------------------------
    // TC-crash reset (`restart` first half)
    // ------------------------------------------------------------------

    /// Reset cached pages containing effects of `tc` operations beyond
    /// its stable log end. Returns `(pages_reset, records_reset)`.
    pub fn reset_for_tc(&self, tc: TcId, stable_end: Lsn) -> (u64, u64) {
        let mut pages = 0u64;
        let mut records = 0u64;
        // The failed TC's old low-water mark is invalidated: the reset
        // below removes effects the mark claimed were applied, and the
        // redo resends must not be suppressed by it.
        self.clear_lwm(tc);
        // Stable basis is reconstructed from disk + *complete* system
        // transactions; the DC is alive, so its full (volatile) log is
        // available and valid.
        let basis_records: Vec<(DLsn, DcLogRecord)> = {
            let all = self.dclog().store().read_all_volatile();
            let mut complete = std::collections::HashSet::new();
            for (_, r) in &all {
                if let DcLogRecord::SysTxnEnd { stx } = r {
                    complete.insert(*stx);
                }
            }
            all.into_iter()
                .filter(|(_, r)| complete.contains(&r.stx()))
                .map(|(s, r)| (DLsn(s), r))
                .collect()
        };

        for pid in self.pool().cached_ids() {
            let arc = match self.pool().get_cached(pid) {
                Some(a) => a,
                None => continue,
            };
            let mut page = arc.write();
            if page.evicted || !page.is_leaf() {
                continue;
            }
            let affected = page
                .ab
                .get(tc)
                .map(|ab| ab.max_included() > stable_end)
                .unwrap_or(false);
            if !affected {
                continue;
            }
            let basis = self.rebuild_stable_page(pid, &basis_records);
            let basis = match basis {
                Some(b) => b,
                None => continue, // structurally impossible; be defensive
            };
            match self.cfg.reset_mode {
                ResetMode::FullDrop => {
                    let n = page.entry_count() as u64;
                    let rec_lsn = std::mem::take(&mut page.rec_lsn);
                    *page = basis;
                    page.rec_lsn = rec_lsn;
                    // The replacement reflects disk+log; it is dirty only
                    // relative to log-applied state.
                    page.dirty = true;
                    records += n;
                }
                ResetMode::Selective => {
                    records += Self::selective_reset(&mut page, &basis, tc);
                }
            }
            self.dirty_pages_table().redirtied(&mut page);
            pages += 1;
        }
        DcStats::add(&self.stats().pages_reset, pages);
        DcStats::add(&self.stats().records_reset, records);
        (pages, records)
    }

    /// Restore `tc`-owned records (and `tc`'s abLSN) in `page` from the
    /// stable `basis`, leaving other TCs' records untouched
    /// (Section 6.1.2). A delete leaves a tombstone owned by the
    /// deleter, so a lost delete of a record another TC wrote is
    /// `tc`-owned here and reverts to the basis record like any other
    /// lost write: GC cannot reclaim the tombstone (its LSN is above
    /// the deleter's stable end, which bounds the GC floor), and
    /// causality keeps its page from being flushed or evicted. Returns
    /// the number of records touched.
    fn selective_reset(page: &mut Page, basis: &Page, tc: TcId) -> u64 {
        let mut touched = 0u64;
        let basis_entries = basis.leaf_entries();
        // Remove / revert records currently owned by the failed TC.
        let mut kept: Vec<(unbundled_core::Key, unbundled_core::StoredRecord)> = Vec::new();
        for (k, rec) in page.leaf_entries().iter() {
            if rec.owner != tc {
                kept.push((k.clone(), rec.clone()));
                continue;
            }
            touched += 1;
            // Keep only records present in the stable basis; anything
            // not found there vanishes.
            if let Ok(i) = basis_entries.binary_search_by(|(bk, _)| bk.cmp(k)) {
                kept.push((k.clone(), basis_entries[i].1.clone()));
            }
        }
        // Restore records the failed TC owned in the basis that are
        // missing from the page.
        for (bk, brec) in basis_entries {
            if brec.owner == tc
                && page.covers(bk)
                && kept.binary_search_by(|(k, _)| k.cmp(bk)).is_err()
            {
                let pos = kept.binary_search_by(|(k, _)| k.cmp(bk)).unwrap_err();
                kept.insert(pos, (bk.clone(), brec.clone()));
                touched += 1;
            }
        }
        *page.leaf_entries_mut() = kept;
        // Reset the failed TC's abLSN to the basis view.
        match basis.ab.get(tc) {
            Some(ab) => page.ab.set(tc, ab.clone()),
            None => page.ab.remove(tc),
        }
        page.dirty = true;
        touched
    }

    /// Rebuild the stable version of a page: the disk image plus every
    /// newer complete system-transaction record affecting it, in order.
    fn rebuild_stable_page(
        &self,
        pid: PageId,
        basis_records: &[(DLsn, DcLogRecord)],
    ) -> Option<Page> {
        let mut page: Option<Page> = self
            .pool()
            .disk()
            .read_page(pid)
            .and_then(|img| Page::decode(&img).ok());
        for (dlsn, rec) in basis_records {
            if rec.page() != Some(pid) {
                continue;
            }
            match rec {
                DcLogRecord::PageImage { image, .. } => {
                    let newer = page.as_ref().map(|p| p.dlsn >= *dlsn).unwrap_or(false);
                    if !newer {
                        if let Ok(mut p) = Page::decode(image) {
                            p.dlsn = *dlsn;
                            page = Some(p);
                        }
                    }
                }
                DcLogRecord::SplitTruncate {
                    split_key,
                    new_page,
                    ..
                } => {
                    if let Some(p) = page.as_mut() {
                        if p.dlsn < *dlsn {
                            match &mut p.data {
                                PageData::Leaf(v) => v.retain(|(k, _)| k < split_key),
                                PageData::Branch(v) => v.retain(|(k, _)| k < split_key),
                            }
                            p.high_fence = Some(split_key.clone());
                            if p.is_leaf() {
                                p.next_leaf = *new_page;
                            }
                            p.dlsn = *dlsn;
                        }
                    }
                }
                DcLogRecord::FreePage { .. } => page = None,
                _ => {}
            }
        }
        page
    }

    /// Crash this DC's volatile state in place (tests/benches): the cache
    /// and unforced DC-log tail are lost; disk survives. The caller then
    /// builds a fresh engine with [`DcEngine::recover`].
    pub fn crash_volatile(&self) {
        self.pool().clear();
        self.dirty_pages_table().clear();
        self.dclog().store().crash();
    }

    /// Consistency snapshot used by recovery-equivalence tests: map of
    /// table → committed-visible contents.
    pub fn snapshot_tables(
        &self,
    ) -> HashMap<unbundled_core::TableId, Vec<(unbundled_core::Key, Vec<u8>)>> {
        let mut out = HashMap::new();
        for t in self.catalog().all() {
            if let Ok(rows) = self.dump_table(t.spec.id) {
                out.insert(t.spec.id, rows);
            }
        }
        out
    }
}
