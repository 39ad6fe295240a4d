//! The DC engine: record operations, B-tree maintenance via system
//! transactions, cache management and the idempotence machinery.
//!
//! ## Latching (paper Section 4.1.2(1))
//!
//! Logical operations must be atomic. Here every record operation takes a
//! per-table *tree latch* in shared mode plus a write latch on the leaf it
//! touches; structure modifications (splits, consolidations, root
//! changes) take the tree latch exclusively. Latches are held for the
//! duration of one operation only and are ordered (tree → single page),
//! so latch deadlocks cannot occur.
//!
//! ## System-transaction image capture (derived causality rule)
//!
//! Split and consolidation system transactions log *physical page images*
//! (Section 5.2.2). An image placed in the DC log can become stable, so —
//! by the causality contract — it must never capture effects of TC
//! operations that are not yet stable in the TC's log. The engine
//! therefore defers a structure modification until the page's abstract
//! LSNs are covered by every TC's end-of-stable-log (pages are elastic in
//! memory while the SMO is pending). The paper does not spell this rule
//! out, but it follows directly from its causality principle; see
//! `DESIGN.md`.

use crate::catalog::{write_initial_root, Catalog, TableState, FIRST_DATA_PAGE};
use crate::dclog::{DcLog, DcLogRecord};
use crate::dirty::DirtyPages;
use crate::page::{Page, PageData};
use crate::pool::{BufferPool, SyncPolicy};
use crate::stats::DcStats;
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unbundled_core::{
    DcError, DcId, Key, LogicalOp, Lsn, OpResult, PageId, ReadFlavor, RequestId, StoredRecord,
    SysTxnId, TableId, TableSpec, TcId,
};
use unbundled_storage::{LogStore, SimDisk};

/// Rows produced by a scan walk: `None` values are keys whose record is
/// invisible under the requested read flavor (kept for key probes).
type ScanRows = Vec<(Key, Option<Vec<u8>>)>;

/// How the DC resets cached pages after a TC crash (Section 5.3.2 / 6.1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResetMode {
    /// Drop every affected page back to its stable version. Simple; in a
    /// multi-TC deployment it also discards other TCs' unflushed work
    /// (the paper's "draconian" option — all TCs must then recover).
    FullDrop,
    /// Selectively restore only the failed TC's records (and its abstract
    /// LSN) from the stable version, leaving other TCs' data in place.
    Selective,
}

/// DC engine configuration.
#[derive(Clone, Debug)]
pub struct DcConfig {
    /// Soft page capacity in bytes (split trigger).
    pub page_capacity: usize,
    /// Consolidation trigger in bytes (pages below this try to merge).
    pub merge_threshold: usize,
    /// Buffer-pool capacity in pages (`0` = unbounded).
    pub pool_capacity: usize,
    /// Page-sync policy (Section 5.1.2).
    pub sync_policy: SyncPolicy,
    /// Page-reset mode after a TC crash.
    pub reset_mode: ResetMode,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            page_capacity: 4096,
            merge_threshold: 1024,
            pool_capacity: 0,
            sync_policy: SyncPolicy::FullAbLsn,
            reset_mode: ResetMode::Selective,
        }
    }
}

/// Outcome of a flush attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushResult {
    /// Page written to disk.
    Flushed,
    /// Page was already clean.
    Clean,
    /// Eligibility (EOSL / sync policy) not met yet.
    NotEligible,
    /// Page not cached.
    Missing,
}

/// The Data Component engine. Thread-safe; share via [`Arc`].
pub struct DcEngine {
    id: DcId,
    /// Configuration (public for experiment harnesses).
    pub cfg: DcConfig,
    pool: BufferPool,
    log: DcLog,
    catalog: RwLock<Arc<Catalog>>,
    next_page: AtomicU64,
    next_stx: AtomicU64,
    /// Per-TC end-of-stable-log (causality gate).
    eosl: RwLock<Vec<(TcId, Lsn)>>,
    /// Per-TC low-water mark (abLSN pruning).
    lwm: RwLock<Vec<(TcId, Lsn)>>,
    /// SMOs deferred until EOSL coverage.
    pending_smo: Mutex<HashSet<(TableId, PageId)>>,
    /// Per-TC dirty page tables (page → recLSN): what a checkpoint
    /// must flush.
    dirty: DirtyPages,
    stats: DcStats,
}

fn vec_get(v: &[(TcId, Lsn)], tc: TcId) -> Lsn {
    v.iter()
        .find(|(t, _)| *t == tc)
        .map(|(_, l)| *l)
        .unwrap_or(Lsn::NULL)
}

fn vec_set(v: &mut Vec<(TcId, Lsn)>, tc: TcId, lsn: Lsn) {
    if let Some(e) = v.iter_mut().find(|(t, _)| *t == tc) {
        if lsn > e.1 {
            e.1 = lsn;
        }
    } else {
        v.push((tc, lsn));
    }
}

impl DcEngine {
    /// Format a fresh DC on an empty disk/log.
    pub fn format(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Arc<DcEngine> {
        let engine = Self::attach(id, cfg, disk, log);
        engine.persist_catalog();
        engine
    }

    /// Attach to (possibly non-empty) stable storage without touching it.
    pub(crate) fn attach(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Arc<DcEngine> {
        let engine = DcEngine {
            id,
            cfg,
            pool: BufferPool::new(disk),
            log: DcLog::new(log),
            catalog: RwLock::new(Arc::new(Catalog::new())),
            next_page: AtomicU64::new(FIRST_DATA_PAGE),
            next_stx: AtomicU64::new(1),
            eosl: RwLock::new(Vec::new()),
            lwm: RwLock::new(Vec::new()),
            pending_smo: Mutex::new(HashSet::new()),
            dirty: DirtyPages::default(),
            stats: DcStats::default(),
        };
        Arc::new(engine)
    }

    /// This DC's identity.
    pub fn id(&self) -> DcId {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> &DcStats {
        &self.stats
    }

    /// The DC's log (for experiment accounting).
    pub fn dclog(&self) -> &DcLog {
        &self.log
    }

    /// The buffer pool (test/experiment introspection).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub(crate) fn dirty_pages_table(&self) -> &DirtyPages {
        &self.dirty
    }

    pub(crate) fn catalog(&self) -> Arc<Catalog> {
        self.catalog.read().clone()
    }

    pub(crate) fn set_catalog(&self, c: Catalog) {
        *self.catalog.write() = Arc::new(c);
    }

    pub(crate) fn set_next_page(&self, v: u64) {
        self.next_page.store(v, Ordering::Relaxed);
    }

    pub(crate) fn set_next_stx(&self, v: u64) {
        self.next_stx.store(v, Ordering::Relaxed);
    }

    /// Current EOSL for `tc`.
    pub fn eosl(&self, tc: TcId) -> Lsn {
        vec_get(&self.eosl.read(), tc)
    }

    /// Current LWM for `tc`.
    pub fn lwm(&self, tc: TcId) -> Lsn {
        vec_get(&self.lwm.read(), tc)
    }

    /// `end_of_stable_log` handler: record the causality frontier and
    /// retry any structure modifications it unblocks.
    pub fn handle_eosl(&self, tc: TcId, eosl: Lsn) {
        vec_set(&mut self.eosl.write(), tc, eosl);
        self.retry_pending_smos();
    }

    /// `low_water_mark` handler: record the mark. Nothing else runs
    /// here — version chains are trimmed against it under the leaf
    /// latch that apply and flush already hold ([`DcEngine::trim_page`]).
    ///
    /// The mark is clamped to the TC's end-of-stable-log: an operation
    /// can be applied and acknowledged while its log record is still
    /// unforced, and letting such an LSN slip under a page's low-water
    /// mark would hide a lost operation from TC-crash reset (causality).
    pub fn handle_lwm(&self, tc: TcId, lwm: Lsn) {
        let clamped = lwm.min(self.eosl(tc));
        vec_set(&mut self.lwm.write(), tc, clamped);
    }

    /// Garbage-collect one latched leaf — every record, or only `only`:
    /// prune each record's version chain against its owning TC's
    /// low-water mark (no retained snapshot position at or above the
    /// mark can need the pruned history, and positions below it are
    /// served best-effort by contract), and physically remove fully
    /// stamped tombstones with no history left. Returns the entries
    /// pruned plus the tombstones removed.
    fn trim_page(&self, page: &mut Page, only: Option<&Key>) -> usize {
        let lwms: Vec<(TcId, Lsn)> = {
            let g = self.lwm.read();
            page.ab
                .iter()
                .map(|(tc, _)| (tc, vec_get(&g, tc)))
                .filter(|(_, l)| *l > Lsn::NULL)
                .collect()
        };
        if lwms.is_empty() {
            return 0;
        }
        let floor_of = |rec: &StoredRecord| {
            lwms.iter()
                .find(|(tc, _)| *tc == rec.owner)
                .map(|&(_, l)| l)
        };
        let mut pruned = 0usize;
        let mut reclaimed = 0usize;
        let entries = page.leaf_entries_mut();
        match only {
            Some(key) => {
                if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(key)) {
                    if let Some(floor) = floor_of(&entries[i].1) {
                        pruned += entries[i].1.gc(floor);
                        if entries[i].1.tomb_reclaimable(floor) {
                            entries.remove(i);
                            reclaimed += 1;
                        }
                    }
                }
            }
            None => entries.retain_mut(|(_, rec)| {
                let Some(floor) = floor_of(rec) else {
                    return true;
                };
                pruned += rec.gc(floor);
                let reclaim = rec.tomb_reclaimable(floor);
                reclaimed += usize::from(reclaim);
                !reclaim
            }),
        }
        DcStats::add(&self.stats.versions_pruned, (pruned + reclaimed) as u64);
        pruned + reclaimed
    }

    /// Total retained MVCC version-chain entries (history + staged)
    /// across cached pages of `table` — the e16 bounded-memory gate.
    pub fn version_chain_entries(&self, table: TableId) -> usize {
        let mut total = 0;
        for pid in self.pool.cached_ids() {
            let Some(arc) = self.pool.get_cached(pid) else {
                continue;
            };
            let g = arc.read();
            if g.evicted || g.table != table {
                continue;
            }
            if let PageData::Leaf(entries) = &g.data {
                total += entries.iter().map(|(_, r)| r.chain_len()).sum::<usize>();
            }
        }
        total
    }

    /// Drop all low-water-mark knowledge for a TC (its claim "every
    /// operation ≤ LWM is applied" is invalidated by a page reset).
    pub(crate) fn clear_lwm(&self, tc: TcId) {
        let mut g = self.lwm.write();
        if let Some(e) = g.iter_mut().find(|(t, _)| *t == tc) {
            e.1 = Lsn::NULL;
        }
    }

    /// Create a table (administrative; crash-safe: the root page reaches
    /// disk before the catalog references it).
    pub fn create_table(&self, spec: TableSpec) -> Result<(), DcError> {
        let catalog = self.catalog();
        if catalog.get(spec.id).is_some() {
            return Ok(()); // idempotent
        }
        let root = self.alloc_page();
        write_initial_root(self.pool.disk(), root, spec.id);
        catalog.insert(spec, root);
        self.persist_catalog();
        Ok(())
    }

    fn table(&self, id: TableId) -> Result<Arc<TableState>, DcError> {
        self.catalog().get(id).ok_or(DcError::NoSuchTable(id))
    }

    fn alloc_page(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn persist_catalog(&self) {
        self.catalog()
            .persist(self.pool.disk(), self.next_page.load(Ordering::Relaxed));
    }

    /// `perform_operation`: execute a logical operation with exactly-once
    /// semantics for mutations (duplicates are suppressed by the abstract
    /// LSN test).
    pub fn perform(&self, tc: TcId, req: RequestId, op: &LogicalOp) -> Result<OpResult, DcError> {
        // Span only the commit-path apply (the transaction's stamped
        // mutations); body operations hit this path several times per
        // transaction and are not part of the commit tree.
        let _s = unbundled_obs::stage::in_commit_scope()
            .then(|| unbundled_obs::span1("dc.apply", "table", op.table().0 as u64));
        let t0 = std::time::Instant::now();
        let result = if op.is_mutation() {
            let lsn = req
                .lsn()
                .expect("mutations must carry an LSN-based request id");
            self.apply_mutation(tc, lsn, op)
        } else {
            DcStats::bump(&self.stats.reads);
            let result = self.do_read(op);
            // A read's misses grow the pool too.
            self.maybe_evict();
            result
        };
        let took = t0.elapsed();
        self.stats.apply_ns.record(took);
        unbundled_obs::stage::add(unbundled_obs::stage::Stage::Apply, took.as_nanos() as u64);
        result
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    fn apply_mutation(&self, tc: TcId, lsn: Lsn, op: &LogicalOp) -> Result<OpResult, DcError> {
        let table = self.table(op.table())?;
        let key = op
            .point_key()
            .expect("mutations are point operations")
            .clone();
        loop {
            let smo_request = {
                let _tree = table.tree_latch.read();
                let leaf_arc = self.find_leaf(&table, &key)?;
                let mut leaf = leaf_arc.write();
                if leaf.evicted || !leaf.covers(&key) {
                    continue;
                }
                if leaf.sync_freeze {
                    drop(leaf);
                    DcStats::bump(&self.stats.freeze_backoffs);
                    std::thread::yield_now();
                    continue;
                }
                // Idempotence (Section 5.1.2): generalized LSN test.
                let lwm = self.lwm(tc);
                let ab = leaf.ab.get_mut(tc);
                ab.advance_lw(lwm);
                if ab.includes(lsn) {
                    DcStats::bump(&self.stats.duplicates_suppressed);
                    return Ok(OpResult::Done);
                }
                if lsn < ab.max_included() {
                    DcStats::bump(&self.stats.out_of_order);
                }
                let prior_chain = leaf.find(&key).map_or(0, |r| r.chain_len());
                let stamped = Self::mutate_leaf(&mut leaf, tc, lsn, op)?;
                leaf.ab.get_mut(tc).record(lsn);
                leaf.dirty = true;
                self.dirty.applied(&mut leaf, tc, lsn);
                DcStats::bump(&self.stats.ops_applied);
                if stamped {
                    DcStats::bump(&self.stats.versions_stamped);
                }
                if let Some(rec) = leaf.find(&key) {
                    let created = rec.chain_len().saturating_sub(prior_chain);
                    DcStats::add(&self.stats.versions_created, created as u64);
                }
                // Trim under the latch this apply holds. Once the TC's
                // low-water mark has moved since the page was last
                // trimmed, every record on it may hold prunable history
                // or be a reclaimable tombstone; otherwise only the
                // record just written can have gained any.
                if lwm > leaf.trimmed_at {
                    self.trim_page(&mut leaf, None);
                    leaf.trimmed_at = lwm;
                } else if lwm > Lsn::NULL {
                    self.trim_page(&mut leaf, Some(&key));
                }

                let bytes = leaf.content_bytes();
                let pid = leaf.id;
                if bytes > self.cfg.page_capacity && leaf.entry_count() > 1 {
                    Some((pid, true))
                } else if bytes < self.cfg.merge_threshold {
                    Some((pid, false))
                } else {
                    None
                }
            };
            if let Some((pid, is_split)) = smo_request {
                self.request_smo(&table, pid, is_split);
            }
            self.maybe_evict();
            return Ok(OpResult::Done);
        }
    }

    /// Apply one mutation to a latched leaf. `lsn` is the operation's
    /// redo LSN — the identity a later [`LogicalOp::StampCommit`] uses
    /// to find the version it created. Returns true if the operation
    /// stamped a version (for the stats).
    fn mutate_leaf(leaf: &mut Page, tc: TcId, lsn: Lsn, op: &LogicalOp) -> Result<bool, DcError> {
        match op {
            LogicalOp::Insert { table, key, value } => {
                match leaf.find_mut(key) {
                    // A tombstone is physically present but logically
                    // absent: insert revives it, retaining the delete in
                    // the version chain for older snapshots.
                    Some(rec) if rec.tomb => rec.overwrite(value.clone(), tc, lsn),
                    Some(_) => return Err(DcError::DuplicateKey(*table, key.clone())),
                    None => {
                        let inserted =
                            leaf.insert(key.clone(), StoredRecord::new(value.clone(), tc, lsn));
                        debug_assert!(inserted);
                    }
                }
                Ok(false)
            }
            LogicalOp::Update { table, key, value } => match leaf.find_mut(key) {
                Some(rec) if !rec.tomb => {
                    rec.overwrite(value.clone(), tc, lsn);
                    Ok(false)
                }
                _ => Err(DcError::KeyNotFound(*table, key.clone())),
            },
            LogicalOp::Delete { table, key } => match leaf.find_mut(key) {
                Some(rec) if !rec.tomb => {
                    rec.delete(tc, lsn);
                    Ok(false)
                }
                _ => Err(DcError::KeyNotFound(*table, key.clone())),
            },
            LogicalOp::VersionedWrite { key, value, .. } => {
                match leaf.find_mut(key) {
                    Some(rec) => rec.overwrite(value.clone(), tc, lsn),
                    None => {
                        let inserted =
                            leaf.insert(key.clone(), StoredRecord::new(value.clone(), tc, lsn));
                        debug_assert!(inserted);
                    }
                }
                Ok(false)
            }
            LogicalOp::RevertVersion { key, op, .. } => {
                let remove = match leaf.find_mut(key) {
                    Some(rec) => !rec.revert(*op),
                    None => false,
                };
                if remove {
                    let removed = leaf.remove(key);
                    debug_assert!(removed);
                }
                Ok(false)
            }
            LogicalOp::StampCommit {
                key, op, commit, ..
            } => {
                // A stamp whose record is gone (GC'd tombstone, or a
                // resend racing a later owner change) is a no-op: the
                // version it addressed is no longer servable anyway.
                Ok(leaf
                    .find_mut(key)
                    .map(|rec| rec.stamp(*op, *commit))
                    .unwrap_or(false))
            }
            _ => unreachable!("reads routed elsewhere"),
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn do_read(&self, op: &LogicalOp) -> Result<OpResult, DcError> {
        match op {
            LogicalOp::Read { key, flavor, .. } => {
                if matches!(flavor, ReadFlavor::Snapshot(_)) {
                    DcStats::bump(&self.stats.snapshot_reads);
                }
                let table = self.table(op.table())?;
                loop {
                    let _tree = table.tree_latch.read();
                    let leaf_arc = self.find_leaf(&table, key)?;
                    let leaf = leaf_arc.read();
                    if leaf.evicted || !leaf.covers(key) {
                        continue;
                    }
                    let value = leaf.find(key).and_then(|rec| Self::visible(rec, *flavor));
                    return Ok(OpResult::Value(value));
                }
            }
            LogicalOp::ScanRange {
                low,
                high,
                limit,
                flavor,
                ..
            } => {
                let entries = self.scan(op.table(), low, high.as_ref(), *limit, Some(*flavor))?;
                Ok(OpResult::Entries(
                    entries
                        .into_iter()
                        .map(|(k, v)| (k, v.expect("filtered")))
                        .collect(),
                ))
            }
            LogicalOp::ProbeKeys { from, count, .. } => {
                let entries = self.scan(op.table(), from, None, Some(*count), None)?;
                Ok(OpResult::Keys(
                    entries.into_iter().map(|(k, _)| k).collect(),
                ))
            }
            _ => unreachable!("mutations routed elsewhere"),
        }
    }

    fn visible(rec: &StoredRecord, flavor: ReadFlavor) -> Option<Vec<u8>> {
        match flavor {
            ReadFlavor::Latest => rec.read_latest().map(|v| v.to_vec()),
            ReadFlavor::Committed => rec.read_committed().map(|v| v.to_vec()),
            ReadFlavor::Snapshot(at) => rec.read_snapshot(at).map(|v| v.to_vec()),
        }
    }

    /// Shared scan walk. `flavor = None` probes keys (visibility-blind:
    /// the fetch-ahead protocol locks whatever keys physically exist).
    fn scan(
        &self,
        table_id: TableId,
        low: &Key,
        high: Option<&Key>,
        limit: Option<usize>,
        flavor: Option<ReadFlavor>,
    ) -> Result<ScanRows, DcError> {
        let table = self.table(table_id)?;
        'restart: loop {
            let _tree = table.tree_latch.read();
            let mut out: Vec<(Key, Option<Vec<u8>>)> = Vec::new();
            let mut cur = self.find_leaf(&table, low)?;
            loop {
                let leaf = cur.read();
                if leaf.evicted {
                    continue 'restart;
                }
                for (k, rec) in leaf.leaf_entries() {
                    if k < low {
                        continue;
                    }
                    if let Some(h) = high {
                        if k >= h {
                            return Ok(out);
                        }
                    }
                    let value = match flavor {
                        None => None,
                        Some(f) => match Self::visible(rec, f) {
                            Some(v) => Some(v),
                            None => continue, // invisible to this flavor
                        },
                    };
                    out.push((k.clone(), value));
                    if let Some(l) = limit {
                        if out.len() >= l {
                            return Ok(out);
                        }
                    }
                }
                let next = leaf.next_leaf;
                if next.is_null() {
                    return Ok(out);
                }
                if let (Some(h), Some(hf)) = (high, leaf.high_fence.as_ref()) {
                    if hf >= h {
                        return Ok(out);
                    }
                }
                drop(leaf);
                cur = match self.pool.get(next) {
                    Some(p) => p,
                    None => continue 'restart,
                };
            }
        }
    }

    fn find_leaf(
        &self,
        table: &TableState,
        key: &Key,
    ) -> Result<Arc<parking_lot::RwLock<Page>>, DcError> {
        'outer: loop {
            let mut pid = *table.root.lock();
            loop {
                let arc = self.pool.get(pid).ok_or_else(|| {
                    DcError::Corrupt(format!("missing page {pid} in table {}", table.spec.id))
                })?;
                let g = arc.read();
                if g.evicted {
                    continue 'outer;
                }
                if g.is_leaf() {
                    drop(g);
                    return Ok(arc);
                }
                pid = g.child_for(key);
            }
        }
    }

    // ------------------------------------------------------------------
    // System transactions (structure modifications), Section 5.2
    // ------------------------------------------------------------------

    /// Can an SMO capture this page in a physical image? (All abLSN
    /// entries must be covered by the owning TC's EOSL — see module docs.)
    fn image_capture_allowed(&self, page: &Page) -> bool {
        page.ab
            .iter()
            .all(|(tc, ab)| ab.max_included() <= self.eosl(tc))
    }

    fn request_smo(&self, table: &Arc<TableState>, pid: PageId, is_split: bool) {
        if is_split {
            self.split_page(table, pid);
        } else {
            self.try_consolidate(table, pid);
        }
    }

    fn retry_pending_smos(&self) {
        let pending: Vec<(TableId, PageId)> = self.pending_smo.lock().drain().collect();
        for (tid, pid) in pending {
            if let Ok(table) = self.table(tid) {
                let (needs_split, needs_merge) = match self.pool.get_cached(pid) {
                    Some(arc) => {
                        let g = arc.read();
                        if g.evicted {
                            (false, false)
                        } else {
                            let b = g.content_bytes();
                            (
                                b > self.cfg.page_capacity && g.entry_count() > 1,
                                b < self.cfg.merge_threshold,
                            )
                        }
                    }
                    None => (false, false),
                };
                if needs_split {
                    self.split_page(&table, pid);
                } else if needs_merge {
                    self.try_consolidate(&table, pid);
                }
            }
        }
    }

    fn defer_smo(&self, table: TableId, pid: PageId) {
        self.pending_smo.lock().insert((table, pid));
    }

    /// Split an over-full page (leaf or branch). Takes the tree latch
    /// exclusively; encapsulated in a system transaction.
    pub fn split_page(&self, table: &Arc<TableState>, pid: PageId) {
        let _tree = table.tree_latch.write();
        self.split_locked(table, pid);
    }

    fn split_locked(&self, table: &Arc<TableState>, pid: PageId) {
        let arc = match self.pool.get(pid) {
            Some(a) => a,
            None => return,
        };
        let mut page = arc.write();
        if page.evicted || page.content_bytes() <= self.cfg.page_capacity || page.entry_count() < 2
        {
            return;
        }
        if page.is_leaf() && !self.image_capture_allowed(&page) {
            // Defer: the image would capture unstable TC operations.
            self.defer_smo(table.spec.id, pid);
            return;
        }

        let stx = SysTxnId(self.next_stx.fetch_add(1, Ordering::Relaxed));
        self.log.append(DcLogRecord::SysTxnBegin { stx });

        // Split point: halve by bytes.
        let split_idx = Self::split_index(&page);
        let new_pid = self.alloc_page();
        self.log
            .append(DcLogRecord::AllocPage { stx, page: new_pid });

        let (split_key, mut new_page) = match &mut page.data {
            PageData::Leaf(entries) => {
                let split_key = entries[split_idx].0.clone();
                let upper = entries.split_off(split_idx);
                let mut np = Page::new_leaf(
                    new_pid,
                    page.table,
                    split_key.clone(),
                    page.high_fence.clone(),
                );
                np.data = PageData::Leaf(upper);
                // Section 5.2.2: the new page's image captures the page's
                // abLSN at the time of the split; the moved records'
                // unflushed effects carry the page's recLSN with them.
                np.ab = page.ab.clone();
                np.next_leaf = page.next_leaf;
                self.dirty.carry(&page, &mut np);
                (split_key, np)
            }
            PageData::Branch(entries) => {
                let split_key = entries[split_idx].0.clone();
                let upper = entries.split_off(split_idx);
                let np = Page::new_branch(
                    new_pid,
                    page.table,
                    split_key.clone(),
                    page.high_fence.clone(),
                    upper,
                );
                (split_key, np)
            }
        };

        let d_img = self.log.append(DcLogRecord::PageImage {
            stx,
            page: new_pid,
            image: new_page.encode(),
        });
        new_page.dlsn = d_img;
        new_page.dirty = true;

        let d_tr = self.log.append(DcLogRecord::SplitTruncate {
            stx,
            page: pid,
            split_key: split_key.clone(),
            new_page: new_pid,
        });
        page.high_fence = Some(split_key.clone());
        if page.is_leaf() {
            page.next_leaf = new_pid;
        }
        page.dlsn = d_tr;
        page.dirty = true;

        let routing_key = page.low_fence.clone();
        drop(page);
        self.pool.install(new_page);

        // Insert the separator into the parent chain.
        let (root_changed, overfull_parent) =
            self.insert_separator(table, stx, pid, &routing_key, split_key, new_pid);

        self.log.append(DcLogRecord::SysTxnEnd { stx });
        DcStats::bump(&self.stats.splits);
        if root_changed {
            self.log.force();
            self.persist_catalog();
        }
        // Split an over-full parent only *after* this system transaction's
        // end record is appended: a nested system transaction must never
        // open while ours is incomplete, or its forced records (a root
        // change forces the log) could be complete-stable across a crash
        // while ours — whose new page its captured images reference — is
        // discarded as incomplete, leaving an unreachable page.
        if let Some(ppid) = overfull_parent {
            self.split_locked(table, ppid);
        }
    }

    fn split_index(page: &Page) -> usize {
        let total = page.content_bytes();
        let mut acc = 0usize;
        match &page.data {
            PageData::Leaf(v) => {
                for (i, (k, r)) in v.iter().enumerate() {
                    acc += 4 + k.len() + r.encoded_size();
                    if acc >= total / 2 && i + 1 < v.len() {
                        return i + 1;
                    }
                }
                v.len() - 1
            }
            PageData::Branch(v) => {
                for (i, (k, _)) in v.iter().enumerate() {
                    acc += 4 + k.len() + 8;
                    if acc >= total / 2 && i + 1 < v.len() {
                        return i + 1;
                    }
                }
                v.len() - 1
            }
        }
    }

    /// Insert `(split_key → new_pid)` into the parent of `child_pid`
    /// (found by descending with `routing_key`). Creates a new root if
    /// the child was the root. Returns `(root_changed, overfull_parent)`;
    /// the caller splits the over-full parent in a *fresh* system
    /// transaction once the current one is closed.
    fn insert_separator(
        &self,
        table: &Arc<TableState>,
        stx: SysTxnId,
        child_pid: PageId,
        routing_key: &Key,
        split_key: Key,
        new_pid: PageId,
    ) -> (bool, Option<PageId>) {
        let root = *table.root.lock();
        if child_pid == root {
            // Root split: new branch root over the two halves.
            let new_root_pid = self.alloc_page();
            self.log.append(DcLogRecord::AllocPage {
                stx,
                page: new_root_pid,
            });
            let mut new_root = Page::new_branch(
                new_root_pid,
                table.spec.id,
                Key::empty(),
                None,
                vec![(routing_key.clone(), child_pid), (split_key, new_pid)],
            );
            let d = self.log.append(DcLogRecord::PageImage {
                stx,
                page: new_root_pid,
                image: new_root.encode(),
            });
            new_root.dlsn = d;
            new_root.dirty = true;
            self.log.append(DcLogRecord::RootChanged {
                stx,
                table: table.spec.id,
                root: new_root_pid,
            });
            self.pool.install(new_root);
            *table.root.lock() = new_root_pid;
            *self.catalog().dlsn.lock() = d;
            return (true, None);
        }

        // Find the parent of child_pid by descending.
        let parent_pid = match self.find_parent(root, routing_key, child_pid) {
            Some(p) => p,
            None => return (false, None), // racing structure change; child will re-trigger
        };
        let parent_arc = match self.pool.get(parent_pid) {
            Some(a) => a,
            None => return (false, None),
        };
        let mut parent = parent_arc.write();
        let d = self.log.append(DcLogRecord::BranchInsert {
            stx,
            page: parent_pid,
            sep: split_key.clone(),
            child: new_pid,
        });
        let entries = parent.branch_entries_mut();
        match entries.binary_search_by(|(k, _)| k.cmp(&split_key)) {
            Ok(i) => entries[i].1 = new_pid,
            Err(i) => entries.insert(i, (split_key, new_pid)),
        }
        parent.dlsn = d;
        parent.dirty = true;
        let oversized = parent.content_bytes() > self.cfg.page_capacity && parent.entry_count() > 2;
        drop(parent);
        (false, oversized.then_some(parent_pid))
    }

    fn find_parent(&self, root: PageId, key: &Key, child: PageId) -> Option<PageId> {
        let mut pid = root;
        loop {
            let arc = self.pool.get(pid)?;
            let g = arc.read();
            if g.is_leaf() {
                return None;
            }
            let next = g.child_for(key);
            if next == child {
                return Some(pid);
            }
            pid = next;
        }
    }

    /// Try to consolidate an under-full leaf with a sibling
    /// (Section 5.2.2, "Page Deletes/Consolidates"). The consolidated
    /// page is logged *physically* with the merged (max/union) abLSN.
    pub fn try_consolidate(&self, table: &Arc<TableState>, pid: PageId) {
        let _tree = table.tree_latch.write();
        let root = *table.root.lock();
        if pid == root {
            return;
        }
        let arc = match self.pool.get(pid) {
            Some(a) => a,
            None => return,
        };
        let (routing_key, is_leaf, bytes) = {
            let g = arc.read();
            if g.evicted {
                return;
            }
            (g.low_fence.clone(), g.is_leaf(), g.content_bytes())
        };
        if !is_leaf || bytes >= self.cfg.merge_threshold {
            return;
        }

        let parent_pid = match self.find_parent(root, &routing_key, pid) {
            Some(p) => p,
            None => return,
        };
        let parent_arc = match self.pool.get(parent_pid) {
            Some(a) => a,
            None => return,
        };

        // Choose the right sibling if one exists under the same parent,
        // else the left (we always merge right-into-left).
        let (left_pid, right_pid, right_sep) = {
            let parent = parent_arc.read();
            let entries = parent.branch_entries();
            let pos = match entries.iter().position(|(_, c)| *c == pid) {
                Some(p) => p,
                None => return,
            };
            if pos + 1 < entries.len() {
                (pid, entries[pos + 1].1, entries[pos + 1].0.clone())
            } else if pos > 0 {
                (entries[pos - 1].1, pid, entries[pos].0.clone())
            } else {
                return; // only child: nothing to merge with
            }
        };

        let left_arc = match self.pool.get(left_pid) {
            Some(a) => a,
            None => return,
        };
        let right_arc = match self.pool.get(right_pid) {
            Some(a) => a,
            None => return,
        };
        let mut left = left_arc.write();
        let mut right = right_arc.write();
        if left.evicted || right.evicted || !left.is_leaf() || !right.is_leaf() {
            return;
        }
        if left.content_bytes() + right.content_bytes() > self.cfg.page_capacity {
            return; // would not fit — the paper's recovery-time concern,
                    // avoided outright at execution time
        }
        if !self.image_capture_allowed(&left) || !self.image_capture_allowed(&right) {
            self.defer_smo(table.spec.id, pid);
            return;
        }

        let stx = SysTxnId(self.next_stx.fetch_add(1, Ordering::Relaxed));
        self.log.append(DcLogRecord::SysTxnBegin { stx });
        // Logical free of the page whose space returns to free space…
        self.log.append(DcLogRecord::FreePage {
            stx,
            page: right_pid,
        });

        // …and a physical image of the consolidated page with the merged
        // abLSN (per-TC max of low-waters, union of in-sets).
        let right_entries = std::mem::take(right.leaf_entries_mut());
        left.leaf_entries_mut().extend(right_entries);
        left.ab = left.ab.merge(&right.ab);
        self.dirty.carry(&right, &mut left);
        left.high_fence = right.high_fence.clone();
        left.next_leaf = right.next_leaf;
        let d_img = self.log.append(DcLogRecord::PageImage {
            stx,
            page: left_pid,
            image: left.encode(),
        });
        left.dlsn = d_img;
        left.dirty = true;

        let d_br = self.log.append(DcLogRecord::BranchRemove {
            stx,
            page: parent_pid,
            sep: right_sep.clone(),
        });
        {
            let mut parent = parent_arc.write();
            let entries = parent.branch_entries_mut();
            if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(&right_sep)) {
                entries.remove(i);
            }
            parent.dlsn = d_br;
            parent.dirty = true;
        }
        self.log.append(DcLogRecord::SysTxnEnd { stx });
        // Page deletes are rare (paper): force so the free is stable
        // before the disk page disappears.
        self.log.force();
        right.evicted = true;
        self.dirty.cleaned(&mut right);
        drop(right);
        drop(left);
        self.pool.remove(right_pid);
        self.pool.disk().free_page(right_pid);
        DcStats::bump(&self.stats.consolidations);

        // Root collapse: a root branch with a single child is replaced by
        // that child.
        self.maybe_collapse_root(table);
    }

    fn maybe_collapse_root(&self, table: &Arc<TableState>) {
        let root = *table.root.lock();
        let arc = match self.pool.get(root) {
            Some(a) => a,
            None => return,
        };
        let only_child = {
            let g = arc.read();
            if g.is_leaf() || g.entry_count() != 1 {
                return;
            }
            g.branch_entries()[0].1
        };
        let stx = SysTxnId(self.next_stx.fetch_add(1, Ordering::Relaxed));
        self.log.append(DcLogRecord::SysTxnBegin { stx });
        self.log.append(DcLogRecord::FreePage { stx, page: root });
        let d = self.log.append(DcLogRecord::RootChanged {
            stx,
            table: table.spec.id,
            root: only_child,
        });
        self.log.append(DcLogRecord::SysTxnEnd { stx });
        self.log.force();
        *table.root.lock() = only_child;
        *self.catalog().dlsn.lock() = d;
        arc.write().evicted = true;
        self.pool.remove(root);
        self.pool.disk().free_page(root);
        self.persist_catalog();
    }

    // ------------------------------------------------------------------
    // Flushing, eviction, checkpointing
    // ------------------------------------------------------------------

    /// Attempt to flush one page (non-blocking eligibility check). The
    /// page's version chains are trimmed first, under the latch the
    /// flush holds, so the image written carries no prunable history.
    pub fn flush_page(&self, pid: PageId) -> FlushResult {
        let arc = match self.pool.get_cached(pid) {
            Some(a) => a,
            None => {
                self.dirty.forget(pid);
                return FlushResult::Missing;
            }
        };
        let mut page = arc.write();
        if page.evicted {
            return FlushResult::Missing;
        }
        if !page.dirty {
            page.sync_freeze = false;
            self.dirty.cleaned(&mut page);
            return FlushResult::Clean;
        }
        // Causality: every reflected operation must be stable in its TC's
        // log (WAL across components, Section 4.2).
        for (tc, ab) in page.ab.iter() {
            if ab.max_included() > self.eosl(tc) {
                return FlushResult::NotEligible;
            }
        }
        // Page sync (Section 5.1.2): prune in-sets with the latest LWM,
        // then apply the policy.
        let lwms: Vec<(TcId, Lsn)> = page.ab.iter().map(|(tc, _)| (tc, self.lwm(tc))).collect();
        for (tc, lwm) in lwms {
            page.ab.get_mut(tc).advance_lw(lwm);
        }
        let in_total: usize = page.ab.iter().map(|(_, ab)| ab.in_set_len()).sum();
        let eligible = match self.cfg.sync_policy {
            SyncPolicy::FullAbLsn => true,
            SyncPolicy::WaitForLwm => in_total == 0,
            SyncPolicy::Bounded(k) => in_total <= k,
        };
        if !eligible {
            if !page.sync_freeze {
                page.sync_freeze = true;
                DcStats::bump(&self.stats.flush_waits);
            }
            return FlushResult::NotEligible;
        }
        let trimmed = page.is_leaf() && self.trim_page(&mut page, None) > 0;
        // WAL for the DC's own log: system-transaction records reflected
        // in the page must be stable first.
        if page.dlsn > self.log.stable() {
            self.log.force();
        }
        let image = page.encode();
        DcStats::add(
            &self.stats.ablsn_bytes_flushed,
            page.ab.encoded_size() as u64,
        );
        self.pool.disk().write_page(pid, image);
        page.dirty = false;
        page.sync_freeze = false;
        self.dirty.cleaned(&mut page);
        DcStats::bump(&self.stats.flushes);
        // A page the trim shrank may now want consolidation; that needs
        // the tree latch, so queue it for the next EOSL retry.
        if trimmed && page.content_bytes() < self.cfg.merge_threshold {
            self.defer_smo(page.table, pid);
        }
        FlushResult::Flushed
    }

    /// Flush every dirty page that is currently eligible. Returns the
    /// number flushed.
    pub fn flush_all(&self) -> usize {
        let mut n = 0;
        for pid in self.pool.cached_ids() {
            if self.flush_page(pid) == FlushResult::Flushed {
                n += 1;
            }
        }
        n
    }

    /// Evict pages, in the pool's clock order, once the pool is more than
    /// a sixteenth over its capacity, until it is back within it; a page
    /// that cannot be flushed yet is passed over (the pool stays over
    /// capacity if too few can be). The slack batches evictions, so most
    /// operations that fault a page in do not also pay for evicting one.
    fn maybe_evict(&self) {
        let cap = self.cfg.pool_capacity;
        if cap == 0 {
            return;
        }
        let cached = self.pool.len();
        if cached <= cap + cap / 16 {
            return;
        }
        let mut excess = cached - cap;
        // Each cached page is a candidate at most twice per call.
        let mut tries = 2 * cached;
        while excess > 0 && tries > 0 {
            tries -= 1;
            let Some(pid) = self.pool.next_victim() else {
                return;
            };
            if let FlushResult::Flushed | FlushResult::Clean = self.flush_page(pid) {
                self.pool.remove(pid);
                DcStats::bump(&self.stats.evictions);
                excess -= 1;
            }
        }
    }

    /// `checkpoint` handler: make stable every page containing effects of
    /// this TC's operations with LSN below `new_rssp`; returns the
    /// granted redo-scan-start-point.
    ///
    /// Those pages are exactly `tc`'s dirty-page-table entries with a
    /// recLSN below `new_rssp`, so the handler flushes those and never
    /// scans the cache. It makes at most two passes and never waits: a
    /// page still ineligible on the second pass (it also holds a live
    /// writer's unforced operation) stays dirty, and the grant falls to
    /// the lowest such recLSN — redo restarts at the oldest operation
    /// still unflushed, and a later checkpoint picks the page up.
    pub fn handle_checkpoint(&self, tc: TcId, new_rssp: Lsn) -> Lsn {
        let mut pending = self.dirty.pages_below(tc, new_rssp);
        for _ in 0..2 {
            if pending.is_empty() {
                break;
            }
            DcStats::bump(&self.stats.checkpoint_passes);
            pending.retain(|(pid, _)| self.flush_page(*pid) == FlushResult::NotEligible);
        }
        for (pid, _) in &pending {
            // An unflushed page keeps accepting operations.
            if let Some(arc) = self.pool.get_cached(*pid) {
                arc.write().sync_freeze = false;
            }
        }
        DcStats::add(&self.stats.checkpoint_unflushed, pending.len() as u64);
        pending
            .iter()
            .map(|(_, rec)| *rec)
            .min()
            .map_or(new_rssp, |floor| floor.min(new_rssp))
    }

    /// Pages holding unflushed effects of `tc`'s operations (its dirty
    /// page table's size).
    pub fn dirty_pages(&self, tc: TcId) -> usize {
        self.dirty.len(tc)
    }

    /// DC-initiated checkpoint: flush everything eligible; if the cache
    /// is fully clean, truncate the DC log (all system transactions are
    /// reflected on disk). Returns true if the log was truncated.
    pub fn dc_checkpoint(&self) -> bool {
        self.flush_all();
        let any_dirty = self.pool.cached_ids().iter().any(|pid| {
            self.pool
                .get_cached(*pid)
                .map(|a| a.read().dirty)
                .unwrap_or(false)
        });
        if any_dirty {
            return false;
        }
        let stable = self.log.force();
        self.log.store().truncate_prefix(stable.0);
        self.persist_catalog();
        true
    }

    // ------------------------------------------------------------------
    // Introspection for tests & experiments
    // ------------------------------------------------------------------

    /// Walk a table in key order, returning committed-visible entries
    /// (bypasses the message layer; used by tests and verifiers).
    pub fn dump_table(&self, table: TableId) -> Result<Vec<(Key, Vec<u8>)>, DcError> {
        let entries = self.scan(table, &Key::empty(), None, None, Some(ReadFlavor::Latest))?;
        Ok(entries.into_iter().map(|(k, v)| (k, v.unwrap())).collect())
    }

    /// Check structural invariants of a table's tree (fences, ordering,
    /// reachability). Panics with a description on violation.
    pub fn check_tree(&self, table: TableId) {
        let t = self.table(table).expect("table exists");
        let _tree = t.tree_latch.read();
        let root = *t.root.lock();
        let mut leaf_keys: Vec<Key> = Vec::new();
        self.check_node(root, &Key::empty(), None, &mut leaf_keys);
        for w in leaf_keys.windows(2) {
            assert!(w[0] < w[1], "leaf keys out of order: {} !< {}", w[0], w[1]);
        }
    }

    fn check_node(&self, pid: PageId, low: &Key, high: Option<&Key>, keys: &mut Vec<Key>) {
        let arc = self
            .pool
            .get(pid)
            .unwrap_or_else(|| panic!("unreachable page {pid}"));
        let g = arc.read();
        assert!(
            &g.low_fence >= low || g.low_fence.is_empty(),
            "fence low violated at {pid}"
        );
        if let (Some(h), Some(hf)) = (high, g.high_fence.as_ref()) {
            assert!(hf <= h, "fence high violated at {pid}");
        }
        match &g.data {
            PageData::Leaf(entries) => {
                for (k, _) in entries {
                    assert!(g.covers(k), "leaf {pid} stores {k} outside its fences");
                    keys.push(k.clone());
                }
            }
            PageData::Branch(entries) => {
                assert!(!entries.is_empty(), "empty branch {pid}");
                for w in entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "branch separators out of order at {pid}");
                }
                for (i, (sep, child)) in entries.iter().enumerate() {
                    let child_high = entries.get(i + 1).map(|(k, _)| k).or(g.high_fence.as_ref());
                    self.check_node(*child, sep, child_high, keys);
                }
            }
        }
    }
}
