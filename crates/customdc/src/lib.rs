//! # unbundled-customdc
//!
//! Application-specific Data Components — the paper's headline
//! flexibility claim (Figure 1 shows "RDF & text" and "3D-shape index"
//! DCs next to ordinary table DCs; Section 2's photo-sharing application
//! wants "home-grown index managers as DCs").
//!
//! [`SimpleDc`] is a compact single-structure store that nonetheless
//! satisfies every DC obligation of Section 4.1.2 and the interaction
//! contracts of Section 4.2:
//!
//! * **atomic operations** — one store-wide latch (operations are short);
//! * **idempotence** — a per-TC abstract LSN over the whole store (the
//!   degenerate one-page case of Section 5.1.2);
//! * **causality** — snapshots persist only operations covered by the
//!   TC's end-of-stable-log;
//! * **checkpoint / restart** — snapshot-based, with TC-crash reset by
//!   reloading the stable snapshot;
//! * **stamp and revert** — the TC commits a write with `StampCommit`
//!   and undoes it with `RevertVersion`, both naming the write's op LSN,
//!   so the store keeps the committed doc beneath each unstamped write
//!   (one doc, not a chain). That same doc serves `Committed` readers.
//!   `Snapshot` readers are served the latest doc: the store keeps no
//!   commit-LSN history (ROADMAP item 4).
//!
//! Writing such a DC is, as the paper promises, "simpler than designing
//! and coding a high-performance transactional storage subsystem": the
//! whole component is a few hundred lines, and transactions come from
//! any TC that speaks the contract.
//!
//! Two secondary-index plug-ins demonstrate heterogeneity:
//! * [`TextIndexer`] — an inverted term index (the photo app's review /
//!   tag search);
//! * [`GridIndexer`] — a spatial grid (the photo app's "photos of the
//!   same object" / 3D-shape stand-in).

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use unbundled_core::codec::{Decoder, Encoder};
use unbundled_core::{
    CoreError, DataComponentApi, DcError, DcId, DcToTc, Key, LogicalOp, Lsn, OpResult, PageId,
    PerTcAbLsn, ReadFlavor, RequestId, TableId, TcId, TcToDc,
};
use unbundled_storage::SimDisk;

/// Derives secondary-index entries from a document.
pub trait SecondaryIndexer: Send + Sync {
    /// Index entry keys for a document (e.g. its terms, its grid cell).
    fn entries(&self, key: &Key, value: &[u8]) -> Vec<Key>;
}

/// Inverted text index: one entry per lowercase alphanumeric term.
pub struct TextIndexer;

impl SecondaryIndexer for TextIndexer {
    fn entries(&self, _key: &Key, value: &[u8]) -> Vec<Key> {
        let text = String::from_utf8_lossy(value);
        let mut terms: BTreeSet<String> = BTreeSet::new();
        for token in text.split(|c: char| !c.is_alphanumeric()) {
            if !token.is_empty() {
                terms.insert(token.to_lowercase());
            }
        }
        terms
            .into_iter()
            .map(|t| Key::from_bytes(t.into_bytes()))
            .collect()
    }
}

/// Spatial grid index: documents start with two little-endian `u32`
/// coordinates; the entry is the containing grid cell.
pub struct GridIndexer {
    /// Cell edge length.
    pub cell: u32,
}

impl SecondaryIndexer for GridIndexer {
    fn entries(&self, _key: &Key, value: &[u8]) -> Vec<Key> {
        if value.len() < 8 {
            return Vec::new();
        }
        let x = u32::from_le_bytes(value[0..4].try_into().unwrap());
        let y = u32::from_le_bytes(value[4..8].try_into().unwrap());
        let cell = self.cell.max(1);
        vec![Key::from_pair((x / cell) as u64, (y / cell) as u64)]
    }
}

struct Store {
    /// Latest documents: committed, or written by an in-flight op.
    docs: BTreeMap<Key, Vec<u8>>,
    /// Documents under an unstamped write: key → (op LSN of the last
    /// such write, the committed doc beneath it; `None` = absent). This
    /// is the whole version state revert and stamp need: a write notes
    /// the doc it replaces, `StampCommit` of its op drops the entry, and
    /// `RevertVersion` restores the doc beneath.
    pending: BTreeMap<Key, (Lsn, Option<Vec<u8>>)>,
    /// index entry → documents (over `docs`).
    index: BTreeMap<Key, BTreeSet<Key>>,
    ab: PerTcAbLsn,
    /// Replication stream frontier applied so far (replica role); rides
    /// in the snapshot, so the durable frontier is exactly what the
    /// stable snapshot reflects.
    frontier: Lsn,
}

fn corrupt(e: CoreError) -> DcError {
    DcError::Corrupt(e.to_string())
}

impl Store {
    fn new() -> Store {
        Store {
            docs: BTreeMap::new(),
            pending: BTreeMap::new(),
            index: BTreeMap::new(),
            ab: PerTcAbLsn::new(),
            frontier: Lsn(0),
        }
    }

    /// The snapshot image. It carries `pending`, so an uncommitted write
    /// that causality let into a snapshot can still be reverted after a
    /// crash.
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.ab.encode(&mut e);
        e.u64(self.frontier.0);
        e.u32(self.docs.len() as u32);
        for (k, v) in &self.docs {
            e.bytes(k.as_bytes());
            e.bytes(v);
        }
        e.u32(self.pending.len() as u32);
        for (k, (op, beneath)) in &self.pending {
            e.bytes(k.as_bytes());
            e.u64(op.0);
            e.bool(beneath.is_some());
            e.bytes(beneath.as_deref().unwrap_or_default());
        }
        e.finish()
    }

    fn decode(buf: &[u8], indexer: &dyn SecondaryIndexer) -> Result<Store, DcError> {
        let mut d = Decoder::new(buf);
        let mut s = Store::new();
        s.ab = PerTcAbLsn::decode(&mut d).map_err(corrupt)?;
        s.frontier = Lsn(d.u64().map_err(corrupt)?);
        for _ in 0..d.u32().map_err(corrupt)? {
            let k = Key::from_bytes(d.bytes().map_err(corrupt)?.to_vec());
            let v = d.bytes().map_err(corrupt)?.to_vec();
            s.put(&k, Some(v), indexer);
        }
        for _ in 0..d.u32().map_err(corrupt)? {
            let k = Key::from_bytes(d.bytes().map_err(corrupt)?.to_vec());
            let op = Lsn(d.u64().map_err(corrupt)?);
            let some = d.bool().map_err(corrupt)?;
            let v = d.bytes().map_err(corrupt)?.to_vec();
            s.pending.insert(k, (op, some.then_some(v)));
        }
        Ok(s)
    }

    /// Replace `key`'s latest doc (`None` removes it), moving its index
    /// entries along; returns the doc replaced.
    fn put(
        &mut self,
        key: &Key,
        value: Option<Vec<u8>>,
        indexer: &dyn SecondaryIndexer,
    ) -> Option<Vec<u8>> {
        let old = self.docs.remove(key);
        for e in old.iter().flat_map(|v| indexer.entries(key, v)) {
            if let Some(set) = self.index.get_mut(&e) {
                set.remove(key);
                if set.is_empty() {
                    self.index.remove(&e);
                }
            }
        }
        if let Some(v) = value {
            for e in indexer.entries(key, &v) {
                self.index.entry(e).or_default().insert(key.clone());
            }
            self.docs.insert(key.clone(), v);
        }
        old
    }

    /// The doc a reader at `flavor` sees under `key`. `Committed` reads
    /// the doc beneath an unstamped write. `Snapshot` is served like
    /// `Latest`: this store keeps no commit-LSN history.
    fn visible(&self, key: &Key, flavor: ReadFlavor) -> Option<&Vec<u8>> {
        match (flavor, self.pending.get(key)) {
            (ReadFlavor::Committed, Some((_, beneath))) => beneath.as_ref(),
            _ => self.docs.get(key),
        }
    }

    /// Keys of `docs` and `pending` from `low` up, ascending and without
    /// repeats: every key a reader of any flavor may find a doc under.
    fn keys_from<'a>(&'a self, low: &Key) -> impl Iterator<Item = &'a Key> + 'a {
        let mut docs = self.docs.range(low.clone()..).map(|(k, _)| k).peekable();
        let mut pending = self.pending.range(low.clone()..).map(|(k, _)| k).peekable();
        std::iter::from_fn(move || match (docs.peek(), pending.peek()) {
            (Some(d), Some(p)) if p < d => pending.next(),
            (Some(d), Some(p)) if p == d => {
                pending.next();
                docs.next()
            }
            (Some(_), _) => docs.next(),
            (None, _) => pending.next(),
        })
    }

    /// Apply one mutation of the data table, made by op `lsn`.
    fn apply(
        &mut self,
        op: &LogicalOp,
        lsn: Lsn,
        indexer: &dyn SecondaryIndexer,
    ) -> Result<(), DcError> {
        let (key, value) = match op {
            LogicalOp::Insert { table, key, .. } if self.docs.contains_key(key) => {
                return Err(DcError::DuplicateKey(*table, key.clone()));
            }
            LogicalOp::Update { table, key, .. } | LogicalOp::Delete { table, key }
                if !self.docs.contains_key(key) =>
            {
                return Err(DcError::KeyNotFound(*table, key.clone()));
            }
            LogicalOp::Insert { key, value, .. }
            | LogicalOp::Update { key, value, .. }
            | LogicalOp::VersionedWrite { key, value, .. } => (key, Some(value.clone())),
            LogicalOp::Delete { key, .. } => (key, None),
            LogicalOp::RevertVersion { key, op, .. } => {
                if self.pending.get(key).is_some_and(|(last, _)| last <= op) {
                    let (_, beneath) = self.pending.remove(key).expect("checked");
                    self.put(key, beneath, indexer);
                }
                return Ok(());
            }
            LogicalOp::StampCommit { key, op, .. } => {
                if self.pending.get(key).is_some_and(|(last, _)| last == op) {
                    self.pending.remove(key);
                }
                return Ok(());
            }
            other => return Err(DcError::NoSuchTable(other.table())),
        };
        let old = self.put(key, value, indexer);
        // The first unstamped write notes the committed doc beneath;
        // later ones only move the op LSN a stamp or revert must name.
        self.pending.entry(key.clone()).or_insert((lsn, old)).0 = lsn;
        Ok(())
    }
}

/// A single-structure application DC with a pluggable secondary index.
///
/// Tables: `data_table` holds documents; `view_table` is a *virtual*
/// read-only view of the secondary index — scanning it with an index
/// entry (prefix) as the bound returns matching documents.
pub struct SimpleDc {
    id: DcId,
    data_table: TableId,
    view_table: TableId,
    indexer: Arc<dyn SecondaryIndexer>,
    disk: SimDisk,
    store: Mutex<Store>,
    eosl: Mutex<Vec<(TcId, Lsn)>>,
    /// Mutations rejected while set (read-only replica, or a primary
    /// fenced at failover). Custom DCs speak the same replication
    /// contract as the B-tree DC: [`TcToDc::ShipBatch`] replays into
    /// the store idempotently, and [`TcToDc::Promote`] lifts the fence.
    fenced: std::sync::atomic::AtomicBool,
    /// Created as a replica (applies ship batches until promoted).
    replica: bool,
    /// Durable stream frontier = the frontier inside the last stable
    /// snapshot.
    durable: Mutex<Lsn>,
    promoted: std::sync::atomic::AtomicBool,
}

const SNAPSHOT_PAGE: PageId = PageId(1);

impl SimpleDc {
    fn build(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
        replica: bool,
    ) -> Arc<SimpleDc> {
        Arc::new(SimpleDc {
            id,
            data_table,
            view_table,
            indexer,
            disk,
            store: Mutex::new(Store::new()),
            eosl: Mutex::new(Vec::new()),
            fenced: std::sync::atomic::AtomicBool::new(replica),
            replica,
            durable: Mutex::new(Lsn(0)),
            promoted: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// A fresh DC (writable primary).
    pub fn new(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
    ) -> Arc<SimpleDc> {
        Self::build(id, data_table, view_table, indexer, disk, false)
    }

    /// A fresh **read-only replica**: applies [`TcToDc::ShipBatch`]
    /// streams and serves reads; rejects mutations until promoted.
    pub fn new_replica(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
    ) -> Arc<SimpleDc> {
        Self::build(id, data_table, view_table, indexer, disk, true)
    }

    /// Reboot from the stable snapshot (crash recovery). A replica
    /// resumes at the frontier its stable snapshot reflects.
    pub fn recover(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
    ) -> Arc<SimpleDc> {
        Self::recover_with_role(id, data_table, view_table, indexer, disk, false)
    }

    /// Reboot a replica from its stable snapshot.
    pub fn recover_replica(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
    ) -> Arc<SimpleDc> {
        Self::recover_with_role(id, data_table, view_table, indexer, disk, true)
    }

    fn recover_with_role(
        id: DcId,
        data_table: TableId,
        view_table: TableId,
        indexer: Arc<dyn SecondaryIndexer>,
        disk: SimDisk,
        replica: bool,
    ) -> Arc<SimpleDc> {
        let dc = Self::build(id, data_table, view_table, indexer.clone(), disk, replica);
        if let Some(img) = dc.disk.read_page(SNAPSHOT_PAGE) {
            if let Ok(s) = Store::decode(&img, &*indexer) {
                *dc.durable.lock() = s.frontier;
                *dc.store.lock() = s;
            }
        }
        dc
    }

    /// The replica's `(applied, durable)` stream frontiers.
    pub fn replica_frontier(&self) -> (Lsn, Lsn) {
        (self.store.lock().frontier, *self.durable.lock())
    }

    /// Whether mutations are currently rejected.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(std::sync::atomic::Ordering::Acquire)
    }

    fn eosl_for(&self, tc: TcId) -> Lsn {
        self.eosl
            .lock()
            .iter()
            .find(|(t, _)| *t == tc)
            .map(|(_, l)| *l)
            .unwrap_or(Lsn::NULL)
    }

    /// Snapshot the store if causality allows (every applied operation
    /// covered by its TC's EOSL). Returns true if persisted.
    pub fn try_snapshot(&self) -> bool {
        let store = self.store.lock();
        for (tc, ab) in store.ab.iter() {
            if ab.max_included() > self.eosl_for(tc) {
                return false;
            }
        }
        self.disk.write_page(SNAPSHOT_PAGE, store.encode());
        *self.durable.lock() = store.frontier;
        true
    }

    /// Number of documents (tests).
    pub fn doc_count(&self) -> usize {
        self.store.lock().docs.len()
    }

    fn perform(&self, tc: TcId, req: RequestId, op: &LogicalOp) -> Result<OpResult, DcError> {
        let mut store = self.store.lock();
        self.perform_locked(&mut store, tc, req, op)
    }

    /// One operation through the fencing policy — shared by the
    /// single-`Perform` and `PerformBatch` paths so the two can never
    /// diverge.
    fn perform_checked(
        &self,
        tc: TcId,
        req: RequestId,
        op: &LogicalOp,
    ) -> Result<OpResult, DcError> {
        // Commit-path applies only, matching the stock engine's policy.
        let _s = unbundled_obs::stage::in_commit_scope()
            .then(|| unbundled_obs::span1("dc.apply", "table", op.table().0 as u64));
        let t0 = std::time::Instant::now();
        let result = if op.is_mutation() && self.is_fenced() {
            Err(DcError::Fenced(self.id))
        } else {
            self.perform(tc, req, op)
        };
        unbundled_obs::stage::add(
            unbundled_obs::stage::Stage::Apply,
            t0.elapsed().as_nanos() as u64,
        );
        result
    }

    /// Operation body under the store lock — ship-batch replay holds the
    /// lock across a whole batch so readers never see a shipped
    /// transaction half-applied.
    fn perform_locked(
        &self,
        store: &mut Store,
        tc: TcId,
        req: RequestId,
        op: &LogicalOp,
    ) -> Result<OpResult, DcError> {
        let indexer = self.indexer.clone();
        match op {
            op if op.is_mutation() && op.table() == self.data_table => {
                let lsn = req.lsn().expect("mutation lsn");
                if store.ab.get(tc).is_some_and(|ab| ab.includes(lsn)) {
                    return Ok(OpResult::Done);
                }
                store.apply(op, lsn, &*indexer)?;
                store.ab.get_mut(tc).record(lsn);
                Ok(OpResult::Done)
            }
            LogicalOp::Read { table, key, flavor } if *table == self.data_table => {
                Ok(OpResult::Value(store.visible(key, *flavor).cloned()))
            }
            LogicalOp::ScanRange {
                table,
                low,
                high,
                limit,
                flavor,
            } => {
                if *table == self.data_table {
                    let mut out = Vec::new();
                    for k in store.keys_from(low) {
                        if high.as_ref().is_some_and(|h| k >= h) {
                            break;
                        }
                        let Some(v) = store.visible(k, *flavor) else {
                            continue;
                        };
                        out.push((k.clone(), v.clone()));
                        if limit.map(|l| out.len() >= l).unwrap_or(false) {
                            break;
                        }
                    }
                    Ok(OpResult::Entries(out))
                } else if *table == self.view_table {
                    // Virtual index view: `low` names an index entry; the
                    // result is the matching documents.
                    let mut out = Vec::new();
                    if let Some(docs) = store.index.get(low) {
                        for dk in docs {
                            if let Some(v) = store.docs.get(dk) {
                                out.push((dk.clone(), v.clone()));
                                if limit.map(|l| out.len() >= l).unwrap_or(false) {
                                    break;
                                }
                            }
                        }
                    }
                    Ok(OpResult::Entries(out))
                } else {
                    Err(DcError::NoSuchTable(*table))
                }
            }
            LogicalOp::ProbeKeys { table, from, count } if *table == self.data_table => {
                let keys = store
                    .docs
                    .range(from.clone()..)
                    .take(*count)
                    .map(|(k, _)| k.clone())
                    .collect();
                Ok(OpResult::Keys(keys))
            }
            other => Err(DcError::NoSuchTable(other.table())),
        }
    }
}

impl DataComponentApi for SimpleDc {
    fn dc_id(&self) -> DcId {
        self.id
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        match msg {
            TcToDc::Perform { tc, req, op } => {
                let result = self.perform_checked(tc, req, &op);
                out.push(DcToTc::Reply {
                    dc: self.id,
                    tc,
                    req,
                    result,
                });
            }
            TcToDc::PerformBatch { tc, ops } => {
                // Coalesce the per-op acks into one `ReplyBatch`
                // datagram, mirroring the batched request direction.
                let replies: Vec<_> = ops
                    .into_iter()
                    .map(|(req, op)| (req, self.perform_checked(tc, req, &op)))
                    .collect();
                if replies.len() == 1 {
                    let (req, result) = replies.into_iter().next().expect("one reply");
                    out.push(DcToTc::Reply {
                        dc: self.id,
                        tc,
                        req,
                        result,
                    });
                } else {
                    out.push(DcToTc::ReplyBatch {
                        dc: self.id,
                        tc,
                        replies,
                    });
                }
            }
            TcToDc::EndOfStableLog { tc, eosl } => {
                let mut g = self.eosl.lock();
                match g.iter_mut().find(|(t, _)| *t == tc) {
                    Some(e) => e.1 = e.1.max(eosl),
                    None => g.push((tc, eosl)),
                }
            }
            TcToDc::LowWaterMark { tc, lwm } => {
                let clamped = lwm.min(self.eosl_for(tc));
                self.store.lock().ab.get_mut(tc).advance_lw(clamped);
            }
            TcToDc::Checkpoint { tc, new_rssp } => {
                let granted = if self.try_snapshot() {
                    new_rssp
                } else {
                    Lsn(1) // cannot release the resend obligation yet
                };
                out.push(DcToTc::CheckpointDone {
                    dc: self.id,
                    tc,
                    rssp: granted,
                });
            }
            TcToDc::RestartBegin { tc, stable_end } => {
                // Reset: if this TC's operations beyond its stable log
                // are reflected, reload the stable snapshot (the simple
                // store's "drop affected pages" is all-or-nothing).
                let affected = {
                    let store = self.store.lock();
                    store
                        .ab
                        .get(tc)
                        .map(|ab| ab.max_included() > stable_end)
                        .unwrap_or(false)
                };
                if affected {
                    let reloaded = self
                        .disk
                        .read_page(SNAPSHOT_PAGE)
                        .and_then(|img| Store::decode(&img, &*self.indexer).ok())
                        .unwrap_or_else(Store::new);
                    *self.store.lock() = reloaded;
                }
                out.push(DcToTc::RestartReady { dc: self.id, tc });
            }
            TcToDc::RestartEnd { tc } => {
                out.push(DcToTc::RestartDone { dc: self.id, tc });
            }
            TcToDc::ShipBatch {
                tc,
                prev,
                upto,
                eosl,
                groups,
                // The in-set prune bound is abLSN machinery; this store
                // tracks one applied frontier, which subsumes it.
                prune: _,
            } => {
                if !self.replica || self.promoted.load(std::sync::atomic::Ordering::Acquire) {
                    return; // primaries ignore stray ship traffic
                }
                // Everything shipped is stable at the primary.
                {
                    let mut g = self.eosl.lock();
                    match g.iter_mut().find(|(t, _)| *t == tc) {
                        Some(e) => e.1 = e.1.max(eosl),
                        None => g.push((tc, eosl)),
                    }
                }
                let applied = {
                    // Held across the whole batch: apply is atomic with
                    // respect to concurrent readers.
                    let mut store = self.store.lock();
                    if prev > store.frontier {
                        store.frontier // gap: an earlier batch was lost
                    } else {
                        for (pos, records) in groups {
                            if pos <= store.frontier {
                                continue; // re-delivered group: skip whole
                            }
                            for (lsn, op) in records {
                                // Deterministic logical errors (e.g.
                                // compensations without originals) are
                                // fine.
                                let _ =
                                    self.perform_locked(&mut store, tc, RequestId::Op(lsn), &op);
                            }
                            store.frontier = pos;
                        }
                        if upto > store.frontier {
                            store.frontier = upto;
                        }
                        store.frontier
                    }
                };
                // Durability: snapshot when causality allows; the
                // snapshot carries the frontier it reflects.
                self.try_snapshot();
                out.push(DcToTc::ShipAck {
                    dc: self.id,
                    tc,
                    applied,
                    durable: *self.durable.lock(),
                });
            }
            TcToDc::Fence { .. } => {
                self.fenced
                    .store(true, std::sync::atomic::Ordering::Release);
            }
            TcToDc::Promote { .. } => {
                if self.replica {
                    self.promoted
                        .store(true, std::sync::atomic::Ordering::Release);
                    self.fenced
                        .store(false, std::sync::atomic::Ordering::Release);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: TableId = TableId(10);
    const VIEW: TableId = TableId(11);

    fn text_dc() -> Arc<SimpleDc> {
        SimpleDc::new(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), SimDisk::new())
    }

    fn perform(dc: &SimpleDc, req: RequestId, op: LogicalOp) -> Result<OpResult, DcError> {
        let mut out = Vec::new();
        dc.handle(
            TcToDc::Perform {
                tc: TcId(1),
                req,
                op,
            },
            &mut out,
        );
        match out.pop() {
            Some(DcToTc::Reply { result, .. }) => result,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn apply(dc: &SimpleDc, lsn: u64, op: LogicalOp) {
        perform(dc, RequestId::Op(Lsn(lsn)), op).unwrap();
    }

    fn put(key: u64, value: &[u8]) -> LogicalOp {
        LogicalOp::VersionedWrite {
            table: DOCS,
            key: Key::from_u64(key),
            value: value.to_vec(),
        }
    }

    fn stamp(key: u64, op: u64) -> LogicalOp {
        LogicalOp::StampCommit {
            table: DOCS,
            key: Key::from_u64(key),
            op: Lsn(op),
            commit: Lsn(op + 1),
        }
    }

    fn revert(key: u64, op: u64) -> LogicalOp {
        LogicalOp::RevertVersion {
            table: DOCS,
            key: Key::from_u64(key),
            op: Lsn(op),
        }
    }

    fn read(dc: &SimpleDc, key: u64, flavor: ReadFlavor) -> Option<Vec<u8>> {
        let op = LogicalOp::Read {
            table: DOCS,
            key: Key::from_u64(key),
            flavor,
        };
        perform(dc, RequestId::Read(0), op).unwrap().into_value()
    }

    fn scan(dc: &SimpleDc, table: TableId, low: Key, flavor: ReadFlavor) -> Vec<(Key, Vec<u8>)> {
        let op = LogicalOp::ScanRange {
            table,
            low,
            high: None,
            limit: None,
            flavor,
        };
        perform(dc, RequestId::Read(0), op).unwrap().into_entries()
    }

    fn hits(dc: &SimpleDc, term: &str) -> usize {
        scan(dc, VIEW, Key::from_str_key(term), ReadFlavor::Latest).len()
    }

    #[test]
    fn committed_reads_and_scans_see_the_doc_beneath_an_unstamped_write() {
        let dc = text_dc();
        apply(&dc, 1, put(1, b"v0"));
        apply(&dc, 2, stamp(1, 1));
        apply(&dc, 3, put(2, b"w0"));
        apply(&dc, 4, stamp(2, 3));
        // In flight: an update of 1, a delete of 2, an insert of 3.
        apply(&dc, 5, put(1, b"dirty"));
        let delete = LogicalOp::Delete {
            table: DOCS,
            key: Key::from_u64(2),
        };
        apply(&dc, 6, delete);
        let insert = LogicalOp::Insert {
            table: DOCS,
            key: Key::from_u64(3),
            value: b"new".to_vec(),
        };
        apply(&dc, 7, insert);
        assert_eq!(read(&dc, 1, ReadFlavor::Committed), Some(b"v0".to_vec()));
        assert_eq!(read(&dc, 1, ReadFlavor::Latest), Some(b"dirty".to_vec()));
        assert_eq!(read(&dc, 2, ReadFlavor::Committed), Some(b"w0".to_vec()));
        assert_eq!(read(&dc, 2, ReadFlavor::Latest), None);
        assert_eq!(read(&dc, 3, ReadFlavor::Committed), None);
        let row = |k: u64, v: &[u8]| (Key::from_u64(k), v.to_vec());
        assert_eq!(
            scan(&dc, DOCS, Key::empty(), ReadFlavor::Committed),
            vec![row(1, b"v0"), row(2, b"w0")]
        );
        assert_eq!(
            scan(&dc, DOCS, Key::empty(), ReadFlavor::Latest),
            vec![row(1, b"dirty"), row(3, b"new")]
        );
        // Only the stamp of the last write publishes it.
        apply(&dc, 8, stamp(2, 3));
        assert_eq!(read(&dc, 2, ReadFlavor::Committed), Some(b"w0".to_vec()));
        apply(&dc, 9, stamp(1, 5));
        assert_eq!(read(&dc, 1, ReadFlavor::Committed), Some(b"dirty".to_vec()));
    }

    #[test]
    fn revert_restores_the_committed_doc_and_its_index_entries() {
        let dc = text_dc();
        apply(&dc, 1, put(1, b"golden gate"));
        apply(&dc, 2, stamp(1, 1));
        // One transaction writes key 1 twice and inserts key 2.
        apply(&dc, 3, put(1, b"silver bridge"));
        apply(&dc, 4, put(1, b"bronze gate"));
        apply(&dc, 5, put(2, b"golden retriever"));
        assert_eq!(hits(&dc, "golden"), 1);
        // One revert per key, naming its last write.
        apply(&dc, 6, revert(1, 4));
        apply(&dc, 7, revert(2, 5));
        assert_eq!(
            read(&dc, 1, ReadFlavor::Latest),
            Some(b"golden gate".to_vec())
        );
        assert_eq!(read(&dc, 2, ReadFlavor::Latest), None);
        assert_eq!(dc.doc_count(), 1);
        assert_eq!(hits(&dc, "golden"), 1);
        assert_eq!(hits(&dc, "gate"), 1);
        assert_eq!(hits(&dc, "silver") + hits(&dc, "bronze"), 0);
        // A resent revert is a no-op, and one naming an older op never
        // touches a later writer's doc.
        apply(&dc, 8, revert(1, 4));
        apply(&dc, 9, put(1, b"later"));
        apply(&dc, 10, revert(1, 4));
        assert_eq!(read(&dc, 1, ReadFlavor::Latest), Some(b"later".to_vec()));
        assert_eq!(
            read(&dc, 1, ReadFlavor::Committed),
            Some(b"golden gate".to_vec())
        );
    }

    #[test]
    fn an_unstamped_write_in_the_snapshot_reverts_after_a_crash() {
        let disk = SimDisk::new();
        let dc = SimpleDc::new(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), disk.clone());
        apply(&dc, 1, put(1, b"committed"));
        apply(&dc, 2, stamp(1, 1));
        apply(&dc, 3, put(1, b"uncommitted"));
        let mut out = Vec::new();
        dc.handle(
            TcToDc::EndOfStableLog {
                tc: TcId(1),
                eosl: Lsn(3),
            },
            &mut out,
        );
        assert!(dc.try_snapshot());
        let dc = SimpleDc::recover(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), disk);
        assert_eq!(
            read(&dc, 1, ReadFlavor::Committed),
            Some(b"committed".to_vec())
        );
        apply(&dc, 4, revert(1, 3));
        assert_eq!(
            read(&dc, 1, ReadFlavor::Latest),
            Some(b"committed".to_vec())
        );
        assert_eq!(hits(&dc, "uncommitted"), 0);
        assert_eq!(hits(&dc, "committed"), 1);
    }

    #[test]
    fn text_indexing_and_search() {
        let dc = text_dc();
        perform(
            &dc,
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(1),
                value: b"Golden Gate bridge at sunset".to_vec(),
            },
        )
        .unwrap();
        perform(
            &dc,
            RequestId::Op(Lsn(2)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(2),
                value: b"golden retriever".to_vec(),
            },
        )
        .unwrap();
        let r = perform(
            &dc,
            RequestId::Read(1),
            LogicalOp::ScanRange {
                table: VIEW,
                low: Key::from_str_key("golden"),
                high: None,
                limit: None,
                flavor: unbundled_core::ReadFlavor::Latest,
            },
        )
        .unwrap();
        assert_eq!(r.into_entries().len(), 2, "both docs contain 'golden'");
        let r = perform(
            &dc,
            RequestId::Read(2),
            LogicalOp::ScanRange {
                table: VIEW,
                low: Key::from_str_key("bridge"),
                high: None,
                limit: None,
                flavor: unbundled_core::ReadFlavor::Latest,
            },
        )
        .unwrap();
        assert_eq!(r.into_entries().len(), 1);
    }

    #[test]
    fn idempotence_via_ablsn() {
        let dc = text_dc();
        let op = LogicalOp::Insert {
            table: DOCS,
            key: Key::from_u64(1),
            value: b"abc".to_vec(),
        };
        perform(&dc, RequestId::Op(Lsn(1)), op.clone()).unwrap();
        // duplicate delivery suppressed (no DuplicateKey error)
        assert_eq!(
            perform(&dc, RequestId::Op(Lsn(1)), op).unwrap(),
            OpResult::Done
        );
        assert_eq!(dc.doc_count(), 1);
    }

    #[test]
    fn delete_removes_index_entries() {
        let dc = text_dc();
        perform(
            &dc,
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(1),
                value: b"unique term".to_vec(),
            },
        )
        .unwrap();
        perform(
            &dc,
            RequestId::Op(Lsn(2)),
            LogicalOp::Delete {
                table: DOCS,
                key: Key::from_u64(1),
            },
        )
        .unwrap();
        let r = perform(
            &dc,
            RequestId::Read(1),
            LogicalOp::ScanRange {
                table: VIEW,
                low: Key::from_str_key("unique"),
                high: None,
                limit: None,
                flavor: unbundled_core::ReadFlavor::Latest,
            },
        )
        .unwrap();
        assert!(r.into_entries().is_empty());
    }

    #[test]
    fn snapshot_respects_causality_then_recovers() {
        let disk = SimDisk::new();
        let dc = SimpleDc::new(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), disk.clone());
        perform(
            &dc,
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(1),
                value: b"x".to_vec(),
            },
        )
        .unwrap();
        assert!(
            !dc.try_snapshot(),
            "EOSL not received: snapshot must refuse"
        );
        let mut out = Vec::new();
        dc.handle(
            TcToDc::EndOfStableLog {
                tc: TcId(1),
                eosl: Lsn(1),
            },
            &mut out,
        );
        assert!(dc.try_snapshot());
        // Crash + recover from the snapshot.
        let dc2 = SimpleDc::recover(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), disk);
        assert_eq!(dc2.doc_count(), 1);
        // The abLSN came back with the snapshot: replay suppressed.
        assert_eq!(
            perform(
                &dc2,
                RequestId::Op(Lsn(1)),
                LogicalOp::Insert {
                    table: DOCS,
                    key: Key::from_u64(1),
                    value: b"x".to_vec()
                },
            )
            .unwrap(),
            OpResult::Done
        );
    }

    #[test]
    fn replica_simpledc_applies_ship_stream_and_promotes() {
        let disk = SimDisk::new();
        let dc = SimpleDc::new_replica(DcId(8), DOCS, VIEW, Arc::new(TextIndexer), disk.clone());
        // Direct writes are fenced off.
        let r = perform(
            &dc,
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(1),
                value: b"w".to_vec(),
            },
        );
        assert!(matches!(r, Err(DcError::Fenced(_))));
        // Shipped committed redo applies; duplicates suppressed; gaps drop.
        let mut out = Vec::new();
        let batch = TcToDc::ShipBatch {
            tc: TcId(1),
            prev: Lsn(0),
            upto: Lsn(3),
            eosl: Lsn(3),
            prune: Lsn(0),
            groups: vec![(
                Lsn(3),
                vec![(
                    Lsn(2),
                    LogicalOp::Insert {
                        table: DOCS,
                        key: Key::from_u64(1),
                        value: b"golden doc".to_vec(),
                    },
                )],
            )],
        };
        dc.handle(batch.clone(), &mut out);
        assert!(
            matches!(out.last(), Some(DcToTc::ShipAck { applied, durable, .. })
                if *applied == Lsn(3) && *durable == Lsn(3)),
            "snapshot-capable store is durable immediately: {out:?}"
        );
        dc.handle(batch, &mut out); // duplicate: idempotent
        assert_eq!(dc.doc_count(), 1);
        dc.handle(
            TcToDc::ShipBatch {
                tc: TcId(1),
                prev: Lsn(9),
                upto: Lsn(12),
                eosl: Lsn(12),
                prune: Lsn(0),
                groups: vec![(
                    Lsn(12),
                    vec![(
                        Lsn(10),
                        LogicalOp::Insert {
                            table: DOCS,
                            key: Key::from_u64(5),
                            value: b"gapped".to_vec(),
                        },
                    )],
                )],
            },
            &mut out,
        );
        assert_eq!(dc.doc_count(), 1, "gapped batch discarded");
        assert_eq!(dc.replica_frontier().0, Lsn(3));
        // The secondary index followed the shipped stream.
        let r = perform(
            &dc,
            RequestId::Read(1),
            LogicalOp::ScanRange {
                table: VIEW,
                low: Key::from_str_key("golden"),
                high: None,
                limit: None,
                flavor: unbundled_core::ReadFlavor::Latest,
            },
        )
        .unwrap();
        assert_eq!(r.into_entries().len(), 1);
        // Reboot: resumes at the snapshot's frontier.
        let dc2 = SimpleDc::recover_replica(DcId(8), DOCS, VIEW, Arc::new(TextIndexer), disk);
        assert_eq!(dc2.replica_frontier(), (Lsn(3), Lsn(3)));
        // Promote: fence lifts, ship traffic is ignored.
        dc2.handle(TcToDc::Promote { tc: TcId(1) }, &mut out);
        assert!(!dc2.is_fenced());
        let r = perform(
            &dc2,
            RequestId::Op(Lsn(20)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(2),
                value: b"post-promotion write".to_vec(),
            },
        );
        assert!(r.is_ok());
    }

    #[test]
    fn spatial_grid_queries() {
        let dc = SimpleDc::new(
            DcId(6),
            DOCS,
            VIEW,
            Arc::new(GridIndexer { cell: 100 }),
            SimDisk::new(),
        );
        let mk = |id: u64, x: u32, y: u32| {
            let mut v = Vec::new();
            v.extend_from_slice(&x.to_le_bytes());
            v.extend_from_slice(&y.to_le_bytes());
            v.extend_from_slice(format!("obj{id}").as_bytes());
            perform(
                &dc,
                RequestId::Op(Lsn(id)),
                LogicalOp::Insert {
                    table: DOCS,
                    key: Key::from_u64(id),
                    value: v,
                },
            )
            .unwrap();
        };
        mk(1, 10, 10); // cell (0,0)
        mk(2, 50, 90); // cell (0,0)
        mk(3, 250, 10); // cell (2,0)
        let r = perform(
            &dc,
            RequestId::Read(1),
            LogicalOp::ScanRange {
                table: VIEW,
                low: Key::from_pair(0, 0),
                high: None,
                limit: None,
                flavor: unbundled_core::ReadFlavor::Latest,
            },
        )
        .unwrap();
        assert_eq!(r.into_entries().len(), 2, "two objects in cell (0,0)");
    }

    #[test]
    fn tc_crash_reset_reloads_snapshot() {
        let disk = SimDisk::new();
        let dc = SimpleDc::new(DcId(5), DOCS, VIEW, Arc::new(TextIndexer), disk);
        let mut out = Vec::new();
        // Stable op.
        perform(
            &dc,
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
        dc.handle(
            TcToDc::EndOfStableLog {
                tc: TcId(1),
                eosl: Lsn(1),
            },
            &mut out,
        );
        assert!(dc.try_snapshot());
        // Lost op.
        perform(
            &dc,
            RequestId::Op(Lsn(2)),
            LogicalOp::Insert {
                table: DOCS,
                key: Key::from_u64(2),
                value: b"lost".to_vec(),
            },
        )
        .unwrap();
        dc.handle(
            TcToDc::RestartBegin {
                tc: TcId(1),
                stable_end: Lsn(1),
            },
            &mut out,
        );
        assert!(matches!(out.last(), Some(DcToTc::RestartReady { .. })));
        assert_eq!(dc.doc_count(), 1, "lost op discarded, stable op kept");
    }
}
