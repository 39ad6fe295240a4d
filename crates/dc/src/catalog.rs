//! The DC's table catalog, persisted in a reserved page.
//!
//! The catalog maps tables to root pages and records the page-allocation
//! high-water mark. It is written synchronously whenever a root changes
//! (root changes are rare — root splits/collapses — and are logged in the
//! DC log as well, so a crash between log force and catalog write is
//! repaired by replaying `RootChanged` records gated on the catalog's
//! dLSN stamp).

use crate::page::Page;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use unbundled_core::codec::{Decoder, Encoder};
use unbundled_core::{CoreError, DLsn, PageId, TableId, TableSpec};
use unbundled_storage::SimDisk;

/// The reserved page holding the encoded catalog.
pub const CATALOG_PAGE: PageId = PageId(1);

/// First page id handed out for data pages.
pub const FIRST_DATA_PAGE: u64 = 2;

/// Per-table runtime state.
pub struct TableState {
    /// Static description.
    pub spec: TableSpec,
    /// Current root page.
    pub root: Mutex<PageId>,
    /// Tree latch: record operations take it shared, structure
    /// modifications take it exclusive (see crate docs on latching).
    pub tree_latch: RwLock<()>,
}

impl TableState {
    fn new(spec: TableSpec, root: PageId) -> Arc<Self> {
        Arc::new(TableState {
            spec,
            root: Mutex::new(root),
            tree_latch: RwLock::new(()),
        })
    }
}

/// The in-memory catalog plus its persistence.
pub struct Catalog {
    tables: RwLock<HashMap<TableId, Arc<TableState>>>,
    /// dLSN of the last root change reflected here (recovery gate).
    pub dlsn: Mutex<DLsn>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            dlsn: Mutex::new(DLsn::NULL),
        }
    }

    /// Look up a table.
    pub fn get(&self, id: TableId) -> Option<Arc<TableState>> {
        self.tables.read().get(&id).cloned()
    }

    /// Register a table.
    pub fn insert(&self, spec: TableSpec, root: PageId) -> Arc<TableState> {
        let st = TableState::new(spec.clone(), root);
        self.tables.write().insert(spec.id, st.clone());
        st
    }

    /// All registered tables.
    pub fn all(&self) -> Vec<Arc<TableState>> {
        let mut v: Vec<_> = self.tables.read().values().cloned().collect();
        v.sort_by_key(|t| t.spec.id);
        v
    }

    /// True if no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// Serialize together with the page-allocation high-water mark.
    pub fn encode(&self, next_page: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(next_page);
        e.u64(self.dlsn.lock().0);
        let tables = self.all();
        e.u32(tables.len() as u32);
        for t in tables {
            e.u32(t.spec.id.0);
            e.bytes(t.spec.name.as_bytes());
            e.u64(t.root.lock().0);
        }
        e.finish()
    }

    /// Deserialize; returns the stored page-allocation high-water mark.
    pub fn decode(buf: &[u8]) -> Result<(Catalog, u64), CoreError> {
        let mut d = Decoder::new(buf);
        let next_page = d.u64()?;
        let dlsn = DLsn(d.u64()?);
        let n = d.u32()? as usize;
        let cat = Catalog::new();
        *cat.dlsn.lock() = dlsn;
        for _ in 0..n {
            let id = TableId(d.u32()?);
            let name = String::from_utf8_lossy(d.bytes()?).into_owned();
            let root = PageId(d.u64()?);
            let spec = TableSpec { id, name };
            cat.insert(spec, root);
        }
        d.expect_end()?;
        Ok((cat, next_page))
    }

    /// Write the catalog to its reserved disk page.
    pub fn persist(&self, disk: &SimDisk, next_page: u64) {
        disk.write_page(CATALOG_PAGE, self.encode(next_page));
    }

    /// Load a catalog from disk; `None` if the DC was never formatted.
    pub fn load(disk: &SimDisk) -> Option<(Catalog, u64)> {
        let img = disk.read_page(CATALOG_PAGE)?;
        Catalog::decode(&img).ok()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

/// Helper: write an initial empty root leaf for a new table directly to
/// disk (table creation is an administrative, crash-safe operation: the
/// root page is written before the catalog references it).
pub fn write_initial_root(disk: &SimDisk, root: PageId, table: TableId) {
    let mut page = Page::new_leaf(root, table, unbundled_core::Key::empty(), None);
    page.dirty = false;
    disk.write_page(root, page.encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let cat = Catalog::new();
        cat.insert(TableSpec::plain(TableId(1), "users"), PageId(2));
        cat.insert(TableSpec::plain(TableId(2), "reviews"), PageId(3));
        *cat.dlsn.lock() = DLsn(17);
        let buf = cat.encode(42);
        let (back, next) = Catalog::decode(&buf).unwrap();
        assert_eq!(next, 42);
        assert_eq!(*back.dlsn.lock(), DLsn(17));
        assert_eq!(back.all().len(), 2);
        let t = back.get(TableId(2)).unwrap();
        assert_eq!(*t.root.lock(), PageId(3));
        assert_eq!(t.spec.name, "reviews");
    }

    #[test]
    fn persist_and_load() {
        let disk = SimDisk::new();
        let cat = Catalog::new();
        cat.insert(TableSpec::plain(TableId(7), "t"), PageId(9));
        cat.persist(&disk, 100);
        let (back, next) = Catalog::load(&disk).unwrap();
        assert_eq!(next, 100);
        assert!(back.get(TableId(7)).is_some());
        assert!(Catalog::load(&SimDisk::new()).is_none());
    }

    #[test]
    fn initial_root_is_decodable_empty_leaf() {
        let disk = SimDisk::new();
        write_initial_root(&disk, PageId(2), TableId(1));
        let img = disk.read_page(PageId(2)).unwrap();
        let p = Page::decode(&img).unwrap();
        assert!(p.is_leaf());
        assert_eq!(p.entry_count(), 0);
        assert!(p.covers(&unbundled_core::Key::from_u64(123)));
    }
}
