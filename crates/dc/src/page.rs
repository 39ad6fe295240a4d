//! Slotted pages: the DC-private unit of storage and caching.
//!
//! A page carries two kinds of recovery state (paper Section 5.2.2:
//! "each page should contain both dLSN … and abLSN"):
//!
//! * `dlsn` — the DC-log sequence number of the last *system transaction*
//!   record applied to the page (structure-modification idempotence,
//!   conventional scalar test, because system transactions replay in
//!   DC-log order);
//! * `ab` — one **abstract LSN per TC** with data on the page
//!   (Section 6.1.1), the generalized idempotence test for logical
//!   operations that may arrive out of LSN order (Section 5.1.2).
//!
//! Records are tagged with their owning TC ([`StoredRecord::owner`]) —
//! the paper's per-TC record chain (Section 6.1.2) — so a failed TC's
//! records can be selectively reset without disturbing other TCs.

use unbundled_core::codec::{Decoder, Encoder};
use unbundled_core::{CoreError, DLsn, Key, Lsn, PageId, PerTcAbLsn, StoredRecord, TableId, TcId};

/// Leaf or branch payload of a page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PageData {
    /// Sorted `(key, record)` pairs.
    Leaf(Vec<(Key, StoredRecord)>),
    /// Sorted `(separator, child)` pairs; `branch[0].0` equals the page's
    /// low fence. A child covers keys in `[sep_i, sep_{i+1})`.
    Branch(Vec<(Key, PageId)>),
}

/// An in-memory page. The on-disk form is produced by [`Page::encode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Page {
    /// Page identity.
    pub id: PageId,
    /// Owning table.
    pub table: TableId,
    /// Structure-modification recovery stamp (see module docs).
    pub dlsn: DLsn,
    /// Per-TC abstract LSNs (empty for branch pages — the TC never
    /// addresses them).
    pub ab: PerTcAbLsn,
    /// Inclusive low fence key.
    pub low_fence: Key,
    /// Exclusive high fence key; `None` = +∞.
    pub high_fence: Option<Key>,
    /// Right sibling for leaf scans; `PageId::NULL` if none.
    pub next_leaf: PageId,
    /// Payload.
    pub data: PageData,
    /// Volatile: differs from the disk version.
    pub dirty: bool,
    /// Volatile: removed from the buffer pool; operations that latched a
    /// stale handle must retry through the pool.
    pub evicted: bool,
    /// Volatile: a page-sync (Section 5.1.2, algorithm 1/3) is in
    /// progress; new operations must back off until the flush completes.
    pub sync_freeze: bool,
    /// Volatile: per TC, the lowest op LSN applied since the page was
    /// last flushed (its recLSN in the dirty page table, see
    /// `dirty.rs`). Empty while the page holds no unflushed operation.
    pub rec_lsn: Vec<(TcId, Lsn)>,
    /// Volatile: the applying TC's low-water mark when the page's
    /// version chains were last trimmed as a whole (see the engine's
    /// `trim_page`); an apply re-trims the page once the mark passes it.
    pub trimmed_at: Lsn,
}

impl Page {
    /// A fresh empty leaf covering `[low, high)`.
    pub fn new_leaf(id: PageId, table: TableId, low: Key, high: Option<Key>) -> Page {
        Page {
            id,
            table,
            dlsn: DLsn::NULL,
            ab: PerTcAbLsn::new(),
            low_fence: low,
            high_fence: high,
            next_leaf: PageId::NULL,
            data: PageData::Leaf(Vec::new()),
            dirty: true,
            evicted: false,
            sync_freeze: false,
            rec_lsn: Vec::new(),
            trimmed_at: Lsn::NULL,
        }
    }

    /// A fresh branch page with the given separators.
    pub fn new_branch(
        id: PageId,
        table: TableId,
        low: Key,
        high: Option<Key>,
        children: Vec<(Key, PageId)>,
    ) -> Page {
        Page {
            id,
            table,
            dlsn: DLsn::NULL,
            ab: PerTcAbLsn::new(),
            low_fence: low,
            high_fence: high,
            next_leaf: PageId::NULL,
            data: PageData::Branch(children),
            dirty: true,
            evicted: false,
            sync_freeze: false,
            rec_lsn: Vec::new(),
            trimmed_at: Lsn::NULL,
        }
    }

    /// True for leaf pages.
    pub fn is_leaf(&self) -> bool {
        matches!(self.data, PageData::Leaf(_))
    }

    /// Does the page's fence interval cover `key`?
    pub fn covers(&self, key: &Key) -> bool {
        *key >= self.low_fence
            && match &self.high_fence {
                Some(h) => key < h,
                None => true,
            }
    }

    /// Leaf entries (panics on branch pages — DC-internal misuse).
    pub fn leaf_entries(&self) -> &[(Key, StoredRecord)] {
        match &self.data {
            PageData::Leaf(v) => v,
            PageData::Branch(_) => panic!("leaf_entries on branch page"),
        }
    }

    /// Mutable leaf entries.
    pub fn leaf_entries_mut(&mut self) -> &mut Vec<(Key, StoredRecord)> {
        match &mut self.data {
            PageData::Leaf(v) => v,
            PageData::Branch(_) => panic!("leaf_entries_mut on branch page"),
        }
    }

    /// Branch entries (panics on leaf pages).
    pub fn branch_entries(&self) -> &[(Key, PageId)] {
        match &self.data {
            PageData::Branch(v) => v,
            PageData::Leaf(_) => panic!("branch_entries on leaf page"),
        }
    }

    /// Mutable branch entries.
    pub fn branch_entries_mut(&mut self) -> &mut Vec<(Key, PageId)> {
        match &mut self.data {
            PageData::Branch(v) => v,
            PageData::Leaf(_) => panic!("branch_entries_mut on leaf page"),
        }
    }

    /// Find a record in a leaf.
    pub fn find(&self, key: &Key) -> Option<&StoredRecord> {
        let entries = self.leaf_entries();
        entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &entries[i].1)
    }

    /// Mutable record lookup in a leaf.
    pub fn find_mut(&mut self, key: &Key) -> Option<&mut StoredRecord> {
        let entries = self.leaf_entries_mut();
        match entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(&mut entries[i].1),
            Err(_) => None,
        }
    }

    /// Insert a record into a leaf; `false` if the key already exists.
    #[must_use]
    pub fn insert(&mut self, key: Key, rec: StoredRecord) -> bool {
        let entries = self.leaf_entries_mut();
        match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(_) => false,
            Err(pos) => {
                entries.insert(pos, (key, rec));
                true
            }
        }
    }

    /// Insert or overwrite.
    pub fn upsert(&mut self, key: Key, rec: StoredRecord) {
        let entries = self.leaf_entries_mut();
        match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => entries[i].1 = rec,
            Err(pos) => entries.insert(pos, (key, rec)),
        }
    }

    /// Remove a record from a leaf; `false` if absent.
    #[must_use]
    pub fn remove(&mut self, key: &Key) -> bool {
        let entries = self.leaf_entries_mut();
        match entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => {
                entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Child page covering `key` (branch pages): the last separator ≤ key.
    pub fn child_for(&self, key: &Key) -> PageId {
        let entries = self.branch_entries();
        debug_assert!(!entries.is_empty());
        let idx = match entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => i,
            Err(0) => 0, // key below first separator: fence mismatch tolerated
            Err(i) => i - 1,
        };
        entries[idx].1
    }

    /// Approximate payload bytes (drives split/consolidate decisions and
    /// page-space experiments).
    pub fn content_bytes(&self) -> usize {
        match &self.data {
            PageData::Leaf(v) => v
                .iter()
                .map(|(k, r)| 4 + k.len() + r.encoded_size())
                .sum::<usize>(),
            PageData::Branch(v) => v.iter().map(|(k, _)| 4 + k.len() + 8).sum::<usize>(),
        }
    }

    /// Entry count.
    pub fn entry_count(&self) -> usize {
        match &self.data {
            PageData::Leaf(v) => v.len(),
            PageData::Branch(v) => v.len(),
        }
    }

    /// Serialize the page (the abLSN representation stored is the full
    /// abstract structure; how many entries it holds at flush time is the
    /// page-sync policy's business).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.content_bytes() + 128);
        e.u64(self.id.0);
        e.u32(self.table.0);
        e.u8(if self.is_leaf() { 0 } else { 1 });
        e.u64(self.dlsn.0);
        self.ab.encode(&mut e);
        e.bytes(self.low_fence.as_bytes());
        match &self.high_fence {
            None => e.u8(0),
            Some(h) => {
                e.u8(1);
                e.bytes(h.as_bytes());
            }
        }
        e.u64(self.next_leaf.0);
        match &self.data {
            PageData::Leaf(v) => {
                e.u32(v.len() as u32);
                for (k, r) in v {
                    e.bytes(k.as_bytes());
                    r.encode(&mut e);
                }
            }
            PageData::Branch(v) => {
                e.u32(v.len() as u32);
                for (k, c) in v {
                    e.bytes(k.as_bytes());
                    e.u64(c.0);
                }
            }
        }
        e.finish()
    }

    /// Deserialize a page image. Decoded pages are clean by definition.
    pub fn decode(buf: &[u8]) -> Result<Page, CoreError> {
        let mut d = Decoder::new(buf);
        let id = PageId(d.u64()?);
        let table = TableId(d.u32()?);
        let kind = d.u8()?;
        let dlsn = DLsn(d.u64()?);
        let ab = PerTcAbLsn::decode(&mut d)?;
        let low_fence = Key::from_bytes(d.bytes()?.to_vec());
        let high_fence = if d.u8()? == 1 {
            Some(Key::from_bytes(d.bytes()?.to_vec()))
        } else {
            None
        };
        let next_leaf = PageId(d.u64()?);
        let n = d.u32()? as usize;
        let data = if kind == 0 {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let k = Key::from_bytes(d.bytes()?.to_vec());
                let r = StoredRecord::decode(&mut d)?;
                v.push((k, r));
            }
            PageData::Leaf(v)
        } else {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let k = Key::from_bytes(d.bytes()?.to_vec());
                let c = PageId(d.u64()?);
                v.push((k, c));
            }
            PageData::Branch(v)
        };
        d.expect_end()?;
        Ok(Page {
            id,
            table,
            dlsn,
            ab,
            low_fence,
            high_fence,
            next_leaf,
            data,
            dirty: false,
            evicted: false,
            sync_freeze: false,
            rec_lsn: Vec::new(),
            trimmed_at: Lsn::NULL,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Page {
        Page::new_leaf(PageId(2), TableId(1), Key::empty(), None)
    }

    fn rec(v: &[u8]) -> StoredRecord {
        StoredRecord::committed(v.to_vec(), TcId(1))
    }

    #[test]
    fn insert_find_remove() {
        let mut p = leaf();
        assert!(p.insert(Key::from_u64(5), rec(b"a")));
        assert!(p.insert(Key::from_u64(3), rec(b"b")));
        assert!(!p.insert(Key::from_u64(5), rec(b"dup")));
        assert_eq!(p.find(&Key::from_u64(5)).unwrap().current, b"a");
        assert!(p.remove(&Key::from_u64(3)));
        assert!(!p.remove(&Key::from_u64(3)));
        assert_eq!(p.entry_count(), 1);
    }

    #[test]
    fn entries_stay_sorted() {
        let mut p = leaf();
        for k in [9u64, 1, 5, 3, 7] {
            assert!(p.insert(Key::from_u64(k), rec(b"x")));
        }
        let keys: Vec<u64> = p
            .leaf_entries()
            .iter()
            .map(|(k, _)| k.as_u64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn covers_respects_fences() {
        let p = Page::new_leaf(
            PageId(2),
            TableId(1),
            Key::from_u64(10),
            Some(Key::from_u64(20)),
        );
        assert!(p.covers(&Key::from_u64(10)));
        assert!(p.covers(&Key::from_u64(19)));
        assert!(!p.covers(&Key::from_u64(20)));
        assert!(!p.covers(&Key::from_u64(9)));
    }

    #[test]
    fn child_routing() {
        let b = Page::new_branch(
            PageId(3),
            TableId(1),
            Key::empty(),
            None,
            vec![
                (Key::empty(), PageId(10)),
                (Key::from_u64(100), PageId(11)),
                (Key::from_u64(200), PageId(12)),
            ],
        );
        assert_eq!(b.child_for(&Key::from_u64(1)), PageId(10));
        assert_eq!(b.child_for(&Key::from_u64(100)), PageId(11));
        assert_eq!(b.child_for(&Key::from_u64(150)), PageId(11));
        assert_eq!(b.child_for(&Key::from_u64(999)), PageId(12));
    }

    #[test]
    fn encode_decode_leaf_roundtrip() {
        let mut p = leaf();
        assert!(p.insert(Key::from_u64(1), rec(b"hello")));
        p.ab.get_mut(TcId(1)).record(unbundled_core::Lsn(9));
        p.dlsn = DLsn(4);
        let img = p.encode();
        let q = Page::decode(&img).unwrap();
        assert_eq!(q.id, p.id);
        assert_eq!(q.dlsn, p.dlsn);
        assert_eq!(q.ab, p.ab);
        assert_eq!(q.data, p.data);
        assert!(!q.dirty);
    }

    #[test]
    fn encode_decode_branch_roundtrip() {
        let b = Page::new_branch(
            PageId(3),
            TableId(2),
            Key::from_u64(5),
            Some(Key::from_u64(50)),
            vec![
                (Key::from_u64(5), PageId(7)),
                (Key::from_u64(20), PageId(8)),
            ],
        );
        let img = b.encode();
        let q = Page::decode(&img).unwrap();
        assert_eq!(q.branch_entries(), b.branch_entries());
        assert_eq!(q.high_fence, b.high_fence);
    }

    #[test]
    fn content_bytes_grows_with_entries() {
        let mut p = leaf();
        let empty = p.content_bytes();
        assert!(p.insert(Key::from_u64(1), rec(b"0123456789")));
        assert!(p.content_bytes() > empty + 10);
    }

    #[test]
    fn upsert_overwrites() {
        let mut p = leaf();
        p.upsert(Key::from_u64(1), rec(b"a"));
        p.upsert(Key::from_u64(1), rec(b"b"));
        assert_eq!(p.find(&Key::from_u64(1)).unwrap().current, b"b");
        assert_eq!(p.entry_count(), 1);
    }
}
