//! Stored record representation: one commit-LSN version chain per
//! record, serving every read flavor — latest, read-committed (the
//! *versioned data* sharing of Section 6.2.2) and MVCC snapshots.
//!
//! A record is its latest payload plus the owning TC's id (the "link" of
//! Section 6.1.2 that associates each record with the single per-TC
//! abLSN on the page so a failed TC's records can be selectively reset)
//! plus a short history of *committed* payloads keyed by **commit LSN**
//! (the redo log totally orders commits).
//!
//! A mutation installs its payload as `current` with
//! `current_commit = None`; the TC's post-commit [`StampCommit`]
//! operation fills in the commit LSN, publishing the version to
//! committed and snapshot readers. When a later write displaces a
//! stamped `current`, the displaced payload moves into `versions`; a
//! displaced *unstamped* payload (an intermediate write of the same
//! transaction, or an aborted write) parks in `staged` until garbage
//! collection reclaims it. Deletes become tombstones (`tomb`) so a
//! snapshot older than the delete can still see the record; tombstoned
//! records are physically removed only once no retained snapshot can
//! need them.
//!
//! ## Section 6.2.2 on the chain
//!
//! The paper keeps a *before* version under every uncommitted update so
//! that readers from other TCs see committed data with no blocking and
//! no two-phase commit: "on commit the TC sends operations that
//! eliminate the before versions; on abort, operations that remove the
//! new versions". Here the before version is simply the newest stamped
//! entry of the chain: [`StoredRecord::read_committed`] returns it while
//! `current` is unstamped, [`StampCommit`] is the commit-side operation
//! (once `current` is stamped it *is* the newest committed version, and
//! GC eliminates the older one), and [`StoredRecord::revert`] is the
//! abort-side operation (drop the unstamped `current`, reinstate the
//! newest stamped version).
//!
//! Commit LSNs are meaningful only within one TC's log. When ownership
//! of a record moves to a different TC, the old owner's newest committed
//! payload is kept as a single floor version at [`Lsn::NULL`]
//! ("committed before this owner's log began") and the rest of the
//! history is dropped: versions from the old owner's LSN space are not
//! comparable to the new owner's snapshot positions.
//!
//! [`StampCommit`]: crate::op::LogicalOp::StampCommit

use crate::codec::{Decoder, Encoder};
use crate::error::CoreError;
use crate::ids::TcId;
use crate::lsn::Lsn;

/// A record as stored in a DC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredRecord {
    /// Latest payload: committed once `current_commit` is set,
    /// otherwise an in-flight (or rolled-back) write.
    pub current: Vec<u8>,
    /// The TC whose update produced `current` (Section 6.1.2).
    pub owner: TcId,
    /// True if the latest operation was a delete: the record is absent
    /// to latest readers (and, once the delete is stamped, to committed
    /// readers) but its history still serves snapshots older than the
    /// delete.
    pub tomb: bool,
    /// LSN of the operation that produced `current` (what a
    /// `StampCommit` matches against).
    pub current_op: Lsn,
    /// Commit LSN of `current` once its transaction's stamp has
    /// arrived; `None` while in flight (or aborted).
    pub current_commit: Option<Lsn>,
    /// Committed history, ascending by commit LSN, excluding `current`.
    /// A `None` payload is a delete tombstone version.
    pub versions: Vec<(Lsn, Option<Vec<u8>>)>,
    /// Displaced payloads whose stamp has not arrived, keyed by the op
    /// LSN that created them. Normally dead (intermediate writes of one
    /// transaction, or aborted writes); reclaimed by GC.
    pub staged: Vec<(Lsn, Option<Vec<u8>>)>,
}

impl StoredRecord {
    /// A record committed "since forever" (visible to every snapshot).
    /// Test/bootstrap convenience; the engine uses [`StoredRecord::new`]
    /// with the creating op's LSN.
    pub fn committed(payload: Vec<u8>, owner: TcId) -> Self {
        StoredRecord {
            current: payload,
            owner,
            tomb: false,
            current_op: Lsn(0),
            current_commit: Some(Lsn(0)),
            versions: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// A freshly inserted record: unstamped until the transaction's
    /// commit stamp arrives.
    pub fn new(payload: Vec<u8>, owner: TcId, op: Lsn) -> Self {
        StoredRecord {
            current: payload,
            owner,
            tomb: false,
            current_op: op,
            current_commit: None,
            versions: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Payload visible to a read-committed reader (Section 6.2.2): the
    /// newest *stamped* version, whatever its commit LSN — no LSN is
    /// compared, so the answer is valid for a reader TC in a different
    /// LSN space. `None` means "record absent" for that reader.
    pub fn read_committed(&self) -> Option<&[u8]> {
        self.read_snapshot(Lsn::MAX)
    }

    /// Payload visible to the owning TC (its own latest write) and to
    /// dirty readers (Section 6.2.1): `None` if the record is a delete
    /// tombstone.
    pub fn read_latest(&self) -> Option<&[u8]> {
        if self.tomb {
            None
        } else {
            Some(&self.current)
        }
    }

    /// Payload visible to a snapshot at `at`: the newest version whose
    /// commit LSN is `<= at`. Unstamped data is invisible. Only
    /// meaningful when `at` is in the owning TC's LSN space.
    pub fn read_snapshot(&self, at: Lsn) -> Option<&[u8]> {
        if let Some(c) = self.current_commit {
            if c <= at {
                return if self.tomb { None } else { Some(&self.current) };
            }
        }
        self.versions
            .iter()
            .rev()
            .find(|(c, _)| *c <= at)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Move `current` into the history (`versions` if stamped, `staged`
    /// if its stamp never arrived) ahead of a write by `writer`. A
    /// change of owner rebases the history instead: the old owner's
    /// commit LSNs are not comparable in the new owner's log, so only
    /// its newest committed payload survives, as a floor version at
    /// [`Lsn::NULL`] that keeps committed readers served while the new
    /// owner's first write is in flight.
    fn displace(&mut self, writer: TcId) {
        let old = std::mem::take(&mut self.current);
        let payload = if self.tomb { None } else { Some(old) };
        match self.current_commit.take() {
            Some(c) => self.versions.push((c, payload)),
            None => self.staged.push((self.current_op, payload)),
        }
        if writer != self.owner {
            let newest = self.versions.pop().and_then(|(_, v)| v);
            self.versions.clear();
            self.staged.clear();
            self.versions.extend(newest.map(|v| (Lsn::NULL, Some(v))));
        }
    }

    /// Overwrite with a new (unstamped) payload, retaining the old
    /// state in the version chain. Clears a tombstone (insert-over-
    /// delete).
    pub fn overwrite(&mut self, payload: Vec<u8>, owner: TcId, op: Lsn) {
        self.displace(owner);
        self.current = payload;
        self.owner = owner;
        self.tomb = false;
        self.current_op = op;
        self.current_commit = None;
    }

    /// Delete: become an (unstamped) tombstone, retaining the old state
    /// in the version chain.
    pub fn delete(&mut self, owner: TcId, op: Lsn) {
        self.displace(owner);
        self.current = Vec::new();
        self.owner = owner;
        self.tomb = true;
        self.current_op = op;
        self.current_commit = None;
    }

    /// Apply a commit stamp for the version created by op LSN `op`.
    /// Returns true if a version was stamped (false: the target was
    /// already displaced-and-stamped, or never existed here — a resend).
    pub fn stamp(&mut self, op: Lsn, commit: Lsn) -> bool {
        if self.current_op == op && self.current_commit.is_none() {
            self.current_commit = Some(commit);
            return true;
        }
        if let Some(i) = self.staged.iter().position(|(o, _)| *o == op) {
            let (_, payload) = self.staged.remove(i);
            let at = self.versions.partition_point(|(c, _)| *c <= commit);
            self.versions.insert(at, (commit, payload));
            return true;
        }
        false
    }

    /// Garbage-collect history no snapshot at or above `floor` can
    /// need: versions older than the newest one visible at `floor`, and
    /// staged payloads whose op LSN fell below `floor` (their stamp can
    /// no longer be outstanding). Returns the number of entries pruned.
    pub fn gc(&mut self, floor: Lsn) -> usize {
        let before = self.versions.len() + self.staged.len();
        let newest_covered = if self.current_commit.is_some_and(|c| c <= floor) {
            // `current` serves every snapshot >= floor.
            self.versions.len()
        } else {
            // Keep the newest version <= floor as the floor fallback.
            self.versions
                .partition_point(|(c, _)| *c <= floor)
                .saturating_sub(1)
        };
        self.versions.drain(..newest_covered);
        self.staged.retain(|(o, _)| *o > floor);
        before - (self.versions.len() + self.staged.len())
    }

    /// True once a tombstone can be physically removed: no history or
    /// pending state remains, and either the delete is stamped below
    /// `floor`, or it is unstamped with an op LSN below `floor` — its
    /// stamp can no longer be outstanding (an aborted delete, or the
    /// rollback of an insert).
    pub fn tomb_reclaimable(&self, floor: Lsn) -> bool {
        self.tomb
            && self.versions.is_empty()
            && self.staged.is_empty()
            && match self.current_commit {
                Some(c) => c <= floor,
                None => self.current_op <= floor,
            }
    }

    /// Retained version-chain entries (history + staged), for memory
    /// accounting.
    pub fn chain_len(&self) -> usize {
        self.versions.len() + self.staged.len()
    }

    /// Abort the writes of one transaction whose last write here had op
    /// LSN `op` (Section 6.2.2 "remove the new version"): drop an
    /// unstamped `current` written at or before `op` and reinstate the
    /// newest stamped version — GC always retains it while `current` is
    /// unstamped, and the transaction's earlier writes sit in `staged`
    /// above it. Returns `false` if there is none and the record should
    /// be removed entirely (the write was an insert). A stamped
    /// `current` (already reverted, or committed) and one written after
    /// `op` (a later owner's) are left alone.
    #[must_use]
    pub fn revert(&mut self, op: Lsn) -> bool {
        if self.current_commit.is_some() || self.current_op > op {
            return true;
        }
        let Some((commit, payload)) = self.versions.pop() else {
            return false;
        };
        self.tomb = payload.is_none();
        self.current = payload.unwrap_or_default();
        self.current_op = Lsn::NULL;
        self.current_commit = Some(commit);
        true
    }

    fn version_entry_size(v: &Option<Vec<u8>>) -> usize {
        8 + 1 + v.as_ref().map_or(0, |b| 4 + b.len())
    }

    fn encode_version_entry(enc: &mut Encoder, (lsn, v): &(Lsn, Option<Vec<u8>>)) {
        enc.u64(lsn.0);
        match v {
            None => enc.u8(0),
            Some(b) => {
                enc.u8(1);
                enc.bytes(b);
            }
        }
    }

    fn decode_version_entry(dec: &mut Decoder<'_>) -> Result<(Lsn, Option<Vec<u8>>), CoreError> {
        let lsn = Lsn(dec.u64()?);
        let v = match dec.u8()? {
            0 => None,
            1 => Some(dec.bytes()?.to_vec()),
            _ => {
                return Err(CoreError::Codec {
                    what: "bad version-entry tag",
                    at: 0,
                })
            }
        };
        Ok((lsn, v))
    }

    /// Encoded size in a page image.
    pub fn encoded_size(&self) -> usize {
        let commit = match self.current_commit {
            None => 1,
            Some(_) => 1 + 8,
        };
        let chain: usize = self
            .versions
            .iter()
            .chain(self.staged.iter())
            .map(|(_, v)| Self::version_entry_size(v))
            .sum();
        2 + 4 + self.current.len() + 1 + 8 + commit + 4 + 4 + chain
    }

    /// Serialize into a page image.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.u16(self.owner.0);
        enc.bytes(&self.current);
        enc.bool(self.tomb);
        enc.u64(self.current_op.0);
        match self.current_commit {
            None => enc.u8(0),
            Some(c) => {
                enc.u8(1);
                enc.u64(c.0);
            }
        }
        enc.u32(self.versions.len() as u32);
        for e in &self.versions {
            Self::encode_version_entry(enc, e);
        }
        enc.u32(self.staged.len() as u32);
        for e in &self.staged {
            Self::encode_version_entry(enc, e);
        }
    }

    /// Deserialize from a page image.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CoreError> {
        let owner = TcId(dec.u16()?);
        let current = dec.bytes()?.to_vec();
        let tomb = dec.bool()?;
        let current_op = Lsn(dec.u64()?);
        let current_commit = match dec.u8()? {
            0 => None,
            1 => Some(Lsn(dec.u64()?)),
            _ => {
                return Err(CoreError::Codec {
                    what: "bad commit-stamp tag",
                    at: 0,
                })
            }
        };
        let nv = dec.u32()? as usize;
        let mut versions = Vec::with_capacity(nv);
        for _ in 0..nv {
            versions.push(Self::decode_version_entry(dec)?);
        }
        let ns = dec.u32()? as usize;
        let mut staged = Vec::with_capacity(ns);
        for _ in 0..ns {
            staged.push(Self::decode_version_entry(dec)?);
        }
        Ok(StoredRecord {
            current,
            owner,
            tomb,
            current_op,
            current_commit,
            versions,
            staged,
        })
    }
}

/// Static description of a table hosted by a DC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableSpec {
    /// Table identifier (agreed between TC and DC at deployment time).
    pub id: crate::ids::TableId,
    /// Human-readable name.
    pub name: String,
}

impl TableSpec {
    /// Convenience constructor. Every table stores the same
    /// commit-LSN version chain, so plain and versioned mutations work
    /// on any table.
    pub fn plain(id: crate::ids::TableId, name: &str) -> Self {
        TableSpec {
            id,
            name: name.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_record_reads_same_everywhere() {
        let r = StoredRecord::committed(b"v1".to_vec(), TcId(1));
        assert_eq!(r.read_committed(), Some(&b"v1"[..]));
        assert_eq!(r.read_latest(), Some(&b"v1"[..]));
        assert_eq!(r.read_snapshot(Lsn(0)), Some(&b"v1"[..]));
    }

    #[test]
    fn committed_readers_see_the_newest_stamped_version() {
        let mut r = StoredRecord::committed(b"old".to_vec(), TcId(1));
        r.overwrite(b"new".to_vec(), TcId(1), Lsn(5));
        assert_eq!(r.read_latest(), Some(&b"new"[..]), "owner sees its write");
        assert_eq!(
            r.read_committed(),
            Some(&b"old"[..]),
            "readers see committed"
        );
        assert!(r.stamp(Lsn(5), Lsn(7)), "the stamp is the promote");
        assert_eq!(r.read_committed(), Some(&b"new"[..]));
    }

    #[test]
    fn committed_read_is_not_dirty_on_an_unstamped_record() {
        // What a plain-table insert looks like before its commit stamp:
        // `Committed` must not degrade to a dirty read.
        let mut r = StoredRecord::new(b"new".to_vec(), TcId(2), Lsn(7));
        assert_eq!(r.read_committed(), None);
        assert_eq!(r.read_latest(), Some(&b"new"[..]));
        assert!(r.stamp(Lsn(7), Lsn(8)));
        assert_eq!(r.read_committed(), Some(&b"new"[..]));
    }

    #[test]
    fn revert_of_an_update_reinstates_the_committed_version() {
        let mut r = StoredRecord::new(b"v0".to_vec(), TcId(1), Lsn(3));
        assert!(r.stamp(Lsn(3), Lsn(4)));
        r.overwrite(b"v1".to_vec(), TcId(1), Lsn(5));
        assert!(r.revert(Lsn(5)));
        assert_eq!(r.read_latest(), Some(&b"v0"[..]));
        assert_eq!(r.read_committed(), Some(&b"v0"[..]));
        assert_eq!(
            r.current_commit,
            Some(Lsn(4)),
            "the reinstated version keeps its commit LSN"
        );
        assert_eq!(r.chain_len(), 0, "the chain again excludes `current`");
        assert_eq!(r.read_snapshot(Lsn(3)), None, "and is no older than it was");
    }

    #[test]
    fn revert_of_a_versioned_insert_removes_the_record() {
        let mut r = StoredRecord::new(b"new".to_vec(), TcId(2), Lsn(7));
        assert_eq!(r.read_committed(), None, "absent to readers until commit");
        assert!(!r.revert(Lsn(7)), "nothing committed underneath: remove");
    }

    #[test]
    fn two_writes_then_two_reverts_restore_the_original() {
        let mut r = StoredRecord::committed(b"v0".to_vec(), TcId(1));
        r.overwrite(b"v1".to_vec(), TcId(1), Lsn(5));
        r.overwrite(b"v2".to_vec(), TcId(1), Lsn(6));
        assert_eq!(r.read_committed(), Some(&b"v0"[..]));
        // One revert, naming the last write, undoes both.
        assert!(r.revert(Lsn(6)));
        assert_eq!(r.read_latest(), Some(&b"v0"[..]));
        assert_eq!(r.current_commit, Some(Lsn(0)));
        let once = r.clone();
        assert!(r.revert(Lsn(6)), "a resent revert");
        assert_eq!(r, once, "finds `current` stamped and changes nothing");
        // The dead intermediate write is reclaimed like any staged entry.
        assert_eq!(r.gc(Lsn(6)), 1);
        assert_eq!(r.chain_len(), 0);
    }

    #[test]
    fn revert_after_stamp_is_a_no_op() {
        let mut r = StoredRecord::committed(b"v0".to_vec(), TcId(1));
        r.overwrite(b"v1".to_vec(), TcId(1), Lsn(5));
        assert!(r.stamp(Lsn(5), Lsn(7)));
        let stamped = r.clone();
        assert!(r.revert(Lsn(5)));
        assert_eq!(r, stamped, "a committed version is never reverted");
    }

    #[test]
    fn revert_survives_gc_of_the_older_history() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        r.overwrite(b"c".to_vec(), TcId(1), Lsn(30));
        // However far the floor advances, the newest stamped version is
        // kept while `current` is unstamped: the revert target exists.
        assert_eq!(r.gc(Lsn(1_000)), 1);
        assert!(r.revert(Lsn(30)));
        assert_eq!(r.read_committed(), Some(&b"b"[..]));
        assert_eq!(r.current_commit, Some(Lsn(22)));
    }

    #[test]
    fn revert_covers_a_failed_last_op_but_never_a_later_write() {
        // Recovery's write set may name a failed op (here LSN 6) that
        // created no version: the version of op 5 beneath it reverts.
        let mut r = StoredRecord::committed(b"v0".to_vec(), TcId(1));
        r.overwrite(b"v1".to_vec(), TcId(1), Lsn(5));
        assert!(r.revert(Lsn(6)));
        assert_eq!(r.read_latest(), Some(&b"v0"[..]));
        // A later writer's version (op 9) is out of reach of a resent
        // revert of op 5.
        r.overwrite(b"v2".to_vec(), TcId(1), Lsn(9));
        let later = r.clone();
        assert!(r.revert(Lsn(5)));
        assert_eq!(r, later);
    }

    #[test]
    fn snapshot_sees_version_at_or_below_its_lsn() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert_eq!(r.read_snapshot(Lsn(100)), None, "unstamped is invisible");
        assert!(r.stamp(Lsn(10), Lsn(12)));
        assert_eq!(r.read_snapshot(Lsn(11)), None);
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(21)), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(22)), Some(&b"b"[..]));
    }

    #[test]
    fn tombstone_hides_record_but_serves_old_snapshots() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.delete(TcId(1), Lsn(20));
        assert_eq!(r.read_latest(), None);
        assert_eq!(
            r.read_committed(),
            Some(&b"a"[..]),
            "an uncommitted delete is invisible to committed readers"
        );
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        assert_eq!(r.read_committed(), None);
        assert_eq!(r.read_snapshot(Lsn(22)), None, "snapshot sees the delete");
        assert!(!r.tomb_reclaimable(Lsn(12)));
        assert_eq!(r.gc(Lsn(22)), 1);
        assert!(r.tomb_reclaimable(Lsn(22)));
        // Insert over the tombstone revives the record.
        r.overwrite(b"c".to_vec(), TcId(1), Lsn(30));
        assert_eq!(r.read_latest(), Some(&b"c"[..]));
    }

    #[test]
    fn displaced_unstamped_write_stamps_into_history() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(11));
        assert_eq!(r.staged.len(), 1, "unstamped displaced value parks");
        assert!(r.stamp(Lsn(10), Lsn(12)), "late stamp finds it");
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert!(!r.stamp(Lsn(10), Lsn(12)), "duplicate stamp is a no-op");
    }

    #[test]
    fn gc_prunes_below_floor_but_keeps_floor_fallback() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        r.overwrite(b"c".to_vec(), TcId(1), Lsn(30));
        assert_eq!(r.chain_len(), 2);
        // Floor 25: current is unstamped, so the newest version <= 25
        // (commit 22) must survive as the fallback.
        assert_eq!(r.gc(Lsn(25)), 1);
        assert_eq!(r.read_snapshot(Lsn(25)), Some(&b"b"[..]));
        assert!(r.stamp(Lsn(30), Lsn(32)));
        // Now current covers everything >= its commit.
        assert_eq!(r.gc(Lsn(32)), 1);
        assert_eq!(r.chain_len(), 0);
        assert_eq!(r.read_snapshot(Lsn(32)), Some(&b"c"[..]));
    }

    #[test]
    fn ownership_change_keeps_a_floor_version() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        // A new owner's first write: the old owner's LSN space is
        // dropped, but its newest committed payload stays readable
        // while the write is in flight.
        r.overwrite(b"c".to_vec(), TcId(2), Lsn(3));
        assert_eq!(r.owner, TcId(2));
        assert_eq!(r.versions, vec![(Lsn::NULL, Some(b"b".to_vec()))]);
        assert!(r.staged.is_empty());
        assert_eq!(r.read_committed(), Some(&b"b"[..]));
        assert_eq!(
            r.read_snapshot(Lsn(1)),
            Some(&b"b"[..]),
            "committed before the new owner's log began"
        );
        assert_eq!(r.read_latest(), Some(&b"c"[..]));
        // GC in the new owner's LSN space keeps the floor while the
        // write is unstamped, and prunes it once the write commits.
        assert_eq!(r.gc(Lsn(3)), 0);
        assert!(r.stamp(Lsn(3), Lsn(4)));
        assert_eq!(r.read_snapshot(Lsn(3)), Some(&b"b"[..]));
        assert_eq!(r.read_snapshot(Lsn(4)), Some(&b"c"[..]));
        assert_eq!(r.read_committed(), Some(&b"c"[..]));
        assert_eq!(r.gc(Lsn(4)), 1);
        assert_eq!(r.chain_len(), 0);
    }

    #[test]
    fn ownership_change_floor_skips_uncommitted_and_deleted_state() {
        // The old owner's `current` never committed: the floor is the
        // newest *stamped* payload, and a new owner's revert lands on it.
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"dirty".to_vec(), TcId(1), Lsn(20));
        r.overwrite(b"c".to_vec(), TcId(2), Lsn(3));
        assert_eq!(r.read_committed(), Some(&b"a"[..]));
        assert!(r.revert(Lsn(3)));
        assert_eq!(r.read_latest(), Some(&b"a"[..]));
        assert_eq!(r.current_commit, Some(Lsn::NULL));
        // A committed delete leaves no floor: the record is absent.
        let mut d = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(d.stamp(Lsn(10), Lsn(12)));
        d.delete(TcId(1), Lsn(20));
        assert!(d.stamp(Lsn(20), Lsn(22)));
        d.overwrite(b"c".to_vec(), TcId(2), Lsn(3));
        assert_eq!(d.chain_len(), 0);
        assert_eq!(d.read_committed(), None);
        assert_eq!(d.read_snapshot(Lsn(100)), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut stamped = StoredRecord::new(b"x".to_vec(), TcId(1), Lsn(5));
        assert!(stamped.stamp(Lsn(5), Lsn(7)));
        stamped.overwrite(b"y".to_vec(), TcId(1), Lsn(9));
        let mut tomb = StoredRecord::new(b"t".to_vec(), TcId(4), Lsn(2));
        tomb.delete(TcId(4), Lsn(3));
        for r in [
            StoredRecord::committed(b"abc".to_vec(), TcId(3)),
            StoredRecord::new(b"x".to_vec(), TcId(1), Lsn(44)),
            stamped,
            tomb,
        ] {
            let mut e = Encoder::new();
            r.encode(&mut e);
            let bytes = e.finish();
            assert_eq!(bytes.len(), r.encoded_size());
            let back = StoredRecord::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(back, r);
        }
    }
}
