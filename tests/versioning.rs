//! Section 6.2.2 read-committed sharing served from the commit-LSN
//! version chain: what a versioned commit costs, that a committed
//! version is published however the TC fails between its commit force
//! and its stamps, and what `Committed` readers see around a write by
//! another TC.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unbundled::core::{
    DataComponentApi, DcId, DcToTc, Key, LogicalOp, TableId, TableSpec, TcError, TcId, TcToDc,
    TxnId,
};
use unbundled::dc::{DcConfig, DcServer};
use unbundled::kernel::{DcSlot, Deployment, InlineLink, ReplySink, TransportKind};
use unbundled::tc::{ReadConsistency, SnapshotSpec, TableRoute, Tc, TcConfig, TcLogRecord};

const V: TableId = TableId(1);
const P: TableId = TableId(2);
const DC: DcId = DcId(1);
const WRITER: TcId = TcId(1);
const READER: TcId = TcId(2);

/// One DC holding table `V` (written with versioned writes) and table
/// `P` (written with plain ones), shared by two TCs (the Figure 2 shape
/// in miniature).
fn shared() -> Deployment {
    let cfg = TcConfig {
        resend_interval: Duration::from_millis(1),
        max_resends: 3,
        ..TcConfig::default()
    };
    let mut d = Deployment::new();
    d.add_dc(DC, DcConfig::default());
    d.create_table(DC, TableSpec::plain(V, "shared"));
    d.create_table(DC, TableSpec::plain(P, "plain"));
    for tc in [WRITER, READER] {
        d.add_tc(tc, cfg.clone());
        d.connect(tc, DC, TransportKind::Inline);
        d.route(tc, V, TableRoute::Single(DC));
        d.route(tc, P, TableRoute::Single(DC));
    }
    d
}

fn key() -> Key {
    Key::from_u64(1)
}

fn commit_versioned(tc: &Tc, value: &[u8]) {
    let t = tc.begin().unwrap();
    tc.versioned_write(t, V, key(), value.to_vec()).unwrap();
    tc.commit(t).unwrap();
}

/// The deployment's DC behind a filter that loses every `StampCommit`:
/// the TC's commit record becomes stable, but no version it wrote is
/// ever published.
struct StampDropDc {
    dc: Arc<DcServer>,
    dropped: AtomicU64,
}

impl DataComponentApi for StampDropDc {
    fn dc_id(&self) -> DcId {
        DC
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        let is_stamp = matches!(
            &msg,
            TcToDc::Perform {
                op: LogicalOp::StampCommit { .. },
                ..
            }
        );
        if is_stamp {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        } else {
            self.dc.handle(msg, out);
        }
    }
}

/// One lock-free point read at `how` in a transaction of its own (a
/// transaction that only reads logs nothing).
fn read_once(tc: &Tc, table: TableId, key: Key, how: ReadConsistency) -> Option<Vec<u8>> {
    let t = tc.begin().unwrap();
    let v = tc.read(t, table, key, how).unwrap();
    tc.commit(t).unwrap();
    v
}

#[test]
fn one_key_versioned_commit_is_three_log_records_and_one_force() {
    let d = shared();
    let tc = d.tc(WRITER);
    commit_versioned(&tc, b"v1");
    let log = d.tc_log(WRITER);
    let before = log.stats().snapshot();
    let from = log.last_seq();
    commit_versioned(&tc, b"v2");
    let delta = log.stats().snapshot().delta(&before);
    let shape: Vec<&str> = log
        .read_range(from + 1, log.last_seq())
        .iter()
        .map(|(_, rec)| match rec {
            TcLogRecord::Op { op, .. } | TcLogRecord::RedoOnly { op, .. } => op.name(),
            TcLogRecord::Commit { .. } => "commit",
            _ => "other",
        })
        .collect();
    assert_eq!(
        shape,
        ["vwrite", "stamp", "commit"],
        "stamps precede their commit"
    );
    assert_eq!(delta.log_records, 3);
    assert_eq!(delta.log_forces, 1, "one flush covers stamp and commit");
    assert_eq!(
        read_once(&d.tc(READER), V, key(), ReadConsistency::Committed),
        Some(b"v2".to_vec())
    );

    // A transaction that only reads, at every level and with a scan,
    // never enters the log: no record, no force.
    let before = log.stats().snapshot();
    let t = tc.begin().unwrap();
    for how in [
        ReadConsistency::Locking,
        ReadConsistency::Snapshot(SnapshotSpec::Pinned),
        ReadConsistency::Committed,
        ReadConsistency::Dirty,
    ] {
        assert_eq!(
            tc.read(t, V, key(), how).unwrap(),
            Some(b"v2".to_vec()),
            "{how:?}"
        );
    }
    assert_eq!(tc.scan(t, V, Key::empty(), None, None).unwrap().len(), 1);
    tc.commit(t).unwrap();
    let delta = log.stats().snapshot().delta(&before);
    assert_eq!(delta.log_records, 0, "a read-only commit appends nothing");
    assert_eq!(delta.log_forces, 0, "a read-only commit forces nothing");

    // Aborting a transaction that logged nothing (it holds a lock, but
    // has nothing to undo) appends and forces nothing either.
    let before = log.stats().snapshot();
    let t = tc.begin().unwrap();
    tc.read(t, V, key(), ReadConsistency::Locking).unwrap();
    tc.abort(t).unwrap();
    let delta = log.stats().snapshot().delta(&before);
    assert_eq!(delta.log_records, 0, "an empty abort appends nothing");
    assert_eq!(delta.log_forces, 0, "an empty abort forces nothing");
}

#[test]
fn tc_crash_between_commit_force_and_stamp_delivery_still_publishes() {
    let d = shared();
    let tc = d.tc(WRITER);
    let reader = d.tc(READER);
    commit_versioned(&tc, b"v1");
    let lossy = Arc::new(StampDropDc {
        dc: d.dc(DC),
        dropped: AtomicU64::new(0),
    });
    tc.register_dc(
        DC,
        InlineLink::new(DcSlot::new(lossy.clone()), ReplySink::new(tc.clone())),
    );
    let t = tc.begin().unwrap();
    tc.versioned_write(t, V, key(), b"v2".to_vec()).unwrap();
    assert_eq!(
        tc.commit(t),
        Err(TcError::DcUnreachable(DC)),
        "the stamp is never acknowledged"
    );
    assert!(lossy.dropped.load(Ordering::SeqCst) > 0);
    let log = d.tc_log(WRITER);
    assert!(
        log.read_all_stable()
            .iter()
            .any(|(_, r)| *r == TcLogRecord::Commit { txn: t }),
        "the commit record was forced: the transaction IS committed"
    );
    // Unpublished: committed readers still see the version beneath.
    assert_eq!(
        read_once(&reader, V, key(), ReadConsistency::Committed),
        Some(b"v1".to_vec())
    );
    assert_eq!(
        read_once(&reader, V, key(), ReadConsistency::Dirty),
        Some(b"v2".to_vec())
    );
    // The TC dies holding the transaction's locks and reboots over the
    // deployment's ordinary link: redo repeats the logged stamp.
    d.crash_tc(WRITER);
    d.reboot_tc(WRITER);
    assert_eq!(
        read_once(&reader, V, key(), ReadConsistency::Committed),
        Some(b"v2".to_vec()),
        "recovery must finish publishing a committed version"
    );
    commit_versioned(&d.tc(WRITER), b"v3");
    assert_eq!(
        read_once(&reader, V, key(), ReadConsistency::Committed),
        Some(b"v3".to_vec())
    );
}

#[test]
fn acknowledged_commits_survive_a_crash_amid_concurrent_forces() {
    // A commit appends its stamps and its commit record as one log
    // group, so a force racing the committer can never make the commit
    // record stable without its stamps. Race a thread that forces in a
    // loop against a writer, crash the writer's TC mid-stream, reboot
    // it, and read every acknowledged commit back.
    let d = shared();
    let tc = d.tc(WRITER);
    let crashing = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let forcer = {
        let (tc, crashing) = (tc.clone(), crashing.clone());
        std::thread::spawn(move || {
            while !crashing.load(Ordering::SeqCst) {
                tc.force_and_publish();
            }
        })
    };
    let writer = {
        let (tc, crashing, acked) = (tc.clone(), crashing.clone(), acked.clone());
        std::thread::spawn(move || {
            let mut done = Vec::new();
            for i in 0u64.. {
                let Ok(t) = tc.begin() else { break };
                let write = tc.versioned_write(t, V, Key::from_u64(i), i.to_le_bytes().to_vec());
                if write.is_err() || tc.commit(t).is_err() {
                    break;
                }
                // A commit that returns once the crash has begun is not
                // an acknowledgement a client could have relied on.
                if crashing.load(Ordering::SeqCst) {
                    break;
                }
                done.push(i);
                acked.fetch_add(1, Ordering::SeqCst);
            }
            done
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while acked.load(Ordering::SeqCst) < 200 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    crashing.store(true, Ordering::SeqCst);
    d.crash_tc(WRITER);
    let done = writer.join().unwrap();
    forcer.join().unwrap();
    assert!(
        done.len() >= 200,
        "only {} commits before the crash",
        done.len()
    );
    d.reboot_tc(WRITER);
    let (tc, reader) = (d.tc(WRITER), d.tc(READER));
    for i in done {
        let want = Some(i.to_le_bytes().to_vec());
        assert_eq!(
            read_once(&reader, V, Key::from_u64(i), ReadConsistency::Committed),
            want,
            "committed read of acknowledged write {i}"
        );
        assert_eq!(
            read_once(
                &tc,
                V,
                Key::from_u64(i),
                ReadConsistency::Snapshot(SnapshotSpec::Fresh)
            ),
            want,
            "fresh snapshot of acknowledged write {i}"
        );
    }
}

/// Reproduce a crash that left the given operations of one unresolved
/// transaction stable in the writer's log, and nothing else of it: append
/// the `Op` records `Tc::mutate` writes for them, force, crash the TC and
/// reboot it. Returns the recovered TC.
fn recover_with_a_stable_loser(d: &Deployment, ops: Vec<LogicalOp>) -> Arc<Tc> {
    let log = d.tc_log(WRITER);
    let txn = TxnId(1_000);
    for op in ops {
        let rec = TcLogRecord::Op { txn, dc: DC, op };
        let size = rec.encoded_size();
        log.append(rec, size);
    }
    log.force();
    d.crash_tc(WRITER);
    d.reboot_tc(WRITER);
    d.tc(WRITER)
}

/// Commit `value` at key 1 of the plain table through the writer.
fn commit_plain(d: &Deployment, value: &[u8]) {
    let tc = d.tc(WRITER);
    let t = tc.begin().unwrap();
    tc.insert(t, P, Key::from_u64(1), value.to_vec()).unwrap();
    tc.commit(t).unwrap();
}

#[test]
fn a_stable_op_with_no_resolution_record_is_undone_as_a_loser() {
    // A transaction enters the log with its first operation — there is
    // no begin record — so recovery must learn of a loser from its
    // operations alone.
    let d = shared();
    commit_plain(&d, b"winner");
    let tc = recover_with_a_stable_loser(
        &d,
        vec![LogicalOp::Insert {
            table: P,
            key: Key::from_u64(2),
            value: b"loser".to_vec(),
        }],
    );
    assert_eq!(
        read_once(&tc, P, Key::from_u64(2), ReadConsistency::Locking),
        None,
        "redo repeats the loser's insert, undo must remove it"
    );
    assert_eq!(
        read_once(&tc, P, Key::from_u64(1), ReadConsistency::Locking),
        Some(b"winner".to_vec())
    );
}

#[test]
fn a_losers_failed_duplicate_insert_leaves_the_committed_row() {
    // `mutate` logs an insert before it learns the insert fails. A loser
    // whose only stable op is a duplicate insert of a committed key
    // made no version there, so undo must leave the committed row.
    let d = shared();
    commit_plain(&d, b"winner");
    let tc = recover_with_a_stable_loser(
        &d,
        vec![LogicalOp::Insert {
            table: P,
            key: Key::from_u64(1),
            value: b"duplicate".to_vec(),
        }],
    );
    for how in [ReadConsistency::Locking, ReadConsistency::Committed] {
        assert_eq!(
            read_once(&tc, P, Key::from_u64(1), how),
            Some(b"winner".to_vec()),
            "{how:?} read after recovery"
        );
    }
}

#[test]
fn a_losers_update_then_failed_duplicate_insert_reads_back_the_committed_row() {
    // The loser's last op on the key failed; its update beneath still
    // made a version, which the revert naming the failed op undoes.
    let d = shared();
    commit_plain(&d, b"winner");
    let tc = recover_with_a_stable_loser(
        &d,
        vec![
            LogicalOp::Update {
                table: P,
                key: Key::from_u64(1),
                value: b"dirty".to_vec(),
            },
            LogicalOp::Insert {
                table: P,
                key: Key::from_u64(1),
                value: b"duplicate".to_vec(),
            },
        ],
    );
    for how in [ReadConsistency::Locking, ReadConsistency::Committed] {
        assert_eq!(
            read_once(&tc, P, Key::from_u64(1), how),
            Some(b"winner".to_vec()),
            "{how:?} read after recovery"
        );
    }
}

#[test]
fn committed_reads_on_a_plain_table_are_not_dirty() {
    let d = shared();
    let tc = d.tc(WRITER);
    let reader = d.tc(READER);
    let t = tc.begin().unwrap();
    tc.insert(t, P, key(), b"a".to_vec()).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        None
    );
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Dirty),
        Some(b"a".to_vec())
    );
    tc.commit(t).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        Some(b"a".to_vec())
    );
    // An aborted update and an uncommitted delete stay invisible too.
    let t = tc.begin().unwrap();
    tc.update(t, P, key(), b"doomed".to_vec()).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        Some(b"a".to_vec())
    );
    tc.abort(t).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        Some(b"a".to_vec())
    );
    let t = tc.begin().unwrap();
    tc.delete(t, P, key()).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        Some(b"a".to_vec())
    );
    tc.commit(t).unwrap();
    assert_eq!(
        read_once(&reader, P, key(), ReadConsistency::Committed),
        None
    );
}

#[test]
fn committed_readers_keep_the_old_owners_version_under_a_new_owners_write() {
    let d = shared();
    let first = d.tc(WRITER);
    let second = d.tc(READER);
    commit_versioned(&first, b"by-first");
    // Another TC — a different log, a different LSN space — writes the
    // same record; a third party reading committed must not lose it.
    let t = second.begin().unwrap();
    second
        .versioned_write(t, V, key(), b"by-second".to_vec())
        .unwrap();
    assert_eq!(
        read_once(&first, V, key(), ReadConsistency::Committed),
        Some(b"by-first".to_vec())
    );
    second.abort(t).unwrap();
    assert_eq!(
        read_once(&first, V, key(), ReadConsistency::Committed),
        Some(b"by-first".to_vec()),
        "the revert lands on the old owner's committed payload"
    );
    let t = second.begin().unwrap();
    second
        .versioned_write(t, V, key(), b"by-second".to_vec())
        .unwrap();
    second.commit(t).unwrap();
    assert_eq!(
        read_once(&first, V, key(), ReadConsistency::Committed),
        Some(b"by-second".to_vec())
    );
}
