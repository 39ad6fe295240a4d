//! End-to-end integration tests: full transactions across the TC:DC
//! boundary, over both transports, with crash injection.

use unbundled::core::{DcId, Key, TableId, TableSpec, TcError, TcId};
use unbundled::dc::DcConfig;
use unbundled::kernel::{single, Deployment, FaultModel, TransportKind};
use unbundled::tc::{RangePartitioner, ReadConsistency, ScanProtocol, SnapshotSpec, Tc, TcConfig};

const T: TableId = TableId(1);

fn basic(kind: TransportKind) -> Deployment {
    single(
        TcConfig::default(),
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    )
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
fn txn_commit_roundtrip_inline() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    tc.insert(txn, T, Key::from_u64(1), b"hello".to_vec())
        .unwrap();
    tc.insert(txn, T, Key::from_u64(2), b"world".to_vec())
        .unwrap();
    tc.commit(txn).unwrap();

    let txn2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(txn2, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"hello".to_vec())
    );
    tc.update(txn2, T, Key::from_u64(1), b"hi".to_vec())
        .unwrap();
    tc.delete(txn2, T, Key::from_u64(2)).unwrap();
    tc.commit(txn2).unwrap();

    let txn3 = tc.begin().unwrap();
    assert_eq!(
        tc.read(txn3, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"hi".to_vec())
    );
    assert_eq!(
        tc.read(txn3, T, Key::from_u64(2), ReadConsistency::Locking)
            .unwrap(),
        None
    );
    tc.commit(txn3).unwrap();
}

#[test]
fn abort_rolls_back_via_inverse_operations() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    // Committed baseline.
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"keep".to_vec())
        .unwrap();
    tc.commit(t0).unwrap();
    // Aborted transaction touching existing + new keys.
    let t1 = tc.begin().unwrap();
    tc.update(t1, T, Key::from_u64(1), b"clobber".to_vec())
        .unwrap();
    tc.insert(t1, T, Key::from_u64(2), b"phantom".to_vec())
        .unwrap();
    tc.delete(t1, T, Key::from_u64(1)).unwrap();
    tc.abort(t1).unwrap();
    // State is exactly the baseline again.
    let t2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(t2, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"keep".to_vec())
    );
    assert_eq!(
        tc.read(t2, T, Key::from_u64(2), ReadConsistency::Locking)
            .unwrap(),
        None
    );
    tc.commit(t2).unwrap();
    assert_eq!(tc.stats().snapshot().aborts, 1);
    assert_eq!(
        tc.stats().snapshot().undo_ops,
        2,
        "one revert per written key, however many writes it took"
    );
}

#[test]
fn failed_operation_aborts_transaction() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"v".to_vec()).unwrap();
    tc.commit(t0).unwrap();
    let t1 = tc.begin().unwrap();
    tc.insert(t1, T, Key::from_u64(5), b"x".to_vec()).unwrap();
    let err = tc
        .insert(t1, T, Key::from_u64(1), b"dup".to_vec())
        .unwrap_err();
    assert!(matches!(err, TcError::OperationFailed(..)));
    // The transaction was rolled back: key 5 is gone.
    let t2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(t2, T, Key::from_u64(5), ReadConsistency::Locking)
            .unwrap(),
        None
    );
    tc.commit(t2).unwrap();
}

#[test]
fn serializable_scan_fetch_ahead() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    for k in 0..50u64 {
        tc.insert(t0, T, Key::from_u64(k * 2), format!("{k}").into_bytes())
            .unwrap();
    }
    tc.commit(t0).unwrap();
    let t1 = tc.begin().unwrap();
    let rows = tc
        .scan(t1, T, Key::from_u64(10), Some(Key::from_u64(30)), None)
        .unwrap();
    let keys: Vec<u64> = rows.iter().map(|(k, _)| k.as_u64().unwrap()).collect();
    assert_eq!(keys, vec![10, 12, 14, 16, 18, 20, 22, 24, 26, 28]);
    tc.commit(t1).unwrap();
}

#[test]
fn serializable_scan_static_ranges() {
    let cfg = TcConfig {
        scan_protocol: ScanProtocol::StaticRanges(std::sync::Arc::new(RangePartitioner::even_u64(
            16,
        ))),
        ..Default::default()
    };
    let d = single(
        cfg,
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    for k in 0..50u64 {
        tc.insert(t0, T, Key::from_u64(k), b"v".to_vec()).unwrap();
    }
    tc.commit(t0).unwrap();
    let t1 = tc.begin().unwrap();
    let rows = tc
        .scan(t1, T, Key::from_u64(5), Some(Key::from_u64(15)), None)
        .unwrap();
    assert_eq!(rows.len(), 10);
    tc.commit(t1).unwrap();
    // Far fewer locks than fetch-ahead: partitions, not records.
    let (acquired, ..) = tc.lock_manager().stats().snapshot();
    assert!(acquired > 0);
}

#[test]
fn phantom_protection_blocks_insert_into_scanned_range() {
    use std::sync::Arc;
    use std::time::Duration;
    let d = Arc::new(basic(TransportKind::Inline));
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    for k in [10u64, 20, 30] {
        tc.insert(t0, T, Key::from_u64(k), b"v".to_vec()).unwrap();
    }
    tc.commit(t0).unwrap();

    // Scanner reads [10, 30] and holds its locks.
    let scanner = tc.begin().unwrap();
    let rows = tc
        .scan(scanner, T, Key::from_u64(10), Some(Key::from_u64(31)), None)
        .unwrap();
    assert_eq!(rows.len(), 3);

    // A concurrent insert into the scanned range must block until the
    // scanner commits.
    let d2 = d.clone();
    let inserter = std::thread::spawn(move || {
        let tc = d2.tc(TcId(1));
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(15), b"phantom".to_vec())
            .unwrap();
        tc.commit(t).unwrap();
        std::time::Instant::now()
    });
    std::thread::sleep(Duration::from_millis(60));
    let released = std::time::Instant::now();
    tc.commit(scanner).unwrap();
    let insert_done = inserter.join().unwrap();
    assert!(
        insert_done >= released,
        "the phantom insert must wait for the scanner's locks"
    );
}

#[test]
fn deadlock_detected_and_victim_aborted() {
    use std::sync::Arc;
    let d = Arc::new(basic(TransportKind::Inline));
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"a".to_vec()).unwrap();
    tc.insert(t0, T, Key::from_u64(2), b"b".to_vec()).unwrap();
    tc.commit(t0).unwrap();

    let t1 = tc.begin().unwrap();
    let t2 = tc.begin().unwrap();
    tc.update(t1, T, Key::from_u64(1), b"x".to_vec()).unwrap();
    tc.update(t2, T, Key::from_u64(2), b"y".to_vec()).unwrap();
    let d2 = d.clone();
    let h = std::thread::spawn(move || {
        let tc = d2.tc(TcId(1));
        // t2 waits for key 1 (held by t1)
        tc.update(t2, T, Key::from_u64(1), b"z".to_vec())
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    // t1 → key 2 (held by t2) closes the cycle: one of them dies.
    let r1 = tc.update(t1, T, Key::from_u64(2), b"w".to_vec());
    let r2 = h.join().unwrap();
    let deadlocks = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(TcError::Deadlock(_)) | Err(TcError::LockTimeout(_))))
        .count();
    assert!(deadlocks >= 1, "cycle must be broken: {r1:?} / {r2:?}");
    // Clean up whichever survived.
    if r1.is_ok() {
        let _ = tc.commit(t1);
    }
    if r2.is_ok() {
        let _ = tc.commit(t2);
    }
}

#[test]
fn exactly_once_under_loss_and_reordering() {
    let kind = TransportKind::Queued {
        faults: FaultModel {
            loss: 0.2,
            reorder: 0.3,
            ..Default::default()
        },
        workers: 4,
        batch: 1,
    };
    let cfg = TcConfig {
        resend_interval: std::time::Duration::from_millis(5),
        ..Default::default()
    };
    let d = single(cfg, DcConfig::default(), kind, &[TableSpec::plain(T, "t")]);
    let tc = d.tc(TcId(1));
    for k in 0..100u64 {
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(k), format!("v{k}").into_bytes())
            .unwrap();
        tc.commit(t).unwrap();
    }
    // Every key exactly once, despite losses and reorders.
    let t = tc.begin().unwrap();
    let rows = tc.scan(t, T, Key::empty(), None, None).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(rows.len(), 100);
    for (i, (k, v)) in rows.iter().enumerate() {
        assert_eq!(k.as_u64().unwrap(), i as u64);
        assert_eq!(v, &format!("v{i}").into_bytes());
    }
    let snap = tc.stats().snapshot();
    assert!(
        snap.resends > 0,
        "losses must have triggered resends: {snap:?}"
    );
    let dc_snap = d.dc(DcId(1)).engine().stats().snapshot();
    assert!(
        dc_snap.duplicates_suppressed > 0,
        "resends must have been deduplicated: {dc_snap:?}"
    );
}

#[test]
fn dc_crash_active_transactions_continue_after_redo() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    // Committed data.
    let t0 = tc.begin().unwrap();
    for k in 0..20u64 {
        tc.insert(t0, T, Key::from_u64(k), b"committed".to_vec())
            .unwrap();
    }
    tc.commit(t0).unwrap();
    // An active transaction with work in flight.
    let t1 = tc.begin().unwrap();
    tc.insert(t1, T, Key::from_u64(100), b"active".to_vec())
        .unwrap();

    d.crash_dc(DcId(1));
    d.reboot_dc(DcId(1)); // DC-local recovery + TC-driven redo

    // The active transaction continues and commits.
    tc.insert(t1, T, Key::from_u64(101), b"active2".to_vec())
        .unwrap();
    tc.commit(t1).unwrap();

    let t2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(t2, T, Key::from_u64(0), ReadConsistency::Locking)
            .unwrap(),
        Some(b"committed".to_vec())
    );
    assert_eq!(
        tc.read(t2, T, Key::from_u64(100), ReadConsistency::Locking)
            .unwrap(),
        Some(b"active".to_vec())
    );
    assert_eq!(
        tc.read(t2, T, Key::from_u64(101), ReadConsistency::Locking)
            .unwrap(),
        Some(b"active2".to_vec())
    );
    tc.commit(t2).unwrap();
    assert_eq!(tc.stats().snapshot().dc_recoveries, 1);
}

#[test]
fn tc_crash_loses_uncommitted_keeps_committed() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"committed".to_vec())
        .unwrap();
    tc.commit(t0).unwrap();
    // Uncommitted transaction: its ops reached the DC cache.
    let t1 = tc.begin().unwrap();
    tc.insert(t1, T, Key::from_u64(2), b"uncommitted".to_vec())
        .unwrap();

    d.crash_tc(TcId(1));
    d.reboot_tc(TcId(1));
    let tc = d.tc(TcId(1)); // new incarnation

    let t2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(t2, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"committed".to_vec())
    );
    assert_eq!(
        tc.read(t2, T, Key::from_u64(2), ReadConsistency::Locking)
            .unwrap(),
        None,
        "uncommitted effects must not survive a TC crash"
    );
    tc.commit(t2).unwrap();
}

#[test]
fn tc_crash_mid_transaction_rolls_back_stable_loser() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"base".to_vec())
        .unwrap();
    tc.commit(t0).unwrap();
    // A loser whose operations ARE on the stable log (forced but not
    // committed): recovery must repeat history then roll it back.
    let t1 = tc.begin().unwrap();
    tc.update(t1, T, Key::from_u64(1), b"loser".to_vec())
        .unwrap();
    tc.insert(t1, T, Key::from_u64(2), b"loser".to_vec())
        .unwrap();
    tc.force_and_publish(); // ops stable, commit record absent

    d.crash_tc(TcId(1));
    d.reboot_tc(TcId(1));
    let tc = d.tc(TcId(1));

    let t2 = tc.begin().unwrap();
    assert_eq!(
        tc.read(t2, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"base".to_vec()),
        "stable loser update must be undone"
    );
    assert_eq!(
        tc.read(t2, T, Key::from_u64(2), ReadConsistency::Locking)
            .unwrap(),
        None
    );
    tc.commit(t2).unwrap();
}

#[test]
fn complete_failure_recovers_committed_state() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    for k in 0..50u64 {
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(k), format!("v{k}").into_bytes())
            .unwrap();
        tc.commit(t).unwrap();
    }
    // Loser in flight.
    let loser = tc.begin().unwrap();
    tc.update(loser, T, Key::from_u64(0), b"loser".to_vec())
        .unwrap();

    d.crash_all();
    d.reboot_all();
    let tc = d.tc(TcId(1));

    let t = tc.begin().unwrap();
    let rows = tc.scan(t, T, Key::empty(), None, None).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(rows.len(), 50);
    for (i, (k, v)) in rows.iter().enumerate() {
        assert_eq!(k.as_u64().unwrap(), i as u64);
        assert_eq!(v, &format!("v{i}").into_bytes(), "key {i}");
    }
}

#[test]
fn checkpoint_bounds_recovery_work() {
    let d = basic(TransportKind::Inline);
    let tc = d.tc(TcId(1));
    for k in 0..30u64 {
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(k), b"v".to_vec()).unwrap();
        tc.commit(t).unwrap();
    }
    let rssp = tc.checkpoint().unwrap();
    assert!(
        rssp.0 > 60,
        "rssp should cover the pre-checkpoint work, got {rssp}"
    );
    for k in 30..35u64 {
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(k), b"v".to_vec()).unwrap();
        tc.commit(t).unwrap();
    }
    d.crash_all();
    d.reboot_all();
    let tc = d.tc(TcId(1));
    let snap = tc.stats().snapshot();
    assert!(
        snap.redo_resends < 30,
        "redo must start at the RSSP, only replaying post-checkpoint work (got {})",
        snap.redo_resends
    );
    let t = tc.begin().unwrap();
    assert_eq!(tc.scan(t, T, Key::empty(), None, None).unwrap().len(), 35);
    tc.commit(t).unwrap();
}

#[test]
fn works_across_queued_transport_with_delay() {
    let kind = TransportKind::Queued {
        faults: FaultModel {
            delay: std::time::Duration::from_micros(100),
            ..Default::default()
        },
        workers: 2,
        batch: 4,
    };
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t = tc.begin().unwrap();
    tc.insert(t, T, Key::from_u64(1), b"v".to_vec()).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Dirty),
        Some(b"v".to_vec())
    );
}

#[test]
fn dropping_a_deployment_frees_its_tc() {
    let queued = TransportKind::Queued {
        faults: FaultModel::default(),
        workers: 2,
        batch: 4,
    };
    for (name, kind) in [("inline", TransportKind::Inline), ("queued", queued)] {
        let d = basic(kind);
        let tc = d.tc(TcId(1));
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(1), b"v".to_vec()).unwrap();
        tc.commit(t).unwrap();
        let weak = std::sync::Arc::downgrade(&tc);
        drop(tc);
        drop(d);
        // A queued worker may still be returning from delivering the
        // last reply; the TC goes when that delivery ends.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while weak.strong_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            weak.strong_count(),
            0,
            "{name}: the TC outlived its deployment"
        );
    }
}

#[test]
fn versioned_sharing_read_committed_vs_dirty() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "shared")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.versioned_write(t0, T, Key::from_u64(1), b"v1".to_vec())
        .unwrap();
    tc.commit(t0).unwrap();
    // Open transaction with a pending update.
    let t1 = tc.begin().unwrap();
    tc.versioned_write(t1, T, Key::from_u64(1), b"v2-pending".to_vec())
        .unwrap();
    // Readers never block; committed sees v1, dirty sees v2.
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed),
        Some(b"v1".to_vec())
    );
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Dirty),
        Some(b"v2-pending".to_vec())
    );
    tc.commit(t1).unwrap();
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed),
        Some(b"v2-pending".to_vec())
    );
    // Abort path restores the committed version.
    let t2 = tc.begin().unwrap();
    tc.versioned_write(t2, T, Key::from_u64(1), b"v3-doomed".to_vec())
        .unwrap();
    tc.abort(t2).unwrap();
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed),
        Some(b"v2-pending".to_vec())
    );
}

#[test]
fn scan_with_serves_each_level_from_the_flavor_it_names() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    for k in 1..=3u64 {
        tc.insert(t0, T, Key::from_u64(k), b"old".to_vec()).unwrap();
    }
    tc.commit(t0).unwrap();
    // A writer holds key 2's X lock with an uncommitted update and an
    // uncommitted insert of key 4.
    let w = tc.begin().unwrap();
    tc.update(w, T, Key::from_u64(2), b"new".to_vec()).unwrap();
    tc.insert(w, T, Key::from_u64(4), b"new".to_vec()).unwrap();
    let scan = |how| {
        let t = tc.begin().unwrap();
        let rows = tc
            .scan_with(t, T, Key::from_u64(1), None, Some(10), how)
            .unwrap();
        tc.commit(t).unwrap();
        rows.into_iter()
            .map(|(k, v)| (k.as_u64().unwrap(), v))
            .collect::<Vec<_>>()
    };
    let committed = vec![
        (1, b"old".to_vec()),
        (2, b"old".to_vec()),
        (3, b"old".to_vec()),
    ];
    // No level but `Locking` waits for the writer's lock.
    for how in [
        ReadConsistency::Committed,
        ReadConsistency::Snapshot(SnapshotSpec::Fresh),
        ReadConsistency::BoundedLag(0),
        ReadConsistency::AtLeast(tc.log_handle().stable()),
    ] {
        assert_eq!(scan(how), committed, "{how:?}");
    }
    assert_eq!(
        scan(ReadConsistency::Dirty),
        vec![
            (1, b"old".to_vec()),
            (2, b"new".to_vec()),
            (3, b"old".to_vec()),
            (4, b"new".to_vec()),
        ]
    );
    tc.commit(w).unwrap();
    assert_eq!(scan(ReadConsistency::Locking).len(), 4);
    assert_eq!(
        scan(ReadConsistency::Committed),
        scan(ReadConsistency::Dirty)
    );
}

#[test]
fn concurrent_clients_exactly_once_under_reordering() {
    // Regression test for the LWM allocation race: a committer computing
    // the low-water mark between another thread's log append and its
    // ack-tracker registration used to publish an LWM covering an
    // in-flight operation, which the DC then wrongly suppressed.
    use std::sync::Arc;
    let kind = TransportKind::Queued {
        faults: FaultModel {
            reorder: 0.4,
            loss: 0.1,
            ..Default::default()
        },
        workers: 4,
        batch: 1,
    };
    let cfg = TcConfig {
        resend_interval: std::time::Duration::from_millis(3),
        ..Default::default()
    };
    let d = Arc::new(single(
        cfg,
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    ));
    let n_threads = 4u64;
    let per_thread = 100u64;
    let d2 = d.clone();
    let handles: Vec<_> = (0..n_threads)
        .map(|i| {
            let d = d2.clone();
            std::thread::spawn(move || {
                let tc = d.tc(TcId(1));
                for j in 0..per_thread {
                    let k = j * n_threads + i; // interleaved keys → shared pages
                    let t = tc.begin().unwrap();
                    tc.insert(t, T, Key::from_u64(k), vec![i as u8]).unwrap();
                    tc.commit(t).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let tc = d.tc(TcId(1));
    let t = tc.begin().unwrap();
    let rows = tc.scan(t, T, Key::empty(), None, None).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(
        rows.len(),
        (n_threads * per_thread) as usize,
        "every committed insert exactly once"
    );
}
