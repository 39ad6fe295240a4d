//! Contract-level integration tests: the Section 4.2 interaction
//! contracts, multi-DC atomicity, batched operation transport, and API
//! edge cases.

use std::sync::Arc;
use unbundled::core::{
    DataComponentApi, DcId, DcToTc, Key, LogicalOp, Lsn, OpResult, RequestId, TableId, TableSpec,
    TcError, TcId, TcToDc, TxnId,
};
use unbundled::customdc::{GridIndexer, SecondaryIndexer, SimpleDc, TextIndexer};
use unbundled::dc::{DcConfig, DcServer};
use unbundled::kernel::{
    single, DcSlot, Deployment, FaultModel, InlineLink, ReplySink, TransportKind,
};
use unbundled::storage::{LogStore, SimDisk};
use unbundled::tc::{AckTracker, ReadConsistency, TableRoute, Tc, TcConfig};

const T: TableId = TableId(1);
const T2: TableId = TableId(2);

/// Two DCs under one TC, one table on each.
fn two_dcs() -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(DcId(1), DcConfig::default());
    d.add_dc(DcId(2), DcConfig::default());
    d.add_tc(TcId(1), TcConfig::default());
    d.connect(TcId(1), DcId(1), TransportKind::Inline);
    d.connect(TcId(1), DcId(2), TransportKind::Inline);
    d.create_table(DcId(1), TableSpec::plain(T, "t1"));
    d.create_table(DcId(2), TableSpec::plain(T2, "t2"));
    d.route(TcId(1), T, TableRoute::Single(DcId(1)));
    d.route(TcId(1), T2, TableRoute::Single(DcId(2)));
    d
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
fn multi_dc_transaction_commits_atomically_without_2pc() {
    let d = two_dcs();
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    tc.insert(txn, T, Key::from_u64(1), b"on-dc1".to_vec())
        .unwrap();
    tc.insert(txn, T2, Key::from_u64(1), b"on-dc2".to_vec())
        .unwrap();
    // No prepare/vote anywhere: commit is one local log force.
    tc.commit(txn).unwrap();
    let t = tc.begin().unwrap();
    assert_eq!(
        tc.read(t, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"on-dc1".to_vec())
    );
    assert_eq!(
        tc.read(t, T2, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"on-dc2".to_vec())
    );
    tc.commit(t).unwrap();
}

#[test]
fn multi_dc_abort_undoes_on_both_dcs() {
    let d = two_dcs();
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    tc.insert(txn, T, Key::from_u64(9), b"a".to_vec()).unwrap();
    tc.insert(txn, T2, Key::from_u64(9), b"b".to_vec()).unwrap();
    tc.abort(txn).unwrap();
    assert_eq!(
        read_once(&tc, T, Key::from_u64(9), ReadConsistency::Dirty),
        None
    );
    assert_eq!(
        read_once(&tc, T2, Key::from_u64(9), ReadConsistency::Dirty),
        None
    );
}

#[test]
fn multi_dc_tc_crash_recovers_both_sides() {
    let d = two_dcs();
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"c1".to_vec()).unwrap();
    tc.insert(t0, T2, Key::from_u64(1), b"c2".to_vec()).unwrap();
    tc.commit(t0).unwrap();
    // Loser spanning both DCs, forced but uncommitted.
    let loser = tc.begin().unwrap();
    tc.update(loser, T, Key::from_u64(1), b"x1".to_vec())
        .unwrap();
    tc.update(loser, T2, Key::from_u64(1), b"x2".to_vec())
        .unwrap();
    tc.force_and_publish();
    d.crash_tc(TcId(1));
    d.reboot_tc(TcId(1));
    let tc = d.tc(TcId(1));
    let t = tc.begin().unwrap();
    assert_eq!(
        tc.read(t, T, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"c1".to_vec())
    );
    assert_eq!(
        tc.read(t, T2, Key::from_u64(1), ReadConsistency::Locking)
            .unwrap(),
        Some(b"c2".to_vec())
    );
    tc.commit(t).unwrap();
}

#[test]
fn scan_limit_and_unbounded_high() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    for k in 0..30u64 {
        tc.insert(t0, T, Key::from_u64(k), b"v".to_vec()).unwrap();
    }
    tc.commit(t0).unwrap();
    let t = tc.begin().unwrap();
    let limited = tc.scan(t, T, Key::from_u64(5), None, Some(7)).unwrap();
    assert_eq!(limited.len(), 7);
    assert_eq!(limited[0].0.as_u64().unwrap(), 5);
    let unbounded = tc.scan(t, T, Key::from_u64(25), None, None).unwrap();
    assert_eq!(unbounded.len(), 5);
    tc.commit(t).unwrap();
}

#[test]
fn repeatable_reads_from_transaction_cache() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"v".to_vec()).unwrap();
    tc.commit(t0).unwrap();
    let t = tc.begin().unwrap();
    let reads_before = tc.stats().snapshot().reads_sent;
    let a = tc
        .read(t, T, Key::from_u64(1), ReadConsistency::Locking)
        .unwrap();
    let b = tc
        .read(t, T, Key::from_u64(1), ReadConsistency::Locking)
        .unwrap();
    assert_eq!(a, b);
    let reads_after = tc.stats().snapshot().reads_sent;
    assert_eq!(
        reads_after - reads_before,
        1,
        "second read served from the txn cache"
    );
    tc.commit(t).unwrap();
}

#[test]
fn a_blind_write_costs_one_dc_round_trip() {
    // The undo of a write is a revert of the version it makes, so the
    // TC fetches no before-image: an update or delete the transaction
    // never read sends no read.
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let t0 = tc.begin().unwrap();
    tc.insert(t0, T, Key::from_u64(1), b"a".to_vec()).unwrap();
    tc.insert(t0, T, Key::from_u64(2), b"b".to_vec()).unwrap();
    tc.commit(t0).unwrap();
    let reads = || tc.stats().snapshot().reads_sent;
    let before = reads();
    let t = tc.begin().unwrap();
    tc.update(t, T, Key::from_u64(1), b"a2".to_vec()).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(reads(), before, "a blind update sends no read");
    let t = tc.begin().unwrap();
    tc.delete(t, T, Key::from_u64(2)).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(reads(), before, "a blind delete sends no read");
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed),
        Some(b"a2".to_vec())
    );
    assert_eq!(
        read_once(&tc, T, Key::from_u64(2), ReadConsistency::Committed),
        None
    );
}

#[test]
fn operations_on_unknown_table_fail_cleanly() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    let err = tc.insert(txn, TableId(99), Key::from_u64(1), b"v".to_vec());
    assert!(err.is_err());
}

#[test]
fn commit_of_unknown_txn_errors() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    assert!(tc.commit(unbundled::core::TxnId(424242)).is_err());
    assert!(tc.abort(unbundled::core::TxnId(424242)).is_err());
}

#[test]
fn eosl_gates_dc_flushes_end_to_end() {
    // Causality across the boundary: nothing reaches the DC's disk until
    // the TC's log is forced past it, even if the DC tries to flush.
    let d = single(
        TcConfig {
            force_every: 1_000_000,
            ..Default::default()
        },
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    tc.insert(txn, T, Key::from_u64(1), b"unforced".to_vec())
        .unwrap();
    // No commit yet: EOSL has not moved.
    let server = d.dc(DcId(1));
    assert_eq!(
        server.engine().flush_all(),
        0,
        "WAL: nothing flushable before EOSL"
    );
    tc.commit(txn).unwrap(); // force + EOSL broadcast
    assert!(server.engine().flush_all() > 0);
}

#[test]
fn dirty_read_sees_uncommitted_plain_writes() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    let txn = tc.begin().unwrap();
    tc.insert(txn, T, Key::from_u64(1), b"dirty".to_vec())
        .unwrap();
    // Section 6.2.1: dirty reads need no locks and no versioning support.
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Dirty),
        Some(b"dirty".to_vec())
    );
    tc.abort(txn).unwrap();
    assert_eq!(
        read_once(&tc, T, Key::from_u64(1), ReadConsistency::Dirty),
        None
    );
}

#[test]
fn checkpoint_truncates_tc_log() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    let tc = d.tc(TcId(1));
    for k in 0..50u64 {
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(k), vec![0; 64]).unwrap();
        tc.commit(t).unwrap();
    }
    let before = d.tc_log(TcId(1)).live_bytes();
    tc.checkpoint().unwrap();
    let after = d.tc_log(TcId(1)).live_bytes();
    assert!(
        after < before / 4,
        "contract termination must shed the resend obligation (log {before} → {after})"
    );
}

#[test]
fn repeated_crash_recovery_cycles_are_stable() {
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "t")],
    );
    for round in 0..5u64 {
        let tc = d.tc(TcId(1));
        let t = tc.begin().unwrap();
        tc.insert(t, T, Key::from_u64(round), format!("r{round}").into_bytes())
            .unwrap();
        tc.commit(t).unwrap();
        match round % 3 {
            0 => {
                d.crash_dc(DcId(1));
                d.reboot_dc(DcId(1));
            }
            1 => {
                d.crash_tc(TcId(1));
                d.reboot_tc(TcId(1));
            }
            _ => {
                d.crash_all();
                d.reboot_all();
            }
        }
    }
    let tc = d.tc(TcId(1));
    let t = tc.begin().unwrap();
    let rows = tc.scan(t, T, Key::empty(), None, None).unwrap();
    tc.commit(t).unwrap();
    assert_eq!(
        rows.len(),
        5,
        "every committed row survives five crash cycles"
    );
    for (i, (k, v)) in rows.iter().enumerate() {
        assert_eq!(k.as_u64().unwrap(), i as u64);
        assert_eq!(v, &format!("r{i}").into_bytes());
    }
}

#[test]
fn lost_perform_batches_are_fully_resent_and_replayed_idempotently() {
    // Lossy batching transport: whole batches vanish in transit (the
    // batch is one datagram), and the per-message delay builds up queue
    // depth so batches actually form under the concurrent writers.
    let kind = TransportKind::Queued {
        faults: FaultModel {
            loss: 0.2,
            delay: std::time::Duration::from_micros(200),
            seed: 11,
            ..FaultModel::default()
        },
        workers: 1,
        batch: 4,
    };
    let d = Arc::new(single(
        TcConfig {
            resend_interval: std::time::Duration::from_millis(5),
            ..Default::default()
        },
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    ));
    let writers = 4u64;
    let per_writer = 10u64;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let d = d.clone();
            std::thread::spawn(move || {
                let tc = d.tc(TcId(1));
                for i in 0..per_writer {
                    let t = tc.begin().unwrap();
                    for j in 0..3u64 {
                        let k = (w << 32) | (i * 3 + j);
                        tc.insert(t, T, Key::from_u64(k), format!("w{w}-{i}-{j}").into_bytes())
                            .unwrap();
                    }
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
        rows.len() as u64,
        writers * per_writer * 3,
        "every committed row present exactly once despite lost batches"
    );
    for (k, v) in rows {
        let k = k.as_u64().unwrap();
        let (w, i, j) = (
            k >> 32,
            (k & u32::MAX as u64) / 3,
            (k & u32::MAX as u64) % 3,
        );
        assert_eq!(v, format!("w{w}-{i}-{j}").into_bytes());
    }
    let links = d.queued_links(TcId(1));
    let batches: u64 = links.iter().map(|l| l.batches()).sum();
    let dropped: u64 = links.iter().map(|l| l.dropped()).sum();
    assert!(
        batches > 0,
        "the transport must actually have coalesced batches"
    );
    assert!(
        dropped > 0,
        "the fault model must actually have lost messages"
    );
    assert!(
        tc.stats().snapshot().resends > 0,
        "lost batches are recovered by resending every contained op"
    );
}

#[test]
fn dropped_reply_batches_do_not_stall_the_lwm() {
    // Reply-direction faults: whole `ReplyBatch` datagrams vanish (all
    // their acks lost at once) or arrive reordered. The resend contract
    // must recover every ack — the DC suppresses the resends as
    // duplicates and re-acks — so the low-water mark ends up at the very
    // end of the log instead of stalling below the lost batch forever.
    let kind = TransportKind::Queued {
        faults: FaultModel {
            loss: 0.25,
            reorder: 0.15,
            delay: std::time::Duration::from_micros(200),
            seed: 23,
        },
        workers: 1,
        batch: 8,
    };
    let d = Arc::new(single(
        TcConfig {
            resend_interval: std::time::Duration::from_millis(5),
            ..Default::default()
        },
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    ));
    let writers = 4u64;
    let per_writer = 8u64;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let d = d.clone();
            std::thread::spawn(move || {
                let tc = d.tc(TcId(1));
                for i in 0..per_writer {
                    let t = tc.begin().unwrap();
                    for j in 0..3u64 {
                        let k = (w << 32) | (i * 3 + j);
                        tc.insert(t, T, Key::from_u64(k), format!("w{w}-{i}-{j}").into_bytes())
                            .unwrap();
                    }
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
        rows.len() as u64,
        writers * per_writer * 3,
        "exactly-once despite lost acks"
    );
    let links = d.queued_links(TcId(1));
    let reply_batches: u64 = links.iter().map(|l| l.reply_batches()).sum();
    let reply_dropped: u64 = links.iter().map(|l| l.reply_dropped()).sum();
    assert!(
        reply_batches > 0,
        "the reply direction must actually have coalesced ack batches"
    );
    assert!(
        reply_dropped > 0,
        "the fault model must actually have lost reply datagrams"
    );
    assert!(
        tc.stats().snapshot().resends > 0,
        "lost acks are recovered by resending the ops"
    );
    assert_eq!(
        tc.outstanding_ops(),
        0,
        "no operation may stay unacked forever"
    );
    assert_eq!(
        tc.lwm(),
        tc.log_handle().last(),
        "the LWM must reach the end of the log — a dropped ReplyBatch never pins it"
    );
}

#[test]
fn per_ack_reply_mode_splits_coalesced_batches() {
    // The ablation knob: request batching on, reply batching forced off.
    // DC-coalesced `ReplyBatch` acks are split back into individual
    // `Reply` datagrams by the link, and the TC never sees a batch.
    let kind = TransportKind::Queued {
        faults: FaultModel {
            delay: std::time::Duration::from_micros(100),
            ..FaultModel::default()
        },
        workers: 1,
        batch: 8,
    };
    let d = Arc::new(single(
        TcConfig::default(),
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    ));
    for l in d.queued_links(TcId(1)) {
        l.set_reply_batch(1);
    }
    let writers = 4u64;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let d = d.clone();
            std::thread::spawn(move || {
                let tc = d.tc(TcId(1));
                for i in 0..6u64 {
                    let t = tc.begin().unwrap();
                    tc.insert(t, T, Key::from_u64((w << 32) | i), b"v".to_vec())
                        .unwrap();
                    tc.commit(t).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let tc = d.tc(TcId(1));
    let links = d.queued_links(TcId(1));
    let req_batches: u64 = links.iter().map(|l| l.batches()).sum();
    let reply_batches: u64 = links.iter().map(|l| l.reply_batches()).sum();
    assert!(req_batches > 0, "request batching must still coalesce");
    assert_eq!(
        reply_batches, 0,
        "per-ack mode must never put a ReplyBatch on the wire"
    );
    assert_eq!(tc.stats().snapshot().reply_batches, 0);
    assert_eq!(tc.outstanding_ops(), 0);
}

#[test]
fn reply_batches_coalesce_across_handle_calls() {
    // Request batches are capped at 2 ops, the reply direction at 16:
    // with one worker and a per-datagram wire delay, concurrent writers
    // back the queue up, the worker handles several request datagrams
    // back-to-back, and their acks must coalesce into shared `ReplyBatch`
    // datagrams — a batch no longer merely mirrors one request batch.
    let kind = TransportKind::Queued {
        faults: FaultModel {
            delay: std::time::Duration::from_micros(100),
            ..FaultModel::default()
        },
        workers: 1,
        batch: 2,
    };
    let d = Arc::new(single(
        TcConfig::default(),
        DcConfig::default(),
        kind,
        &[TableSpec::plain(T, "t")],
    ));
    for l in d.queued_links(TcId(1)) {
        l.set_reply_batch(16);
    }
    let writers = 8u64;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let d = d.clone();
            std::thread::spawn(move || {
                let tc = d.tc(TcId(1));
                for i in 0..8u64 {
                    let t = tc.begin().unwrap();
                    tc.insert(t, T, Key::from_u64((w << 32) | i), b"v".to_vec())
                        .unwrap();
                    tc.commit(t).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let tc = d.tc(TcId(1));
    let links = d.queued_links(TcId(1));
    let cross: u64 = links.iter().map(|l| l.cross_call_reply_batches()).sum();
    assert!(
        cross > 0,
        "acks of several handle() calls must share reply datagrams"
    );
    // Correctness is untouched: every op acked, every row present.
    assert_eq!(tc.outstanding_ops(), 0);
    let t = tc.begin().unwrap();
    assert_eq!(
        tc.scan(t, T, Key::empty(), None, None).unwrap().len(),
        (writers * 8) as usize
    );
    tc.commit(t).unwrap();
}

#[test]
fn lwm_never_exceeds_lowest_unacked_op_of_a_partially_acked_batch() {
    // A batch of three mutations reaches the DC, but only the acks for
    // the two *later* LSNs make it back: the low-water mark must stay
    // pinned below the batch until the first op's ack arrives, or a DC
    // could prune the in-set entry that still guards its redo.
    let server = DcServer::format(
        DcId(1),
        DcConfig::default(),
        unbundled::storage::SimDisk::new(),
        Arc::new(LogStore::new()),
    );
    server.create_table(TableSpec::plain(T, "t"));
    let tracker = AckTracker::new();
    tracker.bookkeeping(Lsn(1)); // Checkpoint
    let ops: Vec<(RequestId, LogicalOp)> = (2..=4u64)
        .map(|l| {
            tracker.sent(Lsn(l));
            (
                RequestId::Op(Lsn(l)),
                LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(l),
                    value: b"v".to_vec(),
                },
            )
        })
        .collect();
    let mut out = Vec::new();
    server.handle(TcToDc::PerformBatch { tc: TcId(1), ops }, &mut out);
    let replies = match out.pop() {
        Some(DcToTc::ReplyBatch { replies, .. }) => replies,
        other => panic!("expected one coalesced ReplyBatch, got {other:?}"),
    };
    assert_eq!(
        replies.len(),
        3,
        "each op in the batch is acked individually"
    );
    // Deliver the acks for LSNs 3 and 4 only; the ack for 2 is "lost".
    for (req, result) in &replies {
        assert!(result.is_ok());
        let lsn = req.lsn().unwrap();
        if lsn != Lsn(2) {
            tracker.acked(lsn);
        }
    }
    assert_eq!(
        tracker.lwm(),
        Lsn(1),
        "partially acked batch: the LWM stops right below the unacked op"
    );
    tracker.acked(Lsn(2));
    assert_eq!(
        tracker.lwm(),
        Lsn(4),
        "batch fully acked: the LWM covers it"
    );
}

#[test]
fn read_committed_roundtrip_on_shared_deployment() {
    let d = Arc::new(single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "shared")],
    ));
    let tc = d.tc(TcId(1));
    // Writer thread commits versions while a reader polls read-committed:
    // the reader must only ever observe committed payloads.
    let writer = {
        let d = d.clone();
        std::thread::spawn(move || {
            let tc = d.tc(TcId(1));
            for i in 0..50u64 {
                let t = tc.begin().unwrap();
                tc.versioned_write(
                    t,
                    T,
                    Key::from_u64(1),
                    format!("committed-{i}").into_bytes(),
                )
                .unwrap();
                tc.commit(t).unwrap();
            }
        })
    };
    while !writer.is_finished() {
        if let Some(v) = read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed) {
            let s = String::from_utf8(v).unwrap();
            assert!(
                s.starts_with("committed-"),
                "reader saw uncommitted state: {s}"
            );
        }
    }
    writer.join().unwrap();
    // The concurrent polls above are best-effort (the writer may finish
    // before this thread ever observes a version); the final committed
    // version must be visible unconditionally.
    let last = read_once(&tc, T, Key::from_u64(1), ReadConsistency::Committed)
        .expect("final version visible");
    assert_eq!(last, b"committed-49".to_vec());
}

/// A DC that acknowledges every request as if it were a mutation —
/// what a misrouted or malformed reply looks like to a reader.
struct DoneDc;

impl DataComponentApi for DoneDc {
    fn dc_id(&self) -> DcId {
        DcId(1)
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        if let TcToDc::Perform { tc, req, .. } = msg {
            out.push(DcToTc::Reply {
                dc: DcId(1),
                tc,
                req,
                result: Ok(OpResult::Done),
            });
        }
    }
}

#[test]
fn reply_of_the_wrong_shape_fails_the_operation_instead_of_panicking() {
    let tc = Tc::new(TcId(1), TcConfig::default(), Arc::new(LogStore::new()));
    let link = InlineLink::new(DcSlot::new(Arc::new(DoneDc)), ReplySink::new(tc.clone()));
    tc.register_dc(DcId(1), link);
    tc.register_table(T, TableRoute::Single(DcId(1)));
    let wrong_shape = |r| matches!(r, Err(TcError::UnexpectedReply { dc: DcId(1), .. }));
    let t = tc.begin().unwrap();
    assert!(wrong_shape(tc.read(
        t,
        T,
        Key::from_u64(1),
        ReadConsistency::Locking
    )));
    assert!(wrong_shape(tc.read(
        t,
        T,
        Key::from_u64(1),
        ReadConsistency::Dirty
    )));
    assert!(wrong_shape(
        tc.scan(t, T, Key::empty(), None, None).map(|_| None)
    ));
    // The transaction is intact and the TC still serves it.
    assert_eq!(tc.active_txns(), vec![t]);
    tc.abort(t).unwrap();
}

// ---------------------------------------------------------------------
// One abort contract, run on every DC kind
// ---------------------------------------------------------------------

const DOCS: TableId = TableId(10);
const TERMS: TableId = TableId(11);
const TERM_LIST: [&str; 6] = ["golden", "gate", "silver", "bridge", "bronze", "hour"];

/// Boots the DC under test as `DcId(1)`: freshly formatted (`false`),
/// or from its stable state after a crash lost everything volatile
/// (`true`).
type BootDc = dyn Fn(bool) -> Arc<dyn DataComponentApi>;

fn btree_dc() -> Box<BootDc> {
    let disk = SimDisk::new();
    let log = Arc::new(LogStore::new());
    Box::new(move |recover| {
        let cfg = DcConfig::default();
        if recover {
            log.crash();
            return Arc::new(DcServer::recover(DcId(1), cfg, disk.clone(), log.clone()));
        }
        let dc = DcServer::format(DcId(1), cfg, disk.clone(), log.clone());
        dc.create_table(TableSpec::plain(DOCS, "docs"));
        Arc::new(dc)
    })
}

fn text_dc() -> Box<BootDc> {
    let disk = SimDisk::new();
    Box::new(move |recover| {
        let boot = if recover {
            SimpleDc::recover
        } else {
            SimpleDc::new
        };
        boot(DcId(1), DOCS, TERMS, Arc::new(TextIndexer), disk.clone())
    })
}

/// Everything a reader can observe of `DOCS`: a scan at each read
/// flavor, and the secondary index's hits per term when the DC has one.
fn observable(tc: &Tc, view: Option<TableId>) -> Vec<Vec<(Key, Vec<u8>)>> {
    let t = tc.begin().unwrap();
    let mut seen = Vec::new();
    for how in [ReadConsistency::Dirty, ReadConsistency::Committed] {
        seen.push(
            tc.scan_with(t, DOCS, Key::empty(), None, None, how)
                .unwrap(),
        );
    }
    for term in view.map_or(&[][..], |_| &TERM_LIST[..]) {
        let low = Key::from_str_key(term);
        let hits = tc.scan_with(t, view.unwrap(), low, None, None, ReadConsistency::Dirty);
        seen.push(hits.unwrap());
    }
    tc.commit(t).unwrap();
    seen
}

/// Abort each kind of write on the DC `boot` makes, and check that the
/// abort leaves exactly the pre-transaction state (`view`: the DC's
/// secondary-index table, if it keeps one).
fn abort_contract(boot: fn() -> Box<BootDc>, view: Option<TableId>) {
    type Write = fn(&Tc, TxnId, &dyn Fn());
    let doc = |k: u64| Key::from_u64(k);
    let cases: [(&str, Write); 5] = [
        ("insert", |tc, t, _| {
            tc.insert(t, DOCS, Key::from_u64(3), b"golden hour".to_vec())
                .unwrap()
        }),
        ("update", |tc, t, _| {
            tc.update(t, DOCS, Key::from_u64(1), b"bronze bridge".to_vec())
                .unwrap()
        }),
        ("delete", |tc, t, _| {
            tc.delete(t, DOCS, Key::from_u64(2)).unwrap()
        }),
        ("two writes to one key", |tc, t, _| {
            tc.update(t, DOCS, Key::from_u64(1), b"silver hour".to_vec())
                .unwrap();
            tc.delete(t, DOCS, Key::from_u64(1)).unwrap();
        }),
        (
            "a write a DC crash interrupts",
            |tc, t, crash_and_restart| {
                tc.update(t, DOCS, Key::from_u64(2), b"bronze gate".to_vec())
                    .unwrap();
                // The checkpoint makes the uncommitted write stable at the
                // DC, so its undo after the restart must come from there.
                tc.checkpoint().unwrap();
                crash_and_restart();
            },
        ),
    ];
    for (case, write) in cases {
        let boot = boot();
        let tc = Tc::new(TcId(1), TcConfig::default(), Arc::new(LogStore::new()));
        let slot = DcSlot::new(boot(false));
        tc.register_dc(
            DcId(1),
            InlineLink::new(slot.clone(), ReplySink::new(tc.clone())),
        );
        tc.register_table(DOCS, TableRoute::Single(DcId(1)));
        if let Some(v) = view {
            tc.register_table(v, TableRoute::Single(DcId(1)));
        }
        let t = tc.begin().unwrap();
        tc.insert(t, DOCS, doc(1), b"golden gate".to_vec()).unwrap();
        tc.insert(t, DOCS, doc(2), b"silver bridge".to_vec())
            .unwrap();
        tc.commit(t).unwrap();
        let before = observable(&tc, view);
        let crash_and_restart = || {
            slot.take_down();
            slot.install(boot(true));
            tc.recover_dc(DcId(1)).unwrap();
        };
        let t = tc.begin().unwrap();
        write(&tc, t, &crash_and_restart);
        assert_ne!(observable(&tc, view)[0], before[0], "{case}: wrote");
        tc.abort(t).unwrap();
        assert_eq!(observable(&tc, view), before, "{case}: abort restores");
        assert_eq!(tc.stats().snapshot().redo_only_rejects, 0, "{case}");
    }
}

#[test]
fn abort_restores_the_pre_transaction_state_on_the_btree_dc() {
    abort_contract(btree_dc, None);
}

#[test]
fn abort_restores_the_pre_transaction_state_and_index_on_a_simple_dc() {
    abort_contract(text_dc, Some(TERMS));
}

#[test]
fn custom_dcs_honour_every_stamp_and_revert() {
    // The photo-sharing shape: one TC over a B-tree DC and two custom
    // DCs, committing and aborting across all three.
    let d = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(T, "photos")],
    );
    let tc = d.tc(TcId(1));
    let sink = ReplySink::new(tc.clone());
    let grid = TableId(20);
    let custom: [(DcId, TableId, Arc<dyn SecondaryIndexer>); 2] = [
        (DcId(2), DOCS, Arc::new(TextIndexer)),
        (DcId(3), grid, Arc::new(GridIndexer { cell: 100 })),
    ];
    for (id, table, indexer) in custom {
        let dc = SimpleDc::new(id, table, TableId(table.0 + 1), indexer, SimDisk::new());
        tc.register_dc(id, InlineLink::new(DcSlot::new(dc), sink.clone()));
        tc.register_table(table, TableRoute::Single(id));
    }
    let shape = |x: u32| [x.to_le_bytes(), 80u32.to_le_bytes()].concat();
    let t = tc.begin().unwrap();
    tc.insert(t, T, Key::from_u64(1), b"gg.jpg".to_vec())
        .unwrap();
    tc.insert(t, DOCS, Key::from_u64(1), b"golden gate".to_vec())
        .unwrap();
    tc.insert(t, grid, Key::from_u64(1), shape(120)).unwrap();
    tc.commit(t).unwrap();
    let t = tc.begin().unwrap();
    tc.insert(t, T, Key::from_u64(2), b"blurry.jpg".to_vec())
        .unwrap();
    tc.update(t, DOCS, Key::from_u64(1), b"blurry".to_vec())
        .unwrap();
    tc.insert(t, DOCS, Key::from_u64(2), b"golden".to_vec())
        .unwrap();
    tc.update(t, grid, Key::from_u64(1), shape(900)).unwrap();
    tc.abort(t).unwrap();
    let stats = tc.stats().snapshot();
    assert_eq!(stats.stamps_sent, 3);
    assert_eq!(stats.undo_ops, 4);
    assert_eq!(
        stats.redo_only_rejects, 0,
        "every stamp and revert honoured"
    );
    assert_eq!(
        read_once(&tc, DOCS, Key::from_u64(1), ReadConsistency::Committed),
        Some(b"golden gate".to_vec())
    );
    assert_eq!(
        read_once(&tc, grid, Key::from_u64(1), ReadConsistency::Dirty),
        Some(shape(120))
    );
}
