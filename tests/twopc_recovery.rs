//! Deterministic in-doubt 2PC recovery scenarios over a key-range
//! sharded TC tier.
//!
//! Each test drives the two-phase commit of a cross-shard transaction
//! up to a precise point using the protocol's step functions
//! (`twopc_prepare` / `twopc_log_decision` / `twopc_finish`), injects a
//! crash there, and checks the presumed-abort recovery rules:
//!
//! * coordinator crash **after Prepare, before the decision** — no
//!   stable `CommitDecision` exists anywhere, so the transaction aborts
//!   everywhere (presumed abort);
//! * coordinator crash **after the forced `CommitDecision`** — the
//!   decision *is* the commit point: the transaction survives on every
//!   shard, resolved from the coordinator's stable log even while the
//!   coordinator itself is still down;
//! * participant crash **between its Prepare and the decision** — the
//!   rebooted participant finds the coordinator mid-commit, parks the
//!   branch in-doubt with its locks re-acquired, and resolves it when
//!   the decision arrives.
//!
//! Both crash cases also carry a branch opened only by a forwarded
//! read: it logs nothing until its Prepare, which recovery must treat
//! as the branch's first record.

use std::time::Duration;
use unbundled::core::{DcId, Key, TableId, TableSpec, TcId, TcShardMap};
use unbundled::dc::DcConfig;
use unbundled::kernel::{Deployment, TransportKind};
use unbundled::tc::{
    GatherWindow, GroupCommitCfg, ReadConsistency, SnapshotSpec, TableRoute, Tc, TcConfig,
    TcLogRecord,
};

const T: TableId = TableId(1);
/// A table written with versioned writes (Section 6.2.2 sharing),
/// hosted beside `T`.
const V: TableId = TableId(2);

/// A key owned by shard 1 under `TcShardMap::even(&[TcId(1), TcId(2)])`.
fn low_key() -> Key {
    Key::from_u64(7)
}

/// A key owned by shard 2.
fn high_key() -> Key {
    Key::from_u64(u64::MAX / 2 + 1000)
}

/// Another key owned by shard 2, only ever read by the coordinator.
fn read_key() -> Key {
    Key::from_u64(u64::MAX / 2 + 2000)
}

/// Two TC shards (key space split evenly), each owning one DC, group
/// commit on, inline links (deterministic).
fn sharded_deployment() -> Deployment {
    let tc_cfg = TcConfig {
        resend_interval: Duration::from_millis(5),
        lock_timeout: Some(Duration::from_millis(200)),
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::adaptive(),
            max_waiters: 8,
        }),
        ..TcConfig::default()
    };
    let mut d = Deployment::new();
    for (tc, dc) in [(TcId(1), DcId(1)), (TcId(2), DcId(2))] {
        d.add_dc(dc, DcConfig::default());
        d.add_tc(tc, tc_cfg.clone());
        d.connect(tc, dc, TransportKind::Inline);
        d.create_table(dc, TableSpec::plain(T, "t"));
        d.create_table(dc, TableSpec::plain(V, "v"));
        d.route(tc, T, TableRoute::Single(dc));
        d.route(tc, V, TableRoute::Single(dc));
    }
    d.set_shard_map(TcShardMap::even(&[TcId(1), TcId(2)]));
    d
}

/// Begin a cross-shard transaction at shard 1 writing one key on each
/// shard; returns its id.
fn cross_txn(d: &Deployment) -> unbundled::core::TxnId {
    let tc1 = d.tc(TcId(1));
    let txn = tc1.begin().expect("begin");
    tc1.insert(txn, T, low_key(), b"local".to_vec())
        .expect("local insert");
    tc1.insert(txn, T, high_key(), b"remote".to_vec())
        .expect("forwarded insert");
    txn
}

/// Begin a transaction at shard 1 whose only operation is a locking
/// read of a shard-2 key, and prepare it: the participant branch logs
/// nothing until its forced Prepare, and the coordinator nothing at
/// all. Returns its id.
fn prepared_read_only_branch(d: &Deployment) -> unbundled::core::TxnId {
    let tc1 = d.tc(TcId(1));
    let txn = tc1.begin().expect("begin");
    tc1.read(txn, T, read_key(), ReadConsistency::Locking)
        .expect("forwarded read");
    let log2 = d.tc_log(TcId(2));
    let from = log2.last_seq();
    assert_eq!(
        tc1.twopc_prepare(txn),
        Ok(true),
        "read-only branch votes yes"
    );
    let records: Vec<_> = log2.read_range(from + 1, log2.last_seq());
    assert!(
        matches!(records.as_slice(), [(_, TcLogRecord::Prepare { .. })]),
        "the branch's first record is its Prepare: {records:?}"
    );
    txn
}

/// Read `key` through the owning shard in a fresh transaction.
fn read_via(d: &Deployment, tc: TcId, key: Key) -> Option<Vec<u8>> {
    let t = d.tc(tc);
    let txn = t.begin().expect("begin probe");
    let v = t
        .read(txn, T, key, ReadConsistency::Locking)
        .expect("probe read");
    t.commit(txn).expect("commit probe");
    v
}

/// Both shards quiesced: no active transactions, no in-doubt branches,
/// no pinned decisions, and every lock released (provable by writing
/// both keys again).
fn assert_quiesced(d: &Deployment, ctx: &str) {
    for id in [TcId(1), TcId(2)] {
        let tc = d.tc(id);
        assert_eq!(tc.active_txns(), vec![], "{ctx}: {id} has live txns");
        assert_eq!(tc.indoubt_branches(), 0, "{ctx}: {id} has parked branches");
        assert_eq!(tc.pending_decision_count(), 0, "{ctx}: {id} pins decisions");
    }
    let tc1 = d.tc(TcId(1));
    let probe = tc1.begin().expect("begin lock probe");
    for key in [low_key(), high_key(), read_key()] {
        // Take the X lock (insert or update, whichever applies): a
        // leaked lock from the crashed transaction would time this out.
        let cur = tc1
            .read(probe, T, key.clone(), ReadConsistency::Locking)
            .expect("probe read");
        let write = match cur {
            Some(_) => tc1.update(probe, T, key, b"probe".to_vec()),
            None => tc1.insert(probe, T, key, b"probe".to_vec()),
        };
        write.expect("probe write: key must be unlocked");
    }
    tc1.abort(probe).expect("abort lock probe");
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
fn coordinator_crash_after_prepare_presumes_abort() {
    let d = sharded_deployment();
    let txn = cross_txn(&d);
    let tc1 = d.tc(TcId(1));
    assert_eq!(tc1.twopc_prepare(txn), Ok(true), "participant votes yes");
    prepared_read_only_branch(&d);
    // Crash both shards before any decision exists. Reboot the
    // participant FIRST: its coordinator is still down, but presumed
    // abort needs no live coordinator — no stable decision means abort.
    d.crash_tc(TcId(1));
    d.crash_tc(TcId(2));
    d.reboot_tc(TcId(2));
    assert_eq!(
        d.tc(TcId(2)).indoubt_branches(),
        0,
        "both branches, the read-only one included, presume abort"
    );
    d.reboot_tc(TcId(1));
    assert_eq!(read_via(&d, TcId(1), low_key()), None, "dirty local write");
    assert_eq!(
        read_via(&d, TcId(2), high_key()),
        None,
        "dirty remote write"
    );
    assert_quiesced(&d, "after presumed abort");
}

#[test]
fn forced_commit_decision_survives_coordinator_crash() {
    let d = sharded_deployment();
    let txn = cross_txn(&d);
    let tc1 = d.tc(TcId(1));
    assert_eq!(tc1.twopc_prepare(txn), Ok(true));
    tc1.twopc_log_decision(txn).expect("force the decision");
    // The decision is the commit point. Crash both shards before any
    // participant hears it; reboot the participant FIRST — it must
    // resolve to commit by reading the crashed coordinator's stable log.
    d.crash_tc(TcId(1));
    d.crash_tc(TcId(2));
    d.reboot_tc(TcId(2));
    assert_eq!(
        d.tc(TcId(2)).indoubt_branches(),
        0,
        "the stable decision resolves the branch without the coordinator"
    );
    d.reboot_tc(TcId(1));
    assert_eq!(
        read_via(&d, TcId(1), low_key()).as_deref(),
        Some(b"local".as_ref()),
        "acknowledged distributed commit lost at the coordinator"
    );
    assert_eq!(
        read_via(&d, TcId(2), high_key()).as_deref(),
        Some(b"remote".as_ref()),
        "acknowledged distributed commit lost at the participant"
    );
    assert_quiesced(&d, "after decision-driven commit");
}

#[test]
fn participant_crash_between_prepare_and_decision_parks_then_resolves() {
    let d = sharded_deployment();
    let txn = cross_txn(&d);
    let tc1 = d.tc(TcId(1));
    assert_eq!(tc1.twopc_prepare(txn), Ok(true));
    let reader = prepared_read_only_branch(&d);
    // The participant loses its volatile state while the coordinator is
    // alive and still mid-commit: the rebooted participant must park the
    // branches in-doubt (it cannot presume abort — the coordinator may
    // yet commit) and re-acquire the writing branch's locks.
    d.crash_tc(TcId(2));
    d.reboot_tc(TcId(2));
    let tc2 = d.tc(TcId(2));
    assert_eq!(
        tc2.indoubt_branches(),
        2,
        "both branches must park in-doubt"
    );
    // The re-acquired lock blocks conflicting access to the in-doubt
    // write.
    let blocked = tc2.begin().expect("begin conflicting txn");
    assert!(
        tc2.update(blocked, T, high_key(), b"steal".to_vec())
            .is_err(),
        "in-doubt branch must still hold its X lock"
    );
    // The coordinator completes phase two; the parked branch commits.
    tc1.twopc_log_decision(txn).expect("decision");
    tc1.twopc_finish(txn).expect("broadcast + local finish");
    assert_eq!(tc2.indoubt_branches(), 1, "decision resolves the park");
    // The read-only transaction's coordinator enters its log with the
    // decision itself.
    tc1.twopc_log_decision(reader).expect("read-only decision");
    tc1.twopc_finish(reader).expect("read-only finish");
    assert_eq!(tc2.indoubt_branches(), 0, "decision resolves the park");
    assert_eq!(
        read_via(&d, TcId(2), high_key()).as_deref(),
        Some(b"remote".as_ref())
    );
    assert_eq!(
        read_via(&d, TcId(1), low_key()).as_deref(),
        Some(b"local".as_ref())
    );
    assert_quiesced(&d, "after parked branch resolution");
}

#[test]
fn parked_versioned_branch_is_committed_and_stamped_by_the_late_decision() {
    let d = sharded_deployment();
    let tc1 = d.tc(TcId(1));
    // A committed version beneath the in-doubt write.
    let seed = tc1.begin().expect("begin seed");
    tc1.versioned_write(seed, V, high_key(), b"v0".to_vec())
        .expect("seed write");
    tc1.commit(seed).expect("seed commit");
    let txn = tc1.begin().expect("begin");
    tc1.versioned_write(txn, V, low_key(), b"local".to_vec())
        .expect("local versioned write");
    tc1.versioned_write(txn, V, high_key(), b"remote".to_vec())
        .expect("forwarded versioned write");
    assert_eq!(tc1.twopc_prepare(txn), Ok(true));
    d.crash_tc(TcId(2));
    d.reboot_tc(TcId(2));
    let tc2 = d.tc(TcId(2));
    assert_eq!(tc2.indoubt_branches(), 1, "branch must park in-doubt");
    // Its write set (one key, re-derived from its `Op` record) names
    // the key: the X lock is back, and committed readers still see the
    // version beneath.
    let blocked = tc2.begin().expect("begin conflicting txn");
    assert!(
        tc2.versioned_write(blocked, V, high_key(), b"steal".to_vec())
            .is_err(),
        "in-doubt versioned write must still hold its X lock"
    );
    assert_eq!(
        read_once(&tc2, V, high_key(), ReadConsistency::Committed),
        Some(b"v0".to_vec())
    );
    tc1.twopc_log_decision(txn).expect("decision");
    tc1.twopc_finish(txn).expect("broadcast + local finish");
    assert_eq!(tc2.indoubt_branches(), 0, "decision resolves the park");
    // The late decision stamped the branch's version: read-committed and
    // snapshot readers both see it.
    assert_eq!(
        read_once(&tc2, V, high_key(), ReadConsistency::Committed),
        Some(b"remote".to_vec())
    );
    assert_eq!(
        read_once(&tc1, V, low_key(), ReadConsistency::Committed),
        Some(b"local".to_vec())
    );
    let probe = tc2.begin().expect("begin snapshot probe");
    assert_eq!(
        tc2.read(
            probe,
            V,
            high_key(),
            ReadConsistency::Snapshot(SnapshotSpec::Fresh)
        )
        .expect("snapshot read"),
        Some(b"remote".to_vec())
    );
    tc2.commit(probe).expect("commit snapshot probe");
    assert_quiesced(&d, "after parked versioned branch resolution");
}

#[test]
fn cross_shard_commit_and_abort_round_trip() {
    // The happy paths, end to end through the public API: a cross-shard
    // commit lands on both shards; a cross-shard rollback leaves none.
    let d = sharded_deployment();
    let txn = cross_txn(&d);
    d.tc(TcId(1)).commit(txn).expect("cross-shard commit");
    assert_eq!(
        read_via(&d, TcId(1), low_key()).as_deref(),
        Some(b"local".as_ref())
    );
    assert_eq!(
        read_via(&d, TcId(2), high_key()).as_deref(),
        Some(b"remote".as_ref())
    );
    let stats = d.tc(TcId(1)).stats().snapshot();
    assert_eq!(stats.cross_commits, 1);
    let pstats = d.tc(TcId(2)).stats().snapshot();
    assert_eq!(pstats.prepares, 1);

    let txn2 = {
        let tc1 = d.tc(TcId(1));
        let t = tc1.begin().expect("begin");
        tc1.update(t, T, low_key(), b"x".to_vec()).expect("local");
        tc1.update(t, T, high_key(), b"y".to_vec()).expect("remote");
        t
    };
    d.tc(TcId(1)).abort(txn2).expect("cross-shard abort");
    assert_eq!(
        read_via(&d, TcId(2), high_key()).as_deref(),
        Some(b"remote".as_ref()),
        "aborted cross-shard update must roll back on the participant"
    );
    assert_quiesced(&d, "after round trip");
}
