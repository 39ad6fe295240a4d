//! Replication integration tests: logical log shipping to read-only DC
//! replicas, bounded-staleness read routing, truncation pinning, and
//! failover promotion.
//!
//! The replication invariants under test:
//!
//! * **convergence** — a replica's applied frontier reaches the
//!   primary's ship frontier and its contents equal the primary's
//!   committed state, even when `ShipBatch` datagrams are dropped,
//!   reordered or duplicated (go-back-N resend over an idempotent
//!   stream);
//! * **committed-only** — replicas never contain uncommitted or
//!   rolled-back data at any point (only committed redo is shipped);
//! * **truncation safety** — checkpoint-driven TC log truncation never
//!   drops records a registered replica has not durably consumed;
//! * **fencing** — after promotion the old primary rejects writes, the
//!   promoted replica serves them with full durability, and surviving
//!   replicas follow the new primary.

use std::time::Duration;
use unbundled::core::{
    DataComponentApi, DcError, DcId, DcToTc, Key, LogicalOp, RequestId, TableId, TableSpec, TcId,
    TcToDc,
};
use unbundled::dc::DcConfig;
use unbundled::kernel::{Deployment, FaultModel, TransportKind};
use unbundled::tc::{ReadConsistency, SnapshotSpec, TcConfig};

const T: TableId = TableId(1);
const PRIMARY: DcId = DcId(1);
const R1: DcId = DcId(101);
const R2: DcId = DcId(102);

fn replicated(n_replicas: usize, replica_kind: impl Fn(usize) -> TransportKind) -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(PRIMARY, DcConfig::default());
    d.add_tc(
        TcId(1),
        TcConfig {
            resend_interval: Duration::from_millis(5),
            ..TcConfig::default()
        },
    );
    d.connect(TcId(1), PRIMARY, TransportKind::Inline);
    d.create_table(PRIMARY, TableSpec::plain(T, "t"));
    d.route(TcId(1), T, unbundled::tc::TableRoute::Single(PRIMARY));
    for i in 0..n_replicas {
        let id = DcId(101 + i as u16);
        d.add_replica(id, PRIMARY, DcConfig::default());
        d.connect_replica(TcId(1), id, replica_kind(i));
    }
    d
}

/// Pump until every replica's applied frontier reaches the ship
/// frontier (bounded, panics on no progress — resend must recover any
/// lost slice).
fn pump_until_converged(d: &Deployment, tc: TcId) {
    let t = d.tc(tc);
    for _ in 0..2_000 {
        let frontier = d.pump_replication(tc);
        if t.replica_lag().iter().all(|l| l.applied >= frontier) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("replicas failed to converge: {:?}", t.replica_lag());
}

/// One-shot read at the given consistency level (its own transaction,
/// as an application session polling replicas would issue it).
fn read_at(t: &std::sync::Arc<unbundled::tc::Tc>, key: Key, c: ReadConsistency) -> Option<Vec<u8>> {
    let txn = t.begin().expect("begin");
    let v = t.read(txn, T, key, c).expect("read");
    t.commit(txn).expect("commit");
    v
}

fn committed_rows(d: &Deployment, tc: TcId) -> Vec<(Key, Vec<u8>)> {
    let t = d.tc(tc);
    let txn = t.begin().expect("begin");
    let rows = t.scan(txn, T, Key::empty(), None, None).expect("scan");
    t.commit(txn).expect("commit");
    rows
}

/// A mixed committed/aborted workload over keys `base..base + n`.
fn run_workload(d: &Deployment, tc: TcId, base: u64, n: u64) {
    let t = d.tc(tc);
    for i in base..base + n {
        let txn = t.begin().unwrap();
        t.insert(txn, T, Key::from_u64(i), format!("v{i}").into_bytes())
            .unwrap();
        if i % 4 == 3 {
            // Rolled-back work must never surface at a replica.
            t.insert(txn, T, Key::from_u64(1_000 + i), b"dirty".to_vec())
                .unwrap();
            t.abort(txn).unwrap();
        } else {
            if i % 3 == 0 {
                t.update(txn, T, Key::from_u64(i), format!("v{i}b").into_bytes())
                    .unwrap();
            }
            t.commit(txn).unwrap();
        }
    }
    // A few deletes in their own transactions.
    for i in (base..base + n).step_by(7) {
        if i % 4 != 3 {
            let txn = t.begin().unwrap();
            t.delete(txn, T, Key::from_u64(i)).unwrap();
            t.commit(txn).unwrap();
        }
    }
}

#[test]
fn replicas_converge_to_committed_state_over_inline_links() {
    let d = replicated(2, |_| TransportKind::Inline);
    run_workload(&d, TcId(1), 0, 24);
    pump_until_converged(&d, TcId(1));
    let expect = committed_rows(&d, TcId(1));
    for id in [R1, R2] {
        let got = d.dc(id).engine().dump_table(T).unwrap();
        assert_eq!(got, expect, "replica {id} diverged");
        assert!(
            got.iter().all(|(_, v)| v != b"dirty"),
            "rolled-back data leaked into replica {id}"
        );
    }
    let t = d.tc(TcId(1));
    assert!(t.stats().snapshot().ship_batches > 0);
    assert!(t.stats().snapshot().ship_records > 0);
}

#[test]
fn an_aborted_insert_ships_neither_itself_nor_its_compensation() {
    // A rollback's compensations travel with the operations they undo:
    // the abort discards both, so a replica never replays the revert
    // of an insert it never saw.
    let d = replicated(1, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    let txn = t.begin().unwrap();
    t.insert(txn, T, Key::from_u64(1), b"rolled back".to_vec())
        .unwrap();
    t.abort(txn).unwrap();
    let txn = t.begin().unwrap();
    t.insert(txn, T, Key::from_u64(2), b"kept".to_vec())
        .unwrap();
    t.commit(txn).unwrap();
    pump_until_converged(&d, TcId(1));
    let snap = d.dc(R1).engine().stats().snapshot();
    assert_eq!(snap.ship_apply_errors, 0, "{snap:?}");
    assert_eq!(
        d.dc(R1).engine().dump_table(T).unwrap(),
        vec![(Key::from_u64(2), b"kept".to_vec())]
    );
}

#[test]
fn replicas_converge_under_dropped_reordered_and_duplicated_ship_batches() {
    // A hostile transport for the ship path: a quarter of all ship
    // datagrams are dropped and a quarter delayed behind later ones;
    // the shipper's stalled-cursor resend then re-ships slices that DID
    // arrive, so the replica also sees duplicated batches.
    let d = replicated(1, |_| TransportKind::Queued {
        faults: FaultModel {
            loss: 0.25,
            reorder: 0.25,
            delay: Duration::ZERO,
            seed: 7,
        },
        workers: 1,
        batch: 1,
    });
    // Ship after every transaction so the stream crosses the lossy link
    // as many small datagrams rather than one big backlog batch.
    let t = d.tc(TcId(1));
    for i in 0..60u64 {
        let txn = t.begin().unwrap();
        t.insert(txn, T, Key::from_u64(i), format!("v{i}").into_bytes())
            .unwrap();
        if i % 5 == 4 {
            t.abort(txn).unwrap();
        } else {
            t.commit(txn).unwrap();
        }
        d.pump_replication(TcId(1));
    }
    pump_until_converged(&d, TcId(1));
    let expect = committed_rows(&d, TcId(1));
    assert_eq!(d.dc(R1).engine().dump_table(T).unwrap(), expect);
    // The fault machinery must actually have been exercised.
    let dropped: u64 = d
        .queued_links(TcId(1))
        .iter()
        .map(|l| l.dropped() + l.reply_dropped())
        .sum();
    assert!(dropped > 0, "the lossy transport never dropped anything");
    let snap = d.dc(R1).engine().stats().snapshot();
    assert!(
        snap.duplicates_suppressed > 0 || snap.ship_gap_drops > 0,
        "loss should have forced resends (duplicates) or gap drops: {snap:?}"
    );
}

#[test]
fn replica_crash_catches_up_from_durable_frontier() {
    let d = replicated(1, |_| TransportKind::Inline);
    run_workload(&d, TcId(1), 0, 30);
    pump_until_converged(&d, TcId(1));
    // Crash the replica: unflushed applied state is lost; the persisted
    // durable frontier survives.
    d.crash_dc(R1);
    d.reboot_dc(R1);
    // More commits while it recovers, then ship: the regressed ack makes
    // the shipper resend from the durable frontier.
    run_workload(&d, TcId(1), 100, 10);
    pump_until_converged(&d, TcId(1));
    assert_eq!(
        d.dc(R1).engine().dump_table(T).unwrap(),
        committed_rows(&d, TcId(1))
    );
}

#[test]
fn tc_crash_rebuilds_the_shipper_and_replicas_reconverge() {
    let d = replicated(2, |_| TransportKind::Inline);
    run_workload(&d, TcId(1), 0, 20);
    pump_until_converged(&d, TcId(1));
    d.crash_tc(TcId(1));
    d.reboot_tc(TcId(1));
    run_workload(&d, TcId(1), 100, 8);
    // The rebuilt shipper re-scans from the log base and re-ships;
    // replicas suppress the duplicates and converge.
    pump_until_converged(&d, TcId(1));
    let expect = committed_rows(&d, TcId(1));
    for id in [R1, R2] {
        assert_eq!(d.dc(id).engine().dump_table(T).unwrap(), expect);
    }
}

#[test]
fn truncation_respects_a_lagging_replicas_frontier() {
    let d = replicated(1, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    run_workload(&d, TcId(1), 0, 20);
    // The replica has consumed nothing (never pumped): a checkpoint must
    // not truncate anything it still needs — which is everything.
    t.checkpoint().expect("checkpoint");
    assert!(
        d.tc_log(TcId(1)).read(1).is_some(),
        "regression: checkpoint truncated records an unconsumed replica needs"
    );
    // Converge with enough batches to advance the replica's *durable*
    // frontier (flush cadence), then commit and checkpoint again: now
    // truncation may proceed past the consumed prefix.
    for i in 0..10u64 {
        let txn = t.begin().unwrap();
        t.update(txn, T, Key::from_u64(1), format!("w{i}").into_bytes())
            .unwrap();
        t.commit(txn).unwrap();
        pump_until_converged(&d, TcId(1));
    }
    let lag = t.replica_lag();
    assert!(
        lag[0].durable.0 > 0,
        "durability passes should have advanced the durable frontier: {lag:?}"
    );
    t.checkpoint().expect("checkpoint");
    assert!(
        d.tc_log(TcId(1)).read(1).is_none(),
        "a durably consumed prefix must become truncatable"
    );
    // And the replica still converges on top of the truncated log.
    run_workload(&d, TcId(1), 100, 6);
    pump_until_converged(&d, TcId(1));
    assert_eq!(
        d.dc(R1).engine().dump_table(T).unwrap(),
        committed_rows(&d, TcId(1))
    );
}

#[test]
fn late_registered_replica_still_receives_the_full_stream() {
    // R1 converges and durably consumes a prefix — which prunes those
    // groups from the shipper's in-memory stream. A replica registered
    // *afterwards* (cursor 0) must not be handed a stream with a silent
    // hole: the shipper rebuilds from the log base on registration.
    let mut d = replicated(1, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    run_workload(&d, TcId(1), 0, 12);
    // Enough pump rounds to advance R1's *durable* frontier (flush
    // cadence), which is what triggers stream pruning.
    for i in 0..10u64 {
        let txn = t.begin().unwrap();
        t.update(txn, T, Key::from_u64(1), format!("d{i}").into_bytes())
            .unwrap();
        t.commit(txn).unwrap();
        pump_until_converged(&d, TcId(1));
    }
    assert!(
        t.replica_lag()[0].durable.0 > 0,
        "precondition: R1 must have durably consumed a prefix"
    );
    d.add_replica(R2, PRIMARY, DcConfig::default());
    d.connect_replica(TcId(1), R2, TransportKind::Inline);
    run_workload(&d, TcId(1), 100, 4);
    pump_until_converged(&d, TcId(1));
    let expect = committed_rows(&d, TcId(1));
    assert_eq!(
        d.dc(R2).engine().dump_table(T).unwrap(),
        expect,
        "a late-registered replica must converge to the full committed state"
    );
    assert_eq!(d.dc(R1).engine().dump_table(T).unwrap(), expect);
}

#[test]
fn stale_replicas_fall_back_to_the_primary_and_tokens_give_read_your_writes() {
    let d = replicated(1, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    let txn = t.begin().unwrap();
    t.insert(txn, T, Key::from_u64(1), b"first".to_vec())
        .unwrap();
    t.commit(txn).unwrap();
    // Never pumped: the replica's frontier is 0, so a fully-fresh read
    // must fall back to the primary — and still see committed data.
    let v = read_at(&t, Key::from_u64(1), ReadConsistency::BoundedLag(0));
    assert_eq!(v, Some(b"first".to_vec()));
    assert!(t.stats().snapshot().replica_read_fallbacks > 0);
    assert_eq!(t.stats().snapshot().replica_reads, 0);
    // Read-your-writes via a token: after shipping, the replica serves.
    let txn = t.begin().unwrap();
    t.update(txn, T, Key::from_u64(1), b"second".to_vec())
        .unwrap();
    t.commit(txn).unwrap();
    let token = t.log_handle().stable();
    pump_until_converged(&d, TcId(1));
    let v = read_at(&t, Key::from_u64(1), ReadConsistency::AtLeast(token));
    assert_eq!(v, Some(b"second".to_vec()));
    assert!(t.stats().snapshot().replica_reads > 0);
    // An enormous lag bound accepts any replica.
    let v = read_at(&t, Key::from_u64(1), ReadConsistency::BoundedLag(u64::MAX));
    assert_eq!(v, Some(b"second".to_vec()));
    // A fresh primary snapshot read never touches a replica.
    let before = t.stats().snapshot().replica_reads;
    let v = read_at(
        &t,
        Key::from_u64(1),
        ReadConsistency::Snapshot(SnapshotSpec::Fresh),
    );
    assert_eq!(v, Some(b"second".to_vec()));
    assert_eq!(t.stats().snapshot().replica_reads, before);
}

#[test]
fn replica_reads_are_lock_free_committed_and_rotate_across_replicas() {
    let d = replicated(2, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    for i in 0..6u64 {
        let txn = t.begin().unwrap();
        t.insert(txn, T, Key::from_u64(i), vec![i as u8]).unwrap();
        t.commit(txn).unwrap();
    }
    pump_until_converged(&d, TcId(1));
    let before_r1 = d.dc(R1).engine().stats().snapshot().reads;
    let before_r2 = d.dc(R2).engine().stats().snapshot().reads;
    for i in 0..6u64 {
        let v = read_at(&t, Key::from_u64(i), ReadConsistency::BoundedLag(u64::MAX));
        assert_eq!(v, Some(vec![i as u8]));
    }
    let r1 = d.dc(R1).engine().stats().snapshot().reads - before_r1;
    let r2 = d.dc(R2).engine().stats().snapshot().reads - before_r2;
    assert!(
        r1 > 0 && r2 > 0,
        "round-robin must use both replicas ({r1}/{r2})"
    );
}

#[test]
fn promotion_fences_the_old_primary_and_the_new_one_serves_writes_durably() {
    let d = replicated(2, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    run_workload(&d, TcId(1), 0, 16);
    pump_until_converged(&d, TcId(1));
    // The primary fails; R1 is promoted in its place. Deliberately do
    // NOT reboot the old primary first: promotion must work against a
    // dead node.
    d.crash_dc(PRIMARY);
    d.promote_replica(TcId(1), PRIMARY, R1);
    // All acknowledged commits survived the failover (the TC log closed
    // any replication lag during catch-up redo).
    let expect_before = committed_rows(&d, TcId(1));
    assert!(!expect_before.is_empty());
    // Writes keep flowing, now against the promoted primary.
    let txn = t.begin().unwrap();
    t.insert(txn, T, Key::from_u64(9_999), b"post-failover".to_vec())
        .unwrap();
    t.commit(txn).unwrap();
    assert_eq!(
        committed_rows(&d, TcId(1)).len(),
        expect_before.len() + 1,
        "the promoted primary must serve new writes"
    );
    // The deposed primary comes back fenced: direct writes bounce.
    d.reboot_dc(PRIMARY);
    let mut out = Vec::new();
    d.dc(PRIMARY).handle(
        TcToDc::Perform {
            tc: TcId(1),
            req: RequestId::Op(unbundled::core::Lsn(999_999)),
            op: LogicalOp::Insert {
                table: T,
                key: Key::from_u64(5_555),
                value: b"diverge".to_vec(),
            },
        },
        &mut out,
    );
    assert!(
        matches!(
            out.last(),
            Some(DcToTc::Reply {
                result: Err(DcError::Fenced(_)),
                ..
            })
        ),
        "deposed primary must reject writes: {out:?}"
    );
    // The surviving replica follows the promoted primary's lineage.
    pump_until_converged(&d, TcId(1));
    assert_eq!(
        d.dc(R2).engine().dump_table(T).unwrap(),
        committed_rows(&d, TcId(1)),
        "surviving replica must follow the new primary"
    );
    // Full durability at the promoted primary: crash and reboot it plus
    // the TC — every acknowledged commit must still be there.
    d.crash_dc(R1);
    d.crash_tc(TcId(1));
    d.reboot_dc(R1);
    d.reboot_tc(TcId(1));
    let after = committed_rows(&d, TcId(1));
    assert_eq!(after.len(), expect_before.len() + 1);
    assert!(after
        .iter()
        .any(|(k, v)| k == &Key::from_u64(9_999) && v == b"post-failover"));
    assert_eq!(
        d.tc(TcId(1)).stats().snapshot().promotions,
        0,
        "promotion count is per-instance"
    );
}

#[test]
fn promoted_replica_keeps_serving_replica_reads_from_survivors() {
    let d = replicated(2, |_| TransportKind::Inline);
    run_workload(&d, TcId(1), 0, 10);
    pump_until_converged(&d, TcId(1));
    d.promote_replica(TcId(1), PRIMARY, R1);
    let t = d.tc(TcId(1));
    let txn = t.begin().unwrap();
    t.insert(txn, T, Key::from_u64(777), b"after".to_vec())
        .unwrap();
    t.commit(txn).unwrap();
    let token = t.log_handle().stable();
    pump_until_converged(&d, TcId(1));
    // The read routes by the *current* primary (R1) and is served by the
    // surviving replica R2, which qualified via its lineage.
    let v = read_at(&t, Key::from_u64(777), ReadConsistency::AtLeast(token));
    assert_eq!(v, Some(b"after".to_vec()));
    assert!(t.stats().snapshot().replica_reads > 0);
}

/// Largest per-TC abstract-LSN in-set across a DC's cached leaf pages,
/// plus the engine-level low-water mark the ship stream delivered.
fn replica_inset_stats(d: &Deployment, id: DcId) -> (usize, unbundled::core::Lsn) {
    let server = d.dc(id);
    let engine = server.engine();
    let mut max_inset = 0usize;
    for pid in engine.pool().cached_ids() {
        if let Some(arc) = engine.pool().get_cached(pid) {
            let page = arc.read();
            for (_, ab) in page.ab.iter() {
                max_inset = max_inset.max(ab.in_set_len());
            }
        }
    }
    (max_inset, engine.lwm(TcId(1)))
}

#[test]
fn replica_insets_stay_bounded_across_truncating_checkpoints() {
    // ROADMAP e12 follow-up: replicas never receive `LowWaterMark`, so
    // without the shipped prune bound their abstract-LSN in-sets grow
    // with history — one entry per applied operation, forever. Hammer
    // a small key range (so the same pages keep absorbing operations)
    // across many checkpoint-truncation rounds and require the largest
    // in-set to stay at the scale of a single round's traffic.
    let d = replicated(1, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    const ROUNDS: u64 = 12;
    const PER_ROUND: u64 = 40;
    for k in 0..8u64 {
        let txn = t.begin().unwrap();
        t.insert(txn, T, Key::from_u64(k), b"seed".to_vec())
            .unwrap();
        t.commit(txn).unwrap();
    }
    let mut insets_per_round = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..PER_ROUND {
            let txn = t.begin().unwrap();
            let k = i % 8; // hot keys: the same pages accrue LSNs
            t.update(
                txn,
                T,
                Key::from_u64(k),
                format!("r{round}i{i}").into_bytes(),
            )
            .unwrap();
            t.commit(txn).unwrap();
        }
        pump_until_converged(&d, TcId(1));
        // Truncating checkpoint: floored on the replication floor, so
        // it only advances past what the replica durably consumed.
        t.checkpoint().unwrap();
        insets_per_round.push(replica_inset_stats(&d, R1).0);
    }
    let (max_inset, lwm) = replica_inset_stats(&d, R1);
    let total_ops = (ROUNDS * PER_ROUND) as usize;
    assert!(
        lwm > unbundled::core::Lsn(0),
        "the ship stream must have delivered a prune bound"
    );
    assert!(
        max_inset * 4 < total_ops,
        "in-sets must not retain history: {max_inset} entries after {total_ops} ops"
    );
    // Boundedness, not just a constant factor: the last rounds must not
    // trend upward the way an unpruned in-set does (compare the final
    // in-set against the level after the first round plus one round's
    // traffic of slack).
    assert!(
        insets_per_round[ROUNDS as usize - 1] <= insets_per_round[0] + PER_ROUND as usize,
        "in-set kept growing round over round: {insets_per_round:?}"
    );
    // Pruning must not have cost correctness: the replica still equals
    // the primary's committed state.
    let expect = committed_rows(&d, TcId(1));
    assert_eq!(d.dc(R1).engine().dump_table(T).unwrap(), expect);
}

#[test]
fn prune_bound_respects_unresolved_transactions_across_promotion() {
    // The prune bound must stay below the ops of transactions whose
    // outcome the shipper has not scanned: promotion replays exactly
    // those raw, at their original LSNs, and a bound that covered them
    // would make the replica swallow the replay as duplicates.
    let d = replicated(2, |_| TransportKind::Inline);
    let t = d.tc(TcId(1));
    run_workload(&d, TcId(1), 0, 12);
    // An in-doubt transaction: logged ops, no outcome record yet.
    let open = t.begin().unwrap();
    t.insert(open, T, Key::from_u64(500), b"in-doubt".to_vec())
        .unwrap();
    // Plenty of committed traffic after it — without the
    // unresolved-floor rule this would drag the prune bound past the
    // in-doubt op's LSN.
    for k in 600..604u64 {
        let txn = t.begin().unwrap();
        t.insert(txn, T, Key::from_u64(k), b"seed".to_vec())
            .unwrap();
        t.commit(txn).unwrap();
    }
    for i in 0..40u64 {
        let txn = t.begin().unwrap();
        t.update(
            txn,
            T,
            Key::from_u64(600 + i % 4),
            format!("x{i}").into_bytes(),
        )
        .unwrap();
        t.commit(txn).unwrap();
    }
    pump_until_converged(&d, TcId(1));
    let lwm = d.dc(R1).engine().lwm(TcId(1));
    assert!(
        lwm > unbundled::core::Lsn(0),
        "committed traffic must still advance the prune bound"
    );
    // Promote R1 while the transaction is still unresolved: its op
    // replays raw into the new primary and must apply (not be
    // suppressed by the prune bound), so committing afterwards works.
    d.promote_replica(TcId(1), PRIMARY, R1);
    t.commit(open).unwrap();
    let rows = committed_rows(&d, TcId(1));
    assert!(
        rows.iter()
            .any(|(k, v)| k == &Key::from_u64(500) && v == b"in-doubt"),
        "the in-doubt transaction's write must survive promotion"
    );
}
