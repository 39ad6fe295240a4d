//! Logical log shipping: the TC side of read-only DC replication.
//!
//! The paper leaves the TC with a purely logical, record-oriented redo
//! log — which is exactly a replication stream: any DC that replays it
//! converges to the primary's committed state. The [`Shipper`] turns the
//! TC log into that stream and drives it to registered replicas:
//!
//! * **Scan** — walk the *stable* log prefix once, in LSN order,
//!   buffering each transaction's redo records — operations, rollback
//!   compensations and commit stamps alike — until its outcome is
//!   known. A `Commit` emits the transaction's records as one *stream
//!   group* positioned at the commit-record LSN (its stamps sit in the
//!   same log group, just below it); an `Abort` discards them together
//!   with the compensations that undid them (rolled-back work is never
//!   shipped, so a replica can never serve dirty or rolled-back data,
//!   nor replay a revert of something it never saw). Lock-before-log
//!   ordering guarantees that conflicting operations appear in the
//!   stream in their serialization order: strict two-phase locking
//!   means a conflicting successor cannot even be logged until its
//!   predecessor's commit/abort released the lock, so emission points
//!   preserve every conflict.
//! * **Ship** — per replica, send the stream slice past its cursor as
//!   [`TcToDc::ShipBatch`] datagrams (filtered to the primaries the
//!   replica follows; batches never split a transaction's group, so a
//!   replica's applied frontier only ever rests on transaction
//!   boundaries). Batches ride the ordinary `DcLink` transports and are
//!   faultable; a cumulative [`ShipAck`] moves the cursor, and a stalled
//!   cursor (no ack progress within the resend interval) resends from
//!   the last acked position — go-back-N over an idempotent stream.
//! * **Retain / truncate** — emitted groups are retained until every
//!   replica has *durably* consumed them, and
//!   [`Shipper::replication_floor`] reports the oldest TC-log LSN still
//!   needed (unshipped buffered operations included) so checkpoint
//!   truncation never drops a record a registered replica has not
//!   consumed. After a TC crash the shipper state is rebuilt by
//!   re-scanning the retained log from its base; replicas suppress the
//!   resulting duplicates through the abstract-LSN discipline.
//!
//! [`ShipAck`]: unbundled_core::DcToTc::ShipAck

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, LogicalOp, Lsn, TcId, TcToDc, TxnId};

use crate::routing::DcLink;
use crate::tclog::TcLogRecord;

/// Per-replica freshness introspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaLag {
    /// The replica.
    pub dc: DcId,
    /// Applied stream frontier (reads are routed by this).
    pub applied: Lsn,
    /// Durable stream frontier (bounds TC log truncation).
    pub durable: Lsn,
    /// The primary-side stream end the frontiers chase.
    pub frontier: Lsn,
}

/// One emitted slice of the replication stream: a committed
/// transaction's redo records, positioned at the LSN that made it
/// shippable.
struct StreamGroup {
    /// Emission position: the commit-record LSN. Replica frontiers
    /// advance in these units.
    pos: Lsn,
    /// Smallest TC-log LSN among the group's records — the truncation
    /// floor while any replica still needs this group.
    floor: Lsn,
    /// `(original LSN, destination primary, redo op)` in LSN order.
    records: Vec<(Lsn, DcId, LogicalOp)>,
}

struct ReplicaState {
    link: Arc<dyn DcLink>,
    /// Primaries whose operations this replica replays. Grows at
    /// promotion time: ops logged against a deposed primary's id are
    /// still part of the promoted lineage's history.
    sources: Vec<DcId>,
    /// Latest acked applied frontier (deliberately *latest*, not max: a
    /// rebooted replica legitimately regresses to its durable frontier
    /// and the shipper must resend from there).
    acked: Lsn,
    /// Latest acked durable frontier.
    durable: Lsn,
    /// Stream position shipped so far this session.
    sent: Lsn,
    /// Last time `acked` moved (stall detection for go-back-N resend).
    last_progress: Instant,
}

struct ShipperInner {
    /// Last scanned stable log sequence number; also the stream end.
    scan_pos: u64,
    /// Per-transaction redo buffers awaiting an outcome.
    pending: HashMap<TxnId, Vec<(Lsn, DcId, LogicalOp)>>,
    /// Emitted groups retained until every replica durably consumed them.
    stream: Vec<StreamGroup>,
    replicas: HashMap<DcId, ReplicaState>,
}

/// The TC's replication shipper. Thread-safe; the lock is never held
/// across a transport send (inline links deliver `ShipAck` on the
/// sending thread, which re-enters [`Shipper::on_ack`]).
pub(crate) struct Shipper {
    inner: Mutex<ShipperInner>,
}

/// Max records per `ShipBatch` datagram (groups are never split, so a
/// single oversized transaction still travels whole).
const BATCH_RECORDS: usize = 64;

impl Shipper {
    pub(crate) fn new() -> Shipper {
        Shipper {
            inner: Mutex::new(ShipperInner {
                scan_pos: 0,
                pending: HashMap::new(),
                stream: Vec::new(),
                replicas: HashMap::new(),
            }),
        }
    }

    /// Register `replica` as a read-only follower of `sources` (usually
    /// one primary; promotion extends the lineage). The replica must be
    /// no staler than the TC log's base — register replicas before the
    /// first truncating checkpoint, or re-seed them first.
    pub(crate) fn register(&self, replica: DcId, sources: &[DcId], link: Arc<dyn DcLink>) {
        let mut g = self.inner.lock();
        g.replicas.insert(
            replica,
            ReplicaState {
                link,
                sources: sources.to_vec(),
                acked: Lsn(0),
                durable: Lsn(0),
                sent: Lsn(0),
                last_progress: Instant::now(),
            },
        );
        // Groups durably consumed by the *previously* registered
        // replicas have been pruned from the in-memory stream; a fresh
        // follower starting at cursor 0 must not be handed a stream
        // with a silent hole. Rebuild from the log base on the next
        // ship — stream positions are log LSNs, so existing cursors
        // stay valid, and re-emitted already-consumed groups are
        // re-pruned by the next ack round.
        g.scan_pos = 0;
        g.pending.clear();
        g.stream.clear();
    }

    pub(crate) fn has_replicas(&self) -> bool {
        !self.inner.lock().replicas.is_empty()
    }

    /// Handle a cumulative `ShipAck` from `replica`.
    pub(crate) fn on_ack(&self, replica: DcId, applied: Lsn, durable: Lsn) {
        let mut g = self.inner.lock();
        if let Some(r) = g.replicas.get_mut(&replica) {
            if applied != r.acked {
                r.last_progress = Instant::now();
            }
            if applied < r.acked {
                // The replica rebooted and regressed to its durable
                // frontier: resend from there straight away.
                r.sent = applied;
            }
            r.acked = applied;
            r.durable = durable;
        }
        let min_durable = g
            .replicas
            .values()
            .map(|r| r.durable)
            .min()
            .unwrap_or(Lsn::MAX);
        g.stream.retain(|grp| grp.pos > min_durable);
    }

    /// Scan newly stable log records into the stream, then ship every
    /// replica's backlog. Returns the stream end (ship frontier).
    /// Sends happen outside the shipper lock.
    pub(crate) fn ship(
        &self,
        tc: TcId,
        log: &Arc<unbundled_storage::LogStore<TcLogRecord>>,
        resend_interval: Duration,
        stats: &crate::stats::TcStats,
    ) -> Lsn {
        let stable = log.stable_seq();
        let mut outbound: Vec<(Arc<dyn DcLink>, TcToDc)> = Vec::new();
        let end = {
            let mut g = self.inner.lock();
            if g.replicas.is_empty() {
                return Lsn(stable);
            }
            if stable > g.scan_pos {
                let records = log.read_range(g.scan_pos + 1, stable);
                for (seq, rec) in records {
                    Self::classify(&mut g, seq, rec);
                }
                g.scan_pos = stable;
            }
            let end = Lsn(g.scan_pos);
            let eosl = Lsn(stable);
            let replicas: Vec<DcId> = g.replicas.keys().copied().collect();
            for id in replicas {
                Self::plan_replica(&mut g, tc, id, end, eosl, resend_interval, &mut outbound);
            }
            end
        };
        for (link, msg) in outbound {
            if let TcToDc::ShipBatch { groups, .. } = &msg {
                crate::stats::TcStats::bump(&stats.ship_batches);
                let records: usize = groups.iter().map(|(_, r)| r.len()).sum();
                crate::stats::TcStats::add(&stats.ship_records, records as u64);
                let _s = unbundled_obs::span1("tc.ship", "records", records as u64);
                let sent = Instant::now();
                link.send(msg);
                stats.ship_batch_ns.record(sent.elapsed());
                continue;
            }
            link.send(msg);
        }
        end
    }

    fn classify(g: &mut ShipperInner, seq: u64, rec: TcLogRecord) {
        let lsn = Lsn(seq);
        match rec {
            // A transaction enters the stream's bookkeeping at its first
            // operation; one with none has nothing to ship.
            TcLogRecord::Op { txn, dc, op, .. } | TcLogRecord::RedoOnly { txn, dc, op } => {
                g.pending.entry(txn).or_default().push((lsn, dc, op));
            }
            // Replicas must only ever see *decided* work. A cross-TC
            // branch stays buffered through its Prepare — an in-doubt
            // branch may yet abort — and is emitted (or discarded) only
            // at its local resolution record, exactly like a
            // single-shard transaction at Commit/Abort. The coordinator
            // side's CommitDecision is its commit point and emits there.
            TcLogRecord::Commit { txn }
            | TcLogRecord::CommitDecision { txn, .. }
            | TcLogRecord::ParticipantCommit { txn } => {
                if let Some(ops) = g.pending.remove(&txn) {
                    if !ops.is_empty() {
                        let floor = ops.iter().map(|(l, _, _)| *l).min().unwrap_or(lsn);
                        g.stream.push(StreamGroup {
                            pos: lsn,
                            floor,
                            records: ops,
                        });
                    }
                }
            }
            TcLogRecord::Abort { txn } | TcLogRecord::ParticipantAbort { txn } => {
                g.pending.remove(&txn);
            }
            TcLogRecord::Prepare { .. }
            | TcLogRecord::Checkpoint { .. }
            | TcLogRecord::Promote { .. }
            | TcLogRecord::PromoteIntent { .. }
            | TcLogRecord::RebalanceIntent { .. }
            | TcLogRecord::RebalanceDone { .. } => {}
        }
    }

    /// The applied frontier acked by one replica (`None` if unknown).
    pub(crate) fn applied_of(&self, replica: DcId) -> Option<Lsn> {
        self.inner.lock().replicas.get(&replica).map(|r| r.acked)
    }

    /// Stable redo records (operations, and the compensations of a
    /// rollback under way) of transactions whose outcome has not been
    /// scanned yet (active as of the stable log end), in LSN order —
    /// promotion must replay exactly these on top of the shipped stream
    /// (resolved history is covered by the stream; re-executing it raw
    /// would corrupt the replica).
    pub(crate) fn pending_ops(&self) -> Vec<(Lsn, DcId, LogicalOp)> {
        let g = self.inner.lock();
        let mut out: Vec<(Lsn, DcId, LogicalOp)> = g
            .pending
            .values()
            .flat_map(|ops| ops.iter().cloned())
            .collect();
        out.sort_by_key(|(l, _, _)| *l);
        out
    }

    /// Build the outbound `ShipBatch` datagrams for one replica.
    fn plan_replica(
        g: &mut ShipperInner,
        tc: TcId,
        id: DcId,
        end: Lsn,
        eosl: Lsn,
        resend_interval: Duration,
        outbound: &mut Vec<(Arc<dyn DcLink>, TcToDc)>,
    ) {
        let (mut cursor, sources, link) = {
            let r = g.replicas.get_mut(&id).expect("replica exists");
            if r.sent > r.acked && r.last_progress.elapsed() >= resend_interval {
                // Go-back-N: something between acked and sent was lost
                // (or an ack went missing). Resend from the ack; the
                // replica suppresses duplicates via the abLSN test.
                r.sent = r.acked;
                r.last_progress = Instant::now();
            }
            if r.sent >= end {
                return;
            }
            (r.sent, r.sources.clone(), r.link.clone())
        };
        let start = cursor;
        let mut batch: Vec<(Lsn, Vec<(Lsn, LogicalOp)>)> = Vec::new();
        let mut batch_records = 0usize;
        let mut prev = cursor;
        for grp in g.stream.iter().filter(|grp| grp.pos > start) {
            let mine: Vec<(Lsn, LogicalOp)> = grp
                .records
                .iter()
                .filter(|(_, dc, _)| sources.contains(dc))
                .map(|(l, _, op)| (*l, op.clone()))
                .collect();
            if !batch.is_empty() && batch_records + mine.len() > BATCH_RECORDS {
                outbound.push((
                    link.clone(),
                    TcToDc::ShipBatch {
                        tc,
                        prev,
                        upto: cursor,
                        eosl,
                        groups: std::mem::take(&mut batch),
                        // Only the plan's final batch (which runs the
                        // cursor to the stream end) carries a prune
                        // bound: a mid-plan bound would have to stay
                        // below every unsent group's floor anyway.
                        prune: Lsn(0),
                    },
                ));
                batch_records = 0;
                prev = cursor;
            }
            if !mine.is_empty() {
                batch_records += mine.len();
                batch.push((grp.pos, mine));
            }
            cursor = grp.pos;
        }
        // Final batch always runs the frontier out to the stream end so
        // the replica's freshness horizon tracks commits on *other*
        // partitions (and empty logs still bump frontiers). It also
        // carries the in-set prune bound (see `Self::prune_bound`):
        // once the replica has applied through `end`, every shipped
        // operation LSN at or below the bound is covered, and nothing
        // at or below it can ever arrive raw.
        let prune = Self::prune_bound(g, end);
        outbound.push((
            link.clone(),
            TcToDc::ShipBatch {
                tc,
                prev,
                upto: end,
                eosl,
                groups: batch,
                prune,
            },
        ));
        let r = g.replicas.get_mut(&id).expect("replica exists");
        r.sent = end;
    }

    /// The largest operation LSN a replica that has applied the whole
    /// stream through `end` may fold under its abstract-LSN low-water
    /// marks. Everything at or below the bound is *settled* from the
    /// replica's point of view: shipped-and-applied, or part of an
    /// aborted transaction that will never ship. The bound therefore
    /// stays strictly below
    ///
    /// * the smallest buffered LSN of a transaction whose outcome is
    ///   not yet scanned (promotion replays exactly these raw, at
    ///   their original LSNs — they must not be swallowed as
    ///   duplicates), and
    /// * the unscanned stable tail (`scan_pos + 1`), whose future
    ///   groups may reach back no further than their own LSNs.
    fn prune_bound(g: &ShipperInner, end: Lsn) -> Lsn {
        let pending_floor = g
            .pending
            .values()
            .flat_map(|ops| ops.iter().map(|(l, _, _)| *l))
            .min();
        let horizon = [pending_floor, Some(Lsn(g.scan_pos + 1))]
            .into_iter()
            .flatten()
            .min()
            .expect("scan floor always present");
        Lsn(horizon.0.saturating_sub(1)).min(end)
    }

    /// The oldest TC-log LSN replication still needs (`None` when no
    /// replica is registered): retained groups a replica has yet to
    /// durably consume, plus buffered operations of transactions whose
    /// outcome has not been scanned. Checkpoint truncation must keep
    /// every record at or above this.
    pub(crate) fn replication_floor(&self) -> Option<Lsn> {
        let g = self.inner.lock();
        if g.replicas.is_empty() {
            return None;
        }
        let min_durable = g
            .replicas
            .values()
            .map(|r| r.durable)
            .min()
            .unwrap_or(Lsn(0));
        let group_floor = g
            .stream
            .iter()
            .filter(|grp| grp.pos > min_durable)
            .map(|grp| grp.floor)
            .min();
        let pending_floor = g
            .pending
            .values()
            .flat_map(|ops| ops.iter().map(|(l, _, _)| *l))
            .min();
        let scan_floor = Lsn(g.scan_pos + 1);
        Some(
            [group_floor, pending_floor, Some(scan_floor)]
                .into_iter()
                .flatten()
                .min()
                .expect("scan floor always present"),
        )
    }

    /// Pick a replica of `primary` whose applied frontier covers
    /// `required`, rotating across qualifying replicas for load
    /// balancing. `None` = route to the primary.
    pub(crate) fn pick_replica(
        &self,
        primary: DcId,
        required: Lsn,
        rotation: u64,
    ) -> Option<(DcId, Arc<dyn DcLink>)> {
        let g = self.inner.lock();
        let qualifying: Vec<(DcId, &ReplicaState)> = {
            let mut v: Vec<_> = g
                .replicas
                .iter()
                .filter(|(_, r)| r.sources.contains(&primary) && r.acked >= required)
                .map(|(id, r)| (*id, r))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        if qualifying.is_empty() {
            return None;
        }
        let (id, r) = qualifying[(rotation % qualifying.len() as u64) as usize];
        Some((id, r.link.clone()))
    }

    /// Per-replica lag snapshot (freshness introspection).
    pub(crate) fn lags(&self) -> Vec<ReplicaLag> {
        let g = self.inner.lock();
        let frontier = Lsn(g.scan_pos);
        let mut v: Vec<ReplicaLag> = g
            .replicas
            .iter()
            .map(|(id, r)| ReplicaLag {
                dc: *id,
                applied: r.acked,
                durable: r.durable,
                frontier,
            })
            .collect();
        v.sort_by_key(|l| l.dc);
        v
    }

    /// Promotion bookkeeping: drop `promoted` from the replica set and
    /// extend every surviving follower of `old` to also follow the
    /// promoted id (ops keep being logged against whichever id routed
    /// them, so followers need the whole lineage). Returns the promoted
    /// replica's link, if registered.
    pub(crate) fn promote(&self, old: DcId, promoted: DcId) -> Option<Arc<dyn DcLink>> {
        let mut g = self.inner.lock();
        let link = g.replicas.remove(&promoted).map(|r| r.link);
        for r in g.replicas.values_mut() {
            if r.sources.contains(&old) && !r.sources.contains(&promoted) {
                r.sources.push(promoted);
            }
        }
        link
    }

    /// The link a registered replica was wired with (promotion needs it
    /// to re-register the promoted DC as a primary).
    pub(crate) fn replica_link(&self, replica: DcId) -> Option<Arc<dyn DcLink>> {
        self.inner
            .lock()
            .replicas
            .get(&replica)
            .map(|r| r.link.clone())
    }
}
