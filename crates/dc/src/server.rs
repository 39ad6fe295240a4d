//! The DC as a message-handling server: the concrete implementation of
//! the TC/DC API of Section 4.2.1, including the replication role — a
//! [`DcServer`] can be created as a **read-only replica** that replays
//! [`TcToDc::ShipBatch`] streams idempotently (through the same
//! abstract-LSN discipline as primary operation traffic), tracks its
//! applied/durable stream frontiers, rejects mutations until a
//! [`TcToDc::Promote`] makes it the writable primary, and honors
//! [`TcToDc::Fence`] so a deposed primary cannot diverge after failover.

use crate::dclog::DcLogRecord;
use crate::engine::{DcConfig, DcEngine};
use crate::stats::DcStats;
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unbundled_core::codec::{Decoder, Encoder};
use unbundled_core::{
    DataComponentApi, DcError, DcId, DcToTc, Lsn, PageId, RequestId, TableSpec, TcId, TcToDc,
};
use unbundled_storage::{LogStore, SimDisk};

/// Reserved page persisting a replica's durable stream frontier (data
/// pages are allocated upward from a small base and never reach it;
/// recovery's allocation-floor scan skips it like the catalog page).
pub(crate) const FRONTIER_PAGE: PageId = PageId(u64::MAX);

/// Applied ship batches between durability passes (flush everything
/// eligible, then persist the frontier the flush covered).
const FLUSH_EVERY_BATCHES: u64 = 8;

struct ReplicaFrontier {
    /// Applied stream frontier — advances only on whole batches, and
    /// batches never split a transaction's group, so reads routed by
    /// this frontier always see transaction-atomic state.
    applied: Lsn,
    /// Stream prefix whose effects are on stable storage.
    durable: Lsn,
    batches_since_flush: u64,
}

struct ReplicaApply {
    /// Serializes batch application against replica reads: a reader
    /// never observes a shipped transaction half-applied.
    gate: RwLock<()>,
    state: Mutex<ReplicaFrontier>,
}

/// A Data Component bound to its stable storage, exposed through the
/// message API. Wraps a [`DcEngine`]; the engine can be swapped on
/// reboot while the stable parts (disk, log) persist.
pub struct DcServer {
    engine: Arc<DcEngine>,
    /// TCs currently in the restart conversation.
    restarting: Mutex<HashSet<TcId>>,
    /// Replica apply machinery (`None` for a DC created as a primary).
    replica: Option<ReplicaApply>,
    /// Mutations rejected while set: a read-only replica not yet
    /// promoted, or a primary fenced off at failover.
    fenced: AtomicBool,
    /// A promoted replica stops applying ship batches.
    promoted: AtomicBool,
}

impl DcServer {
    fn build(engine: Arc<DcEngine>, replica: bool, frontier: Lsn) -> Self {
        DcServer {
            engine,
            restarting: Mutex::new(HashSet::new()),
            replica: replica.then(|| ReplicaApply {
                gate: RwLock::new(()),
                state: Mutex::new(ReplicaFrontier {
                    applied: frontier,
                    durable: frontier,
                    batches_since_flush: 0,
                }),
            }),
            fenced: AtomicBool::new(replica),
            promoted: AtomicBool::new(false),
        }
    }

    /// Create a freshly formatted DC (writable primary).
    pub fn format(id: DcId, cfg: DcConfig, disk: SimDisk, log: Arc<LogStore<DcLogRecord>>) -> Self {
        Self::build(DcEngine::format(id, cfg, disk, log), false, Lsn(0))
    }

    /// Boot a DC from surviving stable storage (after a crash).
    pub fn recover(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Self {
        Self::build(DcEngine::recover(id, cfg, disk, log), false, Lsn(0))
    }

    /// Create a freshly formatted **read-only replica**: it applies
    /// [`TcToDc::ShipBatch`] streams and serves reads, but rejects
    /// mutations ([`DcError::Fenced`]) until promoted.
    pub fn format_replica(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Self {
        Self::build(DcEngine::format(id, cfg, disk, log), true, Lsn(0))
    }

    /// Boot a replica from surviving stable storage. The applied
    /// frontier restarts at the *durable* frontier persisted by the
    /// last completed durability pass — unflushed applied effects died
    /// with the cache, and the shipper resends from the acked frontier
    /// (duplicates on flushed pages are suppressed by the abLSN test).
    pub fn recover_replica(
        id: DcId,
        cfg: DcConfig,
        disk: SimDisk,
        log: Arc<LogStore<DcLogRecord>>,
    ) -> Self {
        let frontier = disk
            .read_page(FRONTIER_PAGE)
            .and_then(|img| Decoder::new(&img).u64().ok())
            .map(Lsn)
            .unwrap_or(Lsn(0));
        Self::build(DcEngine::recover(id, cfg, disk, log), true, frontier)
    }

    /// The engine (tests/experiments).
    pub fn engine(&self) -> &Arc<DcEngine> {
        &self.engine
    }

    /// Create a table (administrative).
    pub fn create_table(&self, spec: TableSpec) {
        self.engine.create_table(spec).expect("create_table");
    }

    /// Reject all future mutations (failover fencing; also settable by
    /// a deployment when the in-band [`TcToDc::Fence`] cannot reach a
    /// crashed old primary).
    pub fn fence(&self) {
        self.fenced.store(true, Ordering::Release);
    }

    /// Whether mutations are currently rejected.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Whether this DC was created as a replica (promotion does not
    /// change this — it reports the server's provenance).
    pub fn is_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// The replica's `(applied, durable)` stream frontiers, if this DC
    /// is one.
    pub fn replica_frontier(&self) -> Option<(Lsn, Lsn)> {
        self.replica.as_ref().map(|r| {
            let st = r.state.lock();
            (st.applied, st.durable)
        })
    }

    /// Replica apply loop for one ship batch: gap check, group-skip
    /// idempotence, replay, frontier advance, periodic durability pass.
    /// The caller guarantees this server is an unpromoted replica.
    #[allow(clippy::too_many_arguments)]
    fn apply_ship_batch(
        &self,
        tc: TcId,
        prev: Lsn,
        upto: Lsn,
        eosl: Lsn,
        groups: Vec<(Lsn, Vec<(Lsn, unbundled_core::LogicalOp)>)>,
        prune: Lsn,
        out: &mut Vec<DcToTc>,
    ) {
        let rep = self.replica.as_ref().expect("replica apply on a replica");
        // Causality first: everything shipped is stable at the primary,
        // so the replica may make it stable too (and flush pages).
        self.engine.handle_eosl(tc, eosl);
        let stats = self.engine.stats();
        let _gate = rep.gate.write();
        let mut st = rep.state.lock();
        if prev > st.applied {
            // A gap: an earlier batch was lost. Discard, but still ack —
            // the cumulative ack is what tells a stalled shipper where
            // to resend from.
            DcStats::bump(&stats.ship_gap_drops);
        } else {
            for (pos, records) in groups {
                if pos <= st.applied {
                    // Re-delivered group (duplicate batch or resend
                    // overlap): it must not re-execute — an operation
                    // whose first delivery failed deterministically
                    // could succeed against newer state.
                    DcStats::bump(&stats.ship_groups_skipped);
                    continue;
                }
                for (lsn, op) in records {
                    match self.engine.perform(tc, RequestId::Op(lsn), &op) {
                        Ok(_) => DcStats::bump(&stats.ship_records_applied),
                        // Nothing that ships should fail: a group holds a
                        // committed transaction's records, compensations
                        // included, and a failed operation aborts its
                        // transaction. Count divergence, keep applying.
                        Err(_) => DcStats::bump(&stats.ship_apply_errors),
                    }
                }
                st.applied = pos;
            }
            if upto > st.applied {
                st.applied = upto;
            }
            // In-set pruning: every op LSN ≤ `prune` is settled (the
            // shipper kept the bound below anything that could still
            // arrive raw), so fold it under the abLSN low-water mark —
            // replicas never receive `LowWaterMark`, and without this
            // their in-sets grow with history. Monotonic: a reordered
            // batch must not regress the mark; capped at the applied
            // frontier so a bound can never outrun what this replica
            // has actually applied.
            let prune = prune.min(st.applied);
            if prune > self.engine.lwm(tc) {
                self.engine.handle_lwm(tc, prune);
            }
            DcStats::bump(&stats.ship_batches_applied);
            st.batches_since_flush += 1;
            if st.batches_since_flush >= FLUSH_EVERY_BATCHES {
                st.batches_since_flush = 0;
                // Durability pass: if every page made it to disk, the
                // whole applied prefix is stable — persist the frontier
                // so a rebooted replica resumes (and acks) from there.
                if self.engine.dc_checkpoint() {
                    st.durable = st.applied;
                    let mut e = Encoder::new();
                    e.u64(st.durable.0);
                    self.engine
                        .pool()
                        .disk()
                        .write_page(FRONTIER_PAGE, e.finish());
                }
            }
        }
        out.push(DcToTc::ShipAck {
            dc: self.dc_id(),
            tc,
            applied: st.applied,
            durable: st.durable,
        });
    }

    /// Take the replica read gate (shared) while a read runs, so point
    /// reads and scans never observe a half-applied ship batch.
    fn read_gate(&self) -> Option<parking_lot::RwLockReadGuard<'_, ()>> {
        match &self.replica {
            Some(rep) if !self.promoted.load(Ordering::Acquire) => Some(rep.gate.read()),
            _ => None,
        }
    }

    /// One operation through the fencing and gating policy — shared by
    /// the single-`Perform` and `PerformBatch` paths so the two can
    /// never diverge.
    fn perform_one(
        &self,
        tc: TcId,
        req: RequestId,
        op: &unbundled_core::LogicalOp,
    ) -> Result<unbundled_core::OpResult, DcError> {
        if op.is_mutation() && self.is_fenced() {
            DcStats::bump(&self.engine.stats().fenced_rejects);
            return Err(DcError::Fenced(self.dc_id()));
        }
        let _gate = self.read_gate();
        self.engine.perform(tc, req, op)
    }
}

impl DataComponentApi for DcServer {
    fn dc_id(&self) -> DcId {
        self.engine.id()
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        match msg {
            TcToDc::Perform { tc, req, op } => {
                let result = self.perform_one(tc, req, &op);
                out.push(DcToTc::Reply {
                    dc: self.dc_id(),
                    tc,
                    req,
                    result,
                });
            }
            TcToDc::PerformBatch { tc, ops } => {
                // Apply in order, acking each contained request id
                // individually — but coalesce the acks into a single
                // `ReplyBatch` datagram, mirroring the request batching.
                // The TC unpacks per-request, so resend and
                // low-water-mark machinery never see the batching.
                let replies: Vec<_> = ops
                    .into_iter()
                    .map(|(req, op)| (req, self.perform_one(tc, req, &op)))
                    .collect();
                if replies.len() == 1 {
                    let (req, result) = replies.into_iter().next().expect("one reply");
                    out.push(DcToTc::Reply {
                        dc: self.dc_id(),
                        tc,
                        req,
                        result,
                    });
                } else {
                    out.push(DcToTc::ReplyBatch {
                        dc: self.dc_id(),
                        tc,
                        replies,
                    });
                }
            }
            TcToDc::EndOfStableLog { tc, eosl } => {
                self.engine.handle_eosl(tc, eosl);
            }
            TcToDc::LowWaterMark { tc, lwm } => {
                self.engine.handle_lwm(tc, lwm);
            }
            TcToDc::Checkpoint { tc, new_rssp } => {
                let granted = self.engine.handle_checkpoint(tc, new_rssp);
                out.push(DcToTc::CheckpointDone {
                    dc: self.dc_id(),
                    tc,
                    rssp: granted,
                });
            }
            TcToDc::RestartBegin { tc, stable_end } => {
                self.restarting.lock().insert(tc);
                self.engine.reset_for_tc(tc, stable_end);
                out.push(DcToTc::RestartReady {
                    dc: self.dc_id(),
                    tc,
                });
            }
            TcToDc::RestartEnd { tc } => {
                self.restarting.lock().remove(&tc);
                out.push(DcToTc::RestartDone {
                    dc: self.dc_id(),
                    tc,
                });
            }
            TcToDc::ShipBatch {
                tc,
                prev,
                upto,
                eosl,
                groups,
                prune,
            } => {
                // Only an unpromoted replica applies ship traffic; a
                // primary (or promoted replica) ignores stragglers.
                if self.replica.is_some() && !self.promoted.load(Ordering::Acquire) {
                    self.apply_ship_batch(tc, prev, upto, eosl, groups, prune, out);
                }
            }
            TcToDc::Fence { .. } => {
                self.fence();
            }
            TcToDc::Promote { .. } => {
                if self.replica.is_some() {
                    self.promoted.store(true, Ordering::Release);
                    self.fenced.store(false, Ordering::Release);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unbundled_core::{Key, LogicalOp, Lsn, OpResult, ReadFlavor, RequestId, TableId};

    fn setup() -> DcServer {
        let server = DcServer::format(
            DcId(1),
            DcConfig::default(),
            SimDisk::new(),
            Arc::new(LogStore::new()),
        );
        server.create_table(TableSpec::plain(TableId(1), "t"));
        server
    }

    fn perform(server: &DcServer, tc: TcId, req: RequestId, op: LogicalOp) -> DcToTc {
        let mut out = Vec::new();
        server.handle(TcToDc::Perform { tc, req, op }, &mut out);
        out.pop().expect("reply")
    }

    #[test]
    fn insert_then_read_roundtrip() {
        let s = setup();
        let r = perform(
            &s,
            TcId(1),
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: TableId(1),
                key: Key::from_u64(1),
                value: b"v".to_vec(),
            },
        );
        match r {
            DcToTc::Reply { result, .. } => assert_eq!(result.unwrap(), OpResult::Done),
            other => panic!("unexpected {other:?}"),
        }
        let r = perform(
            &s,
            TcId(1),
            RequestId::Read(1),
            LogicalOp::Read {
                table: TableId(1),
                key: Key::from_u64(1),
                flavor: ReadFlavor::Latest,
            },
        );
        match r {
            DcToTc::Reply { result, .. } => {
                assert_eq!(result.unwrap(), OpResult::Value(Some(b"v".to_vec())))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_request_suppressed() {
        let s = setup();
        let op = LogicalOp::Insert {
            table: TableId(1),
            key: Key::from_u64(2),
            value: b"v".to_vec(),
        };
        perform(&s, TcId(1), RequestId::Op(Lsn(5)), op.clone());
        // Resend with the same request id: must be suppressed, not error.
        let r = perform(&s, TcId(1), RequestId::Op(Lsn(5)), op);
        match r {
            DcToTc::Reply { result, .. } => assert_eq!(result.unwrap(), OpResult::Done),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.engine().stats().snapshot().duplicates_suppressed, 1);
    }

    #[test]
    fn perform_batch_acks_every_op_and_replay_is_idempotent() {
        let s = setup();
        let ops: Vec<(RequestId, LogicalOp)> = (1..=3u64)
            .map(|l| {
                (
                    RequestId::Op(Lsn(l)),
                    LogicalOp::Insert {
                        table: TableId(1),
                        key: Key::from_u64(l),
                        value: format!("v{l}").into_bytes(),
                    },
                )
            })
            .collect();
        let mut out = Vec::new();
        s.handle(
            TcToDc::PerformBatch {
                tc: TcId(1),
                ops: ops.clone(),
            },
            &mut out,
        );
        assert_eq!(
            out.len(),
            1,
            "acks for one batch coalesce into one reply datagram"
        );
        match &out[0] {
            DcToTc::ReplyBatch { replies, .. } => {
                assert_eq!(replies.len(), 3, "one individual ack per batched op");
                for (i, (req, result)) in replies.iter().enumerate() {
                    assert_eq!(*req, RequestId::Op(Lsn(i as u64 + 1)));
                    assert_eq!(result.clone().unwrap(), OpResult::Done);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // The whole batch resent (a lost request batch — or a lost
        // reply batch followed by resends — looks exactly like this):
        // every op suppressed as a duplicate, every op acked again.
        out.clear();
        s.handle(TcToDc::PerformBatch { tc: TcId(1), ops }, &mut out);
        assert!(matches!(&out[0], DcToTc::ReplyBatch { replies, .. } if replies.len() == 3));
        assert_eq!(s.engine().stats().snapshot().duplicates_suppressed, 3);
        let r = perform(
            &s,
            TcId(1),
            RequestId::Read(1),
            LogicalOp::Read {
                table: TableId(1),
                key: Key::from_u64(2),
                flavor: ReadFlavor::Latest,
            },
        );
        match r {
            DcToTc::Reply { result, .. } => {
                assert_eq!(result.unwrap(), OpResult::Value(Some(b"v2".to_vec())))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restart_conversation_acks() {
        let s = setup();
        let mut out = Vec::new();
        s.handle(
            TcToDc::RestartBegin {
                tc: TcId(1),
                stable_end: Lsn(0),
            },
            &mut out,
        );
        assert!(matches!(out[0], DcToTc::RestartReady { .. }));
        out.clear();
        s.handle(TcToDc::RestartEnd { tc: TcId(1) }, &mut out);
        assert!(matches!(out[0], DcToTc::RestartDone { .. }));
    }

    #[test]
    fn checkpoint_replies_with_granted_rssp() {
        let s = setup();
        perform(
            &s,
            TcId(1),
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: TableId(1),
                key: Key::from_u64(1),
                value: b"v".to_vec(),
            },
        );
        let mut out = Vec::new();
        s.handle(
            TcToDc::EndOfStableLog {
                tc: TcId(1),
                eosl: Lsn(1),
            },
            &mut out,
        );
        s.handle(
            TcToDc::LowWaterMark {
                tc: TcId(1),
                lwm: Lsn(1),
            },
            &mut out,
        );
        s.handle(
            TcToDc::Checkpoint {
                tc: TcId(1),
                new_rssp: Lsn(2),
            },
            &mut out,
        );
        match &out[0] {
            DcToTc::CheckpointDone { rssp, .. } => assert_eq!(*rssp, Lsn(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn ship(
        s: &DcServer,
        prev: u64,
        upto: u64,
        records: Vec<(u64, u64, &str)>, // (lsn, key, value)
    ) -> Vec<DcToTc> {
        let mut out = Vec::new();
        let records: Vec<(Lsn, LogicalOp)> = records
            .into_iter()
            .map(|(l, k, v)| {
                (
                    Lsn(l),
                    LogicalOp::Insert {
                        table: TableId(1),
                        key: Key::from_u64(k),
                        value: v.as_bytes().to_vec(),
                    },
                )
            })
            .collect();
        s.handle(
            TcToDc::ShipBatch {
                tc: TcId(1),
                prev: Lsn(prev),
                upto: Lsn(upto),
                // The real shipper sends its stable log end, which covers
                // every shipped op LSN; tests use a generous stand-in.
                eosl: Lsn(1_000),
                // One group positioned at the batch end.
                groups: if records.is_empty() {
                    Vec::new()
                } else {
                    vec![(Lsn(upto), records)]
                },
                prune: Lsn(0),
            },
            &mut out,
        );
        out
    }

    fn replica() -> DcServer {
        let s = DcServer::format_replica(
            DcId(9),
            DcConfig::default(),
            SimDisk::new(),
            Arc::new(LogStore::new()),
        );
        s.create_table(TableSpec::plain(TableId(1), "t"));
        s
    }

    #[test]
    fn replica_applies_ship_batches_and_acks_frontiers() {
        let s = replica();
        let out = ship(&s, 0, 5, vec![(2, 1, "a"), (3, 2, "b")]);
        match &out[0] {
            DcToTc::ShipAck {
                applied, durable, ..
            } => {
                assert_eq!(*applied, Lsn(5));
                assert_eq!(*durable, Lsn(0), "durability pass not due yet");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.replica_frontier(), Some((Lsn(5), Lsn(0))));
        // A duplicated batch (shipper go-back-N resend) is idempotent:
        // the already-applied group is skipped wholesale, never
        // re-executed against newer state.
        let out = ship(&s, 0, 5, vec![(2, 1, "a"), (3, 2, "b")]);
        assert!(matches!(&out[0], DcToTc::ShipAck { applied, .. } if *applied == Lsn(5)));
        assert_eq!(s.engine().stats().snapshot().ship_groups_skipped, 1);
        assert_eq!(s.engine().dump_table(TableId(1)).unwrap().len(), 2);
    }

    #[test]
    fn replica_drops_gapped_batches_but_still_acks() {
        let s = replica();
        ship(&s, 0, 4, vec![(2, 1, "a")]);
        // prev=9 > applied=4: an earlier batch was lost in transit.
        let out = ship(&s, 9, 12, vec![(10, 7, "x")]);
        assert!(
            matches!(&out[0], DcToTc::ShipAck { applied, .. } if *applied == Lsn(4)),
            "gap ack reports the unchanged frontier so the shipper resends"
        );
        assert_eq!(s.engine().stats().snapshot().ship_gap_drops, 1);
        assert_eq!(
            s.engine().dump_table(TableId(1)).unwrap().len(),
            1,
            "gapped records must not apply"
        );
    }

    #[test]
    fn replica_rejects_mutations_until_promoted_and_old_primary_fences() {
        let s = replica();
        let r = perform(
            &s,
            TcId(1),
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: TableId(1),
                key: Key::from_u64(1),
                value: b"w".to_vec(),
            },
        );
        assert!(
            matches!(
                r,
                DcToTc::Reply {
                    result: Err(unbundled_core::DcError::Fenced(_)),
                    ..
                }
            ),
            "a read-only replica must reject direct writes"
        );
        // Reads are always allowed.
        let r = perform(
            &s,
            TcId(1),
            RequestId::Read(1),
            LogicalOp::Read {
                table: TableId(1),
                key: Key::from_u64(1),
                flavor: ReadFlavor::Latest,
            },
        );
        assert!(matches!(r, DcToTc::Reply { result: Ok(_), .. }));
        // Promote: mutations accepted, ship traffic ignored from now on.
        let mut out = Vec::new();
        s.handle(TcToDc::Promote { tc: TcId(1) }, &mut out);
        let r = perform(
            &s,
            TcId(1),
            RequestId::Op(Lsn(1)),
            LogicalOp::Insert {
                table: TableId(1),
                key: Key::from_u64(1),
                value: b"w".to_vec(),
            },
        );
        assert!(matches!(r, DcToTc::Reply { result: Ok(_), .. }));
        let out = ship(&s, 0, 99, vec![(50, 9, "stale")]);
        assert!(out.is_empty(), "a promoted replica ignores stray batches");
        // The deposed primary side: fencing rejects writes, serves reads.
        let p = setup();
        let mut out = Vec::new();
        p.handle(TcToDc::Fence { tc: TcId(1) }, &mut out);
        assert!(p.is_fenced());
        let r = perform(
            &p,
            TcId(1),
            RequestId::Op(Lsn(2)),
            LogicalOp::Insert {
                table: TableId(1),
                key: Key::from_u64(2),
                value: b"diverge".to_vec(),
            },
        );
        assert!(matches!(
            r,
            DcToTc::Reply {
                result: Err(unbundled_core::DcError::Fenced(_)),
                ..
            }
        ));
        assert_eq!(p.engine().stats().snapshot().fenced_rejects, 1);
    }

    #[test]
    fn replica_durable_frontier_survives_reboot() {
        let disk = SimDisk::new();
        let log = Arc::new(LogStore::new());
        let s = DcServer::format_replica(DcId(9), DcConfig::default(), disk.clone(), log.clone());
        s.create_table(TableSpec::plain(TableId(1), "t"));
        // Enough batches to cross the durability cadence.
        for i in 0..10u64 {
            ship(&s, i, i + 1, vec![(100 + i, i, "v")]);
        }
        let (applied, durable) = s.replica_frontier().unwrap();
        assert_eq!(applied, Lsn(10));
        assert!(durable > Lsn(0), "a durability pass must have run");
        // Reboot: the frontier restarts at the persisted durable mark.
        let s2 = DcServer::recover_replica(DcId(9), DcConfig::default(), disk, log);
        let (applied2, durable2) = s2.replica_frontier().unwrap();
        assert_eq!(applied2, durable);
        assert_eq!(durable2, durable);
        // Re-shipping the covered prefix is suppressed; the tail re-applies.
        for i in durable.0..10u64 {
            ship(&s2, i, i + 1, vec![(100 + i, i, "v")]);
        }
        assert_eq!(s2.replica_frontier().unwrap().0, Lsn(10));
        assert_eq!(s2.engine().dump_table(TableId(1)).unwrap().len(), 10);
    }
}
