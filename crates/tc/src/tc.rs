//! The Transactional Component (paper Section 4.1.1).
//!
//! The TC wraps all requests from the application stack: it performs
//! transactional locking *before* any request reaches a DC (so the DC
//! never sees two conflicting operations concurrently — the invariant
//! that makes OPSR logical logging sound), logs logical redo, forces the
//! log for durability, and guarantees atomicity by reverting the
//! versions its writes made (one `RevertVersion` per key written) on
//! abort.
//!
//! The TC knows tables, keys and key ranges — never pages.

use crate::routing::{DcLink, ScanProtocol, TableRoute};
use crate::session::{Control, DcSession, Path};
use crate::shipper::{ReplicaLag, Shipper};
use crate::stats::TcStats;
use crate::tclog::{TcLogHandle, TcLogRecord};
use crate::twopc::TcPeer;
use crate::txns::{SnapshotPins, TxnRef, TxnTable};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{
    DcId, DcToTc, Key, LogicalOp, Lsn, OpResult, ReadConsistency, ReadFlavor, RequestId,
    SnapshotSpec, TableId, TcError, TcId, TcShardMap, TcToDc, TxnId,
};
use unbundled_lockmgr::{LockError, LockManager, LockMode, LockName, LockToken};
use unbundled_obs as obs;
use unbundled_obs::stripe::ReadMostly;
use unbundled_storage::{GatherWindow, LogStore};

/// Group-commit tuning (see [`TcConfig::group_commit`]).
#[derive(Clone, Debug)]
pub struct GroupCommitCfg {
    /// Gather window: how long a force leader may hold the flush back
    /// to let more concurrent committers join its group.
    /// [`GatherWindow::Fixed`] with zero disables the deliberate wait —
    /// coalescing then comes only from committers piggybacking while a
    /// flush is in flight; the default [`GatherWindow::Adaptive`] lets
    /// the log's controller grow the window under concurrent commit
    /// pressure and decay it to zero when commits are sparse.
    pub window: GatherWindow,
    /// Cut the gather window short once this many committers (leader
    /// included) are in the group.
    pub max_waiters: usize,
}

impl Default for GroupCommitCfg {
    fn default() -> Self {
        GroupCommitCfg {
            window: GatherWindow::adaptive(),
            max_waiters: 32,
        }
    }
}

/// TC configuration.
#[derive(Clone)]
pub struct TcConfig {
    /// Resend interval for unacknowledged operations.
    pub resend_interval: Duration,
    /// Give up after this many resends (the DC is declared unreachable).
    pub max_resends: u32,
    /// Lock wait bound (None = wait forever, deadlock detection only).
    pub lock_timeout: Option<Duration>,
    /// Range-scan locking protocol (Section 3.1).
    pub scan_protocol: ScanProtocol,
    /// Background force threshold: force + publish EOSL/LWM after this
    /// many appended operation records (forward `Op`s and rollback
    /// compensations) even without a commit — keeps the DC's causality
    /// frontier moving for long transactions. Commits force on their
    /// own, and `begin` logs nothing, so neither counts.
    pub force_every: usize,
    /// Group commit: `None` forces the log (and publishes EOSL/LWM) once
    /// per committing transaction; `Some` routes commits through the
    /// log's group-force path, where one leader's flush covers every
    /// concurrent committer and EOSL/LWM publication is coalesced to one
    /// broadcast per flush.
    pub group_commit: Option<GroupCommitCfg>,
}

impl Default for TcConfig {
    fn default() -> Self {
        TcConfig {
            resend_interval: Duration::from_millis(25),
            max_resends: 400,
            lock_timeout: Some(Duration::from_secs(2)),
            scan_protocol: ScanProtocol::fetch_ahead(),
            force_every: 64,
            group_commit: None,
        }
    }
}

/// A transaction's write set: its last write op LSN per key. Commit
/// stamps the version each entry names and abort reverts it, so the
/// write set is all the undo information a transaction has.
pub(crate) type WriteSet = HashMap<(DcId, TableId, Key), Lsn>;

/// Per-transaction state. Its collections start empty and allocate on
/// first use.
#[derive(Default)]
pub(crate) struct TxnState {
    pub(crate) id: TxnId,
    /// Lower bound on the LSN of the first record this transaction
    /// logged — its log truncation floor. `None` until it logs one: a
    /// transaction enters the log with its first `Op`, `Prepare` or
    /// `CommitDecision` (see [`Tc::enter_log`]).
    pub(crate) first_lsn: Option<Lsn>,
    /// DCs touched by this transaction.
    pub(crate) touched: HashSet<DcId>,
    /// Values known under lock: (table, key) → payload (None = absent).
    /// Repeated locking reads, and reads of the transaction's own
    /// writes, are served from here.
    pub(crate) cache: HashMap<(TableId, Key), Option<Vec<u8>>>,
    /// The write set, and with it the whole undo log: the version each
    /// commit stamp targets and each rollback revert names (earlier
    /// same-transaction writes are dead the moment they are displaced
    /// and are never stamped; GC reclaims them once their LSN falls
    /// under the LWM).
    pub(crate) writes: WriteSet,
    /// Pinned MVCC snapshot: the position resolved at this
    /// transaction's first [`SnapshotSpec::Pinned`] read and reused for
    /// every later one (repeatable reads within the transaction), with
    /// the pin stripe it is registered on.
    pub(crate) snapshot: Option<(Lsn, usize)>,
    /// The transaction has taken a lock, so its end must release them.
    pub(crate) locked: bool,
    /// Cross-TC coordinator role: participant shards holding branches of
    /// this transaction. Non-empty means commit goes through 2PC.
    pub(crate) remotes: HashSet<TcId>,
    /// Cross-TC participant role: the `(coordinator, global txn)` this
    /// local transaction is a branch of.
    pub(crate) part_of: Option<(TcId, TxnId)>,
    /// Participant role: the branch voted yes and awaits the decision.
    pub(crate) prepared: bool,
    /// Shard-space points of keys this transaction executed locally
    /// (recorded under the rebalance-fence mutex, before the record
    /// lock is drawn). A rebalance drain waits until no live
    /// transaction holds a point inside the moving range; a transaction
    /// that already holds one is a *drain member* and finishes under
    /// the old authority.
    pub(crate) shard_points: HashSet<u64>,
    /// Observability: the transaction's `tc.txn` span (0 when spans are
    /// disabled), closed when the transaction resolves.
    pub(crate) span: u64,
    /// Observability: nanoseconds this transaction spent blocked on
    /// lock waits, accumulated across its operations.
    pub(crate) lock_wait_ns: u64,
}

/// The Transactional Component. Thread-safe; share via [`Arc`].
pub struct Tc {
    id: TcId,
    /// Configuration (public for experiment harnesses).
    pub cfg: TcConfig,
    pub(crate) log: TcLogHandle,
    pub(crate) locks: Arc<LockManager>,
    /// The conversation with the DCs: routes, links, resend, acks,
    /// gating and the control exchanges.
    pub(crate) session: DcSession,
    pub(crate) txns: TxnTable,
    /// Open pinned-snapshot positions. The oldest clamps the published
    /// low-water mark so DC-side version-chain GC never prunes history
    /// an open snapshot still needs.
    snapshot_pins: SnapshotPins,
    /// Serializes LSN allocation with ack-tracker registration: the
    /// low-water mark must never be computed between an append (which
    /// fixes the LSN order) and the `sent`/`bookkeeping` registration of
    /// that LSN — otherwise a concurrent committer could publish an LWM
    /// covering an in-flight operation, and the DC would suppress its
    /// first delivery as a duplicate.
    alloc: Mutex<()>,
    /// The frontier published so far. Group committers whose force was
    /// led by another committer skip the broadcast when the leader's
    /// publication already covers them; holding this lock across the
    /// broadcast keeps publications monotone per DC.
    published: Mutex<Published>,
    pub(crate) rssp: AtomicU64,
    appends_since_force: AtomicU64,
    /// Replication: committed-redo shipping to read-only DC replicas.
    pub(crate) shipper: Shipper,
    /// Round-robin ticket for replica read load-balancing.
    replica_rr: AtomicU64,
    available: AtomicBool,
    /// Key-range → TC ownership. `None` (the default) disables all
    /// cross-TC machinery — every key is local. Read by every operation.
    pub(crate) shard_map: ReadMostly<Option<TcShardMap>>,
    /// Peer TC shards, by id. Handles survive peer reboots (the kernel
    /// registers an indirection that always resolves the current `Tc`).
    pub(crate) peers: RwLock<HashMap<TcId, Arc<dyn TcPeer>>>,
    /// Participant role: `(coordinator, global txn)` → local branch txn.
    pub(crate) participants: Mutex<HashMap<(TcId, TxnId), TxnId>>,
    /// Coordinator role: commit decisions not yet acknowledged by every
    /// participant, pinning log truncation at the decision LSN so an
    /// in-doubt participant can always re-read the decision.
    pub(crate) pending_decisions: Mutex<HashMap<TxnId, (Lsn, HashSet<TcId>)>>,
    /// Elastic rebalance: fence over a key range moving away from this
    /// TC. While set, *new* work on the range blocks (bounded by the
    /// lock timeout) and transactions already inside it drain out;
    /// cleared when a map whose epoch covers the fence is installed.
    pub(crate) rebalance_fence: Mutex<Option<crate::rebalance::RebalanceFence>>,
    pub(crate) fence_cv: Condvar,
    /// A completed rebalance found in the log during recovery whose map
    /// republish may not have happened (crash between the forced
    /// [`TcLogRecord::RebalanceDone`] and the republish): `(lo, hi, to,
    /// epoch)`. The kernel reads this after recovery and finishes the
    /// republish.
    pub(crate) recovered_rebalance: Mutex<Option<(u64, u64, TcId, u64)>>,
    stats: Arc<TcStats>,
}

/// What the TC last broadcast to its DCs.
#[derive(Default)]
struct Published {
    eosl: Lsn,
    /// The last low-water mark broadcast; a publication whose clamped
    /// mark is not above it skips the broadcast.
    lwm: Lsn,
}

impl Tc {
    /// Create a TC over a (possibly crash-surviving) log store. For a
    /// rebooted TC, call [`Tc::run_recovery`] after registering DCs and
    /// tables.
    pub fn new(id: TcId, cfg: TcConfig, log: Arc<LogStore<TcLogRecord>>) -> Arc<Tc> {
        let stats = Arc::new(TcStats::default());
        Arc::new(Tc {
            id,
            session: DcSession::new(id, &cfg, stats.clone()),
            cfg,
            log: TcLogHandle::new(log),
            locks: Arc::new(LockManager::new()),
            txns: TxnTable::default(),
            snapshot_pins: SnapshotPins::default(),
            alloc: Mutex::new(()),
            published: Mutex::new(Published::default()),
            rssp: AtomicU64::new(1),
            appends_since_force: AtomicU64::new(0),
            shipper: Shipper::new(),
            replica_rr: AtomicU64::new(0),
            available: AtomicBool::new(true),
            shard_map: ReadMostly::new(None),
            peers: RwLock::new(HashMap::new()),
            participants: Mutex::new(HashMap::new()),
            pending_decisions: Mutex::new(HashMap::new()),
            rebalance_fence: Mutex::new(None),
            fence_cv: Condvar::new(),
            recovered_rebalance: Mutex::new(None),
            stats,
        })
    }

    /// This TC's identity.
    pub fn id(&self) -> TcId {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> &TcStats {
        &self.stats
    }

    /// The TC's lock manager (experiment introspection).
    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The TC's log handle (experiment introspection).
    pub fn log_handle(&self) -> &TcLogHandle {
        &self.log
    }

    /// The current low-water mark: every operation with LSN ≤ this has
    /// been replied to (experiment/test introspection — this is the
    /// frontier [`TcToDc::LowWaterMark`] publications are derived from).
    pub fn lwm(&self) -> Lsn {
        self.session.acks.lwm()
    }

    /// Operations sent but not yet acknowledged (experiment/test
    /// introspection). A lost reply — or a lost reply *batch* — shows up
    /// here until the resend machinery recovers the acks.
    pub fn outstanding_ops(&self) -> usize {
        self.session.acks.outstanding()
    }

    /// Wire a DC.
    pub fn register_dc(&self, dc: DcId, link: Arc<dyn DcLink>) {
        self.session.register_dc(dc, link);
    }

    /// Re-install a past failover alias on a rebuilt TC (deployment
    /// rebuild after a TC crash): log records and routes addressed to
    /// deposed primary `old` resolve to promoted DC `new`. Recovery's
    /// log analysis re-derives the same aliases (plus redo floors) from
    /// [`TcLogRecord::Promote`] records.
    pub fn install_promotion(&self, old: DcId, new: DcId) {
        self.session.repoint(old, new, None);
    }

    /// Failover aliases currently installed (deposed id → promoted id).
    /// A deployment rebuilding this TC compares these against its own
    /// failover records to detect promotions recovery re-drove from a
    /// [`TcLogRecord::PromoteIntent`].
    pub fn aliases(&self) -> Vec<(DcId, DcId)> {
        self.session.aliases()
    }

    /// Declare where a table lives.
    pub fn register_table(&self, table: TableId, route: TableRoute) {
        self.session.register_table(table, route);
    }

    /// Resolve a (possibly deposed) DC id through the failover alias
    /// chain to the id currently serving its partition.
    pub fn resolve_dc(&self, dc: DcId) -> DcId {
        self.session.resolve_dc(dc)
    }

    pub(crate) fn ensure_available(&self) -> Result<(), TcError> {
        if self.available.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(TcError::Unavailable(self.id))
        }
    }

    pub(crate) fn set_available(&self, v: bool) {
        self.available.store(v, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Message delivery (transports call this)
    // ------------------------------------------------------------------

    /// Deliver one DC→TC message.
    pub fn deliver(&self, msg: DcToTc) {
        if let DcToTc::ShipAck {
            dc,
            applied,
            durable,
            ..
        } = msg
        {
            self.shipper.on_ack(dc, applied, durable);
        }
        self.session.deliver(msg);
    }

    /// Drain crash prompts (the kernel reacts by driving
    /// [`Tc::recover_dc`] once the DC has rebooted).
    pub fn take_crash_prompts(&self) -> Vec<DcId> {
        self.session.take_crash_prompts()
    }

    /// Force everything appended so far. With group commit on, even
    /// control-path forces (abort, checkpoint, background, recovery) go
    /// through the group path with no gather window: they piggyback on
    /// any in-flight flush instead of stalling the log — and every
    /// appender with it — for the device latency.
    pub(crate) fn force_log(&self) -> Lsn {
        match &self.cfg.group_commit {
            None => self.log.force(),
            Some(_) => {
                Lsn(self
                    .log
                    .store()
                    .group_force(self.log.last().0, GatherWindow::none(), 1))
            }
        }
    }

    /// Force the log and publish the new EOSL + LWM to all DCs (this is
    /// how write-ahead logging and abLSN pruning work across the
    /// component boundary).
    pub fn force_and_publish(&self) {
        let eosl = self.force_log();
        let mut published = self.published.lock();
        self.publish_locked(&mut published, eosl);
    }

    /// [`Tc::force_and_publish`] for DCs that lost what was published
    /// (a rebooted DC, a TC-crash reset, a promoted replica): the
    /// low-water mark is re-broadcast even if it has not advanced.
    pub(crate) fn republish(&self) {
        let eosl = self.force_log();
        let mut published = self.published.lock();
        published.lwm = Lsn::NULL;
        self.publish_locked(&mut published, eosl);
    }

    /// Make the commit record at `lsn` durable and publish the frontier:
    /// a solo force + broadcast when group commit is off, otherwise the
    /// log's group-force path (lead or piggyback) with one EOSL/LWM
    /// publication per flush instead of per committer.
    pub(crate) fn force_commit(&self, lsn: Lsn) {
        match self.cfg.group_commit.clone() {
            None => self.force_and_publish(),
            Some(gc) => {
                let eosl = Lsn(self
                    .log
                    .store()
                    .group_force(lsn.0, gc.window, gc.max_waiters));
                // Coalesce: only the first committer per flush publishes.
                let mut published = self.published.lock();
                if published.eosl >= eosl {
                    TcStats::bump(&self.stats.publishes_coalesced);
                    return;
                }
                self.publish_locked(&mut published, eosl);
            }
        }
    }

    /// Broadcast the EOSL/LWM frontier. The caller holds the `published`
    /// lock, which serializes broadcasts so the frontier reaches every
    /// DC monotonically — and a frontier that raced past us is never
    /// un-published: we always broadcast the furthest known stable end.
    /// The low-water mark is broadcast only when it advanced (DCs keep
    /// the highest mark they were sent, so a repeat changes nothing).
    fn publish_locked(&self, published: &mut Published, eosl: Lsn) {
        let eosl = published.eosl.max(eosl);
        published.eosl = eosl;
        let mut lwm = self.session.acks.lwm().min(eosl);
        // Hold the GC floor at the oldest open pinned snapshot: version
        // chains at or above the published LWM are exact, so a pin must
        // never sink below it. Read the pins after the mark: a pin
        // registered too late for this read resolves its position after
        // the mark was computed, and so never lies below it.
        if let Some(oldest) = self.snapshot_pins.oldest() {
            lwm = lwm.min(oldest);
        }
        self.session
            .broadcast(TcToDc::EndOfStableLog { tc: self.id, eosl });
        if lwm > published.lwm {
            published.lwm = lwm;
            self.session
                .broadcast(TcToDc::LowWaterMark { tc: self.id, lwm });
        } else {
            TcStats::bump(&self.stats.lwm_skipped);
        }
        self.appends_since_force.store(0, Ordering::Relaxed);
    }

    fn maybe_background_force(&self) {
        let n = self.appends_since_force.fetch_add(1, Ordering::Relaxed) + 1;
        if n as usize >= self.cfg.force_every {
            self.force_and_publish();
        }
    }

    // ------------------------------------------------------------------
    // Transaction API
    // ------------------------------------------------------------------

    /// Start a transaction. Nothing is logged: a transaction that never
    /// writes has nothing to redo or undo, so it enters the log only
    /// with its first record ([`Tc::enter_log`]), and a read-only one
    /// never does.
    pub fn begin(&self) -> Result<TxnId, TcError> {
        self.ensure_available()?;
        let txn = self.txns.next_id();
        let st = TxnState {
            id: txn,
            span: obs::open_span("tc.txn", "txn", txn.0),
            ..TxnState::default()
        };
        self.txns.insert(txn, st);
        Ok(txn)
    }

    /// Fix `st`'s log truncation floor before it appends its first
    /// record. `last().next()` bounds that record's LSN from below, and
    /// the floor is set before the append: a checkpoint whose target
    /// covers the record therefore finds the floor when it computes
    /// what it may truncate.
    pub(crate) fn enter_log(&self, st: &Arc<Mutex<TxnState>>) {
        let mut g = st.lock();
        if g.first_lsn.is_none() {
            g.first_lsn = Some(self.log.last().next());
        }
    }

    pub(crate) fn txn_state(&self, txn: TxnId) -> Result<TxnRef, TcError> {
        self.txns.get(txn).ok_or(TcError::NotActive(txn))
    }

    pub(crate) fn token(txn: TxnId) -> LockToken {
        LockToken(txn.0)
    }

    pub(crate) fn lock_or_abort(
        &self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
    ) -> Result<(), TcError> {
        // Mark before asking: a request that fails still leaves wait
        // state the transaction's end must clear.
        let st = self.txn_state(txn).ok();
        if let Some(st) = &st {
            st.lock().locked = true;
        }
        match self
            .locks
            .lock_waited(Self::token(txn), name, mode, self.cfg.lock_timeout)
        {
            Ok(waited_ns) => {
                if let (Some(st), true) = (&st, waited_ns > 0) {
                    st.lock().lock_wait_ns += waited_ns;
                }
                Ok(())
            }
            Err(LockError::Deadlock) => {
                TcStats::bump(&self.stats.deadlock_aborts);
                self.rollback(txn)?;
                Err(TcError::Deadlock(txn))
            }
            Err(LockError::Timeout) => {
                self.rollback(txn)?;
                Err(TcError::LockTimeout(txn))
            }
        }
    }

    /// Edge lock name for key-range (phantom) protection: the next
    /// existing key, or the end-of-table sentinel.
    fn edge_lock(table: TableId, next_key: Option<&Key>) -> LockName {
        match next_key {
            Some(k) => LockName::Record(table, k.clone()),
            None => LockName::Range(table, u32::MAX),
        }
    }

    /// Send one unlogged request (read, scan or probe) to `dc` and wait
    /// for its result; a DC-side failure is reported against `txn`.
    fn ask(&self, txn: TxnId, dc: DcId, op: &LogicalOp) -> Result<(RequestId, OpResult), TcError> {
        let req = self.session.next_read();
        match self.session.send_op(dc, req, op, Path::Gated)? {
            Ok(result) => Ok((req, result)),
            Err(e) => Err(TcError::OperationFailed(txn, e)),
        }
    }

    /// [`Tc::ask`] for a point read. A reply of any other shape is a
    /// malformed or misrouted message from outside this process: the
    /// operation fails with [`TcError::UnexpectedReply`].
    fn ask_value(&self, txn: TxnId, dc: DcId, op: &LogicalOp) -> Result<Option<Vec<u8>>, TcError> {
        match self.ask(txn, dc, op)? {
            (_, OpResult::Value(v)) => Ok(v),
            (req, _) => Err(TcError::UnexpectedReply { dc, req }),
        }
    }

    /// [`Tc::ask`] for a range scan (see [`Tc::ask_value`]).
    fn ask_entries(
        &self,
        txn: TxnId,
        dc: DcId,
        op: &LogicalOp,
    ) -> Result<Vec<(Key, Vec<u8>)>, TcError> {
        match self.ask(txn, dc, op)? {
            (_, OpResult::Entries(e)) => Ok(e),
            (req, _) => Err(TcError::UnexpectedReply { dc, req }),
        }
    }

    /// [`Tc::ask`] for a key probe (see [`Tc::ask_value`]).
    fn ask_keys(&self, txn: TxnId, dc: DcId, op: &LogicalOp) -> Result<Vec<Key>, TcError> {
        match self.ask(txn, dc, op)? {
            (_, OpResult::Keys(k)) => Ok(k),
            (req, _) => Err(TcError::UnexpectedReply { dc, req }),
        }
    }

    /// Known value of a key under lock (from the transaction's read
    /// cache, or fetched now).
    fn known_value(
        &self,
        st: &Arc<Mutex<TxnState>>,
        dc: DcId,
        table: TableId,
        key: &Key,
    ) -> Result<Option<Vec<u8>>, TcError> {
        let txn = {
            let g = st.lock();
            if let Some(v) = g.cache.get(&(table, key.clone())) {
                return Ok(v.clone());
            }
            g.id
        };
        let op = LogicalOp::Read {
            table,
            key: key.clone(),
            flavor: ReadFlavor::Latest,
        };
        let value = self.ask_value(txn, dc, &op)?;
        st.lock().cache.insert((table, key.clone()), value.clone());
        Ok(value)
    }

    pub(crate) fn mutate(&self, txn: TxnId, op: LogicalOp) -> Result<(), TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        let table = op.table();
        let key = op.point_key().expect("point mutation").clone();
        let point = unbundled_core::route_point(&key);
        // Sharded transaction service: a key owned by another TC shard is
        // forwarded to it and executed there as a participant branch of
        // this transaction (locked, logged and sent by the owner — only
        // the owning shard ever locks a key).
        loop {
            if let Some(owner) = self.shard_owner(&key) {
                if st.lock().part_of.is_some() {
                    // A participant branch never chain-forwards: the map
                    // moved under the coordinator's forward. Reject without
                    // touching the branch; the coordinator re-routes.
                    return Err(TcError::StaleShardMap {
                        tc: self.id,
                        epoch: self.map_epoch(),
                    });
                }
                return self.forward_mutate(txn, &st, owner, op);
            }
            // Elastic rebalance: block (bounded) behind a fence over a
            // moving range this op would enter; records the op's shard
            // point so the drain sees this transaction. A `false` pass
            // means the op slept on a fence that resolved — the range
            // may have moved away while it slept, so re-resolve the
            // owner under the republished map instead of executing
            // under lapsed authority.
            if self.fence_pass(txn, &st, point)? {
                break;
            }
        }
        // Locally owned mutation (forwards were handled above, and a
        // forwarded op re-enters `mutate` at its owner): feed the key
        // sketch the rebalance policy splits by. Traffic-weighted on
        // purpose — every executed mutation is one sample.
        self.stats.keys.record(point);
        let dc = self.session.dc_for(table, &key)?;

        // --- Locking, always before the LSN is drawn (OPSR).
        self.lock_or_abort(txn, LockName::Table(table), LockMode::IX)?;
        match (&self.cfg.scan_protocol, &op) {
            (ScanProtocol::StaticRanges(p), _) => {
                // Static range locks: every mutation intends-to-write its
                // partition; scans take S on partitions, blocking writers.
                let part = p.partition_of(&key);
                self.lock_or_abort(txn, LockName::Range(table, part), LockMode::IX)?;
            }
            (ScanProtocol::FetchAhead { .. }, LogicalOp::Insert { .. })
            | (ScanProtocol::FetchAhead { .. }, LogicalOp::VersionedWrite { .. }) => {
                // Next-key (instant) lock: serializes against scans that
                // locked the edge of the gap this insert lands in.
                let probe = LogicalOp::ProbeKeys {
                    table,
                    from: key.successor(),
                    count: 1,
                };
                let next = self.ask_keys(txn, dc, &probe)?.into_iter().next();
                let name = Self::edge_lock(table, next.as_ref());
                self.lock_or_abort(txn, name.clone(), LockMode::X)?;
                self.locks.unlock(Self::token(txn), &name); // instant duration
            }
            _ => {}
        }
        self.lock_or_abort(txn, LockName::Record(table, key.clone()), LockMode::X)?;

        // --- Log, then send. The record is the redo form only: the
        // write's undo is a revert of the version it makes.
        self.enter_log(&st);
        let lsn = self.log_op_record(TcLogRecord::Op {
            txn,
            dc,
            op: op.clone(),
        });
        self.maybe_background_force();
        match self
            .session
            .send_op(dc, RequestId::Op(lsn), &op, Path::Gated)?
        {
            Ok(_) => {
                let mut g = st.lock();
                g.touched.insert(dc);
                // Maintain the read cache for later locking reads.
                let cached: Option<Vec<u8>> = match &op {
                    LogicalOp::Insert { value, .. }
                    | LogicalOp::Update { value, .. }
                    | LogicalOp::VersionedWrite { value, .. } => Some(value.clone()),
                    LogicalOp::Delete { .. } => None,
                    _ => None,
                };
                g.cache.insert((table, key.clone()), cached);
                g.writes.insert((dc, table, key), lsn);
                Ok(())
            }
            Err(e) => {
                drop(st);
                self.rollback(txn)?;
                Err(TcError::OperationFailed(txn, e))
            }
        }
    }

    /// Insert a record.
    pub fn insert(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        value: Vec<u8>,
    ) -> Result<(), TcError> {
        self.mutate(txn, LogicalOp::Insert { table, key, value })
    }

    /// Replace a record's payload.
    pub fn update(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        value: Vec<u8>,
    ) -> Result<(), TcError> {
        self.mutate(txn, LogicalOp::Update { table, key, value })
    }

    /// Delete a record.
    pub fn delete(&self, txn: TxnId, table: TableId, key: Key) -> Result<(), TcError> {
        self.mutate(txn, LogicalOp::Delete { table, key })
    }

    /// Insert-or-update: writes the record whether or not it exists.
    /// Stamped on commit and reverted on abort like every write.
    pub fn versioned_write(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        value: Vec<u8>,
    ) -> Result<(), TcError> {
        self.mutate(txn, LogicalOp::VersionedWrite { table, key, value })
    }

    /// Transactional point read at an explicit [`ReadConsistency`] —
    /// the single read surface of the TC. The caller states the
    /// guarantee it needs; primary-vs-replica and locked-vs-versioned
    /// routing is TC policy:
    ///
    /// * [`ReadConsistency::Locking`] — serializable S-lock read on the
    ///   primary (blocks on and is blocked by writers).
    /// * [`ReadConsistency::Snapshot`] — lock-free MVCC read on the
    ///   primary at the resolved snapshot LSN ([`SnapshotSpec::Pinned`]
    ///   pins the transaction's snapshot at first use). Under a shard
    ///   map, a key owned by another TC shard is served at *that*
    ///   shard's fresh snapshot position (LSN spaces are per-shard, so
    ///   a pinned local LSN is meaningless there).
    /// * [`ReadConsistency::BoundedLag`] / [`ReadConsistency::AtLeast`]
    ///   — replica read when one covers the required frontier, else a
    ///   lock-free fresh snapshot read on the primary (never an S lock:
    ///   a contended fallback must not block behind writers).
    /// * [`ReadConsistency::Committed`] / [`ReadConsistency::Dirty`] —
    ///   served straight by the routed DC: no lock, no pin, no shard
    ///   forwarding (Figure 2's reader TC).
    pub fn read(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        consistency: ReadConsistency,
    ) -> Result<Option<Vec<u8>>, TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        match consistency {
            ReadConsistency::Locking => self.read_locking(txn, &st, table, key),
            ReadConsistency::Snapshot(spec) => {
                if let Some(owner) = self.shard_owner(&key) {
                    let peer = self.peer_tc(owner).ok_or(TcError::NoSuchTc(owner))?;
                    let at = ReadFlavor::Snapshot(peer.fresh_snapshot());
                    return peer.read_flavor(txn, table, key, at);
                }
                let at = ReadFlavor::Snapshot(self.resolve_snapshot(&st, spec));
                self.read_flavor(txn, table, key, at)
            }
            ReadConsistency::BoundedLag(lag) => {
                let required = Lsn(self.log.stable().0.saturating_sub(lag));
                self.replica_or_snapshot_read(txn, table, key, required)
            }
            ReadConsistency::AtLeast(l) => self.replica_or_snapshot_read(txn, table, key, l),
            ReadConsistency::Committed => self.read_flavor(txn, table, key, ReadFlavor::Committed),
            ReadConsistency::Dirty => self.read_flavor(txn, table, key, ReadFlavor::Latest),
        }
    }

    /// The serializable locking read path (S record lock, read cache,
    /// cross-shard forwarding).
    fn read_locking(
        &self,
        txn: TxnId,
        st: &Arc<Mutex<TxnState>>,
        table: TableId,
        key: Key,
    ) -> Result<Option<Vec<u8>>, TcError> {
        loop {
            if let Some(owner) = self.shard_owner(&key) {
                if st.lock().part_of.is_some() {
                    return Err(TcError::StaleShardMap {
                        tc: self.id,
                        epoch: self.map_epoch(),
                    });
                }
                return self.forward_read(txn, st, owner, table, key);
            }
            // See `mutate`: a false pass re-resolves the owner after a
            // fence this op slept on resolved (the range may have moved).
            if self.fence_pass(txn, st, unbundled_core::route_point(&key))? {
                break;
            }
        }
        let dc = self.session.dc_for(table, &key)?;
        self.lock_or_abort(txn, LockName::Table(table), LockMode::IS)?;
        self.lock_or_abort(txn, LockName::Record(table, key.clone()), LockMode::S)?;
        TcStats::bump(&self.stats.lock_reads);
        self.known_value(st, dc, table, &key)
    }

    /// The newest position a snapshot may read at: stable, and at or
    /// below the visible frontier, so every commit at or below it has
    /// all of its stamps delivered. A commit is stable before its
    /// stamps go out; between the force and the last stamp its LSN is
    /// above the frontier, so a snapshot sees it whole or not at all.
    pub fn visible_lsn(&self) -> Lsn {
        self.log.stable().min(self.session.acks.visible())
    }

    /// The position a fresh snapshot reads at: [`Tc::visible_lsn`],
    /// once the stamps of every commit already stable are delivered
    /// (a wait of one stamp round, bounded by the resend interval), so
    /// the snapshot covers every commit acknowledged before the read
    /// began — the reader's own last commit included.
    pub(crate) fn fresh_snapshot(&self) -> Lsn {
        let target = self.log.stable();
        let deadline = Instant::now() + self.cfg.resend_interval;
        while self.session.acks.visible() < target && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.visible_lsn()
    }

    /// Resolve which LSN a snapshot read observes; `Pinned` fixes the
    /// transaction's snapshot on first use.
    fn resolve_snapshot(&self, st: &TxnRef, spec: SnapshotSpec) -> Lsn {
        match spec {
            SnapshotSpec::At(l) => l,
            SnapshotSpec::Fresh => self.fresh_snapshot(),
            SnapshotSpec::Pinned => {
                let mut g = st.lock();
                match g.snapshot {
                    Some((l, _)) => l,
                    None => {
                        // Pin before resolving: a low-water mark computed
                        // before the pin is visible was computed before
                        // the position, so it never exceeds it.
                        let stripe = self.snapshot_pins.pin(Lsn::NULL);
                        let l = self.fresh_snapshot();
                        self.snapshot_pins.repin(stripe, Lsn::NULL, l);
                        g.snapshot = Some((l, stripe));
                        l
                    }
                }
            }
        }
    }

    /// Lock-free point read served by the routed DC at `flavor`: what
    /// every level but `Locking` comes down to, here or at the owning
    /// shard.
    fn read_flavor(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        flavor: ReadFlavor,
    ) -> Result<Option<Vec<u8>>, TcError> {
        if let ReadFlavor::Snapshot(_) = flavor {
            TcStats::bump(&self.stats.snapshot_reads);
        }
        let dc = self.session.dc_for(table, &key)?;
        self.ask_value(txn, dc, &LogicalOp::Read { table, key, flavor })
    }

    /// Serializable range scan under the configured Section 3.1
    /// protocol: [`Tc::scan_with`] at [`ReadConsistency::Locking`].
    pub fn scan(
        &self,
        txn: TxnId,
        table: TableId,
        low: Key,
        high: Option<Key>,
        limit: Option<usize>,
    ) -> Result<Vec<(Key, Vec<u8>)>, TcError> {
        self.scan_with(txn, table, low, high, limit, ReadConsistency::Locking)
    }

    /// Range scan at an explicit [`ReadConsistency`], the scan half of
    /// the read surface ([`Tc::read`]). `Locking` runs the configured
    /// Section 3.1 protocol; every other level takes no lock and asks
    /// the routed DCs for the flavor it names. `Snapshot` scans at the
    /// resolved snapshot LSN; the replica levels scan the primary at a
    /// fresh snapshot, the same fallback a replica-level point read
    /// takes.
    pub fn scan_with(
        &self,
        txn: TxnId,
        table: TableId,
        low: Key,
        high: Option<Key>,
        limit: Option<usize>,
        consistency: ReadConsistency,
    ) -> Result<Vec<(Key, Vec<u8>)>, TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        let flavor = match consistency {
            ReadConsistency::Locking => {
                self.lock_or_abort(txn, LockName::Table(table), LockMode::IS)?;
                match &self.cfg.scan_protocol {
                    ScanProtocol::StaticRanges(p) => {
                        // Lock every partition the range touches; those
                        // S locks cover the scan, which takes no record
                        // locks.
                        for part in p.partitions_overlapping(&low, high.as_ref()) {
                            self.lock_or_abort(txn, LockName::Range(table, part), LockMode::S)?;
                        }
                        ReadFlavor::Latest
                    }
                    ScanProtocol::FetchAhead { batch } => {
                        return self.fetch_ahead(txn, table, &low, high.as_ref(), limit, *batch);
                    }
                }
            }
            ReadConsistency::Snapshot(s) => ReadFlavor::Snapshot(self.resolve_snapshot(&st, s)),
            ReadConsistency::BoundedLag(_) | ReadConsistency::AtLeast(_) => {
                ReadFlavor::Snapshot(self.fresh_snapshot())
            }
            ReadConsistency::Committed => ReadFlavor::Committed,
            ReadConsistency::Dirty => ReadFlavor::Latest,
        };
        let route = self.session.route(table)?;
        let mut out = Vec::new();
        for dc in route.dcs_for_range(&low, high.as_ref()) {
            let remaining = limit.map(|l| l.saturating_sub(out.len()));
            if remaining == Some(0) {
                break;
            }
            let op = LogicalOp::ScanRange {
                table,
                low: low.clone(),
                high: high.clone(),
                limit: remaining,
                flavor,
            };
            out.extend(self.ask_entries(txn, dc, &op)?);
        }
        Ok(out)
    }

    /// The fetch-ahead protocol (Section 3.1): probe keys speculatively,
    /// lock them (plus the range edge), verify by re-probing, then read.
    fn fetch_ahead(
        &self,
        txn: TxnId,
        table: TableId,
        low: &Key,
        high: Option<&Key>,
        limit: Option<usize>,
        batch: usize,
    ) -> Result<Vec<(Key, Vec<u8>)>, TcError> {
        let route = self.session.route(table)?;
        let mut out: Vec<(Key, Vec<u8>)> = Vec::new();
        'dcs: for dc in route.dcs_for_range(low, high) {
            let mut from = low.clone();
            loop {
                if limit.map(|l| out.len() >= l).unwrap_or(false) {
                    break 'dcs;
                }
                // Probe + lock until stable (bounded retries).
                let mut retries = 0;
                let keys = loop {
                    let keys = self.probe(dc, table, &from, batch)?;
                    for k in &keys {
                        let in_range = high.map(|h| k < h).unwrap_or(true);
                        let name = if in_range {
                            LockName::Record(table, k.clone())
                        } else {
                            // First key at/after the bound is the edge.
                            Self::edge_lock(table, Some(k))
                        };
                        self.lock_or_abort(txn, name, LockMode::S)?;
                        if !in_range {
                            break;
                        }
                    }
                    if keys.len() < batch {
                        // End of table: lock the EOT edge.
                        self.lock_or_abort(txn, Self::edge_lock(table, None), LockMode::S)?;
                    }
                    // Verify the speculation: the key set must not have
                    // changed between probe and locks.
                    let again = self.probe(dc, table, &from, batch)?;
                    if again == keys {
                        break keys;
                    }
                    retries += 1;
                    if retries > 16 {
                        self.rollback(txn)?;
                        return Err(TcError::LockTimeout(txn));
                    }
                };
                let in_range: Vec<&Key> = keys
                    .iter()
                    .filter(|k| **k >= from && high.map(|h| *k < h).unwrap_or(true))
                    .collect();
                if !in_range.is_empty() {
                    // Read the locked collection in one request.
                    let upper = in_range.last().unwrap().successor();
                    let op = LogicalOp::ScanRange {
                        table,
                        low: from.clone(),
                        high: Some(upper.clone()),
                        limit: None,
                        flavor: ReadFlavor::Latest,
                    };
                    out.extend(self.ask_entries(txn, dc, &op)?);
                    from = upper;
                }
                if keys.len() < batch || keys.iter().any(|k| high.map(|h| k >= h).unwrap_or(false))
                {
                    break; // exhausted this DC's range
                }
            }
        }
        if let Some(l) = limit {
            out.truncate(l);
        }
        Ok(out)
    }

    fn probe(
        &self,
        dc: DcId,
        table: TableId,
        from: &Key,
        count: usize,
    ) -> Result<Vec<Key>, TcError> {
        let op = LogicalOp::ProbeKeys {
            table,
            from: from.clone(),
            count,
        };
        self.ask_keys(TxnId(0), dc, &op)
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit: force the commit record (durability) — solo or via group
    /// commit — then deliver the commit stamps, then release locks. A
    /// transaction with branches at other TC shards goes through
    /// two-phase commit over the shards' redo logs instead (the forced
    /// [`TcLogRecord::CommitDecision`] is its commit point).
    pub fn commit(&self, txn: TxnId) -> Result<(), TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        let (txn_span, cross) = {
            let g = st.lock();
            (g.span, !g.remotes.is_empty())
        };
        // Parent everything the commit does under the transaction's
        // span, and collect the per-stage time lower layers measure
        // (gather/force in the log, apply at the DCs) while this thread
        // drives the commit.
        let _ctx = obs::ctx(txn_span);
        let _span = obs::span1("tc.commit", "txn", txn.0);
        let scope = obs::stage::commit_scope();
        let started = std::time::Instant::now();
        let result = if cross {
            self.commit_cross(txn)
        } else {
            self.commit_local(txn, &st)
        };
        if result.is_ok() {
            let total_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let stages = scope.totals();
            // The 2PC residual is coordination time not already
            // attributed to gather/force/apply (prepare and decision
            // forces land in those stages via the inline transport);
            // local commits record a zero so every histogram sees the
            // same commit population and stage p50s sum meaningfully.
            let twopc_ns = if cross {
                total_ns
                    .saturating_sub(stages.gather_ns)
                    .saturating_sub(stages.force_ns)
                    .saturating_sub(stages.apply_ns)
            } else {
                0
            };
            self.stats.commit_ns.record_ns(total_ns);
            self.stats
                .stage_lock_wait_ns
                .record_ns(st.lock().lock_wait_ns);
            self.stats.stage_gather_wait_ns.record_ns(stages.gather_ns);
            self.stats.stage_force_ns.record_ns(stages.force_ns);
            self.stats.stage_dc_apply_ns.record_ns(stages.apply_ns);
            self.stats.stage_twopc_ns.record_ns(twopc_ns);
        }
        result
    }

    /// Single-shard commit (the classical path).
    fn commit_local(&self, txn: TxnId, st: &Arc<Mutex<TxnState>>) -> Result<(), TcError> {
        // Read-only fast path: a transaction that logged nothing has
        // nothing to make durable, publish or undo, so it commits
        // without touching the log. Snapshot readers therefore pay
        // neither locks nor a log record.
        if st.lock().first_lsn.is_some() {
            // Single-shard transactions need no 2PC: once the commit
            // group is stable the transaction IS committed, and the
            // stamps publish it — to snapshot readers and (Section
            // 6.2.2's "eliminate the before versions") to read-committed
            // readers at other TCs. Delivery is synchronous and under
            // the transaction's X locks. Snapshot readers take no locks;
            // they resolve to the visible frontier (`Tc::visible_lsn`),
            // which stays below this commit's LSN until its last stamp
            // is delivered, so none sees it torn.
            let writes = std::mem::take(&mut st.lock().writes);
            let (commit, stamps) = self.log_commit(txn, writes, TcLogRecord::Commit { txn });
            self.deliver_commit(commit, &stamps)?;
        }
        self.finish_commit_local(txn, st);
        Ok(())
    }

    /// Append a commit as one log group: a redo-only
    /// [`LogicalOp::StampCommit`] per key in `writes` (the transaction's
    /// last write per key — displaced intermediates are never stamped),
    /// then `resolution` (`Commit`, `CommitDecision` or
    /// `ParticipantCommit`), whose LSN every stamp carries. No force and
    /// no crash can separate a stable resolution record from its stamps,
    /// so recovery redoes them like any other logged record. Returns the
    /// resolution LSN and the stamps to deliver.
    pub(crate) fn log_commit(
        &self,
        txn: TxnId,
        writes: WriteSet,
        resolution: TcLogRecord,
    ) -> (Lsn, Vec<(DcId, Lsn, LogicalOp)>) {
        let mut writes: Vec<_> = writes.into_iter().collect();
        writes.sort_by_key(|&(_, l)| l);
        let n = writes.len() as u64;
        let mut stamps = Vec::with_capacity(writes.len());
        let _g = self.alloc.lock();
        let first = self.log.append_group(|first| {
            let commit = Lsn(first.0 + n);
            let mut recs = Vec::with_capacity(writes.len() + 1);
            for (l, ((dc, table, key), op)) in (first.0..).zip(writes) {
                let op = LogicalOp::StampCommit {
                    table,
                    key,
                    op,
                    commit,
                };
                stamps.push((dc, Lsn(l), op.clone()));
                recs.push(TcLogRecord::RedoOnly { txn, dc, op });
            }
            recs.push(resolution);
            recs
        });
        for (_, l, _) in &stamps {
            self.session.acks.stamp_sent(*l);
        }
        let commit = Lsn(first.0 + n);
        self.session.acks.bookkeeping(commit);
        (commit, stamps)
    }

    /// Make the commit group ending at `commit` durable, then deliver its
    /// stamps (write-ahead: after the force), under the committing
    /// transaction's still-held locks. A stamp whose record was
    /// meanwhile truncated away at the DC is a deterministic no-op
    /// there.
    pub(crate) fn deliver_commit(
        &self,
        commit: Lsn,
        stamps: &[(DcId, Lsn, LogicalOp)],
    ) -> Result<(), TcError> {
        self.force_commit(commit);
        for (dc, l, op) in stamps {
            TcStats::bump(&self.stats.stamps_sent);
            self.send_redo_only(*dc, *l, op, Path::Gated)?;
        }
        Ok(())
    }

    /// Send the redo-only record at `lsn` (a stamp or a revert). A DC
    /// that answers it with an error has not met the contract — the
    /// version stays unpublished or un-reverted — so the rejection is
    /// counted (`tc.redo_only_rejects`) rather than discarded.
    pub(crate) fn send_redo_only(
        &self,
        dc: DcId,
        lsn: Lsn,
        op: &LogicalOp,
        path: Path<'_>,
    ) -> Result<(), TcError> {
        if self
            .session
            .send_op(dc, RequestId::Op(lsn), op, path)?
            .is_err()
        {
            TcStats::bump(&self.stats.redo_only_rejects);
        }
        Ok(())
    }

    /// Undo `txn`'s writes: one redo-only [`LogicalOp::RevertVersion`]
    /// per key in `writes`, newest first, each naming the key's last
    /// write LSN. Logged like compensation records, so recovery repeats
    /// them but never undoes them. A run-time rollback (`Path::Gated`)
    /// counts toward the background force; recovery forces once after
    /// its whole undo pass.
    pub(crate) fn revert_writes(
        &self,
        txn: TxnId,
        writes: WriteSet,
        path: Path<'_>,
    ) -> Result<(), TcError> {
        let mut writes: Vec<_> = writes.into_iter().collect();
        writes.sort_by_key(|&(_, l)| std::cmp::Reverse(l));
        for ((dc, table, key), op) in writes {
            let revert = LogicalOp::RevertVersion { table, key, op };
            let l = self.log_op_record(TcLogRecord::RedoOnly {
                txn,
                dc,
                op: revert.clone(),
            });
            if let Path::Gated = path {
                self.maybe_background_force();
            }
            TcStats::bump(&self.stats.undo_ops);
            self.send_redo_only(dc, l, &revert, path)?;
        }
        Ok(())
    }

    /// Post-commit-point work shared by single-shard commit, cross-TC
    /// coordinator commit and participant decision-apply: lock release
    /// and state removal, once the stamps are delivered.
    pub(crate) fn finish_commit_local(&self, txn: TxnId, st: &TxnRef) {
        self.unlock_all(txn, st);
        self.release_pin(st);
        self.txns.remove(txn);
        obs::close_span(st.lock().span, "tc.txn");
        TcStats::bump(&self.stats.commits);
    }

    /// Release `txn`'s locks; a transaction that never asked for one
    /// (a snapshot reader) skips the lock manager.
    fn unlock_all(&self, txn: TxnId, st: &TxnRef) {
        if st.lock().locked {
            self.locks.unlock_all(Self::token(txn));
        }
    }

    /// Drop a transaction's pinned-snapshot registration (if any) so the
    /// published low-water mark may advance past it.
    pub(crate) fn release_pin(&self, st: &TxnRef) {
        let pin = st.lock().snapshot.take();
        if let Some((at, stripe)) = pin {
            self.snapshot_pins.unpin(stripe, at);
        }
    }

    /// Abort: revert every version the transaction wrote, then release
    /// locks.
    pub fn abort(&self, txn: TxnId) -> Result<(), TcError> {
        self.ensure_available()?;
        self.rollback(txn)
    }

    /// Roll back `txn`. A cross-TC coordinator additionally aborts every
    /// participant branch; a participant branch resolves with a
    /// [`TcLogRecord::ParticipantAbort`] instead of a plain Abort so
    /// recovery knows its in-doubt window is closed.
    pub(crate) fn rollback(&self, txn: TxnId) -> Result<(), TcError> {
        let st = match self.txns.remove(txn) {
            Some(st) => st,
            None => return Err(TcError::NotActive(txn)),
        };
        self.release_pin(&st);
        let part_of = st.lock().part_of;
        if let Some(key) = part_of {
            self.participants.lock().remove(&key);
        }
        // Coordinator role: tell every participant shard to abort its
        // branch before (or regardless of) the local undo — presumed
        // abort, so a participant that never hears this still resolves
        // correctly by asking.
        let remotes: Vec<TcId> = std::mem::take(&mut st.lock().remotes).into_iter().collect();
        for r in remotes {
            if let Some(peer) = self.peer_tc(r) {
                peer.decide_participant(self.id, txn, false);
            }
        }
        let writes = std::mem::take(&mut st.lock().writes);
        self.revert_writes(txn, writes, Path::Gated)?;
        // A transaction that logged nothing (it only read, or only
        // forwarded to other shards) has nothing to resolve in the log.
        if st.lock().first_lsn.is_some() {
            if part_of.is_some() {
                self.log_bookkeeping(TcLogRecord::ParticipantAbort { txn });
            } else {
                self.log_bookkeeping(TcLogRecord::Abort { txn });
            }
            self.force_and_publish();
        }
        self.unlock_all(txn, &st);
        obs::close_span(st.lock().span, "tc.txn");
        TcStats::bump(&self.stats.aborts);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint (contract termination, Section 4.2)
    // ------------------------------------------------------------------

    /// Advance the redo scan start point: ask every DC to make pages
    /// containing pre-`target` operations stable, record the granted
    /// RSSP, and truncate the log prefix no longer needed for redo *or*
    /// undo. Returns the new RSSP.
    ///
    /// Concurrent checkpoints each get their own DC replies (the session
    /// runs one checkpoint exchange at a time), and the RSSP never moves
    /// back: a DC may grant less than an earlier checkpoint did (a page
    /// it could not flush yet), but what the earlier grant made stable
    /// stays so. The target stops at the low-water mark: an operation
    /// logged below the target but not yet applied would otherwise land
    /// on a page after the DC checkpointed it, under the granted RSSP.
    pub fn checkpoint(&self) -> Result<Lsn, TcError> {
        self.ensure_available()?;
        let target = self.log.last().next().min(self.session.acks.lwm().next());
        self.force_and_publish();
        let mut granted = target;
        for dc in self.session.dcs() {
            let reply = self.session.checkpoint(dc, target)?;
            granted = granted.min(reply.unwrap_or(self.rssp()));
        }
        self.log_bookkeeping(TcLogRecord::Checkpoint { rssp: granted });
        self.force_log();
        let granted = Lsn(self.rssp.fetch_max(granted.0, Ordering::Relaxed)).max(granted);
        // Truncation floor: redo needs ≥ RSSP, undo needs every record of
        // a still-active transaction (from its first, see
        // `Tc::enter_log`; one that logged nothing needs none), and
        // replication needs everything a
        // registered replica has not durably consumed (plus buffered
        // operations of transactions whose outcome is not yet shipped) —
        // a replica that reboots, or a TC that reboots and rebuilds its
        // shipper by re-scanning the log, must find those records.
        let oldest_active = self
            .txns
            .all()
            .iter()
            .filter_map(|(_, st)| st.lock().first_lsn)
            .min()
            .unwrap_or(granted);
        let mut keep_from = granted.min(oldest_active);
        if let Some(floor) = self.shipper.replication_floor() {
            keep_from = keep_from.min(floor);
        }
        // Cross-TC: a commit decision not yet acknowledged by every
        // participant must stay readable — an in-doubt participant
        // resolves by re-reading it from this log. (Prepared participant
        // branches are already pinned via oldest_active: they stay in
        // `txns` until the decision arrives.)
        if let Some(floor) = self.twopc_floor() {
            keep_from = keep_from.min(floor);
        }
        if keep_from.0 > 1 {
            self.log.store().truncate_prefix(keep_from.0 - 1);
        }
        TcStats::bump(&self.stats.checkpoints);
        Ok(granted)
    }

    /// Current redo scan start point.
    pub fn rssp(&self) -> Lsn {
        Lsn(self.rssp.load(Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Replication: log shipping, bounded-staleness reads, failover
    // ------------------------------------------------------------------

    /// Register `replica` as a read-only follower of primary `of`,
    /// reachable over `link`. The replica receives committed redo as
    /// [`TcToDc::ShipBatch`] datagrams once [`Tc::ship_now`] (or the
    /// kernel's replication pump) runs. Register replicas before the
    /// first truncating checkpoint — the shipper pins truncation to what
    /// registered replicas still need, but cannot resurrect records
    /// truncated before registration.
    pub fn register_replica(&self, replica: DcId, of: DcId, link: Arc<dyn DcLink>) {
        self.shipper.register(replica, &[of], link);
    }

    /// [`Tc::register_replica`] with an explicit primary lineage (used
    /// when rebuilding a TC that had driven promotions: followers of a
    /// promoted primary replay ops logged against every id in the
    /// chain).
    pub fn register_replica_lineage(&self, replica: DcId, sources: &[DcId], link: Arc<dyn DcLink>) {
        self.shipper.register(replica, sources, link);
    }

    /// Scan newly stable committed redo into the replication stream and
    /// ship every registered replica's backlog (resending unacked slices
    /// whose cursor stalled past the resend interval). Returns the ship
    /// frontier. Cheap no-op without registered replicas.
    pub fn ship_now(&self) -> Lsn {
        if !self.available.load(Ordering::Acquire) {
            return self.log.stable();
        }
        self.shipper.ship(
            self.id,
            self.log.store(),
            self.cfg.resend_interval,
            &self.stats,
        )
    }

    /// True if any replica is registered.
    pub fn has_replicas(&self) -> bool {
        self.shipper.has_replicas()
    }

    /// Per-replica freshness: applied/durable frontiers vs. the ship
    /// frontier (experiment and application introspection).
    pub fn replica_lag(&self) -> Vec<ReplicaLag> {
        self.shipper.lags()
    }

    /// Committed point read with bounded-staleness routing: serve from
    /// any replica of the hosting primary whose applied frontier covers
    /// `required`, rotating across qualifying replicas; stale (or
    /// failed) replicas fall back to a lock-free fresh snapshot read on
    /// the primary. Replica state contains only
    /// committed, never-rolled-back data by construction (uncommitted
    /// work is withheld from the ship stream), so no staleness setting
    /// can surface dirty data.
    fn replica_or_snapshot_read(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        required: Lsn,
    ) -> Result<Option<Vec<u8>>, TcError> {
        let primary = self.session.dc_for(table, &key)?;
        let ticket = self.replica_rr.fetch_add(1, Ordering::Relaxed);
        if let Some((replica, link)) =
            self.shipper
                .pick_replica(self.session.resolve_dc(primary), required, ticket)
        {
            TcStats::bump(&self.stats.replica_reads);
            let op = LogicalOp::Read {
                table,
                key: key.clone(),
                flavor: ReadFlavor::Latest,
            };
            let req = self.session.next_read();
            // Replica failed, refused or answered out of shape: fall
            // back to the primary.
            if let Ok(Ok(OpResult::Value(v))) =
                self.session.send_op(replica, req, &op, Path::Via(&link))
            {
                return Ok(v);
            }
        }
        TcStats::bump(&self.stats.replica_read_fallbacks);
        // The primary fallback is a fresh *snapshot* read: it sees every
        // commit the replica path could have seen (`required` is at most
        // the stable LSN, and the fresh position covers it once the
        // stamps below it are delivered), but — unlike the instant S
        // lock this path once took — it never queues behind a writer's
        // X lock.
        self.read_flavor(txn, table, key, ReadFlavor::Snapshot(self.fresh_snapshot()))
    }

    /// Failover: promote read-only replica `new` to writable primary for
    /// deposed primary `old`'s partition.
    ///
    /// 1. **Fence** — `old` is told to reject all future mutations, so a
    ///    deposed primary that comes back cannot diverge.
    /// 2. **Re-point** — `old`'s id aliases to `new`; in-flight resends
    ///    and recovery traffic addressed to the old id reach the
    ///    promoted DC, and surviving replicas of `old` extend their
    ///    lineage to follow `new`.
    /// 3. **Catch up** — the ordinary restart conversation plus logical
    ///    redo replays *every* retained log record of the partition into
    ///    the promoted DC (replication truncation pinning guarantees the
    ///    log still holds whatever any replica lacks); records it
    ///    already applied via shipping are suppressed by the abstract-LSN
    ///    test. Acknowledged commits therefore survive with full
    ///    durability even when the old primary died mid-replication.
    /// 4. **Re-route** — table routes mapping to `old` now map to `new`;
    ///    subsequent operations log and route against the new id.
    pub fn promote_replica(&self, old: DcId, new: DcId) -> Result<(), TcError> {
        self.ensure_available()?;
        let new_link = self
            .shipper
            .replica_link(new)
            .ok_or(TcError::NoSuchDc(new))?;
        TcStats::bump(&self.stats.promotions);
        // Quiesce normal traffic addressed to the deposed primary while
        // links and routes are re-pointed.
        self.session.gate(old);
        let result = self.promote_inner(old, new, new_link);
        self.session.ungate(old);
        result
    }

    /// Write-ahead the failover intent and force it. Logged *before* the
    /// fence so a TC crash anywhere mid-promotion no longer loses the
    /// failover: recovery finds the intent without a matching
    /// [`TcLogRecord::Promote`] and re-drives the promotion.
    pub fn promote_write_intent(&self, old: DcId, new: DcId) {
        self.log_bookkeeping(TcLogRecord::PromoteIntent { old, new });
        self.force_log();
    }

    fn promote_inner(
        &self,
        old: DcId,
        new: DcId,
        new_link: Arc<dyn DcLink>,
    ) -> Result<(), TcError> {
        self.promote_write_intent(old, new);
        // Fence first: no write may land at the old primary after the
        // new one starts accepting them. Best effort if old is down —
        // the deployment re-fences a fenced node on reboot.
        if let Ok(old_link) = self.session.link(old) {
            old_link.send(TcToDc::Fence { tc: self.id });
        }
        // Catch up the *stream* while `new` is still a replica: the ship
        // path covers all resolved history (committed effects applied;
        // rolled-back work correctly absent). Raw log replay of resolved
        // history is forbidden — the replica's abLSN has holes at
        // rolled-back operations, and re-executing one of those against
        // newer state (e.g. a compensation whose first delivery failed)
        // would corrupt the copy.
        let stable = self.log.stable();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            // Expect the next ack before shipping: an inline link
            // delivers it during the send.
            let ack = self.session.control.expect((new, Control::ShipAck));
            let end = self.ship_now();
            match self.shipper.applied_of(new) {
                Some(applied) if applied >= end => break,
                None => break, // unregistered (already promoted?)
                _ => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TcError::DcUnreachable(new));
            }
            // No ack within the resend interval: re-ship (the shipper
            // resends from a stalled cursor).
            ack.wait((now + self.cfg.resend_interval).min(deadline));
        }
        // Operations whose outcome the stream does not know yet: stable
        // ops of still-unresolved transactions, plus the volatile log
        // tail. These replay raw, in LSN order — none of them conflicts
        // with shipped state (their transactions still hold the locks).
        let mut raw: Vec<(Lsn, DcId, LogicalOp)> = self.shipper.pending_ops();
        for (seq, rec) in self.log.store().read_all_volatile() {
            if seq <= stable.0 {
                continue;
            }
            match rec {
                TcLogRecord::Op { dc, op, .. } | TcLogRecord::RedoOnly { dc, op, .. } => {
                    raw.push((Lsn(seq), dc, op));
                }
                _ => {}
            }
        }
        raw.sort_by_key(|(l, _, _)| *l);
        // Stop following and re-point: ops addressed to the deposed id
        // reach the promoted replica; surviving replicas of `old` extend
        // their lineage.
        self.shipper.promote(old, new);
        self.session.repoint(old, new, Some(new_link.clone()));
        // The replica switches to primary mode (mutations accepted) —
        // before the raw redo, which sends mutations.
        new_link.send(TcToDc::Promote { tc: self.id });
        self.session.restart(new, Some(stable))?;
        for (lsn, dc, op) in raw {
            if self.session.resolve_dc(dc) != new {
                continue;
            }
            TcStats::bump(&self.stats.redo_resends);
            self.session.redo(new, lsn, &op)?;
        }
        self.session.restart(new, None)?;
        // Make everything the new primary holds *stable*, then raise its
        // redo floor to the granted point: future recoveries replay raw
        // history to this DC only above the floor (below it, the flushed
        // state is the authority). Force the log first so the published
        // EOSL covers even the just-replayed volatile tail — otherwise
        // causality would keep those pages flush-ineligible.
        let eosl = self.force_log();
        let target = eosl.next();
        new_link.send(TcToDc::EndOfStableLog { tc: self.id, eosl });
        let mut floor = Lsn(0);
        for _ in 0..20 {
            floor = self.session.checkpoint(new, target)?.unwrap_or(Lsn(0));
            if floor >= target {
                break;
            }
        }
        if floor.is_null() {
            return Err(TcError::DcUnreachable(new));
        }
        self.session.raise_redo_floor(new, floor);
        // Durably record the failover: a recovering TC re-derives the
        // alias and the redo floor from this record.
        self.log_bookkeeping(TcLogRecord::Promote { old, new, floor });
        self.force_log();
        self.session.reroute(old, new);
        self.republish();
        Ok(())
    }

    pub(crate) fn bump_txn_counter_to(&self, floor: u64) {
        self.txns.bump_past(floor);
    }

    /// Append an operation record and register its LSN as outstanding,
    /// atomically w.r.t. LWM computation.
    pub(crate) fn log_op_record(&self, rec: TcLogRecord) -> Lsn {
        let _g = self.alloc.lock();
        let lsn = self.log.append(rec);
        self.session.acks.sent(lsn);
        lsn
    }

    /// Append a bookkeeping record (Commit/Abort/Prepare/Checkpoint/…),
    /// atomically w.r.t. LWM computation.
    pub(crate) fn log_bookkeeping(&self, rec: TcLogRecord) -> Lsn {
        let _g = self.alloc.lock();
        let lsn = self.log.append(rec);
        self.session.acks.bookkeeping(lsn);
        lsn
    }
}
