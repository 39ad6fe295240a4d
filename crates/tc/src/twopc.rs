//! Cross-TC transactions: two-phase commit over the shards' redo logs.
//!
//! A sharded transaction service partitions the key space across TCs
//! with a [`TcShardMap`]. A transaction begins at (and is coordinated
//! by) the shard owning its first-touched range; an operation on a key
//! owned by another shard is *forwarded* to that shard's TC, which runs
//! it as a **participant branch** — taking its own locks, logging to its
//! own redo log and driving its own DCs, exactly like a local
//! transaction. Lock safety is preserved because the map partitions the
//! key space: only the owning shard ever locks a key.
//!
//! Commit is two-phase, written through the *existing* logical redo
//! logs (no separate 2PC log):
//!
//! 1. **Prepare** — each participant forces a [`TcLogRecord::Prepare`]
//!    (riding the group-commit gather window) and votes yes; its branch
//!    keeps its locks and becomes *in-doubt*.
//! 2. **Decide** — the coordinator forces a
//!    [`TcLogRecord::CommitDecision`]: the commit point. It then tells
//!    every participant, which forces a [`TcLogRecord::ParticipantCommit`]
//!    before acknowledging — so a decision is only forgotten (truncated)
//!    once no participant can ever need to re-read it.
//!
//! Recovery is **presumed abort**: an aborting coordinator logs only its
//! ordinary Abort (or nothing), and a participant whose Prepare has no
//! later resolution record re-resolves against the coordinator's log —
//! a stable `CommitDecision` there means commit; no decision and no
//! live coordinator transaction means abort. A participant that finds
//! the coordinator still mid-commit parks the branch (locks re-acquired)
//! until the decision broadcast arrives.
//!
//! Cross-shard deadlocks are not centrally detected (each shard's lock
//! manager sees only its own waits-for edges); the lock timeout breaks
//! them, aborting the waiting transaction.

use crate::stats::TcStats;
use crate::tc::{Tc, TxnState, WriteSet};
use crate::tclog::TcLogRecord;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use unbundled_core::{
    Key, LogicalOp, Lsn, ReadConsistency, TableId, TcError, TcId, TcShardMap, TxnId,
};
use unbundled_lockmgr::{LockMode, LockName};
use unbundled_obs as obs;

/// A handle to a peer TC shard that survives the peer's reboots: the
/// kernel registers an indirection that always resolves the *current*
/// `Tc` built over the peer's (crash-surviving) log store.
pub trait TcPeer: Send + Sync {
    /// The peer's current `Tc`.
    fn resolve(&self) -> Arc<Tc>;
}

/// The kernel's TC nodes hold their current `Tc` behind exactly this
/// shape; registering the node's cell as the peer handle makes peer
/// references survive reboots.
impl TcPeer for Mutex<Arc<Tc>> {
    fn resolve(&self) -> Arc<Tc> {
        self.lock().clone()
    }
}

/// A plain `Arc<Tc>` works as a peer for single-`Tc`-lifetime setups
/// (unit tests without a kernel).
impl TcPeer for Arc<Tc> {
    fn resolve(&self) -> Arc<Tc> {
        self.clone()
    }
}

/// Outcome of a distributed transaction as seen from its coordinator's
/// log + volatile state (the presumed-abort decision rule).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TwopcOutcome {
    /// A stable `CommitDecision` exists: committed everywhere.
    Committed,
    /// No decision, and the coordinator cannot commit it anymore
    /// (transaction unknown, or coordinator crashed and lost it).
    Aborted,
    /// The coordinator is alive and still mid-commit; the decision will
    /// arrive (or the coordinator will abort).
    InDoubt,
}

impl Tc {
    // ------------------------------------------------------------------
    // Shard map + peers
    // ------------------------------------------------------------------

    /// Install the key-range → TC shard map. Keys owned by other shards
    /// are forwarded; commit of a multi-shard transaction goes through
    /// 2PC. `register_peer` every other shard before use.
    ///
    /// Installing a map whose epoch reaches a pending rebalance fence's
    /// epoch *clears* the fence: the move it guarded is published, so
    /// blocked work wakes up and re-resolves ownership under the new
    /// map.
    pub fn set_shard_map(&self, map: TcShardMap) {
        let epoch = map.epoch();
        self.shard_map.write().update(|m| *m = Some(map.clone()));
        self.clear_fence_up_to(epoch);
    }

    /// The epoch of the installed shard map (0 when unsharded).
    pub fn map_epoch(&self) -> u64 {
        self.shard_map.read().as_ref().map_or(0, |m| m.epoch())
    }

    /// The installed shard map, if any.
    pub fn shard_map(&self) -> Option<TcShardMap> {
        self.shard_map.read().clone()
    }

    /// Wire a peer TC shard.
    pub fn register_peer(&self, id: TcId, peer: Arc<dyn TcPeer>) {
        self.peers.write().insert(id, peer);
    }

    pub(crate) fn peer_tc(&self, id: TcId) -> Option<Arc<Tc>> {
        self.peers.read().get(&id).map(|p| p.resolve())
    }

    /// The owning shard of `key` when it is *not* this TC (`None` means
    /// local — no map installed, or we own the range).
    pub(crate) fn shard_owner(&self, key: &Key) -> Option<TcId> {
        let g = self.shard_map.read();
        let map = g.as_ref()?;
        let owner = map.tc_for(key);
        if owner == self.id() {
            None
        } else {
            Some(owner)
        }
    }

    /// Prepared participant branches still awaiting a decision
    /// (diagnostics: a quiesced TC should report zero).
    pub fn indoubt_branches(&self) -> usize {
        self.txns
            .all()
            .iter()
            .filter(|(_, st)| st.lock().prepared)
            .count()
    }

    /// Commit decisions not yet acknowledged by every participant
    /// (diagnostics).
    pub fn pending_decision_count(&self) -> usize {
        self.pending_decisions.lock().len()
    }

    // ------------------------------------------------------------------
    // Coordinator side: forwarding
    // ------------------------------------------------------------------

    /// How many 1ms re-route attempts a forward rejected as stale gets
    /// before the transaction is rolled back (the kernel's republish
    /// reaches every TC within a few map installs, so this is generous).
    fn reroute_retries(&self) -> u32 {
        self.cfg
            .lock_timeout
            .map(|d| d.as_millis() as u32)
            .unwrap_or(2000)
            .max(16)
    }

    pub(crate) fn forward_mutate(
        &self,
        txn: TxnId,
        st: &Arc<Mutex<TxnState>>,
        owner: TcId,
        op: LogicalOp,
    ) -> Result<(), TcError> {
        let mut owner = owner;
        let mut retries = 0u32;
        loop {
            let peer = match self.peer_tc(owner) {
                Some(p) => p,
                None => {
                    self.rollback(txn)?;
                    return Err(TcError::NoSuchTc(owner));
                }
            };
            // If this shard already executed ops for us, its branch must
            // still exist — a participant that crashed in between rolled
            // the branch back (presumed abort), and silently starting a
            // fresh one would commit a partial transaction.
            let expect_branch = st.lock().remotes.contains(&owner);
            let epoch = self.map_epoch();
            match peer.remote_mutate(self.id(), txn, op.clone(), expect_branch, epoch) {
                Ok(()) => {
                    st.lock().remotes.insert(owner);
                    return Ok(());
                }
                Err(TcError::StaleShardMap { .. }) => {
                    // The range moved (or is moving) under this forward.
                    // The op was NOT executed and the branch is intact,
                    // so no repair is needed: wait for the republished
                    // map to land here, re-resolve the owner, re-route.
                    retries += 1;
                    if retries > self.reroute_retries() {
                        self.rollback(txn)?;
                        return Err(TcError::StaleShardMap { tc: owner, epoch });
                    }
                    TcStats::bump(&self.stats().stale_forward_reroutes);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    let key = op.point_key().expect("point mutation").clone();
                    match self.shard_owner(&key) {
                        Some(next) => owner = next,
                        // The range moved *to us*: execute locally.
                        None => return self.mutate(txn, op),
                    }
                }
                Err(e) => {
                    // The participant already rolled its branch back;
                    // abort the whole transaction (rollback notifies the
                    // other participants).
                    self.rollback(txn)?;
                    return Err(Self::map_remote_err(txn, e));
                }
            }
        }
    }

    pub(crate) fn forward_read(
        &self,
        txn: TxnId,
        st: &Arc<Mutex<TxnState>>,
        owner: TcId,
        table: TableId,
        key: Key,
    ) -> Result<Option<Vec<u8>>, TcError> {
        let mut owner = owner;
        let mut retries = 0u32;
        loop {
            let peer = match self.peer_tc(owner) {
                Some(p) => p,
                None => {
                    self.rollback(txn)?;
                    return Err(TcError::NoSuchTc(owner));
                }
            };
            let expect_branch = st.lock().remotes.contains(&owner);
            let epoch = self.map_epoch();
            match peer.remote_read(self.id(), txn, table, key.clone(), expect_branch, epoch) {
                Ok(v) => {
                    st.lock().remotes.insert(owner);
                    return Ok(v);
                }
                Err(TcError::StaleShardMap { .. }) => {
                    retries += 1;
                    if retries > self.reroute_retries() {
                        self.rollback(txn)?;
                        return Err(TcError::StaleShardMap { tc: owner, epoch });
                    }
                    TcStats::bump(&self.stats().stale_forward_reroutes);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    match self.shard_owner(&key) {
                        Some(next) => owner = next,
                        None => {
                            return self.read(txn, table, key, ReadConsistency::Locking);
                        }
                    }
                }
                Err(e) => {
                    self.rollback(txn)?;
                    return Err(Self::map_remote_err(txn, e));
                }
            }
        }
    }

    /// Re-key a participant's error to the coordinator's transaction id
    /// (the participant reports its branch-local id, meaningless to the
    /// application).
    fn map_remote_err(txn: TxnId, e: TcError) -> TcError {
        match e {
            TcError::Deadlock(_) => TcError::Deadlock(txn),
            TcError::LockTimeout(_) => TcError::LockTimeout(txn),
            TcError::NotActive(_) => TcError::NotActive(txn),
            TcError::OperationFailed(_, d) => TcError::OperationFailed(txn, d),
            other => other,
        }
    }

    // ------------------------------------------------------------------
    // Participant side: branch execution
    // ------------------------------------------------------------------

    /// The local branch of `(coord, gtxn)`, created on first touch.
    ///
    /// With `expect_branch` the coordinator asserts it already ran ops
    /// here; a missing mapping then means this shard crashed in between
    /// and presumed-abort rolled the branch back — refusing (rather than
    /// silently opening a fresh branch) keeps the transaction atomic.
    fn begin_participant(
        &self,
        coord: TcId,
        gtxn: TxnId,
        expect_branch: bool,
    ) -> Result<TxnId, TcError> {
        self.ensure_available()?;
        if let Some(local) = self.participants.lock().get(&(coord, gtxn)).copied() {
            return Ok(local);
        }
        if expect_branch {
            return Err(TcError::NotActive(gtxn));
        }
        let local = self.begin()?;
        self.txn_state(local)?.lock().part_of = Some((coord, gtxn));
        let prior = self.participants.lock().insert((coord, gtxn), local);
        debug_assert!(prior.is_none(), "participant branch raced");
        Ok(local)
    }

    /// Execute one forwarded mutation as a branch of `(coord, gtxn)`.
    /// `epoch` is the sender's shard-map epoch: a mismatch (or a key
    /// this shard no longer owns) is rejected with
    /// [`TcError::StaleShardMap`] *before* any branch state is touched,
    /// so the sender can re-route without repair. On any other failure
    /// the whole branch has been rolled back (the coordinator must then
    /// abort the transaction).
    pub fn remote_mutate(
        &self,
        coord: TcId,
        gtxn: TxnId,
        op: LogicalOp,
        expect_branch: bool,
        epoch: u64,
    ) -> Result<(), TcError> {
        let key = op.point_key().expect("point mutation").clone();
        self.check_forwarded(coord, gtxn, &key, epoch)?;
        let local = self.begin_participant(coord, gtxn, expect_branch)?;
        self.mutate(local, op)
    }

    /// Execute one forwarded serializable point read as a branch of
    /// `(coord, gtxn)`; `epoch` as for [`Tc::remote_mutate`].
    pub fn remote_read(
        &self,
        coord: TcId,
        gtxn: TxnId,
        table: TableId,
        key: Key,
        expect_branch: bool,
        epoch: u64,
    ) -> Result<Option<Vec<u8>>, TcError> {
        self.check_forwarded(coord, gtxn, &key, epoch)?;
        let local = self.begin_participant(coord, gtxn, expect_branch)?;
        self.read(local, table, key, ReadConsistency::Locking)
    }

    /// Phase one, participant side: force a Prepare record (riding the
    /// group-commit gather window) and vote. A `false` vote (unknown
    /// branch, unavailable TC) obliges the coordinator to abort.
    pub fn prepare_participant(&self, coord: TcId, gtxn: TxnId) -> bool {
        if self.ensure_available().is_err() {
            return false;
        }
        let local = match self.participants.lock().get(&(coord, gtxn)).copied() {
            Some(l) => l,
            None => return false,
        };
        let st = match self.txn_state(local) {
            Ok(s) => s,
            Err(_) => return false,
        };
        // A branch opened only by `remote_read` logged nothing so far:
        // its Prepare is its first record and must pin truncation until
        // the decision resolves it.
        self.enter_log(&st);
        let lsn = self.log_bookkeeping(TcLogRecord::Prepare {
            txn: local,
            coord,
            gtxn,
        });
        self.force_commit(lsn);
        st.lock().prepared = true;
        TcStats::bump(&self.stats().prepares);
        true
    }

    /// Phase two, participant side: apply the coordinator's decision.
    /// Returns true once the branch is durably resolved — the ack that
    /// lets the coordinator forget the decision. An unknown branch acks
    /// immediately: Prepare is forced *before* the yes vote, so unknown
    /// means already resolved (or never prepared, which presumed abort
    /// resolves identically).
    pub fn decide_participant(&self, coord: TcId, gtxn: TxnId, commit: bool) -> bool {
        if self.ensure_available().is_err() {
            return false;
        }
        let local = match self.participants.lock().get(&(coord, gtxn)).copied() {
            Some(l) => l,
            None => return true,
        };
        self.apply_decision(local, coord, gtxn, commit)
    }

    fn apply_decision(&self, local: TxnId, coord: TcId, gtxn: TxnId, commit: bool) -> bool {
        if commit {
            let st = match self.txn_state(local) {
                Ok(s) => s,
                Err(_) => {
                    self.participants.lock().remove(&(coord, gtxn));
                    return true;
                }
            };
            // MVCC: the branch's versions are stamped with the
            // ParticipantCommit LSN — commit LSNs are per-TC, so a
            // snapshot read served by this shard compares against its
            // own log positions only. Forced before acknowledging: once
            // the coordinator hears the ack it may truncate the decision
            // away.
            let writes = std::mem::take(&mut st.lock().writes);
            let (commit, stamps) =
                self.log_commit(local, writes, TcLogRecord::ParticipantCommit { txn: local });
            if self.deliver_commit(commit, &stamps).is_err() {
                return false;
            }
            self.participants.lock().remove(&(coord, gtxn));
            self.finish_commit_local(local, &st);
            true
        } else {
            // rollback logs ParticipantAbort (part_of is set) and drops
            // the mapping.
            self.rollback(local).is_ok()
        }
    }

    /// Re-resolve every branch of a remote transaction against its
    /// coordinator. Prepared (in-doubt) branches commit if the
    /// coordinator's stable log holds the decision, abort if the
    /// coordinator can no longer commit (presumed abort), and stay parked
    /// while the coordinator is mid-commit. Unprepared branches whose
    /// coordinator no longer knows the transaction (it crashed and its
    /// volatile state — including its list of participants — died with
    /// it) are orphans: nothing will ever prepare or abort them, so they
    /// are rolled back here to release their locks. Returns the number of
    /// branches resolved.
    pub fn resolve_indoubt(&self) -> usize {
        let branches: Vec<(TxnId, TcId, TxnId, bool)> = self
            .txns
            .all()
            .into_iter()
            .filter_map(|(id, st)| {
                let g = st.lock();
                g.part_of.map(|(c, gt)| (id, c, gt, g.prepared))
            })
            .collect();
        let mut resolved = 0;
        for (local, coord, gtxn, prepared) in branches {
            let outcome = match self.peer_tc(coord) {
                Some(p) => p.twopc_outcome_for(gtxn),
                // No handle to the coordinator at all: presume abort.
                None => TwopcOutcome::Aborted,
            };
            let commit = match outcome {
                // Coordinator still driving the transaction: leave the
                // branch alone whether prepared (parked in-doubt) or live.
                TwopcOutcome::InDoubt => continue,
                TwopcOutcome::Committed => true,
                TwopcOutcome::Aborted => false,
            };
            if !prepared && commit {
                // A decision that names this shard implies a Prepare was
                // forced here; an unprepared branch can't be part of it.
                debug_assert!(false, "commit decision for unprepared branch");
                continue;
            }
            if self.apply_decision(local, coord, gtxn, commit) {
                resolved += 1;
                TcStats::bump(&self.stats().indoubt_resolved);
                if commit {
                    if let Some(p) = self.peer_tc(coord) {
                        p.twopc_ack(gtxn, self.id());
                    }
                }
            }
        }
        resolved
    }

    // ------------------------------------------------------------------
    // Coordinator side: commit protocol
    // ------------------------------------------------------------------

    /// Two-phase commit of a transaction with participant branches.
    pub(crate) fn commit_cross(&self, txn: TxnId) -> Result<(), TcError> {
        if !self.twopc_prepare(txn)? {
            TcStats::bump(&self.stats().cross_aborts);
            self.rollback(txn)?;
            return Err(TcError::PrepareRefused(txn));
        }
        self.twopc_log_decision(txn)?;
        self.twopc_finish(txn)?;
        TcStats::bump(&self.stats().cross_commits);
        Ok(())
    }

    /// Phase one: collect yes votes from every participant. Exposed as a
    /// separate step so deterministic recovery tests can interleave
    /// crashes between the phases.
    #[doc(hidden)]
    pub fn twopc_prepare(&self, txn: TxnId) -> Result<bool, TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        let mut remotes: Vec<TcId> = st.lock().remotes.iter().copied().collect();
        remotes.sort();
        for r in remotes {
            let _s = obs::span1("tc.twopc_prepare", "participant", r.0 as u64);
            let ok = self
                .peer_tc(r)
                .map(|p| p.prepare_participant(self.id(), txn))
                .unwrap_or(false);
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Phase two, step one: force the commit decision — the commit point
    /// of the distributed transaction. The decision is pinned against
    /// log truncation until every participant acknowledges it.
    #[doc(hidden)]
    pub fn twopc_log_decision(&self, txn: TxnId) -> Result<Lsn, TcError> {
        self.ensure_available()?;
        let _s = obs::span1("tc.twopc_decision", "txn", txn.0);
        let st = self.txn_state(txn)?;
        let mut participants: Vec<TcId> = st.lock().remotes.iter().copied().collect();
        participants.sort();
        // A coordinator that only forwarded enters the log here; the
        // floor covers the decision until `pending_decisions` pins it.
        self.enter_log(&st);
        // MVCC: the coordinator's *local* writes are stamped with the
        // decision LSN (the commit point); each participant branch
        // stamps its own writes with its ParticipantCommit LSN in its
        // own LSN space.
        let writes = std::mem::take(&mut st.lock().writes);
        let (lsn, stamps) = self.log_commit(
            txn,
            writes,
            TcLogRecord::CommitDecision {
                txn,
                participants: participants.clone(),
            },
        );
        // A decision with no participants awaits no acks — pinning it
        // would block log truncation forever (nothing ever calls
        // `twopc_ack` for it). This arises when every branch of a
        // nominally cross-shard transaction ends up local, e.g. after a
        // rebalance moved the remote range onto the coordinator.
        if !participants.is_empty() {
            self.pending_decisions
                .lock()
                .insert(txn, (lsn, participants.into_iter().collect()));
        }
        self.deliver_commit(lsn, &stamps)?;
        Ok(lsn)
    }

    /// Phase two, step two: broadcast the decision, then finish locally
    /// (lock release).
    #[doc(hidden)]
    pub fn twopc_finish(&self, txn: TxnId) -> Result<(), TcError> {
        self.ensure_available()?;
        let st = self.txn_state(txn)?;
        let mut remotes: Vec<TcId> = st.lock().remotes.iter().copied().collect();
        remotes.sort();
        for r in remotes {
            let acked = self
                .peer_tc(r)
                .map(|p| p.decide_participant(self.id(), txn, true))
                .unwrap_or(false);
            if acked {
                self.twopc_ack(txn, r);
            }
        }
        self.finish_commit_local(txn, &st);
        Ok(())
    }

    /// The presumed-abort decision rule, answered from this
    /// (coordinator's) log and volatile state. Works even on a crashed,
    /// not-yet-recovered TC: the log store survives and a forced
    /// decision is in its stable prefix.
    pub fn twopc_outcome_for(&self, gtxn: TxnId) -> TwopcOutcome {
        for (_, rec) in self.log.store().read_all_stable() {
            if let TcLogRecord::CommitDecision { txn, .. } = rec {
                if txn == gtxn {
                    return TwopcOutcome::Committed;
                }
            }
        }
        if self.ensure_available().is_ok() && self.txns.contains(gtxn) {
            TwopcOutcome::InDoubt
        } else {
            TwopcOutcome::Aborted
        }
    }

    /// A participant durably resolved `gtxn`: stop pinning the decision
    /// for it.
    pub fn twopc_ack(&self, gtxn: TxnId, from: TcId) {
        let mut pd = self.pending_decisions.lock();
        if let Some((_, parts)) = pd.get_mut(&gtxn) {
            parts.remove(&from);
            if parts.is_empty() {
                pd.remove(&gtxn);
            }
        }
    }

    /// Oldest unacknowledged commit decision (checkpoint truncation
    /// floor).
    pub(crate) fn twopc_floor(&self) -> Option<Lsn> {
        self.pending_decisions
            .lock()
            .values()
            .map(|(l, _)| *l)
            .min()
    }

    /// Coordinator recovery tail: re-broadcast every retained decision
    /// (idempotent at the participants) and unpin the acknowledged ones.
    /// Run at coordinator recovery, and again whenever a participant
    /// becomes reachable — a decision whose delivery failed while the
    /// participant was down stays pinned (blocking log truncation) until
    /// a retry lands.
    pub fn redeliver_decisions(&self) {
        let pending: Vec<(TxnId, Vec<TcId>)> = self
            .pending_decisions
            .lock()
            .iter()
            .map(|(t, (_, p))| (*t, p.iter().copied().collect()))
            .collect();
        for (gtxn, parts) in pending {
            for r in parts {
                let acked = self
                    .peer_tc(r)
                    .map(|p| p.decide_participant(self.id(), gtxn, true))
                    .unwrap_or(false);
                if acked {
                    self.twopc_ack(gtxn, r);
                }
            }
        }
    }

    /// Participant recovery: reconstruct an in-doubt branch whose
    /// coordinator is still mid-commit — re-acquire its locks and park
    /// it prepared until the decision broadcast (or a later
    /// `resolve_indoubt`) arrives. Its write set (last write LSN per
    /// key, read off its `Op` records) names every key the branch
    /// wrote: re-locking them restores the isolation the branch held
    /// before the crash, and a late decision stamps (or reverts) the
    /// versions it names.
    pub(crate) fn park_indoubt_recovered(
        &self,
        local: TxnId,
        coord: TcId,
        gtxn: TxnId,
        first_lsn: Lsn,
        writes: WriteSet,
    ) {
        let token = Self::token(local);
        for (_, table, key) in writes.keys() {
            let _ = self
                .locks
                .lock(token, LockName::Table(*table), LockMode::IX, None);
            let _ = self.locks.lock(
                token,
                LockName::Record(*table, key.clone()),
                LockMode::X,
                None,
            );
        }
        // Re-derive the branch's shard points from what it wrote, so a
        // rebalance drain started after the crash still sees the parked
        // branch as inside (or outside) the moving range.
        let shard_points: HashSet<u64> = writes
            .keys()
            .map(|(_, _, key)| unbundled_core::route_point(key))
            .collect();
        let st = TxnState {
            id: local,
            first_lsn: Some(first_lsn),
            touched: writes.keys().map(|(dc, _, _)| *dc).collect(),
            writes,
            part_of: Some((coord, gtxn)),
            prepared: true,
            shard_points,
            span: obs::open_span("tc.txn", "txn", local.0),
            locked: true,
            ..TxnState::default()
        };
        self.txns.insert(local, st);
        self.participants.lock().insert((coord, gtxn), local);
    }
}
