//! The TC's side of its conversation with the DCs (paper Section 4.2):
//! one [`DcSession`] per TC.
//!
//! The session owns everything the interaction contracts need and
//! nothing else:
//!
//! * the **directory** — table routes, DC links, failover aliases and
//!   promotion redo floors, behind one lock so a failover re-points
//!   links and aliases in a single write;
//! * **resend until acked** — [`DcSession::send_op`] sends a request
//!   under its unique id and resends it every resend interval until a
//!   reply fills its slot (DC idempotence makes that exactly-once);
//! * the **ack frontier** the low-water mark is derived from;
//! * the **gate** that holds normal traffic back from a DC under
//!   recovery;
//! * the **control exchanges** — checkpoint, restart and replication
//!   acks — each a request whose one reply is awaited for a bounded
//!   time.
//!
//! A request over a link that is a plain call (the inline transport)
//! gets its reply back from the call itself. Every other waiter,
//! operation reply or control reply, is a [`Slot`] in a [`Waiters`]
//! map, registered before its request is sent and removed when the
//! waiter returns.
//!
//! Nothing a lock-free read passes through is a shared write: the
//! directory is a [`ReadMostly`] (a copy per thread stripe), the gate
//! is checked with one atomic load while no DC is gated, read ids come
//! from per-thread stripes, and an inline read never touches the
//! waiter map.

use crate::acks::AckTracker;
use crate::routing::{DcLink, TableRoute};
use crate::stats::TcStats;
use crate::tc::TcConfig;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{
    DcError, DcId, DcToTc, Key, LogicalOp, Lsn, OpResult, RequestId, TableId, TcError, TcId, TcToDc,
};
use unbundled_obs as obs;
use unbundled_obs::stripe::{stripe, Padded, ReadMostly, STRIPES};

/// How long a control exchange waits for its reply. The checkpoint and
/// restart conversations are reliable; a reply that never comes (the DC
/// is down) lets the caller proceed with its fallback.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// An operation's outcome as a DC reports it.
type OpReply = Result<OpResult, DcError>;

/// A one-shot reply cell: a one-message channel. A reply that finds it
/// full is stale. A waiter waits on it the way the queued transport's
/// DC worker waits on its inbound channel: spin, yield, then park.
type Slot<T> = (Sender<T>, Receiver<T>);

/// One shard of a [`Waiters`] map.
type WaiterShard<K, T> = Padded<Mutex<HashMap<K, Slot<T>>>>;

/// Waiters keyed by what their reply names. Waiters registering the
/// same key share one slot. The map is sharded by key, so concurrent
/// requests (distinct keys) rarely meet on one lock.
pub(crate) struct Waiters<K, T> {
    shards: [WaiterShard<K, T>; STRIPES],
    hasher: RandomState,
}

impl<K: Copy + Eq + Hash, T> Waiters<K, T> {
    fn new() -> Self {
        Waiters {
            shards: std::array::from_fn(|_| Padded(Mutex::new(HashMap::new()))),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<T>>> {
        &self.shards[(self.hasher.hash_one(key) % STRIPES as u64) as usize].0
    }

    /// Register interest in the reply for `key`.
    pub(crate) fn expect(&self, key: K) -> Waiter<'_, K, T> {
        let rx = self
            .shard(&key)
            .lock()
            .entry(key)
            .or_insert_with(|| bounded(1))
            .1
            .clone();
        Waiter {
            owner: self,
            key,
            rx,
        }
    }

    /// Hand replies to their waiters. Returns how many found no waiter,
    /// or a slot already holding a reply.
    fn fill(&self, replies: impl IntoIterator<Item = (K, T)>) -> u64 {
        let mut unclaimed = 0;
        for (key, v) in replies {
            let tx = self.shard(&key).lock().get(&key).map(|(tx, _)| tx.clone());
            if tx.is_none_or(|tx| tx.try_send(v).is_err()) {
                unclaimed += 1;
            }
        }
        unclaimed
    }

    /// Registered waiters (tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().len()).sum()
    }

    /// Forget every waiter.
    fn clear(&self) {
        for s in &self.shards {
            s.0.lock().clear();
        }
    }
}

/// A registered waiter; dropping it removes its map entry.
pub(crate) struct Waiter<'a, K: Copy + Eq + Hash, T> {
    owner: &'a Waiters<K, T>,
    key: K,
    rx: Receiver<T>,
}

impl<K: Copy + Eq + Hash, T> Waiter<'_, K, T> {
    /// Block until the reply arrives or `deadline` passes.
    pub(crate) fn wait(&self, deadline: Instant) -> Option<T> {
        self.rx.recv_deadline(deadline).ok()
    }
}

impl<K: Copy + Eq + Hash, T> Drop for Waiter<'_, K, T> {
    fn drop(&mut self) {
        let mut map = self.owner.shard(&self.key).lock();
        if map
            .get(&self.key)
            .is_some_and(|(_, rx)| rx.same_channel(&self.rx))
        {
            map.remove(&self.key);
        }
    }
}

/// Which control reply a waiter expects from a DC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Control {
    /// [`DcToTc::CheckpointDone`]; carries the granted RSSP.
    CheckpointDone,
    /// [`DcToTc::RestartReady`].
    RestartReady,
    /// [`DcToTc::RestartDone`].
    RestartDone,
    /// [`DcToTc::ShipAck`]; carries the replica's applied frontier.
    ShipAck,
}

/// How [`DcSession::send_op`] reaches its DC.
#[derive(Clone, Copy)]
pub(crate) enum Path<'a> {
    /// Normal traffic: waits while the DC is gated for recovery, and
    /// re-resolves the DC's link on every attempt (a failover promotion
    /// mid-resend re-points a deposed primary's id, and in-flight
    /// operations must follow).
    Gated,
    /// Recovery traffic to a DC it has gated itself.
    Bypass,
    /// A replica read over the replica's own link (replicas are not in
    /// the directory).
    Via(&'a Arc<dyn DcLink>),
}

/// Where things live, changed only by registration and failover.
#[derive(Clone, Default)]
struct Directory {
    routes: HashMap<TableId, TableRoute>,
    links: HashMap<DcId, Arc<dyn DcLink>>,
    /// Failover aliases: a deposed primary's id resolves to the DC that
    /// was promoted in its place, so log records (and straggler sends)
    /// addressed to the old id reach the new primary.
    aliases: HashMap<DcId, DcId>,
    /// Per-DC redo floors from failover promotions: records below the
    /// floor are stable at the promoted DC and must never be replayed
    /// to it (its replica-era state has abLSN holes at rolled-back
    /// operations; raw replay below the floor would re-execute them
    /// against newer state).
    redo_floors: HashMap<DcId, Lsn>,
}

impl Directory {
    fn resolve(&self, dc: DcId) -> DcId {
        let mut cur = dc;
        for _ in 0..=self.aliases.len() {
            match self.aliases.get(&cur) {
                Some(next) => cur = *next,
                None => break,
            }
        }
        cur
    }
}

/// One TC's conversation with its DCs. See the module docs.
pub(crate) struct DcSession {
    tc: TcId,
    resend_interval: Duration,
    max_resends: u32,
    stats: Arc<TcStats>,
    dir: ReadMostly<Directory>,
    /// DCs currently being recovered: normal sends wait.
    gated: Mutex<HashSet<DcId>>,
    /// `gated.len()`, readable without the lock: zero means no send
    /// needs to look at the gate.
    gated_count: AtomicUsize,
    gate_cv: Condvar,
    /// Per-stripe read-id sequences: stripe `s` hands out
    /// `seq * STRIPES + s`.
    next_read: [Padded<AtomicU64>; STRIPES],
    /// Serializes checkpoint exchanges: every one shares the
    /// `(dc, CheckpointDone)` reply key, so two in flight at once would
    /// share a slot and one would lose its reply.
    checkpoint_flight: Mutex<()>,
    /// Sent-but-unacknowledged operation LSNs: the low-water mark.
    pub(crate) acks: AckTracker,
    /// Out-of-band crash prompts received (the kernel drains these).
    crashed_prompts: Mutex<Vec<DcId>>,
    replies: Waiters<RequestId, OpReply>,
    pub(crate) control: Waiters<(DcId, Control), Lsn>,
}

impl DcSession {
    pub(crate) fn new(tc: TcId, cfg: &TcConfig, stats: Arc<TcStats>) -> DcSession {
        DcSession {
            tc,
            resend_interval: cfg.resend_interval,
            max_resends: cfg.max_resends,
            stats,
            dir: ReadMostly::new(Directory::default()),
            gated: Mutex::new(HashSet::new()),
            gated_count: AtomicUsize::new(0),
            gate_cv: Condvar::new(),
            next_read: std::array::from_fn(|_| Padded(AtomicU64::new(1))),
            checkpoint_flight: Mutex::new(()),
            acks: AckTracker::new(),
            crashed_prompts: Mutex::new(Vec::new()),
            replies: Waiters::new(),
            control: Waiters::new(),
        }
    }

    // ------------------------------------------------------------------
    // Directory
    // ------------------------------------------------------------------

    pub(crate) fn register_dc(&self, dc: DcId, link: Arc<dyn DcLink>) {
        self.dir
            .write()
            .update(|d| d.links.insert(dc, link.clone()));
    }

    pub(crate) fn register_table(&self, table: TableId, route: TableRoute) {
        self.dir
            .write()
            .update(|d| d.routes.insert(table, route.clone()));
    }

    /// The DC hosting `key` of `table`.
    pub(crate) fn dc_for(&self, table: TableId, key: &Key) -> Result<DcId, TcError> {
        self.dir
            .read()
            .routes
            .get(&table)
            .map(|r| r.dc_for(key))
            .ok_or(TcError::NoSuchDc(DcId(u16::MAX)))
    }

    pub(crate) fn route(&self, table: TableId) -> Result<TableRoute, TcError> {
        self.dir
            .read()
            .routes
            .get(&table)
            .cloned()
            .ok_or(TcError::NoSuchDc(DcId(u16::MAX)))
    }

    /// Resolve a (possibly deposed) DC id through the failover alias
    /// chain to the id currently serving its partition.
    pub(crate) fn resolve_dc(&self, dc: DcId) -> DcId {
        self.dir.read().resolve(dc)
    }

    pub(crate) fn link(&self, dc: DcId) -> Result<Arc<dyn DcLink>, TcError> {
        let dir = self.dir.read();
        dir.links
            .get(&dir.resolve(dc))
            .cloned()
            .ok_or(TcError::NoSuchDc(dc))
    }

    /// Registered primary DCs.
    pub(crate) fn dcs(&self) -> Vec<DcId> {
        self.dir.read().links.keys().copied().collect()
    }

    pub(crate) fn aliases(&self) -> Vec<(DcId, DcId)> {
        self.dir
            .read()
            .aliases
            .iter()
            .map(|(o, n)| (*o, *n))
            .collect()
    }

    /// Failover re-pointing, in one directory write: `old` resolves to
    /// `new` from now on, its link is gone, and `new` serves over
    /// `link` when one is given.
    pub(crate) fn repoint(&self, old: DcId, new: DcId, link: Option<Arc<dyn DcLink>>) {
        self.dir.write().update(|dir| {
            dir.links.remove(&old);
            if let Some(link) = &link {
                dir.links.insert(new, link.clone());
            }
            dir.aliases.insert(old, new);
        });
    }

    /// Failover re-routing: table routes mapping to `old` map to `new`.
    pub(crate) fn reroute(&self, old: DcId, new: DcId) {
        self.dir.write().update(|dir| {
            for route in dir.routes.values_mut() {
                route.replace_dc(old, new);
            }
        });
    }

    /// The promotion redo floor for `dc`, if one exists: recovery never
    /// replays records below it to that DC.
    pub(crate) fn redo_floor(&self, dc: DcId) -> Option<Lsn> {
        self.dir.read().redo_floors.get(&dc).copied()
    }

    pub(crate) fn raise_redo_floor(&self, dc: DcId, floor: Lsn) {
        self.dir.write().update(|dir| {
            let e = dir.redo_floors.entry(dc).or_insert(Lsn(0));
            *e = (*e).max(floor);
        });
    }

    /// Send a control message to every registered DC.
    pub(crate) fn broadcast(&self, msg: TcToDc) {
        for link in self.dir.read().links.values() {
            link.send(msg.clone());
        }
    }

    // ------------------------------------------------------------------
    // Gate
    // ------------------------------------------------------------------

    pub(crate) fn gate(&self, dc: DcId) {
        let mut g = self.gated.lock();
        g.insert(dc);
        self.gated_count.store(g.len(), Ordering::SeqCst);
    }

    pub(crate) fn ungate(&self, dc: DcId) {
        let mut g = self.gated.lock();
        g.remove(&dc);
        self.gated_count.store(g.len(), Ordering::SeqCst);
        self.gate_cv.notify_all();
    }

    fn gate_wait(&self, dc: DcId) {
        if self.gated_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut g = self.gated.lock();
        while g.contains(&dc) {
            self.gate_cv.wait(&mut g);
        }
    }

    // ------------------------------------------------------------------
    // Requests and replies
    // ------------------------------------------------------------------

    /// A fresh id for an unlogged request (read, scan or probe).
    pub(crate) fn next_read(&self) -> RequestId {
        let s = stripe();
        let seq = self.next_read[s].0.fetch_add(1, Ordering::Relaxed);
        RequestId::Read(seq * STRIPES as u64 + s as u64)
    }

    /// Send an operation and wait for its reply, resending on timeout
    /// (exactly-once overall thanks to DC idempotence). Over a link that
    /// is a plain call the reply comes back from the call; otherwise it
    /// arrives through [`DcSession::deliver`] into a waiter registered
    /// before the send.
    pub(crate) fn send_op(
        &self,
        dc: DcId,
        req: RequestId,
        op: &LogicalOp,
        path: Path<'_>,
    ) -> Result<OpReply, TcError> {
        let mut waiter = None;
        let mut attempts: u32 = 0;
        loop {
            if let Path::Gated = path {
                self.gate_wait(dc);
            }
            let msg = TcToDc::Perform {
                tc: self.tc,
                req,
                op: op.clone(),
            };
            let send = |link: &Arc<dyn DcLink>| {
                let mut replies = Vec::new();
                match link.call(msg, &mut replies) {
                    Ok(()) => Some(replies),
                    Err(msg) => {
                        if waiter.is_none() {
                            waiter = Some(self.replies.expect(req));
                        }
                        link.send(msg);
                        None
                    }
                }
            };
            let called = match path {
                Path::Via(link) => send(link),
                Path::Gated | Path::Bypass => {
                    let dir = self.dir.read();
                    let link = dir
                        .links
                        .get(&dir.resolve(dc))
                        .ok_or(TcError::NoSuchDc(dc))?;
                    send(link)
                }
            };
            if attempts == 0 {
                if req.lsn().is_some() {
                    TcStats::bump(&self.stats.ops_sent);
                } else {
                    TcStats::bump(&self.stats.reads_sent);
                }
            } else {
                TcStats::bump(&self.stats.resends);
            }
            let deadline = Instant::now() + self.resend_interval;
            match called {
                Some(replies) => {
                    if let Some(result) = self.take_reply(req, replies) {
                        return Ok(result);
                    }
                    // The DC is down: the call was lost, like a dropped
                    // datagram. Resend after the same interval.
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
                None => {
                    let w = waiter.as_ref().expect("registered before the send");
                    if let Some(result) = w.wait(deadline) {
                        return Ok(result);
                    }
                }
            }
            attempts += 1;
            if attempts > self.max_resends {
                return Err(TcError::DcUnreachable(dc));
            }
        }
    }

    /// The replies of a call: the one answering `req` is returned
    /// (advancing the ack frontier if it acks an operation), and any
    /// other is delivered as if it had arrived on its own.
    fn take_reply(&self, req: RequestId, replies: Vec<DcToTc>) -> Option<OpReply> {
        let mut mine = None;
        for m in replies {
            match m {
                DcToTc::Reply { req: r, result, .. } if r == req && mine.is_none() => {
                    let _s = obs::stage::in_commit_scope().then(|| obs::span("tc.ack"));
                    if let Some(lsn) = req.lsn() {
                        self.acks.acked(lsn);
                    }
                    mine = Some(result);
                }
                other => self.deliver(other),
            }
        }
        mine
    }

    /// Recovery traffic, which passes the gate: send the logged
    /// operation at `lsn` (a redo, or a redo-only compensation or stamp).
    /// A deterministic failure (e.g. a replayed insert that originally
    /// failed) is part of history, so only an unreachable DC is an error.
    pub(crate) fn redo(&self, dc: DcId, lsn: Lsn, op: &LogicalOp) -> Result<(), TcError> {
        self.send_op(dc, RequestId::Op(lsn), op, Path::Bypass)
            .map(drop)
    }

    /// The checkpoint exchange: ask `dc` to make everything below
    /// `new_rssp` stable. Returns the RSSP it granted, or `None` when no
    /// reply came within the control timeout.
    pub(crate) fn checkpoint(&self, dc: DcId, new_rssp: Lsn) -> Result<Option<Lsn>, TcError> {
        let msg = TcToDc::Checkpoint {
            tc: self.tc,
            new_rssp,
        };
        let _one = self.checkpoint_flight.lock();
        self.exchange(dc, Control::CheckpointDone, msg)
    }

    /// One half of the restart conversation with `dc`: `Some(stable_end)`
    /// opens it (`RestartBegin`, awaiting `RestartReady`), `None` closes
    /// it (`RestartEnd`, awaiting `RestartDone`). Either half proceeds
    /// without its reply after the control timeout.
    pub(crate) fn restart(&self, dc: DcId, stable_end: Option<Lsn>) -> Result<(), TcError> {
        let (kind, msg) = match stable_end {
            Some(stable_end) => (
                Control::RestartReady,
                TcToDc::RestartBegin {
                    tc: self.tc,
                    stable_end,
                },
            ),
            None => (Control::RestartDone, TcToDc::RestartEnd { tc: self.tc }),
        };
        self.exchange(dc, kind, msg).map(drop)
    }

    fn exchange(&self, dc: DcId, kind: Control, msg: TcToDc) -> Result<Option<Lsn>, TcError> {
        let waiter = self.control.expect((dc, kind));
        self.link(dc)?.send(msg);
        Ok(waiter.wait(Instant::now() + CONTROL_TIMEOUT))
    }

    /// Route one DC→TC message to whoever waits for it. Operation acks
    /// advance the ack frontier before their waiter wakes; a control
    /// reply nobody waits for is dropped.
    pub(crate) fn deliver(&self, msg: DcToTc) {
        let (dc, kind, value) = match msg {
            DcToTc::Reply { req, result, .. } => {
                // Commit-path acks only (see the DC apply span): body
                // operations' replies are not part of the commit tree.
                let _s = obs::stage::in_commit_scope().then(|| obs::span("tc.ack"));
                return self.fill_replies([(req, result)]);
            }
            DcToTc::ReplyBatch { replies, .. } => {
                TcStats::bump(&self.stats.reply_batches);
                return self.fill_replies(replies);
            }
            DcToTc::CheckpointDone { dc, rssp, .. } => (dc, Control::CheckpointDone, rssp),
            DcToTc::RestartReady { dc, .. } => (dc, Control::RestartReady, Lsn::NULL),
            DcToTc::RestartDone { dc, .. } => (dc, Control::RestartDone, Lsn::NULL),
            DcToTc::ShipAck { dc, applied, .. } => (dc, Control::ShipAck, applied),
            DcToTc::Crashed { dc } => return self.crashed_prompts.lock().push(dc),
            // Advisory only; a checkpoint will pick it up.
            DcToTc::RsspHint { .. } => return,
        };
        self.control.fill([((dc, kind), value)]);
    }

    /// The one fill path for operation replies, single or batched: the
    /// ack frontier (and so the low-water mark) advances once, and the
    /// reply map is locked once, for the whole set.
    fn fill_replies<R>(&self, replies: R)
    where
        R: IntoIterator<Item = (RequestId, OpReply)>,
        for<'a> &'a R: IntoIterator<Item = &'a (RequestId, OpReply)>,
    {
        self.acks
            .acked_many((&replies).into_iter().filter_map(|(req, _)| req.lsn()));
        let stale = self.replies.fill(replies);
        if stale > 0 {
            TcStats::add(&self.stats.stale_replies, stale);
        }
    }

    /// Drain crash prompts.
    pub(crate) fn take_crash_prompts(&self) -> Vec<DcId> {
        std::mem::take(&mut *self.crashed_prompts.lock())
    }

    /// Forget every reply waiter (TC crash): replies still in flight
    /// count as stale.
    pub(crate) fn forget_replies(&self) {
        self.replies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DC: DcId = DcId(1);

    /// A link that answers each `Perform` through `answer` (or drops it
    /// when `answer` returns `None`), delivering to the session it is
    /// bound to.
    struct FakeLink {
        session: std::sync::Weak<DcSession>,
        sent: AtomicU64,
        answer: fn(u64) -> Option<OpReply>,
    }

    impl DcLink for FakeLink {
        fn send(&self, msg: TcToDc) {
            let n = self.sent.fetch_add(1, Ordering::Relaxed);
            let TcToDc::Perform { tc, req, .. } = msg else {
                return;
            };
            if let (Some(s), Some(result)) = (self.session.upgrade(), (self.answer)(n)) {
                s.deliver(DcToTc::Reply {
                    dc: DC,
                    tc,
                    req,
                    result,
                });
            }
        }
    }

    fn session(max_resends: u32) -> Arc<DcSession> {
        let cfg = TcConfig {
            resend_interval: Duration::from_millis(5),
            max_resends,
            ..TcConfig::default()
        };
        Arc::new(DcSession::new(TcId(1), &cfg, Arc::new(TcStats::default())))
    }

    fn wire(s: &Arc<DcSession>, answer: fn(u64) -> Option<OpReply>) -> Arc<FakeLink> {
        let link = Arc::new(FakeLink {
            session: Arc::downgrade(s),
            sent: AtomicU64::new(0),
            answer,
        });
        s.register_dc(DC, link.clone());
        link
    }

    fn read_op() -> LogicalOp {
        LogicalOp::Read {
            table: TableId(1),
            key: Key::from_u64(1),
            flavor: unbundled_core::ReadFlavor::Latest,
        }
    }

    fn reply(req: RequestId, v: u8) -> DcToTc {
        DcToTc::Reply {
            dc: DC,
            tc: TcId(1),
            req,
            result: Ok(OpResult::Value(Some(vec![v]))),
        }
    }

    #[test]
    fn reply_for_an_unknown_request_is_stale() {
        let s = session(1);
        s.deliver(reply(RequestId::Read(99), 1));
        assert_eq!(s.stats.snapshot().stale_replies, 1);
        assert_eq!(s.replies.len(), 0);
    }

    #[test]
    fn second_reply_to_a_filled_slot_is_stale() {
        let s = session(1);
        let req = RequestId::Op(Lsn(7));
        let w = s.replies.expect(req);
        s.deliver(reply(req, 1));
        s.deliver(reply(req, 2));
        assert_eq!(s.stats.snapshot().stale_replies, 1);
        assert_eq!(
            w.wait(Instant::now()),
            Some(Ok(OpResult::Value(Some(vec![1]))))
        );
    }

    #[test]
    fn control_reply_without_a_waiter_is_dropped() {
        let s = session(1);
        s.deliver(DcToTc::CheckpointDone {
            dc: DC,
            tc: TcId(1),
            rssp: Lsn(5),
        });
        assert_eq!(s.control.len(), 0);
        let w = s.control.expect((DC, Control::CheckpointDone));
        assert_eq!(w.wait(Instant::now() + Duration::from_millis(5)), None);
    }

    #[test]
    fn expired_waiters_leave_no_entry_in_either_map() {
        let s = session(2);
        let link = wire(&s, |_| None);
        let r = s.send_op(DC, RequestId::Op(Lsn(3)), &read_op(), Path::Gated);
        assert!(matches!(r, Err(TcError::DcUnreachable(DC))));
        assert_eq!(link.sent.load(Ordering::Relaxed), 3);
        assert_eq!(s.stats.snapshot().resends, 2);
        {
            let w = s.control.expect((DC, Control::RestartReady));
            assert_eq!(w.wait(Instant::now() + Duration::from_millis(5)), None);
        }
        assert_eq!(s.replies.len(), 0);
        assert_eq!(s.control.len(), 0);
    }

    #[test]
    fn a_lost_request_is_resent_until_answered() {
        let s = session(10);
        // Drop the first send, answer the second.
        wire(&s, |n| (n > 0).then_some(Ok(OpResult::Done)));
        let req = s.next_read();
        let r = s.send_op(DC, req, &read_op(), Path::Bypass).unwrap();
        assert_eq!(r, Ok(OpResult::Done));
        let snap = s.stats.snapshot();
        assert_eq!((snap.reads_sent, snap.resends), (1, 1));
        assert_eq!(s.replies.len(), 0);
    }

    #[test]
    fn reply_batch_fills_each_named_slot_exactly_once() {
        let s = session(1);
        let reqs = [
            RequestId::Op(Lsn(1)),
            RequestId::Op(Lsn(2)),
            RequestId::Op(Lsn(3)),
        ];
        for r in reqs {
            s.acks.sent(r.lsn().unwrap());
        }
        let waiters: Vec<_> = reqs.iter().map(|r| s.replies.expect(*r)).collect();
        let mut replies: Vec<(RequestId, OpReply)> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, Ok(OpResult::Value(Some(vec![i as u8])))))
            .collect();
        // The batch names the second request twice.
        replies.push((reqs[1], Ok(OpResult::Value(Some(vec![9])))));
        s.deliver(DcToTc::ReplyBatch {
            dc: DC,
            tc: TcId(1),
            replies,
        });
        for (i, w) in waiters.iter().enumerate() {
            assert_eq!(
                w.wait(Instant::now()),
                Some(Ok(OpResult::Value(Some(vec![i as u8]))))
            );
        }
        let snap = s.stats.snapshot();
        assert_eq!((snap.reply_batches, snap.stale_replies), (1, 1));
        assert_eq!(s.acks.lwm(), Lsn(3));
        assert_eq!(s.acks.outstanding(), 0);
    }
}
