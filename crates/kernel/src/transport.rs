//! Transports between TC and DC.
//!
//! The paper (Section 4.2.1) deliberately leaves the implementation
//! technology open: "in a cloud environment asynchronous messages might
//! be used … while signals and shared variables might be more suited for
//! a multi-core design". Both are provided:
//!
//! * [`InlineLink`] — synchronous call on the caller's thread (the
//!   multi-core / shared-memory deployment).
//! * [`QueuedLink`] — messages cross a channel to DC worker threads, with
//!   configurable **delay, reordering and loss** for `Perform` traffic
//!   (the cloud deployment). Loss and reordering exercise the
//!   resend/idempotence contracts exactly the way a real network would.
//!   Control-plane messages (EOSL, LWM, checkpoint, restart) are
//!   reliable and ordered, as the paper assumes for the recovery
//!   conversations.

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
use unbundled_core::{DataComponentApi, DcError, DcId, DcToTc, OpResult, RequestId, TcId, TcToDc};
use unbundled_obs::stripe::ReadMostly;
use unbundled_tc::{DcLink, Tc};

/// Reply sink: delivers DC→TC messages to the owning TC.
/// A small indirection so a rebooted TC can be re-wired. It holds the TC
/// weakly: the TC owns its links, which own the sink, so a strong
/// reference would keep a dropped deployment alive.
pub struct ReplySink {
    tc: ReadMostly<Weak<Tc>>,
}

impl ReplySink {
    /// Sink delivering to `tc`.
    pub fn new(tc: Arc<Tc>) -> Arc<Self> {
        Arc::new(ReplySink {
            tc: ReadMostly::new(Arc::downgrade(&tc)),
        })
    }

    /// Re-point the sink (after a TC reboot).
    pub fn rebind(&self, tc: Arc<Tc>) {
        let tc = Arc::downgrade(&tc);
        self.tc.write().update(|w| *w = tc.clone());
    }

    fn deliver(&self, msg: unbundled_core::DcToTc) {
        let tc = self.tc.read().upgrade();
        // A TC that is gone drops the message: the resend contract
        // already covers a lost reply.
        if let Some(tc) = tc {
            tc.deliver(msg);
        }
    }
}

/// A swap-able DC endpoint: crash injection replaces the inner server
/// while links keep pointing at the same slot. Read on every hop, so it
/// is a [`ReadMostly`]: a hop read-locks only its own thread's stripe.
pub struct DcSlot {
    inner: ReadMostly<Option<Arc<dyn DataComponentApi>>>,
}

impl DcSlot {
    /// Slot over an initial DC.
    pub fn new(dc: Arc<dyn DataComponentApi>) -> Arc<Self> {
        Arc::new(DcSlot {
            inner: ReadMostly::new(Some(dc)),
        })
    }

    /// Take the DC down (messages are dropped while down).
    pub fn take_down(&self) -> Option<Arc<dyn DataComponentApi>> {
        self.inner.write().update(|dc| dc.take())
    }

    /// Install a (rebooted) DC.
    pub fn install(&self, dc: Arc<dyn DataComponentApi>) {
        self.inner.write().update(|slot| *slot = Some(dc.clone()));
    }

    /// Current DC, if up.
    pub fn get(&self) -> Option<Arc<dyn DataComponentApi>> {
        self.inner.read().clone()
    }

    /// Hand `msg` to the DC, if up, on the calling thread.
    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        if let Some(dc) = self.inner.read().as_ref() {
            dc.handle(msg, out);
        }
    }
}

/// Synchronous transport: the DC handler runs on the caller's thread.
pub struct InlineLink {
    slot: Arc<DcSlot>,
    sink: Arc<ReplySink>,
}

impl InlineLink {
    /// Wire a slot to a sink.
    pub fn new(slot: Arc<DcSlot>, sink: Arc<ReplySink>) -> Arc<Self> {
        Arc::new(InlineLink { slot, sink })
    }
}

impl DcLink for InlineLink {
    fn send(&self, msg: TcToDc) {
        let mut out = Vec::new();
        self.slot.handle(msg, &mut out);
        for m in out {
            self.sink.deliver(m);
        }
        // DC down: message silently lost — the resend contract covers it.
    }

    fn call(&self, msg: TcToDc, replies: &mut Vec<DcToTc>) -> Result<(), TcToDc> {
        self.slot.handle(msg, replies);
        Ok(())
    }
}

/// Fault model for [`QueuedLink`] operation traffic. Applied
/// symmetrically: a `Perform`/`PerformBatch` datagram on the request
/// direction and a `Reply`/`ReplyBatch` datagram on the reply direction
/// are each independently subject to loss and reordering (a batch is
/// faulted as a whole, like one oversized datagram). Control-plane
/// conversations stay reliable in both directions.
#[derive(Clone, Debug)]
pub struct FaultModel {
    /// Probability an operation datagram (request or reply direction)
    /// is dropped.
    pub loss: f64,
    /// Probability an operation datagram is delayed behind later
    /// traffic (reordering), per direction.
    pub reorder: f64,
    /// Fixed extra delay per datagram (each direction pays it once per
    /// datagram — which is exactly the cost batching amortizes).
    pub delay: Duration,
    /// RNG seed (deterministic experiments).
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            loss: 0.0,
            reorder: 0.0,
            delay: Duration::ZERO,
            seed: 42,
        }
    }
}

enum QueuedMsg {
    ToDc(TcToDc),
    Stop,
}

/// Channel transport with worker threads and fault injection.
pub struct QueuedLink {
    tx: Sender<QueuedMsg>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    dropped: AtomicU64,
    reordered: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    reply_dropped: AtomicU64,
    reply_reordered: AtomicU64,
    reply_batches: AtomicU64,
    reply_batched_ops: AtomicU64,
    /// `ReplyBatch` datagrams whose acks came from more than one
    /// `handle()` invocation (cross-call coalescing — the worker holds
    /// acks back while more inbound messages are queued, so the acks of
    /// several request datagrams share one reply datagram).
    cross_call_reply_batches: AtomicU64,
    /// Max replies per `ReplyBatch` datagram; ≤ 1 splits DC-coalesced
    /// batches back into per-ack replies. Defaults to the request-side
    /// `max_batch` (the knob is symmetric).
    reply_batch: AtomicUsize,
}

impl QueuedLink {
    /// Spawn `workers` DC threads processing messages from the queue.
    /// `max_batch` > 1 lets a worker coalesce up to that many queued
    /// `Perform` messages into one [`TcToDc::PerformBatch`] per delivery
    /// — the fault model (loss, reordering, delay) then applies to the
    /// batch as a whole, exactly like a single oversized datagram. The
    /// same knob governs the reply direction: ack-class replies are
    /// buffered *across `handle()` invocations* while more inbound
    /// messages are queued, then shaped into [`DcToTc::ReplyBatch`]
    /// datagrams of at most the reply-batch limit when the queue runs
    /// dry, the limit fills, or a control reply must go out — so the
    /// acks of several request datagrams can share one reply datagram
    /// (counted by [`QueuedLink::cross_call_reply_batches`]). See
    /// [`QueuedLink::set_reply_batch`] to override the reply side alone.
    pub fn new(
        slot: Arc<DcSlot>,
        sink: Arc<ReplySink>,
        faults: FaultModel,
        workers: usize,
        max_batch: usize,
    ) -> Arc<Self> {
        let (tx, rx) = unbounded::<QueuedMsg>();
        let link = Arc::new(QueuedLink {
            tx,
            workers: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            reply_dropped: AtomicU64::new(0),
            reply_reordered: AtomicU64::new(0),
            reply_batches: AtomicU64::new(0),
            reply_batched_ops: AtomicU64::new(0),
            cross_call_reply_batches: AtomicU64::new(0),
            reply_batch: AtomicUsize::new(max_batch),
        });
        let mut handles = Vec::new();
        for w in 0..workers.max(1) {
            let rx = rx.clone();
            let slot = slot.clone();
            let sink = sink.clone();
            let faults = faults.clone();
            let link2 = Arc::downgrade(&link);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(
                    faults.seed ^ (w as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                // Reorder buffers: a deferred datagram is delivered after
                // the next one, independently per direction.
                let mut held: Option<TcToDc> = None;
                let mut held_reply: Option<DcToTc> = None;
                // A non-Perform message pulled out of the queue while
                // coalescing a batch; processed on the next iteration.
                let mut pending: Option<QueuedMsg> = None;
                // Reply buffer spanning handle() calls: (call seq, reply).
                let mut acks: Vec<(u64, DcToTc)> = Vec::new();
                let mut call_seq: u64 = 0;
                loop {
                    let next = match pending.take() {
                        Some(m) => m,
                        None => match rx.try_recv() {
                            Ok(m) => m,
                            Err(_) => {
                                // Queue dry: no more coalescing fuel —
                                // flush buffered acks before blocking.
                                Self::flush_acks(
                                    &sink,
                                    &link2,
                                    &faults,
                                    &mut rng,
                                    &mut held_reply,
                                    &mut acks,
                                );
                                match rx.recv() {
                                    Ok(m) => m,
                                    Err(_) => break,
                                }
                            }
                        },
                    };
                    let msg = match next {
                        QueuedMsg::ToDc(m) => m,
                        QueuedMsg::Stop => break,
                    };
                    // Coalesce queued operation traffic into one batch.
                    let msg = if max_batch > 1 {
                        if let TcToDc::Perform { tc, req, op } = msg {
                            let mut ops = vec![(req, op)];
                            while ops.len() < max_batch {
                                match rx.try_recv() {
                                    Ok(QueuedMsg::ToDc(TcToDc::Perform { tc: t, req, op }))
                                        if t == tc =>
                                    {
                                        ops.push((req, op));
                                    }
                                    Ok(other) => {
                                        pending = Some(other);
                                        break;
                                    }
                                    Err(_) => break,
                                }
                            }
                            if ops.len() == 1 {
                                let (req, op) = ops.pop().expect("one element");
                                TcToDc::Perform { tc, req, op }
                            } else {
                                if let Some(l) = link2.upgrade() {
                                    l.batches.fetch_add(1, Ordering::Relaxed);
                                    l.batched_ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
                                }
                                TcToDc::PerformBatch { tc, ops }
                            }
                        } else {
                            msg
                        }
                    } else {
                        msg
                    };
                    let faultable = !msg.is_control();
                    if faults.delay > Duration::ZERO {
                        std::thread::sleep(faults.delay);
                    }
                    if faultable && rng.gen_bool(faults.loss.clamp(0.0, 1.0)) {
                        if let Some(l) = link2.upgrade() {
                            l.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        continue; // lost in transit (a batch is lost whole)
                    }
                    if faultable && held.is_none() && rng.gen_bool(faults.reorder.clamp(0.0, 1.0)) {
                        if let Some(l) = link2.upgrade() {
                            l.reordered.fetch_add(1, Ordering::Relaxed);
                        }
                        held = Some(msg); // deliver after the next message
                        continue;
                    }
                    call_seq += 1;
                    Self::invoke(
                        &slot,
                        &sink,
                        &link2,
                        &faults,
                        &mut rng,
                        &mut held_reply,
                        &mut acks,
                        call_seq,
                        msg,
                    );
                    if let Some(h) = held.take() {
                        call_seq += 1;
                        Self::invoke(
                            &slot,
                            &sink,
                            &link2,
                            &faults,
                            &mut rng,
                            &mut held_reply,
                            &mut acks,
                            call_seq,
                            h,
                        );
                    }
                }
                // Drain all buffers on shutdown: nothing may be silently
                // stranded by a stopping worker.
                if let Some(h) = held.take() {
                    call_seq += 1;
                    Self::invoke(
                        &slot,
                        &sink,
                        &link2,
                        &faults,
                        &mut rng,
                        &mut held_reply,
                        &mut acks,
                        call_seq,
                        h,
                    );
                }
                Self::flush_acks(&sink, &link2, &faults, &mut rng, &mut held_reply, &mut acks);
                if let Some(r) = held_reply.take() {
                    sink.deliver(r);
                }
            }));
        }
        *link.workers.lock() = handles;
        link
    }

    /// Hand one inbound message to the DC, buffering its replies into
    /// the cross-call ack buffer. The buffer is flushed immediately when
    /// a control reply arrived (control is prompt and reliable), when
    /// the buffered ack count reaches the reply-batch limit, or when
    /// reply batching is off (legacy per-call delivery).
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        slot: &Arc<DcSlot>,
        sink: &Arc<ReplySink>,
        link: &Weak<QueuedLink>,
        faults: &FaultModel,
        rng: &mut StdRng,
        held_reply: &mut Option<DcToTc>,
        acks: &mut Vec<(u64, DcToTc)>,
        call: u64,
        msg: TcToDc,
    ) {
        let Some(dc) = slot.get() else {
            return; // DC down: message lost — the resend contract covers it.
        };
        let mut out = Vec::new();
        dc.handle(msg, &mut out);
        let mut has_control = false;
        for m in out {
            has_control |= m.is_control();
            acks.push((call, m));
        }
        let reply_batch = match link.upgrade() {
            Some(l) => l.reply_batch.load(Ordering::Relaxed),
            None => 1,
        };
        let buffered_ops: usize = acks
            .iter()
            .map(|(_, m)| match m {
                DcToTc::Reply { .. } => 1,
                DcToTc::ReplyBatch { replies, .. } => replies.len(),
                _ => 0,
            })
            .sum();
        if reply_batch <= 1 || has_control || buffered_ops >= reply_batch {
            Self::flush_acks(sink, link, faults, rng, held_reply, acks);
        }
    }

    /// Shape the buffered replies for the wire and deliver them,
    /// subjecting each operation-reply datagram to the fault model —
    /// loss and reordering apply to a `ReplyBatch` as a whole, exactly
    /// like the request direction treats a `PerformBatch`. Control
    /// replies pass through reliably, in order.
    fn flush_acks(
        sink: &Arc<ReplySink>,
        link: &Weak<QueuedLink>,
        faults: &FaultModel,
        rng: &mut StdRng,
        held_reply: &mut Option<DcToTc>,
        acks: &mut Vec<(u64, DcToTc)>,
    ) {
        if acks.is_empty() {
            return;
        }
        let reply_batch = match link.upgrade() {
            Some(l) => l.reply_batch.load(Ordering::Relaxed),
            None => 1,
        };
        for reply in shape_replies(std::mem::take(acks), reply_batch, link) {
            if reply.is_control() {
                // Control-plane conversations are reliable and ordered.
                sink.deliver(reply);
                continue;
            }
            if faults.delay > Duration::ZERO {
                std::thread::sleep(faults.delay);
            }
            if rng.gen_bool(faults.loss.clamp(0.0, 1.0)) {
                if let Some(l) = link.upgrade() {
                    l.reply_dropped.fetch_add(1, Ordering::Relaxed);
                }
                continue; // a lost batch loses all its acks at once
            }
            if held_reply.is_none() && rng.gen_bool(faults.reorder.clamp(0.0, 1.0)) {
                if let Some(l) = link.upgrade() {
                    l.reply_reordered.fetch_add(1, Ordering::Relaxed);
                }
                *held_reply = Some(reply); // deliver after the next one
                continue;
            }
            sink.deliver(reply);
            if let Some(h) = held_reply.take() {
                sink.deliver(h);
            }
        }
    }

    /// Messages dropped so far (experiment accounting).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages reordered so far.
    pub fn reordered(&self) -> u64 {
        self.reordered.load(Ordering::Relaxed)
    }

    /// `PerformBatch` messages formed by coalescing so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Operations carried inside those batches.
    pub fn batched_ops(&self) -> u64 {
        self.batched_ops.load(Ordering::Relaxed)
    }

    /// Reply-direction datagrams dropped so far.
    pub fn reply_dropped(&self) -> u64 {
        self.reply_dropped.load(Ordering::Relaxed)
    }

    /// Reply-direction datagrams reordered so far.
    pub fn reply_reordered(&self) -> u64 {
        self.reply_reordered.load(Ordering::Relaxed)
    }

    /// `ReplyBatch` datagrams formed for the reply direction so far
    /// (counted when put on the wire, before loss injection).
    pub fn reply_batches(&self) -> u64 {
        self.reply_batches.load(Ordering::Relaxed)
    }

    /// Acks carried inside those reply batches.
    pub fn reply_batched_ops(&self) -> u64 {
        self.reply_batched_ops.load(Ordering::Relaxed)
    }

    /// `ReplyBatch` datagrams whose acks span more than one `handle()`
    /// invocation (cross-call coalescing actually happened, rather than
    /// a batch merely mirroring one request batch).
    pub fn cross_call_reply_batches(&self) -> u64 {
        self.cross_call_reply_batches.load(Ordering::Relaxed)
    }

    /// Override the reply-direction batch limit (the request-side
    /// `max_batch` by default). `n` ≤ 1 restores per-ack replies —
    /// DC-coalesced batches are split back into individual `Reply`
    /// datagrams — which is the ablation the e11 experiment measures.
    pub fn set_reply_batch(&self, n: usize) {
        self.reply_batch.store(n.max(1), Ordering::Relaxed);
    }

    /// Stop the workers (drains the queue first). A worker delivering a
    /// reply can hold the last reference to its TC, and so drop the TC
    /// and this link on its own thread: that worker is not joined — it
    /// takes its stop message and exits by itself.
    pub fn shutdown(&self) {
        let n = self.workers.lock().len();
        for _ in 0..n {
            let _ = self.tx.send(QueuedMsg::Stop);
        }
        let me = std::thread::current().id();
        for h in self.workers.lock().drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

/// Shape buffered (call-tagged) replies for the wire.
///
/// With `reply_batch` ≤ 1 the link runs per-ack: DC-coalesced
/// [`DcToTc::ReplyBatch`] messages are split back into individual
/// `Reply` datagrams. With `reply_batch` > 1, adjacent operation replies
/// to the same TC coalesce into `ReplyBatch` datagrams of at most
/// `reply_batch` acks (an oversized DC batch is re-chunked). The call
/// tags record which `handle()` invocation produced each ack: a chunk
/// spanning more than one invocation is a *cross-call* batch and bumps
/// [`QueuedLink::cross_call_reply_batches`]. Control replies pass
/// through unchanged and break a run.
fn shape_replies(
    out: Vec<(u64, DcToTc)>,
    reply_batch: usize,
    link: &Weak<QueuedLink>,
) -> Vec<DcToTc> {
    type Ack = (u64, RequestId, Result<OpResult, DcError>);
    let mut shaped = Vec::with_capacity(out.len());
    if reply_batch <= 1 {
        for (_, m) in out {
            match m {
                DcToTc::ReplyBatch { dc, tc, replies } => {
                    shaped.extend(replies.into_iter().map(|(req, result)| DcToTc::Reply {
                        dc,
                        tc,
                        req,
                        result,
                    }))
                }
                m => shaped.push(m),
            }
        }
        return shaped;
    }
    let mut run: Option<(DcId, TcId, Vec<Ack>)> = None;
    let flush = |run: &mut Option<(DcId, TcId, Vec<Ack>)>, shaped: &mut Vec<DcToTc>| {
        if let Some((dc, tc, acks)) = run.take() {
            for chunk in acks.chunks(reply_batch) {
                if chunk.len() == 1 {
                    let (_, req, result) = chunk[0].clone();
                    shaped.push(DcToTc::Reply {
                        dc,
                        tc,
                        req,
                        result,
                    });
                } else {
                    if let Some(l) = link.upgrade() {
                        l.reply_batches.fetch_add(1, Ordering::Relaxed);
                        l.reply_batched_ops
                            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        let first_call = chunk[0].0;
                        if chunk.iter().any(|(c, _, _)| *c != first_call) {
                            l.cross_call_reply_batches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    shaped.push(DcToTc::ReplyBatch {
                        dc,
                        tc,
                        replies: chunk.iter().map(|(_, req, r)| (*req, r.clone())).collect(),
                    });
                }
            }
        }
    };
    for (call, m) in out {
        let (dc, tc, acks): (_, _, Vec<Ack>) = match m {
            DcToTc::Reply {
                dc,
                tc,
                req,
                result,
            } => (dc, tc, vec![(call, req, result)]),
            DcToTc::ReplyBatch { dc, tc, replies } => (
                dc,
                tc,
                replies
                    .into_iter()
                    .map(|(req, result)| (call, req, result))
                    .collect(),
            ),
            control => {
                flush(&mut run, &mut shaped);
                shaped.push(control);
                continue;
            }
        };
        match &mut run {
            Some((rdc, rtc, racks)) if *rdc == dc && *rtc == tc => racks.extend(acks),
            _ => {
                flush(&mut run, &mut shaped);
                run = Some((dc, tc, acks));
            }
        }
    }
    flush(&mut run, &mut shaped);
    shaped
}

impl DcLink for QueuedLink {
    fn send(&self, msg: TcToDc) {
        let _ = self.tx.send(QueuedMsg::ToDc(msg));
    }
}

impl Drop for QueuedLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}
