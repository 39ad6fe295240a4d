//! An append-only log device with explicit force semantics.
//!
//! [`LogStore`] is generic over the record type: the TC stores logical
//! redo/undo records, the DC stores system-transaction records, the
//! monolithic baseline stores physiological records. What they share is
//! the durability contract:
//!
//! * `append` buffers a record and returns its sequence number (1-based);
//! * `force` makes every buffered record stable;
//! * `crash` loses exactly the unforced tail — the stable prefix
//!   survives, and sequence numbering resumes from the stable end
//!   (exactly what happens when a real log device loses its volatile
//!   buffer).
//!
//! Byte accounting is explicit (`append` takes the encoded size) so
//! experiments can compare log-space costs — e.g. the paper's observation
//! that physically logging a consolidated page costs more log space than
//! a logical page-delete record (Section 5.2.2).
//!
//! Two force paths exist:
//!
//! * [`LogStore::force`] — the classic synchronous flush: the caller
//!   stalls the log (and every appender) for the device latency.
//! * [`LogStore::group_force`] — the group-commit path: one caller
//!   *leads* a flush covering every record appended so far while the
//!   log stays open for appends; concurrent callers whose target the
//!   in-flight flush covers *piggyback* on it via the force-epoch
//!   condvar instead of issuing their own. A leader may first hold the
//!   flush back for a [`GatherWindow`] — fixed, or chosen by the
//!   adaptive controller, which grows the window while committers
//!   arrive faster than the device latency and decays it to zero under
//!   light load.

use crate::stats::IoStats;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unbundled_obs as obs;

/// How long a group-force leader may hold its flush back to let more
/// committers join the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatherWindow {
    /// Wait exactly this long (zero = flush immediately; coalescing then
    /// comes only from piggybacking on in-flight flushes).
    Fixed(Duration),
    /// Let the log's adaptive controller choose, bounded by `cap`. The
    /// controller hill-climbs on *measured* commit coverage: every few
    /// led flushes it probes a candidate window — growing (×2, seeded
    /// at one device latency) while committers keep piling up faster
    /// than the device can flush, shrinking toward zero otherwise —
    /// and adopts the candidate only if the covered-commits rate
    /// actually improved. Probes that do not pay back off
    /// exponentially, so under light load the window decays to (and
    /// stays at) zero and a solo committer almost never waits.
    Adaptive {
        /// Upper bound on the chosen window.
        cap: Duration,
    },
    /// The adaptive controller with a latency constraint: the objective
    /// stays *measured delivered commits per second*, but every epoch
    /// also measures the p99 of commit gather+flush latency (entry into
    /// `group_force` to return), and a candidate window whose epoch p99
    /// exceeds `p99_budget` is rejected no matter how much throughput it
    /// bought ([`GroupForceStats::budget_rejects`] counts these). An
    /// *adopted* window whose epoch drifts over budget is walked back
    /// immediately without waiting for a probe to pay — under open-loop
    /// (arrival-driven) load, latency is a constraint, not an objective.
    AdaptiveBudget {
        /// Upper bound on the chosen window.
        cap: Duration,
        /// p99 commit-latency budget the controller must stay within.
        p99_budget: Duration,
    },
}

impl GatherWindow {
    /// Default cap for [`GatherWindow::adaptive`].
    pub const DEFAULT_CAP: Duration = Duration::from_millis(1);

    /// The adaptive controller with the default cap.
    pub fn adaptive() -> Self {
        GatherWindow::Adaptive {
            cap: Self::DEFAULT_CAP,
        }
    }

    /// The latency-aware adaptive controller with the default cap.
    pub fn adaptive_with_budget(p99_budget: Duration) -> Self {
        GatherWindow::AdaptiveBudget {
            cap: Self::DEFAULT_CAP,
            p99_budget,
        }
    }

    /// No deliberate gather wait.
    pub fn none() -> Self {
        GatherWindow::Fixed(Duration::ZERO)
    }

    /// The adaptive controller's parameters, if this is an adaptive
    /// mode: `(cap, p99 budget)`.
    fn adaptive_params(&self) -> Option<(Duration, Option<Duration>)> {
        match *self {
            GatherWindow::Fixed(_) => None,
            GatherWindow::Adaptive { cap } => Some((cap, None)),
            GatherWindow::AdaptiveBudget { cap, p99_budget } => Some((cap, Some(p99_budget))),
        }
    }
}

impl Default for GatherWindow {
    fn default() -> Self {
        Self::adaptive()
    }
}

/// Group-force introspection counters (see
/// [`LogStore::group_force_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupForceStats {
    /// Flushes led (each may cover many piggybacked committers).
    pub led_flushes: u64,
    /// Total committers covered at the moment each led flush started —
    /// `gathered_waiters / led_flushes` is the mean commit-group size.
    pub gathered_waiters: u64,
    /// Candidate windows the adaptive controller probed.
    pub window_probes: u64,
    /// Probes adopted as growths of the window.
    pub window_grows: u64,
    /// Probes adopted as shrinks of the window.
    pub window_shrinks: u64,
    /// Probes that measurably improved the covered-commit rate but were
    /// rejected because the epoch's p99 commit latency broke the
    /// [`GatherWindow::AdaptiveBudget`] budget, plus budget-driven
    /// walk-backs of an adopted window.
    pub budget_rejects: u64,
}

/// Adaptive gather-window controller state (one per log).
struct AdaptiveState {
    /// The adopted window (what non-probe flushes wait).
    win: Duration,
    /// A probe epoch is in progress.
    probing: bool,
    /// The grow candidate under probe already cleared the adopt margin
    /// once and is being re-measured for confirmation. A single
    /// 8-flush epoch is noisy enough that a window ~15% *slower* can
    /// occasionally clear the margin; requiring two consecutive
    /// clearing epochs squares that probability away, while a real
    /// improvement confirms at the cost of one extra epoch. Shrinks
    /// adopt on one epoch — a misadopted shrink is at worst window
    /// zero, which the growth bias recovers cheaply.
    confirming: bool,
    /// Candidate window under probe.
    probe_win: Duration,
    /// Next probe direction; biased toward growth whenever committers
    /// were observed arriving while a flush was in flight.
    prefer_grow: bool,
    /// Epochs to sit out between probes (doubles on failed probes).
    backoff: u32,
    /// Epochs since the last probe ended.
    idle_epochs: u32,
    /// Measured led flushes in the current epoch (the opener excluded).
    flushes: u64,
    /// Waiters covered by the epoch's measured flushes.
    covered: u64,
    /// Epoch clock: starts when the epoch's opening flush completes, so
    /// idle time before a burst is never billed to the measured rate.
    epoch_start: Option<std::time::Instant>,
    /// Covered-waiters-per-second of the adopted window's last epoch.
    base_rate: f64,
    /// Commit gather+flush latencies (ns) recorded by returning
    /// `group_force` callers since the last epoch boundary (bounded —
    /// a p99 estimate does not need every sample of a huge epoch).
    lat_samples: Vec<u64>,
    /// p99 of the last completed epoch's commit latencies.
    last_p99: Duration,
    /// Largest epoch p99 observed over the log's lifetime — a mid-run
    /// budget violation stays visible here even after quiet end-of-run
    /// epochs overwrite `last_p99`.
    max_p99: Duration,
}

impl AdaptiveState {
    fn new() -> Self {
        AdaptiveState {
            win: Duration::ZERO,
            probing: false,
            confirming: false,
            probe_win: Duration::ZERO,
            prefer_grow: false,
            backoff: 1,
            idle_epochs: 0,
            flushes: 0,
            covered: 0,
            epoch_start: None,
            base_rate: 0.0,
            lat_samples: Vec::new(),
            last_p99: Duration::ZERO,
            max_p99: Duration::ZERO,
        }
    }

    /// Max latency samples retained per epoch (drop-newest beyond it).
    const MAX_LAT_SAMPLES: usize = 4096;

    fn record_latency(&mut self, elapsed: Duration) {
        if self.lat_samples.len() < Self::MAX_LAT_SAMPLES {
            self.lat_samples.push(elapsed.as_nanos() as u64);
        }
    }

    /// Drain the accumulated samples into their p99 (zero if none).
    fn drain_p99(&mut self) -> Duration {
        let mut s = std::mem::take(&mut self.lat_samples);
        if s.is_empty() {
            return Duration::ZERO;
        }
        s.sort_unstable();
        let idx = ((s.len() - 1) as f64 * 0.99) as usize;
        Duration::from_nanos(s[idx])
    }

    /// The window the next leader should gather for.
    fn current(&self, cap: Duration) -> Duration {
        if self.probing {
            self.probe_win.min(cap)
        } else {
            self.win.min(cap)
        }
    }
}

/// Point-in-time copy of a [`ForceArbiter`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForceArbiterStats {
    /// Flush requests arbitrated (one per log-level flush).
    pub requests: u64,
    /// Physical device flushes actually performed. Under coalescing,
    /// `requests - device_flushes` is the cross-log sharing win.
    pub device_flushes: u64,
}

struct ArbiterInner {
    /// Device flushes started (a started flush cannot cover requests
    /// that arrive after it began — their writes missed the bus).
    started: u64,
    /// Device flushes completed.
    completed: u64,
    /// A device flush is in flight.
    flushing: bool,
    stats: ForceArbiterStats,
}

/// A shared log *device*: several colocated logs (e.g. the redo logs of
/// TC shards packed on one machine) contend for a single flush path.
/// The arbiter serializes their flushes — two logs cannot write the
/// device at once — and, in coalescing mode, lets every request that
/// arrives while a flush is in flight share the *next* device flush
/// instead of queueing one each.
///
/// A request is only covered by a flush that **started after it
/// arrived**: an in-flight flush was issued before the requester's
/// records reached the device, so the requester waits for the next one.
/// All requests gathered during one device flush therefore share a
/// single follow-up flush — the cross-shard analogue of group commit.
///
/// Non-coalescing mode (`ForceArbiter::serial`) models the naive shared
/// device: flushes serialize but never merge. It exists as the honest
/// baseline for measuring what coalescing buys.
///
/// The simulated device latency is the *requesting log's* — colocated
/// logs are expected to share one `force_latency` setting.
pub struct ForceArbiter {
    inner: Mutex<ArbiterInner>,
    /// Signalled when a device flush completes.
    done: Condvar,
    /// Whether concurrent requests may share one device flush.
    coalescing: bool,
}

impl ForceArbiter {
    fn make(coalescing: bool) -> Arc<Self> {
        Arc::new(ForceArbiter {
            inner: Mutex::new(ArbiterInner {
                started: 0,
                completed: 0,
                flushing: false,
                stats: ForceArbiterStats::default(),
            }),
            done: Condvar::new(),
            coalescing,
        })
    }

    /// A coalescing arbiter: requests gathered during a device flush
    /// share the next one.
    pub fn new() -> Arc<Self> {
        Self::make(true)
    }

    /// A serializing-only arbiter (the naive shared device): every
    /// request performs its own flush, queued behind the others.
    pub fn serial() -> Arc<Self> {
        Self::make(false)
    }

    /// Block until a device flush that started after this call completes
    /// (performing it if no one else is), paying `latency` per physical
    /// flush.
    pub fn flush(&self, latency: Duration) {
        let mut g = self.inner.lock();
        g.stats.requests += 1;
        if self.coalescing {
            // Covered by the next flush to start.
            let need = g.started + 1;
            loop {
                if g.completed >= need {
                    return;
                }
                if g.flushing {
                    self.done.wait(&mut g);
                    continue;
                }
                g = self.lead(g, latency);
            }
        } else {
            while g.flushing {
                self.done.wait(&mut g);
            }
            self.lead(g, latency);
        }
    }

    /// Perform one physical device flush (caller holds the lock and has
    /// established no flush is in flight).
    fn lead<'a>(
        &'a self,
        mut g: parking_lot::MutexGuard<'a, ArbiterInner>,
        latency: Duration,
    ) -> parking_lot::MutexGuard<'a, ArbiterInner> {
        g.flushing = true;
        g.started += 1;
        let seq = g.started;
        drop(g);
        if latency > Duration::ZERO {
            std::thread::sleep(latency);
        }
        let mut g = self.inner.lock();
        g.flushing = false;
        g.completed = g.completed.max(seq);
        g.stats.device_flushes += 1;
        self.done.notify_all();
        g
    }

    /// Arbitration counters.
    pub fn stats(&self) -> ForceArbiterStats {
        self.inner.lock().stats
    }
}

/// Convenience alias used by components that share a log handle.
pub type SeqLog<R> = Arc<LogStore<R>>;

struct LogInner<R> {
    /// Records with sequence numbers `base + 1 ..= base + records.len()`.
    records: Vec<(R, u32)>,
    /// Sequence number of the last truncated-away record.
    base: u64,
    /// Number of records (from the front of `records`) that are stable.
    stable: usize,
    /// Simulated device latency per flush (zero = instantaneous).
    force_latency: Duration,
    /// A group-force leader's flush is in flight.
    forcing: bool,
    /// Completed flushes (group leaders bump it; piggybackers wake on it).
    force_epoch: u64,
    /// Crash generation: bumped by [`LogStore::crash`]. A group-force
    /// leader that started its flush before a crash must not mark
    /// anything stable afterwards — the device lost what it was writing,
    /// and records appended post-crash were never part of its snapshot.
    crashes: u64,
    /// Group-force callers (leader included) whose target is not yet
    /// stable, as a sorted list of their targets — the commit group a
    /// gathering leader counts. Entries are drained the moment a flush
    /// covers them (not when the covered caller happens to get
    /// scheduled and return): a gather window's `max_waiters` cut must
    /// count committers still *waiting for durability*, and counting
    /// already-covered stragglers used to cut the window at ~2/3 of
    /// the configured group size under a saturated open-loop load.
    gathering: Vec<u64>,
    /// Adaptive gather controller.
    adaptive: AdaptiveState,
    /// Group-force accounting.
    gf_stats: GroupForceStats,
    /// Shared-device flush arbiter (colocated logs contending for one
    /// physical flush path); `None` = the log owns its device.
    arbiter: Option<Arc<ForceArbiter>>,
}

impl<R> LogInner<R> {
    fn stable_seq(&self) -> u64 {
        self.base + self.stable as u64
    }

    fn last_seq(&self) -> u64 {
        self.base + self.records.len() as u64
    }
}

/// Append-only log with force/crash semantics. Cheap to clone behind an
/// [`Arc`]; a rebooted component reattaches to the same store.
pub struct LogStore<R> {
    inner: Mutex<LogInner<R>>,
    /// Signalled when a flush completes (piggybackers wait here).
    force_done: Condvar,
    /// Signalled when a waiter joins (a gathering leader waits here).
    gather: Condvar,
    stats: Arc<IoStats>,
    /// Duration of the most recent device flush, in nanoseconds. Read
    /// outside the inner mutex by returning `group_force` callers to
    /// split their wall-clock wait into gather vs. flush time.
    last_flush_ns: AtomicU64,
    /// The stable end (`base + stable`), mirrored outside the inner
    /// mutex so [`LogStore::stable_seq`] — which every snapshot read
    /// asks — takes no lock. Stored under the mutex whenever a flush
    /// advances it; truncation and crashes leave it unchanged.
    stable_end: AtomicU64,
    registry: Arc<obs::Registry>,
    /// Per-caller time gathering (waiting on window/leader) before the
    /// covering flush, excluding the flush itself.
    gather_hist: obs::Histogram,
    /// Per-flush device flush duration.
    force_hist: obs::Histogram,
    /// The gather window a leader last used, in microseconds.
    window_gauge: obs::Gauge,
    /// Committers the last group-force leader cut into its flush — the
    /// instantaneous force-queue depth of this log device. The
    /// rebalance policy reads this per TC log as its "device under
    /// pressure" signal.
    depth_gauge: obs::Gauge,
}

impl<R: Clone> LogStore<R> {
    /// An empty log.
    pub fn new() -> Self {
        let registry = obs::Registry::new();
        LogStore {
            inner: Mutex::new(LogInner {
                records: Vec::new(),
                base: 0,
                stable: 0,
                force_latency: Duration::ZERO,
                forcing: false,
                force_epoch: 0,
                crashes: 0,
                gathering: Vec::new(),
                adaptive: AdaptiveState::new(),
                gf_stats: GroupForceStats::default(),
                arbiter: None,
            }),
            force_done: Condvar::new(),
            gather: Condvar::new(),
            stats: Arc::new(IoStats::new()),
            last_flush_ns: AtomicU64::new(0),
            stable_end: AtomicU64::new(0),
            gather_hist: registry.histogram(
                "storage.gather_wait_ns",
                "ns",
                "per-committer wait for a covering flush, minus the flush itself",
            ),
            force_hist: registry.histogram(
                "storage.force_flush_ns",
                "ns",
                "device flush duration, one sample per physical flush",
            ),
            window_gauge: registry.gauge(
                "storage.gather_window_us",
                "us",
                "gather window the last group-force leader used",
            ),
            depth_gauge: registry.gauge(
                "storage.force_queue_depth",
                "committers",
                "committers covered by the last led flush (force-queue depth)",
            ),
            registry: Arc::new(registry),
        }
    }

    /// This instance's metrics registry.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Record a finished device flush: remember its duration for the
    /// gather/flush split and feed the flush histogram + commit-stage
    /// accumulator.
    fn note_flush(&self, took: Duration) {
        let ns = took.as_nanos().min(u64::MAX as u128) as u64;
        self.last_flush_ns.store(ns, Ordering::Relaxed);
        self.force_hist.record_ns(ns);
    }

    /// Set the simulated device latency charged per flush. Zero (the
    /// default) keeps forces instantaneous; benches set a realistic
    /// fsync cost to expose the group-commit amortization.
    pub fn set_force_latency(&self, latency: Duration) {
        self.inner.lock().force_latency = latency;
    }

    /// Put this log on a shared flush device: every flush is paid
    /// through `arbiter`, serialized against (and, with a coalescing
    /// arbiter, shared with) the other logs attached to it. While the
    /// device wait is arbitrated the log stays open for appends; only
    /// the prefix snapshotted at flush start becomes stable.
    pub fn attach_arbiter(&self, arbiter: Arc<ForceArbiter>) {
        self.inner.lock().arbiter = Some(arbiter);
    }

    /// Append a record of `encoded_size` bytes; returns its sequence
    /// number (1-based, monotonically increasing).
    pub fn append(&self, rec: R, encoded_size: usize) -> u64 {
        let mut g = self.inner.lock();
        g.records.push((rec, encoded_size as u32));
        self.stats.log_append(encoded_size as u64);
        g.base + g.records.len() as u64
    }

    /// Append a group of records under one hold of the log mutex.
    /// `build` receives the sequence number the group's first record
    /// gets and returns the records with their encoded sizes; records
    /// may name positions inside their own group. Every flush snapshots
    /// the log under the same mutex, and a crash truncates to a flushed
    /// snapshot, so a group is stable or lost as a whole. Returns the
    /// first sequence number.
    pub fn append_group<I>(&self, build: impl FnOnce(u64) -> I) -> u64
    where
        I: IntoIterator<Item = (R, usize)>,
    {
        let mut g = self.inner.lock();
        let first = g.last_seq() + 1;
        for (rec, size) in build(first) {
            g.records.push((rec, size as u32));
            self.stats.log_append(size as u64);
        }
        first
    }

    /// Make every appended record stable with a synchronous flush: the
    /// log (including appenders) stalls for the device latency. Returns
    /// the new stable end.
    pub fn force(&self) -> u64 {
        let mut g = self.inner.lock();
        if g.stable < g.records.len() {
            if let Some(arb) = g.arbiter.clone() {
                // Shared device: pay the flush through the arbiter with
                // the log unlocked (another log may be mid-flush). Only
                // the snapshotted prefix becomes stable, and a crash
                // during the device wait discards the flush.
                let covers = g.records.len();
                let generation = g.crashes;
                let latency = g.force_latency;
                drop(g);
                let flush_start = std::time::Instant::now();
                arb.flush(latency);
                let took = flush_start.elapsed();
                self.note_flush(took);
                let took_ns = took.as_nanos().min(u64::MAX as u128) as u64;
                obs::stage::add(obs::stage::Stage::Force, took_ns);
                obs::span_interval_ago("storage.force", took_ns, 0);
                g = self.inner.lock();
                if g.crashes == generation {
                    let n = covers.min(g.records.len());
                    if n > g.stable {
                        g.stable = n;
                        self.stable_end.store(g.stable_seq(), Ordering::Release);
                        g.force_epoch += 1;
                        self.stats.log_force();
                        self.force_done.notify_all();
                    }
                }
            } else {
                let flush_start = std::time::Instant::now();
                if g.force_latency > Duration::ZERO {
                    std::thread::sleep(g.force_latency);
                }
                let took = flush_start.elapsed();
                self.note_flush(took);
                let took_ns = took.as_nanos().min(u64::MAX as u128) as u64;
                obs::stage::add(obs::stage::Stage::Force, took_ns);
                obs::span_interval_ago("storage.force", took_ns, 0);
                g.stable = g.records.len();
                self.stable_end.store(g.stable_seq(), Ordering::Release);
                g.force_epoch += 1;
                self.stats.log_force();
                self.force_done.notify_all();
            }
        }
        g.stable_seq()
    }

    /// Group-commit force: make the record at sequence number `target`
    /// (and everything before it) stable, issuing as few flushes as
    /// possible across concurrent callers.
    ///
    /// If no flush is in flight the caller becomes the *leader*: it may
    /// first wait out a gather `window` — fixed, or chosen by the
    /// adaptive controller — for more committers to join (cut short once
    /// `max_waiters` are in the group), then flushes everything appended
    /// so far; the log stays open for appends during the device latency.
    /// Callers that find a flush in flight *piggyback*: they block on
    /// the force-epoch condvar and return once a completed flush covers
    /// their target (leading the next flush themselves if theirs arrived
    /// too late for the in-flight one).
    ///
    /// Returns the stable end, which covers `target` unless a concurrent
    /// [`LogStore::crash`] discarded it.
    pub fn group_force(&self, target: u64, window: GatherWindow, max_waiters: usize) -> u64 {
        let entered = std::time::Instant::now();
        let adaptive_params = window.adaptive_params();
        let mut g = self.inner.lock();
        if g.stable_seq() >= target {
            // Already durable (a flush covered the record between
            // append and this call). Still a commit the controller is
            // serving: feed its (near-zero) latency to the p99
            // sampler, or the epoch's distribution would consist of
            // only the slower, waiting commits.
            if adaptive_params.is_some() {
                g.adaptive.record_latency(entered.elapsed());
            }
            let stable = g.stable_seq();
            // Telemetry happens with the log unlocked: the inner mutex
            // is the commit path's serialization point, and even a few
            // hundred nanoseconds inside it queues every committer.
            drop(g);
            // No flush was waited on: the (near-zero) wall time is all
            // gather from the committer's point of view.
            let total_ns = entered.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.gather_hist.record_ns(total_ns);
            obs::stage::add(obs::stage::Stage::Gather, total_ns);
            return stable;
        }
        // After a crash the caller's record is gone and `target` would
        // denote whatever gets appended in its place — give up rather
        // than flush records that are not ours.
        let entry_generation = g.crashes;
        // This caller is now an uncovered member of the commit group;
        // its entry leaves `gathering` (waking any gathering leader)
        // the moment a flush covers it.
        let pos = g.gathering.partition_point(|&t| t <= target);
        g.gathering.insert(pos, target);
        self.gather.notify_all();
        loop {
            if g.crashes != entry_generation || g.stable_seq() >= target {
                if g.crashes == entry_generation {
                    // Covered: the completing flush normally drained our
                    // entry already; a plain `force()` racing past us
                    // does not, so sweep it here. (After a crash the
                    // whole set was cleared instead.)
                    if let Ok(i) = g.gathering.binary_search(&target) {
                        g.gathering.remove(i);
                    }
                }
                self.gather.notify_all();
                if adaptive_params.is_some() {
                    // This caller's commit is done (or moot): feed its
                    // end-to-end gather+flush latency to the controller.
                    g.adaptive.record_latency(entered.elapsed());
                }
                let stable = g.stable_seq();
                // Telemetry happens with the log unlocked (see the
                // early-return above): holding the inner mutex while
                // recording would serialize every committer behind it.
                drop(g);
                // Split this committer's wall time into gather vs.
                // flush: the covering flush's measured duration (capped
                // by our own wait — late joiners saw only part of it)
                // is flush time, the remainder is gather.
                let total = entered.elapsed();
                let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
                let flush_ns = self.last_flush_ns.load(Ordering::Relaxed).min(total_ns);
                let gather_ns = total_ns - flush_ns;
                self.gather_hist.record_ns(gather_ns);
                obs::stage::add(obs::stage::Stage::Gather, gather_ns);
                obs::stage::add(obs::stage::Stage::Force, flush_ns);
                if obs::spans_enabled() {
                    obs::span_interval_ago("storage.gather_wait", total_ns, flush_ns);
                    obs::span_interval_ago("storage.force", flush_ns, 0);
                }
                return stable;
            }
            if g.forcing {
                // Piggyback on the in-flight flush.
                self.force_done.wait(&mut g);
                continue;
            }
            // Lead. Optionally hold the flush back to gather a group.
            g.forcing = true;
            let win = match window {
                GatherWindow::Fixed(d) => d,
                GatherWindow::Adaptive { cap } | GatherWindow::AdaptiveBudget { cap, .. } => {
                    g.adaptive.current(cap)
                }
            };
            if win > Duration::ZERO && max_waiters > 1 {
                let deadline = std::time::Instant::now() + win;
                while g.gathering.len() < max_waiters {
                    if self.gather.wait_until(&mut g, deadline).timed_out() {
                        break;
                    }
                }
            }
            if g.crashes != entry_generation {
                // Crashed while gathering: don't flush at all.
                g.forcing = false;
                self.force_done.notify_all();
                continue;
            }
            let covers = g.last_seq();
            let latency = g.force_latency;
            let group = g.gathering.len() as u64;
            g.gf_stats.led_flushes += 1;
            g.gf_stats.gathered_waiters += group;
            let arb = g.arbiter.clone();
            self.window_gauge
                .set(win.as_micros().min(u64::MAX as u128) as u64);
            self.depth_gauge.set(group);
            drop(g);
            let flush_start = std::time::Instant::now();
            match arb {
                // Shared device: serialize (and possibly share) the
                // flush with the other logs on it.
                Some(a) => a.flush(latency),
                None => {
                    if latency > Duration::ZERO {
                        std::thread::sleep(latency);
                    }
                }
            }
            // Publish the measured flush duration before any covered
            // waiter can observe the new stable end, so their
            // gather/flush split uses this flush's cost.
            self.note_flush(flush_start.elapsed());
            g = self.inner.lock();
            // A crash during the flush loses the records it was writing;
            // the flush must not touch anything appended afterwards.
            let new_stable = covers.min(g.last_seq());
            if g.crashes == entry_generation && new_stable > g.stable_seq() {
                g.stable = (new_stable - g.base) as usize;
                self.stable_end.store(new_stable, Ordering::Release);
                self.stats.log_force();
            }
            // Everyone this flush covered is durable *now* — retire
            // their gather entries so the next leader's `max_waiters`
            // cut counts only committers still waiting, whether or not
            // the covered threads have been scheduled yet.
            let stable_now = g.stable_seq();
            let drained = g.gathering.partition_point(|&t| t <= stable_now);
            g.gathering.drain(..drained);
            if let Some((cap, budget)) = adaptive_params {
                // Appends that landed while the device was busy flushing
                // signal demand a longer window *might* gather more.
                let arrivals_in_flight = g.last_seq().saturating_sub(covers);
                Self::adapt(&mut g, group, arrivals_in_flight, latency, cap, budget);
            }
            g.forcing = false;
            g.force_epoch += 1;
            self.force_done.notify_all();
        }
    }

    /// The adaptive gather controller, run after every led flush in
    /// adaptive mode. It hill-climbs on the *measured* rate of covered
    /// committers: flushes are grouped into fixed-size epochs; every
    /// `backoff` epochs a candidate window is probed for one epoch —
    /// growth-biased while committers keep arriving faster than the
    /// device flushes, shrink-biased otherwise — and the candidate is
    /// adopted only if its epoch covered committers measurably faster
    /// than the adopted window's did. Failed probes back off
    /// exponentially and flip the search direction, so the window
    /// decays to zero (and probing goes quiet) whenever waiting does
    /// not pay.
    ///
    /// With a `budget` ([`GatherWindow::AdaptiveBudget`]) the objective
    /// becomes *latency-aware*: each epoch also measures the p99 of
    /// commit gather+flush latency, a probe whose epoch breaks the
    /// budget is rejected even when its covered-commit rate improved,
    /// and an adopted nonzero window that drifts over budget is walked
    /// back immediately.
    fn adapt(
        g: &mut LogInner<R>,
        group: u64,
        arrivals_in_flight: u64,
        latency: Duration,
        cap: Duration,
        budget: Option<Duration>,
    ) {
        // Led flushes per measurement epoch.
        const EPOCH_FLUSHES: u64 = 8;
        // A probe must beat the adopted rate by this factor. Generous on
        // purpose: measurement noise between adjacent windows is a few
        // percent, and a falsely adopted window costs every committer
        // real latency until a later probe walks it back.
        const ADOPT_MARGIN: f64 = 1.15;
        // Max epochs between probes once they keep failing.
        const PROBE_BACKOFF_MAX: u32 = 16;
        // First grow candidate: one device latency. Anything much
        // shorter measures as the piggyback coalescing window=0 already
        // gets for free (each ×2 step from a tiny seed buys a few
        // percent — under the adopt margin the climb stalls before the
        // window reaches the scale where gathering visibly pays), while
        // "hold the flush for about one flush's worth of arrivals" is
        // the first configuration that is qualitatively different.
        let seed = latency.max(Duration::from_micros(5)).min(cap);
        let now = std::time::Instant::now();
        let ad = &mut g.adaptive;
        if arrivals_in_flight > 0 {
            ad.prefer_grow = true;
        }
        let Some(start) = ad.epoch_start else {
            // This flush *opens* the epoch: the clock starts at its
            // completion, so an idle stretch before a commit burst is
            // never billed to the epoch's rate (it would deflate the
            // measurement and corrupt probe-adoption decisions). The
            // opener's own group is excluded to match the time window —
            // as are latencies sampled before the epoch opened.
            ad.lat_samples.clear();
            ad.epoch_start = Some(now);
            return;
        };
        ad.flushes += 1;
        ad.covered += group;
        if ad.flushes < EPOCH_FLUSHES {
            return;
        }
        let elapsed = now.duration_since(start).as_secs_f64();
        let rate = if elapsed > 0.0 {
            ad.covered as f64 / elapsed
        } else {
            f64::MAX
        };
        let p99 = ad.drain_p99();
        ad.last_p99 = p99;
        ad.max_p99 = ad.max_p99.max(p99);
        let over_budget = budget.is_some_and(|b| p99 > b);
        if ad.probing {
            let grow = ad.probe_win > ad.win;
            if rate > ad.base_rate * ADOPT_MARGIN && !(over_budget && grow) {
                if grow && !ad.confirming {
                    // First clearing epoch of a grow candidate: one
                    // epoch of evidence is not enough to make every
                    // committer wait longer — re-measure the same
                    // candidate before adopting (see `confirming`).
                    ad.confirming = true;
                    ad.flushes = 0;
                    ad.covered = 0;
                    ad.epoch_start = None;
                    return;
                }
                // The candidate measurably paid — twice, for grows —
                // (and a grown window stayed within the latency
                // budget): adopt it and keep exploring the same
                // direction eagerly. Shrinks are exempt from the
                // budget test — when the *adopted* window is what
                // breaks the budget, shrinking must never be vetoed by
                // the very violation it cures.
                if grow {
                    g.gf_stats.window_grows += 1;
                } else {
                    g.gf_stats.window_shrinks += 1;
                }
                ad.win = ad.probe_win;
                ad.base_rate = rate;
                ad.backoff = 1;
            } else {
                if rate > ad.base_rate * ADOPT_MARGIN {
                    // Throughput improved but the budget broke: this
                    // probe direction buys throughput the budget cannot
                    // afford.
                    g.gf_stats.budget_rejects += 1;
                }
                ad.prefer_grow = !ad.prefer_grow;
                ad.backoff = (ad.backoff * 2).min(PROBE_BACKOFF_MAX);
            }
            if over_budget {
                ad.prefer_grow = false;
            }
            ad.probing = false;
            ad.confirming = false;
            ad.idle_epochs = 0;
        } else if over_budget && ad.win > Duration::ZERO {
            // The adopted window itself breaks the budget: walk it back
            // right away (no probe, no adoption margin) — latency is a
            // constraint, not an objective, so a violating window is
            // not allowed to sit through probe backoff.
            ad.win = if ad.win > seed {
                ad.win / 2
            } else {
                Duration::ZERO
            };
            g.gf_stats.budget_rejects += 1;
            g.gf_stats.window_shrinks += 1;
            ad.prefer_grow = false;
            ad.base_rate = 0.0;
            ad.idle_epochs = 0;
        } else {
            ad.base_rate = rate;
            ad.idle_epochs += 1;
            if ad.idle_epochs >= ad.backoff {
                let candidate = if ad.prefer_grow {
                    ad.win.saturating_mul(2).max(seed).min(cap)
                } else if ad.win > seed {
                    ad.win / 2
                } else {
                    // Halving a window at or below one device latency
                    // cannot clear the adopt margin; the only shrink
                    // worth measuring is "don't wait at all".
                    Duration::ZERO
                };
                if candidate != ad.win {
                    ad.probing = true;
                    ad.probe_win = candidate;
                    g.gf_stats.window_probes += 1;
                } else {
                    // Nothing to try this way; search the other.
                    ad.prefer_grow = !ad.prefer_grow;
                }
                ad.idle_epochs = 0;
            }
        }
        ad.flushes = 0;
        ad.covered = 0;
        ad.epoch_start = None;
    }

    /// Number of completed flushes (group-force coalescing accounting).
    pub fn force_epoch(&self) -> u64 {
        self.inner.lock().force_epoch
    }

    /// The gather window currently adopted by the adaptive controller
    /// (zero until a probe measurably pays, and always zero when only
    /// fixed windows are in use). Transient probe windows under
    /// evaluation are not reported.
    pub fn gather_window(&self) -> Duration {
        self.inner.lock().adaptive.win
    }

    /// Group-force accounting: led flushes, gathered committers, and
    /// adaptive-controller activity.
    pub fn group_force_stats(&self) -> GroupForceStats {
        self.inner.lock().gf_stats
    }

    /// p99 of commit gather+flush latency over the adaptive
    /// controller's last completed measurement epoch (zero until an
    /// epoch completes, and always zero under fixed windows — only the
    /// adaptive modes sample latencies).
    pub fn gather_p99(&self) -> Duration {
        self.inner.lock().adaptive.last_p99
    }

    /// Largest epoch p99 the adaptive controller has measured over the
    /// log's lifetime — unlike [`LogStore::gather_p99`], a mid-run
    /// violation is not hidden by quieter epochs afterwards.
    pub fn gather_p99_max(&self) -> Duration {
        self.inner.lock().adaptive.max_p99
    }

    /// Whether a group-force flush is currently in flight.
    pub fn force_in_flight(&self) -> bool {
        self.inner.lock().forcing
    }

    /// Sequence number of the last stable record (0 if none).
    pub fn stable_seq(&self) -> u64 {
        self.stable_end.load(Ordering::Acquire)
    }

    /// Sequence number of the last appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        let g = self.inner.lock();
        g.base + g.records.len() as u64
    }

    /// Number of appended-but-unforced records.
    pub fn unforced_len(&self) -> usize {
        let g = self.inner.lock();
        g.records.len() - g.stable
    }

    /// Crash: lose the unforced tail. Returns the surviving stable end.
    pub fn crash(&self) -> u64 {
        let mut g = self.inner.lock();
        let stable = g.stable;
        g.records.truncate(stable);
        g.crashes += 1;
        // Waiting committers return on the generation bump; their
        // targets denote lost records, so the gather set restarts
        // empty (post-crash appenders insert fresh entries).
        g.gathering.clear();
        g.base + g.stable as u64
    }

    /// Read the stable record with sequence number `seq`, if it exists
    /// and has not been truncated away.
    pub fn read(&self, seq: u64) -> Option<R> {
        let g = self.inner.lock();
        if seq <= g.base || seq > g.base + g.stable as u64 {
            return None;
        }
        Some(g.records[(seq - g.base - 1) as usize].0.clone())
    }

    /// Copy the stable records with sequence numbers in `[from, to]`
    /// (clamped to the stable, untruncated range), with their sequence
    /// numbers.
    pub fn read_range(&self, from: u64, to: u64) -> Vec<(u64, R)> {
        let g = self.inner.lock();
        let lo = from.max(g.base + 1);
        let hi = to.min(g.base + g.stable as u64);
        let mut out = Vec::new();
        let mut seq = lo;
        while seq <= hi {
            out.push((seq, g.records[(seq - g.base - 1) as usize].0.clone()));
            seq += 1;
        }
        out
    }

    /// Copy every stable record (with sequence numbers).
    pub fn read_all_stable(&self) -> Vec<(u64, R)> {
        self.read_range(1, u64::MAX)
    }

    /// Copy every record *including the unforced tail*. Only a live
    /// component may use this on its own log (its buffer is intact); a
    /// rebooted component must use [`LogStore::read_all_stable`].
    pub fn read_all_volatile(&self) -> Vec<(u64, R)> {
        let g = self.inner.lock();
        g.records
            .iter()
            .enumerate()
            .map(|(i, (r, _))| (g.base + i as u64 + 1, r.clone()))
            .collect()
    }

    /// Discard the prefix up to and including `seq` (checkpoint
    /// truncation / contract termination). Only stable records may be
    /// truncated; requests beyond the stable point are clamped.
    pub fn truncate_prefix(&self, seq: u64) {
        let mut g = self.inner.lock();
        let upto = seq.min(g.base + g.stable as u64);
        if upto <= g.base {
            return;
        }
        let n = (upto - g.base) as usize;
        g.records.drain(..n);
        g.base = upto;
        g.stable -= n;
    }

    /// Total bytes of live (untruncated) records.
    pub fn live_bytes(&self) -> u64 {
        let g = self.inner.lock();
        g.records.iter().map(|(_, s)| *s as u64).sum()
    }

    /// Shared I/O statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }
}

impl<R: Clone> Default for LogStore<R> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn append_returns_monotonic_seq() {
        let log = LogStore::new();
        assert_eq!(log.append("a", 1), 1);
        assert_eq!(log.append("b", 1), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.stable_seq(), 0);
    }

    #[test]
    fn force_advances_stable() {
        let log = LogStore::new();
        log.append("a", 1);
        assert_eq!(log.force(), 1);
        log.append("b", 1);
        assert_eq!(log.stable_seq(), 1);
        assert_eq!(log.unforced_len(), 1);
    }

    #[test]
    fn crash_loses_exactly_the_unforced_tail() {
        let log = LogStore::new();
        log.append("a", 1);
        log.append("b", 1);
        log.force();
        log.append("c", 1);
        log.append("d", 1);
        assert_eq!(log.crash(), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.read(1), Some("a"));
        assert_eq!(log.read(2), Some("b"));
        assert_eq!(log.read(3), None);
        // Sequence numbering resumes from the stable end.
        assert_eq!(log.append("e", 1), 3);
    }

    #[test]
    fn append_group_numbers_its_records_from_the_first() {
        let log = LogStore::new();
        log.append(0, 1);
        let first = log.append_group(|first| (first..first + 3).map(|s| (s, 1)));
        assert_eq!(first, 2);
        assert_eq!(log.last_seq(), 4);
        log.force();
        for s in 2..=4 {
            assert_eq!(log.read(s), Some(s), "a record can name its own position");
        }
    }

    #[test]
    fn append_group_is_never_split_by_a_force_or_a_crash() {
        // Groups of three `(group, index)` records race a solo forcer, a
        // group forcer and repeated crashes: every stable end any of
        // them observes must fall on a group boundary.
        let log: Arc<LogStore<(u64, u8)>> = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_micros(20));
        let ends_group = |log: &LogStore<(u64, u8)>, s: u64| s == 0 || log.read(s).unwrap().1 == 2;
        let done = Arc::new(AtomicBool::new(false));
        let appended = Arc::new(AtomicU64::new(0));
        let writer = {
            let (log, done, appended) = (log.clone(), done.clone(), appended.clone());
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let g = appended.load(Ordering::Relaxed);
                    log.append_group(|_| (0..3).map(move |i| ((g, i), 1)));
                    appended.store(g + 1, Ordering::Relaxed);
                }
            })
        };
        let forces = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let forcers: Vec<_> = [false, true]
            .into_iter()
            .map(|grouped| {
                let (log, done, forces) = (log.clone(), done.clone(), forces.clone());
                std::thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let s = if grouped {
                            log.group_force(log.last_seq(), GatherWindow::none(), 1)
                        } else {
                            log.force()
                        };
                        assert!(ends_group(&log, s), "a flush split a group at {s}");
                        forces[grouped as usize].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Crash once per 50 appended groups, each time after both
        // forcers have flushed again.
        for round in 1..=40 {
            while appended.load(Ordering::Relaxed) < round * 50
                || forces.iter().any(|f| f.load(Ordering::Relaxed) < round)
            {
                std::thread::yield_now();
            }
            let s = log.crash();
            assert!(ends_group(&log, s), "a crash kept part of a group at {s}");
        }
        done.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        for f in forcers {
            f.join().unwrap();
        }
        let s = log.force();
        assert!(ends_group(&log, s));
        assert_eq!(s % 3, 0, "only whole groups survive");
    }

    #[test]
    fn unforced_records_not_readable() {
        let log = LogStore::new();
        log.append("a", 1);
        assert_eq!(log.read(1), None, "reads only see the stable prefix");
        log.force();
        assert_eq!(log.read(1), Some("a"));
    }

    #[test]
    fn read_range_clamps() {
        let log = LogStore::new();
        for i in 0..5 {
            log.append(i, 1);
        }
        log.force();
        let r = log.read_range(2, 100);
        assert_eq!(r, vec![(2, 1), (3, 2), (4, 3), (5, 4)]);
    }

    #[test]
    fn truncate_prefix_keeps_numbering() {
        let log = LogStore::new();
        for i in 0..6 {
            log.append(i, 10);
        }
        log.force();
        log.truncate_prefix(3);
        assert_eq!(log.read(3), None);
        assert_eq!(log.read(4), Some(3));
        assert_eq!(log.append(9, 10), 7);
        assert_eq!(log.live_bytes(), 40);
        // Truncation beyond stable is clamped.
        log.truncate_prefix(100);
        assert_eq!(log.read(6), None);
    }

    #[test]
    fn force_on_empty_is_noop() {
        let log: LogStore<&str> = LogStore::new();
        assert_eq!(log.force(), 0);
        assert_eq!(log.stats().snapshot().log_forces, 0);
    }

    #[test]
    fn double_force_counts_once() {
        let log = LogStore::new();
        log.append("a", 1);
        log.force();
        log.force();
        assert_eq!(log.stats().snapshot().log_forces, 1);
    }

    #[test]
    fn group_force_with_no_contention_flushes_once() {
        let log = LogStore::new();
        let s1 = log.append("a", 1);
        assert_eq!(log.group_force(s1, GatherWindow::none(), usize::MAX), 1);
        assert_eq!(log.stable_seq(), 1);
        assert_eq!(log.stats().snapshot().log_forces, 1);
        // Already-covered target: no second flush.
        assert_eq!(log.group_force(s1, GatherWindow::none(), usize::MAX), 1);
        assert_eq!(log.stats().snapshot().log_forces, 1);
    }

    #[test]
    fn group_force_leader_covers_followers_in_one_flush() {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_millis(2));
        let committers = 8;
        let barrier = Arc::new(std::sync::Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|i| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let seq = log.append(i, 1);
                    // Everyone appends before anyone forces: the first
                    // leader's snapshot covers the whole group.
                    barrier.wait();
                    log.group_force(seq, GatherWindow::none(), usize::MAX)
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() >= committers as u64);
        }
        assert_eq!(log.stable_seq(), committers as u64);
        assert_eq!(
            log.stats().snapshot().log_forces,
            1,
            "one leader flush must cover all {committers} committers"
        );
    }

    #[test]
    fn group_force_count_stays_under_commit_count_under_concurrency() {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_millis(1));
        let committers = 4;
        let commits_each = 16u64;
        let barrier = Arc::new(std::sync::Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|i| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for j in 0..commits_each {
                        let seq = log.append(i as u64 * 1000 + j, 1);
                        let end = log.group_force(seq, GatherWindow::none(), usize::MAX);
                        assert!(end >= seq, "commit {seq} not durable after group force");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let commits = committers as u64 * commits_each;
        let forces = log.stats().snapshot().log_forces;
        assert_eq!(log.stable_seq(), commits);
        assert!(
            forces < commits,
            "group commit must coalesce: {forces} forces for {commits} commits"
        );
    }

    #[test]
    fn group_force_appends_during_flush_need_the_next_flush() {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_millis(20));
        let s1 = log.append("a", 1);
        let leader = {
            let log = log.clone();
            std::thread::spawn(move || log.group_force(s1, GatherWindow::none(), usize::MAX))
        };
        while !log.force_in_flight() {
            std::thread::yield_now();
        }
        // Appended after the in-flight flush snapshot: needs flush #2.
        let s2 = log.append("b", 1);
        assert_eq!(log.group_force(s2, GatherWindow::none(), usize::MAX), 2);
        assert_eq!(leader.join().unwrap(), 1);
        assert_eq!(log.stats().snapshot().log_forces, 2);
        assert_eq!(log.force_epoch(), 2);
    }

    #[test]
    fn gather_window_is_cut_short_by_max_waiters() {
        let log = Arc::new(LogStore::new());
        let s1 = log.append("a", 1);
        let leader = {
            let log = log.clone();
            // A generous window so the test would hang past its
            // timeout if max_waiters did not cut it short.
            std::thread::spawn(move || {
                log.group_force(s1, GatherWindow::Fixed(Duration::from_secs(30)), 2)
            })
        };
        while !log.force_in_flight() {
            std::thread::yield_now();
        }
        let s2 = log.append("b", 1);
        assert_eq!(log.group_force(s2, GatherWindow::none(), usize::MAX), 2);
        assert_eq!(
            leader.join().unwrap(),
            2,
            "leader's gathered flush covers the joiner"
        );
        assert_eq!(log.stats().snapshot().log_forces, 1);
    }

    #[test]
    fn adaptive_window_stays_zero_for_a_solo_committer() {
        let log = LogStore::new();
        log.set_force_latency(Duration::from_micros(200));
        for i in 0..20u64 {
            let seq = log.append(i, 1);
            log.group_force(seq, GatherWindow::adaptive(), 32);
        }
        assert_eq!(
            log.gather_window(),
            Duration::ZERO,
            "no concurrent demand: no probe can pay, so nothing may be adopted"
        );
        let gf = log.group_force_stats();
        assert_eq!(gf.led_flushes, 20, "every solo commit led its own flush");
        assert_eq!(gf.window_grows, 0);
        // One flush per commit: the adaptive path adds no gather latency.
        assert_eq!(log.stats().snapshot().log_forces, 20);
    }

    #[test]
    fn adaptive_controller_probes_under_concurrent_demand_and_coalesces() {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_micros(300));
        let committers = 8;
        let commits_each = 40u64;
        let barrier = Arc::new(std::sync::Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|i| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for j in 0..commits_each {
                        let seq = log.append(i as u64 * 1000 + j, 1);
                        let end = log.group_force(seq, GatherWindow::adaptive(), committers);
                        assert!(end >= seq);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let commits = committers as u64 * commits_each;
        let gf = log.group_force_stats();
        assert!(
            gf.window_probes > 0,
            "sustained concurrent demand must make the controller explore candidate windows"
        );
        let forces = log.stats().snapshot().log_forces;
        assert!(
            forces * 3 <= commits,
            "adaptive gather must coalesce well: {forces} forces for {commits} commits"
        );
        assert_eq!(log.stable_seq(), commits);
    }

    #[test]
    fn adaptive_window_decays_once_demand_stops() {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_micros(100));
        // Phase 1: concurrent demand makes the controller explore (and
        // possibly adopt) nonzero windows.
        let committers = 4;
        let barrier = Arc::new(std::sync::Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|i| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for j in 0..30u64 {
                        let seq = log.append(i as u64 * 100 + j, 1);
                        log.group_force(seq, GatherWindow::adaptive(), committers);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Phase 2: a long stretch of solo commits. Whatever phase 1
        // adopted, waiting no longer pays, so shrink-probes must walk
        // the window all the way back down.
        for j in 0..400u64 {
            let seq = log.append(10_000 + j, 1);
            log.group_force(seq, GatherWindow::adaptive(), committers);
        }
        assert_eq!(
            log.gather_window(),
            Duration::ZERO,
            "light load: the window must decay back to zero"
        );
    }

    #[test]
    fn fixed_window_never_engages_the_controller() {
        let log = LogStore::new();
        log.set_force_latency(Duration::from_micros(50));
        for i in 0..4u64 {
            let seq = log.append(i, 1);
            log.group_force(seq, GatherWindow::Fixed(Duration::from_micros(10)), 4);
        }
        let gf = log.group_force_stats();
        assert_eq!(gf.window_grows + gf.window_shrinks, 0);
        assert_eq!(log.gather_window(), Duration::ZERO);
        assert_eq!(gf.led_flushes, 4);
        assert_eq!(
            gf.gathered_waiters, 4,
            "each solo flush covered exactly its leader"
        );
    }

    /// Hammer the log with `committers` concurrent commit loops under
    /// the given window mode; returns the log for inspection.
    fn concurrent_commits(
        window: GatherWindow,
        committers: usize,
        commits_each: u64,
        force_latency: Duration,
    ) -> Arc<LogStore<u64>> {
        let log = Arc::new(LogStore::new());
        log.set_force_latency(force_latency);
        let barrier = Arc::new(std::sync::Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|i| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for j in 0..commits_each {
                        let seq = log.append(i as u64 * 10_000 + j, 1);
                        let end = log.group_force(seq, window, committers);
                        assert!(end >= seq);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        log
    }

    #[test]
    fn adaptive_budget_measures_commit_latency_p99() {
        let log = concurrent_commits(
            GatherWindow::adaptive_with_budget(Duration::from_millis(50)),
            4,
            80,
            Duration::from_micros(200),
        );
        let p99 = log.gather_p99();
        assert!(
            p99 >= Duration::from_micros(200),
            "a commit cannot finish faster than the device flush: p99 {p99:?}"
        );
        assert!(
            p99 < Duration::from_millis(50),
            "a generous budget must not be the binding constraint: p99 {p99:?}"
        );
    }

    #[test]
    fn adaptive_budget_vetoes_windows_the_budget_cannot_afford() {
        // A budget below the device latency: *no* nonzero gather window
        // can ever be within budget (every commit pays at least one
        // flush), so whatever the demand, the controller must never
        // hold an adopted nonzero window across epochs — any grow probe
        // that pays in throughput is rejected on latency.
        let log = concurrent_commits(
            GatherWindow::adaptive_with_budget(Duration::from_micros(50)),
            8,
            120,
            Duration::from_micros(300),
        );
        assert_eq!(
            log.gather_window(),
            Duration::ZERO,
            "an unaffordable budget must pin the window at zero"
        );
        let gf = log.group_force_stats();
        assert!(
            gf.window_probes > 0,
            "concurrent demand must still make the controller probe"
        );
    }

    #[test]
    fn fixed_window_never_samples_latency() {
        let log = concurrent_commits(GatherWindow::none(), 2, 20, Duration::from_micros(100));
        assert_eq!(log.gather_p99(), Duration::ZERO);
        assert_eq!(log.group_force_stats().budget_rejects, 0);
    }

    #[test]
    fn crash_mid_group_force_loses_exactly_the_unforced_tail() {
        let log: Arc<LogStore<&str>> = Arc::new(LogStore::new());
        log.append("stable", 1);
        log.force();
        log.set_force_latency(Duration::from_millis(20));
        let s2 = log.append("in-group", 1);
        let leader = {
            let log = log.clone();
            std::thread::spawn(move || log.group_force(s2, GatherWindow::none(), usize::MAX))
        };
        while !log.force_in_flight() {
            std::thread::yield_now();
        }
        log.append("after-snapshot", 1);
        // Crash while the leader's flush is in flight: everything
        // unforced is gone, including what the flush was writing.
        assert_eq!(log.crash(), 1);
        assert_eq!(
            leader.join().unwrap(),
            1,
            "mid-flush records must not resurrect"
        );
        assert_eq!(log.stable_seq(), 1);
        assert_eq!(log.last_seq(), 1);
        assert_eq!(log.read(1), Some("stable"));
        assert_eq!(log.read(2), None);
        // Numbering resumes from the surviving stable end.
        assert_eq!(log.append("next", 1), 2);
    }

    #[test]
    fn arbiter_serializes_device_flushes() {
        let arb = ForceArbiter::serial();
        let latency = Duration::from_millis(5);
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let arb = arb.clone();
                std::thread::spawn(move || arb.flush(latency))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = arb.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.device_flushes, 4, "serial mode never merges");
        assert!(
            start.elapsed() >= latency * 4,
            "one device: four flushes cannot overlap"
        );
    }

    #[test]
    fn arbiter_coalesces_requests_gathered_during_a_flush() {
        let arb = ForceArbiter::new();
        let latency = Duration::from_millis(20);
        let leader = {
            let arb = arb.clone();
            std::thread::spawn(move || arb.flush(latency))
        };
        // Wait until the leader's device flush is in flight.
        while arb.stats().device_flushes == 0 && !arb.inner.lock().flushing {
            std::thread::yield_now();
        }
        // These arrive mid-flush: the in-flight write cannot cover them,
        // but they all share the *next* one.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let arb = arb.clone();
                std::thread::spawn(move || arb.flush(latency))
            })
            .collect();
        leader.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let stats = arb.stats();
        assert_eq!(stats.requests, 5);
        assert!(
            stats.device_flushes <= 3,
            "requests gathered during a flush must share: {} device flushes",
            stats.device_flushes
        );
    }

    #[test]
    fn arbiter_sequential_requests_each_get_a_flush() {
        let arb = ForceArbiter::new();
        arb.flush(Duration::ZERO);
        arb.flush(Duration::ZERO);
        let stats = arb.stats();
        assert_eq!(
            stats.device_flushes, 2,
            "a completed flush never covers a later request"
        );
    }

    #[test]
    fn colocated_logs_share_device_flushes_through_the_arbiter() {
        let arb = ForceArbiter::new();
        let latency = Duration::from_millis(2);
        let logs: Vec<Arc<LogStore<u64>>> = (0..4)
            .map(|_| {
                let log = Arc::new(LogStore::new());
                log.set_force_latency(latency);
                log.attach_arbiter(arb.clone());
                log
            })
            .collect();
        let barrier = Arc::new(std::sync::Barrier::new(logs.len()));
        let handles: Vec<_> = logs
            .iter()
            .map(|log| {
                let log = log.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for j in 0..20u64 {
                        let seq = log.append(j, 1);
                        let end = log.group_force(seq, GatherWindow::none(), usize::MAX);
                        assert!(end >= seq, "commit {seq} not durable");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for log in &logs {
            assert_eq!(log.stable_seq(), 20);
        }
        let stats = arb.stats();
        assert!(
            stats.device_flushes < stats.requests,
            "concurrent shards on one device must share flushes: \
             {} device flushes for {} requests",
            stats.device_flushes,
            stats.requests
        );
    }

    #[test]
    fn crash_during_arbitrated_flush_discards_it() {
        let arb = ForceArbiter::new();
        let log: Arc<LogStore<&str>> = Arc::new(LogStore::new());
        log.set_force_latency(Duration::from_millis(20));
        log.attach_arbiter(arb.clone());
        log.append("stable", 1);
        log.force();
        log.append("doomed", 1);
        let forcer = {
            let log = log.clone();
            std::thread::spawn(move || log.force())
        };
        while arb.stats().requests < 3 && !arb.inner.lock().flushing {
            std::thread::yield_now();
        }
        log.crash();
        forcer.join().unwrap();
        assert_eq!(log.stable_seq(), 1, "the crashed flush must not land");
        assert_eq!(log.read(2), None);
    }

    #[test]
    fn flush_spanning_a_crash_cannot_stabilize_post_crash_appends() {
        let log: Arc<LogStore<&str>> = Arc::new(LogStore::new());
        log.append("stable", 1);
        log.force();
        log.set_force_latency(Duration::from_millis(20));
        let s2 = log.append("lost-in-crash", 1);
        let leader = {
            let log = log.clone();
            std::thread::spawn(move || log.group_force(s2, GatherWindow::none(), usize::MAX))
        };
        while !log.force_in_flight() {
            std::thread::yield_now();
        }
        log.crash();
        // A rebooted component appends fresh (unforced!) records while
        // the pre-crash flush is still in flight; its completion must
        // not mark them stable — no flush has covered them.
        log.append("recovery-1", 1);
        log.append("recovery-2", 1);
        assert_eq!(leader.join().unwrap(), 1);
        assert_eq!(log.stable_seq(), 1, "post-crash appends stay unforced");
        assert_eq!(log.read(2), None);
        assert_eq!(log.force(), 3, "a real flush stabilizes them");
        assert_eq!(log.read(2), Some("recovery-1"));
    }
}
