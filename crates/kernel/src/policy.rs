//! Shard autopilot: a telemetry-driven automatic split/merge policy
//! over the online rebalance mechanism.
//!
//! PR 7 built the *mechanism* for moving a key range between TC shards
//! against live traffic (fence → drain → checkpoint handoff →
//! epoch-versioned map republish); every move was still
//! operator-initiated. This module closes the loop with a *policy*: a
//! background controller that watches each shard's telemetry through
//! the metrics registry and drives [`Deployment::split_shard`] /
//! [`Deployment::merge_shards`] itself.
//!
//! ## Signals
//!
//! * **Commit rate** — per-TC `tc.commits` counter deltas between
//!   ticks, read from each TC's own registry (the merged
//!   [`Deployment::observe`] view sums across shards and would hide
//!   exactly the imbalance the policy exists to see).
//! * **Log-device pressure** — the `storage.force_queue_depth` gauge on
//!   each TC's redo log: how many committers the last group-force
//!   leader cut into one flush. A deep force queue means the shard's
//!   log device is the bottleneck even when the commit *rate* still
//!   looks acceptable.
//! * **Key distribution** — the per-TC
//!   [`KeySketch`](unbundled_tc::KeySketch): a sliding window of recent
//!   mutation route points. A hot shard is split at the sketch's
//!   **observed traffic median**, not the key-space midpoint — under a
//!   skewed workload the midpoint moves almost none of the load.
//!
//! ## Hysteresis
//!
//! Three guards keep the tier from thrashing:
//!
//! * **Watermark gap** — splits trigger at `split_rate` (high), merges
//!   only when *both* neighbors sit below `merge_rate` (low, an order
//!   of magnitude apart by default), so a shard oscillating around one
//!   threshold never alternates split/merge.
//! * **Cold-target check** — a split needs a target at most half as
//!   loaded as the source; two equally hot shards trading a range back
//!   and forth helps nobody.
//! * **Cooldown windows** — after any move, every range it touched is
//!   frozen for [`RebalanceCfg::cooldown`]; a range moves at most once
//!   per window (the e17 gate and the policy storm seeds assert
//!   exactly this via [`cooldown_violations`]).
//!
//! ## Observability
//!
//! Every decision — considered, triggered, completed or aborted — is a
//! structured `obs` span (`policy.consider` → `policy.split` /
//! `policy.merge` → `policy.completed` / `policy.aborted`), so
//! `report obs` renders *why* each move happened. Decision counts live
//! in the policy's own [`Registry`] (`policy.*` metrics).

use crate::deployment::Deployment;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unbundled_core::TcId;
use unbundled_obs::{self as obs, Counter, Gauge, Registry};

/// Watermarks, windows and cadence for the [`RebalancePolicy`].
///
/// The defaults are tuned for the simulated NVMe-class deployments the
/// bench suite runs (commit rates in the thousands per second);
/// real deployments scale the two rate watermarks to their hardware
/// and keep the *ratios* — `split_rate` well above `merge_rate`, a
/// cooldown several times the tick interval.
#[derive(Clone, Debug)]
pub struct RebalanceCfg {
    /// Controller tick period: how often telemetry is sampled and at
    /// most one move considered.
    pub interval: Duration,
    /// High watermark: a shard committing faster than this (commits/s)
    /// is split-eligible.
    pub split_rate: f64,
    /// Low watermark: two adjacent shards *both* below this (commits/s)
    /// are merge-eligible. Keep well under `split_rate` — the gap is
    /// the anti-flap hysteresis band.
    pub merge_rate: f64,
    /// Secondary split trigger: a force-queue depth (committers per led
    /// flush) at or above this marks the shard's log device as the
    /// bottleneck regardless of commit rate.
    pub split_queue_depth: u64,
    /// Quiet period after a move for every range it touched: a range
    /// moves at most once per cooldown window.
    pub cooldown: Duration,
    /// Minimum key-sketch samples inside a candidate range before its
    /// median is trusted for a cut. Below this (an empty or barely
    /// observed shard) the split is aborted, not guessed.
    pub min_samples: usize,
}

impl Default for RebalanceCfg {
    fn default() -> Self {
        RebalanceCfg {
            interval: Duration::from_millis(25),
            split_rate: 4_000.0,
            merge_rate: 400.0,
            split_queue_depth: 6,
            cooldown: Duration::from_millis(500),
            min_samples: 64,
        }
    }
}

/// What kind of move the policy drove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveKind {
    /// A hot shard was cut at its observed traffic median.
    Split,
    /// Two cold neighbors were merged at their shared bound.
    Merge,
}

/// One completed policy-initiated move, for audit and gating.
#[derive(Clone, Debug)]
pub struct MoveRecord {
    /// Split or merge.
    pub kind: MoveKind,
    /// The cut (split) or absorbed bound (merge).
    pub at: u64,
    /// Moved range, inclusive lower bound.
    pub lo: u64,
    /// Moved range, inclusive upper bound.
    pub hi: u64,
    /// Shard that owned the range before the move.
    pub from: TcId,
    /// Shard that owns it after.
    pub to: TcId,
    /// Shard-map epoch published by the move.
    pub epoch: u64,
    /// When the move completed, as an offset from policy start.
    pub since_start: Duration,
}

/// Moves that violate the one-move-per-cooldown-window rule: pairs of
/// records whose ranges overlap and whose completions are closer than
/// `cooldown`. Zero is the no-thrash invariant the e17 gate and the
/// policy storm seeds hold.
pub fn cooldown_violations(moves: &[MoveRecord], cooldown: Duration) -> usize {
    let mut violations = 0;
    for (i, a) in moves.iter().enumerate() {
        for b in &moves[i + 1..] {
            let overlap = a.lo <= b.hi && b.lo <= a.hi;
            let gap = b.since_start.abs_diff(a.since_start);
            if overlap && gap < cooldown {
                violations += 1;
            }
        }
    }
    violations
}

struct PolicyInner {
    d: Arc<Deployment>,
    cfg: RebalanceCfg,
    stop: AtomicBool,
    started: Instant,
    moves: Mutex<Vec<MoveRecord>>,
    registry: Arc<Registry>,
    ticks: Counter,
    considered: Counter,
    splits: Counter,
    merges: Counter,
    cooldown_skips: Counter,
    no_median: Counter,
    no_target: Counter,
    rejected: Counter,
    shards: Gauge,
}

/// The shard autopilot: owns a background thread that ticks every
/// [`RebalanceCfg::interval`], reads per-shard telemetry, and drives at
/// most one online split or merge per tick through the deployment.
///
/// Strictly opt-in: nothing starts it implicitly. Create it with
/// [`Deployment::start_autopilot`] (or [`RebalancePolicy::start`]) once
/// the topology is wired and a shard map is published; call
/// [`RebalancePolicy::stop`] to halt it and collect the move log.
/// Dropping the handle also stops the thread.
pub struct RebalancePolicy {
    inner: Arc<PolicyInner>,
    thread: Option<JoinHandle<()>>,
}

impl Deployment {
    /// Start the shard autopilot over this deployment — the opt-in
    /// entry point for automatic rebalancing. Telemetry-driven: see
    /// the [module docs](self) for signals, watermarks and hysteresis.
    pub fn start_autopilot(self: &Arc<Self>, cfg: RebalanceCfg) -> RebalancePolicy {
        RebalancePolicy::start(self.clone(), cfg)
    }
}

impl RebalancePolicy {
    /// Spawn the policy loop over `d`. Equivalent to
    /// [`Deployment::start_autopilot`].
    pub fn start(d: Arc<Deployment>, cfg: RebalanceCfg) -> RebalancePolicy {
        let registry = Registry::new();
        let inner = Arc::new(PolicyInner {
            ticks: registry.counter("policy.ticks", "ticks", "controller ticks evaluated"),
            considered: registry.counter(
                "policy.considered",
                "decisions",
                "shards considered for a move",
            ),
            splits: registry.counter("policy.splits", "moves", "splits driven to completion"),
            merges: registry.counter("policy.merges", "moves", "merges driven to completion"),
            cooldown_skips: registry.counter(
                "policy.cooldown_skips",
                "decisions",
                "moves skipped: range inside its cooldown window",
            ),
            no_median: registry.counter(
                "policy.no_median_aborts",
                "decisions",
                "splits aborted: no observable median key",
            ),
            no_target: registry.counter(
                "policy.no_target_skips",
                "decisions",
                "splits skipped: no shard cold enough to take the piece",
            ),
            rejected: registry.counter(
                "policy.rejected_splits",
                "decisions",
                "splits rejected by the shard map (typed SplitError)",
            ),
            shards: registry.gauge(
                "policy.shards",
                "ranges",
                "ranges in the published shard map",
            ),
            registry: Arc::new(registry),
            d,
            cfg,
            stop: AtomicBool::new(false),
            started: Instant::now(),
            moves: Mutex::new(Vec::new()),
        });
        let worker = inner.clone();
        let thread = std::thread::Builder::new()
            .name("rebalance-policy".into())
            .spawn(move || worker.run())
            .expect("spawn policy thread");
        RebalancePolicy {
            inner,
            thread: Some(thread),
        }
    }

    /// Signal the loop to stop, join it, and return the completed move
    /// log (splits and merges, in completion order).
    pub fn stop(mut self) -> Vec<MoveRecord> {
        self.halt();
        self.inner.moves.lock().clone()
    }

    /// The completed moves so far (the loop keeps running).
    pub fn moves(&self) -> Vec<MoveRecord> {
        self.inner.moves.lock().clone()
    }

    /// The policy's own metrics registry (`policy.*` counters and the
    /// `policy.shards` gauge), for merging into an experiment's
    /// observability snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The configuration the loop runs with.
    pub fn cfg(&self) -> &RebalanceCfg {
        &self.inner.cfg
    }

    fn halt(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RebalancePolicy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Per-loop sampling state: previous counter values and tick time, for
/// rate computation.
struct TickState {
    last_at: Instant,
    last_commits: HashMap<TcId, u64>,
    primed: bool,
}

impl PolicyInner {
    fn run(&self) {
        let mut state = TickState {
            last_at: Instant::now(),
            last_commits: HashMap::new(),
            primed: false,
        };
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(self.cfg.interval);
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            self.tick(&mut state);
        }
    }

    fn tick(&self, state: &mut TickState) {
        let Some(map) = self.d.shard_map() else {
            return; // unsharded tier: nothing to rebalance
        };
        self.shards.set(map.len() as u64);
        let now = Instant::now();
        let dt = now.duration_since(state.last_at).as_secs_f64();
        state.last_at = now;

        // Per-shard signals, read per TC registry — the cluster-merged
        // snapshot would sum away the imbalance.
        let mut rates: HashMap<TcId, f64> = HashMap::new();
        let mut depths: HashMap<TcId, u64> = HashMap::new();
        for id in self.d.tc_ids() {
            let commits = self
                .d
                .tc(id)
                .stats()
                .registry()
                .snapshot()
                .counter("tc.commits");
            let prev = state.last_commits.insert(id, commits).unwrap_or(commits);
            let rate = if dt > 0.0 {
                commits.saturating_sub(prev) as f64 / dt
            } else {
                0.0
            };
            rates.insert(id, rate);
            let depth = self
                .d
                .tc_log(id)
                .registry()
                .snapshot()
                .gauge("storage.force_queue_depth")
                .unwrap_or(0);
            depths.insert(id, depth);
        }
        if !state.primed {
            // First tick only primes the counter baselines.
            state.primed = true;
            return;
        }
        self.ticks.inc();

        if self.consider_splits(&map, &rates, &depths) {
            return; // one move per tick
        }
        self.consider_merges(&map, &rates);
    }

    /// Hottest-first split scan. Returns true if a move completed.
    fn consider_splits(
        &self,
        map: &unbundled_core::TcShardMap,
        rates: &HashMap<TcId, f64>,
        depths: &HashMap<TcId, u64>,
    ) -> bool {
        let mut by_rate: Vec<(TcId, f64)> = rates.iter().map(|(id, r)| (*id, *r)).collect();
        by_rate.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (hot, rate) in by_rate {
            let depth = depths.get(&hot).copied().unwrap_or(0);
            let pressured = rate >= self.cfg.split_rate || depth >= self.cfg.split_queue_depth;
            if !pressured {
                continue;
            }
            self.considered.inc();
            let _consider = obs::span2(
                "policy.consider",
                "tc",
                u64::from(hot.0),
                "rate",
                rate as u64,
            );
            // Cold-target hysteresis: the receiver must be doing at
            // most half the source's work, and sit under the split
            // watermark itself — otherwise the move just relocates the
            // bottleneck (or ping-pongs it).
            let target = rates
                .iter()
                .filter(|(id, _)| **id != hot)
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .map(|(id, r)| (*id, *r));
            let Some((to, to_rate)) = target else {
                self.no_target.inc();
                let _s = obs::span1("policy.no_target", "tc", u64::from(hot.0));
                continue;
            };
            if to_rate > rate * 0.5 || to_rate >= self.cfg.split_rate {
                self.no_target.inc();
                let _s = obs::span2(
                    "policy.no_target",
                    "tc",
                    u64::from(hot.0),
                    "coldest_rate",
                    to_rate as u64,
                );
                continue;
            }
            // The hot shard's busiest owned range, by sketch samples.
            let hot_tc = self.d.tc(hot);
            let sketch = &hot_tc.stats().keys;
            let mut best: Option<(u64, u64, usize)> = None;
            let mut lower = 0u64;
            for (upper, owner) in map.parts().iter() {
                let hi = if *upper == u64::MAX {
                    u64::MAX
                } else {
                    *upper - 1
                };
                if *owner == hot {
                    let n = sketch.count_in(lower, hi);
                    if best.is_none_or(|(_, _, bn)| n > bn) {
                        best = Some((lower, hi, n));
                    }
                }
                lower = *upper;
            }
            let Some((lo, hi, samples)) = best else {
                continue; // pressured but owns no range (mid-republish)
            };
            if samples < self.cfg.min_samples {
                self.no_median.inc();
                let _s = obs::span2(
                    "policy.aborted",
                    "tc",
                    u64::from(hot.0),
                    "samples",
                    samples as u64,
                );
                continue;
            }
            if self.in_cooldown(lo, hi) {
                self.cooldown_skips.inc();
                let _s = obs::span1("policy.cooldown", "lo", lo);
                continue;
            }
            // An all-on-one-point distribution yields median == lo: no
            // interior cut exists and `split_shard` would reject it —
            // treat it as "no observable median" up front.
            let cut = match sketch.median_in(lo, hi) {
                Some(m) if m > lo => m,
                _ => {
                    self.no_median.inc();
                    let _s = obs::span1("policy.aborted", "tc", u64::from(hot.0));
                    continue;
                }
            };
            let _move = obs::span2("policy.split", "at", cut, "to", u64::from(to.0));
            match self.d.split_shard(cut, to) {
                Ok(()) => {
                    let epoch = self.d.shard_map().map(|m| m.epoch()).unwrap_or(0);
                    let _done = obs::span1("policy.completed", "epoch", epoch);
                    self.splits.inc();
                    self.record(MoveKind::Split, cut, lo, hi, hot, to, epoch);
                    return true;
                }
                Err(_) => {
                    // The map changed between our read and the move
                    // (another mover won the gate): typed refusal, no
                    // fence burned, retry next tick on fresh telemetry.
                    self.rejected.inc();
                    let _s = obs::span1("policy.aborted", "at", cut);
                    continue;
                }
            }
        }
        false
    }

    /// Merge scan: adjacent ranges with different owners, both idle.
    fn consider_merges(
        &self,
        map: &unbundled_core::TcShardMap,
        rates: &HashMap<TcId, f64>,
    ) -> bool {
        let parts = map.parts();
        let mut lower = 0u64;
        for w in parts.windows(2) {
            let (bound, left) = w[0];
            let (right_upper, right) = w[1];
            let left_lo = lower;
            lower = bound;
            if left == right {
                continue;
            }
            let cold = |id: TcId| rates.get(&id).copied().unwrap_or(0.0) < self.cfg.merge_rate;
            if !cold(left) || !cold(right) {
                continue;
            }
            self.considered.inc();
            let _consider = obs::span2("policy.consider", "tc", u64::from(right.0), "bound", bound);
            let right_hi = if right_upper == u64::MAX {
                u64::MAX
            } else {
                right_upper - 1
            };
            // Cooldown covers the whole post-merge extent: both the
            // absorbed range and the absorbing neighbor below it.
            if self.in_cooldown(left_lo, right_hi) {
                self.cooldown_skips.inc();
                let _s = obs::span1("policy.cooldown", "lo", bound);
                continue;
            }
            let _move = obs::span2("policy.merge", "bound", bound, "into", u64::from(left.0));
            self.d.merge_shards(bound);
            let epoch = self.d.shard_map().map(|m| m.epoch()).unwrap_or(0);
            let _done = obs::span1("policy.completed", "epoch", epoch);
            self.merges.inc();
            self.record(MoveKind::Merge, bound, bound, right_hi, right, left, epoch);
            return true;
        }
        false
    }

    /// Any completed move overlapping `[lo, hi]` within the window?
    fn in_cooldown(&self, lo: u64, hi: u64) -> bool {
        let now = self.started.elapsed();
        self.moves.lock().iter().any(|m| {
            m.lo <= hi && lo <= m.hi && now.saturating_sub(m.since_start) < self.cfg.cooldown
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn record(&self, kind: MoveKind, at: u64, lo: u64, hi: u64, from: TcId, to: TcId, epoch: u64) {
        self.moves.lock().push(MoveRecord {
            kind,
            at,
            lo,
            hi,
            from,
            to,
            epoch,
            since_start: self.started.elapsed(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(lo: u64, hi: u64, ms: u64) -> MoveRecord {
        MoveRecord {
            kind: MoveKind::Split,
            at: lo,
            lo,
            hi,
            from: TcId(1),
            to: TcId(2),
            epoch: 1,
            since_start: Duration::from_millis(ms),
        }
    }

    #[test]
    fn cooldown_violation_detection() {
        let w = Duration::from_millis(500);
        // Disjoint ranges close in time: fine.
        assert_eq!(cooldown_violations(&[mv(0, 9, 0), mv(10, 20, 10)], w), 0);
        // Overlapping ranges far apart in time: fine.
        assert_eq!(cooldown_violations(&[mv(0, 9, 0), mv(5, 20, 600)], w), 0);
        // Overlapping ranges inside one window: thrash.
        assert_eq!(cooldown_violations(&[mv(0, 9, 0), mv(5, 20, 100)], w), 1);
        assert_eq!(cooldown_violations(&[], w), 0);
    }
}
