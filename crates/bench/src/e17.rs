//! E17 harness: the shard autopilot against a ramp it must outrun.
//!
//! `report e17`, telemetry `BENCH_e17.json`.
//!
//! E15 proved a single online range move is cheap; this experiment asks
//! whether the *policy* can decide to make one — unprompted, from
//! telemetry alone, in time to matter. The setup is rigged so a static
//! map must fail: the shard map starts with **every key on TC1** while
//! an e13-style ramp climbs from well under one shard's log capacity to
//! well past it, and the key distribution is deliberately skewed (7 of
//! 8 key slots sit in the bottom eighth of the keyspace) so a naive
//! midpoint cut would move almost nothing. The autopilot has to notice
//! the pressure, pick the observed traffic median from the key sketch,
//! find the idle shard, and run the split — while the ramp is still
//! climbing.
//!
//! Capacity arithmetic: `max_waiters = 8` with a 1.5ms forced flush
//! caps one redo log near 5k commits/s, while the 16-worker pool can
//! push roughly twice that across two logs flushing in parallel. The
//! ramp ends above one log's ceiling and below two — so the static
//! cell *must* saturate (queue fills, p99 blows through the band,
//! arrivals shed) and the policy cell, if the split lands, *must not*.
//!
//! What the gates hold:
//!
//! * **zero lost acks** — across every policy-initiated move, every
//!   acknowledged write survives (worst rep).
//! * **the policy acted** — at least one completed autopilot split, and
//!   the tier settled: every shard at the final epoch, no fence left.
//! * **no thrash** — no range moved twice within one cooldown window
//!   ([`unbundled_kernel::cooldown_violations`] = 0, worst rep).
//! * **p99 band** — the policy cell's arrival→commit p99 stays inside
//!   [`P99_BAND`]; the static cell breaches it. The band is the point:
//!   the policy alone separates the two cells.

use crate::elastic;
use crate::json::Json;
use crate::report::{best_of, find, Gate, Report};
use crate::workload::{run_open_loop, ArrivalProcess, OpenLoopCfg};
use std::sync::Arc;
use std::time::Duration;
use unbundled_core::{Key, TcId, TcShardMap};
use unbundled_kernel::{cooldown_violations, MoveKind, RebalanceCfg};

/// Simulated log-device flush latency — deliberately slow (cloud
/// network-attached storage, not local NVMe) so the redo log, not the
/// worker pool, is the resource the split doubles.
pub const FORCE_LATENCY: Duration = Duration::from_micros(1_500);

/// Worker threads servicing admitted arrivals.
pub const WORKERS: usize = 16;

/// Group-commit gather cap per shard — deliberately *half* the worker
/// pool, so one redo log tops out near 5k commits/s while two logs
/// (and the same 16 workers) can carry the whole ramp.
pub const MAX_WAITERS: usize = 8;

/// Admission-queue capacity: past this backlog, arrivals shed.
pub const QUEUE_CAP: usize = 512;

/// Ramp start: comfortably inside one shard's capacity.
pub const RAMP_START: f64 = 1_500.0;

/// Ramp end: past one shard's log ceiling, inside two shards'.
pub const RAMP_END: f64 = 7_500.0;

/// The p99 latency band (scheduled arrival → commit done). The policy
/// cell must stay inside it; the static cell must breach it. Sized so
/// group-commit waits and one fence stall sit far below, and a
/// saturated admission queue (hundreds of entries draining at one log's
/// ceiling) sits far above.
pub const P99_BAND: Duration = Duration::from_millis(25);

const EIGHTH: u64 = u64::MAX / 8;
/// Key slots per worker: slots `0..7` spread across the bottom eighth
/// of the keyspace, slot `7` up in the top eighth. Arrivals round-robin
/// the slots, so 7/8 of the traffic lands in 1/8 of the keyspace and
/// the traffic median sits near `EIGHTH/2` — nowhere near the keyspace
/// midpoint a distribution-blind cut would pick.
const SLOTS: usize = 8;

/// The autopilot configuration under test (also what the docs quote).
pub fn policy_cfg() -> RebalanceCfg {
    RebalanceCfg {
        interval: Duration::from_millis(25),
        split_rate: 3_500.0,
        merge_rate: 500.0,
        split_queue_depth: MAX_WAITERS as u64,
        cooldown: Duration::from_millis(400),
        min_samples: 64,
    }
}

crate::row! {
    /// One measured cell.
    pub struct E17Row {
        /// `static` or `policy`.
        pub label: String,
        /// Arrivals in the schedule.
        pub offered: u64,
        /// Arrivals admitted and committed.
        pub delivered: u64,
        /// Arrivals shed at the bounded admission queue.
        pub shed: u64,
        /// Delivered commits per second of makespan.
        pub delivered_per_sec: f64,
        /// p50 of scheduled-arrival → commit-done latency (µs).
        pub total_p50_us: f64,
        /// p99 (µs) — the banded number.
        pub total_p99_us: f64,
        /// Max (µs).
        pub total_max_us: f64,
        /// Completed autopilot splits (worst rep).
        pub splits: u64,
        /// Completed autopilot merges (worst rep).
        pub merges: u64,
        /// Cooldown-window violations across the move log (worst rep).
        pub violations: u64,
        /// Published map epoch at the end of the run (worst rep).
        pub map_epoch: u64,
        /// Every shard at the final epoch with no fence left (worst rep).
        pub settled: bool,
        /// Acknowledged writes whose value did not survive (worst rep).
        pub lost_acks: u64,
        /// Client-visible retries (re-routed and re-issued).
        pub retries: u64,
        /// When the first autopilot split completed (ms from policy start;
        /// 0 when no split ran).
        pub first_split_ms: f64,
        /// Shards the policy considered for a move (telemetry, policy cell).
        pub considered: u64,
        /// Moves skipped inside a cooldown window (telemetry).
        pub cooldown_skips: u64,
    }
}

/// Worker `w`'s key in `slot`: slots 0..7 spread across the bottom
/// eighth, slot 7 in the top eighth.
fn slot_key(w: usize, slot: usize) -> Key {
    let base = if slot < SLOTS - 1 {
        (EIGHTH / SLOTS as u64) * slot as u64
    } else {
        7 * EIGHTH
    };
    Key::from_u64(base + 1_000 + w as u64)
}

fn run_cell(policy: bool, seed: u64, horizon: Duration) -> E17Row {
    // The e15 topology, but the shard map starts with **everything on
    // TC1**: TC2 is capacity the policy has to discover and use.
    let d = Arc::new(elastic::deployment(
        MAX_WAITERS,
        TcShardMap::single(TcId(1)),
    ));
    let load = elastic::Load::new(&d, WORKERS, SLOTS, slot_key);
    elastic::set_force_latency(&d, FORCE_LATENCY);

    let schedule = ArrivalProcess::Ramp {
        start_rate: RAMP_START,
        end_rate: RAMP_END,
    }
    .schedule(seed, horizon);
    let cfg = OpenLoopCfg {
        queue_cap: QUEUE_CAP,
        workers: WORKERS,
    };
    let autopilot = policy.then(|| d.start_autopilot(policy_cfg()));
    let r = run_open_loop(&schedule, &cfg, |w, i| load.commit(&d, w, i));
    let (moves, considered, cooldown_skips) = match autopilot {
        Some(p) => {
            let considered = p.registry().snapshot().counter("policy.considered");
            let skips = p.registry().snapshot().counter("policy.cooldown_skips");
            (p.stop(), considered, skips)
        }
        None => (Vec::new(), 0, 0),
    };
    elastic::set_force_latency(&d, Duration::ZERO);
    let lost_acks = load.lost_acks(&d);
    let (map_epoch, settled) = elastic::settled(&d);
    let splits = moves.iter().filter(|m| m.kind == MoveKind::Split).count() as u64;
    let merges = moves.iter().filter(|m| m.kind == MoveKind::Merge).count() as u64;
    let violations = cooldown_violations(&moves, policy_cfg().cooldown) as u64;
    let first_split_ms = moves
        .iter()
        .find(|m| m.kind == MoveKind::Split)
        .map(|m| m.since_start.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    E17Row {
        label: if policy { "policy" } else { "static" }.to_string(),
        offered: r.offered,
        delivered: r.delivered,
        shed: r.shed,
        delivered_per_sec: r.delivered_per_sec(),
        total_p50_us: us(r.total.p50()),
        total_p99_us: us(r.total.p99()),
        total_max_us: us(r.total.max()),
        splits,
        merges,
        violations,
        map_epoch,
        settled,
        lost_acks,
        retries: load.retries(),
        first_split_ms,
        considered,
        cooldown_skips,
    }
}

/// Best of `REPS` cells by delivered throughput — except the
/// correctness fields, which take their *worst* rep: wall-clock noise
/// is one-sided, but a lost ack, a missing split, a thrashing move log
/// or an unsettled map in any rep is a bug, not noise.
fn best_cell(policy: bool, seed: u64, horizon: Duration) -> E17Row {
    const REPS: usize = 2;
    let (mut lost_acks, mut splits, mut violations, mut settled) = (0, u64::MAX, 0, true);
    let mut best = best_of(
        REPS,
        |r: &E17Row| r.delivered_per_sec,
        |rep| {
            let r = run_cell(policy, seed + rep, horizon);
            lost_acks = lost_acks.max(r.lost_acks);
            splits = splits.min(r.splits);
            violations = violations.max(r.violations);
            settled &= r.settled;
            r
        },
    );
    best.lost_acks = lost_acks;
    best.splits = splits;
    best.violations = violations;
    best.settled = settled;
    best
}

/// Run the full experiment. `smoke` shrinks the horizon for CI; the
/// gates are identical in both modes.
pub fn run_e17(smoke: bool) -> Report {
    let horizon = if smoke {
        Duration::from_millis(1500)
    } else {
        Duration::from_millis(4000)
    };
    let seed = 0xE17_0001u64;
    let rows = [false, true].map(|policy| best_cell(policy, seed, horizon));
    let gates = gates(&rows);
    let params = vec![
        ("horizon_ms", Json::from(horizon.as_millis() as u64)),
        (
            "force_latency_us",
            (FORCE_LATENCY.as_micros() as u64).into(),
        ),
        ("workers", WORKERS.into()),
        ("max_waiters", MAX_WAITERS.into()),
        ("ramp_start", RAMP_START.into()),
        ("ramp_end", RAMP_END.into()),
        ("p99_band_us", (P99_BAND.as_micros() as u64).into()),
    ];
    Report::new("e17_autopilot", smoke, params, &rows, gates)
}

fn gates(rows: &[E17Row]) -> Vec<Gate> {
    let fixed = find(rows, "static");
    let auto = find(rows, "policy");
    let band_us = P99_BAND.as_secs_f64() * 1e6;

    vec![
        // Policy-initiated moves never lose an acknowledged write.
        Gate::holds("policy: zero acknowledged writes lost", auto.lost_acks == 0),
        // The autopilot acted: at least one completed split, every rep.
        Gate::at_least(
            "policy: at least one completed autopilot split",
            auto.splits as f64,
            1.0,
        ),
        // And left the tier settled: every shard at the final epoch, no
        // fence behind.
        Gate::holds(
            "policy: map settled on every shard, fences clear",
            auto.settled,
        ),
        // No thrash: a range moves at most once per cooldown window.
        Gate::holds(
            "policy: no range moved twice within one cooldown window",
            auto.violations == 0,
        ),
        // The band separation — the policy cell holds p99 inside the band…
        Gate::at_least(
            "policy: arrival→commit p99 inside the band",
            band_us / auto.total_p99_us.max(f64::EPSILON),
            1.0,
        ),
        // …that the static map breaches on the same ramp.
        Gate::at_least(
            "static: arrival→commit p99 breaches the band",
            fixed.total_p99_us / band_us,
            1.0,
        ),
        // The split buys real capacity: the policy cell delivers at least
        // what the saturating static cell manages.
        Gate::at_least(
            "policy: delivered throughput vs static",
            auto.delivered_per_sec / fixed.delivered_per_sec.max(f64::EPSILON),
            1.0,
        ),
    ]
}
