//! E14 harness: key-range sharded TC tier scale-out.
//!
//! `report e14`, telemetry `BENCH_e14.json`.
//!
//! The experiment measures what partitioning the TC by key range buys
//! (and costs) under a realistic log-device latency:
//!
//! * **scale-out** — single-shard transactions over 1/2/4 TC shards,
//!   each shard with its own redo log and DC: adding shards must add
//!   log-device bandwidth nearly linearly;
//! * **shard-map overhead** — a one-shard deployment with the shard map
//!   installed vs. without it (the map lookup rides every operation, so
//!   the single-shard fast path must not regress);
//! * **cross-TC transactions** — the same 4-shard deployment with one
//!   transaction in five spanning two shards, committing through 2PC
//!   over the redo logs (two forced log rounds instead of one);
//! * **shared-device group commit** — all four shard logs colocated on
//!   one log device through a [`ForceArbiter`]: the coalescing arbiter
//!   (requests gathered during a device flush share the next one) vs.
//!   the serial baseline (every log force queues its own device flush).

use crate::json::Json;
use crate::report::{best_of, find, Gate, Report};
use crate::TABLE;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, TableSpec, TcId, TcShardMap};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_storage::ForceArbiter;
use unbundled_tc::{GatherWindow, GroupCommitCfg, TableRoute, TcConfig};

/// Simulated log-device flush latency (NVMe-class fsync), matching e11.
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);

/// Committer threads per TC shard.
pub const THREADS_PER_SHARD: usize = 4;

crate::row! {
    /// One measured configuration.
    pub struct E14Row {
        /// Configuration label.
        pub label: String,
        /// TC shards in the deployment.
        pub shards: u16,
        /// Total committer threads.
        pub threads: usize,
        /// Committed transactions per second (counted by the workload
        /// threads — TC counters would double-count participant branches).
        pub commits_per_sec: f64,
        /// Cross-shard transactions committed through 2PC.
        pub cross_commits: u64,
        /// Prepare votes forced at participants.
        pub prepares: u64,
        /// Shared-device flushes per committed transaction (zero when each
        /// shard owns its device).
        pub device_flushes_per_commit: f64,
    }
}

/// `n` TC shards, each owning one DC over an inline link, key space
/// split evenly by the shard map (paper Section 6.1: partitioned
/// transaction services over the shared record layer).
pub fn sharded_tc_deployment(n: u16, with_map: bool) -> Deployment {
    let tc_cfg = TcConfig {
        // Only the commit path may force.
        force_every: usize::MAX,
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::adaptive(),
            ..GroupCommitCfg::default()
        }),
        ..TcConfig::default()
    };
    let mut d = Deployment::new();
    let ids: Vec<TcId> = (1..=n).map(TcId).collect();
    for (i, &tc) in ids.iter().enumerate() {
        let dc = DcId(i as u16 + 1);
        d.add_dc(dc, DcConfig::default());
        d.add_tc(tc, tc_cfg.clone());
        d.connect(tc, dc, TransportKind::Inline);
        d.create_table(dc, TableSpec::plain(TABLE, "t"));
        d.route(tc, TABLE, TableRoute::Single(dc));
    }
    if with_map {
        d.set_shard_map(TcShardMap::even(&ids));
    }
    d
}

/// Thread `g`'s `s`-th key inside shard `i`'s range. Every (shard,
/// thread) pair owns its keys exclusively, so the workload is
/// conflict-free by construction and measures protocol cost, not lock
/// contention.
fn shard_key(n: u16, i: u16, g: usize, s: u64) -> Key {
    let step = u64::MAX / n as u64;
    Key::from_u64(step * i as u64 + 1 + 2 * g as u64 + s)
}

#[derive(Clone, Copy)]
enum ArbiterMode {
    Serial,
    Coalescing,
}

struct RunCfg {
    label: String,
    shards: u16,
    with_map: bool,
    /// Every k-th transaction spans two shards (`None` = all local).
    cross_every: Option<u64>,
    /// Colocate every shard's log on one shared device.
    arbiter: Option<ArbiterMode>,
    per_thread: u64,
}

fn run(cfg: &RunCfg) -> E14Row {
    let n = cfg.shards;
    let d = sharded_tc_deployment(n, cfg.with_map);
    let ids: Vec<TcId> = (1..=n).map(TcId).collect();
    let arb = cfg.arbiter.as_ref().map(|m| match m {
        ArbiterMode::Serial => ForceArbiter::serial(),
        ArbiterMode::Coalescing => ForceArbiter::new(),
    });
    if let Some(a) = &arb {
        d.colocate_tc_logs(&ids, Arc::clone(a));
    }
    let total_threads = THREADS_PER_SHARD * n as usize;
    // Preload every thread's keys on every shard (latency-free), then
    // charge the device latency for the measured phase.
    for (i, &tc_id) in ids.iter().enumerate() {
        let tc = d.tc(tc_id);
        for g in 0..total_threads {
            for s in 0..2u64 {
                let txn = tc.begin().expect("begin preload");
                tc.insert(txn, TABLE, shard_key(n, i as u16, g, s), vec![7u8; 16])
                    .expect("insert preload");
                tc.commit(txn).expect("commit preload");
            }
        }
    }
    for &tc_id in &ids {
        d.tc_log(tc_id).set_force_latency(FORCE_LATENCY);
    }
    let cross_before: u64 = ids
        .iter()
        .map(|id| d.tc(*id).stats().snapshot().cross_commits)
        .sum();
    let prepares_before: u64 = ids
        .iter()
        .map(|id| d.tc(*id).stats().snapshot().prepares)
        .sum();
    let flushes_before = arb.as_ref().map_or(0, |a| a.stats().device_flushes);
    let per_thread = cfg.per_thread;
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, &tc_id) in ids.iter().enumerate() {
            for t in 0..THREADS_PER_SHARD {
                let tc = d.tc(tc_id);
                let g = i * THREADS_PER_SHARD + t;
                let cross_every = cfg.cross_every;
                s.spawn(move || {
                    for iter in 0..per_thread {
                        let txn = tc.begin().expect("begin");
                        let payload = vec![(iter % 251) as u8; 16];
                        tc.update(txn, TABLE, shard_key(n, i as u16, g, 0), payload.clone())
                            .expect("local update");
                        let cross = n > 1 && cross_every.is_some_and(|k| iter % k == 0);
                        if cross {
                            // Rotate over the other shards; the op is
                            // forwarded and the commit runs 2PC over
                            // both redo logs.
                            let j = (i + 1 + (iter as usize % (n as usize - 1))) % n as usize;
                            tc.update(txn, TABLE, shard_key(n, j as u16, g, 0), payload)
                                .expect("forwarded update");
                        } else {
                            tc.update(txn, TABLE, shard_key(n, i as u16, g, 1), payload)
                                .expect("second local update");
                        }
                        tc.commit(txn).expect("commit");
                    }
                });
            }
        }
    });
    let wall = start.elapsed();
    for &tc_id in &ids {
        d.tc_log(tc_id).set_force_latency(Duration::ZERO);
    }
    let commits = total_threads as u64 * per_thread;
    let cross_commits: u64 = ids
        .iter()
        .map(|id| d.tc(*id).stats().snapshot().cross_commits)
        .sum::<u64>()
        - cross_before;
    let prepares: u64 = ids
        .iter()
        .map(|id| d.tc(*id).stats().snapshot().prepares)
        .sum::<u64>()
        - prepares_before;
    let device_flushes = arb
        .as_ref()
        .map_or(0, |a| a.stats().device_flushes - flushes_before);
    E14Row {
        label: cfg.label.clone(),
        shards: n,
        threads: total_threads,
        commits_per_sec: commits as f64 / wall.as_secs_f64(),
        cross_commits,
        prepares,
        device_flushes_per_commit: device_flushes as f64 / commits as f64,
    }
}

/// Run the full experiment. `smoke` shrinks the per-committer commit
/// counts for CI; the gates are identical in both modes.
pub fn run_e14(smoke: bool) -> Report {
    let per_thread: u64 = if smoke { 80 } else { 400 };
    // Five reps: every row feeds a ratio gate, and on a small CI box a
    // single descheduled rep on either side of a ratio is enough to
    // flap a 1.7× gate that really sits at ~2×. Rows are sub-second,
    // so the extra reps are cheap insurance.
    const REPS: usize = 5;
    let cfg = |label: &str, shards: u16, with_map: bool, cross_every, arbiter| RunCfg {
        label: label.to_string(),
        shards,
        with_map,
        cross_every,
        arbiter,
        per_thread,
    };
    let cells = [
        // Scale-out: single-shard transactions, one log device per shard.
        cfg("scale-out @1 shards", 1, true, None, None),
        cfg("scale-out @2 shards", 2, true, None, None),
        cfg("scale-out @4 shards", 4, true, None, None),
        // Shard-map overhead on the single-shard fast path.
        cfg("one shard, no shard map", 1, false, None, None),
        // Cross-TC transactions: one in five spans two shards.
        cfg("cross-TC 1-in-5 @4 shards", 4, true, Some(5), None),
        // Shared log device: all four shard logs behind one arbiter.
        cfg(
            "shared device, serial forces @4 shards",
            4,
            true,
            None,
            Some(ArbiterMode::Serial),
        ),
        cfg(
            "shared device, coalescing arbiter @4 shards",
            4,
            true,
            None,
            Some(ArbiterMode::Coalescing),
        ),
    ];
    let rows: Vec<E14Row> = cells
        .iter()
        .map(|c| best_of(REPS, |r: &E14Row| r.commits_per_sec, |_| run(c)))
        .collect();
    let gates = gates(&rows);
    let params = vec![
        ("per_thread_commits", Json::from(per_thread)),
        (
            "force_latency_us",
            (FORCE_LATENCY.as_micros() as u64).into(),
        ),
        ("threads_per_shard", THREADS_PER_SHARD.into()),
    ];
    Report::new("e14_sharded_tc", smoke, params, &rows, gates)
}

fn gates(rows: &[E14Row]) -> Vec<Gate> {
    let mut gates = Vec::new();
    // Scale-out: each shard brings its own log device, so commit
    // throughput must grow close to linearly with the shard count.
    let s1 = find(rows, "scale-out @1 shards").commits_per_sec;
    let s2 = find(rows, "scale-out @2 shards").commits_per_sec;
    let s4 = find(rows, "scale-out @4 shards").commits_per_sec;
    gates.push(Gate::at_least(
        "sharded TC scale-out @2 shards vs 1",
        s2 / s1,
        1.7,
    ));
    gates.push(Gate::at_least(
        "sharded TC scale-out @4 shards vs 1",
        s4 / s1,
        3.0,
    ));

    // The shard-map lookup rides every operation: the one-shard fast
    // path must stay within 10% of the map-free deployment.
    let nomap = find(rows, "one shard, no shard map").commits_per_sec;
    gates.push(Gate::at_least(
        "one-shard throughput with shard map vs without",
        s1 / nomap,
        0.9,
    ));

    // Cross-TC transactions pay two forced log rounds (Prepare +
    // decision) on one in five commits; the blend must retain most of
    // the partitioned throughput.
    let cross = find(rows, "cross-TC 1-in-5 @4 shards");
    gates.push(Gate::at_least(
        "cross-TC blend (1-in-5) vs all-local @4 shards",
        cross.commits_per_sec / s4,
        0.25,
    ));
    gates.push(Gate::at_least(
        "cross-TC transactions actually committed via 2PC",
        cross.cross_commits.min(cross.prepares) as f64,
        1.0,
    ));

    // Colocated logs: the coalescing arbiter shares device flushes
    // across shards; the serial baseline queues one per log force.
    let serial = find(rows, "shared device, serial forces @4 shards");
    let coal = find(rows, "shared device, coalescing arbiter @4 shards");
    gates.push(Gate::at_least(
        "shared-device coalescing speedup over serial forces @4 shards",
        coal.commits_per_sec / serial.commits_per_sec,
        1.2,
    ));
    gates
}
