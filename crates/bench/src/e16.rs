//! E16 harness: MVCC snapshot reads vs locking reads under a
//! contending writer, plus version-chain garbage collection across
//! truncating checkpoints.
//!
//! `report e16`, telemetry `BENCH_e16.json`.
//!
//! One writer keeps committing a transaction that updates *every* hot
//! key (holding all their X locks across the simulated log-device
//! force), while reader threads issue point reads over the same hot
//! set. The experiment measures the unified read surface end to end:
//!
//! * **read throughput** — [`ReadConsistency::Locking`] readers queue
//!   behind the writer's X locks; [`SnapshotSpec::Fresh`] snapshot
//!   readers never touch the lock manager and must sustain at least
//!   2× the locking throughput;
//! * **lock freedom** — the snapshot phase must add exactly zero lock
//!   waits (the readers' S-lock traffic disappears entirely);
//! * **snapshot isolation** — a pinned snapshot transaction reading
//!   the whole hot set mid-write-storm must observe one writer round
//!   atomically: every key carries the same round counter, and
//!   re-reading the first key at the end of the transaction returns
//!   the value it returned at the start (repeatable reads);
//! * **bounded version memory** — after the storm, repeated
//!   update-then-checkpoint rounds must not accumulate version-chain
//!   entries: the published low-water mark drives DC-side chain
//!   trimming, so retained history stays bounded across at least 12
//!   truncating checkpoints. Chains are trimmed lazily, under the leaf
//!   latch of the next apply or flush, so the gate samples the *live*
//!   chains too: after each round's second commit, before its
//!   checkpoint, at most one entry per hot key may remain (the first
//!   commit's version, which a snapshot below the second still reads).

use crate::json::Json;
use crate::report::{Gate, Report};
use crate::{unbundled_single, TABLE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_tc::{ReadConsistency, SnapshotSpec, Tc, TcConfig};

/// Simulated log-device flush latency (NVMe-class fsync). This is the
/// writer's lock-hold window: commit forces the log and delivers the
/// commit stamps while the transaction still owns its X locks.
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);

const PRIMARY: DcId = DcId(1);

/// Hot-set size: every writer round updates all of these in one
/// transaction, so a locking reader contends with probability ~1.
const KEYS: u64 = 16;

/// Reader threads per measured phase.
const READERS: usize = 8;

crate::row! {
    /// One measured read phase (locking or snapshot).
    pub struct E16Row {
        /// Configuration label.
        pub label: String,
        /// Aggregate committed reads per second.
        pub reads_per_sec: f64,
        /// Reads issued across all reader threads.
        pub reads: u64,
        /// Lock-manager waits incurred during the phase (readers + writer).
        pub lock_waits: u64,
        /// Writer transactions committed during the phase.
        pub commits: u64,
        /// DC-side snapshot reads served during the phase.
        pub snapshot_reads: u64,
    }
}

/// One TC over one B-tree DC, inline links (deterministic): all
/// contention in this experiment comes from record locks held across
/// the commit force, not from the wire.
fn deployment() -> Deployment {
    let tc_cfg = TcConfig {
        // Only explicit commit forces pay the device latency — periodic
        // bookkeeping forces would throttle the read phases and mask the
        // lock-contention signal.
        force_every: usize::MAX,
        ..TcConfig::default()
    };
    unbundled_single(TransportKind::Inline, tc_cfg, DcConfig::default())
}

/// Seed every hot key with round counter 0 in ONE transaction, so any
/// snapshot — even one pinned before the first writer round — sees a
/// single atomic round.
fn seed(tc: &Arc<Tc>) {
    let t = tc.begin().expect("begin seed");
    for k in 0..KEYS {
        tc.insert(t, TABLE, Key::from_u64(k), 0u64.to_le_bytes().to_vec())
            .expect("seed insert");
    }
    tc.commit(t).expect("commit seed");
}

/// Spawn the contending writer: each round updates EVERY hot key to
/// the round counter in one transaction, holding all X locks across
/// the log force. Returns the join handle; flip `stop` to end it.
fn spawn_writer(
    d: &Arc<Deployment>,
    stop: &Arc<AtomicBool>,
    commits: &Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let d = d.clone();
    let stop = stop.clone();
    let commits = commits.clone();
    std::thread::spawn(move || {
        let tc = d.tc(TcId(1));
        let mut round = 1u64;
        while !stop.load(Ordering::Acquire) {
            let t = tc.begin().expect("begin writer");
            for k in 0..KEYS {
                tc.update(t, TABLE, Key::from_u64(k), round.to_le_bytes().to_vec())
                    .expect("writer update");
            }
            tc.commit(t).expect("commit writer");
            commits.fetch_add(1, Ordering::Relaxed);
            round += 1;
        }
    })
}

/// Decode the 8-byte round counter.
fn counter(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().expect("8-byte payload"))
}

/// Measure one read phase: `READERS` threads each issue `per_reader`
/// single-read transactions with `consistency` while the writer storm
/// runs. Returns the measured row.
fn run_read_phase(
    d: &Arc<Deployment>,
    label: &str,
    consistency: ReadConsistency,
    per_reader: u64,
) -> E16Row {
    let tc = d.tc(TcId(1));
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(d, &stop, &commits);
    // Start the readers only once the writer has committed a round, so
    // the measured window opens inside the write storm rather than
    // before the writer is first scheduled.
    while commits.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }

    let stats_before = tc.stats().snapshot();
    let (_, waits_before, _, _) = tc.lock_manager().stats().snapshot();
    let start = Instant::now();
    std::thread::scope(|s| {
        for r in 0..READERS as u64 {
            let tc = Arc::clone(&tc);
            s.spawn(move || {
                for i in 0..per_reader {
                    let k = (r.wrapping_mul(7919).wrapping_add(i)) % KEYS;
                    let t = tc.begin().expect("begin reader");
                    let v = tc
                        .read(t, TABLE, Key::from_u64(k), consistency)
                        .expect("reader read");
                    assert!(v.is_some(), "seeded key {k} must exist");
                    tc.commit(t).expect("commit reader");
                }
            });
        }
    });
    let wall = start.elapsed();
    stop.store(true, Ordering::Release);
    writer.join().expect("writer");
    let stats_after = tc.stats().snapshot();
    let (_, waits_after, _, _) = tc.lock_manager().stats().snapshot();

    let reads = READERS as u64 * per_reader;
    E16Row {
        label: label.to_string(),
        reads_per_sec: reads as f64 / wall.as_secs_f64(),
        reads,
        lock_waits: waits_after - waits_before,
        commits: commits.load(Ordering::Relaxed),
        snapshot_reads: stats_after.snapshot_reads - stats_before.snapshot_reads,
    }
}

/// Drive pinned-snapshot transactions through the write storm: each
/// reads the whole hot set at its pin, requires every key to carry the
/// same round counter (no torn rounds), and re-reads the first key at
/// the end (repeatable). Returns the violation count.
fn run_si_phase(d: &Arc<Deployment>, rounds: u64) -> u64 {
    let tc = d.tc(TcId(1));
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(d, &stop, &commits);

    let pinned = ReadConsistency::Snapshot(SnapshotSpec::Pinned);
    let mut violations = 0u64;
    for _ in 0..rounds {
        let t = tc.begin().expect("begin pinned");
        let first = tc
            .read(t, TABLE, Key::from_u64(0), pinned)
            .expect("pinned read")
            .expect("seeded key");
        let round = counter(&first);
        for k in 1..KEYS {
            let v = tc
                .read(t, TABLE, Key::from_u64(k), pinned)
                .expect("pinned read")
                .expect("seeded key");
            if counter(&v) != round {
                violations += 1;
            }
        }
        let again = tc
            .read(t, TABLE, Key::from_u64(0), pinned)
            .expect("pinned re-read")
            .expect("seeded key");
        if counter(&again) != round {
            violations += 1;
        }
        tc.commit(t).expect("commit pinned");
    }
    stop.store(true, Ordering::Release);
    writer.join().expect("writer");
    violations
}

/// Retained version-chain entries of one GC round.
struct GcSample {
    /// Most entries seen right after a round's commit (live chains).
    max_live: usize,
    /// Most entries seen after a round's truncating checkpoint.
    max_after_checkpoint: usize,
    /// Entries after the last checkpoint.
    last: usize,
}

/// The GC phase: with no pins open, each round overwrites every hot
/// key in two transactions and then drives a truncating checkpoint; the
/// published LWM must keep DC-side version chains trimmed. Samples the
/// retained entries after the round's second commit (the live chains:
/// its writes displaced the first commit's versions, and only a trim at
/// apply drops the versions those displaced in turn) and after each
/// checkpoint.
fn run_gc_phase(d: &Arc<Deployment>, checkpoints: u64) -> GcSample {
    let tc = d.tc(TcId(1));
    let engine = d.dc(PRIMARY).engine().clone();
    let mut sample = GcSample {
        max_live: 0,
        max_after_checkpoint: 0,
        last: 0,
    };
    for round in 0..checkpoints {
        for half in 0..2 {
            let t = tc.begin().expect("begin gc round");
            for k in 0..KEYS {
                tc.update(
                    t,
                    TABLE,
                    Key::from_u64(k),
                    (u64::MAX - 2 * round - half).to_le_bytes().to_vec(),
                )
                .expect("gc update");
            }
            tc.commit(t).expect("commit gc round");
        }
        sample.max_live = sample.max_live.max(engine.version_chain_entries(TABLE));
        tc.checkpoint().expect("truncating checkpoint");
        sample.last = engine.version_chain_entries(TABLE);
        sample.max_after_checkpoint = sample.max_after_checkpoint.max(sample.last);
    }
    sample
}

/// Run the full experiment. `smoke` shrinks the workload for CI; the
/// gates are identical in both modes.
pub fn run_e16(smoke: bool) -> Report {
    let per_reader: u64 = if smoke { 300 } else { 2000 };
    let si_rounds: u64 = if smoke { 40 } else { 200 };
    let checkpoints: u64 = if smoke { 12 } else { 16 };

    let d = Arc::new(deployment());
    let tc = d.tc(TcId(1));
    seed(&tc);
    d.tc_log(TcId(1)).set_force_latency(FORCE_LATENCY);

    let locking = run_read_phase(
        &d,
        "locking reads vs writer",
        ReadConsistency::Locking,
        per_reader,
    );
    let snapshot = run_read_phase(
        &d,
        "snapshot reads vs writer",
        ReadConsistency::Snapshot(SnapshotSpec::Fresh),
        per_reader,
    );
    let si_violations = run_si_phase(&d, si_rounds);
    let gc = run_gc_phase(&d, checkpoints);
    d.tc_log(TcId(1)).set_force_latency(Duration::ZERO);

    let gates = gates(&locking, &snapshot, si_violations, checkpoints, &gc);
    let params = vec![
        ("per_reader_reads", Json::from(per_reader)),
        (
            "force_latency_us",
            (FORCE_LATENCY.as_micros() as u64).into(),
        ),
        ("hot_keys", KEYS.into()),
        ("readers", READERS.into()),
        ("si_rounds", si_rounds.into()),
        ("si_violations", si_violations.into()),
        ("checkpoints", checkpoints.into()),
        ("max_chain_entries", gc.max_after_checkpoint.into()),
        ("max_live_chain_entries", gc.max_live.into()),
        ("final_chain_entries", gc.last.into()),
    ];
    Report::new("e16_mvcc_reads", smoke, params, &[locking, snapshot], gates)
}

fn gates(
    locking: &E16Row,
    snapshot: &E16Row,
    si_violations: u64,
    checkpoints: u64,
    gc: &GcSample,
) -> Vec<Gate> {
    vec![
        Gate::at_least(
            "snapshot-read throughput vs locking under a contending writer",
            snapshot.reads_per_sec / locking.reads_per_sec,
            2.0,
        ),
        Gate::holds(
            "zero lock waits on the snapshot read path",
            snapshot.lock_waits == 0,
        ),
        Gate::at_least(
            "snapshot phase served from MVCC chains (snapshot-read share)",
            snapshot.snapshot_reads as f64 / snapshot.reads.max(1) as f64,
            1.0,
        ),
        Gate::holds(
            "zero snapshot-isolation violations (torn/unrepeatable reads)",
            si_violations == 0,
        ),
        Gate::holds(
            format!("version memory bounded across {checkpoints} truncating checkpoints"),
            checkpoints >= 12 && gc.max_after_checkpoint <= KEYS as usize,
        ),
        Gate::holds(
            "live version chains trimmed between checkpoints (<= 1 entry per hot key)",
            gc.max_live <= KEYS as usize,
        ),
    ]
}
