//! E13 harness: open-loop arrival-driven commit workload with latency
//! SLOs.
//!
//! `report e13`, telemetry `BENCH_e13.json`.
//!
//! E11 measured the commit path *closed-loop*: a fixed set of committer
//! threads, each issuing its next commit the moment the previous one
//! returned. In that regime a deliberate gather wait never beat
//! window=0 — piggybacking on in-flight flushes re-forms the group for
//! free, and the adaptive controller's job was converging to zero.
//! This experiment drives the same commit path **open-loop**: commits
//! *arrive* on a seeded schedule ([`ArrivalProcess`]), are admitted
//! into a bounded queue (shedding when it caps), and a worker pool
//! services them. Latency is measured from the scheduled arrival time,
//! so queueing — the thing an overloaded open-loop system actually
//! inflicts on its users — is on the books.
//!
//! Why a gather window can win here and not in e11: with window=0, the
//! first worker released by a completed flush leads the next flush
//! immediately and nearly alone, while the rest of the pool is still
//! waking up; those stragglers then need the flush after that. Under
//! saturation the log settles into an alternation of near-solo and
//! near-full flushes — about two device latencies per worker-pool's
//! worth of commits. A small gather window lets the leader wait for
//! the pool to re-form (cut short by `max_waiters` the moment everyone
//! joined), delivering the same commits in one device latency. In a
//! closed loop that tradeoff nets out to zero because the benchmark
//! threads have nothing else to do with the saved time; in an open
//! loop the higher delivered rate directly shortens the admission
//! queue, which is where the p99 lives.

use crate::json::Json;
use crate::report::{best_of, find, Gate, Report};
use crate::workload::{run_open_loop, ArrivalProcess, OpenLoopCfg};
use crate::{unbundled_single, TABLE};
use std::time::Duration;
use unbundled_core::{Key, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::TransportKind;
use unbundled_storage::GatherWindow;
use unbundled_tc::{GroupCommitCfg, TcConfig};

/// Simulated log-device flush latency. Deliberately slower than e11's
/// NVMe-class 150 µs (think networked block storage, the paper's cloud
/// deployment target): e13 studies how the gather window converts
/// flush capacity into delivered throughput and tail latency, so the
/// flush device — not the 1-core container's CPU — must be the
/// bottleneck resource.
pub const FORCE_LATENCY: Duration = Duration::from_micros(600);

/// Worker threads servicing admitted arrivals (also the group-commit
/// `max_waiters`, so a gather window is cut short the moment the whole
/// pool has joined the group).
pub const WORKERS: usize = 16;

/// Admission-queue capacity: past this backlog, arrivals shed.
pub const QUEUE_CAP: usize = 512;

/// p99 gather-latency budget handed to the latency-aware adaptive
/// controller ([`GatherWindow::AdaptiveBudget`]). A commit's
/// gather+flush latency is intrinsically up to one window plus two
/// device flushes (the in-flight flush it just missed, then its own),
/// ≈ 2 ms here — the budget must sit above that floor or the
/// controller oscillates between adopting the window the throughput
/// objective wants and walking it back for a violation no window
/// choice can cure; it binds against windows (and scheduling
/// pathologies) beyond that.
pub const P99_BUDGET: Duration = Duration::from_millis(4);

crate::row! {
    /// One measured configuration.
    pub struct E13Row {
        /// Arrival pattern label.
        pub pattern: String,
        /// Gather-window configuration label.
        pub window: String,
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
        /// p95 (µs).
        pub total_p95_us: f64,
        /// p99 (µs).
        pub total_p99_us: f64,
        /// Max (µs).
        pub total_max_us: f64,
        /// p99 of queueing latency alone (µs).
        pub queue_p99_us: f64,
        /// p99 of service latency alone (µs).
        pub service_p99_us: f64,
        /// Gather window the adaptive controller settled on (µs; zero for
        /// fixed windows).
        pub chosen_window_us: f64,
        /// Candidate windows the controller probed over the whole cell
        /// (warmup included — warmup shares the deployment and pattern,
        /// and adoption is *supposed* to happen there).
        pub window_probes: u64,
        /// Probes adopted as grows over the whole cell — ≥ 1 means the
        /// controller adopted a deliberate nonzero gather window for this
        /// pattern. (A warmup-only adoption that decayed before
        /// measurement cannot produce a false overall pass: the measured
        /// run would then deliver window=0 throughput and fail the
        /// delivered-ratio gate.)
        pub window_grows: u64,
        /// Probes rejected (or adopted windows walked back) on the p99
        /// budget, over the whole cell.
        pub budget_rejects: u64,
        /// Controller-measured p99 of commit gather+flush latency over the
        /// last completed epoch (µs).
        pub gather_p99_us: f64,
        /// Largest epoch p99 over the whole cell (µs) — a mid-run budget
        /// violation stays visible here even when the end-of-run drain is
        /// quiet. Watched by the baseline harness with a wide band rather
        /// than a hard gate (a single scheduling-stall epoch on a noisy
        /// runner must not fail CI).
        pub gather_p99_max_us: f64,
        /// Log flushes per delivered commit.
        pub forces_per_commit: f64,
    }
    key = |r| format!("{}/{}", r.pattern, r.window);
}

/// A window configuration under test.
#[derive(Clone, Copy)]
enum WindowCfg {
    Fixed(Duration),
    Adaptive,
}

impl WindowCfg {
    fn label(&self) -> String {
        match self {
            WindowCfg::Fixed(d) => format!("fixed={}us", d.as_micros()),
            WindowCfg::Adaptive => "adaptive".to_string(),
        }
    }

    fn gather(&self) -> GatherWindow {
        match *self {
            WindowCfg::Fixed(d) => GatherWindow::Fixed(d),
            WindowCfg::Adaptive => GatherWindow::adaptive_with_budget(P99_BUDGET),
        }
    }
}

/// Run one (pattern, window) cell: build a fresh 1×1 deployment with
/// group commit, warm it up on an unmeasured prefix of the same
/// pattern (different seed) so the adaptive controller meets the load
/// before measurement starts, then drive the measured schedule
/// open-loop.
fn run_cell(
    pattern_label: &str,
    process: ArrivalProcess,
    window: WindowCfg,
    seed: u64,
    horizon: Duration,
    warmup: Duration,
) -> E13Row {
    run_cell_with(
        pattern_label,
        process,
        window,
        seed,
        horizon,
        warmup,
        WORKERS,
        FORCE_LATENCY,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_cell_with(
    pattern_label: &str,
    process: ArrivalProcess,
    window: WindowCfg,
    seed: u64,
    horizon: Duration,
    warmup: Duration,
    workers: usize,
    force_latency: Duration,
) -> E13Row {
    let tc_cfg = TcConfig {
        // Only the commit path may force.
        force_every: usize::MAX,
        group_commit: Some(GroupCommitCfg {
            window: window.gather(),
            max_waiters: workers,
        }),
        ..TcConfig::default()
    };
    let d = unbundled_single(TransportKind::Inline, tc_cfg, DcConfig::default());
    let tc = d.tc(TcId(1));
    // One private key per worker: open-loop arrivals must contend on
    // the log device, not on row locks.
    for w in 0..workers as u64 {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_pair(w + 1, 0), vec![7u8; 16])
            .expect("insert");
        tc.commit(t).expect("commit");
    }
    let log = d.tc_log(TcId(1));
    log.set_force_latency(force_latency);
    let commit_one = |w: usize, i: usize| {
        let t = tc.begin().expect("begin");
        tc.update(
            t,
            TABLE,
            Key::from_pair(w as u64 + 1, 0),
            vec![(i % 251) as u8; 16],
        )
        .expect("update");
        tc.commit(t).expect("commit");
    };
    let cfg = OpenLoopCfg {
        queue_cap: QUEUE_CAP,
        workers,
    };
    if !warmup.is_zero() {
        let warm_schedule = process.schedule(seed ^ 0x5eed_0000, warmup);
        run_open_loop(&warm_schedule, &cfg, commit_one);
    }
    let schedule = process.schedule(seed, horizon);
    let forces_before = log.stats().snapshot().log_forces;
    let r = run_open_loop(&schedule, &cfg, commit_one);
    let forces = log.stats().snapshot().log_forces - forces_before;
    let gf = log.group_force_stats();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    log.set_force_latency(Duration::ZERO);
    E13Row {
        pattern: pattern_label.to_string(),
        window: window.label(),
        offered: r.offered,
        delivered: r.delivered,
        shed: r.shed,
        delivered_per_sec: r.delivered_per_sec(),
        total_p50_us: us(r.total.p50()),
        total_p95_us: us(r.total.p95()),
        total_p99_us: us(r.total.p99()),
        total_max_us: us(r.total.max()),
        queue_p99_us: us(r.queue.p99()),
        service_p99_us: us(r.service.p99()),
        chosen_window_us: log.gather_window().as_secs_f64() * 1e6,
        window_probes: gf.window_probes,
        window_grows: gf.window_grows,
        budget_rejects: gf.budget_rejects,
        gather_p99_us: us(log.gather_p99()),
        gather_p99_max_us: us(log.gather_p99_max()),
        forces_per_commit: forces as f64 / r.delivered.max(1) as f64,
    }
}

/// The bursty pattern of gate (a): on-phases flood the commit path
/// well past what window=0 can deliver, off-phases trickle.
/// The bursty pattern is sized against the two capacities it
/// separates: window=0 delivers ≈ 12 k commits/s here, the gathered
/// pool ≈ 17 k. The long-run offered rate (≈ 15.5 k/s) sits between
/// them, so window=0 is *structurally* overloaded — its admission
/// queue pins at the cap, shedding and serving cap-deep queueing
/// latency — while a gathered configuration absorbs each burst into a
/// bounded backlog and drains it in the off-phase. Delivered
/// throughput and p99 then both follow from capacity, which is exactly
/// the claim the gate checks.
fn bursty() -> ArrivalProcess {
    ArrivalProcess::OnOffBurst {
        on_rate: 28_000.0,
        off_rate: 1_000.0,
        // Short phases: a measured horizon covers dozens of on/off
        // cycles, so the realized duty cycle (and offered rate)
        // concentrates near its mean instead of riding one long
        // phase draw.
        mean_on: Duration::from_millis(12),
        mean_off: Duration::from_millis(10),
    }
}

/// The overloaded Poisson pattern of gate (b): a steady arrival rate
/// between the window=0 capacity and the full-pool capacity, so the
/// choice of gather window decides how much of the offered load is
/// delivered.
fn poisson_heavy() -> ArrivalProcess {
    ArrivalProcess::Poisson { rate: 14_500.0 }
}

/// Fixed windows the adaptive controller is judged against.
const SWEEP_US: [u64; 4] = [0, 150, 600, 900];

/// Run the full experiment. `smoke` shrinks the horizons for CI; the
/// gates are identical in both modes.
pub fn run_e13(smoke: bool) -> Report {
    let horizon = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(1500)
    };
    let warmup = if smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(600)
    };
    let seed = 0xE13_0001;
    let mut rows = Vec::new();

    // Wall-clock noise on a CI runner is one-sided (interference only
    // slows a run down), so gate-critical cells keep their best of two
    // repetitions — on *both* sides of each ratio gate, as in e11.
    let best = |pattern: &str, process: ArrivalProcess, window: WindowCfg| {
        best_of(
            2,
            |r: &E13Row| r.delivered_per_sec,
            |rep| run_cell(pattern, process, window, seed + rep, horizon, warmup),
        )
    };

    // --- Gate (a): bursty arrivals, window=0 vs the latency-aware
    // adaptive controller.
    for window in [WindowCfg::Fixed(Duration::ZERO), WindowCfg::Adaptive] {
        rows.push(best("bursty", bursty(), window));
    }

    // --- Gate (b): overloaded Poisson, fixed sweep vs adaptive. The
    // sweep rows get the same best-of-2 treatment: `best_fixed` is the
    // gate's denominator, and a single interference-slowed run of the
    // true best window would one-sidedly weaken the bar.
    for us in SWEEP_US {
        rows.push(best(
            "poisson-heavy",
            poisson_heavy(),
            WindowCfg::Fixed(Duration::from_micros(us)),
        ));
    }
    rows.push(best("poisson-heavy", poisson_heavy(), WindowCfg::Adaptive));

    // --- Informational rows: a sub-capacity Poisson (nothing should
    // shed and the p99 should stay near the device latency) and a ramp
    // into overload (the adaptive controller meets a rising load).
    rows.push(run_cell(
        "poisson-light",
        ArrivalProcess::Poisson { rate: 4_000.0 },
        WindowCfg::Adaptive,
        seed,
        horizon,
        warmup,
    ));
    rows.push(run_cell(
        "ramp",
        ArrivalProcess::Ramp {
            start_rate: 2_000.0,
            end_rate: 28_000.0,
        },
        WindowCfg::Adaptive,
        seed,
        horizon,
        warmup,
    ));

    let gates = gates(&rows);
    let params = vec![
        ("horizon_ms", Json::from(horizon.as_millis() as u64)),
        (
            "force_latency_us",
            (FORCE_LATENCY.as_micros() as u64).into(),
        ),
        ("workers", WORKERS.into()),
        ("queue_cap", QUEUE_CAP.into()),
        ("p99_budget_us", (P99_BUDGET.as_micros() as u64).into()),
    ];
    Report::new("e13_open_loop", smoke, params, &rows, gates)
}

fn gates(rows: &[E13Row]) -> Vec<Gate> {
    let mut gates = Vec::new();

    // (a) Under bursty arrivals the adaptive controller must adopt a
    // nonzero window and beat window=0 by ≥ 1.2× delivered throughput
    // at equal-or-better p99.
    let zero = find(rows, "bursty/fixed=0us");
    let adaptive = find(rows, "bursty/adaptive");
    gates.push(Gate::at_least(
        "bursty: adaptive adopts a nonzero gather window (grow adoptions)",
        adaptive.window_grows as f64,
        1.0,
    ));
    gates.push(Gate::at_least(
        "bursty: adaptive delivered throughput vs window=0",
        adaptive.delivered_per_sec / zero.delivered_per_sec,
        1.2,
    ));
    // "Equal-or-better" with 5% slack: both sides of the ratio are
    // measured p99s, and a run where both configurations saturate (a
    // badly interfered CI runner) drives the ratio toward exactly 1.0
    // — a knife-edge threshold would then fail innocent pushes on a
    // coin flip. The healthy margin is ~1.5x; a real p99 regression
    // lands far below 0.95.
    gates.push(Gate::at_least(
        "bursty: adaptive p99 equal-or-better (window=0 p99 / adaptive p99)",
        zero.total_p99_us / adaptive.total_p99_us.max(f64::EPSILON),
        0.95,
    ));

    // (b) On the overloaded Poisson pattern the adaptive controller
    // must deliver within 10% of the best fixed window.
    let best_fixed = SWEEP_US
        .iter()
        .map(|us| find(rows, &format!("poisson-heavy/fixed={us}us")).delivered_per_sec)
        .fold(f64::MIN, f64::max);
    let adaptive = find(rows, "poisson-heavy/adaptive");
    gates.push(Gate::at_least(
        "poisson-heavy: adaptive delivered vs best fixed window",
        adaptive.delivered_per_sec / best_fixed,
        0.9,
    ));

    // The latency-aware controller must keep its own measured p99 in
    // the budget's neighborhood. The row reports the *last completed
    // epoch*, and a single epoch is allowed to breach — that breach is
    // precisely what triggers the controller's walk-back — so the gate
    // allows 2× slack and catches sustained violation (a controller
    // that ignored its budget under this overload would sit at an
    // order of magnitude above it, not at 2×).
    gates.push(Gate::at_least(
        "adaptive gather p99 within 2x budget (2*budget / measured)",
        2.0 * P99_BUDGET.as_secs_f64() * 1e6 / adaptive.gather_p99_us.max(f64::EPSILON),
        1.0,
    ));
    gates
}

#[cfg(test)]
mod tuning {
    use super::*;

    /// Not a test: a parameter-space probe for retuning the e13
    /// constants when the harness moves to different hardware. Run
    /// with:
    ///
    /// ```sh
    /// cargo test --release -p unbundled_bench tuning -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "manual tuning probe, not a regression test"]
    fn sweep_window_capacity() {
        let horizon = Duration::from_millis(300);
        for &(workers, force_us) in &[
            (16usize, 600u64),
            (12, 450),
            (16, 450),
            (24, 600),
            (24, 450),
        ] {
            for &win_us in &[0u64, 100, 300, 600] {
                let row = run_cell_with(
                    "probe",
                    ArrivalProcess::Poisson { rate: 60_000.0 },
                    WindowCfg::Fixed(Duration::from_micros(win_us)),
                    7,
                    horizon,
                    Duration::from_millis(100),
                    workers,
                    Duration::from_micros(force_us),
                );
                println!(
                    "W={workers:<3} f={force_us:<4} win={win_us:<5} delivered/s {:>8.0} p99 {:>8.0}us f/c {:.3}",
                    row.delivered_per_sec, row.total_p99_us, row.forces_per_commit
                );
            }
        }
    }
}
