//! Read-path scaling probe: what one transaction costs with one client
//! thread and with two.
//!
//! Two transaction shapes run against one TC over one B-tree DC (inline
//! link, 100k rows loaded through the TC and checkpointed):
//!
//! * `empty` — `begin` + `commit`;
//! * `snapshot4` — `begin`, four point reads at
//!   [`ReadConsistency::SNAPSHOT`] (the transaction's pinned snapshot),
//!   `commit`.
//!
//! Each shape runs for a fixed window with 1 thread, then with 2
//! threads at once; a row reports the mean cost of one transaction as
//! each thread sees it (window / transactions, averaged over threads).
//! A read path that shares no writes scales: the 2-thread cost stays
//! close to the 1-thread cost on a machine with at least two cores.
//!
//! ```sh
//! cargo run --release -p unbundled_bench --bin scaling            # 2 s per cell
//! cargo run --release -p unbundled_bench --bin scaling -- 0.5     # window in seconds
//! ```

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use unbundled_bench::{unbundled_single, TABLE};
use unbundled_core::{Key, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::TransportKind;
use unbundled_tc::{ReadConsistency, Tc, TcConfig};

const ROWS: u64 = 100_000;
const LOAD_BATCH: u64 = 1_000;

/// Mean ns per transaction over `threads` concurrent threads, each
/// running `txn` for `window`.
fn cost(tc: &Arc<Tc>, threads: usize, window: Duration, txn: fn(&Tc, u64)) -> f64 {
    let start = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|id| {
                let tc = tc.as_ref();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let mut i = id << 40;
                    let mut n = 0u64;
                    while t0.elapsed() < window {
                        for _ in 0..64 {
                            txn(tc, i);
                            i += 1;
                        }
                        n += 64;
                    }
                    t0.elapsed().as_nanos() as f64 / n as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

fn empty(tc: &Tc, _i: u64) {
    let t = tc.begin().expect("begin");
    tc.commit(t).expect("commit");
}

fn snapshot4(tc: &Tc, i: u64) {
    let t = tc.begin().expect("begin");
    for j in 0..4 {
        let k = (4 * i + j).wrapping_mul(7919) % ROWS;
        black_box(
            tc.read(t, TABLE, Key::from_u64(k), ReadConsistency::SNAPSHOT)
                .expect("read")
                .expect("loaded row"),
        );
    }
    tc.commit(t).expect("commit");
}

fn main() {
    let window = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(Duration::from_secs(2), Duration::from_secs_f64);
    let d = unbundled_single(
        TransportKind::Inline,
        TcConfig::default(),
        DcConfig::default(),
    );
    let tc = d.tc(TcId(1));
    for base in (0..ROWS).step_by(LOAD_BATCH as usize) {
        let t = tc.begin().expect("begin load");
        for k in base..base + LOAD_BATCH {
            tc.insert(t, TABLE, Key::from_u64(k), vec![7u8; 100])
                .expect("load insert");
        }
        tc.commit(t).expect("commit load");
    }
    tc.checkpoint().expect("checkpoint after load");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scaling probe: {ROWS} rows, inline link, {:.1} s per cell, {cores} cores",
        window.as_secs_f64()
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "txn", "1 thread", "2 threads", "ratio"
    );
    for (name, txn) in [("empty", empty as fn(&Tc, u64)), ("snapshot4", snapshot4)] {
        // Warm the read path before measuring.
        cost(&tc, 1, window / 4, txn);
        let one = cost(&tc, 1, window, txn);
        let two = cost(&tc, 2, window, txn);
        println!(
            "{name:<10} {:>9.0} ns {:>9.0} ns {:>8.2}",
            one,
            two,
            two / one
        );
    }
}
