//! E8 (§6): multiple TCs sharing one DC (`report e8`, telemetry
//! `BENCH_e8.json`).
//!
//! Each TC loads its own disjoint key partition of one table on one DC
//! (§6.1: disjoint logical partitions), 1/2/4/8 TCs splitting the same
//! total work. The gates hold correctness and liveness:
//!
//! * every partition is complete and nothing leaks across partitions;
//! * a row one TC wrote is readable from another (lock-free);
//! * four TCs doing the work of one never fall below a third of its
//!   throughput — what a cross-TC livelock, a resend storm or a
//!   poisoned shared-DC latch looks like. Real speedup depends on the
//!   core count, so it is recorded rather than gated.
//!
//! The params also price §6's per-TC abLSNs: with four TCs interleaved
//! on the same pages, how many abLSNs a shared page carries and their
//! bytes across the cache — only pages holding several TCs' data pay.

use crate::json::Json;
use crate::report::{best_of, find, Gate, Report};
use crate::{load_tc, multi_tc_deployment, tc_partition_base, TABLE};
use std::sync::Arc;
use std::time::Duration;
use unbundled_core::{DcId, Key, ReadConsistency, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::harness::{ops_per_sec, run_concurrent};
use unbundled_kernel::Deployment;

crate::row! {
    /// One TC count.
    pub struct E8Row {
        /// Configuration label.
        pub label: String,
        /// TCs sharing the DC.
        pub tcs: u16,
        /// Committed load transactions per second (best of three).
        pub txns_per_sec: f64,
        /// Throughput relative to one TC doing the same work.
        pub speedup: f64,
    }
}

/// `n` TCs each load `total / n` keys into their own partition
/// concurrently, on a fresh deployment. Returns it and the wall time.
fn load_round(n: u16, total: u64) -> (Arc<Deployment>, Duration) {
    let d = Arc::new(multi_tc_deployment(n, DcConfig::default()));
    let per_tc = total / n as u64;
    let el = run_concurrent(n as usize, {
        let d = d.clone();
        move |i| {
            let tcid = TcId(i as u16 + 1);
            load_tc(&d.tc(tcid), tc_partition_base(tcid.0) + 1, per_tc, 16);
        }
    });
    (d, el)
}

/// Four TCs insert interleaved keys on the same pages; returns the most
/// abLSNs one cached page carries and their total encoded bytes.
fn shared_page_ablsns() -> (usize, usize) {
    let d = multi_tc_deployment(4, DcConfig::default());
    for i in 1..=4u16 {
        let tc = d.tc(TcId(i));
        for k in 0..50u64 {
            let t = tc.begin().expect("begin");
            tc.insert(t, TABLE, Key::from_u64(k * 4 + i as u64), vec![1; 8])
                .expect("insert");
            tc.commit(t).expect("commit");
        }
    }
    let server = d.dc(DcId(1));
    let pool = server.engine().pool();
    let (mut max_tcs, mut bytes) = (0usize, 0usize);
    for pid in pool.cached_ids() {
        if let Some(page) = pool.get_cached(pid) {
            let g = page.read();
            max_tcs = max_tcs.max(g.ab.len());
            bytes += g.ab.encoded_size();
        }
    }
    (max_tcs, bytes)
}

/// Run the experiment. `smoke` shrinks the total work; the gates are
/// identical in both modes.
pub fn run_e8(smoke: bool) -> Report {
    let total: u64 = if smoke { 3_200 } else { 12_800 };
    let mut rows: Vec<E8Row> = Vec::new();
    for n in [1u16, 2, 4, 8] {
        // Liveness is a timing ratio, so every count keeps its best of
        // three runs.
        let el = best_of(
            3,
            |el: &Duration| -el.as_secs_f64(),
            |_| load_round(n, total).1,
        );
        let tput = ops_per_sec(total, el);
        rows.push(E8Row {
            label: format!("{n} TC{}", if n > 1 { "s" } else { "" }),
            tcs: n,
            txns_per_sec: tput,
            speedup: tput / rows.first().map_or(tput, |r| r.txns_per_sec),
        });
    }

    // Correctness on one more (untimed) four-TC round.
    let (d, _) = load_round(4, total);
    let per_tc = total / 4;
    let at_dc = d
        .dc(DcId(1))
        .engine()
        .dump_table(TABLE)
        .expect("dump")
        .len() as u64;
    let complete = (1..=4u16).all(|i| {
        let tc = d.tc(TcId(i));
        let txn = tc.begin().expect("begin");
        let base = tc_partition_base(i);
        let got = tc
            .scan(
                txn,
                TABLE,
                Key::from_u64(base + 1),
                Some(Key::from_u64(base + per_tc + 1)),
                None,
            )
            .expect("scan");
        tc.commit(txn).expect("commit");
        got.len() as u64 == per_tc
    });
    let reader = d.tc(TcId(1));
    let txn = reader.begin().expect("begin");
    let peek = reader
        .read(
            txn,
            TABLE,
            Key::from_u64(tc_partition_base(2) + 1),
            ReadConsistency::Dirty,
        )
        .expect("cross-TC read");
    reader.commit(txn).expect("commit");

    let speedup4 = find(&rows, "4 TCs").speedup;
    let gates = vec![
        Gate::holds(
            "all partitions fully loaded, no cross-talk",
            complete && at_dc == total,
        ),
        Gate::holds(
            "rows written by one TC are readable from another",
            peek.is_some(),
        ),
        Gate::at_least(
            "no multi-TC collapse: 4-TC throughput vs 1 TC",
            speedup4,
            1.0 / 3.0,
        ),
    ];
    let (max_tcs, ablsn_bytes) = shared_page_ablsns();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = vec![
        ("total_txns", Json::from(total)),
        ("cores", cores.into()),
        ("max_ablsns_per_shared_page", max_tcs.into()),
        ("ablsn_bytes_in_cache", ablsn_bytes.into()),
    ];
    Report::new("e8_multi_tc", smoke, params, &rows, gates)
}
