//! The paper's §3–§5 measurements as table-only report cells
//! (`report e2` … `report e10`): counters that wall-clock timing alone
//! cannot show — lock and message counts, log bytes, reset sizes. They
//! have no gates and no smoke mode; the integration tests pin the
//! behaviour, these cells show its shape.

use crate::report::Report;
use crate::{load_tc, unbundled_single, TABLE};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, LogicalOp, Lsn, ReadConsistency, RequestId, TableSpec, TcId};
use unbundled_dc::{DcConfig, DcEngine, ResetMode, SyncPolicy};
use unbundled_kernel::harness::{ops_per_sec, run_concurrent};
use unbundled_kernel::scenarios::MovieSite;
use unbundled_kernel::{FaultModel, TransportKind};
use unbundled_storage::{LogStore, SimDisk};
use unbundled_tc::{RangePartitioner, ScanProtocol, TcConfig};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

crate::row! {
    /// One movie-site workload.
    pub struct MovieRow {
        /// Workload and its footprint.
        pub label: String,
        /// Transactions or queries per second.
        pub ops_per_sec: f64,
        /// Transactions run or rows returned.
        pub items: u64,
    }
}

/// E2 (Figure 2, §6.3): the movie site's W1–W4 — each query touches at
/// most two machines and none needs 2PC.
pub fn run_e2(_smoke: bool) -> Report {
    let site = MovieSite::build(TransportKind::Inline, 500);
    site.seed_movies(100).unwrap();
    site.seed_users(40).unwrap();
    let mut rows = Vec::new();
    let mut timed = |label: &str, ops: u64, f: &mut dyn FnMut() -> u64| {
        let t0 = Instant::now();
        let items = f();
        rows.push(MovieRow {
            label: label.to_string(),
            ops_per_sec: ops_per_sec(ops, t0.elapsed()),
            items,
        });
    };
    timed("W2 add-review (2 DCs, 1 TC, 0 × 2PC)", 1000, &mut || {
        for u in 0..40u64 {
            for m in 0..25u64 {
                site.w2_add_review(u, (m * 7 + u) % 100, b"review body ***")
                    .unwrap();
            }
        }
        1000
    });
    timed("W1 reviews-per-movie (read committed)", 100, &mut || {
        (0..100u64)
            .map(|m| {
                site.w1_reviews_for_movie(m, ReadConsistency::Committed)
                    .unwrap()
                    .len() as u64
            })
            .sum()
    });
    timed("W3 profile update (1 DC)", 40, &mut || {
        for u in 0..40u64 {
            site.w3_update_profile(u, b"bio v2").unwrap();
        }
        40
    });
    timed("W4 reviews-by-user (1 DC, clustered)", 40, &mut || {
        (0..40u64)
            .map(|u| site.w4_reviews_by_user(u).unwrap().len() as u64)
            .sum()
    });
    Report::new("e2_movie_site", false, Vec::new(), &rows, Vec::new())
}

crate::row! {
    /// One (protocol, scan length) cell.
    pub struct ScanRow {
        /// Range-locking protocol.
        pub label: String,
        /// Keys per scan.
        pub scan_len: u64,
        /// Scan transactions per second.
        pub scans_per_sec: f64,
        /// Locks acquired per scan.
        pub locks_per_scan: f64,
        /// Read messages sent per scan.
        pub msgs_per_scan: f64,
    }
}

/// E3 (§3.1): fetch-ahead vs static range locks — range locks need
/// fewer locks but give up concurrency; fetch-ahead pays speculative
/// probe messages per scan.
pub fn run_e3(_smoke: bool) -> Report {
    let mut rows = Vec::new();
    for (name, protocol) in [
        (
            "fetch-ahead (batch 32)",
            ScanProtocol::FetchAhead { batch: 32 },
        ),
        (
            "static ranges (16)",
            ScanProtocol::StaticRanges(Arc::new(RangePartitioner::even_u64(16))),
        ),
        (
            "static ranges (256)",
            ScanProtocol::StaticRanges(Arc::new(RangePartitioner::even_u64(256))),
        ),
    ] {
        for scan_len in [10u64, 100] {
            let cfg = TcConfig {
                scan_protocol: protocol.clone(),
                ..Default::default()
            };
            let d = unbundled_single(TransportKind::Inline, cfg, DcConfig::default());
            let tc = d.tc(TcId(1));
            load_tc(&tc, 0, 1000, 16);
            let (locks0, ..) = tc.lock_manager().stats().snapshot();
            let reads0 = tc.stats().snapshot().reads_sent;
            let iters = 200u64;
            let t0 = Instant::now();
            for i in 0..iters {
                let start = (i * 13) % 800;
                let t = tc.begin().unwrap();
                tc.scan(
                    t,
                    TABLE,
                    Key::from_u64(start),
                    Some(Key::from_u64(start + scan_len)),
                    None,
                )
                .unwrap();
                tc.commit(t).unwrap();
            }
            let el = t0.elapsed();
            let (locks1, ..) = tc.lock_manager().stats().snapshot();
            let reads1 = tc.stats().snapshot().reads_sent;
            rows.push(ScanRow {
                label: name.to_string(),
                scan_len,
                scans_per_sec: ops_per_sec(iters, el),
                locks_per_scan: (locks1 - locks0) as f64 / iters as f64,
                msgs_per_scan: (reads1 - reads0) as f64 / iters as f64,
            });
        }
    }
    Report::new("e3_range_locking", false, Vec::new(), &rows, Vec::new())
}

crate::row! {
    /// The out-of-order run's counters.
    pub struct AbLsnRow {
        /// Transport faults.
        pub label: String,
        /// Operations committed.
        pub committed: u64,
        /// Operations that reached their page out of LSN order.
        pub out_of_order: u64,
        /// Resends by the TC.
        pub resends: u64,
        /// Duplicates the DC suppressed.
        pub duplicates_suppressed: u64,
        /// Operations the DC applied (resent duplicates are not reapplied).
        pub ops_applied: u64,
        /// Rows at the DC.
        pub rows: u64,
        /// What record-level LSNs would cost instead (bytes).
        pub record_lsn_bytes: u64,
        /// Cached pages carrying abLSN state.
        pub pages: u64,
    }
}

/// E4 (§5.1): out-of-order execution — four concurrent clients
/// interleave on the same pages over a lossy, reordering wire, and the
/// abLSN keeps replay exactly-once at a fraction of record-level LSNs'
/// space.
pub fn run_e4(_smoke: bool) -> Report {
    let kind = TransportKind::Queued {
        faults: FaultModel {
            reorder: 0.4,
            loss: 0.1,
            ..Default::default()
        },
        workers: 4,
        batch: 1,
    };
    let cfg = TcConfig {
        resend_interval: Duration::from_millis(3),
        ..Default::default()
    };
    let d = Arc::new(unbundled_single(kind, cfg, DcConfig::default()));
    let n = 1000u64;
    let d2 = d.clone();
    run_concurrent(4, move |i| {
        let tc = d2.tc(TcId(1));
        for j in 0..(n / 4) {
            let k = j * 4 + i as u64; // interleaved keys, same pages
            let t = tc.begin().unwrap();
            tc.insert(t, TABLE, Key::from_u64(k), vec![1; 16]).unwrap();
            tc.commit(t).unwrap();
        }
    });
    let server = d.dc(DcId(1));
    let engine = server.engine();
    let snap = engine.stats().snapshot();
    let rows = engine.dump_table(TABLE).unwrap().len() as u64;
    let row = AbLsnRow {
        label: "4 clients, 10% loss, 40% reorder".to_string(),
        committed: n,
        out_of_order: snap.out_of_order,
        resends: d.tc(TcId(1)).stats().snapshot().resends,
        duplicates_suppressed: snap.duplicates_suppressed,
        ops_applied: snap.ops_applied,
        rows,
        record_lsn_bytes: rows * 8,
        pages: engine.pool().cached_ids().len() as u64,
    };
    Report::new("e4_ablsn", false, Vec::new(), &[row], Vec::new())
}

crate::row! {
    /// One page-sync algorithm.
    pub struct SyncRow {
        /// Sync policy.
        pub label: String,
        /// Pages flushed before any low-water mark arrived.
        pub flushed_without_lwm: u64,
        /// Flushes that had to wait.
        pub flush_waits: u64,
        /// abLSN bytes written into flushed pages.
        pub ablsn_bytes: u64,
        /// Pages flushed once the low-water mark arrived.
        pub flushed_after_lwm: u64,
    }
}

/// E5 (§5.1.2): the three page-sync algorithms. EOSL covers every
/// operation but no low-water mark arrives, so in-sets stay populated:
/// alg. 1 delays the flush, alg. 2 never waits but writes the full
/// abLSN into the page, alg. 3 bounds the written set.
pub fn run_e5(_smoke: bool) -> Report {
    let mut rows = Vec::new();
    for (name, policy) in [
        ("wait-for-lwm", SyncPolicy::WaitForLwm),
        ("full-ablsn", SyncPolicy::FullAbLsn),
        ("bounded(8)", SyncPolicy::Bounded(8)),
    ] {
        let engine = DcEngine::format(
            DcId(1),
            DcConfig {
                sync_policy: policy,
                ..Default::default()
            },
            SimDisk::new(),
            Arc::new(LogStore::new()),
        );
        engine.create_table(TableSpec::plain(TABLE, "t")).unwrap();
        for k in 0..200u64 {
            let op = LogicalOp::Insert {
                table: TABLE,
                key: Key::from_u64(k),
                value: vec![1; 16],
            };
            engine
                .perform(TcId(1), RequestId::Op(Lsn(k + 1)), &op)
                .unwrap();
        }
        engine.handle_eosl(TcId(1), Lsn(200));
        let flushed_without_lwm = engine.flush_all() as u64;
        let flush_waits = engine.stats().snapshot().flush_waits;
        engine.handle_lwm(TcId(1), Lsn(200));
        let flushed_after_lwm = engine.flush_all() as u64;
        rows.push(SyncRow {
            label: name.to_string(),
            flushed_without_lwm,
            flush_waits,
            ablsn_bytes: engine.stats().snapshot().ablsn_bytes_flushed,
            flushed_after_lwm,
        });
    }
    Report::new("e5_page_sync", false, Vec::new(), &rows, Vec::new())
}

crate::row! {
    /// The system-transaction run.
    pub struct SysTxnRow {
        /// Workload.
        pub label: String,
        /// Page splits.
        pub splits: u64,
        /// Page consolidations.
        pub consolidations: u64,
        /// DC-log bytes after the loads.
        pub log_bytes_after_loads: u64,
        /// DC-log bytes after the deletes.
        pub log_bytes_after_deletes: u64,
        /// DC restart (system transactions replayed before TC redo), ms.
        pub restart_ms: f64,
    }
}

/// E6 (§5.2): system transactions — splits under load, consolidations
/// (a physical page image each: "more costly in log space… but page
/// deletes are rare") under mass deletion, then a DC restart that must
/// leave the B-tree well-formed (`check_tree` panics otherwise).
pub fn run_e6(_smoke: bool) -> Report {
    let dc_cfg = DcConfig {
        page_capacity: 512,
        merge_threshold: 128,
        ..Default::default()
    };
    let d = unbundled_single(TransportKind::Inline, TcConfig::default(), dc_cfg);
    let tc = d.tc(TcId(1));
    load_tc(&tc, 0, 800, 24);
    let log_bytes_after_loads = d.dc_log(DcId(1)).live_bytes();
    for k in 0..780u64 {
        let t = tc.begin().unwrap();
        tc.delete(t, TABLE, Key::from_u64(k)).unwrap();
        tc.commit(t).unwrap();
    }
    let snap = d.dc(DcId(1)).engine().stats().snapshot();
    let log_bytes_after_deletes = d.dc_log(DcId(1)).live_bytes();
    d.dc_log(DcId(1)).force();
    d.crash_dc(DcId(1));
    let t0 = Instant::now();
    d.reboot_dc(DcId(1));
    let restart_ms = ms(t0.elapsed());
    d.dc(DcId(1)).engine().check_tree(TABLE);
    let row = SysTxnRow {
        label: "800 loads, 780 deletes".to_string(),
        splits: snap.splits,
        consolidations: snap.consolidations,
        log_bytes_after_loads,
        log_bytes_after_deletes,
        restart_ms,
    };
    Report::new("e6_systxn", false, Vec::new(), &[row], Vec::new())
}

crate::row! {
    /// One crash scenario.
    pub struct RecoveryRow {
        /// Scenario.
        pub label: String,
        /// Operations the TC resent to the rebooted DC.
        pub redo_resends: u64,
        /// Pages the DC reset after a TC crash.
        pub pages_reset: u64,
        /// Records the DC reset after a TC crash.
        pub records_reset: u64,
        /// Reboot wall time, ms.
        pub recovery_ms: f64,
    }
}

/// E7 (§5.3): partial failures — DC recovery work grows with the
/// distance from the last checkpoint; after a TC crash only pages whose
/// abLSN includes post-stable-log operations are reset.
pub fn run_e7(_smoke: bool) -> Report {
    let mut rows = Vec::new();
    for ops in [100u64, 500, 2000] {
        let d = unbundled_single(
            TransportKind::Inline,
            TcConfig::default(),
            DcConfig::default(),
        );
        let tc = d.tc(TcId(1));
        load_tc(&tc, 0, 50, 16);
        tc.checkpoint().unwrap();
        load_tc(&tc, 1000, ops, 16);
        d.crash_dc(DcId(1));
        let before = tc.stats().snapshot().redo_resends;
        let t0 = Instant::now();
        d.reboot_dc(DcId(1));
        rows.push(RecoveryRow {
            label: format!("DC crash, {ops} ops past ckpt"),
            redo_resends: tc.stats().snapshot().redo_resends - before,
            pages_reset: 0,
            records_reset: 0,
            recovery_ms: ms(t0.elapsed()),
        });
    }
    for (name, mode) in [
        ("TC crash, full drop", ResetMode::FullDrop),
        ("TC crash, selective", ResetMode::Selective),
    ] {
        let dc_cfg = DcConfig {
            reset_mode: mode,
            ..Default::default()
        };
        let d = unbundled_single(TransportKind::Inline, TcConfig::default(), dc_cfg);
        let tc = d.tc(TcId(1));
        load_tc(&tc, 0, 500, 16);
        // A lost tail: an uncommitted insert the crash must undo.
        let t = tc.begin().unwrap();
        tc.insert(t, TABLE, Key::from_u64(999_999), vec![1; 16])
            .unwrap();
        d.crash_tc(TcId(1));
        let t0 = Instant::now();
        d.reboot_tc(TcId(1));
        let recovery_ms = ms(t0.elapsed());
        let snap = d.dc(DcId(1)).engine().stats().snapshot();
        rows.push(RecoveryRow {
            label: name.to_string(),
            redo_resends: 0,
            pages_reset: snap.pages_reset,
            records_reset: snap.records_reset,
            recovery_ms,
        });
    }
    Report::new("e7_partial_failure", false, Vec::new(), &rows, Vec::new())
}

crate::row! {
    /// One loss rate.
    pub struct LossRow {
        /// Datagram loss rate.
        pub label: String,
        /// Committed transactions per second.
        pub txns_per_sec: f64,
        /// Resends by the TC.
        pub resends: u64,
        /// Duplicates the DC suppressed.
        pub duplicates: u64,
        /// Rows at the DC (of the 300 committed: exactly once).
        pub rows: u64,
    }
}

/// E10 (§4.2): resend + idempotence under message loss — TC resend and
/// DC idempotence give exactly-once regardless of the loss rate.
pub fn run_e10(_smoke: bool) -> Report {
    let mut rows = Vec::new();
    for loss in [0.0f64, 0.05, 0.1, 0.2, 0.3] {
        let kind = TransportKind::Queued {
            faults: FaultModel {
                loss,
                ..Default::default()
            },
            workers: 4,
            batch: 1,
        };
        let cfg = TcConfig {
            resend_interval: Duration::from_millis(2),
            ..Default::default()
        };
        let d = unbundled_single(kind, cfg, DcConfig::default());
        let tc = d.tc(TcId(1));
        let n = 300u64;
        let t0 = Instant::now();
        load_tc(&tc, 0, n, 16);
        let el = t0.elapsed();
        let engine = d.dc(DcId(1)).engine().clone();
        rows.push(LossRow {
            label: format!("{:.0}% loss", loss * 100.0),
            txns_per_sec: ops_per_sec(n, el),
            resends: tc.stats().snapshot().resends,
            duplicates: engine.stats().snapshot().duplicates_suppressed,
            rows: engine.dump_table(TABLE).unwrap().len() as u64,
        });
    }
    Report::new("e10_contracts", false, Vec::new(), &rows, Vec::new())
}
