//! The isolation ledger: each layer's public functions called directly,
//! one thread, against a table of the benchmark's size where size
//! matters. `ledger.sum_ns` prices one pair transfer from these costs
//! and the transfer's own per-transaction counts; `ledger.gap_frac`
//! says how much of the measured transfer that leaves unexplained.

use crate::counters::{Counters, DC, TC};
use crate::run::{deploy, load, teardown};
use crate::spec::{key, payload, Scale, INITIAL_BALANCE, LOAD_BATCH, TABLE, WORKLOADS};
use crate::Metric;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::codec::{Decoder, Encoder};
use unbundled_core::{
    DataComponentApi, DcId, DcToTc, LogicalOp, Lsn, OpResult, PageId, ReadConsistency, ReadFlavor,
    RequestId, SnapshotSpec, StoredRecord, TableSpec, TcToDc,
};
use unbundled_dc::{DcConfig, DcEngine, FlushResult, PageData};
use unbundled_kernel::{DcSlot, Deployment, FaultModel, InlineLink, QueuedLink, ReplySink};
use unbundled_lockmgr::{LockManager, LockMode, LockName, LockToken};
use unbundled_monolith::{Monolith, MonolithConfig};
use unbundled_storage::{GatherWindow, LogStore, SimDisk};
use unbundled_tc::{DcLink, TableRoute, Tc, TcConfig};

/// Mean ns per call of `f` over about `budget`; the clock is read once
/// per 32 calls, so this suits calls far shorter than a clock read.
fn per_call(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    f(0); // untimed: first-call effects (cold caches, lazy set-up)
    let t0 = Instant::now();
    let mut n = 0u64;
    loop {
        for _ in 0..32 {
            f(n);
            n += 1;
        }
        if t0.elapsed() >= budget {
            return t0.elapsed().as_nanos() as f64 / n as f64;
        }
    }
}

/// Mean ns per unit where `f` times its own inner part and returns
/// `(time, units)`: for calls that need untimed preparation.
fn per_timed(budget: Duration, mut f: impl FnMut(u64) -> (Duration, u64)) -> f64 {
    f(0); // untimed, as in `per_call`
    let t0 = Instant::now();
    let (mut total, mut units, mut n) = (Duration::ZERO, 0u64, 0u64);
    while t0.elapsed() < budget || units == 0 {
        let (t, u) = f(n);
        total += t;
        units += u;
        n += 1;
    }
    total.as_nanos() as f64 / units as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// A `DcEngine` driven directly, the way a TC would: LSN-numbered
/// mutations, EOSL and LWM published by hand.
struct Engine {
    e: Arc<DcEngine>,
    lsn: u64,
}

impl Engine {
    fn loaded(rows: u64, pool_capacity: usize) -> Engine {
        let cfg = DcConfig {
            pool_capacity,
            ..DcConfig::default()
        };
        let e = DcEngine::format(DC, cfg, SimDisk::new(), Arc::new(LogStore::new()));
        e.create_table(TableSpec::plain(TABLE, "accounts"))
            .expect("create table");
        let mut eng = Engine { e, lsn: 0 };
        for k in 0..rows {
            eng.mutate(LogicalOp::Insert {
                table: TABLE,
                key: key(k),
                value: payload(k, INITIAL_BALANCE),
            });
            if (k + 1) % LOAD_BATCH == 0 {
                eng.publish();
            }
        }
        eng.publish();
        eng.e.flush_all();
        eng
    }

    /// The engine of a TC-loaded deployment whose TC is done: LSNs
    /// continue far above the TC's own.
    fn of(d: &Deployment) -> Engine {
        Engine {
            e: d.dc(DC).engine().clone(),
            lsn: d.tc_log(TC).last_seq() + (1 << 32),
        }
    }

    fn mutate(&mut self, op: LogicalOp) {
        self.lsn += 1;
        self.e
            .perform(TC, RequestId::Op(Lsn(self.lsn)), &op)
            .expect("mutation");
    }

    fn update(&mut self, k: u64) {
        self.mutate(LogicalOp::Update {
            table: TABLE,
            key: key(k),
            value: payload(k, self.lsn as i64),
        });
    }

    fn publish(&self) {
        self.e.handle_eosl(TC, Lsn(self.lsn));
        self.e.handle_lwm(TC, Lsn(self.lsn));
    }

    fn read(&self, i: u64, k: u64) {
        let op = LogicalOp::Read {
            table: TABLE,
            key: key(k),
            flavor: ReadFlavor::Latest,
        };
        black_box(self.e.perform(TC, RequestId::Read(i), &op).expect("read"));
    }

    /// Every cached leaf with its first key.
    fn leaves(&self) -> Vec<(PageId, u64)> {
        let pool = self.e.pool();
        pool.cached_ids()
            .into_iter()
            .filter_map(|pid| {
                let page = pool.get_cached(pid)?;
                let page = page.read();
                match &page.data {
                    PageData::Leaf(entries) => Some((pid, entries.first()?.0.as_u64()?)),
                    PageData::Branch(_) => None,
                }
            })
            .collect()
    }
}

/// A DC that acknowledges every operation without doing it: what is
/// left of a `Perform` round trip is the TC's send path and the link.
struct NoopDc;

impl DataComponentApi for NoopDc {
    fn dc_id(&self) -> DcId {
        DC
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        let ack = || Ok(OpResult::Value(None));
        match msg {
            TcToDc::Perform { tc, req, .. } => out.push(DcToTc::Reply {
                dc: DC,
                tc,
                req,
                result: ack(),
            }),
            TcToDc::PerformBatch { tc, ops } => out.push(DcToTc::ReplyBatch {
                dc: DC,
                tc,
                replies: ops.into_iter().map(|(req, _)| (req, ack())).collect(),
            }),
            _ => {}
        }
    }
}

/// ns per `Tc::read` over a link to [`NoopDc`].
fn hop_ns(budget: Duration, queued: bool) -> f64 {
    let tc = Tc::new(TC, TcConfig::default(), Arc::new(LogStore::new()));
    let slot = DcSlot::new(Arc::new(NoopDc));
    let sink = ReplySink::new(tc.clone());
    let queued_link =
        queued.then(|| QueuedLink::new(slot.clone(), sink.clone(), FaultModel::default(), 1, 16));
    let link: Arc<dyn DcLink> = match &queued_link {
        Some(l) => l.clone(),
        None => InlineLink::new(slot, sink),
    };
    tc.register_dc(DC, link);
    tc.register_table(TABLE, TableRoute::Single(DC));
    let t = tc.begin().expect("begin");
    let how = ReadConsistency::Snapshot(SnapshotSpec::Fresh);
    let ns = per_call(budget, |i| {
        black_box(tc.read(t, TABLE, key(i), how).expect("read"));
    });
    tc.commit(t).expect("commit");
    if let Some(l) = queued_link {
        l.shutdown();
    }
    ns
}

fn transfer_pair(i: u64, pairs: u64) -> (u64, u64) {
    let pair = i.wrapping_mul(2_654_435_761) % pairs;
    (2 * pair, 2 * pair + 1)
}

fn bal(v: Option<Vec<u8>>) -> i64 {
    i64::from_be_bytes(v.expect("row")[..8].try_into().expect("8 bytes"))
}

/// Every ledger metric, each loop run for `loop_s` seconds.
pub fn run(scale: &Scale, loop_s: f64) -> Vec<Metric> {
    let budget = Duration::from_secs_f64(loop_s);
    let rows = scale.rows;
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name, value| out.push(Metric::new(name, value, "ns"));

    // ---- lockmgr
    let locks = LockManager::new();
    let lock_unlock = per_call(budget, |i| {
        let name = LockName::Record(TABLE, key(i % 1024));
        locks
            .lock(LockToken(1), name, LockMode::X, None)
            .expect("uncontended lock");
        locks.unlock_all(LockToken(1));
    });
    put("lockmgr.lock_unlock_ns", lock_unlock);

    // ---- storage
    let log: LogStore<u64> = LogStore::new();
    let append = per_call(budget, |i| {
        let seq = log.append(i, 64);
        if i % 4096 == 4095 {
            log.force();
            log.truncate_prefix(seq);
        }
    });
    put("storage.append_ns", append);
    let force = per_timed(budget, |i| {
        let seq = log.append(i, 64);
        let t = timed(|| log.force());
        log.truncate_prefix(seq);
        (t, 1)
    });
    put("storage.force_ns", force);
    put(
        "storage.group_force_ns",
        per_timed(budget, |i| {
            let seq = log.append(i, 64);
            let t = timed(|| log.group_force(seq, GatherWindow::none(), 1));
            log.truncate_prefix(seq);
            (t, 1)
        }),
    );
    let disk = SimDisk::new();
    put(
        "storage.disk_rw_ns",
        per_call(budget, |i| {
            let pid = PageId(2 + i % 64);
            disk.write_page(pid, vec![i as u8; 4096]);
            black_box(disk.read_page(pid));
        }),
    );

    // ---- dc, table 11x the pool (loaded straight into an engine): stride two
    // leaves ahead so every read lands on a page evicted since its last visit.
    let cold = Engine::loaded(rows, scale.cold_pool_pages);
    put(
        "dc.pool_miss_ns",
        per_call(budget, |i| cold.read(i, i.wrapping_mul(40) % rows)),
    );
    drop(cold);

    // ---- kernel, core, obs, vendor
    let inline_hop = hop_ns(budget, false);
    put("kernel.inline_hop_ns", inline_hop);
    put("kernel.queued_hop_ns", hop_ns(budget, true));
    let rec = StoredRecord::new(payload(7, INITIAL_BALANCE), TC, Lsn(5));
    put(
        "core.record_codec_ns",
        per_call(budget, |_| {
            let mut enc = Encoder::with_capacity(160);
            black_box(&rec).encode(&mut enc);
            let bytes = enc.finish();
            black_box(StoredRecord::decode(&mut Decoder::new(&bytes)).expect("decode"));
        }),
    );
    let span_loop = |_| drop(black_box(unbundled_obs::span1("bench.ledger", "i", 1)));
    put("obs.span_off_ns", per_call(budget, span_loop));
    unbundled_obs::set_spans_enabled(true);
    put("obs.span_on_ns", per_call(budget, span_loop));
    unbundled_obs::set_spans_enabled(false);
    unbundled_obs::clear_spans();
    let mutex = parking_lot::Mutex::new(0u64);
    put("vendor.mutex_ns", per_call(budget, |i| *mutex.lock() += i));
    let (to_echo, echo_in) = crossbeam::channel::unbounded::<u64>();
    let (from_echo, echo_out) = crossbeam::channel::unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_in.recv() {
            if from_echo.send(v).is_err() {
                break;
            }
        }
    });
    put(
        "vendor.channel_rtt_ns",
        per_call(budget, |i| {
            to_echo.send(i).expect("echo thread alive");
            black_box(echo_out.recv().expect("echo thread alive"));
        }),
    );
    drop(to_echo);
    echo.join().expect("echo thread panicked");

    // ---- the same pair transfer, bundled and unbundled, same rows
    let mono = Monolith::new(MonolithConfig::default());
    mono.create_table(TABLE);
    let mut row = 0;
    while row < rows {
        let t = mono.begin();
        for k in row..(row + LOAD_BATCH).min(rows) {
            mono.insert(t, TABLE, key(k), payload(k, INITIAL_BALANCE))
                .expect("load");
        }
        mono.commit(t).expect("load");
        row += LOAD_BATCH;
    }
    mono.checkpoint();
    let monolith_txn = per_call(budget, |i| {
        let (a, b) = transfer_pair(i, rows / 2);
        let t = mono.begin();
        let va = bal(mono.read(t, TABLE, key(a)).expect("read"));
        let vb = bal(mono.read(t, TABLE, key(b)).expect("read"));
        mono.update(t, TABLE, key(a), payload(a, va - 1))
            .expect("update");
        mono.update(t, TABLE, key(b), payload(b, vb + 1))
            .expect("update");
        mono.commit(t).expect("commit");
    });
    put("monolith.txn_ns", monolith_txn);
    drop(mono);

    let w = &WORKLOADS[0];
    let d = deploy(w, scale);
    load(&d, w, scale).expect("load");
    let tc = d.tc(TC);
    put(
        "tc.empty_txn_ns",
        per_call(budget, |_| {
            let t = tc.begin().expect("begin");
            tc.commit(t).expect("commit");
        }),
    );
    put(
        "tc.read_snapshot_ns",
        per_timed(budget, |i| {
            let t = tc.begin().expect("begin");
            let t0 = Instant::now();
            for j in 0..4 {
                let k = (4 * i + j).wrapping_mul(7919) % rows;
                black_box(
                    tc.read(t, TABLE, key(k), ReadConsistency::SNAPSHOT)
                        .expect("read"),
                );
            }
            let took = t0.elapsed();
            tc.commit(t).expect("commit");
            (took, 4)
        }),
    );
    let before = Counters::read(&d);
    let unbundled_txn = per_call(budget, |i| {
        let (a, b) = transfer_pair(i, rows / 2);
        let t = tc.begin().expect("begin");
        let how = ReadConsistency::Locking;
        let va = bal(tc.read(t, TABLE, key(a), how).expect("read"));
        let vb = bal(tc.read(t, TABLE, key(b), how).expect("read"));
        tc.update(t, TABLE, key(a), payload(a, va - 1))
            .expect("update");
        tc.update(t, TABLE, key(b), payload(b, vb + 1))
            .expect("update");
        tc.commit(t).expect("commit");
    });
    let delta = Counters::read(&d).since(&before);
    drop(tc);
    // ---- dc: the engine of that same deployment, now driven directly, so
    // that its pages and records lie in memory as the TC's load left them.
    // (On a table loaded straight into an engine the LWM walk costs half.)
    let mut eng = Engine::of(&d);
    // The first LWM at the far-off LSNs prunes every record's fallback
    // version in one walk; that walk is not the per-commit one.
    eng.publish();
    let perform_read = per_call(budget, |i| eng.read(i, i.wrapping_mul(7919) % rows));
    put("dc.perform_read_ns", perform_read);
    put(
        "dc.perform_scan20_ns",
        per_call(budget, |i| {
            let op = LogicalOp::ScanRange {
                table: TABLE,
                low: key(i.wrapping_mul(7919) % (rows - 20)),
                high: None,
                limit: Some(20),
                flavor: ReadFlavor::Latest,
            };
            black_box(eng.e.perform(TC, RequestId::Read(i), &op).expect("scan"));
        }),
    );
    let handle_eosl = per_call(budget, |_| eng.e.handle_eosl(TC, Lsn(eng.lsn)));
    put("dc.handle_eosl_ns", handle_eosl);
    // One LWM per write commit, after the commit's two updates.
    let handle_lwm = per_timed(budget, |i| {
        let (a, b) = transfer_pair(i, rows / 2);
        eng.update(a);
        eng.update(b);
        eng.e.handle_eosl(TC, Lsn(eng.lsn));
        (timed(|| eng.e.handle_lwm(TC, Lsn(eng.lsn))), 1)
    });
    put("dc.handle_lwm_ns", handle_lwm);
    let leaves = eng.leaves();
    put(
        "dc.flush_page_ns",
        per_timed(budget, |i| {
            let (pid, k) = leaves[i as usize % leaves.len()];
            eng.update(k);
            eng.e.handle_eosl(TC, Lsn(eng.lsn));
            let t0 = Instant::now();
            let flushed = eng.e.flush_page(pid);
            let t = t0.elapsed();
            // A split since `leaves()` may have moved `k`; count flushes only.
            (t, u64::from(flushed == FlushResult::Flushed))
        }),
    );
    // Last on this engine: a second of updates scatters the payloads over
    // the heap, which alone doubles the cost of the LWM walk above.
    let perform_update = per_timed(budget, |i| {
        let t0 = Instant::now();
        eng.update(i.wrapping_mul(7919) % rows);
        let t = t0.elapsed();
        if i % 256 == 255 {
            eng.publish(); // prune the version chains the updates grew
        }
        (t, 1)
    });
    put("dc.perform_update_ns", perform_update);

    drop(eng);
    teardown(d);
    put("ledger.unbundled_txn_ns", unbundled_txn);

    // ---- the sum: per-transaction counts of that loop x isolated costs.
    let per_txn = |name: &str| delta.get(name) / delta.get("tc.commits").max(1.0);
    let forces = per_txn("tclog.log_forces");
    let ops = per_txn("tc.ops_sent");
    let reads = per_txn("tc.reads_sent");
    let sum = per_txn("lockmgr.acquired") * lock_unlock
        + per_txn("tclog.log_records") * append
        + forces * (force + handle_eosl + handle_lwm)
        + (ops + reads) * inline_hop
        + reads * perform_read
        + ops * perform_update;
    put("ledger.sum_ns", sum);
    out.push(Metric::new(
        "ledger.unbundling_ratio",
        unbundled_txn / monolith_txn,
        "ratio",
    ));
    out.push(Metric::new(
        "ledger.gap_frac",
        (sum - unbundled_txn) / unbundled_txn,
        "frac",
    ));
    out
}
