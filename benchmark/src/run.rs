//! One benchmark run: load, warm up, measure a closed-loop window,
//! check the table, run a crash epoch, recover, check again.
//!
//! Closed loop: every client thread calls the public `Tc` API and waits
//! for each reply before its next call. Client 0 reads the counters
//! between two of its own transactions at the window's edges, so with
//! one client the per-transaction counts repeat exactly.

use crate::counters::{peak_rss_mb, Counters, DC, TC};
use crate::spec::{
    balance_of, key, payload, Mix, Scale, Workload, CHECKPOINT_EVERY, INITIAL_BALANCE, KEY_BYTES,
    LOAD_BATCH, PAYLOAD, RECOVERY_REPS, SCAN_LIMIT, STREAM_LEN, TABLE, TRACE_SLICE_MS,
};
use crate::stats::{median, percentile};
use crate::stream::{generate, InsertKeys, Txn};
use crate::trace::{write_jsonl, Name, Tracer};
use crate::{ledger, Metric};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{Key, ReadConsistency, TableSpec, TcError};
use unbundled_dc::DcConfig;
use unbundled_kernel::deployment::{single, Deployment, TransportKind};
use unbundled_tc::{DcLink, Tc, TcConfig};

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Every oracle held.
    pub correct: bool,
    /// Transactions attempted in the window and the crash epoch.
    pub attempted: u64,
    pub failed: u64,
    pub threads: usize,
    /// Run at `Scale::SMOKE`: sizes and timings are not the benchmark's.
    pub smoke: bool,
    /// The end-to-end metrics of an untraced run, or the per-layer
    /// metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// What the oracles found wrong; empty on a correct run.
    pub violations: Vec<String>,
    /// The first few failed operations (counted in `failed`).
    pub errors: Vec<String>,
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A `kernel::single` deployment under the fixed flush policy:
/// `TcConfig::default()` (`group_commit: None`: one force and one
/// EOSL+LWM broadcast per write commit) and zero device latency.
/// Always wired `Inline` here; [`load`] switches `Queued` workloads over.
pub fn deploy(w: &Workload, scale: &Scale) -> Deployment {
    let dc_cfg = DcConfig {
        pool_capacity: if w.bounded_pool {
            scale.cold_pool_pages
        } else {
            0
        },
        ..DcConfig::default()
    };
    single(
        TcConfig::default(),
        dc_cfg,
        TransportKind::Inline,
        &[TableSpec::plain(TABLE, "accounts")],
    )
}

/// Insert every row through the `Tc` API, then checkpoint so the table
/// is on disk and the load's log is truncated. A `Queued` workload is
/// connected over its transport only now: 200k channel round trips
/// would make the load five times the measured window, and the load is
/// not what that workload is for.
pub fn load(d: &Deployment, w: &Workload, scale: &Scale) -> Result<(), TcError> {
    let tc = d.tc(TC);
    let mut row = 0;
    while row < scale.rows {
        let t = tc.begin()?;
        for r in row..(row + LOAD_BATCH).min(scale.rows) {
            let k = w.key_of_row(r);
            tc.insert(t, TABLE, key(k), payload(k, INITIAL_BALANCE))?;
        }
        tc.commit(t)?;
        row += LOAD_BATCH;
    }
    tc.checkpoint()?;
    if w.queued {
        // Replaces the TC's link to the DC; a reboot re-makes both links
        // in connection order, so the Queued one stays in force.
        d.connect(TC, DC, w.transport());
    }
    Ok(())
}

struct NullLink;

impl DcLink for NullLink {
    fn send(&self, _msg: unbundled_core::TcToDc) {}
}

/// Stop the Queued worker and free the deployment. The TC's link holds
/// the reply sink, which holds the TC: unhooking the link breaks that
/// cycle, so that repeated set-ups do not pile up in `rss_mb`.
pub fn teardown(d: Deployment) {
    for link in d.queued_links(TC) {
        link.shutdown();
    }
    d.tc(TC).register_dc(DC, Arc::new(NullLink));
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// Why a transaction did not commit.
enum Fail {
    /// The program returned an error: counts as failed.
    Op(String),
    /// The program returned a wrong answer: the run is incorrect.
    Oracle(String),
}

fn op_failed(what: &str, e: TcError) -> Fail {
    Fail::Op(format!("{what}: {e}"))
}

/// What a committed transaction changed (for the crash-epoch model).
enum Effect {
    None,
    Transfer { from: u64, to: u64, delta: i64 },
    Inserted(u64),
}

#[derive(Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    commits: u64,
    /// Commits whose transaction ended in the first half of the window.
    first_half: u64,
    /// Latencies of committed window transactions, ns, by slice kind.
    lat_untraced: Vec<u32>,
    lat_traced: Vec<u32>,
    first_start: Option<Duration>,
    last_end: Duration,
    checkpoint_ns: Vec<u64>,
    /// Acknowledged inserts, all phases.
    inserted: u64,
    pool_pages_peak: usize,
    before: Option<Counters>,
    after: Option<Counters>,
    errors: Vec<String>,
    violations: Vec<String>,
}

struct Client<'a> {
    id: usize,
    w: &'a Workload,
    d: &'a Deployment,
    tc: &'a Tc,
    stream: Vec<Txn>,
    /// Transactions taken from the stream (it wraps at `stream.len()`).
    pos: usize,
    insert_keys: InsertKeys,
    /// Insert keys handed out, acknowledged or not.
    inserts: u64,
    write_commits: &'a AtomicU64,
    tracer: Tracer,
    out: ClientOut,
}

const MAX_NOTES: usize = 8;

impl Client<'_> {
    fn note(&mut self, fail: Fail) {
        let (list, msg) = match fail {
            Fail::Op(msg) => (&mut self.out.errors, msg),
            Fail::Oracle(msg) => (&mut self.out.violations, msg),
        };
        if list.len() < MAX_NOTES {
            list.push(format!("client {}: {msg}", self.id));
        }
    }

    fn next_txn(&mut self) -> Txn {
        let t = self.stream[self.pos % self.stream.len()];
        self.pos += 1;
        t
    }

    /// A point read that must find an intact row; returns its balance.
    fn read_balance(
        &mut self,
        t: unbundled_core::TxnId,
        k: u64,
        how: ReadConsistency,
    ) -> Result<i64, Fail> {
        let tc = self.tc;
        let v = self
            .tracer
            .call(Name::Read, || tc.read(t, TABLE, key(k), how))
            .map_err(|e| op_failed("read", e))?;
        v.as_deref()
            .and_then(|v| balance_of(k, v))
            .ok_or_else(|| Fail::Oracle(format!("row {k} missing or damaged")))
    }

    fn body(&mut self, t: unbundled_core::TxnId, txn: Txn) -> Result<Effect, Fail> {
        let tc = self.tc;
        match txn {
            Txn::Transfer { pair, delta } => {
                let from = self.w.key_of_row(2 * pair as u64);
                let to = self.w.key_of_row(2 * pair as u64 + 1);
                let delta = delta as i64;
                let a = self.read_balance(t, from, ReadConsistency::Locking)?;
                let b = self.read_balance(t, to, ReadConsistency::Locking)?;
                for (k, bal) in [(from, a - delta), (to, b + delta)] {
                    self.tracer
                        .call(Name::Update, || {
                            tc.update(t, TABLE, key(k), payload(k, bal))
                        })
                        .map_err(|e| op_failed("update", e))?;
                }
                Ok(Effect::Transfer { from, to, delta })
            }
            Txn::Snapshot { a, b } => {
                for pair in [a, b] {
                    let k = self.w.key_of_row(2 * pair as u64);
                    let sum = self.read_balance(t, k, ReadConsistency::SNAPSHOT)?
                        + self.read_balance(t, k + self.w.stride, ReadConsistency::SNAPSHOT)?;
                    if sum != 2 * INITIAL_BALANCE {
                        return Err(Fail::Oracle(format!(
                            "torn snapshot: pair {pair} sums to {sum}"
                        )));
                    }
                }
                Ok(Effect::None)
            }
            Txn::Scan { start_row } => {
                let low = key(self.w.key_of_row(start_row as u64));
                let rows = self
                    .tracer
                    .call(Name::Scan, || {
                        tc.scan(t, TABLE, low.clone(), None, Some(SCAN_LIMIT))
                    })
                    .map_err(|e| op_failed("scan", e))?;
                let ordered = rows.windows(2).all(|p| p[0].0 < p[1].0);
                if rows.len() != SCAN_LIMIT || !ordered || rows[0].0 != low {
                    return Err(Fail::Oracle(format!(
                        "scan from row {start_row}: {} rows, ordered={ordered}",
                        rows.len()
                    )));
                }
                Ok(Effect::None)
            }
            Txn::Insert => {
                let k = self.insert_keys.key(self.inserts);
                self.inserts += 1;
                self.tracer
                    .call(Name::Insert, || tc.insert(t, TABLE, key(k), payload(k, 0)))
                    .map_err(|e| op_failed("insert", e))?;
                Ok(Effect::Inserted(k))
            }
        }
    }

    /// Begin, run the body, commit. On an error the transaction is
    /// aborted (the TC may already have rolled it back) and the failure
    /// is noted.
    fn exec(&mut self, txn: Txn) -> Option<Effect> {
        let tc = self.tc;
        let result = self
            .tracer
            .call(Name::Begin, || tc.begin())
            .map_err(|e| op_failed("begin", e))
            .and_then(|t| {
                let effect = self.body(t, txn).inspect_err(|_| {
                    let _ = tc.abort(t);
                })?;
                let commit = if txn.is_write() {
                    Name::Commit
                } else {
                    Name::CommitRo
                };
                self.tracer
                    .call(commit, || tc.commit(t))
                    .map_err(|e| op_failed("commit", e))?;
                Ok(effect)
            });
        match result {
            Ok(effect) => {
                if matches!(effect, Effect::Inserted(_)) {
                    self.out.inserted += 1;
                }
                Some(effect)
            }
            Err(fail) => {
                self.note(fail);
                None
            }
        }
    }

    /// Count-based checkpoint: the client whose write commit crosses a
    /// multiple of `CHECKPOINT_EVERY` checkpoints before its next transaction.
    fn after_write_commit(&mut self, in_window: bool) {
        let n = self.write_commits.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(CHECKPOINT_EVERY) {
            return;
        }
        let tc = self.tc;
        let t0 = Instant::now();
        if let Err(e) = self.tracer.call(Name::Checkpoint, || tc.checkpoint()) {
            self.note(op_failed("checkpoint", e));
        }
        if in_window {
            self.out.checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
        }
        self.sample_pool();
    }

    fn sample_pool(&mut self) {
        let pages = self.d.dc(DC).engine().pool().len();
        self.out.pool_pages_peak = self.out.pool_pages_peak.max(pages);
    }

    /// Warm-up until `w0`, then the measured window until `w1` (offsets
    /// from `epoch`). A transaction belongs to the window if it starts in it.
    fn drive(&mut self, epoch: Instant, w0: Duration, w1: Duration, trace: bool) {
        let mid = w0 + (w1 - w0) / 2;
        loop {
            let mut start = epoch.elapsed();
            if start >= w1 {
                break;
            }
            let in_window = start >= w0;
            if in_window && self.out.first_start.is_none() {
                if self.id == 0 {
                    self.out.before = Some(Counters::read(self.d));
                    self.sample_pool();
                    // The counter read is not part of the window.
                    start = epoch.elapsed();
                }
                self.out.first_start = Some(start);
            }
            self.tracer.on =
                trace && in_window && ((start - w0).as_millis() / TRACE_SLICE_MS) % 2 == 1;
            let txn = self.next_txn();
            self.tracer.open_txn();
            let committed = self.exec(txn).is_some();
            let end = epoch.elapsed();
            self.tracer
                .close_txn(start.as_nanos() as u64, end.as_nanos() as u64);
            if in_window {
                self.out.attempted += 1;
                self.out.last_end = end;
                if committed {
                    self.out.commits += 1;
                    self.out.first_half += u64::from(end < mid);
                    let ns = (end - start).as_nanos().min(u32::MAX as u128) as u32;
                    if self.tracer.on {
                        self.out.lat_traced.push(ns);
                    } else {
                        self.out.lat_untraced.push(ns);
                    }
                } else {
                    self.out.failed += 1;
                }
            }
            if committed && txn.is_write() {
                self.after_write_commit(in_window);
            }
        }
        self.tracer.on = false;
        if self.id == 0 {
            self.sample_pool();
            self.out.after = Some(Counters::read(self.d));
        }
    }
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// The whole table through a locking `Tc::scan`: key → balance. Fails
/// on a key that is not 8 bytes or a payload that is not intact.
fn table_state(tc: &Tc) -> Result<BTreeMap<u64, i64>, String> {
    let t = tc.begin().map_err(|e| format!("begin: {e}"))?;
    let rows = tc
        .scan(t, TABLE, Key::empty(), None, None)
        .map_err(|e| format!("full scan: {e}"))?;
    tc.commit(t).map_err(|e| format!("commit: {e}"))?;
    let mut state = BTreeMap::new();
    for (k, v) in &rows {
        let k = k.as_u64().ok_or("key of wrong length")?;
        let bal = balance_of(k, v).ok_or(format!("row {k} damaged"))?;
        if state.insert(k, bal).is_some() {
            return Err(format!("key {k} returned twice"));
        }
    }
    Ok(state)
}

/// Every loaded pair still sums to its initial total, inserted rows are
/// as written, and the row count is loaded + acknowledged inserts.
fn check_invariants(
    state: &BTreeMap<u64, i64>,
    w: &Workload,
    scale: &Scale,
    inserted: u64,
) -> Result<(), String> {
    let expected = scale.rows + inserted;
    if state.len() as u64 != expected {
        return Err(format!(
            "{} rows, expected {} loaded + {inserted} inserted",
            state.len(),
            scale.rows
        ));
    }
    for pair in 0..scale.pairs() {
        let bal = |row| state.get(&w.key_of_row(row)).copied();
        match (bal(2 * pair), bal(2 * pair + 1)) {
            (Some(a), Some(b)) if a + b == 2 * INITIAL_BALANCE => {}
            other => return Err(format!("pair {pair} is {other:?}")),
        }
    }
    if let Some((k, b)) = state.iter().find(|(k, b)| *k % w.stride != 0 && **b != 0) {
        return Err(format!("inserted row {k} holds {b}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

#[derive(Default)]
struct CrashEpoch {
    attempted: u64,
    failed: u64,
    recovery_ms: f64,
    space_amp: f64,
    redo_resends: f64,
}

/// `checkpoint()`, exactly `crash_txns` more write transactions from
/// client 0's stream, one transaction left open, then `RECOVERY_REPS`
/// times `crash_all()` (drops the unforced log tails and the DC cache)
/// and a timed `reboot_all()`.
/// `model` follows every acknowledged commit.
fn crash_epoch(
    c: &mut Client<'_>,
    model: &mut BTreeMap<u64, i64>,
    scale: &Scale,
) -> Result<CrashEpoch, String> {
    let d = c.d;
    c.tc.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let (mut attempted, mut failed, mut done) = (0, 0, 0);
    while done < scale.crash_txns && attempted < 2 * scale.crash_txns {
        let txn = c.next_txn();
        if !txn.is_write() {
            continue;
        }
        attempted += 1;
        match c.exec(txn) {
            Some(Effect::Transfer { from, to, delta }) => {
                *model.entry(from).or_default() -= delta;
                *model.entry(to).or_default() += delta;
                done += 1;
            }
            Some(Effect::Inserted(k)) => {
                model.insert(k, 0);
                done += 1;
            }
            Some(Effect::None) => unreachable!("write transactions have an effect"),
            None => failed += 1,
        }
    }
    // The open transaction: written, never committed. It must not survive.
    let open = c.tc.begin().map_err(|e| format!("begin: {e}"))?;
    let wrote = if c.w.mix == Mix::ColdScan {
        let k = c.insert_keys.key(c.inserts);
        c.tc.insert(open, TABLE, key(k), payload(k, 0))
    } else {
        c.tc.update(open, TABLE, key(0), payload(0, -1))
    };
    wrote.map_err(|e| format!("open transaction: {e}"))?;

    let user_bytes = (model.len() * (KEY_BYTES + PAYLOAD)) as f64;
    let stored =
        d.dc_disk(DC).total_bytes() as u64 + d.tc_log(TC).live_bytes() + d.dc_log(DC).live_bytes();
    // Each crash drops the DC cache again and no checkpoint intervenes,
    // so every reboot redoes the same epoch: the median steadies a
    // single ~0.1 s measurement.
    let mut recoveries: Vec<f64> = (0..RECOVERY_REPS)
        .map(|_| {
            d.crash_all();
            let t0 = Instant::now();
            d.reboot_all();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Ok(CrashEpoch {
        attempted,
        failed,
        recovery_ms: median(&mut recoveries),
        space_amp: stored as f64 / user_bytes,
        redo_resends: d.tc(TC).stats().snapshot().redo_resends as f64,
    })
}

/// `benchmark/results/` from the checkout root, `results/` from the package.
pub fn results_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/results".into()
    } else {
        "results".into()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(vs: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut v: Vec<u32> = vs.collect();
    v.sort_unstable();
    v
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let (w, scale) = (cfg.workload, &cfg.scale);
    // The program's own spans stay off: layers are measured from outside.
    unbundled_obs::set_spans_enabled(false);
    // Anything wrong outside a window transaction is an oracle failure.
    let mut violations: Vec<String> = Vec::new();

    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..scale.setup_reps.max(1) {
        if let Some(previous) = deployment.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        let d = deploy(w, scale);
        if let Err(e) = load(&d, w, scale) {
            violations.push(format!("load: {e}"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");

    let tc = d.tc(TC);
    let write_commits = AtomicU64::new(0);
    let epoch = Instant::now();
    let mut clients: Vec<Client<'_>> = (0..w.clients)
        .map(|id| Client {
            id,
            w,
            d: &d,
            tc: &tc,
            stream: generate(w, scale, cfg.seed, id, STREAM_LEN),
            pos: 0,
            insert_keys: InsertKeys::new(cfg.seed, scale),
            inserts: 0,
            write_commits: &write_commits,
            tracer: Tracer::new(epoch, id, w.clients),
            out: ClientOut::default(),
        })
        .collect();
    let w0 = epoch.elapsed() + Duration::from_secs_f64(scale.warmup_s);
    let w1 = w0 + Duration::from_secs_f64(cfg.seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(epoch, w0, w1, cfg.trace)))
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });

    // Oracle 1: the table after the window.
    let inserted: u64 = clients.iter().map(|c| c.out.inserted).sum();
    let mut model = match table_state(&tc) {
        Ok(state) => {
            violations.extend(check_invariants(&state, w, scale, inserted).err());
            state
        }
        Err(e) => {
            violations.push(e);
            BTreeMap::new()
        }
    };

    // Crash epoch, then oracle 2: the recovered table equals the model.
    let crash = match crash_epoch(&mut clients[0], &mut model, scale) {
        Ok(c) => {
            match table_state(&d.tc(TC)) {
                Ok(state) if state == model => {}
                Ok(state) => violations.push(format!(
                    "recovered table differs from acknowledged commits ({} rows vs {})",
                    state.len(),
                    model.len()
                )),
                Err(e) => violations.push(e),
            }
            c
        }
        Err(e) => {
            violations.push(format!("crash epoch: {e}"));
            CrashEpoch::default()
        }
    };

    // ---- Metrics.
    let outs: Vec<&ClientOut> = clients.iter().map(|c| &c.out).collect();
    let window = Window {
        lat: sorted(outs.iter().flat_map(|o| o.lat_untraced.iter().copied())),
        delta: match (&outs[0].before, &outs[0].after) {
            (Some(b), Some(a)) => a.since(b),
            _ => Counters::default(),
        },
        tracers: clients.iter().map(|c| &c.tracer).collect(),
        outs,
    };
    let attempted = window.sum(|o| o.attempted) + crash.attempted;
    let failed = window.sum(|o| o.failed) + crash.failed;
    let mut metrics = if cfg.trace {
        window.per_layer(&crash)
    } else {
        let commit_frac = ratio((attempted - failed) as f64, attempted as f64);
        window.end_to_end(&crash, median(&mut setups), commit_frac)
    };

    let mut errors = Vec::new();
    for c in &mut clients {
        violations.append(&mut c.out.violations);
        errors.append(&mut c.out.errors);
    }
    if cfg.trace && cfg.seed == 1 {
        let path = results_dir().join(format!("spans.{}.{}.jsonl", w.name, cfg.seed));
        let tracers: Vec<Tracer> = clients.into_iter().map(|c| c.tracer).collect();
        if let Err(e) = write_jsonl(&path, &tracers) {
            errors.push(format!("could not write {}: {e}", path.display()));
        }
    } else {
        drop(clients);
    }
    drop(tc);
    teardown(d);

    if cfg.trace {
        metrics.extend(ledger::run(scale, scale.ledger_loop_s));
    }

    RunResult {
        workload: w.name,
        seed: cfg.seed,
        trace: cfg.trace,
        correct: violations.is_empty(),
        attempted,
        failed,
        threads: w.busy_threads(),
        smoke: scale.rows != Scale::FULL.rows,
        metrics,
        violations,
        errors,
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// What the measured window left behind, read-only.
struct Window<'a> {
    outs: Vec<&'a ClientOut>,
    tracers: Vec<&'a Tracer>,
    /// Counter deltas between client 0's two reads.
    delta: Counters,
    /// Latencies of committed, untraced window transactions, ascending, ns.
    lat: Vec<u32>,
}

/// `name` = (sum of the counters' deltas) x `scale` / commits.
const PER_TXN: &[(&str, &[&str], f64, &str)] = &[
    ("tc.ops_sent_per_txn", &["tc.ops_sent"], 1.0, "count"),
    ("tc.reads_sent_per_txn", &["tc.reads_sent"], 1.0, "count"),
    ("tc.stamps_sent_per_txn", &["tc.stamps_sent"], 1.0, "count"),
    ("tc.resends_per_txn", &["tc.resends"], 1.0, "count"),
    ("tc.aborts_per_txn", &["tc.aborts"], 1.0, "count"),
    (
        "lockmgr.acquired_per_txn",
        &["lockmgr.acquired"],
        1.0,
        "count",
    ),
    ("lockmgr.waits_per_txn", &["lockmgr.waits"], 1.0, "count"),
    (
        "lockmgr.wait_ns_per_txn",
        &["lockmgr.wait_ns.sum"],
        1.0,
        "ns",
    ),
    (
        "storage.forces_per_txn",
        &["tclog.log_forces", "dclog.log_forces"],
        1.0,
        "count",
    ),
    (
        "storage.log_records_per_txn",
        &["tclog.log_records", "dclog.log_records"],
        1.0,
        "count",
    ),
    (
        "storage.tclog_bytes_per_txn",
        &["tclog.log_bytes"],
        1.0,
        "B",
    ),
    (
        "storage.dclog_bytes_per_txn",
        &["dclog.log_bytes"],
        1.0,
        "B",
    ),
    (
        "storage.page_writes_per_txn",
        &["disk.page_writes"],
        1.0,
        "count",
    ),
    (
        "storage.page_reads_per_txn",
        &["disk.page_reads"],
        1.0,
        "count",
    ),
    ("dc.ops_applied_per_txn", &["dc.ops_applied"], 1.0, "count"),
    ("dc.reads_per_txn", &["dc.reads"], 1.0, "count"),
    (
        "dc.duplicates_per_txn",
        &["dc.duplicates_suppressed"],
        1.0,
        "count",
    ),
    ("dc.splits_per_ktxn", &["dc.splits"], 1e3, "count"),
    (
        "dc.consolidations_per_ktxn",
        &["dc.consolidations"],
        1e3,
        "count",
    ),
    ("dc.evictions_per_txn", &["dc.evictions"], 1.0, "count"),
    ("dc.flushes_per_txn", &["dc.flushes"], 1.0, "count"),
    (
        "dc.versions_pruned_per_txn",
        &["dc.versions_pruned"],
        1.0,
        "count",
    ),
    ("kernel.batches_per_txn", &["kernel.batches"], 1.0, "count"),
    ("alloc.count_per_txn", &["alloc.count"], 1.0, "count"),
    ("alloc.bytes_per_txn", &["alloc.bytes"], 1.0, "B"),
];

/// Span-derived medians: the span and the metric it feeds.
const SPAN_NS: [(Name, &str); 7] = [
    (Name::Begin, "tc.begin_ns"),
    (Name::Read, "tc.read_ns"),
    (Name::Update, "tc.update_ns"),
    (Name::Insert, "tc.insert_ns"),
    (Name::Scan, "tc.scan_ns"),
    (Name::Commit, "tc.commit_ns"),
    (Name::CommitRo, "tc.commit_ro_ns"),
];

impl Window<'_> {
    fn sum(&self, f: impl Fn(&ClientOut) -> u64) -> u64 {
        self.outs.iter().map(|o| f(o)).sum()
    }

    /// Counter delta per committed transaction.
    fn per_txn(&self, counters: &[&str]) -> f64 {
        let total: f64 = counters.iter().map(|c| self.delta.get(c)).sum();
        ratio(total, self.delta.get("tc.commits"))
    }

    fn ratio_of(&self, num: &str, den: &str) -> f64 {
        ratio(self.delta.get(num), self.delta.get(den))
    }

    fn lat_us(&self, q: f64) -> f64 {
        percentile(&self.lat, q) as f64 / 1e3
    }

    /// Seconds between a client's first window start and last window end.
    fn elapsed(o: &ClientOut) -> f64 {
        (o.last_end - o.first_start.unwrap_or(o.last_end)).as_secs_f64()
    }

    fn end_to_end(&self, crash: &CrashEpoch, setup_s: f64, commit_frac: f64) -> Vec<Metric> {
        let txn_per_s = self
            .outs
            .iter()
            .map(|o| ratio(o.commits as f64, Self::elapsed(o)))
            .sum();
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("txn_per_s", txn_per_s, "1/s"),
            Metric::new("txn_p50_us", self.lat_us(0.50), "us"),
            Metric::new("cpu_us_per_txn", self.per_txn(&["cpu.seconds"]) * 1e6, "us"),
            Metric::new("commit_frac", commit_frac, "frac"),
            Metric::new(
                "log_bytes_per_txn",
                self.per_txn(&["tclog.log_bytes", "dclog.log_bytes"]),
                "B",
            ),
            Metric::new("space_amp", crash.space_amp, "ratio"),
            Metric::new("rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(&self, crash: &CrashEpoch) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64, unit| out.push(Metric::new(name, value, unit));

        // From the benchmark's own spans.
        for (span, metric) in SPAN_NS {
            let all = sorted(
                self.tracers
                    .iter()
                    .flat_map(|t| t.durations[span as usize].iter().copied()),
            );
            put(metric, percentile(&all, 0.50) as f64, "ns");
        }
        let mut ckpt_ms: Vec<f64> = self
            .outs
            .iter()
            .flat_map(|o| o.checkpoint_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        let ckpt_total_s = ckpt_ms.iter().sum::<f64>() / 1e3;
        let client_s: f64 = self.outs.iter().map(|o| Self::elapsed(o)).sum();
        put("tc.checkpoint_ms", median(&mut ckpt_ms), "ms");
        put("tc.checkpoint_share", ratio(ckpt_total_s, client_s), "frac");
        let self_ns: u64 = self.tracers.iter().map(|t| t.txn_self_ns).sum();
        let total_ns: u64 = self.tracers.iter().map(|t| t.txn_total_ns).sum();
        let traced_txns: usize = self
            .tracers
            .iter()
            .map(|t| t.durations[Name::Txn as usize].len())
            .sum();
        put(
            "bench.span_sum_gap_frac",
            ratio(self_ns as f64, total_ns as f64),
            "frac",
        );
        put(
            "bench.harness_ns_per_txn",
            ratio(self_ns as f64, traced_txns as f64),
            "ns",
        );
        // Transactions per second of transaction time, traced slices
        // against untraced slices of the same window.
        let rate = |pick: fn(&ClientOut) -> &Vec<u32>| {
            let n: usize = self.outs.iter().map(|o| pick(o).len()).sum();
            let ns: f64 = self
                .outs
                .iter()
                .flat_map(|o| pick(o))
                .map(|&x| x as f64)
                .sum();
            ratio(n as f64, ns)
        };
        let (traced, untraced) = (rate(|o| &o.lat_traced), rate(|o| &o.lat_untraced));
        put(
            "obs.trace_overhead_frac",
            if untraced > 0.0 {
                1.0 - traced / untraced
            } else {
                0.0
            },
            "frac",
        );

        // From counter deltas over the window. Histogram sums are rebuilt
        // from rounded means, so a zero stage can come out a hair below zero.
        for (metric, hist) in [
            ("tc.stage_force_ns", "tc.commit_stage.force_ns"),
            ("tc.stage_dc_apply_ns", "tc.commit_stage.dc_apply_ns"),
            ("tc.stage_lock_wait_ns", "tc.commit_stage.lock_wait_ns"),
        ] {
            let mean = self.ratio_of(&format!("{hist}.sum"), &format!("{hist}.count"));
            put(metric, mean.max(0.0), "ns");
        }
        for &(metric, counters, scale, unit) in PER_TXN {
            put(metric, self.per_txn(counters) * scale, unit);
        }
        put(
            "tc.deadlock_aborts",
            self.delta.get("tc.deadlock_aborts"),
            "count",
        );
        put("tc.redo_resends", crash.redo_resends, "count");
        put("recovery_ms", crash.recovery_ms, "ms");
        put(
            "dc.pool_miss_per_op",
            ratio(
                self.delta.get("disk.page_reads"),
                self.delta.get("dc.ops_applied") + self.delta.get("dc.reads"),
            ),
            "frac",
        );
        let pool_peak = self.outs.iter().map(|o| o.pool_pages_peak).max();
        put("dc.pool_pages_peak", pool_peak.unwrap_or(0) as f64, "pages");
        put(
            "kernel.batch_fill",
            self.ratio_of("kernel.batched_ops", "kernel.batches"),
            "count",
        );
        put(
            "kernel.reply_batch_fill",
            self.ratio_of("kernel.reply_batched_ops", "kernel.reply_batches"),
            "count",
        );
        put("bench.txn_p95_us", self.lat_us(0.95), "us");
        put("bench.txn_p99_us", self.lat_us(0.99), "us");
        put("bench.samples", self.lat.len() as f64, "count");
        let (first, total) = (self.sum(|o| o.first_half), self.sum(|o| o.commits));
        put(
            "bench.drift_frac",
            ratio((total - first) as f64 - first as f64, first as f64),
            "frac",
        );
        out
    }
}
