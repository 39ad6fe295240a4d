//! The dirty page table behind TC checkpoints: a checkpoint flushes the
//! pages whose recLSN is below its target and nothing else, finishes
//! beside a live writer in at most two passes, and structure
//! modifications, DC restart and TC-crash reset keep every page that
//! holds unflushed effects in the table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{Key, LogicalOp, Lsn, PageId, RequestId, TableId, TableSpec, TcId};
use unbundled_dc::{DcConfig, DcEngine, DcLogRecord};
use unbundled_storage::{LogStore, SimDisk};

const T: TableId = TableId(1);
const TC: TcId = TcId(1);

fn engine(cfg: DcConfig) -> (Arc<DcEngine>, SimDisk, Arc<LogStore<DcLogRecord>>) {
    let disk = SimDisk::new();
    let log = Arc::new(LogStore::new());
    let e = DcEngine::format(unbundled_core::DcId(1), cfg, disk.clone(), log.clone());
    e.create_table(TableSpec::plain(T, "t")).unwrap();
    (e, disk, log)
}

fn small_pages() -> DcConfig {
    DcConfig {
        page_capacity: 256,
        merge_threshold: 64,
        ..DcConfig::default()
    }
}

fn apply(e: &DcEngine, lsn: u64, op: LogicalOp) {
    e.perform(TC, RequestId::Op(Lsn(lsn)), &op).unwrap();
}

fn put(e: &DcEngine, lsn: u64, k: u64) {
    apply(
        e,
        lsn,
        LogicalOp::VersionedWrite {
            table: T,
            key: Key::from_u64(k),
            value: format!("v{lsn:08}").into_bytes(),
        },
    );
}

/// Publish `lsn` as the TC's stable end and low-water mark.
fn publish(e: &DcEngine, lsn: u64) {
    e.handle_eosl(TC, Lsn(lsn));
    e.handle_lwm(TC, Lsn(lsn));
}

/// Cached leaves that are dirty, with their recLSN for `TC` and the
/// lowest op LSN among their records.
fn dirty_leaves(e: &DcEngine) -> Vec<(PageId, Option<Lsn>, Lsn)> {
    let pool = e.pool();
    pool.cached_ids()
        .into_iter()
        .filter_map(|pid| {
            let arc = pool.get_cached(pid)?;
            let p = arc.read();
            if !p.dirty || !p.is_leaf() || p.leaf_entries().is_empty() {
                return None;
            }
            let rec = p.rec_lsn.iter().find(|(t, _)| *t == TC).map(|(_, l)| *l);
            let lowest = p
                .leaf_entries()
                .iter()
                .map(|(_, r)| r.current_op)
                .min()
                .unwrap();
            Some((pid, rec, lowest))
        })
        .collect()
}

fn passes(e: &DcEngine) -> u64 {
    e.stats().snapshot().checkpoint_passes
}

#[test]
fn a_page_dirtied_only_at_or_above_the_target_is_not_flushed() {
    let (e, _, _) = engine(DcConfig::default());
    for k in 0..400 {
        put(&e, k + 1, k);
        publish(&e, k + 1);
    }
    e.handle_checkpoint(TC, Lsn(401));
    assert_eq!(e.dirty_pages(TC), 0, "the load is on disk");
    // Key 0 and key 399 live on different leaves.
    put(&e, 501, 0);
    put(&e, 510, 399);
    publish(&e, 510);
    let before = e.stats().snapshot().flushes;
    assert_eq!(e.handle_checkpoint(TC, Lsn(505)), Lsn(505));
    assert_eq!(
        e.stats().snapshot().flushes - before,
        1,
        "only the page holding op 501 is below the target"
    );
    let left = dirty_leaves(&e);
    assert_eq!(left.len(), 1);
    assert_eq!(left[0].1, Some(Lsn(510)), "its recLSN is its only op");
    assert_eq!(e.dirty_pages(TC), 1);
}

#[test]
fn splits_and_consolidations_carry_the_rec_lsn() {
    let (e, _, _) = engine(small_pages());
    for k in 0..400 {
        put(&e, k + 1, k);
        publish(&e, k + 1);
    }
    assert!(e.stats().snapshot().splits > 5);
    let dirty = dirty_leaves(&e);
    assert!(dirty.len() > 5);
    for (pid, rec, lowest) in &dirty {
        let rec = rec.unwrap_or_else(|| panic!("split-made page {pid} is not in the table"));
        assert!(rec <= *lowest, "page {pid}: recLSN {rec} above op {lowest}");
    }
    assert_eq!(e.dirty_pages(TC), dirty.len());
    // Mass deletion merges pages; the survivors still carry the recLSN
    // of every record they took in.
    for k in 0..390 {
        apply(
            &e,
            1000 + k,
            LogicalOp::Delete {
                table: T,
                key: Key::from_u64(k),
            },
        );
        publish(&e, 1000 + k);
    }
    assert!(e.stats().snapshot().consolidations > 0);
    for (pid, rec, lowest) in dirty_leaves(&e) {
        let rec = rec.unwrap_or_else(|| panic!("merged page {pid} is not in the table"));
        assert!(rec <= lowest, "page {pid}: recLSN {rec} above op {lowest}");
    }
    assert_eq!(e.handle_checkpoint(TC, Lsn(2000)), Lsn(2000));
    assert!(
        dirty_leaves(&e).is_empty(),
        "the checkpoint reached every page"
    );
    assert_eq!(e.dirty_pages(TC), 0);
}

#[test]
fn a_checkpoint_beside_a_live_writer_takes_at_most_two_passes() {
    let (e, _, _) = engine(DcConfig::default());
    for k in 0..2000 {
        put(&e, k + 1, k);
    }
    publish(&e, 2000);
    e.handle_checkpoint(TC, Lsn(2001));
    // Dirty many pages, all stable.
    for k in 0..2000 {
        put(&e, 2001 + k, (k * 7919) % 2000);
    }
    publish(&e, 4000);
    let next = AtomicU64::new(4001);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The writer keeps applying; it publishes its stable end only
        // every 64 ops, so some pages always hold an unforced op.
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let lsn = next.fetch_add(1, Ordering::Relaxed);
                put(&e, lsn, (lsn * 104_729) % 2000);
                if lsn.is_multiple_of(64) {
                    publish(&e, lsn - 32);
                }
            }
        });
        // Run until some checkpoint met a page the writer kept
        // ineligible (and at least 20 checkpoints).
        for round in 0..500 {
            if round >= 20 && e.stats().snapshot().checkpoint_unflushed > 0 {
                break;
            }
            let target = Lsn(next.load(Ordering::Relaxed));
            let before = passes(&e);
            let t0 = Instant::now();
            let granted = e.handle_checkpoint(TC, target);
            let took = t0.elapsed();
            assert!(passes(&e) - before <= 2, "more than two passes");
            assert!(
                took < Duration::from_millis(500),
                "checkpoint took {took:?}"
            );
            assert!(granted <= target);
            // Everything below the grant is on disk.
            for (pid, rec, _) in dirty_leaves(&e) {
                if let Some(rec) = rec {
                    assert!(
                        rec >= granted,
                        "page {pid} recLSN {rec} under grant {granted}"
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        e.stats().snapshot().checkpoint_unflushed > 0,
        "no checkpoint ever ran beside an unforced write"
    );
}

#[test]
fn dc_restart_enters_replayed_pages_conservatively() {
    let (e, disk, log) = engine(small_pages());
    for k in 0..300 {
        put(&e, k + 1, k);
        publish(&e, k + 1);
    }
    assert!(e.stats().snapshot().splits > 5);
    e.dclog().store().force();
    e.crash_volatile();
    let e = DcEngine::recover(unbundled_core::DcId(1), small_pages(), disk, log);
    let replayed = dirty_leaves(&e);
    assert!(
        !replayed.is_empty(),
        "restart re-dirties pages from logged images"
    );
    for (pid, rec, _) in &replayed {
        assert_eq!(
            *rec,
            Some(Lsn(1)),
            "replayed page {pid} not entered at the lowest LSN"
        );
    }
    // So even a checkpoint to a tiny target flushes them.
    publish(&e, 300);
    assert_eq!(e.handle_checkpoint(TC, Lsn(2)), Lsn(2));
    assert!(dirty_leaves(&e).is_empty());
}

#[test]
fn a_selective_reset_enters_reset_pages_conservatively() {
    let (e, _, _) = engine(DcConfig::default());
    for k in 0..50 {
        put(&e, k + 1, k);
    }
    publish(&e, 50);
    e.handle_checkpoint(TC, Lsn(51));
    // Ops 51..=60 are lost with the TC's unforced tail.
    for k in 0..10 {
        put(&e, 51 + k, k);
    }
    let (pages, _) = e.reset_for_tc(TC, Lsn(50));
    assert!(pages > 0);
    for (pid, rec, _) in dirty_leaves(&e) {
        assert_eq!(
            rec,
            Some(Lsn(1)),
            "reset page {pid} not entered at the lowest LSN"
        );
    }
    assert_eq!(e.handle_checkpoint(TC, Lsn(2)), Lsn(2));
    assert!(dirty_leaves(&e).is_empty());
}
