//! DC engine integration tests: B-tree structure modifications, the
//! abLSN idempotence machinery, page-sync policies, DC restart and
//! TC-crash reset.

use std::sync::Arc;
use unbundled_core::{
    Key, LogicalOp, Lsn, OpResult, ReadFlavor, RequestId, TableId, TableSpec, TcId,
};
use unbundled_dc::{DcConfig, DcEngine, FlushResult, ResetMode, SyncPolicy};
use unbundled_storage::{LogStore, SimDisk};

const T: TableId = TableId(1);
const TC: TcId = TcId(1);

struct Fixture {
    disk: SimDisk,
    log: Arc<LogStore<unbundled_dc::DcLogRecord>>,
    engine: Arc<DcEngine>,
    next_lsn: u64,
}

impl Fixture {
    fn new(cfg: DcConfig) -> Fixture {
        let disk = SimDisk::new();
        let log = Arc::new(LogStore::new());
        let engine = DcEngine::format(unbundled_core::DcId(1), cfg, disk.clone(), log.clone());
        engine.create_table(TableSpec::plain(T, "t")).unwrap();
        Fixture {
            disk,
            log,
            engine,
            next_lsn: 0,
        }
    }

    fn small_pages() -> DcConfig {
        DcConfig {
            page_capacity: 256,
            merge_threshold: 64,
            ..DcConfig::default()
        }
    }

    fn lsn(&mut self) -> Lsn {
        self.next_lsn += 1;
        Lsn(self.next_lsn)
    }

    /// Insert and immediately mark the op stable/acked (simulating a TC
    /// that forces and acks eagerly), so SMOs are never deferred.
    fn insert(&mut self, k: u64, v: &[u8]) {
        let lsn = self.lsn();
        self.engine
            .perform(
                TC,
                RequestId::Op(lsn),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: v.to_vec(),
                },
            )
            .unwrap();
        self.engine.handle_eosl(TC, lsn);
        self.engine.handle_lwm(TC, lsn);
        // EOSL arrival retries any deferred SMO.
    }

    fn delete(&mut self, k: u64) {
        let lsn = self.lsn();
        self.engine
            .perform(
                TC,
                RequestId::Op(lsn),
                &LogicalOp::Delete {
                    table: T,
                    key: Key::from_u64(k),
                },
            )
            .unwrap();
        self.engine.handle_eosl(TC, lsn);
        self.engine.handle_lwm(TC, lsn);
    }

    fn read(&self, k: u64) -> Option<Vec<u8>> {
        match self
            .engine
            .perform(
                TC,
                RequestId::Read(k),
                &LogicalOp::Read {
                    table: T,
                    key: Key::from_u64(k),
                    flavor: ReadFlavor::Latest,
                },
            )
            .unwrap()
        {
            OpResult::Value(v) => v,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn reboot(&mut self) {
        self.engine.crash_volatile();
        self.engine = DcEngine::recover(
            unbundled_core::DcId(1),
            self.engine.cfg.clone(),
            self.disk.clone(),
            self.log.clone(),
        );
    }
}

#[test]
fn many_inserts_cause_splits_and_stay_searchable() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..500u64 {
        fx.insert(k, format!("value-{k}").as_bytes());
    }
    assert!(
        fx.engine.stats().snapshot().splits > 5,
        "small pages must split"
    );
    fx.engine.check_tree(T);
    for k in (0..500).step_by(7) {
        assert_eq!(fx.read(k), Some(format!("value-{k}").into_bytes()));
    }
    let rows = fx.engine.dump_table(T).unwrap();
    assert_eq!(rows.len(), 500);
}

#[test]
fn random_order_inserts_keep_sorted_order() {
    let mut fx = Fixture::new(Fixture::small_pages());
    let mut keys: Vec<u64> = (0..300).map(|i| (i * 7919) % 1000).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut shuffled = keys.clone();
    // deterministic shuffle
    for i in (1..shuffled.len()).rev() {
        let j = (i * 2654435761) % (i + 1);
        shuffled.swap(i, j);
    }
    for k in shuffled {
        fx.insert(k, b"x");
    }
    fx.engine.check_tree(T);
    let rows = fx.engine.dump_table(T).unwrap();
    let got: Vec<u64> = rows.iter().map(|(k, _)| k.as_u64().unwrap()).collect();
    assert_eq!(got, keys);
}

#[test]
fn deletes_trigger_consolidation() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..400u64 {
        fx.insert(k, b"0123456789abcdef");
    }
    let splits = fx.engine.stats().snapshot().splits;
    assert!(splits > 0);
    for k in 0..390u64 {
        fx.delete(k);
    }
    fx.engine.check_tree(T);
    assert!(
        fx.engine.stats().snapshot().consolidations > 0,
        "mass deletion must consolidate pages"
    );
    let rows = fx.engine.dump_table(T).unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn duplicate_lsn_suppressed_after_split_moves_key() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..200u64 {
        fx.insert(k, b"0123456789");
    }
    // Re-deliver an early operation: its key has long since moved to a
    // different page via splits, but the abLSN was carried along.
    let r = fx
        .engine
        .perform(
            TC,
            RequestId::Op(Lsn(150)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(149),
                value: b"0123456789".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(r, OpResult::Done);
    let snap = fx.engine.stats().snapshot();
    assert!(
        snap.duplicates_suppressed >= 1,
        "resend must be suppressed, got {snap:?}"
    );
    // Value unchanged.
    assert_eq!(fx.read(149), Some(b"0123456789".to_vec()));
}

#[test]
fn out_of_order_delivery_is_exactly_once() {
    let fx = Fixture::new(DcConfig::default());
    // Deliver LSNs out of order: 2 before 1 (different keys — the TC
    // never sends conflicting ops concurrently).
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(2)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(2),
                value: b"b".to_vec(),
            },
        )
        .unwrap();
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
    let snap = fx.engine.stats().snapshot();
    assert_eq!(
        snap.out_of_order, 1,
        "LSN 1 arrived after LSN 2 on the same page"
    );
    // Replays of both are suppressed.
    for l in [1u64, 2] {
        fx.engine
            .perform(
                TC,
                RequestId::Op(Lsn(l)),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(l),
                    value: b"x".to_vec(),
                },
            )
            .unwrap();
    }
    assert_eq!(fx.engine.stats().snapshot().duplicates_suppressed, 2);
    assert_eq!(fx.read(1), Some(b"a".to_vec()));
    assert_eq!(fx.read(2), Some(b"b".to_vec()));
}

#[test]
fn naive_scalar_lsn_would_lose_the_out_of_order_op() {
    // Demonstrates the paper's Section 5.1.1 failure case: with a scalar
    // page LSN, delivering LSN 2 then LSN 1 makes the classic test treat
    // LSN 1 as already applied. The abLSN must not.
    let fx = Fixture::new(DcConfig::default());
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(2)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(2),
                value: b"b".to_vec(),
            },
        )
        .unwrap();
    // abLSN after applying only LSN 2: max_included = 2, but 1 is NOT
    // included — the scalar test (1 <= 2) would wrongly skip it.
    let r = fx
        .engine
        .perform(
            TC,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(r, OpResult::Done);
    assert_eq!(
        fx.engine.stats().snapshot().ops_applied,
        2,
        "both ops must apply"
    );
}

#[test]
fn flush_blocked_until_eosl_covers_page() {
    let fx = Fixture::new(DcConfig::default());
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
    // Find the (single) leaf: it is dirty and uncovered by EOSL.
    let dirty: Vec<_> = fx
        .engine
        .pool()
        .cached_ids()
        .into_iter()
        .filter(|pid| {
            fx.engine
                .pool()
                .get_cached(*pid)
                .map(|a| a.read().dirty)
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(dirty.len(), 1);
    assert_eq!(
        fx.engine.flush_page(dirty[0]),
        FlushResult::NotEligible,
        "WAL/causality gate"
    );
    fx.engine.handle_eosl(TC, Lsn(1));
    assert_eq!(fx.engine.flush_page(dirty[0]), FlushResult::Flushed);
}

#[test]
fn sync_policy_wait_for_lwm_blocks_until_pruned() {
    let cfg = DcConfig {
        sync_policy: SyncPolicy::WaitForLwm,
        ..Default::default()
    };
    let fx = Fixture::new(cfg);
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
    fx.engine.handle_eosl(TC, Lsn(1));
    let pid = fx
        .engine
        .pool()
        .cached_ids()
        .into_iter()
        .find(|p| {
            fx.engine
                .pool()
                .get_cached(*p)
                .map(|a| a.read().dirty)
                .unwrap_or(false)
        })
        .unwrap();
    // EOSL covers the op but the in-set is non-empty: policy 1 refuses.
    assert_eq!(fx.engine.flush_page(pid), FlushResult::NotEligible);
    assert!(fx.engine.stats().snapshot().flush_waits >= 1);
    // LWM catches up → in-set collapses → flush proceeds.
    fx.engine.handle_lwm(TC, Lsn(1));
    assert_eq!(fx.engine.flush_page(pid), FlushResult::Flushed);
}

#[test]
fn sync_policy_full_ablsn_never_waits() {
    let fx = Fixture::new(DcConfig::default()); // FullAbLsn default
    fx.engine
        .perform(
            TC,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"a".to_vec(),
            },
        )
        .unwrap();
    fx.engine.handle_eosl(TC, Lsn(1));
    // No LWM sent: the full abLSN (lw=0, ins=[1]) is written with the page.
    assert_eq!(fx.engine.flush_all(), 1);
    assert_eq!(fx.engine.stats().snapshot().flush_waits, 0);
}

#[test]
fn dc_crash_loses_cache_recovery_replays_systxns() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..300u64 {
        fx.insert(k, format!("v{k}").as_bytes());
    }
    // Make everything stable, then crash and recover.
    fx.log.force();
    assert!(fx.engine.flush_all() > 0);
    let before = fx.engine.snapshot_tables();
    fx.reboot();
    fx.engine.check_tree(T);
    let after = fx.engine.snapshot_tables();
    assert_eq!(
        before, after,
        "recovered state must equal pre-crash stable state"
    );
}

#[test]
fn dc_crash_with_unflushed_pages_recovers_structure_for_redo() {
    // Split happened (systxn logged + forced via consolidation path? No —
    // we force explicitly), pages never flushed: recovery must rebuild
    // the tree from the DC log so TC redo can be re-applied.
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..200u64 {
        fx.insert(k, format!("v{k}").as_bytes());
    }
    fx.log.force(); // systxns stable, data pages NOT flushed
    fx.reboot();
    fx.engine.check_tree(T);
    // The tree shape exists; records on never-flushed pages are missing
    // except those captured in split images. Redo (resends) restores all.
    let mut lsn = 0u64;
    for k in 0..200u64 {
        lsn += 1;
        fx.engine
            .perform(
                TC,
                RequestId::Op(Lsn(lsn)),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: format!("v{k}").into_bytes(),
                },
            )
            .map(|_| ())
            .or_else(|e| match e {
                // replays of ops whose effects survived in images
                unbundled_core::DcError::DuplicateKey(..) => Ok(()),
                other => Err(other),
            })
            .unwrap();
    }
    fx.engine.check_tree(T);
    let rows = fx.engine.dump_table(T).unwrap();
    assert_eq!(rows.len(), 200);
    for (k, v) in rows {
        assert_eq!(v, format!("v{}", k.as_u64().unwrap()).into_bytes());
    }
}

#[test]
fn tc_crash_reset_drops_exactly_lost_operations() {
    let mut fx = Fixture::new(DcConfig::default());
    // Stable ops 1..=10.
    for k in 1..=10u64 {
        fx.insert(k, b"stable");
    }
    let stable_end = Lsn(fx.next_lsn);
    // Lost ops (11..): TC will crash before forcing these.
    for k in 11..=15u64 {
        let lsn = fx.lsn();
        fx.engine
            .perform(
                TC,
                RequestId::Op(lsn),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: b"lost".to_vec(),
                },
            )
            .unwrap();
        // no EOSL/LWM: unstable
    }
    let (pages, _recs) = fx.engine.reset_for_tc(TC, stable_end);
    assert!(pages >= 1, "the page with lost ops must be reset");
    // Lost inserts vanished. Stable-but-unflushed ones are *also* gone
    // from the cache (the page reverted to its stable basis) — that is
    // the paper's protocol: redo resend from the RSSP restores them.
    for k in 11..=15u64 {
        assert_eq!(fx.read(k), None, "lost op {k} must be gone");
    }
    // Redo: the TC resends everything on its stable log from the redo
    // scan start point (here: all of 1..=10).
    for k in 1..=10u64 {
        let r = fx
            .engine
            .perform(
                TC,
                RequestId::Op(Lsn(k)),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: b"stable".to_vec(),
                },
            )
            .unwrap();
        assert_eq!(r, OpResult::Done);
    }
    for k in 1..=10u64 {
        assert_eq!(fx.read(k), Some(b"stable".to_vec()));
    }
    // The abLSN no longer claims the lost LSNs: new ops reuse them.
    for k in 11..=12u64 {
        let r = fx
            .engine
            .perform(
                TC,
                RequestId::Op(Lsn(stable_end.0 + k - 10)),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: b"redo".to_vec(),
                },
            )
            .unwrap();
        assert_eq!(r, OpResult::Done);
        assert_eq!(fx.read(k), Some(b"redo".to_vec()));
    }
}

#[test]
fn selective_reset_preserves_other_tcs_records() {
    let cfg = DcConfig {
        reset_mode: ResetMode::Selective,
        ..Default::default()
    };
    let fx = Fixture::new(cfg);
    let tc1 = TcId(1);
    let tc2 = TcId(2);
    // TC1 (stable) and TC2 (stable prefix) interleave on one page.
    fx.engine
        .perform(
            tc1,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(1),
                value: b"tc1".to_vec(),
            },
        )
        .unwrap();
    fx.engine.handle_eosl(tc1, Lsn(1));
    fx.engine
        .perform(
            tc2,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(100),
                value: b"tc2-stable".to_vec(),
            },
        )
        .unwrap();
    fx.engine.handle_eosl(tc2, Lsn(1));
    // TC2 loses this one (never forced):
    fx.engine
        .perform(
            tc2,
            RequestId::Op(Lsn(2)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(101),
                value: b"tc2-lost".to_vec(),
            },
        )
        .unwrap();
    let (pages, _) = fx.engine.reset_for_tc(tc2, Lsn(1));
    assert_eq!(pages, 1);
    // TC1's cached (unflushed!) record survives selective reset.
    let r1 = fx
        .engine
        .perform(
            tc1,
            RequestId::Read(1),
            &LogicalOp::Read {
                table: T,
                key: Key::from_u64(1),
                flavor: ReadFlavor::Latest,
            },
        )
        .unwrap();
    assert_eq!(r1, OpResult::Value(Some(b"tc1".to_vec())));
    // TC2's lost record is gone…
    let r2 = fx
        .engine
        .perform(
            tc2,
            RequestId::Read(2),
            &LogicalOp::Read {
                table: T,
                key: Key::from_u64(101),
                flavor: ReadFlavor::Latest,
            },
        )
        .unwrap();
    assert_eq!(r2, OpResult::Value(None));
    // …but wait: TC2's *stable* record was never flushed either. It must
    // survive the reset (only ops beyond the stable log are lost).
    let r3 = fx
        .engine
        .perform(
            tc2,
            RequestId::Read(3),
            &LogicalOp::Read {
                table: T,
                key: Key::from_u64(100),
                flavor: ReadFlavor::Latest,
            },
        )
        .unwrap();
    assert_eq!(
        r3,
        OpResult::Value(None),
        "stable-but-unflushed records need redo resend"
    );
    // The TC re-sends it during redo (it is on the stable log):
    let r4 = fx
        .engine
        .perform(
            tc2,
            RequestId::Op(Lsn(1)),
            &LogicalOp::Insert {
                table: T,
                key: Key::from_u64(100),
                value: b"tc2-stable".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(r4, OpResult::Done);
}

#[test]
fn selective_reset_undoes_a_lost_delete_of_another_tcs_flushed_record() {
    // A delete leaves a tombstone owned by the deleter, so the owner tag
    // alone tells the reset whose lost write it is — even when the
    // record it hides was written, committed and flushed by another TC.
    let cfg = DcConfig {
        reset_mode: ResetMode::Selective,
        ..Default::default()
    };
    let fx = Fixture::new(cfg);
    let tc1 = TcId(1);
    let tc2 = TcId(2);
    let perform = |tc: TcId, lsn: u64, op: LogicalOp| {
        fx.engine.perform(tc, RequestId::Op(Lsn(lsn)), &op).unwrap();
    };
    perform(
        tc1,
        1,
        LogicalOp::Insert {
            table: T,
            key: Key::from_u64(1),
            value: b"tc1".to_vec(),
        },
    );
    perform(
        tc1,
        2,
        LogicalOp::StampCommit {
            table: T,
            key: Key::from_u64(1),
            op: Lsn(1),
            commit: Lsn(2),
        },
    );
    fx.engine.handle_eosl(tc1, Lsn(2));
    fx.engine.handle_lwm(tc1, Lsn(2));
    let flushed = fx
        .engine
        .pool()
        .cached_ids()
        .into_iter()
        .filter(|pid| fx.engine.flush_page(*pid) == FlushResult::Flushed)
        .count();
    assert!(flushed > 0, "TC1's commit is on disk");
    // TC2 deletes the record; the delete never reaches TC2's stable log.
    perform(
        tc2,
        1,
        LogicalOp::Delete {
            table: T,
            key: Key::from_u64(1),
        },
    );
    let read = |flavor: ReadFlavor| {
        fx.engine
            .perform(
                tc1,
                RequestId::Read(1),
                &LogicalOp::Read {
                    table: T,
                    key: Key::from_u64(1),
                    flavor,
                },
            )
            .unwrap()
    };
    assert_eq!(read(ReadFlavor::Latest), OpResult::Value(None));
    let (pages, _) = fx.engine.reset_for_tc(tc2, Lsn::NULL);
    assert_eq!(pages, 1);
    for flavor in [ReadFlavor::Latest, ReadFlavor::Committed] {
        assert_eq!(
            read(flavor),
            OpResult::Value(Some(b"tc1".to_vec())),
            "{flavor:?}"
        );
    }
}

#[test]
fn eviction_respects_pool_capacity() {
    let mut cfg = Fixture::small_pages();
    cfg.pool_capacity = 4;
    let mut fx = Fixture::new(cfg);
    for k in 0..300u64 {
        fx.insert(k, b"0123456789abcdef");
    }
    assert!(
        fx.engine.pool().len() <= 6,
        "pool stays near capacity, got {}",
        fx.engine.pool().len()
    );
    assert!(fx.engine.stats().snapshot().evictions > 0);
    // Everything still readable (faulted back in from disk).
    for k in (0..300).step_by(17) {
        assert_eq!(fx.read(k), Some(b"0123456789abcdef".to_vec()));
    }
}

#[test]
fn scans_and_probes() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in (0..100u64).map(|i| i * 2) {
        fx.insert(k, format!("{k}").as_bytes());
    }
    let r = fx
        .engine
        .perform(
            TC,
            RequestId::Read(1),
            &LogicalOp::ScanRange {
                table: T,
                low: Key::from_u64(10),
                high: Some(Key::from_u64(30)),
                limit: None,
                flavor: ReadFlavor::Latest,
            },
        )
        .unwrap();
    match r {
        OpResult::Entries(e) => {
            let keys: Vec<u64> = e.iter().map(|(k, _)| k.as_u64().unwrap()).collect();
            assert_eq!(keys, vec![10, 12, 14, 16, 18, 20, 22, 24, 26, 28]);
        }
        other => panic!("unexpected {other:?}"),
    }
    let r = fx
        .engine
        .perform(
            TC,
            RequestId::Read(2),
            &LogicalOp::ProbeKeys {
                table: T,
                from: Key::from_u64(91),
                count: 3,
            },
        )
        .unwrap();
    match r {
        OpResult::Keys(keys) => {
            let ks: Vec<u64> = keys.iter().map(|k| k.as_u64().unwrap()).collect();
            assert_eq!(ks, vec![92, 94, 96]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn dc_checkpoint_truncates_log_when_clean() {
    let mut fx = Fixture::new(Fixture::small_pages());
    for k in 0..200u64 {
        fx.insert(k, b"0123456789");
    }
    assert!(fx.log.last_seq() > 0);
    assert!(fx.engine.dc_checkpoint());
    assert_eq!(
        fx.log.live_bytes(),
        0,
        "clean cache ⇒ DC log fully truncated"
    );
    // Still recoverable afterwards.
    fx.reboot();
    fx.engine.check_tree(T);
    assert_eq!(fx.engine.dump_table(T).unwrap().len(), 200);
}

#[test]
fn versioned_table_lifecycle() {
    let fx = Fixture::new(DcConfig::default());
    let vt = TableId(9);
    fx.engine
        .create_table(TableSpec::plain(vt, "reviews"))
        .unwrap();
    let owner = TcId(1);
    let reader = TcId(2);
    let key = Key::from_u64(1);
    let mut next_read = 0u64;
    let mut read = |flavor| {
        next_read += 1;
        let op = LogicalOp::Read {
            table: vt,
            key: key.clone(),
            flavor,
        };
        fx.engine
            .perform(reader, RequestId::Read(next_read), &op)
            .unwrap()
            .into_value()
    };
    let write = |lsn, value: &[u8]| {
        let op = LogicalOp::VersionedWrite {
            table: vt,
            key: key.clone(),
            value: value.to_vec(),
        };
        fx.engine
            .perform(owner, RequestId::Op(Lsn(lsn)), &op)
            .unwrap();
    };
    let revert = |lsn, op| {
        let op = LogicalOp::RevertVersion {
            table: vt,
            key: key.clone(),
            op: Lsn(op),
        };
        fx.engine
            .perform(owner, RequestId::Op(Lsn(lsn)), &op)
            .unwrap();
    };
    // Uncommitted insert: invisible to read-committed, visible dirty.
    write(1, b"draft");
    assert_eq!(
        read(ReadFlavor::Committed),
        None,
        "read committed must not see the draft"
    );
    assert_eq!(
        read(ReadFlavor::Latest),
        Some(b"draft".to_vec()),
        "dirty read sees it"
    );
    // Commit: the stamp is the promote.
    fx.engine
        .perform(
            owner,
            RequestId::Op(Lsn(3)),
            &LogicalOp::StampCommit {
                table: vt,
                key: key.clone(),
                op: Lsn(1),
                commit: Lsn(2),
            },
        )
        .unwrap();
    assert_eq!(read(ReadFlavor::Committed), Some(b"draft".to_vec()));
    // Two updates in one transaction + abort: one revert naming the
    // last write restores the committed version; a second revert of
    // the same write finds nothing left to do.
    write(4, b"edit");
    write(5, b"edit again");
    assert_eq!(read(ReadFlavor::Committed), Some(b"draft".to_vec()));
    assert_eq!(read(ReadFlavor::Latest), Some(b"edit again".to_vec()));
    revert(6, 5);
    revert(7, 5);
    assert_eq!(read(ReadFlavor::Committed), Some(b"draft".to_vec()));
    assert_eq!(read(ReadFlavor::Latest), Some(b"draft".to_vec()));
    assert_eq!(
        read(ReadFlavor::Snapshot(Lsn(2))),
        Some(b"draft".to_vec()),
        "the restored version keeps its commit LSN"
    );
    // Aborted insert: the revert removes the record outright.
    let other = Key::from_u64(2);
    let insert = LogicalOp::VersionedWrite {
        table: vt,
        key: other.clone(),
        value: b"oops".to_vec(),
    };
    fx.engine
        .perform(owner, RequestId::Op(Lsn(8)), &insert)
        .unwrap();
    let undo = LogicalOp::RevertVersion {
        table: vt,
        key: other.clone(),
        op: Lsn(8),
    };
    fx.engine
        .perform(owner, RequestId::Op(Lsn(9)), &undo)
        .unwrap();
    let probe = LogicalOp::ProbeKeys {
        table: vt,
        from: Key::empty(),
        count: 8,
    };
    assert_eq!(
        fx.engine
            .perform(reader, RequestId::Read(0), &probe)
            .unwrap()
            .into_keys(),
        vec![key.clone()],
        "no tombstone left behind"
    );
}

#[test]
fn smo_deferred_until_eosl_covers_page() {
    let mut cfg = Fixture::small_pages();
    cfg.page_capacity = 128;
    let fx = Fixture::new(cfg);
    // Insert enough to overflow, but never advance EOSL: the split must
    // be deferred (elastic page) because its image would capture
    // unstable operations.
    let mut lsn = 0u64;
    for k in 0..40u64 {
        lsn += 1;
        fx.engine
            .perform(
                TC,
                RequestId::Op(Lsn(lsn)),
                &LogicalOp::Insert {
                    table: T,
                    key: Key::from_u64(k),
                    value: b"0123456789".to_vec(),
                },
            )
            .unwrap();
    }
    assert_eq!(
        fx.engine.stats().snapshot().splits,
        0,
        "split must wait for EOSL"
    );
    // EOSL arrives → deferred SMO executes.
    fx.engine.handle_eosl(TC, Lsn(lsn));
    assert!(
        fx.engine.stats().snapshot().splits > 0,
        "EOSL must release the deferred split"
    );
    fx.engine.check_tree(T);
}
