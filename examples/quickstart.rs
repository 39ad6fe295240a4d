//! Quickstart: one Transactional Component, one Data Component,
//! transactions with crash recovery.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use unbundled::core::{DcId, Key, TableId, TableSpec, TcId};
use unbundled::dc::DcConfig;
use unbundled::kernel::{single, TransportKind};
use unbundled::tc::{ReadConsistency, TcConfig};

fn main() {
    const ACCOUNTS: TableId = TableId(1);

    // A 1×1 deployment over the synchronous (multi-core) transport.
    let deployment = single(
        TcConfig::default(),
        DcConfig::default(),
        TransportKind::Inline,
        &[TableSpec::plain(ACCOUNTS, "accounts")],
    );
    let tc = deployment.tc(TcId(1));

    // A transaction: two inserts, committed atomically.
    let txn = tc.begin().unwrap();
    tc.insert(txn, ACCOUNTS, Key::from_u64(1), b"alice=100".to_vec())
        .unwrap();
    tc.insert(txn, ACCOUNTS, Key::from_u64(2), b"bob=50".to_vec())
        .unwrap();
    tc.commit(txn).unwrap();
    println!("committed two accounts");

    // A transfer that fails mid-way is rolled back: the DC reverts the
    // version the update made, reinstating the committed one beneath.
    let doomed = tc.begin().unwrap();
    tc.update(doomed, ACCOUNTS, Key::from_u64(1), b"alice=0".to_vec())
        .unwrap();
    tc.abort(doomed).unwrap();
    let check = tc.begin().unwrap();
    let alice = tc
        .read(check, ACCOUNTS, Key::from_u64(1), ReadConsistency::Locking)
        .unwrap();
    tc.commit(check).unwrap();
    assert_eq!(alice.as_deref(), Some(&b"alice=100"[..]), "abort reverts");
    println!("aborted transfer rolled back");

    // Crash both components; recovery replays the logical log.
    deployment.crash_all();
    deployment.reboot_all();
    let tc = deployment.tc(TcId(1));
    let txn = tc.begin().unwrap();
    let alice = tc
        .read(txn, ACCOUNTS, Key::from_u64(1), ReadConsistency::Locking)
        .unwrap();
    let bob = tc
        .read(txn, ACCOUNTS, Key::from_u64(2), ReadConsistency::Locking)
        .unwrap();
    tc.commit(txn).unwrap();
    println!(
        "after crash+recovery: alice={:?} bob={:?}",
        String::from_utf8_lossy(&alice.unwrap()),
        String::from_utf8_lossy(&bob.unwrap()),
    );

    let snap = deployment.dc(DcId(1)).engine().stats().snapshot();
    println!(
        "DC stats: {} ops applied, {} duplicates suppressed, {} splits",
        snap.ops_applied, snap.duplicates_suppressed, snap.splits
    );

    // The merged metrics registry decomposes commit latency by stage.
    // Give the log device a realistic 100 µs fsync so the force stage
    // is visible, and run a few transfers to populate the histograms.
    deployment
        .tc_log(TcId(1))
        .set_force_latency(std::time::Duration::from_micros(100));
    for i in 0..20 {
        let txn = tc.begin().unwrap();
        tc.update(
            txn,
            ACCOUNTS,
            Key::from_u64(1 + i % 2),
            format!("balance={i}").into_bytes(),
        )
        .unwrap();
        tc.commit(txn).unwrap();
    }
    let obs = deployment.observe();
    println!(
        "commit-path breakdown over {} commits (p50, µs):",
        obs.histogram("tc.commit_ns").map_or(0, |h| h.count())
    );
    for (label, metric) in [
        ("lock wait", "tc.commit_stage.lock_wait_ns"),
        ("gather wait", "tc.commit_stage.gather_wait_ns"),
        ("log force", "tc.commit_stage.force_ns"),
        ("dc apply", "tc.commit_stage.dc_apply_ns"),
        ("2pc", "tc.commit_stage.twopc_ns"),
        ("end-to-end", "tc.commit_ns"),
    ] {
        let p50 = obs
            .histogram(metric)
            .map_or(0.0, |h| h.p50().as_secs_f64() * 1e6);
        println!("  {label:<12} {p50:>8.1}");
    }
}
