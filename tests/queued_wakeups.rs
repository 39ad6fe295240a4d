//! Wake-ups on the queued TC↔DC hop.
//!
//! Both ends of a `Queued` link wait the same way: the DC worker on its
//! inbound channel, and a TC client on the one-message channel its
//! reply lands in. Each spins, then yields, then parks, and a sender
//! notifies only a receiver that is parked. A lost wake-up hangs
//! nothing. On the DC side the client's resend interval fires and the
//! resend goes out. On the TC side the client wakes at its resend
//! deadline and finds the reply waiting. Either way the run only
//! stalls. So these tests count what a stall leaves behind: resends,
//! stale replies, and transfers slower than one resend interval.

use std::time::{Duration, Instant};
use unbundled::core::{Key, TableId, TableSpec, TcId};
use unbundled::dc::DcConfig;
use unbundled::kernel::{single, FaultModel, TransportKind};
use unbundled::tc::{ReadConsistency, Tc, TcConfig};

const T: TableId = TableId(1);
const PAIRS: u64 = 64;
const START: i64 = 1_000;

fn balance(v: Option<Vec<u8>>) -> i64 {
    i64::from_be_bytes(v.expect("row")[..8].try_into().expect("8 bytes"))
}

/// Move one unit from the first row of pair `i` to the second: two
/// locking reads, two updates and a commit, each a synchronous hop.
fn transfer(tc: &Tc, i: u64) {
    let pair = i % PAIRS;
    let (from, to) = (Key::from_u64(2 * pair), Key::from_u64(2 * pair + 1));
    let t = tc.begin().unwrap();
    let a = balance(
        tc.read(t, T, from.clone(), ReadConsistency::Locking)
            .unwrap(),
    );
    let b = balance(tc.read(t, T, to.clone(), ReadConsistency::Locking).unwrap());
    tc.update(t, T, from, (a - 1).to_be_bytes().to_vec())
        .unwrap();
    tc.update(t, T, to, (b + 1).to_be_bytes().to_vec()).unwrap();
    tc.commit(t).unwrap();
}

/// Run `transfers` pair transfers from one client over a one-worker
/// queued link, and check that no wake-up was lost. Every tenth
/// transfer is followed by a pause longer than the spin bound, so the
/// DC worker parks and the next request has to wake it.
fn run(faults: FaultModel, transfers: u64) {
    let kind = TransportKind::Queued {
        faults,
        workers: 1,
        batch: 16,
    };
    let cfg = TcConfig::default();
    let resend = cfg.resend_interval;
    let d = single(cfg, DcConfig::default(), kind, &[TableSpec::plain(T, "t")]);
    let tc = d.tc(TcId(1));
    let t = tc.begin().unwrap();
    for k in 0..2 * PAIRS {
        tc.insert(t, T, Key::from_u64(k), START.to_be_bytes().to_vec())
            .unwrap();
    }
    tc.commit(t).unwrap();
    let mut slow = 0;
    for i in 0..transfers {
        let start = Instant::now();
        transfer(&tc, i);
        if start.elapsed() >= resend {
            slow += 1;
        }
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let t = tc.begin().unwrap();
    let mut total = 0;
    for k in 0..2 * PAIRS {
        total += balance(
            tc.read(t, T, Key::from_u64(k), ReadConsistency::Locking)
                .unwrap(),
        );
    }
    tc.commit(t).unwrap();
    assert_eq!(
        total,
        2 * PAIRS as i64 * START,
        "transfers conserve the sum"
    );
    let s = tc.stats().snapshot();
    assert!(s.ops_sent >= 4 * transfers, "ops sent: {}", s.ops_sent);
    assert_eq!(s.resends, 0, "a resend on a loss-free link");
    assert_eq!(s.stale_replies, 0, "a stale reply on a loss-free link");
    // A reply whose wake-up is lost is taken at the resend deadline.
    assert!(
        slow * 20 <= transfers,
        "{slow} of {transfers} transfers waited a whole resend interval"
    );
}

#[test]
fn fault_free_queued_transfers_lose_no_wake_up() {
    run(FaultModel::default(), 2_000);
}

#[test]
fn a_client_parked_past_the_spin_bound_is_woken_by_its_reply() {
    // Every datagram takes 100 µs each way, so the client has parked
    // by the time each reply arrives.
    let faults = FaultModel {
        delay: Duration::from_micros(100),
        ..FaultModel::default()
    };
    run(faults, 400);
}
