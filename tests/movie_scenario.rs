//! The paper's Figure 2 / Section 6.3 cloud scenario, end to end:
//! partitioned TCs and DCs, workloads W1–W4, sharing without 2PC.

use unbundled::core::ReadConsistency;
use unbundled::kernel::scenarios::{MovieSite, DC_MOVIES_LOW, DC_USERS, TC_EVEN, TC_ODD};
use unbundled::kernel::TransportKind;

fn site() -> MovieSite {
    let s = MovieSite::build(TransportKind::Inline, 500);
    s.seed_movies(20).unwrap();
    s.seed_users(10).unwrap();
    s
}

#[test]
fn w2_add_review_spans_two_dcs_without_2pc() {
    let s = site();
    s.w2_add_review(4, 7, b"greatest bridge movie ever")
        .unwrap();
    // The review is clustered with its movie (W1 path, DC1)…
    let reviews = s
        .w1_reviews_for_movie(7, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(reviews.len(), 1);
    assert_eq!(reviews[0].0, 4, "review by user 4");
    // …and with its user (W4 path, DC3).
    let mine = s.w4_reviews_by_user(4).unwrap();
    assert_eq!(mine.len(), 1);
    assert_eq!(mine[0].0, 7, "review of movie 7");
}

#[test]
fn w1_reads_cluster_on_a_single_dc() {
    let s = site();
    for u in 0..6u64 {
        s.w2_add_review(u, 3, format!("review from {u}").as_bytes())
            .unwrap();
    }
    let low_reads_before = s
        .deployment
        .dc(DC_MOVIES_LOW)
        .engine()
        .stats()
        .snapshot()
        .reads;
    let reviews = s
        .w1_reviews_for_movie(3, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(reviews.len(), 6);
    let low_reads_after = s
        .deployment
        .dc(DC_MOVIES_LOW)
        .engine()
        .stats()
        .snapshot()
        .reads;
    assert!(low_reads_after > low_reads_before, "movie 3 lives on DC1");
    // Clustered access: the user DC was not touched by W1.
    let user_dc_reads = s.deployment.dc(DC_USERS).engine().stats().snapshot().reads;
    let before_w1 = user_dc_reads;
    s.w1_reviews_for_movie(3, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(
        s.deployment.dc(DC_USERS).engine().stats().snapshot().reads,
        before_w1,
        "W1 must not touch the user-partitioned DC"
    );
}

#[test]
fn w3_profile_updates_are_partition_local() {
    let s = site();
    s.w3_update_profile(2, b"new bio").unwrap();
    s.w3_update_profile(3, b"other bio").unwrap();
    // Each went through its owning TC.
    assert!(s.deployment.tc(TC_EVEN).stats().snapshot().commits >= 1);
    assert!(s.deployment.tc(TC_ODD).stats().snapshot().commits >= 1);
}

#[test]
fn readers_never_block_on_uncommitted_reviews() {
    let s = site();
    s.w2_add_review(0, 5, b"committed review").unwrap();
    // Open a transaction with a pending (uncommitted) review update.
    let tc = s.tc_for_user(0);
    let txn = tc.begin().unwrap();
    tc.versioned_write(
        txn,
        unbundled::kernel::scenarios::REVIEWS,
        unbundled::core::Key::from_pair(5, 0),
        b"uncommitted edit".to_vec(),
    )
    .unwrap();
    // Read-committed sees the old version, immediately, no blocking.
    let rc = s
        .w1_reviews_for_movie(5, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(rc[0].1, b"committed review".to_vec());
    // Dirty read sees the uncommitted edit (Section 6.2.1).
    let dirty = s.w1_reviews_for_movie(5, ReadConsistency::Dirty).unwrap();
    assert_eq!(dirty[0].1, b"uncommitted edit".to_vec());
    tc.commit(txn).unwrap();
    let rc = s
        .w1_reviews_for_movie(5, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(rc[0].1, b"uncommitted edit".to_vec());
}

#[test]
fn abort_of_review_leaves_no_trace_anywhere() {
    let s = site();
    let tc = s.tc_for_user(2);
    let txn = tc.begin().unwrap();
    tc.versioned_write(
        txn,
        unbundled::kernel::scenarios::REVIEWS,
        unbundled::core::Key::from_pair(9, 2),
        b"doomed".to_vec(),
    )
    .unwrap();
    tc.insert(
        txn,
        unbundled::kernel::scenarios::MYREVIEWS,
        unbundled::core::Key::from_pair(2, 9),
        b"doomed".to_vec(),
    )
    .unwrap();
    tc.abort(txn).unwrap();
    assert!(s
        .w1_reviews_for_movie(9, ReadConsistency::Committed)
        .unwrap()
        .is_empty());
    assert!(s.w4_reviews_by_user(2).unwrap().is_empty());
}

#[test]
fn updating_tc_crash_does_not_disturb_other_tc() {
    let s = site();
    s.w2_add_review(0, 1, b"by even user").unwrap();
    s.w2_add_review(1, 1, b"by odd user").unwrap();
    // TC_EVEN crashes mid-transaction.
    let tc = s.tc_for_user(0);
    let txn = tc.begin().unwrap();
    tc.versioned_write(
        txn,
        unbundled::kernel::scenarios::REVIEWS,
        unbundled::core::Key::from_pair(2, 0),
        b"lost".to_vec(),
    )
    .unwrap();
    s.deployment.crash_tc(TC_EVEN);
    // TC_ODD keeps working while TC_EVEN is down.
    s.w2_add_review(3, 2, b"odd user unaffected").unwrap();
    s.deployment.reboot_tc(TC_EVEN);
    // The lost uncommitted review is gone; all committed ones survive.
    let m1 = s
        .w1_reviews_for_movie(1, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(m1.len(), 2);
    let m2 = s
        .w1_reviews_for_movie(2, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(m2.len(), 1);
    assert_eq!(m2[0].0, 3);
    // And the rebooted TC works again.
    s.w2_add_review(0, 2, b"even user back").unwrap();
    assert_eq!(
        s.w1_reviews_for_movie(2, ReadConsistency::Committed)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn movie_dc_crash_recovers_with_both_writers() {
    let s = site();
    for u in 0..4u64 {
        s.w2_add_review(u, 0, format!("r{u}").as_bytes()).unwrap();
    }
    s.deployment.crash_dc(DC_MOVIES_LOW);
    s.deployment.reboot_dc(DC_MOVIES_LOW);
    let reviews = s
        .w1_reviews_for_movie(0, ReadConsistency::Committed)
        .unwrap();
    assert_eq!(reviews.len(), 4, "all four reviews recovered");
    // Both TCs drove redo on the shared DC.
    assert_eq!(s.deployment.tc(TC_EVEN).stats().snapshot().dc_recoveries, 1);
    assert_eq!(s.deployment.tc(TC_ODD).stats().snapshot().dc_recoveries, 1);
}
