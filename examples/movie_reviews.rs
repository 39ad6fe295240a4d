//! The paper's Figure 2 cloud scenario: an online movie site with
//! user-partitioned updating TCs (TC1/TC2), a read-only TC (TC3), and
//! three DCs — Movies/Reviews partitioned by movie on DC1/DC2,
//! Users/MyReviews partitioned by user on DC3.
//!
//! Demonstrates all four workloads (W1–W4), read-committed sharing over
//! versioned data, and that the whole thing runs without any two-phase
//! commit.
//!
//! ```sh
//! cargo run --example movie_reviews
//! ```

use std::time::Instant;
use unbundled::core::ReadConsistency;
use unbundled::kernel::harness::ops_per_sec;
use unbundled::kernel::scenarios::{MovieSite, TC_EVEN};
use unbundled::kernel::TransportKind;

fn main() {
    let site = MovieSite::build(TransportKind::Inline, 500);
    site.seed_movies(100).unwrap();
    site.seed_users(50).unwrap();
    println!("seeded 100 movies, 50 users across 3 DCs / 2 updating TCs");

    // W2: users post reviews (each transaction touches two DCs, no 2PC).
    let start = Instant::now();
    let mut w2 = 0u64;
    for u in 0..50u64 {
        for m in (u % 10)..100u64 {
            if (m + u) % 7 == 0 {
                site.w2_add_review(u, m, format!("user {u} on movie {m}: ★★★★").as_bytes())
                    .unwrap();
                w2 += 1;
            }
        }
    }
    println!(
        "W2: posted {w2} reviews ({:.0} txns/s)",
        ops_per_sec(w2, start.elapsed())
    );

    // W3: profile updates.
    for u in 0..50u64 {
        site.w3_update_profile(u, format!("bio of {u} v2").as_bytes())
            .unwrap();
    }
    println!("W3: updated 50 profiles");

    // W1: all reviews for a movie (read-committed; never blocks).
    let start = Instant::now();
    let mut read = 0u64;
    for m in 0..100u64 {
        read += site
            .w1_reviews_for_movie(m, ReadConsistency::Committed)
            .unwrap()
            .len() as u64;
    }
    println!(
        "W1: read {read} reviews across 100 movies ({:.0} reviews/s, single-DC each)",
        ops_per_sec(read, start.elapsed())
    );

    // W4: all reviews by a user (single MyReviews partition).
    let mine = site.w4_reviews_by_user(7).unwrap();
    println!("W4: user 7 wrote {} reviews", mine.len());

    // Crash the even-user TC mid-flight; the odd TC keeps serving.
    site.deployment.crash_tc(TC_EVEN);
    site.w2_add_review(1, 3, b"posted while TC1 is down")
        .unwrap();
    site.deployment.reboot_tc(TC_EVEN);
    site.w2_add_review(0, 3, b"posted after TC1 recovered")
        .unwrap();
    println!(
        "after TC1 crash+recovery movie 3 has {} reviews",
        site.w1_reviews_for_movie(3, ReadConsistency::Committed)
            .unwrap()
            .len()
    );

    for tc in [
        unbundled::kernel::scenarios::TC_EVEN,
        unbundled::kernel::scenarios::TC_ODD,
    ] {
        let s = site.deployment.tc(tc).stats().snapshot();
        println!(
            "{tc:?}: {} commits, {} ops sent, {} resends",
            s.commits, s.ops_sent, s.resends
        );
    }
}
