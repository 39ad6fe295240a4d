//! The paper's cloud sharing scenario (Section 6.3, Figure 2): an online
//! movie site.
//!
//! * `Movies (MId)` and `Reviews (MId, UId)` are partitioned **by movie**
//!   across DC1 and DC2 (clustered access for "all reviews of a movie").
//! * `Users (UId)` and `MyReviews (UId, MId)` are partitioned **by user**
//!   on DC3 (clustered access for "all reviews by a user").
//! * TC1 and TC2 own disjoint user partitions (`UId mod 2`); each has
//!   full update rights over its users' rows in `Users`, `Reviews` and
//!   `MyReviews`. TC3 is a read-only TC serving W1.
//!
//! Workloads:
//! * **W1** — all reviews for a movie (read-committed over versioned
//!   data, or dirty reads; never blocked, never blocking).
//! * **W2** — add a review: one transaction updating `Reviews` (DC1 or
//!   DC2) and `MyReviews` (DC3) — two DCs, one TC, **no two-phase
//!   commit** (the TC's forced commit record is the only commit point).
//! * **W3** — update a user profile.
//! * **W4** — all reviews by a user (single `MyReviews` partition).

use crate::deployment::{Deployment, TransportKind};
use std::sync::Arc;
use unbundled_core::{DcId, Key, ReadConsistency, TableId, TableSpec, TcError, TcId};
use unbundled_dc::DcConfig;
use unbundled_tc::{TableRoute, Tc, TcConfig};

/// `Movies` table id.
pub const MOVIES: TableId = TableId(1);
/// `Reviews` table id (primary key `(MId, UId)`).
pub const REVIEWS: TableId = TableId(2);
/// `Users` table id.
pub const USERS: TableId = TableId(3);
/// `MyReviews` table id (primary key `(UId, MId)` — a physical-schema
/// index holding redundant review copies).
pub const MYREVIEWS: TableId = TableId(4);

/// DC holding movies with `MId <` the partition point.
pub const DC_MOVIES_LOW: DcId = DcId(1);
/// DC holding the upper movie partition.
pub const DC_MOVIES_HIGH: DcId = DcId(2);
/// DC holding user-clustered tables.
pub const DC_USERS: DcId = DcId(3);

/// Updating TC for even users.
pub const TC_EVEN: TcId = TcId(1);
/// Updating TC for odd users.
pub const TC_ODD: TcId = TcId(2);
/// Read-only TC serving W1.
pub const TC_READER: TcId = TcId(3);

/// The assembled Figure 2 deployment.
pub struct MovieSite {
    /// Underlying deployment (crash injection, stats).
    pub deployment: Deployment,
    /// Movie-id partition point between DC1 and DC2.
    pub movie_split: u64,
}

impl MovieSite {
    /// Build the Figure 2 topology. `movie_split` is the MId partition
    /// boundary between DC1 and DC2.
    pub fn build(kind: TransportKind, movie_split: u64) -> MovieSite {
        Self::build_with(kind, movie_split, TcConfig::default(), DcConfig::default())
    }

    /// Build with explicit configurations.
    pub fn build_with(
        kind: TransportKind,
        movie_split: u64,
        tc_cfg: TcConfig,
        dc_cfg: DcConfig,
    ) -> MovieSite {
        let mut d = Deployment::new();
        d.add_dc(DC_MOVIES_LOW, dc_cfg.clone());
        d.add_dc(DC_MOVIES_HIGH, dc_cfg.clone());
        d.add_dc(DC_USERS, dc_cfg);

        // Versioned where TCs share data (read-committed without 2PC);
        // plain where a single TC owns every row.
        for dc in [DC_MOVIES_LOW, DC_MOVIES_HIGH] {
            d.create_table(dc, TableSpec::plain(MOVIES, "movies"));
            d.create_table(dc, TableSpec::plain(REVIEWS, "reviews"));
        }
        d.create_table(DC_USERS, TableSpec::plain(USERS, "users"));
        d.create_table(DC_USERS, TableSpec::plain(MYREVIEWS, "myreviews"));

        let movie_route = TableRoute::Partitioned(Arc::new(vec![
            (movie_split, DC_MOVIES_LOW),
            (u64::MAX, DC_MOVIES_HIGH),
        ]));

        for tc in [TC_EVEN, TC_ODD, TC_READER] {
            d.add_tc(tc, tc_cfg.clone());
            d.connect(tc, DC_MOVIES_LOW, kind.clone());
            d.connect(tc, DC_MOVIES_HIGH, kind.clone());
            d.route(tc, MOVIES, movie_route.clone());
            d.route(tc, REVIEWS, movie_route.clone());
            if tc != TC_READER {
                d.connect(tc, DC_USERS, kind.clone());
                d.route(tc, USERS, TableRoute::Single(DC_USERS));
                d.route(tc, MYREVIEWS, TableRoute::Single(DC_USERS));
            }
        }
        MovieSite {
            deployment: d,
            movie_split,
        }
    }

    /// The updating TC responsible for a user (Figure 2: `UId mod 2`).
    pub fn tc_for_user(&self, uid: u64) -> Arc<Tc> {
        let id = if uid.is_multiple_of(2) {
            TC_EVEN
        } else {
            TC_ODD
        };
        self.deployment.tc(id)
    }

    /// The read-only TC.
    pub fn reader(&self) -> Arc<Tc> {
        self.deployment.tc(TC_READER)
    }

    /// Seed `n_movies` movies (via the updating TCs, transactionally).
    pub fn seed_movies(&self, n_movies: u64) -> Result<(), TcError> {
        let tc = self.deployment.tc(TC_EVEN);
        for m in 0..n_movies {
            let txn = tc.begin()?;
            tc.versioned_write(
                txn,
                MOVIES,
                Key::from_u64(m),
                format!("movie-{m}").into_bytes(),
            )?;
            tc.commit(txn)?;
        }
        Ok(())
    }

    /// Seed `n_users` user profiles.
    pub fn seed_users(&self, n_users: u64) -> Result<(), TcError> {
        for u in 0..n_users {
            let tc = self.tc_for_user(u);
            let txn = tc.begin()?;
            tc.insert(
                txn,
                USERS,
                Key::from_u64(u),
                format!("user-{u}").into_bytes(),
            )?;
            tc.commit(txn)?;
        }
        Ok(())
    }

    /// **W2**: user `uid` posts a review of movie `mid`. One transaction,
    /// two DCs, zero two-phase commits.
    pub fn w2_add_review(&self, uid: u64, mid: u64, text: &[u8]) -> Result<(), TcError> {
        let tc = self.tc_for_user(uid);
        let txn = tc.begin()?;
        tc.versioned_write(txn, REVIEWS, Key::from_pair(mid, uid), text.to_vec())?;
        tc.insert(txn, MYREVIEWS, Key::from_pair(uid, mid), text.to_vec())?;
        tc.commit(txn)
    }

    /// **W3**: user `uid` updates their profile.
    pub fn w3_update_profile(&self, uid: u64, profile: &[u8]) -> Result<(), TcError> {
        let tc = self.tc_for_user(uid);
        let txn = tc.begin()?;
        tc.update(txn, USERS, Key::from_u64(uid), profile.to_vec())?;
        tc.commit(txn)
    }

    /// **W1**: all reviews for movie `mid`, via the read-only TC.
    /// `how` picks the read level — [`ReadConsistency::Committed`] or
    /// [`ReadConsistency::Dirty`] (Section 6.2). The transaction logs
    /// nothing. Clustering guarantees the query touches exactly one DC.
    pub fn w1_reviews_for_movie(
        &self,
        mid: u64,
        how: ReadConsistency,
    ) -> Result<Vec<(u64, Vec<u8>)>, TcError> {
        let reader = self.reader();
        let low = Key::from_pair(mid, 0);
        let high = Key::from_pair(mid, u64::MAX);
        let txn = reader.begin()?;
        let rows = reader.scan_with(txn, REVIEWS, low, Some(high), None, how)?;
        reader.commit(txn)?;
        Ok(rows
            .into_iter()
            .map(|(k, v)| (k.as_pair().expect("review key").1, v))
            .collect())
    }

    /// **W4**: all reviews written by `uid` (owning TC, single
    /// `MyReviews` partition, serializable scan).
    pub fn w4_reviews_by_user(&self, uid: u64) -> Result<Vec<(u64, Vec<u8>)>, TcError> {
        let tc = self.tc_for_user(uid);
        let txn = tc.begin()?;
        let low = Key::from_pair(uid, 0);
        let high = Key::from_pair(uid, u64::MAX);
        let rows = tc.scan(txn, MYREVIEWS, low, Some(high), None)?;
        tc.commit(txn)?;
        Ok(rows
            .into_iter()
            .map(|(k, v)| (k.as_pair().expect("myreview key").1, v))
            .collect())
    }
}
