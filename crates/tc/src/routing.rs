//! Routing and range-locking configuration.
//!
//! The TC addresses DCs purely logically: a table is either hosted by a
//! single DC or logically partitioned across several (Figure 2 partitions
//! `Movies`/`Reviews` by `MId` across DC1/DC2 and `Users`/`MyReviews` by
//! `UId` on DC3). Partitioning is by the key's leading `u64` component,
//! which is how all of the paper's example schemas cluster.

use std::sync::Arc;
use unbundled_core::{range_owner, range_owners, route_point, DcId, DcToTc, Key, TcToDc};

/// Transport-facing half: something that can carry a message to a DC.
/// Replies flow back through `Tc::deliver`.
pub trait DcLink: Send + Sync {
    /// Fire-and-forget send (the transport may delay / reorder / drop
    /// `Perform` messages; control messages are reliable).
    fn send(&self, msg: TcToDc);

    /// Run `msg` at the DC on the calling thread and put its replies in
    /// `replies` instead of delivering them through `Tc::deliver`: a
    /// link that is a plain call lets the caller take its reply without
    /// a rendezvous. A link that is not hands the message back unsent
    /// (the default); the caller then sends it and awaits the reply.
    /// A DC that is down yields no reply, like a lost datagram.
    fn call(&self, msg: TcToDc, replies: &mut Vec<DcToTc>) -> Result<(), TcToDc> {
        let _ = replies;
        Err(msg)
    }
}

/// Where a table's records live.
#[derive(Clone)]
pub enum TableRoute {
    /// Entire table on one DC.
    Single(DcId),
    /// Partitioned by the key's leading u64: entry `(upper, dc)` covers
    /// prefixes `< upper`; entries sorted ascending, last must be
    /// `u64::MAX`.
    Partitioned(Arc<Vec<(u64, DcId)>>),
}

impl TableRoute {
    /// DC hosting `key`. Point placement (numeric prefix, or a stable
    /// hash for short keys) is [`route_point`] — the *same* helper the
    /// TC shard map uses, so DC routing and TC sharding can never
    /// disagree about where a non-numeric key lives.
    pub fn dc_for(&self, key: &Key) -> DcId {
        match self {
            TableRoute::Single(dc) => *dc,
            TableRoute::Partitioned(parts) => range_owner(parts, route_point(key)),
        }
    }

    /// Failover rerouting: every range this route maps to `old` now maps
    /// to `new` (the DC promoted in its place).
    pub fn replace_dc(&mut self, old: DcId, new: DcId) {
        match self {
            TableRoute::Single(dc) => {
                if *dc == old {
                    *dc = new;
                }
            }
            TableRoute::Partitioned(parts) => {
                if parts.iter().any(|(_, dc)| *dc == old) {
                    let rewritten: Vec<(u64, DcId)> = parts
                        .iter()
                        .map(|(upper, dc)| (*upper, if *dc == old { new } else { *dc }))
                        .collect();
                    *parts = Arc::new(rewritten);
                }
            }
        }
    }

    /// DCs whose ranges intersect `[low, high)`, in key order. Range
    /// resolution (including the last-partition fallback for inverted
    /// bounds) is shared with the TC shard map via
    /// [`unbundled_core::range_owners`].
    pub fn dcs_for_range(&self, low: &Key, high: Option<&Key>) -> Vec<DcId> {
        match self {
            TableRoute::Single(dc) => vec![*dc],
            TableRoute::Partitioned(parts) => {
                // Scans are byte-ordered, but hashed placement of short
                // keys is not order-preserving — so a bound without a
                // numeric prefix widens the consulted set to *all*
                // partitions (a harmless superset: the DCs filter by the
                // actual byte range).
                match (low.u64_prefix(), high.map(|h| h.u64_prefix())) {
                    (Some(lo), None) => range_owners(parts, lo, u64::MAX),
                    (Some(lo), Some(Some(hi))) => range_owners(parts, lo, hi),
                    _ => range_owners(parts, 0, u64::MAX),
                }
            }
        }
    }
}

/// A static partitioning of a table's key space for the range-lock
/// protocol of Section 3.1 ("Range locks: Introduce explicit range locks
/// that partition the keys of any table").
#[derive(Clone, Debug)]
pub struct RangePartitioner {
    /// Sorted exclusive upper bounds; partition `i` covers
    /// `[bounds[i-1], bounds[i])`, the last partition is open-ended.
    bounds: Vec<Key>,
}

impl RangePartitioner {
    /// Build from sorted exclusive upper bounds (the last partition is
    /// everything at or beyond the final bound).
    pub fn new(bounds: Vec<Key>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        RangePartitioner { bounds }
    }

    /// Evenly partition the `u64` key space into `n` ranges.
    pub fn even_u64(n: u32) -> Self {
        let n = n.max(1) as u64;
        let step = u64::MAX / n;
        let bounds = (1..n).map(|i| Key::from_u64(i * step)).collect();
        RangePartitioner::new(bounds)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.bounds.len() as u32 + 1
    }

    /// The partition containing `key`.
    pub fn partition_of(&self, key: &Key) -> u32 {
        match self.bounds.binary_search(key) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// All partitions intersecting `[low, high)` (`high = None` = +∞).
    pub fn partitions_overlapping(
        &self,
        low: &Key,
        high: Option<&Key>,
    ) -> std::ops::RangeInclusive<u32> {
        let first = self.partition_of(low);
        let last = match high {
            None => self.partitions() - 1,
            Some(h) => {
                // high is exclusive; the partition containing the last
                // relevant key.
                let p = self.partition_of(h);
                // if h is exactly a bound, partition_of gives the next
                // partition, which the range does not touch.
                if self.bounds.binary_search(h).is_ok() && p > 0 {
                    p - 1
                } else {
                    p
                }
            }
        };
        first..=last.max(first)
    }
}

/// Which Section 3.1 protocol guards range scans.
#[derive(Clone)]
pub enum ScanProtocol {
    /// Fetch-ahead: speculative key probes, lock the returned keys (plus
    /// the range-edge key), verify, re-probe on mismatch.
    FetchAhead {
        /// Keys probed (and locked) per round trip.
        batch: usize,
    },
    /// Static range locks over a fixed partitioning of the key space.
    StaticRanges(Arc<RangePartitioner>),
}

impl ScanProtocol {
    /// Default fetch-ahead with a sensible batch.
    pub fn fetch_ahead() -> Self {
        ScanProtocol::FetchAhead { batch: 32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_route() {
        let r = TableRoute::Single(DcId(3));
        assert_eq!(r.dc_for(&Key::from_u64(1)), DcId(3));
        assert_eq!(r.dcs_for_range(&Key::empty(), None), vec![DcId(3)]);
    }

    #[test]
    fn partitioned_route_by_prefix() {
        let r = TableRoute::Partitioned(Arc::new(vec![(100, DcId(1)), (u64::MAX, DcId(2))]));
        assert_eq!(r.dc_for(&Key::from_u64(5)), DcId(1));
        assert_eq!(r.dc_for(&Key::from_pair(99, 7)), DcId(1));
        assert_eq!(r.dc_for(&Key::from_u64(100)), DcId(2));
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(50), Some(&Key::from_u64(150))),
            vec![DcId(1), DcId(2)]
        );
        assert_eq!(r.dcs_for_range(&Key::from_u64(100), None), vec![DcId(2)]);
    }

    #[test]
    fn dcs_for_range_u64_max_boundary_reaches_the_last_partition() {
        let r = TableRoute::Partitioned(Arc::new(vec![
            (100, DcId(1)),
            (1000, DcId(2)),
            (u64::MAX, DcId(3)),
        ]));
        // An explicit u64::MAX high bound must cover every partition the
        // low bound allows, including the open-ended last one.
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(0), Some(&Key::from_u64(u64::MAX))),
            vec![DcId(1), DcId(2), DcId(3)]
        );
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(u64::MAX), Some(&Key::from_u64(u64::MAX))),
            vec![DcId(3)],
            "a degenerate [MAX, MAX) range still routes to the hosting DC"
        );
        // The key exactly at u64::MAX lives in the last partition.
        assert_eq!(r.dc_for(&Key::from_u64(u64::MAX - 1)), DcId(3));
    }

    #[test]
    fn dcs_for_range_open_ended_high_covers_every_partition_from_low() {
        let r = TableRoute::Partitioned(Arc::new(vec![
            (100, DcId(1)),
            (1000, DcId(2)),
            (u64::MAX, DcId(3)),
        ]));
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(0), None),
            vec![DcId(1), DcId(2), DcId(3)]
        );
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(100), None),
            vec![DcId(2), DcId(3)]
        );
        assert_eq!(r.dcs_for_range(&Key::from_u64(5000), None), vec![DcId(3)]);
        // A low bound exactly on a partition edge excludes the partition
        // below the edge.
        assert_eq!(r.dcs_for_range(&Key::from_u64(1000), None), vec![DcId(3)]);
    }

    #[test]
    fn dcs_for_range_inverted_bounds_yield_a_harmless_fallback() {
        let r = TableRoute::Partitioned(Arc::new(vec![(100, DcId(1)), (u64::MAX, DcId(2))]));
        // hi < lo describes an empty range; the router must still return
        // a DC (callers iterate it and read zero rows) rather than an
        // empty set, and must never panic.
        let got = r.dcs_for_range(&Key::from_u64(500), Some(&Key::from_u64(50)));
        assert_eq!(
            got,
            vec![DcId(2)],
            "empty range falls back to the last partition"
        );
        // An inverted range entirely inside one partition degenerates to
        // that partition.
        let got = r.dcs_for_range(&Key::from_u64(80), Some(&Key::from_u64(20)));
        assert_eq!(got, vec![DcId(1)]);
        let single = TableRoute::Single(DcId(7));
        assert_eq!(
            single.dcs_for_range(&Key::from_u64(9), Some(&Key::from_u64(1))),
            vec![DcId(7)]
        );
    }

    #[test]
    fn adjacent_ranges_share_no_keys() {
        // Two partitions meeting at 100: the bound itself belongs to the
        // upper partition, never both — shared-helper semantics the TC
        // shard map relies on for lock safety.
        let r = TableRoute::Partitioned(Arc::new(vec![(100, DcId(1)), (u64::MAX, DcId(2))]));
        assert_eq!(r.dc_for(&Key::from_u64(99)), DcId(1));
        assert_eq!(r.dc_for(&Key::from_u64(100)), DcId(2));
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(0), Some(&Key::from_u64(99))),
            vec![DcId(1)],
            "a high bound strictly below the edge stays in the lower partition"
        );
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(0), Some(&Key::from_u64(100))),
            vec![DcId(1), DcId(2)],
            "a high bound on the edge key consults the partition that owns it"
        );
    }

    #[test]
    fn singleton_range_resolves_to_one_dc() {
        let r = TableRoute::Partitioned(Arc::new(vec![
            (100, DcId(1)),
            (1000, DcId(2)),
            (u64::MAX, DcId(3)),
        ]));
        // A degenerate [k, k] "range" (single point) touches exactly the
        // partition containing k.
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(500), Some(&Key::from_u64(500))),
            vec![DcId(2)]
        );
        assert_eq!(
            r.dcs_for_range(&Key::from_u64(0), Some(&Key::from_u64(0))),
            vec![DcId(1)]
        );
    }

    #[test]
    fn partitioner_assigns_in_order() {
        let p = RangePartitioner::new(vec![Key::from_u64(10), Key::from_u64(20)]);
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.partition_of(&Key::from_u64(5)), 0);
        assert_eq!(p.partition_of(&Key::from_u64(10)), 1);
        assert_eq!(p.partition_of(&Key::from_u64(15)), 1);
        assert_eq!(p.partition_of(&Key::from_u64(25)), 2);
    }

    #[test]
    fn partitions_overlapping_ranges() {
        let p = RangePartitioner::new(vec![Key::from_u64(10), Key::from_u64(20)]);
        assert_eq!(
            p.partitions_overlapping(&Key::from_u64(5), Some(&Key::from_u64(15))),
            0..=1
        );
        assert_eq!(
            p.partitions_overlapping(&Key::from_u64(12), Some(&Key::from_u64(20))),
            1..=1
        );
        assert_eq!(p.partitions_overlapping(&Key::from_u64(0), None), 0..=2);
    }

    #[test]
    fn even_u64_partitioning() {
        let p = RangePartitioner::even_u64(8);
        assert_eq!(p.partitions(), 8);
        assert_eq!(p.partition_of(&Key::from_u64(0)), 0);
        assert_eq!(p.partition_of(&Key::from_u64(u64::MAX)), 7);
    }
}
