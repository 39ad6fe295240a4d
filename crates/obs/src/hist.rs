//! HDR-style log-linear latency histograms.
//!
//! [`LatencyHistogram`] is the single-threaded accumulator the bench
//! suite has always used (hoisted here so runtime metrics and bench
//! measurements share one tested implementation); [`AtomicHistogram`]
//! is its lock-free runtime sibling: concurrent recorders, snapshot on
//! demand. Both use the same bucket layout, so snapshots merge freely
//! with bench-side histograms.

use crate::stripe::{stripe, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Sub-bucket precision: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantization
/// error at `2^-SUB_BITS` (≈ 3%).
const SUB_BITS: u32 = 5;
/// Bucket count covering the full `u64` nanosecond range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// An HDR-style log-linear latency histogram over `u64` nanoseconds:
/// constant space, ≈3% relative error, mergeable across threads.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        let msb = 63 - (v | 1).leading_zeros();
        if msb < SUB_BITS {
            v as usize
        } else {
            let shift = msb - SUB_BITS + 1;
            ((shift as usize) << SUB_BITS) + ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize
        }
    }

    /// Upper bound of a bucket: every value that maps into the bucket
    /// is ≤ this, so percentile answers never under-report.
    fn bucket_upper(idx: usize) -> u64 {
        let shift = (idx >> SUB_BITS) as u32;
        let sub = (idx & ((1 << SUB_BITS) - 1)) as u128;
        if shift == 0 {
            idx as u64
        } else {
            // The bucket holds values v with v >> shift == sub, i.e.
            // [sub << shift, ((sub + 1) << shift) - 1]; the u128
            // arithmetic keeps the topmost bucket from overflowing.
            (((sub + 1) << shift) - 1) as u64
        }
    }

    /// Record one latency.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.record_ns(ns);
    }

    /// Record one latency given directly in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one (commutative and
    /// associative — worker threads record privately and merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean of the recorded latencies.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// The latency at quantile `q` (0 < q ≤ 1): an upper bound within
    /// the histogram's ≈3% quantization error, and never above the
    /// recorded maximum. Zero if nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_nanos(Self::bucket_upper(idx).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// A lock-free histogram with the same bucket layout as
/// [`LatencyHistogram`]: any number of threads record concurrently,
/// readers take a [`AtomicHistogram::snapshot`].
///
/// Recording is striped per thread ([`crate::stripe`]): a thread
/// updates only its own stripe's buckets, count, sum and max, so
/// threads recording the same metric never write a shared cache line.
/// A stripe is allocated on its first record; a snapshot merges the
/// stripes.
///
/// Snapshot consistency is best-effort: the per-bucket counts, total
/// and sum are loaded in one pass but not atomically as a set, so a
/// snapshot taken mid-traffic may be off by the records in flight.
/// Each individual counter is exact and monotone.
pub struct AtomicHistogram {
    stripes: [OnceLock<Box<HistStripe>>; STRIPES],
}

/// One thread stripe of an [`AtomicHistogram`].
#[repr(align(128))]
struct HistStripe {
    count: AtomicU64,
    /// Total nanoseconds. `u64` is enough: ~584 years of accumulated
    /// latency before wrap.
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    counts: Box<[AtomicU64]>,
}

impl HistStripe {
    fn new() -> Self {
        HistStripe {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            stripes: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Record one latency.
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one latency given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let s = self.stripes[stripe()].get_or_init(|| Box::new(HistStripe::new()));
        s.counts[LatencyHistogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn live(&self) -> impl Iterator<Item = &HistStripe> {
        self.stripes.iter().filter_map(|s| s.get().map(|b| &**b))
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.live().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    /// Copy the current state into a queryable [`LatencyHistogram`].
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for s in self.live() {
            for (a, c) in out.counts.iter_mut().zip(s.counts.iter()) {
                *a += c.load(Ordering::Relaxed);
            }
            out.count += s.count.load(Ordering::Relaxed);
            out.sum_ns += s.sum_ns.load(Ordering::Relaxed) as u128;
            out.max_ns = out.max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Oracle percentile: nearest-rank on the sorted samples.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn histogram_matches_sorted_vector_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        // A nasty mixture: three orders of magnitude plus heavy ties.
        let mut vals: Vec<u64> = (0..10_000)
            .map(|i| match i % 3 {
                0 => rng.gen_range(1_000..50_000),
                1 => rng.gen_range(50_000..5_000_000),
                _ => 123_456,
            })
            .collect();
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record(Duration::from_nanos(v));
        }
        vals.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact = oracle(&vals, q) as f64;
            let approx = h.quantile(q).as_nanos() as f64;
            assert!(
                approx >= exact * (1.0 - 1.0 / 32.0) && approx <= exact * (1.0 + 1.0 / 16.0),
                "q{q}: approx {approx} vs exact {exact} out of the error band"
            );
        }
        assert_eq!(h.max().as_nanos() as u64, *vals.last().unwrap());
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 17, 31] {
            h.record(Duration::from_nanos(v));
        }
        assert_eq!(h.quantile(1.0), Duration::from_nanos(31));
        assert_eq!(h.p50(), Duration::from_nanos(2));
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mut rng = StdRng::seed_from_u64(11);
        let parts: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..500).map(|_| rng.gen_range(1..10_000_000)).collect())
            .collect();
        let hist_of = |idxs: &[usize]| {
            let mut h = LatencyHistogram::new();
            for &i in idxs {
                for &v in &parts[i] {
                    h.record(Duration::from_nanos(v));
                }
            }
            h
        };
        let mut ab_c = hist_of(&[0, 1]);
        ab_c.merge(&hist_of(&[2]));
        let mut a_bc = hist_of(&[0]);
        a_bc.merge(&hist_of(&[1, 2]));
        let mut cba = hist_of(&[2]);
        cba.merge(&hist_of(&[1]));
        cba.merge(&hist_of(&[0]));
        for h in [&a_bc, &cba] {
            assert_eq!(ab_c.counts, h.counts);
            assert_eq!(ab_c.count, h.count);
            assert_eq!(ab_c.sum_ns, h.sum_ns);
            assert_eq!(ab_c.max_ns, h.max_ns);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab_c.quantile(q), a_bc.quantile(q));
        }
    }

    #[test]
    fn histogram_bucket_upper_bounds_every_member() {
        // Structural invariant behind quantile(): a bucket's reported
        // upper bound covers every value that maps into it.
        for v in (0u64..4096).chain([5_000, 123_456, 1 << 20, (1 << 20) + 12_345, u64::MAX / 3]) {
            let idx = LatencyHistogram::bucket_of(v);
            assert!(
                LatencyHistogram::bucket_upper(idx) >= v,
                "bucket {idx} upper bound below member {v}"
            );
            // And within the 2^-SUB_BITS relative error.
            assert!(
                LatencyHistogram::bucket_upper(idx) as f64 <= v as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "bucket {idx} upper bound too loose for {v}"
            );
        }
    }

    #[test]
    fn atomic_histogram_snapshot_matches_serial_recording() {
        let mut rng = StdRng::seed_from_u64(23);
        let vals: Vec<u64> = (0..5_000).map(|_| rng.gen_range(1..50_000_000)).collect();
        let a = AtomicHistogram::new();
        let mut s = LatencyHistogram::new();
        for &v in &vals {
            a.record_ns(v);
            s.record_ns(v);
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), s.count());
        assert_eq!(snap.max(), s.max());
        assert_eq!(snap.mean(), s.mean());
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), s.quantile(q));
        }
    }

    #[test]
    fn atomic_histogram_concurrent_records_are_all_counted() {
        let a = std::sync::Arc::new(AtomicHistogram::new());
        std::thread::scope(|sc| {
            for t in 0..8 {
                let a = a.clone();
                sc.spawn(move || {
                    for i in 0..10_000u64 {
                        a.record_ns(t * 1_000 + i % 997);
                    }
                });
            }
        });
        let snap = a.snapshot();
        assert_eq!(snap.count(), 80_000);
        // Merging an atomic snapshot into a bench-side histogram works
        // because both share a bucket layout.
        let mut m = LatencyHistogram::new();
        m.merge(&snap);
        assert_eq!(m.count(), 80_000);
    }
}
