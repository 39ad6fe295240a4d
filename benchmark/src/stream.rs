//! Seeded operation streams. Each client's transactions are generated
//! into a `Vec` before the window opens; the program under test only
//! ever sees these inputs. The generator is the benchmark's own
//! (SplitMix64), so a change to `vendor/rand` cannot change the inputs.
//!
//! Clients own disjoint pairs (`pair % clients == client`), so no two
//! clients write the same row and no transaction is a deadlock victim:
//! the workloads are chosen so that no operation fails. Snapshot
//! transactions read the client's own pairs too. Read across clients,
//! one smoke run in sixteen saw a torn pair (by the rates, about one
//! full run in ten would): a commit's force makes its LSN stable before
//! its two `StampCommit`s reach the DC (the LWM walk runs in between),
//! so a snapshot pinned in that gap can read one row before its stamp
//! and the other after. That is the program's bug to fix, with a test
//! of its own; a benchmark that fails now and then measures nothing.
//!
//! The mix is by position, not by coin: transaction `i` is a write
//! exactly when `i % period == period - 1`, so per-transaction counts
//! (log bytes, forces) do not drift with how many transactions a run
//! completes.

use crate::spec::{Mix, Scale, Workload, COLD_STRIDE, SCAN_LIMIT};

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Txn {
    /// Move `delta` from row `2*pair` to row `2*pair + 1`.
    Transfer { pair: u32, delta: u32 },
    /// Snapshot-read both rows of two pairs.
    Snapshot { a: u32, b: u32 },
    /// Locking scan of `SCAN_LIMIT` rows from loaded row `start_row`.
    Scan { start_row: u32 },
    /// Insert the client's next unused gap key (see [`InsertKeys`]).
    Insert,
}

impl Txn {
    pub fn is_write(&self) -> bool {
        matches!(self, Txn::Transfer { .. } | Txn::Insert)
    }
}

/// 80 % of draws land on the hot fifth of `0..n` (the indices divisible
/// by 5, so hot rows are spread over every page).
fn skewed(rng: &mut SplitMix64, n: u64) -> u64 {
    let groups = n / 5;
    let base = 5 * rng.below(groups);
    if rng.below(10) < 8 {
        base
    } else {
        base + 1 + rng.below(4)
    }
}

fn mix_seed(seed: u64, workload: &Workload, client: usize) -> u64 {
    let tag = workload
        .name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
    SplitMix64::new(seed ^ tag ^ ((client as u64) << 56)).next_u64()
}

/// The `len` transactions client `client` runs, in order.
pub fn generate(w: &Workload, scale: &Scale, seed: u64, client: usize, len: usize) -> Vec<Txn> {
    let mut rng = SplitMix64::new(mix_seed(seed, w, client));
    let clients = w.clients as u64;
    let own_pairs = scale.pairs() / clients;
    let own_pair = |rng: &mut SplitMix64| (skewed(rng, own_pairs) * clients + client as u64) as u32;
    let own_transfer = |rng: &mut SplitMix64| Txn::Transfer {
        pair: own_pair(rng),
        delta: 1 + rng.below(9) as u32,
    };
    (0..len)
        .map(|i| match w.mix {
            Mix::Transfer => own_transfer(&mut rng),
            Mix::ReadMostly if i % 20 == 19 => own_transfer(&mut rng),
            Mix::ReadMostly => Txn::Snapshot {
                a: own_pair(&mut rng),
                b: own_pair(&mut rng),
            },
            Mix::ColdScan if i % 10 == 9 => Txn::Insert,
            Mix::ColdScan => Txn::Scan {
                start_row: rng.below(scale.rows - SCAN_LIMIT as u64) as u32,
            },
        })
        .collect()
}

/// The keys `cold-scan` inserts: the `n`-th insert goes to gap slot
/// `(a*n + b) mod m`, a bijection on the `m = rows * 15` free keys, so
/// inserts never collide even if the stream wraps.
#[derive(Clone, Copy, Debug)]
pub struct InsertKeys {
    a: u64,
    b: u64,
    m: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl InsertKeys {
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let m = scale.rows * (COLD_STRIDE - 1);
        let mut rng = SplitMix64::new(seed ^ 0x1234_5678_9abc_def0);
        let a = loop {
            let a = 1 + rng.below(m - 1);
            if gcd(a, m) == 1 {
                break a;
            }
        };
        InsertKeys {
            a,
            b: rng.below(m),
            m,
        }
    }

    pub fn key(&self, n: u64) -> u64 {
        let slot = ((self.a as u128 * n as u128 + self.b as u128) % self.m as u128) as u64;
        let per_row = COLD_STRIDE - 1;
        (slot / per_row) * COLD_STRIDE + 1 + slot % per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::HashSet;

    fn bytes(stream: &[Txn]) -> Vec<u8> {
        format!("{stream:?}").into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        for w in &WORKLOADS {
            for client in 0..w.clients {
                let a = generate(w, &Scale::FULL, 7, client, 4096);
                let b = generate(w, &Scale::FULL, 7, client, 4096);
                let c = generate(w, &Scale::FULL, 8, client, 4096);
                assert_eq!(bytes(&a), bytes(&b), "{}", w.name);
                assert_ne!(bytes(&a), bytes(&c), "{}", w.name);
            }
        }
        let w = &WORKLOADS[0];
        assert_ne!(
            bytes(&generate(w, &Scale::FULL, 7, 0, 4096)),
            bytes(&generate(w, &Scale::FULL, 7, 1, 4096))
        );
    }

    #[test]
    fn clients_write_disjoint_pairs_with_80_20_skew() {
        let w = &WORKLOADS[0];
        let mut hot = 0;
        for client in 0..w.clients {
            for t in generate(w, &Scale::FULL, 3, client, 20_000) {
                let Txn::Transfer { pair, delta } = t else {
                    panic!("oltp-inline is transfers only")
                };
                assert_eq!(pair as usize % w.clients, client);
                assert!((pair as u64) < Scale::FULL.pairs());
                assert!((1..=9).contains(&delta));
                hot += usize::from((pair as usize / w.clients).is_multiple_of(5));
            }
        }
        let share = hot as f64 / 40_000.0;
        assert!((0.78..0.82).contains(&share), "hot share {share}");
    }

    #[test]
    fn snapshots_read_the_clients_own_pairs() {
        let w = &WORKLOADS[2];
        for client in 0..w.clients {
            for t in generate(w, &Scale::FULL, 9, client, 2_000) {
                let pairs = match t {
                    Txn::Snapshot { a, b } => vec![a, b],
                    Txn::Transfer { pair, .. } => vec![pair],
                    other => panic!("unexpected {other:?} in read-mostly"),
                };
                assert!(pairs.iter().all(|p| *p as usize % w.clients == client));
            }
        }
    }

    #[test]
    fn mix_is_positional() {
        let rm = generate(&WORKLOADS[2], &Scale::FULL, 1, 0, 200);
        assert_eq!(rm.iter().filter(|t| t.is_write()).count(), 10);
        assert!(rm[19].is_write() && !rm[18].is_write());
        let cs = generate(&WORKLOADS[3], &Scale::FULL, 1, 0, 200);
        assert_eq!(cs.iter().filter(|t| **t == Txn::Insert).count(), 20);
        assert_eq!(cs[9], Txn::Insert);
    }

    #[test]
    fn insert_keys_are_unique_gap_keys() {
        let keys = InsertKeys::new(5, &Scale::SMOKE);
        let mut seen = HashSet::new();
        for n in 0..Scale::SMOKE.rows * (COLD_STRIDE - 1) {
            let k = keys.key(n);
            assert_ne!(k % COLD_STRIDE, 0, "collides with a loaded key");
            assert!(k < Scale::SMOKE.rows * COLD_STRIDE);
            assert!(seen.insert(k), "slot reused at n={n}");
        }
        assert_ne!(keys.key(0), InsertKeys::new(6, &Scale::SMOKE).key(0));
    }
}
