//! The benchmark's fixed settings: table shape, run phases and the four
//! workloads. `BENCHMARK.json` and the README state the same values.

use unbundled_core::{Key, TableId};
use unbundled_kernel::deployment::TransportKind;
use unbundled_kernel::FaultModel;

/// Cores of the reference box; no run keeps more threads busy than this.
pub const NPROC: usize = 2;
pub const TABLE: TableId = TableId(1);
pub const PAYLOAD: usize = 100;
pub const KEY_BYTES: usize = 8;
/// Every loaded row starts with this balance, so every pair sums to twice it.
pub const INITIAL_BALANCE: i64 = 1_000;
/// Rows inserted per loading transaction.
pub const LOAD_BATCH: u64 = 1_000;
/// A TC `checkpoint()` runs after every this many committed write transactions.
pub const CHECKPOINT_EVERY: u64 = 1_000;
pub const SCAN_LIMIT: usize = 20;
/// Crash/reboot rounds after the crash epoch; `recovery_ms` is their median.
pub const RECOVERY_REPS: usize = 3;
/// `cold-scan` loads keys this far apart; inserts land in the 15 gaps between.
pub const COLD_STRIDE: u64 = 16;
/// Transactions generated per client before the window opens; the stream
/// wraps if a client outruns it (inserts stay unique, see `stream`).
pub const STREAM_LEN: usize = 1 << 19;
/// A traced run alternates untraced and traced slices of this length, so
/// both throughputs come from the same window (`obs.trace_overhead_frac`).
pub const TRACE_SLICE_MS: u128 = 250;
/// Raw spans kept for the `.jsonl` file; aggregates use every span.
pub const SPAN_FILE_CAP: usize = 200_000;

/// Sizes that differ between the full benchmark and the test smoke.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub rows: u64,
    pub warmup_s: f64,
    /// Write transactions of the crash epoch.
    pub crash_txns: u64,
    /// Loads per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `cold-scan` buffer-pool pages (≈ 11 % of the table's pages).
    pub cold_pool_pages: usize,
    /// Seconds per isolation loop when a traced run appends the ledger.
    pub ledger_loop_s: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 100_000,
        warmup_s: 3.0,
        crash_txns: 2_000,
        setup_reps: 3,
        cold_pool_pages: 512,
        ledger_loop_s: 0.25,
    };

    /// A tenth of the table and short phases: for tests and `check.sh`.
    pub const SMOKE: Scale = Scale {
        rows: 10_000,
        warmup_s: 0.2,
        crash_txns: 200,
        setup_reps: 1,
        cold_pool_pages: 51,
        ledger_loop_s: 0.05,
    };

    pub fn pairs(&self) -> u64 {
        self.rows / 2
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every transaction is a pair transfer.
    Transfer,
    /// 19 snapshot transactions of four point reads, then one pair transfer.
    ReadMostly,
    /// 9 locking scans of 20 rows, then one single-row insert.
    ColdScan,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    pub queued: bool,
    pub clients: usize,
    /// Distance between loaded keys.
    pub stride: u64,
    /// Whether the buffer pool is bounded to `Scale::cold_pool_pages`.
    pub bounded_pool: bool,
}

impl Workload {
    pub fn transport(&self) -> TransportKind {
        if self.queued {
            TransportKind::Queued {
                faults: FaultModel::default(),
                workers: 1,
                batch: 16,
            }
        } else {
            TransportKind::Inline
        }
    }

    /// Threads kept busy: the clients, plus the DC worker on `Queued`.
    pub fn busy_threads(&self) -> usize {
        self.clients + usize::from(self.queued)
    }

    pub fn key_of_row(&self, row: u64) -> u64 {
        row * self.stride
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "oltp-inline",
        mix: Mix::Transfer,
        queued: false,
        clients: 2,
        stride: 1,
        bounded_pool: false,
    },
    Workload {
        name: "oltp-queued",
        mix: Mix::Transfer,
        queued: true,
        clients: 1,
        stride: 1,
        bounded_pool: false,
    },
    Workload {
        name: "read-mostly",
        mix: Mix::ReadMostly,
        queued: false,
        clients: 2,
        stride: 1,
        bounded_pool: false,
    },
    Workload {
        name: "cold-scan",
        mix: Mix::ColdScan,
        queued: false,
        clients: 1,
        stride: COLD_STRIDE,
        bounded_pool: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The stored value of `key` holding `balance`: 8 bytes of balance, the
/// key, then filler derived from the key, so a reader can check every byte.
pub fn payload(key: u64, balance: i64) -> Vec<u8> {
    let mut v = Vec::with_capacity(PAYLOAD);
    v.extend_from_slice(&balance.to_be_bytes());
    v.extend_from_slice(&key.to_be_bytes());
    let fill = (key as u8) ^ 0x5a;
    v.resize(PAYLOAD, fill);
    v
}

/// The balance stored in a payload, if the rest of it is intact for `key`.
pub fn balance_of(key: u64, value: &[u8]) -> Option<i64> {
    let balance = i64::from_be_bytes(value.get(..8)?.try_into().ok()?);
    (value == payload(key, balance)).then_some(balance)
}

pub fn key(k: u64) -> Key {
    Key::from_u64(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_detects_damage() {
        let mut v = payload(42, -7);
        assert_eq!(v.len(), PAYLOAD);
        assert_eq!(balance_of(42, &v), Some(-7));
        assert_eq!(balance_of(43, &v), None);
        v[50] ^= 1;
        assert_eq!(balance_of(42, &v), None);
    }

    #[test]
    fn no_workload_exceeds_nproc() {
        for w in &WORKLOADS {
            assert!(w.busy_threads() <= NPROC, "{}", w.name);
        }
    }
}
