//! Everything the benchmark reads from outside the program: the
//! deployment's public counters, the process's CPU time and peak RSS,
//! and the allocator counts. Read between transactions at the window's
//! edges; per-layer metrics are deltas of two reads.

use crate::alloc;
use std::collections::BTreeMap;
use unbundled_core::{DcId, TcId};
use unbundled_kernel::deployment::Deployment;
use unbundled_obs::registry::SampleValue;
use unbundled_storage::IoStats;

pub const TC: TcId = TcId(1);
pub const DC: DcId = DcId(1);
/// `USER_HZ`: the unit of utime/stime in `/proc/self/stat` on Linux.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds (user + system, all threads) so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the ')'.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// One read of every counter source. Registry counters keep their
    /// registered names; a histogram `h` becomes `h.sum` and `h.count`.
    pub fn read(d: &Deployment) -> Counters {
        let mut m = BTreeMap::new();
        for s in d.observe().samples {
            match s.value {
                SampleValue::Counter(v) => {
                    m.insert(s.name, v as f64);
                }
                SampleValue::Histogram(h) => {
                    let n = h.count() as f64;
                    m.insert(format!("{}.sum", s.name), h.mean().as_nanos() as f64 * n);
                    m.insert(format!("{}.count", s.name), n);
                }
                SampleValue::Gauge(_) => {}
            }
        }
        let mut io = |prefix: &str, stats: &IoStats| {
            let s = stats.snapshot();
            for (field, v) in [
                ("page_writes", s.page_writes),
                ("page_reads", s.page_reads),
                ("log_bytes", s.log_bytes),
                ("log_forces", s.log_forces),
                ("log_records", s.log_records),
            ] {
                m.insert(format!("{prefix}.{field}"), v as f64);
            }
        };
        io("tclog", d.tc_log(TC).stats());
        io("dclog", d.dc_log(DC).stats());
        io("disk", d.dc_disk(DC).stats());
        let (acquired, waits, _, _) = d.tc(TC).lock_manager().stats().snapshot();
        m.insert("lockmgr.acquired".into(), acquired as f64);
        m.insert("lockmgr.waits".into(), waits as f64);
        let links = d.queued_links(TC);
        let sum = |f: fn(&unbundled_kernel::QueuedLink) -> u64| {
            links.iter().map(|l| f(l)).sum::<u64>() as f64
        };
        m.insert("kernel.batches".into(), sum(|l| l.batches()));
        m.insert("kernel.batched_ops".into(), sum(|l| l.batched_ops()));
        m.insert("kernel.reply_batches".into(), sum(|l| l.reply_batches()));
        m.insert(
            "kernel.reply_batched_ops".into(),
            sum(|l| l.reply_batched_ops()),
        );
        let (count, bytes) = alloc::totals();
        m.insert("alloc.count".into(), count as f64);
        m.insert("alloc.bytes".into(), bytes as f64);
        m.insert("cpu.seconds".into(), cpu_seconds());
        Counters(m)
    }

    /// 0 for a name no source reported.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            std::hint::black_box(t0.elapsed());
        }
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn since_subtracts_by_name() {
        let a = Counters(BTreeMap::from([("x".to_string(), 10.0)]));
        let b = Counters(BTreeMap::from([
            ("x".to_string(), 25.0),
            ("y".to_string(), 3.0),
        ]));
        let d = b.since(&a);
        assert_eq!(d.get("x"), 15.0);
        assert_eq!(d.get("y"), 3.0);
        assert_eq!(d.get("absent"), 0.0);
    }
}
