//! The unified metrics registry.
//!
//! Every subsystem registers its counters/gauges/histograms once, by
//! name, with a unit and help text. Names follow the
//! `subsystem.noun_verb` convention (dot-separated lowercase
//! segments); registration panics on a duplicate name or a
//! convention violation, so a bad name fails the build's test run
//! rather than shipping.
//!
//! Snapshot semantics: [`Registry::snapshot`] reads every metric in
//! one pass under the registry lock, with `Relaxed` loads. Each
//! individual metric is exact and monotone (counters never
//! under-count their own bumps), but cross-metric invariants (e.g.
//! `tc.stamps_sent ≤ tc.commits`) are best-effort when snapshotted
//! mid-traffic: the pass is not a linearization point across writer
//! threads. Quiesce the deployment first when an exact cross-field
//! relation matters — the repo's own tests do exactly that.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{AtomicHistogram, LatencyHistogram};
use crate::stripe::StripedU64;

/// A monotonically increasing counter, striped per thread
/// ([`crate::stripe`]): bumping it writes only the calling thread's
/// stripe, so hot-path counters cost no shared-cache-line traffic.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<StripedU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.add(n);
    }

    /// Current value (the sum over the stripes).
    pub fn get(&self) -> u64 {
        self.v.get()
    }
}

/// A last-value-wins gauge. Cross-instance merges take the max, which
/// suits the one current user (`storage.gather_window_us`).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A registered latency histogram handle (shared, lock-free recording).
#[derive(Clone)]
pub struct Histogram {
    h: Arc<AtomicHistogram>,
}

impl Histogram {
    /// Record one latency.
    pub fn record(&self, latency: std::time::Duration) {
        self.h.record(latency);
    }

    /// Record one latency given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.h.record_ns(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.h.count()
    }

    /// Copy the current state into a queryable [`LatencyHistogram`].
    pub fn snapshot(&self) -> LatencyHistogram {
        self.h.snapshot()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(count={})", self.h.count())
    }
}

/// What kind of metric a registry entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Latency histogram.
    Histogram,
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct MetricEntry {
    name: &'static str,
    unit: &'static str,
    help: &'static str,
    slot: Slot,
}

/// A per-component metrics registry: each `TcStats`/`DcStats`/
/// `LockManager`/`LogStore` instance owns one, so duplicate-name
/// detection fires within a component while a deployment can still run
/// many instances of the same component. Cluster-wide views merge the
/// per-instance snapshots by name ([`merge_snapshots`]).
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<MetricEntry>>,
}

/// Check a metric name against the `subsystem.noun_verb` convention:
/// at least two dot-separated segments, each non-empty lowercase
/// `[a-z0-9_]`.
pub fn validate_metric_name(name: &str) -> Result<(), String> {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return Err(format!(
            "metric name `{name}` must have at least two dot-separated segments (subsystem.noun_verb)"
        ));
    }
    for seg in segments {
        if seg.is_empty() {
            return Err(format!("metric name `{name}` has an empty segment"));
        }
        if !seg
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return Err(format!(
                "metric name `{name}` segment `{seg}` must be lowercase [a-z0-9_]"
            ));
        }
    }
    Ok(())
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &'static str, unit: &'static str, help: &'static str, slot: Slot) {
        if let Err(e) = validate_metric_name(name) {
            panic!("{e}");
        }
        let mut metrics = self.metrics.lock();
        if metrics.iter().any(|m| m.name == name) {
            panic!("duplicate metric registration: `{name}`");
        }
        metrics.push(MetricEntry {
            name,
            unit,
            help,
            slot,
        });
    }

    /// Register and return a counter. Panics on duplicate names or a
    /// naming-convention violation.
    pub fn counter(&self, name: &'static str, unit: &'static str, help: &'static str) -> Counter {
        let c = Counter::default();
        self.register(name, unit, help, Slot::Counter(c.clone()));
        c
    }

    /// Register and return a gauge. Panics on duplicate names or a
    /// naming-convention violation.
    pub fn gauge(&self, name: &'static str, unit: &'static str, help: &'static str) -> Gauge {
        let g = Gauge::default();
        self.register(name, unit, help, Slot::Gauge(g.clone()));
        g
    }

    /// Register and return a histogram. Panics on duplicate names or a
    /// naming-convention violation.
    pub fn histogram(
        &self,
        name: &'static str,
        unit: &'static str,
        help: &'static str,
    ) -> Histogram {
        let h = Histogram {
            h: Arc::new(AtomicHistogram::new()),
        };
        self.register(name, unit, help, Slot::Histogram(h.clone()));
        h
    }

    /// Read every registered metric in one pass.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock();
        RegistrySnapshot {
            samples: metrics
                .iter()
                .map(|m| MetricSample {
                    name: m.name.to_string(),
                    kind: match m.slot {
                        Slot::Counter(_) => MetricKind::Counter,
                        Slot::Gauge(_) => MetricKind::Gauge,
                        Slot::Histogram(_) => MetricKind::Histogram,
                    },
                    unit: m.unit.to_string(),
                    help: m.help.to_string(),
                    value: match &m.slot {
                        Slot::Counter(c) => SampleValue::Counter(c.get()),
                        Slot::Gauge(g) => SampleValue::Gauge(g.get()),
                        Slot::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One metric's sampled value.
#[derive(Clone)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram contents.
    Histogram(LatencyHistogram),
}

/// One metric as read by [`Registry::snapshot`].
#[derive(Clone)]
pub struct MetricSample {
    /// Registered name (`subsystem.noun_verb`).
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Unit string (e.g. `"ns"`, `"ops"`).
    pub unit: String,
    /// Help text.
    pub help: String,
    /// Sampled value.
    pub value: SampleValue,
}

/// A point-in-time read of a registry (or a by-name merge of several).
#[derive(Clone, Default)]
pub struct RegistrySnapshot {
    /// The samples, in registration order (merge keeps first-seen order).
    pub samples: Vec<MetricSample>,
}

impl RegistrySnapshot {
    /// Value of a counter by name; 0 if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Value of a gauge by name; `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// A histogram by name; `None` if absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h),
                _ => None,
            })
    }
}

/// Merge per-instance snapshots into one cluster-wide view, by name:
/// counters sum, histograms merge, gauges take the max. Metric kinds
/// must agree across instances for a given name (they do, because
/// names are registered by one component's code path).
pub fn merge_snapshots(parts: Vec<RegistrySnapshot>) -> RegistrySnapshot {
    let mut out: Vec<MetricSample> = Vec::new();
    for part in parts {
        for s in part.samples {
            match out.iter_mut().find(|o| o.name == s.name) {
                None => out.push(s),
                Some(o) => match (&mut o.value, s.value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                    (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a = (*a).max(b),
                    (SampleValue::Histogram(a), SampleValue::Histogram(b)) => a.merge(&b),
                    _ => panic!("metric `{}` registered with conflicting kinds", o.name),
                },
            }
        }
    }
    RegistrySnapshot { samples: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let r = Registry::new();
        let c = r.counter("test.ops_done", "ops", "operations completed");
        let g = r.gauge("test.window_us", "us", "current window");
        let h = r.histogram("test.op_ns", "ns", "operation latency");
        c.add(3);
        g.set(17);
        h.record(Duration::from_nanos(1_000));
        h.record(Duration::from_nanos(3_000));
        let snap = r.snapshot();
        assert_eq!(snap.counter("test.ops_done"), 3);
        assert_eq!(snap.gauge("test.window_us"), Some(17));
        let hist = snap.histogram("test.op_ns").unwrap();
        assert_eq!(hist.count(), 2);
        assert!(hist.max() >= Duration::from_nanos(3_000));
        // Absent names answer harmlessly.
        assert_eq!(snap.counter("test.missing"), 0);
        assert!(snap.histogram("test.missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate metric registration")]
    fn duplicate_registration_panics() {
        let r = Registry::new();
        let _a = r.counter("test.ops_done", "ops", "first");
        let _b = r.counter("test.ops_done", "ops", "second");
    }

    #[test]
    fn name_convention_is_enforced() {
        assert!(validate_metric_name("tc.commits").is_ok());
        assert!(validate_metric_name("tc.commit_stage.lock_wait_ns").is_ok());
        assert!(validate_metric_name("singleword").is_err());
        assert!(validate_metric_name("tc..commits").is_err());
        assert!(validate_metric_name("Tc.Commits").is_err());
        assert!(validate_metric_name("tc.commit-rate").is_err());
        assert!(validate_metric_name("tc.").is_err());
    }

    #[test]
    #[should_panic(expected = "must be lowercase")]
    fn bad_name_registration_panics() {
        let r = Registry::new();
        let _ = r.counter("tc.Commits", "ops", "bad case");
    }

    #[test]
    fn merge_sums_counters_merges_histograms_maxes_gauges() {
        let mk = |n: u64| {
            let r = Registry::new();
            let c = r.counter("x.count", "ops", "");
            let g = r.gauge("x.gauge", "us", "");
            let h = r.histogram("x.lat_ns", "ns", "");
            c.add(n);
            g.set(n);
            h.record_ns(n * 1_000);
            r.snapshot()
        };
        let merged = merge_snapshots(vec![mk(2), mk(5), mk(3)]);
        assert_eq!(merged.counter("x.count"), 10);
        assert_eq!(merged.gauge("x.gauge"), Some(5));
        let h = merged.histogram("x.lat_ns").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Duration::from_nanos(5_000));
    }
}
