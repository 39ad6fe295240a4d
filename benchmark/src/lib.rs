//! The repo benchmark: four closed-loop workloads over the public `Tc`
//! API of a `kernel::single` deployment, eight end-to-end metrics, and a
//! per-layer ledger measured from outside the program. See `README.md`.

pub mod alloc;
pub mod counters;
pub mod json;
pub mod ledger;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod trace;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}
