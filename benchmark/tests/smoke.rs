//! A 1 s-window run of every workload, untraced and traced (the traced
//! run appends the ledger), at a tenth of the table: every oracle holds,
//! nothing fails, and the records pass `check` against `BENCHMARK.json`.

use unbundled_benchmark::report::{append_line, check, record_line, BenchSpec};
use unbundled_benchmark::run::{results_dir, run, RunConfig};
use unbundled_benchmark::spec::{Scale, WORKLOADS};

#[test]
fn every_workload_passes_its_oracles_and_check() {
    let file = results_dir().join(format!("smoke.{}.jsonl", std::process::id()));
    let path = file.to_str().unwrap();
    let _ = std::fs::remove_file(path);
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let r = run(&RunConfig {
                workload,
                seed: 2,
                seconds: 1.0,
                trace,
                scale: Scale::SMOKE,
            });
            assert!(
                r.correct,
                "{} trace={trace}: {:?}",
                r.workload, r.violations
            );
            assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.errors);
            assert!(r.attempted > Scale::SMOKE.crash_txns);
            append_line(path, &record_line(&r, 1.0)).unwrap();
        }
    }
    let problems = check(&BenchSpec::load().unwrap(), path).unwrap();
    std::fs::remove_file(path).unwrap();
    assert!(problems.is_empty(), "{problems:#?}");
}
