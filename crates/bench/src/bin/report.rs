//! The experiment runner: one table lists every experiment of the
//! paper's evaluation, each a function returning a
//! [`Report`](unbundled_bench::report::Report) that prints its rows and
//! gates, optionally writes them as JSON telemetry, then asserts the
//! gates (so a failing run still leaves its numbers behind).
//!
//! ```sh
//! cargo run --release -p unbundled_bench --bin report                # every experiment
//! E11_SMOKE=1 cargo run --release -p unbundled_bench --bin report -- e11 --json BENCH_e11.json
//! ```
//!
//! An experiment's smoke variable (`E8_SMOKE`, `E11_SMOKE` … `E17_SMOKE`,
//! `OBS_SMOKE`) shrinks its workload for CI; the gates are the same in
//! both modes. `report check --against BASELINES [--dir DIR]` then
//! compares the written `BENCH_*.json` files against checked-in
//! baselines (per-metric tolerance bands; exits 1 on regression and
//! prints a copy-pasteable refreshed baseline block):
//!
//! ```sh
//! cargo run --release -p unbundled_bench --bin report -- check --against ci/bench_baselines.json
//! ```

use unbundled_bench::report::{Report, Row};
use unbundled_bench::{baseline, e11, e12, e13, e14, e15, e16, e17, e8, obs, paper};

/// One runnable experiment.
struct Experiment {
    /// Section name on the command line.
    name: &'static str,
    /// Environment variable selecting smoke mode, if the experiment has one.
    smoke_env: Option<&'static str>,
    /// Its row columns (the telemetry keys the baseline check may select).
    columns: &'static [&'static str],
    /// The experiment.
    run: fn(bool) -> Report,
}

const fn exp<R: Row>(
    name: &'static str,
    smoke_env: Option<&'static str>,
    run: fn(bool) -> Report,
) -> Experiment {
    Experiment {
        name,
        smoke_env,
        columns: R::COLUMNS,
        run,
    }
}

/// Every experiment, in the order a full run executes them.
const EXPERIMENTS: &[Experiment] = &[
    exp::<paper::MovieRow>("e2", None, paper::run_e2),
    exp::<paper::ScanRow>("e3", None, paper::run_e3),
    exp::<paper::AbLsnRow>("e4", None, paper::run_e4),
    exp::<paper::SyncRow>("e5", None, paper::run_e5),
    exp::<paper::SysTxnRow>("e6", None, paper::run_e6),
    exp::<paper::RecoveryRow>("e7", None, paper::run_e7),
    exp::<e8::E8Row>("e8", Some("E8_SMOKE"), e8::run_e8),
    exp::<paper::LossRow>("e10", None, paper::run_e10),
    exp::<e11::E11Row>("e11", Some("E11_SMOKE"), e11::run_e11),
    exp::<e12::E12Row>("e12", Some("E12_SMOKE"), e12::run_e12),
    exp::<e13::E13Row>("e13", Some("E13_SMOKE"), e13::run_e13),
    exp::<e14::E14Row>("e14", Some("E14_SMOKE"), e14::run_e14),
    exp::<e15::E15Row>("e15", Some("E15_SMOKE"), e15::run_e15),
    exp::<e16::E16Row>("e16", Some("E16_SMOKE"), e16::run_e16),
    exp::<e17::E17Row>("e17", Some("E17_SMOKE"), e17::run_e17),
    exp::<obs::ObsRow>("obs", Some("OBS_SMOKE"), obs::run_obs),
];

fn main() {
    // `report [SECTION] [--json PATH]` runs one experiment (or all of
    // them) and optionally writes its telemetry; `report check
    // --against BASELINES [--dir DIR]` runs the regression check.
    let mut only: Option<String> = None;
    let mut json: Option<String> = None;
    let mut against: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--against" => against = Some(args.next().expect("--against needs a path")),
            "--dir" => dir = Some(args.next().expect("--dir needs a path")),
            _ => only = Some(arg),
        }
    }
    match only.as_deref() {
        Some("check") => {
            let baselines = against.expect("check needs --against <baselines.json>");
            check(&baselines, dir.as_deref().unwrap_or("."));
        }
        Some(name) => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => run(e, json.as_deref()),
            None => {
                eprintln!("unknown section {name:?}; sections and their columns:");
                for e in EXPERIMENTS {
                    let smoke = e.smoke_env.map(|v| format!(" (smoke: {v}=1)"));
                    eprintln!("  {}{}", e.name, smoke.unwrap_or_default());
                    eprintln!("      {}", e.columns.join(", "));
                }
                eprintln!("  check --against BASELINES [--dir DIR]");
                std::process::exit(2);
            }
        },
        None => {
            // One --json path serves every experiment: derive a
            // per-experiment file name so later writes cannot overwrite
            // earlier ones.
            for e in EXPERIMENTS {
                let path = json.as_deref().map(|path| {
                    let stem = path.strip_suffix(".json").unwrap_or(path);
                    format!("{stem}.{}.json", e.name)
                });
                run(e, path.as_deref());
            }
        }
    }
    println!("\nreport complete.");
}

/// Run one experiment: print, write telemetry, then assert the gates.
fn run(e: &Experiment, json: Option<&str>) {
    println!("\n== {} ==", e.name);
    let smoke = e.smoke_env.is_some_and(|v| std::env::var(v).is_ok());
    let report = (e.run)(smoke);
    report.print();
    if let Some(path) = json {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("{} telemetry written to {path}", e.name);
    }
    report.assert_gates();
}

/// The bench-regression harness: compare freshly written telemetry
/// against the checked-in baselines and fail (exit 1) on regression.
fn check(baselines_path: &str, dir: &str) {
    println!("== check: bench telemetry vs {baselines_path} ==");
    let baselines = std::fs::read_to_string(baselines_path)
        .unwrap_or_else(|e| panic!("reading {baselines_path}: {e}"));
    let report = baseline::check(&baselines, |file| {
        let path = std::path::Path::new(dir).join(file);
        std::fs::read_to_string(&path).map_err(|e| e.to_string())
    })
    .unwrap_or_else(|e| panic!("bench baseline check is misconfigured: {e}"));
    for o in &report.outcomes {
        let dir_mark = match o.direction {
            baseline::Direction::Higher => "↑",
            baseline::Direction::Lower => "↓",
        };
        println!(
            "{:<11} {:<14} {:<58} baseline {:>12.3} {} measured {:>12.3} (±{}%)",
            match o.verdict {
                baseline::Verdict::Ok => "ok",
                baseline::Verdict::Improved => "improved",
                baseline::Verdict::Regressed => "REGRESSION",
            },
            o.file
                .trim_start_matches("BENCH_")
                .trim_end_matches(".json"),
            o.what,
            o.baseline,
            dir_mark,
            o.measured,
            o.tolerance_pct,
        );
    }
    for s in &report.skipped {
        println!("skipped     {s}");
    }
    let improved = report
        .outcomes
        .iter()
        .filter(|o| o.verdict == baseline::Verdict::Improved)
        .count();
    if improved > 0 && report.regressions() == 0 {
        println!(
            "\n{improved} metric(s) improved beyond their band — consider refreshing {baselines_path}:"
        );
        println!("{}", report.refreshed);
    }
    if report.regressions() > 0 {
        eprintln!(
            "\n{} metric(s) regressed beyond their tolerance band.",
            report.regressions()
        );
        eprintln!("If the change is intentional, replace the contents of {baselines_path} with:");
        eprintln!("{}", report.refreshed);
        std::process::exit(1);
    }
    println!(
        "\nbench baselines hold ({} metrics).",
        report.outcomes.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use unbundled_bench::json::Json;

    /// Every metric and `select` key the checked-in baselines read from
    /// a `BENCH_<name>.json` must be a column of experiment `<name>`, so
    /// a renamed column fails here instead of in the bench-gates job.
    #[test]
    fn baselines_select_existing_columns() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/bench_baselines.json");
        let text = std::fs::read_to_string(path).expect("read ci/bench_baselines.json");
        let doc = Json::parse(&text).expect("baselines parse");
        let files = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .expect("experiments");
        assert!(!files.is_empty());
        for f in files {
            let file = f.get("file").and_then(Json::as_str).expect("file");
            let name = file
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
                .unwrap_or_else(|| panic!("{file}: not a BENCH_<name>.json"));
            let e = EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("{file}: no experiment {name:?}"));
            for m in f.get("metrics").and_then(Json::as_arr).expect("metrics") {
                let metric = m.get("metric").and_then(Json::as_str).expect("metric");
                let Some(Json::Obj(select)) = m.get("select") else {
                    panic!("{file}: metric {metric} has no select object");
                };
                for key in select.keys().map(String::as_str).chain([metric]) {
                    assert!(
                        e.columns.contains(&key),
                        "{file}: {key:?} is not a column of {name} ({:?})",
                        e.columns
                    );
                }
            }
        }
    }
}
