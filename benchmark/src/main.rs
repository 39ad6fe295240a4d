//! `unbundled-benchmark run | ledger | list | check | compare | medians`.

use std::process::ExitCode;
use unbundled_benchmark::report::{self, BenchSpec};
use unbundled_benchmark::run::{run, RunConfig, RunResult};
use unbundled_benchmark::spec::{workload, Scale, NPROC, WORKLOADS};
use unbundled_benchmark::{ledger, spec, Metric};

const USAGE: &str = "usage: unbundled-benchmark <command>
  run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]
        one workload (all four, one process each, without --workload); the last
        line of output is the result: {correct, attempted, failed, metrics}
  ledger [--out FILE] [--smoke]    the isolation ledger alone, 1 s per loop
  list                             every metric: name, unit, direction, bound
  check FILE                       validate the records of FILE
  compare A B                      B against A, per workload x end-to-end metric
  medians FILE                     medians per workload x metric, as JSON";

/// Measured window when `--seconds` is not given (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => a.out = Some(value("a file")?),
            "--smoke" => a.smoke = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
}

fn scale(a: &Args) -> Scale {
    if a.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    }
}

fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let workload = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {names:?}")
    })?;
    let r = run(&RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: scale(a),
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} seconds={} trace={} threads={} (reference nproc {NPROC}, here {nproc})",
        r.workload, r.seed, a.seconds, r.trace, r.threads
    );
    for v in &r.violations {
        println!("# ORACLE FAILED: {v}");
    }
    for e in &r.errors {
        println!("# error: {e}");
    }
    print_metrics(&r.metrics);
    println!(
        "# failed/attempted = {}/{} = {}",
        r.failed,
        r.attempted,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    if let Some(out) = &a.out {
        report::append_line(out, &report::record_line(&r, a.seconds))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{}", report::result_line(&r));
    Ok(r.correct)
}

/// Every workload, each in a process of its own so that `rss_mb` (a
/// process-wide high-water mark) belongs to one workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn ledger_only(a: &Args) -> Result<bool, String> {
    let scale = scale(a);
    let loop_s = if a.smoke { scale.ledger_loop_s } else { 1.0 };
    let metrics = ledger::run(&scale, loop_s);
    print_metrics(&metrics);
    if let Some(out) = &a.out {
        let r = RunResult {
            workload: "ledger",
            seed: 0,
            trace: true,
            correct: true,
            attempted: 0,
            failed: 0,
            threads: spec::NPROC,
            smoke: a.smoke,
            metrics,
            violations: Vec::new(),
            errors: Vec::new(),
        };
        report::append_line(out, &report::record_line(&r, loop_s))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match (cmd.as_str(), rest) {
        ("run", rest) => {
            let a = parse(rest)?;
            match &a.workload {
                Some(name) => run_one(&a, name),
                None => run_all(rest),
            }
        }
        ("ledger", rest) => ledger_only(&parse(rest)?),
        ("list", []) => {
            print!("{}", report::list(&BenchSpec::load()?));
            Ok(true)
        }
        ("check", [file]) => {
            let problems = report::check(&BenchSpec::load()?, file)?;
            for p in &problems {
                println!("{p}");
            }
            println!(
                "{file}: {}",
                if problems.is_empty() { "ok" } else { "FAILED" }
            );
            Ok(problems.is_empty())
        }
        ("compare", [a, b]) => {
            let (table, any_worse) = report::compare(&BenchSpec::load()?, a, b)?;
            print!("{table}");
            Ok(!any_worse)
        }
        ("medians", [file]) => {
            println!("{}", report::medians(file)?);
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
