//! Run records on disk (one JSON object per line) and the tools over
//! them: `list`, `check`, `compare`, `medians`. Metric names, units,
//! directions and bounds come from `BENCHMARK.json`, never from a
//! second table in code.

use crate::json::Json;
use crate::run::RunResult;
use crate::spec::{NPROC, WORKLOADS};
use crate::stats::{iqr_share, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

/// `ledger.gap_frac` beyond this (either way) fails `check`.
const MAX_LEDGER_GAP: f64 = 0.25;
const MIN_COMMIT_FRAC: f64 = 0.99;

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct BenchSpec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// `BENCHMARK.json` from the checkout root (the working directory of
    /// a benchmark run) or, for `cargo test`, from the package's parent.
    pub fn load() -> Result<BenchSpec, String> {
        let text = ["BENCHMARK.json", "../BENCHMARK.json"]
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found in . or ..")?;
        let root = Json::parse(&text)?;
        let metrics = |section: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(section)
                .ok_or(format!("BENCHMARK.json lacks `{section}`"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("metric in `{section}` lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn metrics_json(r: &RunResult) -> Json {
    Json::Obj(
        r.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        ("metrics".into(), metrics_json(r)),
    ])
    .to_string()
}

fn strings(v: &[String]) -> Json {
    Json::Arr(v.iter().cloned().map(Json::Str).collect())
}

/// The result line plus what `check` and `compare` need to group runs.
pub fn record_line(r: &RunResult, seconds: f64) -> String {
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.into())),
        ("seed".into(), Json::Num(r.seed as f64)),
        ("trace".into(), Json::Bool(r.trace)),
        ("seconds".into(), Json::Num(seconds)),
        ("threads".into(), Json::Num(r.threads as f64)),
        ("smoke".into(), Json::Bool(r.smoke)),
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        ("metrics".into(), metrics_json(r)),
        ("violations".into(), strings(&r.violations)),
        ("errors".into(), strings(&r.errors)),
    ])
    .to_string()
}

pub fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

pub fn read_records(path: &str) -> Result<Vec<Json>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

pub fn list(spec: &BenchSpec) -> String {
    let mut out = String::new();
    for (section, metrics) in [
        ("end_to_end", &spec.end_to_end),
        ("per_layer", &spec.per_layer),
    ] {
        for m in metrics {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
            let _ = writeln!(
                out,
                "{section:<11} {:<32} {:<6} {better:<7} {bound}",
                m.name, m.unit
            );
        }
    }
    out
}

/// Problems found in the records of `path`; empty means the file passes.
pub fn check(spec: &BenchSpec, path: &str) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for (i, rec) in read_records(path)?.iter().enumerate() {
        let workload = rec.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = rec.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let mut bad = |msg: String| problems.push(format!("record {} ({workload}): {msg}", i + 1));
        let num = |k: &str| rec.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let metrics = rec.get("metrics").map(Json::as_obj).unwrap_or(&[]);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, m)| m.get("value")?.as_f64())
        };
        // A `ledger` record holds the ledger's share of the per-layer names.
        let ledger_only = workload == "ledger";
        let expected = if traced || ledger_only {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for m in expected {
            match metrics.iter().find(|(k, _)| *k == m.name) {
                None if ledger_only => {}
                None => bad(format!("metric `{}` missing", m.name)),
                Some((_, got)) => {
                    if got.get("unit").and_then(Json::as_str) != Some(&m.unit) {
                        bad(format!("metric `{}` has the wrong unit", m.name));
                    }
                    if !got
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite)
                    {
                        bad(format!("metric `{}` is not a number", m.name));
                    }
                }
            }
        }
        for (k, _) in metrics {
            if !expected.iter().any(|m| m.name == *k) {
                bad(format!("metric `{k}` is not in BENCHMARK.json"));
            }
        }
        if !ledger_only {
            if rec.get("correct").and_then(Json::as_bool) != Some(true) {
                bad("an oracle failed".into());
            }
            let (attempted, failed) = (num("attempted"), num("failed"));
            if attempted.is_nan()
                || failed.is_nan()
                || attempted < 1.0
                || failed < 0.0
                || failed > attempted
            {
                bad(format!("attempted={attempted} failed={failed}"));
            }
            if !WORKLOADS.iter().any(|w| w.name == workload) {
                bad("unknown workload".into());
            }
            if num("threads").is_nan() || num("threads") > NPROC as f64 {
                bad(format!("used {} threads on {NPROC} cores", num("threads")));
            }
        }
        if let Some(frac) = value("commit_frac") {
            if frac < MIN_COMMIT_FRAC {
                bad(format!("commit_frac {frac} below {MIN_COMMIT_FRAC}"));
            }
        }
        // The band is stated for the full-size table; a smoke's 10k rows
        // and 50 ms loops are too noisy to hold it.
        let smoke = rec.get("smoke").and_then(Json::as_bool) == Some(true);
        if let Some(gap) = value("ledger.gap_frac").filter(|_| !smoke) {
            if gap.abs() > MAX_LEDGER_GAP {
                bad(format!("ledger.gap_frac {gap} beyond +-{MAX_LEDGER_GAP}"));
            }
        }
    }
    Ok(problems)
}

/// workload → metric → values, from the records of one trace mode.
fn collect(records: &[Json], traced: bool) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut by: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for rec in records {
        if rec.get("trace").and_then(Json::as_bool) != Some(traced) {
            continue;
        }
        let Some(w) = rec.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in rec.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by.entry(w.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    by
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A set's spread is wider than the bound (or cannot be taken).
    Unresolved,
}

/// `b` against `a` for one metric: medians compared against `bound`,
/// unless either set's interquartile spread already exceeds it.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (Some(sa), Some(sb)) = (iqr_share(a), iqr_share(b)) else {
        return Verdict::Unresolved;
    };
    if sa > bound || sb > bound {
        return Verdict::Unresolved;
    }
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if m.higher_is_better { ma - mb } else { mb - ma };
    if worse_by > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether any metric came out `worse`.
pub fn compare(spec: &BenchSpec, a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let a = collect(&read_records(a_path)?, false);
    let b = collect(&read_records(b_path)?, false);
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:<5} {:>38} {:>38} {:>8}  verdict (bound)",
        "workload", "metric", "unit", "a: median [q1, q3] n", "b: median [q1, q3] n", "b vs a"
    );
    let cell = |v: &[f64]| match quartiles(v) {
        Some((q1, med, q3)) => format!("{med:.5} [{q1:.5}, {q3:.5}] {}", v.len()),
        None => format!("{:?} {}", v.first(), v.len()),
    };
    for w in &WORKLOADS {
        for m in &spec.end_to_end {
            let empty = Vec::new();
            let get = |set: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                set.get(w.name)
                    .and_then(|ms| ms.get(&m.name))
                    .cloned()
                    .unwrap_or_else(|| empty.clone())
            };
            let (va, vb) = (get(&a), get(&b));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            any_worse |= v == Verdict::Worse;
            let change = match (quartiles(&va), quartiles(&vb)) {
                (Some((_, ma, _)), Some((_, mb, _))) if ma != 0.0 => {
                    format!("{:+.2}%", (mb - ma) / ma * 100.0)
                }
                _ => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:<5} {:>38} {:>38} {:>8}  {} ({})",
                w.name,
                m.name,
                m.unit,
                cell(&va),
                cell(&vb),
                change,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                m.bound.unwrap_or(0.0)
            );
        }
    }
    Ok((out, any_worse))
}

/// Medians per workload × metric of a set, as compact JSON: the
/// trajectory record a later re-anchor reads.
pub fn medians(path: &str) -> Result<String, String> {
    let records = read_records(path)?;
    let sets = [collect(&records, false), collect(&records, true)];
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut metrics = Vec::new();
        for set in &sets {
            if let Some(ms) = set.get(w.name) {
                for (name, values) in ms {
                    let mut v = values.clone();
                    metrics.push((name.clone(), Json::Num(crate::stats::median(&mut v))));
                }
            }
        }
        if !metrics.is_empty() {
            workloads.push((w.name.to_string(), Json::Obj(metrics)));
        }
    }
    Ok(Json::Obj(vec![
        ("runs".into(), Json::Num(records.len() as f64)),
        ("medians".into(), Json::Obj(workloads)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "x".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&m(false, 0.1), &base, &base), Verdict::Ok);
        assert_eq!(verdict(&m(false, 0.1), &base, &slower), Verdict::Worse);
        assert_eq!(verdict(&m(true, 0.1), &base, &slower), Verdict::Ok);
        assert_eq!(verdict(&m(true, 0.1), &slower, &base), Verdict::Worse);
        assert_eq!(verdict(&m(false, 0.1), &base, &noisy), Verdict::Unresolved);
        assert_eq!(
            verdict(&m(false, 0.1), &base, &[100.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = BenchSpec::load().unwrap();
        assert_eq!(spec.end_to_end.len(), 8);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(spec.per_layer.len() <= 128);
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|p| p[0] != p[1]),
            "duplicate metric name"
        );
        assert!(list(&spec).lines().count() == names.len());
    }
}
