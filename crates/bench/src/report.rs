//! The one shape every experiment reports in.
//!
//! An experiment is a function `fn(smoke: bool) -> Report`: it measures
//! typed rows (a struct per experiment, declared with [`row!`] so the
//! gate code stays type-checked), computes its [`Gate`]s over them, and
//! erases the rows into a [`Report`] that prints the table, writes the
//! `BENCH_*.json` telemetry through [`Json::render`] and asserts the
//! gates. The `report` binary lists the experiments in one table.

use crate::json::Json;
use std::collections::BTreeMap;

/// A typed experiment row. Implemented by [`row!`]: the struct's field
/// names are the columns.
pub trait Row {
    /// Column names, in order: both the printed header and the JSON
    /// keys of a telemetry row.
    const COLUMNS: &'static [&'static str];

    /// This row's values, one per column.
    fn values(&self) -> Vec<Json>;

    /// What [`find`] matches: the first column unless the row type says
    /// otherwise.
    fn key(&self) -> String {
        match &self.values()[0] {
            Json::Str(s) => s.clone(),
            other => other.render().trim_end().to_string(),
        }
    }
}

/// Declare an experiment row struct and its [`Row`] impl. Every field
/// becomes a column named after it; an optional trailing
/// `key = |row| ...;` overrides what [`find`] matches.
#[macro_export]
macro_rules! row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident : $ty:ty,)*
        }
        $(key = $key:expr;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::report::Row for $name {
            const COLUMNS: &'static [&'static str] = &[$(stringify!($field)),*];

            fn values(&self) -> Vec<$crate::json::Json> {
                vec![$($crate::json::Json::from(self.$field.clone())),*]
            }

            $(fn key(&self) -> String {
                let key: fn(&$name) -> String = $key;
                key(self)
            })?
        }
    };
}

/// One pass/fail gate.
pub struct Gate {
    /// What the gate checks.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The bound the value is held to.
    pub threshold: f64,
    /// Whether the gate held.
    pub pass: bool,
    /// `>=` or `<=`.
    pub cmp: &'static str,
}

impl Gate {
    /// A gate that holds when `value >= threshold`.
    pub fn at_least(name: impl Into<String>, value: f64, threshold: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            threshold,
            pass: value >= threshold,
            cmp: ">=",
        }
    }

    /// A gate that holds when `value <= threshold`.
    pub fn at_most(name: impl Into<String>, value: f64, threshold: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            threshold,
            pass: value <= threshold,
            cmp: "<=",
        }
    }

    /// A correctness gate: 1 when `ok`, held to 1.
    pub fn holds(name: impl Into<String>, ok: bool) -> Gate {
        Gate::at_least(name, if ok { 1.0 } else { 0.0 }, 1.0)
    }
}

/// One experiment's output with its rows erased to JSON values.
pub struct Report {
    /// Telemetry name, e.g. `e11_group_commit`.
    pub experiment: &'static str,
    /// `smoke` (CI) or `full`.
    pub mode: &'static str,
    /// Run-wide settings and summary measurements, printed in the
    /// header and written as top-level JSON keys.
    pub params: Vec<(&'static str, Json)>,
    /// Column names of `rows`.
    pub columns: &'static [&'static str],
    /// The measured rows, one value per column.
    pub rows: Vec<Vec<Json>>,
    /// Gates over the rows.
    pub gates: Vec<Gate>,
}

impl Report {
    /// Erase typed rows into a report.
    pub fn new<R: Row>(
        experiment: &'static str,
        smoke: bool,
        params: Vec<(&'static str, Json)>,
        rows: &[R],
        gates: Vec<Gate>,
    ) -> Report {
        Report {
            experiment,
            mode: if smoke { "smoke" } else { "full" },
            params,
            columns: R::COLUMNS,
            rows: rows.iter().map(Row::values).collect(),
            gates,
        }
    }

    /// Print the header, the row table and the gates.
    pub fn print(&self) {
        let params: String = self
            .params
            .iter()
            .map(|(k, v)| format!(", {k} {}", cell(v)))
            .collect();
        println!("{} ({} mode{params})", self.experiment, self.mode);
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let body: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(cell).collect())
            .collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|c| {
                let cells = body.iter().chain([&header]).map(|r| r[c].chars().count());
                cells.max().unwrap_or(0)
            })
            .collect();
        // Text columns align left, numbers right.
        let text: Vec<bool> = (0..header.len())
            .map(|c| {
                self.rows
                    .first()
                    .is_some_and(|r| matches!(r[c], Json::Str(_)))
            })
            .collect();
        for row in std::iter::once(&header).chain(&body) {
            let line: Vec<String> = (0..row.len())
                .map(|c| match text[c] {
                    true => format!("{:<w$}", row[c], w = widths[c]),
                    false => format!("{:>w$}", row[c], w = widths[c]),
                })
                .collect();
            println!("{}", line.join("  ").trim_end());
        }
        for g in &self.gates {
            println!(
                "gate: {:<62} {:>8.3} ({} {:.2}) — {}",
                g.name,
                g.value,
                g.cmp,
                g.threshold,
                if g.pass { "OK" } else { "FAIL" }
            );
        }
    }

    /// Panic on the first failed gate (the CI bar).
    pub fn assert_gates(&self) {
        for g in &self.gates {
            assert!(
                g.pass,
                "{} gate failed: {} — measured {:.3}, need {} {:.3}",
                self.experiment, g.name, g.value, g.cmp, g.threshold
            );
        }
    }

    /// The telemetry document: experiment, mode, params, rows, gates.
    pub fn to_json(&self) -> String {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let rows = self
            .rows
            .iter()
            .map(|r| {
                obj(self
                    .columns
                    .iter()
                    .copied()
                    .zip(r.iter().cloned())
                    .collect())
            })
            .collect();
        let gates = self
            .gates
            .iter()
            .map(|g| {
                obj(vec![
                    ("name", g.name.as_str().into()),
                    ("value", g.value.into()),
                    ("threshold", g.threshold.into()),
                    ("pass", g.pass.into()),
                ])
            })
            .collect();
        let mut doc: BTreeMap<String, Json> = self
            .params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        doc.insert("experiment".into(), self.experiment.into());
        doc.insert("mode".into(), self.mode.into());
        doc.insert("rows".into(), Json::Arr(rows));
        doc.insert("gates".into(), Json::Arr(gates));
        Json::Obj(doc).render()
    }
}

/// A table cell: text as is, whole or large numbers without decimals,
/// small fractions to three places.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 || n.abs() >= 100.0 => format!("{n:.0}"),
        Json::Num(n) => format!("{n:.3}"),
        other => other.render().trim_end().to_string(),
    }
}

/// The row whose [`Row::key`] is `key`; panics when there is none.
pub fn find<'a, R: Row>(rows: &'a [R], key: &str) -> &'a R {
    rows.iter()
        .find(|r| r.key() == key)
        .unwrap_or_else(|| panic!("missing row {key}"))
}

/// Run `run(rep)` for `reps` repetitions (at least one) and keep the
/// one with the highest `score`. Wall-clock noise on a shared box is
/// one-sided — interference only slows a run down — so the best
/// repetition is the least-biased estimate of what a configuration can
/// do; using it on *both* sides of a ratio gate keeps the estimator
/// symmetric.
pub fn best_of<R>(reps: usize, score: impl Fn(&R) -> f64, run: impl FnMut(u64) -> R) -> R {
    (0..reps.max(1) as u64)
        .map(run)
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("at least one rep")
}

#[cfg(test)]
mod tests {
    use super::*;

    row! {
        /// A test row.
        pub struct TestRow {
            /// Name.
            pub label: String,
            /// Thread count.
            pub threads: usize,
            /// A rate.
            pub rate: f64,
            /// A flag.
            pub ok: bool,
        }
        key = |r| format!("{} @{}", r.label, r.threads);
    }

    fn rows() -> Vec<TestRow> {
        [(1, 10.5), (32, 99.25)]
            .into_iter()
            .map(|(threads, rate)| TestRow {
                label: "a \"quoted\" label".into(),
                threads,
                rate,
                ok: true,
            })
            .collect()
    }

    #[test]
    fn columns_are_field_names_and_find_uses_the_key() {
        assert_eq!(TestRow::COLUMNS, ["label", "threads", "rate", "ok"]);
        let rows = rows();
        assert_eq!(find(&rows, "a \"quoted\" label @32").rate, 99.25);
    }

    #[test]
    fn to_json_writes_every_column_and_gate() {
        let gates = vec![
            Gate::at_least("speedup", 2.5, 2.0),
            Gate::at_most("error", 0.3, 0.2),
        ];
        let r = Report::new(
            "e0_test",
            true,
            vec![("per_thread", 25u64.into())],
            &rows(),
            gates,
        );
        let j = Json::parse(&r.to_json()).unwrap();
        assert_eq!(j.get("experiment").unwrap().as_str(), Some("e0_test"));
        assert_eq!(j.get("mode").unwrap().as_str(), Some("smoke"));
        assert_eq!(j.get("per_thread").unwrap().as_f64(), Some(25.0));
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(
            rows[1].get("label").unwrap().as_str(),
            Some("a \"quoted\" label")
        );
        assert_eq!(rows[1].get("threads").unwrap().as_f64(), Some(32.0));
        assert_eq!(rows[1].get("ok").unwrap().as_bool(), Some(true));
        let gates = j.get("gates").unwrap().as_arr().unwrap();
        assert_eq!(gates[0].get("pass").unwrap().as_bool(), Some(true));
        assert_eq!(gates[1].get("pass").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn best_of_keeps_the_highest_score() {
        let best = best_of(4, |v: &u64| -((*v as f64) - 2.0).abs(), |rep| rep);
        assert_eq!(best, 2);
    }
}
