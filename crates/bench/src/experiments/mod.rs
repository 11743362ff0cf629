//! The table of experiments, and what its entries share.
//!
//! Adding an experiment is adding an entry here: a grid function, a cell
//! function and — where the paper says something about the result —
//! claims. `paper` holds the paper's own tables and figures, `studies`
//! the sweeps around them, `stress` the fault and overload curves,
//! `network` the network-only sweeps.

mod network;
mod paper;
mod stress;
mod studies;

use crate::table::{cell, Cell, Check, Experiment, Fmt, Row, RowData, Table};
use rcsim_system::RunResult;

/// Every experiment `rcsim-bench` runs, in the order `all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    paper::TABLE1,
    paper::TABLE5,
    paper::TABLE6,
    paper::FIG6,
    paper::FIG7,
    paper::FIG8,
    paper::FIG9,
    paper::FIG10,
    studies::SCALING,
    studies::CONVERGENCE,
    studies::ABLATIONS,
    stress::RESILIENCE,
    stress::OVERLOAD,
    network::TOPOLOGY,
];

/// What most entries are: full-system rows, nothing claimed, nothing
/// asserted beyond every point finishing, no side file.
const PLAIN: Experiment = Experiment {
    name: "",
    title: "",
    grid: |_| Ok(Vec::new()),
    cells: |_| Vec::new(),
    claims: &[],
    asserts: |_| Ok(()),
    trace: None,
};

/// The mean over the runs of the reply-outcome fraction `name`, as `key`.
fn outcome(d: &RowData, key: &str, name: &str) -> Cell {
    cell(key, name, Fmt::Pct(1), d.mean(|r| r.outcomes[name]))
}

/// The mean fraction of replies that rode a circuit — the row's fixed
/// `circuit_hit_rate`, shown.
fn hit_rate(d: &RowData) -> Cell {
    outcome(d, "circuit_hit_rate", "circuit")
}

fn load(d: &RowData) -> Cell {
    cell("load", "flits/node/100c", Fmt::Num(2), d.mean(|r| r.load))
}

/// Mean and standard error of `ratio(run, base run)` over a row's
/// seed-paired runs; the base row itself reads 1 with no error.
fn ratio(d: &RowData, key: &str, ratio: fn(&RunResult, &RunResult) -> f64) -> Vec<Cell> {
    match d.paired(ratio) {
        None => vec![cell(key, key, Fmt::Num(3), 1.0)],
        Some(all) => vec![
            cell(key, key, Fmt::Num(3), all.mean()),
            cell("stderr", "stderr", Fmt::Num(3), all.std_err()),
        ],
    }
}

/// [`ratio`] of the speed-up over the base row, then `rest`.
fn speedup(d: &RowData, rest: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    let mut cells = ratio(d, "speedup", RunResult::speedup_over);
    cells.extend(rest);
    cells
}

/// The shapes most claims have. Each reads cells of the only-section
/// table by `(cores, label, key)`, is skipped (`None`) when one is
/// missing, and words what it measured in the column's own format.
impl Table<'_> {
    /// `at` for every reported chip size: holds when it holds at each.
    fn each_size(&self, at: impl Fn(u16) -> Option<Check>) -> Option<Check> {
        let mut ok = true;
        let mut measured = Vec::new();
        for cores in self.sizes() {
            let (holds, what) = at(cores)?;
            ok &= holds;
            measured.push(format!("{what} at {cores} cores"));
        }
        (!measured.is_empty()).then(|| (ok, measured.join("; ")))
    }

    /// At every size, `holds(key of row a, key of row b)`.
    fn compare(&self, key: &str, a: &str, b: &str, holds: fn(f64, f64) -> bool) -> Option<Check> {
        self.each_size(|c| {
            let (a, b) = (self.get(c, a, key)?, self.get(c, b, key)?);
            let measured = format!("{} vs {}", a.shown(), b.shown());
            Some((holds(a.value, b.value), measured))
        })
    }

    /// At every size, `key` of row `a` exceeds that of row `b`.
    fn above(&self, key: &str, a: &str, b: &str) -> Option<Check> {
        self.compare(key, a, b, |a, b| a > b)
    }

    /// At every size, `key` of row `label` lies in `lo..=hi`.
    fn within(&self, key: &str, label: &str, lo: f64, hi: f64) -> Option<Check> {
        self.each_size(|c| {
            let v = self.get(c, label, key)?;
            let (lo_shown, hi_shown) = (v.fmt.show(lo), v.fmt.show(hi));
            let measured = format!("{} (accepted: {lo_shown} to {hi_shown})", v.shown());
            Some(((lo..=hi).contains(&v.value), measured))
        })
    }

    /// `key` of row `label` at `cores` lies within `tolerance` of the paper's.
    fn near(
        &self,
        cores: u16,
        label: &str,
        key: &str,
        paper: f64,
        tolerance: f64,
    ) -> Option<Check> {
        let v = self.get(cores, label, key)?;
        let measured = format!("{} (paper {paper} ± {tolerance})", v.shown());
        Some(((v.value - paper).abs() <= tolerance, measured))
    }

    /// The extreme of column `key` at `cores` over the rows `pick` accepts:
    /// the largest, or with `sign` −1 the smallest.
    fn extreme(
        &self,
        cores: u16,
        key: &str,
        sign: f64,
        pick: fn(&str) -> bool,
    ) -> Option<(&Row, &Cell)> {
        let column = self.column(key).into_iter();
        let picked = column.filter(|(row, _)| row.cores == cores && pick(&row.label));
        picked.max_by(|a, b| (sign * a.1.value).total_cmp(&(sign * b.1.value)))
    }
}

/// Both checks, each with what it measured.
fn both(a: Option<Check>, b: Option<Check>) -> Option<Check> {
    let ((a, measured_a), (b, measured_b)) = (a?, b?);
    Some((a && b, format!("{measured_a}; {measured_b}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Claim, Verdict};
    use crate::{run_experiment, RunEnv};
    use std::collections::BTreeSet;

    fn env(vars: &[(&str, &str)]) -> RunEnv {
        RunEnv::parse(vars.iter().map(|&(k, v)| (k.to_owned(), v.to_owned()))).unwrap()
    }

    /// README.md's experiment list is [`EXPERIMENTS`], name for name.
    #[test]
    fn readme_experiment_list_is_the_experiments_table() {
        let readme = include_str!("../../../../README.md");
        let documented: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("- [x] `")?.split('`').next())
            .collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(documented, table);
    }

    #[test]
    fn a_row_key_used_twice_is_rejected_when_the_table_is_built() {
        let twice = Experiment {
            name: "twice",
            grid: |_| {
                Ok(vec![
                    Row::new("", 16, "a"),
                    Row::new("", 64, "a"),
                    Row::new("", 16, "a"),
                ])
            },
            ..PLAIN
        };
        let error = run_experiment(&twice, &env(&[])).unwrap_err();
        assert!(error.message.contains("used twice"), "{error:?}");
        let orphan = Experiment {
            name: "orphan",
            grid: |_| Ok(vec![Row::new("", 16, "a").base("b"), Row::new("", 64, "b")]),
            ..PLAIN
        };
        let error = run_experiment(&orphan, &env(&[])).unwrap_err();
        assert!(
            error.message.contains("`b`"),
            "a base in another size is no base: {error:?}"
        );
    }

    /// Every deviation a claim names has its row in EXPERIMENTS.md's
    /// "Named deviations" table, and every row there is named by a claim.
    #[test]
    fn deviations_are_the_ones_experiments_md_argues() {
        let named: BTreeSet<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.claims)
            .filter_map(|c| c.deviation)
            .collect();
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let table = doc.split("### Named deviations").nth(1).unwrap();
        let table = table.split("\n---").next().unwrap();
        let argued: BTreeSet<&str> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(named, argued);
    }

    /// Each verdict reaches `BENCH_<name>.json` and parses back from it.
    #[test]
    fn every_verdict_round_trips_through_the_summary() {
        const CLAIMS: &[Claim] = &[
            Claim {
                name: "true",
                paper: "the table has a row",
                deviation: Some("short-windows"),
                check: |t| t.each_size(|_| Some((true, "one".to_owned()))),
            },
            Claim {
                name: "known",
                paper: "the table has none",
                deviation: Some("short-windows"),
                check: |t| t.each_size(|_| Some((false, "one".to_owned()))),
            },
            Claim {
                name: "unknown",
                paper: "the table has none",
                deviation: None,
                check: |t| t.each_size(|_| Some((false, "one".to_owned()))),
            },
            Claim {
                name: "skipped",
                paper: "about a row that was not run",
                deviation: None,
                check: |t| t.each_size(|_| None),
            },
        ];
        let exp = Experiment {
            name: "verdicts",
            grid: |_| Ok(vec![Row::new("", 16, "a")]),
            claims: CLAIMS,
            ..PLAIN
        };
        let report = run_experiment(&exp, &env(&[])).unwrap();
        let json = &report.files[0];
        assert_eq!(json.0, "BENCH_verdicts.json");
        let back: crate::BenchSummary = serde_json::from_str(&json.1).unwrap();
        assert_eq!(back, report.summary);
        let verdicts: Vec<Verdict> = back
            .claims
            .iter()
            .map(|c| c.verdict.parse().unwrap())
            .collect();
        let known = Verdict::Deviates("short-windows".to_owned());
        assert_eq!(verdicts, [Verdict::Holds, known, Verdict::Fails]);
        assert!("deviates()".parse::<Verdict>().is_err());
        assert!("held".parse::<Verdict>().is_err());
    }
}
