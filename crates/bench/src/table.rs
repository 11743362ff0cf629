//! Experiments as data: what an [`Experiment`] declares, and the one
//! driver ([`run_experiment`]) that turns a declaration into a report.
//! DESIGN.md §8b says what a row, a cell and a claim are; in short, a grid
//! is rows keyed `(section, cores, label)` with the jobs that measure
//! them, a row's cells are the single source of the printed table,
//! `<name>.md` and the row in `BENCH_<name>.json`, and a claim is a
//! sentence of the paper whose [`Verdict`] is reported, never enforced —
//! what must hold for the numbers to mean anything is `asserts`.
//!
//! Jobs go to the sweep runner as one submission-ordered list and come
//! back attached to their rows, so no experiment slices a result vector.

use crate::echo::{run_echo, EchoResult, EchoSpec};
use crate::env::RunEnv;
use crate::sweep::SweepRunner;
use rcsim_stats::Accumulator;
use rcsim_system::{RunResult, SimConfig, SimError};
use rcsim_trace::{BenchRow, BenchSummary, ClaimOutcome};
use std::fmt::Write as _;

/// One entry of [`crate::EXPERIMENTS`].
pub struct Experiment {
    /// What `rcsim-bench <name>` runs and `BENCH_<name>.json` is named after.
    pub name: &'static str,
    pub(crate) title: &'static str,
    /// The rows, in report order, for an environment.
    pub(crate) grid: fn(&RunEnv) -> Result<Vec<Row>, String>,
    /// A reported row's computed cells, in print order after its constants.
    pub(crate) cells: fn(&RowData) -> Vec<Cell>,
    pub(crate) claims: &'static [Claim],
    /// Conditions without which the rows mean nothing; `Err` fails the run.
    pub(crate) asserts: fn(&[RowData]) -> Result<(), String>,
    /// A Chrome trace of one small run, for `<name>_trace.json`.
    pub(crate) trace: Option<Trace>,
}

type Trace = fn(&RunEnv) -> Result<String, String>;

/// One row of a grid: its key `(section, cores, label)` — unique within
/// the grid — and the jobs that measure it, apps outer and seeds inner.
#[derive(Debug, Clone, Default)]
pub(crate) struct Row {
    /// The table of the experiment this row belongs to (`""`: the only one).
    pub section: &'static str,
    pub cores: u16,
    pub label: String,
    /// Full-system points, through the result cache and checkpoints.
    pub sims: Vec<(String, SimConfig)>,
    /// Network-only points ([`run_echo`]), uncached.
    pub nets: Vec<(String, EchoSpec)>,
    /// The label of this row's base row (same section, same size): the
    /// seed-paired baseline of a speed-up, the fault-free run of a curve.
    pub base: Option<String>,
    /// Runs but is not reported: it exists to be someone's base.
    pub hidden: bool,
    /// The row's constant cells (an offered load, a dead-link count, the
    /// paper's value for this row), reported before the computed ones.
    pub params: Vec<Cell>,
}

impl Row {
    pub fn new(section: &'static str, cores: u16, label: impl Into<String>) -> Self {
        Self {
            section,
            cores,
            label: label.into(),
            ..Self::default()
        }
    }

    pub fn sim(mut self, jobs: Vec<(String, SimConfig)>) -> Self {
        self.sims = jobs;
        self
    }

    /// Measured by one network-only point.
    pub fn net(mut self, spec: EchoSpec) -> Self {
        self.nets = vec![(format!("{}c {}", self.cores, self.label), spec)];
        self
    }

    pub fn base(mut self, label: impl Into<String>) -> Self {
        self.base = Some(label.into());
        self
    }

    pub fn hidden(mut self) -> Self {
        self.hidden = true;
        self
    }

    pub fn param(mut self, key: &str, header: &str, fmt: Fmt, value: f64) -> Self {
        self.params.push(cell(key, header, fmt, value));
        self
    }

    /// Cycles the row's full-system jobs measure, summed over them — the
    /// windows the configurations ask for, after every clamp.
    pub fn measured_cycles(&self) -> u64 {
        self.sims.iter().map(|(_, c)| c.measure_cycles).sum()
    }

    /// The interconnect label of the row's first job (`mesh` without one).
    fn topology(&self) -> String {
        let sim = self.sims.first().map(|(_, c)| c.topology);
        let net = self.nets.first().map(|(_, s)| s.topology);
        sim.or(net).unwrap_or_default().label()
    }
}

/// A row with its results: what cells and asserts read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowData<'a> {
    pub row: &'a Row,
    /// Results of its full-system jobs, in submission order.
    pub runs: &'a [RunResult],
    pub nets: &'a [EchoResult],
    /// The base row's `runs`, job for job (empty without a base).
    pub base_runs: &'a [RunResult],
    pub base_nets: &'a [EchoResult],
}

impl RowData<'_> {
    pub fn param(&self, key: &str) -> Option<f64> {
        let constant = self.row.params.iter().find(|c| c.key == key);
        constant.map(|c| c.value)
    }

    /// Mean of `f` over the runs, in submission order.
    pub fn mean(&self, f: impl Fn(&RunResult) -> f64) -> f64 {
        self.runs.iter().map(f).collect::<Accumulator>().mean()
    }

    pub fn total(&self, f: impl Fn(&RunResult) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    /// `f(run, base run)` over the seed-paired runs: `None` for a row
    /// that is nobody's comparison (it has no base).
    pub fn paired(&self, f: impl Fn(&RunResult, &RunResult) -> f64) -> Option<Accumulator> {
        self.row.base.as_ref()?;
        let pairs = self.runs.iter().zip(self.base_runs);
        Some(pairs.map(|(r, b)| f(r, b)).collect())
    }
}

/// The four fixed numbers of a `BenchRow`, for full-system runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Headline {
    pub avg_latency: f64,
    pub p99_latency: f64,
    pub p999_latency: f64,
    pub circuit_hit_rate: f64,
}

impl Headline {
    /// Count-weighted mean network latency across the Figure 7 message
    /// groups, the worst group p99 and p99.9 (a conservative tail envelope
    /// — tails cannot be averaged), and the mean fraction of replies that
    /// rode a circuit. All zero without runs.
    pub fn of(runs: &[RunResult]) -> Self {
        let mut weighted = 0.0;
        let mut count = 0u64;
        let mut h = Headline::default();
        for row in runs.iter().flat_map(|r| r.latency.values()) {
            weighted += row.network * row.count as f64;
            count += row.count;
            h.p99_latency = h.p99_latency.max(row.p99);
            h.p999_latency = h.p999_latency.max(row.p999);
        }
        if count > 0 {
            h.avg_latency = weighted / count as f64;
        }
        let hit = |r: &RunResult| r.outcomes.get("circuit").copied().unwrap_or(0.0);
        h.circuit_hit_rate = runs.iter().map(hit).collect::<Accumulator>().mean();
        h
    }
}

/// How a column's values print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fmt {
    /// As is, with this many decimals.
    Num(usize),
    /// A fraction as a percentage, with this many decimals.
    Pct(usize),
}

impl Fmt {
    pub fn show(self, v: f64) -> String {
        match self {
            Fmt::Num(p) => format!("{v:.p$}"),
            Fmt::Pct(p) => format!("{:.p$}%", 100.0 * v),
        }
    }
}

/// One value of a row under its column's key, heading and format. A cell
/// keyed like one of a `BenchRow`'s four fixed fields sets that field; any
/// other lands in the row's `extra`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cell {
    pub key: String,
    pub header: String,
    pub fmt: Fmt,
    pub value: f64,
    /// The paper's value, where it gives one for the whole column.
    pub paper: Option<f64>,
}

pub(crate) fn cell(key: &str, header: &str, fmt: Fmt, value: f64) -> Cell {
    Cell {
        key: key.to_owned(),
        header: header.to_owned(),
        fmt,
        value,
        paper: None,
    }
}

impl Cell {
    pub fn paper(mut self, value: f64) -> Self {
        self.paper = Some(value);
        self
    }

    pub fn shown(&self) -> String {
        self.fmt.show(self.value)
    }
}

/// One statement of the paper about an experiment's table.
pub(crate) struct Claim {
    /// Short stable name (`complete-beats-fragmented`).
    pub name: &'static str,
    /// The statement, with the paper's numbers.
    pub paper: &'static str,
    /// The row of EXPERIMENTS.md's "Named deviations" that explains why
    /// this reproduction is known to disagree, if it is.
    pub deviation: Option<&'static str>,
    /// Evaluates the statement: `None` when the rows it speaks about were
    /// not run (a size outside `RC_CORES`, a workload outside `RC_APPS`).
    pub check: fn(&Table) -> Option<Check>,
}

/// What a claim's check found: whether the statement holds for the
/// measured rows, and the measured numbers the decision rests on.
pub(crate) type Check = (bool, String);

/// The outcome of a claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The measured rows agree with the paper.
    Holds,
    /// They do not, for the named, documented reason.
    Deviates(String),
    /// They do not, and nothing explains it yet.
    Fails,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Holds => f.write_str("holds"),
            Verdict::Deviates(name) => write!(f, "deviates({name})"),
            Verdict::Fails => f.write_str("fails"),
        }
    }
}

impl std::str::FromStr for Verdict {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let named = s
            .strip_prefix("deviates(")
            .and_then(|r| r.strip_suffix(')'));
        match (s, named) {
            ("holds", _) => Ok(Verdict::Holds),
            ("fails", _) => Ok(Verdict::Fails),
            (_, Some(name)) if !name.is_empty() => Ok(Verdict::Deviates(name.to_owned())),
            _ => Err(format!("`{s}` is not holds, fails or deviates(<name>)")),
        }
    }
}

/// Why an experiment produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError {
    /// The watchdog declared a point stalled: exit status 2, not 1.
    pub stalled: bool,
    /// Every failed point (a stall with its health report), or the grid,
    /// assert or summary check that did not hold.
    pub message: String,
}

impl From<String> for BenchError {
    fn from(message: String) -> Self {
        Self {
            stalled: false,
            message,
        }
    }
}

/// The reported rows with their cells: what claims read.
pub(crate) struct Table<'a> {
    pub lines: Vec<(&'a Row, Vec<Cell>)>,
}

impl Table<'_> {
    /// Column `key` down the rows it applies to.
    pub fn column(&self, key: &str) -> Vec<(&Row, &Cell)> {
        let mut column = Vec::new();
        for (row, cells) in &self.lines {
            column.extend(cells.iter().find(|c| c.key == key).map(|c| (*row, c)));
        }
        column
    }

    /// Column `key` of the row labelled `label` at `cores`.
    pub fn get(&self, cores: u16, label: &str, key: &str) -> Option<&Cell> {
        let at = |(row, _): &&(&Row, Vec<Cell>)| row.cores == cores && row.label == label;
        let (_, cells) = self.lines.iter().find(at)?;
        cells.iter().find(|c| c.key == key)
    }

    /// The chip sizes of the rows, ascending.
    pub fn sizes(&self) -> Vec<u16> {
        let mut sizes: Vec<u16> = self.lines.iter().map(|l| l.0.cores).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }
}

/// What [`run_experiment`] hands back: nothing is printed or written
/// until the caller does it.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The `BENCH_<name>.json` document.
    pub summary: BenchSummary,
    /// For stdout: the title, a table per section, the claim verdicts.
    pub text: String,
    /// Files for `target/experiments/`, `(name, contents)`: the summary,
    /// the tables and verdicts as Markdown, the experiment's trace.
    pub files: Vec<(String, String)>,
}

/// Rejects a grid in which two rows share a key or a base names no row.
fn check_grid(rows: &[Row]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for row in rows {
        if !seen.insert((row.section, row.cores, &row.label)) {
            let key = (row.section, row.cores, &row.label);
            return Err(format!("row key {key:?} is used twice in one grid"));
        }
    }
    for row in rows {
        let orphan = |base: &&String| !seen.contains(&(row.section, row.cores, *base));
        if let Some(base) = row.base.as_ref().filter(orphan) {
            let label = &row.label;
            return Err(format!(
                "row `{label}` names a base `{base}` that is no row"
            ));
        }
    }
    Ok(())
}

/// Per row, the results of its full-system and of its network-only jobs.
type Measured = (Vec<Vec<RunResult>>, Vec<Vec<EchoResult>>);

/// The results of the points that ran, in order; one line per failure.
fn successes<T, R, E: std::fmt::Display>(
    jobs: &[(String, T)],
    results: Vec<Result<R, E>>,
    failures: &mut Vec<String>,
) -> Vec<R> {
    let mut ok = Vec::with_capacity(jobs.len());
    for ((label, _), res) in jobs.iter().zip(results) {
        match res {
            Ok(r) => ok.push(r),
            Err(e) => failures.push(format!("{label}: {e}")),
        }
    }
    ok
}

/// Runs every job of `rows` — full-system points through the cached
/// sweep, network-only points through the same pool uncached — and hands
/// each row its results; the sweeps' telemetry goes to `summary`. Every
/// failed point is reported before the run fails, so one stalled
/// configuration does not hide the rest; with `RC_CKPT_DIR` set the runner
/// also dumps a wedged chip as a checkpoint `rcsim-replay` loads.
fn run_jobs(
    rows: &[Row],
    env: &RunEnv,
    summary: &mut BenchSummary,
) -> Result<Measured, BenchError> {
    let runner = SweepRunner::for_env(env);
    let sims: Vec<(String, SimConfig)> = rows.iter().flat_map(|r| r.sims.clone()).collect();
    let nets: Vec<(String, EchoSpec)> = rows.iter().flat_map(|r| r.nets.clone()).collect();
    let ran = runner.run(&sims);
    let (net_results, net_stats) = runner.run_uncached(&nets, run_echo);
    summary.wall_ms = ran.stats.wall_ms + net_stats.wall_ms;
    summary.busy_ms = ran.stats.busy_ms + net_stats.busy_ms;
    summary.jobs = ran.stats.jobs.max(net_stats.jobs);
    summary.cached_points = ran.stats.cached;

    let stalled = |r: &Result<RunResult, SimError>| matches!(r, Err(SimError::Stalled { .. }));
    let stalled = ran.results.iter().any(stalled);
    let mut failures = Vec::new();
    let mut ok_sims = successes(&sims, ran.results, &mut failures).into_iter();
    let mut ok_nets = successes(&nets, net_results, &mut failures).into_iter();
    if !failures.is_empty() {
        let (failed, points) = (failures.len(), sims.len() + nets.len());
        let failures = failures.join("\n  ");
        let message = format!("{failed} of {points} sweep points failed:\n  {failures}");
        return Err(BenchError { stalled, message });
    }
    let runs = rows
        .iter()
        .map(|r| ok_sims.by_ref().take(r.sims.len()).collect());
    let nets = rows
        .iter()
        .map(|r| ok_nets.by_ref().take(r.nets.len()).collect());
    Ok((runs.collect(), nets.collect()))
}

/// Runs one experiment under `env`: builds and checks its grid, runs the
/// jobs, evaluates asserts, cells and claims, renders.
///
/// # Errors
///
/// [`BenchError`]: a grid that cannot be built or repeats a key, a point
/// that failed or stalled, an assert that does not hold, a summary that
/// violates its own invariants ([`BenchSummary::validate`]).
pub fn run_experiment(exp: &Experiment, env: &RunEnv) -> Result<Report, BenchError> {
    let rows = (exp.grid)(env)?;
    check_grid(&rows)?;
    let mut summary = BenchSummary::new(exp.name);
    let (runs, nets) = run_jobs(&rows, env, &mut summary)?;
    let data = |i: usize| {
        let row = &rows[i];
        let wanted = (row.section, row.cores, row.base.as_ref());
        let base = rows
            .iter()
            .position(|r| (r.section, r.cores, Some(&r.label)) == wanted);
        RowData {
            row,
            runs: &runs[i],
            nets: &nets[i],
            base_runs: base.map_or(&[], |b| &runs[b]),
            base_nets: base.map_or(&[], |b| &nets[b]),
        }
    };
    let data: Vec<RowData> = (0..rows.len()).map(data).collect();
    (exp.asserts)(&data)?;

    let reported = data.iter().filter(|d| !d.row.hidden);
    let cells = |d: &RowData| [d.row.params.clone(), (exp.cells)(d)].concat();
    let table = Table {
        lines: reported.clone().map(|d| (d.row, cells(d))).collect(),
    };
    for (d, (row, cells)) in reported.zip(&table.lines) {
        let h = Headline::of(d.runs);
        let mut out = BenchRow {
            label: row.label.clone(),
            cores: row.cores as usize,
            topology: row.topology(),
            avg_latency: h.avg_latency,
            p99_latency: h.p99_latency,
            p999_latency: h.p999_latency,
            circuit_hit_rate: h.circuit_hit_rate,
            extra: Default::default(),
        };
        for c in cells {
            match c.key.as_str() {
                "avg_latency" => out.avg_latency = c.value,
                "p99_latency" => out.p99_latency = c.value,
                "p999_latency" => out.p999_latency = c.value,
                "circuit_hit_rate" => out.circuit_hit_rate = c.value,
                _ => {
                    out.extra.insert(c.key.clone(), c.value);
                }
            }
        }
        out.circuit_hit_rate = out.circuit_hit_rate.clamp(0.0, 1.0);
        summary.push(out);
    }
    for claim in exp.claims {
        let Some((holds, measured)) = (claim.check)(&table) else {
            continue;
        };
        let verdict = match (holds, claim.deviation) {
            (true, _) => Verdict::Holds,
            (false, Some(name)) => Verdict::Deviates(name.to_owned()),
            (false, None) => Verdict::Fails,
        };
        summary.claims.push(ClaimOutcome {
            name: claim.name.to_owned(),
            paper: claim.paper.to_owned(),
            verdict: verdict.to_string(),
            measured,
        });
    }
    let problems = summary.validate();
    if !problems.is_empty() {
        return Err(format!("invalid bench summary '{}': {problems:?}", exp.name).into());
    }

    let markdown = render(&table, &summary.claims);
    let json = serde_json::to_string_pretty(&summary)
        .map_err(|e| format!("{}: summary does not serialize: {e}", exp.name))?;
    let mut files = vec![
        (format!("BENCH_{}.json", exp.name), json),
        (format!("{}.md", exp.name), markdown.clone()),
    ];
    if let Some(trace) = exp.trace {
        files.push((format!("{}_trace.json", exp.name), trace(env)?));
    }
    Ok(Report {
        summary,
        text: format!("{}\n\n{markdown}", exp.title),
        files,
    })
}

/// The one rendering, Markdown that also reads as plain text: per section
/// an aligned table of the columns any of its rows has a cell for (under a
/// `paper` line where cells carry the paper's value), then the verdicts.
fn render(table: &Table, claims: &[ClaimOutcome]) -> String {
    let mut md = String::new();
    let mut sections: Vec<&str> = Vec::new();
    for (row, _) in &table.lines {
        if !sections.contains(&row.section) {
            sections.push(row.section);
        }
    }
    for section in sections {
        let lines = || table.lines.iter().filter(|l| l.0.section == section);
        let mut columns: Vec<&Cell> = Vec::new();
        for c in lines().flat_map(|l| &l.1) {
            if !columns.iter().any(|k| k.key == c.key) {
                columns.push(c);
            }
        }
        let mut grid = vec![vec!["cores".to_owned(), "row".to_owned()]];
        grid[0].extend(columns.iter().map(|c| c.header.clone()));
        if columns.iter().any(|c| c.paper.is_some()) {
            let paper = |c: &&Cell| c.paper.map_or(String::new(), |v| c.fmt.show(v));
            grid.push(vec![String::new(), "paper".to_owned()]);
            grid[1].extend(columns.iter().map(paper));
        }
        for (row, cells) in lines() {
            let shown = |k: &&Cell| cells.iter().find(|c| c.key == k.key).map(Cell::shown);
            let mut line = vec![row.cores.to_string(), row.label.clone()];
            line.extend(columns.iter().map(|k| shown(k).unwrap_or_default()));
            grid.push(line);
        }
        let width = |c: usize| grid.iter().map(|l| l[c].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..grid[0].len()).map(width).collect();
        if !section.is_empty() {
            let _ = writeln!(md, "**{section}**\n");
        }
        for (n, line) in grid.iter().enumerate() {
            for (c, (cell, &w)) in line.iter().zip(&widths).enumerate() {
                // The row's name reads left to right; numbers line up right.
                let _ = match c {
                    1 => write!(md, "| {cell:<w$} "),
                    _ => write!(md, "| {cell:>w$} "),
                };
            }
            md.push_str("|\n");
            if n == 0 {
                let rule = widths.iter().map(|w| format!("|{}", "-".repeat(w + 2)));
                let _ = writeln!(md, "{}|", rule.collect::<String>());
            }
        }
        md.push('\n');
    }
    for c in claims {
        let (name, verdict, paper, measured) = (&c.name, &c.verdict, &c.paper, &c.measured);
        let _ = writeln!(
            md,
            "* `{name}` **{verdict}** — {paper} Measured: {measured}."
        );
    }
    md.truncate(md.trim_end().len());
    md.push('\n');
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::blank_run;
    use rcsim_system::LatencyRow;
    use std::collections::BTreeMap;

    #[test]
    fn headline_weights_latency_by_count() {
        let mut r = blank_run();
        let group = |network, p99, p999, count| LatencyRow {
            network,
            queueing: 0.0,
            p99,
            p999,
            count,
        };
        r.latency
            .insert("Request".into(), group(10.0, 40.0, 70.0, 3));
        r.latency
            .insert("Circuit_Rep".into(), group(20.0, 25.0, 90.0, 1));
        r.outcomes.insert("circuit".into(), 0.5);
        // (10*3 + 20*1) / 4 = 12.5; worst tails win; hit rate passes through.
        let expected = Headline {
            avg_latency: 12.5,
            p99_latency: 40.0,
            p999_latency: 90.0,
            circuit_hit_rate: 0.5,
        };
        assert_eq!(Headline::of(&[r]), expected);
        assert_eq!(Headline::of(&[]), Headline::default());
    }

    /// What a row's cells feed: the `BenchRow` and the rendering — a
    /// column shows only in the sections it has cells in, a cell keyed
    /// like a fixed field sets that field and is not stored again.
    #[test]
    fn one_cell_list_feeds_the_row_and_the_rendering() {
        let exp = Experiment {
            name: "unit",
            title: "A unit table",
            grid: |_| {
                let a = Row::new("first", 16, "a").param("x", "x share", Fmt::Pct(1), 0.25);
                let b = Row::new("second", 64, "b").param("y", "y", Fmt::Num(2), 3.0);
                let hidden = Row::new("second", 64, "hidden").hidden();
                Ok(vec![a, hidden, b.base("hidden")])
            },
            cells: |d| {
                let lat = d
                    .param("y")
                    .map(|y| cell("avg_latency", "lat", Fmt::Num(0), y));
                let z = d
                    .param("x")
                    .map(|x| cell("z", "z", Fmt::Num(1), 2.0 * x).paper(1.0));
                lat.into_iter().chain(z).collect()
            },
            claims: &[],
            asserts: |_| Ok(()),
            trace: None,
        };
        let vars = [("RC_CACHE_DIR".to_owned(), String::new())];
        let report = run_experiment(&exp, &RunEnv::parse(vars).unwrap()).unwrap();
        let rows = &report.summary.rows;
        assert_eq!(rows.len(), 2, "the hidden row is not reported");
        let first = [("x".to_owned(), 0.25), ("z".to_owned(), 0.5)];
        assert_eq!(rows[0].extra, BTreeMap::from(first));
        assert_eq!(rows[1].extra, BTreeMap::from([("y".to_owned(), 3.0)]));
        assert_eq!(
            (rows[1].avg_latency, rows[1].topology.as_str()),
            (3.0, "mesh")
        );
        let md = "**first**\n\n\
                  | cores | row   | x share |   z |\n|-------|-------|---------|-----|\n\
                  |       | paper |         | 1.0 |\n|    16 | a     |   25.0% | 0.5 |\n\n\
                  **second**\n\n\
                  | cores | row |    y | lat |\n|-------|-----|------|-----|\n\
                  |    64 | b   | 3.00 |   3 |\n";
        assert_eq!(report.text, format!("A unit table\n\n{md}"));
        assert_eq!(report.files[1], ("unit.md".to_owned(), md.to_owned()));
    }
}
