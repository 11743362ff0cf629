//! The one place the process environment is read.
//!
//! Every `RC_*` variable is a row of [`KNOBS`] and ends up in a typed
//! field of [`RunEnv`], parsed once by a binary's `main`
//! ([`RunEnv::from_process`]) and handed down: no library crate, and no
//! other file of this one, looks at the environment. An `RC_*` name that
//! is not in the table, or a value that does not parse, is an error the
//! binaries exit on with status 2 before anything is simulated — a typo
//! must not cost a night of sweeping the defaults.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// One `RC_*` variable: a row of the knob table in README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The variable's name.
    pub name: &'static str,
    /// What it selects and the form its value takes.
    pub meaning: &'static str,
    /// The value an unset variable stands for, parsed like a set one
    /// (empty where the `meaning` says what leaving it empty selects).
    pub default: &'static str,
}

/// Every `RC_*` variable the workspace reads; any other `RC_*` name is
/// rejected. README.md's knob table is this table (a unit test below
/// compares them row by row).
#[rustfmt::skip] // a table: one row per variable
pub const KNOBS: &[Knob] = &[
    Knob { name: "RC_APPS", meaning: "`all`, or a comma list of workload names", default: "blackscholes,canneal,fft,ocean_cp,raytrace,swaptions,mix" },
    Knob { name: "RC_CYCLES", meaning: "measured cycles per run", default: "30000" },
    Knob { name: "RC_WARMUP", meaning: "warm-up cycles per run", default: "60000" },
    Knob { name: "RC_SEEDS", meaning: "seeds averaged per point", default: "1" },
    Knob { name: "RC_CORES", meaning: "comma list of core counts", default: "16,64" },
    Knob { name: "RC_SMALL_CACHES", meaning: "`1` = scaled-down caches (smoke runs), `0` = the paper's Table 2 sizes", default: "0" },
    Knob { name: "RC_MAX_CYCLES", meaning: "hard per-run cycle budget (warm-up + measure): a mis-set window truncates the run", default: "2000000" },
    Knob { name: "RC_JOBS", meaning: "sweep worker threads (`1` = serial path; empty = available parallelism)", default: "" },
    Knob { name: "RC_CACHE_DIR", meaning: "result-cache directory (empty = no cache)", default: "target/experiments/cache" },
    Knob { name: "RC_CKPT_DIR", meaning: "checkpoint sweep points to this directory, resume from it, dump wedged runs into it (empty = no checkpoints)", default: "" },
    Knob { name: "RC_CKPT_INTERVAL", meaning: "cycles between checkpoints under `RC_CKPT_DIR`", default: "100000" },
    Knob { name: "RC_TOPO_CYCLES", meaning: "`topology`: injection window per point", default: "3000" },
    Knob { name: "RC_TOPO_CORES", meaning: "`topology`: comma list of core counts", default: "64,256,1024" },
    Knob { name: "RC_UPDATE_GOLDEN", meaning: "tests only: `1` = rewrite the golden files instead of comparing", default: "0" },
];

/// The parsed `RC_*` environment of one process: a field per variable,
/// named after it ([`KNOBS`] has the meanings), two variables sharing a
/// field where they make one setting.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // the undocumented fields say what their KNOBS row says
pub struct RunEnv {
    pub apps: Vec<String>,
    /// The one workload the single-app studies (`scaling`, `convergence`,
    /// `ablations`) run: the first `RC_APPS` entry, canneal when unset.
    pub first_app: String,
    pub cycles: u64,
    pub warmup: u64,
    /// `RC_SEEDS=n` is the seeds `1..=n`.
    pub seeds: Vec<u64>,
    pub cores: Vec<u16>,
    pub small_caches: bool,
    pub max_cycles: u64,
    pub jobs: usize,
    /// `RC_CACHE_DIR`; `None` when it is set empty.
    pub cache_dir: Option<PathBuf>,
    /// `RC_CKPT_DIR` with `RC_CKPT_INTERVAL`; `None` without a directory.
    pub checkpoints: Option<(PathBuf, u64)>,
    pub topo_cycles: u64,
    pub topo_cores: Vec<u16>,
}

/// The `RC_*` variables a caller set, looked up against [`KNOBS`].
struct Vars(BTreeMap<String, String>);

impl Vars {
    /// The knob's value — what the caller set, else the table's default —
    /// through `parse`.
    fn get<T>(
        &self,
        name: &str,
        form: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let knob = KNOBS.iter().find(|k| k.name == name);
        let default = knob.expect("every variable read is a row of KNOBS").default;
        let raw = self.0.get(name).map_or(default, String::as_str);
        parse(raw).ok_or_else(|| format!("{name}={raw}: expected {form}"))
    }

    fn whole<T>(&self, name: &str, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        self.get(name, &format!("a whole number ≥ {min}"), |s| {
            s.parse().ok().filter(|n| *n >= min)
        })
    }

    fn flag(&self, name: &str) -> Result<bool, String> {
        self.get(name, "`0` or `1`", |s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        })
    }

    fn cores(&self, name: &str) -> Result<Vec<u16>, String> {
        self.get(name, "a comma list of core counts", |s| {
            s.split(',').map(|c| c.trim().parse().ok()).collect()
        })
    }

    /// A directory; `None` when empty.
    fn dir(&self, name: &str) -> Result<Option<PathBuf>, String> {
        self.get(name, "a directory path", |s| {
            Some((!s.is_empty()).then(|| PathBuf::from(s)))
        })
    }
}

impl RunEnv {
    /// [`RunEnv::parse`] of this process's environment.
    ///
    /// # Errors
    ///
    /// As [`RunEnv::parse`].
    pub fn from_process() -> Result<Self, String> {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        Self::parse(std::env::vars_os().map(|(k, v)| (lossy(k), lossy(v))))
    }

    /// Parses `(name, value)` pairs — the process environment, or a
    /// test's stand-in. Names that do not start with `RC_` are ignored.
    ///
    /// # Errors
    ///
    /// A message starting with the variable's name when an `RC_*` name is
    /// not in [`KNOBS`], or when a value does not have its knob's form (the
    /// message then quotes the value and the accepted form).
    pub fn parse(vars: impl IntoIterator<Item = (String, String)>) -> Result<Self, String> {
        let mut set = BTreeMap::new();
        for (name, value) in vars.into_iter().filter(|(n, _)| n.starts_with("RC_")) {
            if !KNOBS.iter().any(|k| k.name == name) {
                let known: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
                return Err(format!("{name}: not a knob ({})", known.join(", ")));
            }
            set.insert(name, value);
        }
        let vars = Vars(set);
        let names = rcsim_workload::workload_names();
        let apps: Vec<String> = vars.get(
            "RC_APPS",
            &format!("`all` or a comma list of {}", names.join(", ")),
            |s| {
                let list: Vec<&str> = match s {
                    "all" => names.clone(),
                    _ => s.split(',').map(str::trim).collect(),
                };
                let known = list.iter().all(|a| names.contains(a));
                known.then(|| list.iter().map(|&a| a.to_owned()).collect())
            },
        )?;
        let jobs = vars.get("RC_JOBS", "a whole number ≥ 1", |s| match s {
            "" => Some(std::thread::available_parallelism().map_or(1, usize::from)),
            _ => s.parse().ok().filter(|&n| n >= 1),
        })?;
        // The golden tests read it themselves; only its form is checked here.
        vars.flag("RC_UPDATE_GOLDEN")?;
        let ckpt_interval = vars.whole("RC_CKPT_INTERVAL", 1)?;
        Ok(Self {
            first_app: match vars.0.get("RC_APPS") {
                Some(_) => apps[0].clone(),
                None => "canneal".to_owned(),
            },
            apps,
            cycles: vars.whole("RC_CYCLES", 0)?,
            warmup: vars.whole("RC_WARMUP", 0)?,
            seeds: (1..=vars.whole("RC_SEEDS", 1)?).collect(),
            cores: vars.cores("RC_CORES")?,
            small_caches: vars.flag("RC_SMALL_CACHES")?,
            max_cycles: vars.whole("RC_MAX_CYCLES", 2)?,
            jobs,
            cache_dir: vars.dir("RC_CACHE_DIR")?,
            checkpoints: vars.dir("RC_CKPT_DIR")?.map(|d| (d, ckpt_interval)),
            topo_cycles: vars.whole("RC_TOPO_CYCLES", 0)?,
            topo_cores: vars.cores("RC_TOPO_CORES")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// README.md's knob table is [`KNOBS`], row for row: same names in
    /// the same order, same meanings, same defaults.
    #[test]
    fn readme_knob_table_is_the_knobs_table() {
        let readme = include_str!("../../../README.md");
        let documented: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `RC_")).collect();
        let table: Vec<String> = KNOBS
            .iter()
            .map(|k| format!("| `{}` | {} | {} |", k.name, k.meaning, k.default))
            .collect();
        assert_eq!(documented, table);
    }
}
