//! Runtime configuration: the `COBRA_*` environment knobs, parsed once.
//!
//! Every runtime knob is an environment variable listed in [`KNOBS`],
//! the table `docs/CONFIG.md` mirrors (a test keeps the two in step).
//! Each knob is read by one of four [`Rule`]s, and all of them share one
//! warn-and-default rule: a value its rule rejects produces exactly one
//! warning naming the variable, the value and the default used, and the
//! knob then takes that default.
//!
//! [`Config::from_vars`] is the pure parser. [`get`] is the process
//! value, resolved from the environment on first use, which is when any
//! warnings are printed. This module is the only place that reads the
//! environment; tests that vary a knob in-process call [`set`] with a
//! modified copy of [`get`] instead of mutating the environment.
//!
//! Knobs change how a simulation runs, never what it computes, so the
//! config is not part of any core configuration or its hash.

use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};

/// How a knob's value is parsed. Every rule trims surrounding whitespace
/// and reads an empty value as unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Case-insensitive `1`/`on`/`true`/`yes` or `0`/`off`/`false`/`no`.
    Flag,
    /// A non-negative integer; `_` separators are allowed.
    Count,
    /// A file path or path template.
    Path,
    /// A path that must name an existing directory.
    Dir,
}

/// One environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// How its value is parsed.
    pub rule: Rule,
    /// The default, as `docs/CONFIG.md` states it.
    pub default: &'static str,
    /// What it controls, including any clamp or "0 means off".
    pub doc: &'static str,
}

const fn knob(name: &'static str, rule: Rule, default: &'static str, doc: &'static str) -> Knob {
    Knob {
        name,
        rule,
        default,
        doc,
    }
}

/// Every knob, in `docs/CONFIG.md` order.
#[rustfmt::skip]
pub const KNOBS: [Knob; 15] = [
    knob("COBRA_INSTS", Rule::Count, "500000", "measured instructions per run; 0 is clamped to 1"),
    knob("COBRA_THREADS", Rule::Count, "available parallelism", "worker threads; 0 is clamped to 1"),
    knob("COBRA_PLAN", Rule::Flag, "on", "off selects the reference interpreter fold"),
    knob("COBRA_VERIFY_PLAN", Rule::Flag, "off", "verify every lowered plan at build time"),
    knob("COBRA_SANITIZE", Rule::Flag, "off", "compose the runtime invariant sanitizer"),
    knob("COBRA_TRACE_DIR", Rule::Dir, "unset", "replay <workload>.cbt traces from here"),
    knob("COBRA_CKPT_DIR", Rule::Dir, "unset", "restore warm-state .cbs checkpoints from here"),
    knob("COBRA_SAMPLE_DIR", Rule::Dir, "unset", "estimate planned workloads from sampling plans here"),
    knob("COBRA_SAMPLE_WARMUP", Rule::Count, "2× the plan's interval length", "cold warm-up per sampled slice"),
    knob("COBRA_TRACE", Rule::Path, "unset", "event-trace path template"),
    knob("COBRA_METRICS", Rule::Path, "unset", "per-job JSONL metrics file"),
    knob("COBRA_INTERVAL", Rule::Count, "unset", "interval-telemetry length; 0 means off"),
    knob("COBRA_INTERVAL_DIR", Rule::Path, "metrics/", "where .cbm interval files go"),
    knob("COBRA_PROGRESS", Rule::Count, "unset", "per-job heartbeat period; 0 means off"),
    knob("COBRA_PROFILE", Rule::Flag, "off", "arm the plan-node self-profiler"),
];

/// The resolved value of every knob, one typed field each; see
/// [`KNOBS`] for the clamps and "0 means off" already applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// `COBRA_INSTS` (at least 1); the warm-up is 40 % of it.
    pub insts: u64,
    /// `COBRA_THREADS` (at least 1).
    pub threads: usize,
    /// `COBRA_PLAN`: `false` selects the reference interpreter.
    pub plan: bool,
    /// `COBRA_VERIFY_PLAN`.
    pub verify_plan: bool,
    /// `COBRA_SANITIZE`, or the `sanitize` cargo feature.
    pub sanitize: bool,
    /// `COBRA_TRACE_DIR`.
    pub trace_dir: Option<PathBuf>,
    /// `COBRA_CKPT_DIR`.
    pub ckpt_dir: Option<PathBuf>,
    /// `COBRA_SAMPLE_DIR`.
    pub sample_dir: Option<PathBuf>,
    /// `COBRA_SAMPLE_WARMUP` (`None`: twice the plan's interval length).
    pub sample_warmup: Option<u64>,
    /// `COBRA_TRACE`: the event-trace path template.
    pub trace: Option<String>,
    /// `COBRA_METRICS`.
    pub metrics: Option<PathBuf>,
    /// `COBRA_INTERVAL` (`None`: off).
    pub interval: Option<u64>,
    /// `COBRA_INTERVAL_DIR`.
    pub interval_dir: PathBuf,
    /// `COBRA_PROGRESS` (`None`: off).
    pub progress: Option<u64>,
    /// `COBRA_PROFILE`.
    pub profile: bool,
}

impl Default for Config {
    /// Every knob unset.
    fn default() -> Self {
        Self {
            insts: 500_000,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            plan: true,
            verify_plan: false,
            sanitize: cfg!(feature = "sanitize"),
            trace_dir: None,
            ckpt_dir: None,
            sample_dir: None,
            sample_warmup: None,
            trace: None,
            metrics: None,
            interval: None,
            interval_dir: PathBuf::from("metrics"),
            progress: None,
            profile: false,
        }
    }
}

impl Config {
    /// Parses every knob from `lookup` (the environment, for [`get`]),
    /// returning the config and one warning per rejected value. Touches
    /// nothing but `lookup` and, for [`Rule::Dir`] knobs, the file
    /// system.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<OsString>) -> (Self, Vec<String>) {
        let mut v = Vars {
            lookup,
            warnings: Vec::new(),
        };
        let d = Self::default();
        let config = Self {
            insts: v.count("COBRA_INSTS").map_or(d.insts, |n| n.max(1)),
            threads: v.count("COBRA_THREADS").map_or(d.threads, at_least_one),
            plan: v.flag("COBRA_PLAN").unwrap_or(d.plan),
            verify_plan: v.flag("COBRA_VERIFY_PLAN").unwrap_or(d.verify_plan),
            // The cargo feature cannot be switched off at run time.
            sanitize: v.flag("COBRA_SANITIZE").unwrap_or(false) || d.sanitize,
            trace_dir: v.dir("COBRA_TRACE_DIR"),
            ckpt_dir: v.dir("COBRA_CKPT_DIR"),
            sample_dir: v.dir("COBRA_SAMPLE_DIR"),
            sample_warmup: v.count("COBRA_SAMPLE_WARMUP"),
            trace: v.path("COBRA_TRACE"),
            metrics: v.path("COBRA_METRICS").map(PathBuf::from),
            interval: v.count("COBRA_INTERVAL").filter(|&n| n > 0),
            interval_dir: v
                .path("COBRA_INTERVAL_DIR")
                .map_or(d.interval_dir, PathBuf::from),
            progress: v.count("COBRA_PROGRESS").filter(|&n| n > 0),
            profile: v.flag("COBRA_PROFILE").unwrap_or(d.profile),
        };
        (config, v.warnings)
    }
}

fn at_least_one(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX).max(1)
}

/// The knob parser: one method per [`Rule`], each returning `None` for
/// an unset or rejected value and recording one warning per rejection.
struct Vars<F> {
    lookup: F,
    warnings: Vec<String>,
}

impl<F: Fn(&str) -> Option<OsString>> Vars<F> {
    /// The trimmed value of `name`, or `None` when it is unset or empty.
    fn raw(&mut self, name: &str, rule: Rule) -> Option<String> {
        debug_assert_eq!(
            lookup_knob(name).rule,
            rule,
            "{name} parsed by the wrong rule"
        );
        let value = (self.lookup)(name)?;
        match value.into_string() {
            Ok(s) => Some(s.trim().to_string()).filter(|s| !s.is_empty()),
            Err(bytes) => {
                self.reject(name, &bytes.to_string_lossy(), "is not UTF-8");
                None
            }
        }
    }

    fn reject(&mut self, name: &str, value: &str, why: &str) {
        let default = lookup_knob(name).default;
        self.warnings.push(format!(
            "warning: {name}={value:?} {why}; using the default ({default})"
        ));
    }

    fn flag(&mut self, name: &str) -> Option<bool> {
        let v = self.raw(name, Rule::Flag)?;
        match v.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" | "yes" => Some(true),
            "0" | "off" | "false" | "no" => Some(false),
            _ => {
                self.reject(name, &v, "is not 1/on/true/yes or 0/off/false/no");
                None
            }
        }
    }

    fn count(&mut self, name: &str) -> Option<u64> {
        let v = self.raw(name, Rule::Count)?;
        match v.replace('_', "").parse() {
            Ok(n) => Some(n),
            Err(_) => {
                self.reject(name, &v, "is not a non-negative integer");
                None
            }
        }
    }

    fn path(&mut self, name: &str) -> Option<String> {
        self.raw(name, Rule::Path)
    }

    fn dir(&mut self, name: &str) -> Option<PathBuf> {
        let v = self.raw(name, Rule::Dir)?;
        if PathBuf::from(&v).is_dir() {
            Some(PathBuf::from(v))
        } else {
            self.reject(name, &v, "is not a directory");
            None
        }
    }
}

fn lookup_knob(name: &str) -> &'static Knob {
    KNOBS
        .iter()
        .find(|k| k.name == name)
        .expect("every parsed knob is in KNOBS")
}

/// The process config; `None` until first resolved or set. Every write
/// stores a whole value, so a guard recovered from a poisoned lock still
/// holds a valid config.
static CURRENT: RwLock<Option<Arc<Config>>> = RwLock::new(None);

/// The process config: the last [`set`] value, else the environment
/// parsed on first use (printing its warnings to stderr then, once).
pub fn get() -> Arc<Config> {
    if let Some(config) = CURRENT
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        return Arc::clone(config);
    }
    let mut slot = CURRENT.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(slot.get_or_insert_with(|| {
        let (config, warnings) = Config::from_vars(|name| std::env::var_os(name));
        for w in &warnings {
            eprintln!("{w}");
        }
        Arc::new(config)
    }))
}

/// Replaces the process config. Pipelines and units built afterwards
/// see the new value; ones already built keep what they read.
pub fn set(config: Config) {
    *CURRENT.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(config));
}
