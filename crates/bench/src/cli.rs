//! The argv front of the nine `cobra-*` tools.
//!
//! Each tool keeps its own `match` over flag names; this module does
//! everything around that match, so all nine follow one rule (README,
//! "Command-line conventions"):
//!
//! - argv comes from [`std::env::args_os`], and an argument that is not
//!   UTF-8 is a usage error naming its position;
//! - `-h`/`--help` prints the tool's usage to stdout and exits 0;
//! - a flag's value is the next argument, verbatim: typed values go
//!   through [`FromStr`] and CSV values are split on `,` and trimmed;
//! - an argument starting with `-` that no arm takes is an unknown
//!   option, and a positional in a tool that takes none is an error;
//! - a usage error prints `<tool>: <msg>`, a blank line and the usage to
//!   stderr, and exits 2.
//!
//! It also holds the name resolvers the tools share: `--all`
//! ([`with_spec17`]), workload names ([`workload`]) and a `--designs`
//! selection ([`designs`]).

use crate::workload_by_name;
use cobra_core::composer::Design;
use cobra_workloads::{ProgramSpec, SPEC17_NAMES};
use std::ffi::OsString;
use std::process::ExitCode;
use std::str::FromStr;

/// Why parsing stopped before the tool ran.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// The answer (`--help`, `--list`) is already on stdout: exit 0.
    Done,
    /// A usage error: exit 2 after printing it with the usage text.
    Usage(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Usage(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Self {
        Stop::Usage(msg.to_string())
    }
}

/// A tool's arguments after the program name, taken left to right.
pub struct Args {
    usage: &'static str,
    argv: std::vec::IntoIter<OsString>,
    /// How many arguments have been taken (1-based position of the last).
    taken: usize,
    /// The last argument [`Args::next_arg`] returned: the flag a value
    /// belongs to.
    flag: String,
}

impl Args {
    /// `argv` (without the program name) for a tool whose help text is
    /// `usage`.
    fn new(usage: &'static str, argv: Vec<OsString>) -> Self {
        Self {
            usage,
            argv: argv.into_iter(),
            taken: 0,
            flag: String::new(),
        }
    }

    /// The next argument, or `None` after the last. `-h`/`--help` prints
    /// the usage and stops with [`Stop::Done`].
    pub fn next_arg(&mut self) -> Result<Option<String>, Stop> {
        let Some(arg) = self.take()? else {
            return Ok(None);
        };
        if arg == "-h" || arg == "--help" {
            println!("{}", self.usage);
            return Err(Stop::Done);
        }
        self.flag.clone_from(&arg);
        Ok(Some(arg))
    }

    /// The value of the flag [`Args::next_arg`] just returned.
    pub fn value(&mut self) -> Result<String, Stop> {
        self.take()?
            .ok_or_else(|| format!("`{}` needs a value", self.flag).into())
    }

    /// The flag's value parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, Stop> {
        let v = self.value()?;
        v.parse().map_err(|_| {
            let ty = std::any::type_name::<T>();
            format!("`{} {v}` is not a valid {ty}", self.flag).into()
        })
    }

    /// The flag's value split on commas, each item trimmed.
    pub fn csv(&mut self) -> Result<Vec<String>, Stop> {
        Ok(self
            .value()?
            .split(',')
            .map(|s| s.trim().to_string())
            .collect())
    }

    fn take(&mut self) -> Result<Option<String>, Stop> {
        let Some(raw) = self.argv.next() else {
            return Ok(None);
        };
        self.taken += 1;
        raw.into_string()
            .map(Some)
            .map_err(|raw| format!("argument {} ({raw:?}) is not valid UTF-8", self.taken).into())
    }
}

/// `arg` as a positional argument, or the usage error for it when it
/// looks like a flag.
pub fn positional(arg: String) -> Result<String, Stop> {
    if arg.starts_with('-') {
        Err(unexpected(&arg))
    } else {
        Ok(arg)
    }
}

/// The usage error for an argument no arm of a tool's `match` takes.
pub fn unexpected(arg: &str) -> Stop {
    if arg.starts_with('-') {
        Stop::Usage(format!("unknown option `{arg}`"))
    } else {
        Stop::Usage(format!("unexpected argument `{arg}`"))
    }
}

/// Runs a tool's `parse` over this process's argv. On [`Stop::Done`]
/// this returns exit code 0; on a usage error it prints
/// `<tool>: <msg>`, a blank line and `usage` to stderr and returns 2.
pub fn parse<T>(
    tool: &str,
    usage: &'static str,
    parse: impl FnOnce(&mut Args) -> Result<T, Stop>,
) -> Result<T, ExitCode> {
    let mut args = Args::new(usage, std::env::args_os().skip(1).collect());
    parse(&mut args).map_err(|stop| match stop {
        Stop::Done => ExitCode::SUCCESS,
        Stop::Usage(msg) => {
            eprintln!("{tool}: {msg}\n\n{usage}");
            ExitCode::from(2)
        }
    })
}

/// `names` followed by every SPECint17 profile it does not already name
/// (case-insensitively): what `--all` adds.
pub fn with_spec17(mut names: Vec<String>) -> Vec<String> {
    for n in SPEC17_NAMES {
        if !names.iter().any(|w| w.eq_ignore_ascii_case(n)) {
            names.push((*n).to_string());
        }
    }
    names
}

/// Resolves a workload name through [`workload_by_name`].
pub fn workload(name: &str) -> Result<ProgramSpec, Stop> {
    workload_by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try --list)").into())
}

/// The stock designs (`designs::all`) a `--designs` list names, in the
/// list's order, or all of them when `names` is `None`.
pub fn designs(names: Option<&[String]>) -> Result<Vec<Design>, Stop> {
    let all = || cobra_core::designs::all().into_iter();
    let Some(names) = names else {
        return Ok(all().collect());
    };
    names
        .iter()
        .map(|n| {
            all()
                .find(|d| d.name.eq_ignore_ascii_case(n))
                .ok_or_else(|| {
                    let known: Vec<String> = all().map(|d| d.name).collect();
                    format!("unknown design `{n}` (one of {})", known.join(", ")).into()
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new("USAGE", argv.iter().map(OsString::from).collect())
    }

    fn usage<T: std::fmt::Debug>(r: Result<T, Stop>) -> String {
        match r {
            Err(Stop::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn flags_values_and_positionals_come_in_order() {
        let mut a = args(&["--out", "dir", "gcc", "--k", "8"]);
        assert_eq!(a.next_arg(), Ok(Some("--out".into())));
        assert_eq!(a.value(), Ok("dir".into()));
        assert_eq!(
            a.next_arg().and_then(|p| positional(p.unwrap())),
            Ok("gcc".into())
        );
        assert_eq!(a.next_arg(), Ok(Some("--k".into())));
        assert_eq!(a.parse::<usize>(), Ok(8));
        assert_eq!(a.next_arg(), Ok(None));
    }

    #[test]
    fn a_value_is_taken_verbatim_even_when_it_looks_like_a_flag() {
        let mut a = args(&["--out", "--help"]);
        a.next_arg().unwrap();
        assert_eq!(a.value(), Ok("--help".into()));
    }

    #[test]
    fn help_stops_with_done() {
        assert_eq!(args(&["-h"]).next_arg(), Err(Stop::Done));
        assert_eq!(args(&["--help", "--zz"]).next_arg(), Err(Stop::Done));
    }

    #[test]
    fn a_missing_value_names_its_flag() {
        let mut a = args(&["--budget"]);
        a.next_arg().unwrap();
        assert_eq!(usage(a.parse::<f64>()), "`--budget` needs a value");
    }

    #[test]
    fn a_bad_or_out_of_range_value_names_flag_value_and_type() {
        let mut a = args(&["--width", "999", "--budget", "lots"]);
        a.next_arg().unwrap();
        assert_eq!(usage(a.parse::<u8>()), "`--width 999` is not a valid u8");
        a.next_arg().unwrap();
        assert_eq!(
            usage(a.parse::<f64>()),
            "`--budget lots` is not a valid f64"
        );
    }

    #[test]
    fn csv_values_are_split_and_trimmed() {
        let mut a = args(&["--designs", " TAGE-L, B2 ,"]);
        a.next_arg().unwrap();
        assert_eq!(
            a.csv(),
            Ok(vec!["TAGE-L".into(), "B2".into(), String::new()])
        );
    }

    #[test]
    fn flag_like_strays_are_unknown_options_and_others_unexpected() {
        assert_eq!(usage(positional("-x".into())), "unknown option `-x`");
        assert_eq!(
            usage::<()>(Err(unexpected("gcc"))),
            "unexpected argument `gcc`"
        );
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_is_a_usage_error_at_its_position() {
        use std::os::unix::ffi::OsStringExt;
        let argv = vec![
            OsString::from("--out"),
            OsString::from_vec(vec![b'a', 0xff]),
        ];
        let mut a = Args::new("USAGE", argv);
        a.next_arg().unwrap();
        assert_eq!(
            usage(a.value()),
            "argument 2 (\"a\\xFF\") is not valid UTF-8"
        );
    }

    #[test]
    fn all_adds_each_spec17_profile_not_yet_named() {
        let names = with_spec17(vec!["GCC".into(), "dhrystone".into()]);
        assert_eq!(names.len(), SPEC17_NAMES.len() + 1);
        assert_eq!(names[..2], ["GCC".to_string(), "dhrystone".to_string()]);
        assert!(names.iter().all(|n| workload(n).is_ok()));
    }

    #[test]
    fn unknown_names_are_usage_errors() {
        assert_eq!(
            usage(workload("nope")),
            "unknown workload `nope` (try --list)"
        );
        assert_eq!(
            usage(designs(Some(&["tage-l".into(), "nope".into()]))),
            "unknown design `nope` (one of Tournament, B2, TAGE-L)"
        );
        let picked = designs(Some(&["tage-l".into(), "B2".into()])).unwrap();
        let names: Vec<&str> = picked.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["TAGE-L", "B2"]);
        assert_eq!(designs(None).unwrap().len(), 3);
    }
}
