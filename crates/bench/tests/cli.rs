//! Hostile argv for the nine `cobra-*` tools, each run as a child
//! process in an empty working directory: whatever the arguments, a tool
//! answers `--help`/`--list` (exit 0) or reports a usage error
//! (`<tool>: <msg>`, a blank line and its usage on stderr, exit 2). It
//! never panics, and it writes nothing before its arguments parse.

use cobra_bench::jsonv::{self, Json};
use cobra_core::config::KNOBS;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, Output};

const TOOLS: [(&str, &str); 9] = [
    ("cobra-area", env!("CARGO_BIN_EXE_cobra-area")),
    ("cobra-capture", env!("CARGO_BIN_EXE_cobra-capture")),
    ("cobra-checkpoint", env!("CARGO_BIN_EXE_cobra-checkpoint")),
    ("cobra-lint", env!("CARGO_BIN_EXE_cobra-lint")),
    ("cobra-report", env!("CARGO_BIN_EXE_cobra-report")),
    ("cobra-sample", env!("CARGO_BIN_EXE_cobra-sample")),
    ("cobra-search", env!("CARGO_BIN_EXE_cobra-search")),
    ("cobra-serve", env!("CARGO_BIN_EXE_cobra-serve")),
    ("cobra-trace", env!("CARGO_BIN_EXE_cobra-trace")),
];

/// Appended twice to every garbled argv: a flag that takes a value can
/// swallow the first, so the second always fails the parse before the
/// tool does any work.
const NO_SUCH_FLAG: &str = "--zz-no-such-flag";

/// An empty working directory for one test, removed afterwards.
struct Cwd(PathBuf);

impl Cwd {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cobra-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Cwd(dir)
    }

    fn assert_empty(&self, what: &str) {
        let left: Vec<_> = std::fs::read_dir(&self.0)
            .expect("scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(left.is_empty(), "{what} wrote {left:?}");
    }
}

impl Drop for Cwd {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `exe` with `args` in `cwd`, with every `COBRA_*` knob removed.
fn run(exe: &str, cwd: &Cwd, args: &[OsString]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(&cwd.0);
    for knob in &KNOBS {
        cmd.env_remove(knob.name);
    }
    cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn os(args: &[&str]) -> Vec<OsString> {
    args.iter().map(OsString::from).collect()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A tool's usage text, as `--help` prints it.
fn usage(tool: &str, exe: &str, cwd: &Cwd) -> String {
    let out = run(exe, cwd, &os(&["--help"]));
    assert_eq!(out.status.code(), Some(0), "{tool} --help");
    let usage = text(&out.stdout);
    assert!(usage.starts_with(&format!("usage: {tool} ")), "{usage}");
    usage
}

/// Every `--flag` a usage text names, in order, without repeats.
fn flags(usage: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for word in usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
        let is_flag =
            word.len() > 2 && word.starts_with("--") && word.as_bytes()[2].is_ascii_lowercase();
        if is_flag && !out.iter().any(|f| f == word) {
            out.push(word.to_string());
        }
    }
    out
}

/// The arguments `cobra-sample` needs before any flag: its command.
fn lead(tool: &str) -> Vec<OsString> {
    if tool == "cobra-sample" {
        os(&["plan"])
    } else {
        Vec::new()
    }
}

/// Checks the one outcome rule: exit 0 with an answer on stdout, or
/// exit 2 with `<tool>: <msg>`, a blank line and the usage on stderr.
/// Returns stderr.
fn assert_clean_exit(tool: &str, usage: &str, args: &[OsString], out: &Output) -> String {
    let err = text(&out.stderr);
    match out.status.code() {
        Some(0) => assert!(!out.stdout.is_empty(), "{tool} {args:?}: exit 0, no output"),
        Some(2) => {
            assert!(
                err.starts_with(&format!("{tool}: ")),
                "{tool} {args:?}: {err}"
            );
            assert!(
                err.ends_with(&format!("\n\n{usage}")),
                "{tool} {args:?}: no usage after the message: {err}"
            );
        }
        code => panic!("{tool} {args:?}: exit {code:?}\n{err}"),
    }
    err
}

/// xorshift64: a fixed, dependency-free token stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "8",
    "-1",
    "999",
    "2.5",
    "1e3",
    "nan",
    "0x10",
    "18446744073709551616",
    "",
];
const CSVS: &[&str] = &["gcc,xz", "TAGE-L, B2", ",", "gcc,,nope", "Tournament"];
const CHARS: &[char] = &[
    'a', 'Z', '-', '_', '.', '/', ' ', 'é', '€', '😀', '\u{202e}',
];

fn garbled_token(rng: &mut Rng, flags: &[String]) -> OsString {
    match rng.next() % 8 {
        0..=2 => OsString::from(rng.pick(flags)),
        3 => OsString::from(rng.pick(NUMBERS)),
        4 => OsString::from(rng.pick(CSVS)),
        5 | 6 => {
            let len = 1 + rng.next() % 8;
            OsString::from((0..len).map(|_| *rng.pick(CHARS)).collect::<String>())
        }
        _ => raw_bytes(rng),
    }
}

#[cfg(unix)]
fn raw_bytes(rng: &mut Rng) -> OsString {
    use std::os::unix::ffi::OsStringExt;
    let len = 1 + rng.next() % 4;
    let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next() % 255 + 1) as u8).collect();
    bytes[0] |= 0xf8; // bytes 0xF8..=0xFF never occur in UTF-8
    OsString::from_vec(bytes)
}

#[cfg(not(unix))]
fn raw_bytes(rng: &mut Rng) -> OsString {
    OsString::from(rng.pick(NUMBERS))
}

/// About 30 garbled argv per tool, each ending in two unknown flags.
#[test]
fn garbled_argv_exits_0_or_2_and_writes_nothing() {
    let cwd = Cwd::new("garbled");
    for (i, (tool, exe)) in TOOLS.iter().enumerate() {
        let usage = usage(tool, exe, &cwd);
        let flags = flags(&usage);
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (i as u64 + 1));
        for round in 0..30 {
            let mut args = if round % 2 == 0 {
                lead(tool)
            } else {
                Vec::new()
            };
            let len = rng.next() % 7;
            args.extend((0..len).map(|_| garbled_token(&mut rng, &flags)));
            args.extend(os(&[NO_SUCH_FLAG, NO_SUCH_FLAG]));
            let out = run(exe, &cwd, &args);
            assert_clean_exit(tool, &usage, &args, &out);
            cwd.assert_empty(&format!("{tool} {args:?}"));
        }
    }
}

/// Every flag a tool's `--help` lists is one its parser takes: with two
/// unknown flags after it, the parse fails on those (or on the value
/// the flag took), never on the listed flag itself.
#[test]
fn every_flag_in_usage_is_accepted() {
    let cwd = Cwd::new("drift");
    for (tool, exe) in TOOLS {
        let usage = usage(tool, exe, &cwd);
        let flags = flags(&usage);
        assert!(flags.len() >= 3, "{tool}: too few flags in {usage}");
        for flag in flags.iter().filter(|f| *f != "--help") {
            let mut args = lead(tool);
            args.extend(os(&[flag, "--zz", "--zz"]));
            let out = run(exe, &cwd, &args);
            let err = assert_clean_exit(tool, &usage, &args, &out);
            if out.status.code() == Some(2) {
                let first = err.lines().next().unwrap_or_default();
                assert!(first.contains("--zz"), "{tool} {flag}: {first}");
                assert!(!first.contains(&format!("option `{flag}`")), "{first}");
            }
            cwd.assert_empty(&format!("{tool} {flag}"));
        }
    }
}

/// The committed golden full runs and the plans they were sampled from.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig10_full.jsonl");
const PLANS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plans");

/// `cobra-sample` has no `--list`, so its unknown-workload error names
/// every workload instead of pointing at one.
const SAMPLE_UNKNOWN_WORKLOAD: &str = "unknown workload `nope` (one of perlbench, gcc, mcf, \
     omnetpp, xalancbmk, x264, deepsjeng, leela, exchange2, xz, dhrystone, coremark, \
     aliasing_stress, loop_stress, history_depth, btb_stress, ras_stress)";

/// One exact message per kind of usage error.
#[test]
fn usage_errors_name_the_argument_exactly() {
    let cwd = Cwd::new("table");
    let rows: &[(&str, &[&str], &str)] = &[
        (
            "cobra-area",
            &["--all", "--budget"],
            "`--budget` needs a value",
        ),
        (
            "cobra-search",
            &["--budget", "lots"],
            "`--budget lots` is not a valid f64",
        ),
        (
            "cobra-serve",
            &["--threads", "-1"],
            "`--threads -1` is not a valid usize",
        ),
        (
            "cobra-area",
            &["--width", "999"],
            "`--width 999` is not a valid u8",
        ),
        ("cobra-area", &["-x"], "unknown option `-x`"),
        ("cobra-lint", &["-x"], "unknown option `-x`"),
        ("cobra-sample", &["run", "-x"], "unknown option `-x`"),
        ("cobra-search", &["gcc"], "unexpected argument `gcc`"),
        ("cobra-serve", &["gcc"], "unexpected argument `gcc`"),
        (
            "cobra-checkpoint",
            &["gcc", "--designs", "TAGE-L,nope"],
            "unknown design `nope` (one of Tournament, B2, TAGE-L)",
        ),
        (
            "cobra-sample",
            &["ckpt", "--designs", "nope"],
            "unknown design `nope` (one of Tournament, B2, TAGE-L)",
        ),
        (
            "cobra-sample",
            &["run", "TAGE-L"],
            "`run` takes exactly DESIGN WORKLOAD",
        ),
        (
            "cobra-sample",
            &["run", "nope", "gcc"],
            "unknown design `nope` (one of Tournament, B2, TAGE-L, TAGE-SC-L, TAGE-L+IT, \
             Perceptron, TAGE-L/lat2)",
        ),
        (
            "cobra-sample",
            &["run", "TAGE-L", "nope"],
            SAMPLE_UNKNOWN_WORKLOAD,
        ),
        ("cobra-sample", &["ckpt", "nope"], SAMPLE_UNKNOWN_WORKLOAD),
        (
            "cobra-sample",
            &["check", "gcc", "nope"],
            SAMPLE_UNKNOWN_WORKLOAD,
        ),
        (
            "cobra-sample",
            &["check", "--golden", GOLDEN, "dhrystone"],
            concat!(
                "no golden row for Tournament/dhrystone in ",
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/fig10_full.jsonl"
            ),
        ),
        (
            "cobra-capture",
            &["nope"],
            "unknown workload `nope` (try --list)",
        ),
        (
            "cobra-trace",
            &["TAGE-L", "nope"],
            "unknown workload `nope` (try --list)",
        ),
    ];
    for (tool, args, msg) in rows {
        let exe = TOOLS.iter().find(|(t, _)| t == tool).expect("known tool").1;
        let usage = usage(tool, exe, &cwd);
        let out = run(exe, &cwd, &os(args));
        assert_eq!(out.status.code(), Some(2), "{tool} {args:?}");
        assert_eq!(text(&out.stderr), format!("{tool}: {msg}\n\n{usage}"));
        assert!(out.stdout.is_empty(), "{tool} {args:?}");
        cwd.assert_empty(&format!("{tool} {args:?}"));
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_are_usage_errors_at_their_position() {
    use std::os::unix::ffi::OsStringExt;
    let cwd = Cwd::new("utf8");
    for (tool, exe) in TOOLS {
        let usage = usage(tool, exe, &cwd);
        let mut args = lead(tool);
        args.push(OsString::from_vec(vec![0xff]));
        let out = run(exe, &cwd, &args);
        let msg = format!("argument {} (\"\\xFF\") is not valid UTF-8", args.len());
        assert_eq!(out.status.code(), Some(2), "{tool}");
        assert_eq!(text(&out.stderr), format!("{tool}: {msg}\n\n{usage}"));
    }
}

/// `cobra-sample check` gates only the cells named on argv: one design on
/// one workload gives a report of exactly that cell.
#[test]
fn sample_check_gates_only_the_named_cells() {
    let cwd = Cwd::new("check");
    let exe = env!("CARGO_BIN_EXE_cobra-sample");
    let mut cmd = Command::new(exe);
    cmd.args([
        "check",
        "--plans",
        PLANS,
        "--golden",
        GOLDEN,
        "--designs",
        "TAGE-L",
        "--bound",
        "100",
        "--report",
        "report.json",
        "gcc",
    ])
    .current_dir(&cwd.0);
    for knob in &KNOBS {
        cmd.env_remove(knob.name);
    }
    // The golden rows were blessed at the default scale.
    cmd.env("COBRA_INSTS", "500000");
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let report = std::fs::read_to_string(cwd.0.join("report.json")).expect("report written");
    let v = jsonv::parse(&report).expect("report parses");
    let cells = v.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 1, "{report}");
    assert_eq!(
        cells[0].get("design").and_then(Json::as_str),
        Some("TAGE-L")
    );
    assert_eq!(cells[0].get("workload").and_then(Json::as_str), Some("gcc"));
}
