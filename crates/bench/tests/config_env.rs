//! The `COBRA_*` knobs as the harness binaries see them: each binary
//! runs in a child process with only the knobs a test sets, so the
//! once-per-process warning rule and the knob gates are observed end to
//! end without touching this process's environment.

use cobra_core::config::KNOBS;
use std::process::{Command, Output};

/// Runs binary `exe` with `args`, every `COBRA_*` knob removed and then
/// `knobs` set.
fn run(exe: &str, args: &[&str], knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for knob in &KNOBS {
        cmd.env_remove(knob.name);
    }
    cmd.envs(knobs.iter().copied());
    cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-config-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `fig10_spec` warns about a bad thread count once, and its
/// `COBRA_METRICS` file holds one run record per grid job.
#[test]
fn a_bad_thread_count_warns_once_per_process() {
    let dir = scratch("threads");
    let metrics = dir.join("fig10.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_fig10_spec"),
        &[],
        &[
            ("COBRA_INSTS", "1000"),
            ("COBRA_THREADS", "x"),
            ("COBRA_METRICS", metrics.to_str().expect("utf-8 path")),
        ],
    );
    let err = stderr(&out);
    assert!(out.status.success(), "fig10_spec failed:\n{err}");
    let warnings: Vec<&str> = err
        .lines()
        .filter(|l| l.contains("COBRA_THREADS"))
        .collect();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("\"x\""), "{}", warnings[0]);
    let records = std::fs::read_to_string(&metrics).expect("COBRA_METRICS written");
    assert_eq!(records.lines().count(), 30, "{records}");
    for line in records.lines() {
        cobra_bench::jsonv::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cobra-sample` notes that `COBRA_SAMPLE_DIR` is ignored whenever it
/// is set, not only when `COBRA_SAMPLE_WARMUP` is set too.
#[test]
fn cobra_sample_notes_an_ignored_sample_dir() {
    let dir = scratch("sample");
    let note = "COBRA_SAMPLE_DIR is ignored here";
    let exe = env!("CARGO_BIN_EXE_cobra-sample");
    let args = ["check", "--plans", "X", "--golden", "X"];
    let with = run(exe, &args, &[("COBRA_SAMPLE_DIR", dir.to_str().unwrap())]);
    assert!(stderr(&with).contains(note), "{}", stderr(&with));
    let without = run(exe, &args, &[]);
    assert!(!stderr(&without).contains(note), "{}", stderr(&without));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `COBRA_PROFILE=off` leaves the plan-node profiler off; `on` arms it.
#[test]
fn profile_off_leaves_the_profiler_off() {
    let exe = env!("CARGO_BIN_EXE_cobra-trace");
    let args = ["TAGE-L", "gcc", "--insts", "2000"];
    let profiled =
        |value| stderr(&run(exe, &args, &[("COBRA_PROFILE", value)])).contains("[profile]");
    assert!(!profiled("off"));
    assert!(profiled("on"));
}

/// A retired knob set in the environment is not silently ignored: the
/// binary warns once, naming it, and still runs.
#[test]
fn a_retired_knob_warns_once() {
    let exe = env!("CARGO_BIN_EXE_cobra-trace");
    let out = run(
        exe,
        &["TAGE-L", "gcc", "--insts", "2000"],
        &[("COBRA_GRID_JSON", "grid.json")],
    );
    let err = stderr(&out);
    assert!(out.status.success(), "cobra-trace failed:\n{err}");
    let warnings: Vec<&str> = err
        .lines()
        .filter(|l| l.contains("COBRA_GRID_JSON"))
        .collect();
    assert_eq!(warnings.len(), 1, "{err}");
    assert!(warnings[0].starts_with("warning: "), "{}", warnings[0]);
}
