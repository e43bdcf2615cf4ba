//! `cobra-capture` — record workloads to `.cbt` branch-trace files.
//!
//! Captures the synthetic SPECint17 profiles (or named kernels) into the
//! COBRA Binary Trace format (`docs/TRACE_FORMAT.md`), sized so that the
//! grid binaries can replay them via `COBRA_TRACE_DIR` with byte-identical
//! `PerfReport`s:
//!
//! ```text
//! cobra-capture gcc                        # capture one profile to ./traces
//! cobra-capture gcc xz --out /tmp/t        # several, to a chosen directory
//! cobra-capture --all                      # the whole SPECint17 suite
//! cobra-capture --all --insts 100000       # sized for a 100k-inst run
//! cobra-capture gcc --verify               # re-open, validate, and replay-
//! #                                          check each file after writing
//! cobra-capture --list                     # capturable workload names
//! ```
//!
//! Each trace records `capture_len(insts)` instructions — warm-up plus the
//! measured region plus fetch-ahead slack (see
//! [`cobra_bench::capture_len`]) — so a replayed run never starves the
//! frontend before the measured region completes. `--insts` defaults to
//! the `COBRA_INSTS` environment variable (500 000), matching what the
//! grid binaries will ask for at replay time.
//!
//! Exit status: 0 on success, 1 on a capture or verify failure, 2 on a
//! usage error.

use cobra_bench::{capture_len, capture_workload, workload_by_name, KERNEL_NAMES};
use cobra_uarch::InstructionStream;
use cobra_workloads::{ProgramSpec, TraceProgram, SPEC17_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cobra-capture [OPTIONS] WORKLOAD...

Captures each named workload to `<out>/<workload>.cbt`, sized for replay
of a measured run of `--insts` instructions (plus warm-up and slack).

Options:
  --all            capture every SPECint17 profile
  --out DIR        output directory [traces]
  --insts N        measured instructions to size for [COBRA_INSTS or 500000]
  --verify         re-open each file, run the full integrity pass, and
                   replay it against a fresh stream record-by-record
  --list           print capturable workload names and exit
  -h, --help       print this help";

struct Options {
    workloads: Vec<String>,
    out: PathBuf,
    insts: u64,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut workloads: Vec<String> = Vec::new();
    let mut all = false;
    let mut out = PathBuf::from("traces");
    let mut insts = None;
    let mut verify = false;
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--out" => out = PathBuf::from(need(&mut it, "--out")?),
            "--insts" => {
                let v = need(&mut it, "--insts")?;
                insts = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("`--insts {v}` is not a number"))?
                        .max(1),
                );
            }
            "--verify" => verify = true,
            "--list" => {
                println!("spec17: {}", SPEC17_NAMES.join(" "));
                println!("kernels: {}", KERNEL_NAMES.join(" "));
                return Ok(None);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => workloads.push(other.to_string()),
        }
    }
    if all {
        for n in SPEC17_NAMES {
            if !workloads.iter().any(|w| w.eq_ignore_ascii_case(n)) {
                workloads.push((*n).to_string());
            }
        }
    }
    if workloads.is_empty() {
        return Err("no workloads named (try `--all` or `--list`)".into());
    }
    Ok(Some(Options {
        workloads,
        out,
        insts: insts.unwrap_or_else(|| cobra_core::config::get().insts),
        verify,
    }))
}

/// Re-opens `path` (full integrity pass included) and checks the replayed
/// stream record-for-record against a freshly generated one.
fn verify_capture(spec: &ProgramSpec, path: &std::path::Path) -> Result<u64, String> {
    let mut replay = TraceProgram::open(path).map_err(|e| format!("re-open failed: {e}"))?;
    if replay.name() != spec.name {
        return Err(format!(
            "name mismatch: trace says {:?}, expected {:?}",
            replay.name(),
            spec.name
        ));
    }
    let mut direct = spec.build();
    let mut n = 0u64;
    while let Some(got) = replay.next_inst() {
        let want = direct.next_inst();
        if Some(got) != want {
            return Err(format!(
                "record {n} diverges: trace {got:?}, stream {want:?}"
            ));
        }
        n += 1;
    }
    Ok(n)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobra-capture: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut specs = Vec::new();
    for name in &opts.workloads {
        match workload_by_name(name) {
            Some(s) => specs.push(s),
            None => {
                eprintln!("cobra-capture: unknown workload `{name}` (try `--list`)");
                return ExitCode::from(2);
            }
        }
    }

    let records_per_trace = capture_len(opts.insts);
    println!(
        "capturing {} workload(s) to {} ({} records each, sized for {}-inst runs)",
        specs.len(),
        opts.out.display(),
        records_per_trace,
        opts.insts
    );

    let mut failed = false;
    for spec in &specs {
        let t0 = Instant::now();
        match capture_workload(spec, opts.insts, &opts.out) {
            Ok((summary, path)) => {
                let wall = t0.elapsed().as_secs_f64();
                let mips = summary.records as f64 / wall / 1e6;
                println!(
                    "  {:<14} {:>9} records  {:>9} bytes  {:.2} B/inst  {:>6.2}s  {:>6.1} Minst/s  -> {}",
                    spec.name,
                    summary.records,
                    summary.bytes,
                    summary.bytes as f64 / summary.records.max(1) as f64,
                    wall,
                    mips,
                    path.display()
                );
                if opts.verify {
                    match verify_capture(spec, &path) {
                        Ok(n) => println!("  {:<14} verified: {n} records replay identically", ""),
                        Err(e) => {
                            eprintln!("cobra-capture: verify {}: {e}", path.display());
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("cobra-capture: {}: {e}", spec.name);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
