//! # cobra-bench
//!
//! The experiment harness: one binary per table and figure of the paper,
//! each printing the same rows/series the paper reports, next to the
//! paper's published values where they exist.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_storage` | Table I — predictor storage budgets |
//! | `table2_config` | Table II — core configuration |
//! | `table3_systems` | Table III — evaluated systems |
//! | `fig7_pipelines` | Fig 7 — pipeline diagrams of the three designs |
//! | `fig8_area` | Fig 8 — predictor area breakdowns |
//! | `fig9_core_area` | Fig 9 — core area with each predictor |
//! | `fig10_spec` | Fig 10 — SPECint17 MPKI and IPC |
//! | `intro_serialization` | §I — serialized-fetch IPC loss on Dhrystone |
//! | `sec6a_tage_latency` | §VI-A — 2-cycle vs 3-cycle TAGE |
//! | `sec6b_ghist_repair` | §VI-B — history repair-with-replay sweep |
//! | `sec6c_sfb` | §VI-C — short-forwards-branch predication |
//! | `trace_vs_hardware` | §II-B — trace-model error vs the speculating core |
//! | `ablation_superscalar` | §III-C — superscalar vs per-packet counter tables |
//! | `ablation_ittage` | extension — ITTAGE indirect-target prediction |
//! | `ablation_history_depth` | extension — accuracy vs correlation depth |
//! | `energy_report` | §VI-A future work — predictor SRAM energy |
//! | `ablation_alternatives` | extension — statistical-corrector and perceptron designs |
//! | `cobra-trace` | observability — per-component blame tables and event traces |
//! | `cobra-capture` | workloads — capture any workload to a `.cbt` branch trace |
//! | `cobra-checkpoint` | warm state — capture `.cbs` warm-state checkpoints for warmup-once grids |
//! | `cobra-serve` | service — long-running evaluation daemon with a warm-state cache (see [`serve`]) |
//! | `cobra-sample` | sampling — phase-sampling plans, slice checkpoints, sampled estimates, CI accuracy gate (see [`sampling`]) |
//! | `cobra-search` | autotuner — statically-pruned topology search emitting a Pareto frontier (see [`search`]) |
//!
//! Run lengths scale with the `COBRA_INSTS` environment variable
//! (instructions per measured run, default 500 000; warm-up is 40 % of it).
//! Setting `COBRA_TRACE=<path>` streams structured prediction events from
//! every simulated BPU (see `cobra_core::obs::trace`), and
//! `COBRA_METRICS=<path>` makes [`runner::run_grid`] append one JSONL
//! record per job. Setting `COBRA_TRACE_DIR=<dir>` switches any grid
//! binary to *trace-driven* execution: each job whose workload has a
//! captured `<dir>/<workload>.cbt` replays that trace instead of
//! generating the stream — byte-identical `PerfReport`s, so stdout does
//! not change (see [`run_one_sourced`]). Setting `COBRA_CKPT_DIR=<dir>`
//! makes every grid binary restore jobs from warm-state checkpoints: a
//! job whose `<dir>/<design>--<workload>.cbs` exists (written by
//! `cobra-checkpoint`) skips its warm-up entirely by restoring the
//! checkpointed machine state at the warmup boundary — again with a
//! byte-identical `PerfReport`, enforced by the checkpoint's identity
//! header. Checkpoints compose with `COBRA_TRACE_DIR`: the restored
//! workload cursor fast-forwards whichever stream source the job uses.
//! Setting `COBRA_SAMPLE_DIR=<dir>` goes further: jobs whose workload
//! has a `<dir>/<workload>.plan.json` phase-sampling plan (written by
//! `cobra-sample`) are *estimated* from the plan's weighted slices
//! instead of simulated in full — an approximation, so the report rows
//! carry `sampled=` provenance and `COBRA_METRICS` records a
//! `"sampled"` field (see [`sampling`] and `docs/SAMPLING.md`).
//!
//! Setting `COBRA_INTERVAL=<n>` arms interval telemetry on every run:
//! each job additionally writes a `.cbm` metrics file (one record per
//! `n` committed instructions — see `cobra_uarch::metrics` and
//! `docs/METRICS_FORMAT.md`) to `$COBRA_INTERVAL_DIR` (default
//! `metrics/`), named `<design>--<workload>.cbm`. `COBRA_PROGRESS=<n>`
//! makes each job print a heartbeat line to stderr every `n` committed
//! instructions (instructions done, MIPS, ETA). Both are stderr/side-file
//! only: stdout stays byte-identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod jsonv;
pub mod reference;
pub mod runner;
pub mod sampling;
pub mod search;
pub mod serve;
pub mod timing;

use cobra_core::composer::Design;
use cobra_core::config::Config;
use cobra_core::obs::interval::IntervalSeries;
use cobra_uarch::{restore_checkpoint, CbsMeta, Core, CoreConfig, InstructionStream, PerfReport};
use cobra_workloads::{ProgramSpec, TraceProgram};
use runner::RunRecord;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The named synthetic kernels [`workload_by_name`] resolves besides the
/// SPECint17 profiles — what `cobra-capture --list` prints and
/// `cobra-serve` accepts.
pub const KERNEL_NAMES: &[&str] = &[
    "dhrystone",
    "coremark",
    "aliasing_stress",
    "loop_stress",
    "history_depth",
    "btb_stress",
    "ras_stress",
];

/// Resolves a workload name (case-insensitively) to its [`ProgramSpec`]:
/// any SPECint17 profile (`cobra_workloads::SPEC17_NAMES`) or any named
/// kernel in [`KERNEL_NAMES`]. The single resolver behind
/// `cobra-capture` and `cobra-serve` admission, so the two tools accept
/// exactly the same names.
pub fn workload_by_name(name: &str) -> Option<ProgramSpec> {
    use cobra_workloads::{kernels, spec17, SPEC17_NAMES};
    if SPEC17_NAMES.iter().any(|n| n.eq_ignore_ascii_case(name)) {
        return Some(spec17(&name.to_ascii_lowercase()));
    }
    match name.to_ascii_lowercase().as_str() {
        "dhrystone" => Some(kernels::dhrystone()),
        "coremark" => Some(kernels::coremark(false)),
        "aliasing_stress" => Some(kernels::aliasing_stress()),
        "loop_stress" => Some(kernels::loop_stress()),
        "history_depth" => Some(kernels::history_depth(32)),
        "btb_stress" => Some(kernels::btb_stress()),
        "ras_stress" => Some(kernels::ras_stress()),
        _ => None,
    }
}

/// Builds a core for `design` and `spec`, runs warm-up plus a measured
/// region, and returns the measured report.
///
/// # Panics
///
/// Panics if the design fails to compose — harness binaries treat that as
/// a fatal configuration error.
pub fn run_one(design: &Design, cfg: CoreConfig, spec: &ProgramSpec) -> PerfReport {
    run_one_sourced(design, cfg, spec, None).report
}

/// The file name an interval-telemetry stream of `design` on `workload`
/// uses: `<design>--<workload>.cbm` (same double-dash convention as
/// [`ckpt_file_name`]).
pub fn metrics_file_name(design: &str, workload: &str) -> String {
    format!("{design}--{workload}.cbm")
}

/// The file name a checkpoint of `design` on `workload` uses:
/// `<design>--<workload>.cbs` (the double dash keeps design names with
/// single dashes, like `TAGE-L`, unambiguous).
pub fn ckpt_file_name(design: &str, workload: &str) -> String {
    format!("{design}--{workload}.cbs")
}

/// `dir/name`, if `dir` is set and that file exists.
fn existing_file(dir: Option<&Path>, name: &str) -> Option<PathBuf> {
    let path = dir?.join(name);
    path.is_file().then_some(path)
}

/// Like [`run_one`], but returning the whole [`RunRecord`]: the report,
/// the run's wall time and its provenance. `tag` is substituted into any
/// `COBRA_TRACE`-attached tracer's output path, so concurrent grid jobs
/// write to distinct, deterministic files (the tag encodes the grid
/// index, not the thread).
///
/// With `COBRA_TRACE_DIR` set and a `<workload>.cbt` present, the core
/// consumes the replayed [`TraceProgram`] instead of a freshly generated
/// stream. Capture preserves both halves of the
/// workload interface (dynamic records and the static-decode image), so
/// the resulting [`PerfReport`] is byte-identical either way — workloads
/// without a captured trace quietly stay execution-driven, which keeps
/// partially-captured grids runnable and stdout stable.
///
/// # Panics
///
/// Panics if the design fails to compose, or if the trace file exists but
/// is corrupt or truncated (a fatal configuration error, reported with
/// the precise [`ContainerError`](cobra_workloads::ContainerError)).
pub fn run_one_sourced(
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    tag: Option<&str>,
) -> RunRecord {
    let started = Instant::now();
    let config = cobra_core::config::get();
    let measure = config.insts;
    let warmup = measure * 2 / 5;
    let sample_dir = config.sample_dir.as_deref();
    if let Some(plan_path) = existing_file(sample_dir, &sampling::plan_file_name(&spec.name)) {
        let plan = sampling::load_plan(&plan_path)
            .unwrap_or_else(|e| panic!("COBRA_SAMPLE_DIR plan: {e}"));
        assert_eq!(
            plan.warmup_insts,
            warmup,
            "COBRA_SAMPLE_DIR plan {} was derived at warmup boundary {} \
             but COBRA_INSTS={measure} implies {warmup} — rerun \
             `cobra-sample plan` at this scale or unset COBRA_SAMPLE_DIR",
            plan_path.display(),
            plan.warmup_insts
        );
        let outcome = sampling::run_sampled(design, cfg, spec, &plan, sample_dir)
            .unwrap_or_else(|e| panic!("COBRA_SAMPLE_DIR sampled run: {e}"));
        return RunRecord {
            sampled: Some(format!("{}:{}", outcome.mode.as_str(), plan_path.display())),
            ..RunRecord::new(outcome.report, started.elapsed())
        };
    }
    let trace_name = format!("{}.cbt", spec.name);
    match existing_file(config.trace_dir.as_deref(), &trace_name) {
        Some(path) => {
            let program = TraceProgram::open(&path)
                .unwrap_or_else(|e| panic!("COBRA_TRACE_DIR replay of {}: {e}", path.display()));
            if program.name() != spec.name {
                eprintln!(
                    "warning: {} was captured from workload {:?}, replaying as {:?}",
                    path.display(),
                    program.name(),
                    spec.name
                );
            }
            let record = run_core(design, cfg, spec, tag, &config, program, started);
            RunRecord {
                trace: Some(path),
                ..record
            }
        }
        None => run_core(design, cfg, spec, tag, &config, spec.build(), started),
    }
}

/// The run [`run_one_sourced`] makes over either stream source: build
/// the core, retarget its tracer to `tag`, restore any `COBRA_CKPT_DIR`
/// checkpoint, install the heartbeat, run warm-up plus the measured
/// region, and write any interval telemetry. The record's wall time runs
/// from `started`.
fn run_core<S: InstructionStream>(
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    tag: Option<&str>,
    config: &Config,
    stream: S,
    started: Instant,
) -> RunRecord {
    let measure = config.insts;
    let warmup = measure * 2 / 5;
    let mut core = Core::new(design, cfg, stream).expect("stock designs always compose");
    if let Some(tag) = tag {
        core.bpu_mut().retarget_env_tracer(tag);
    }
    let ckpt_name = ckpt_file_name(&design.name, &spec.name);
    let checkpoint = existing_file(config.ckpt_dir.as_deref(), &ckpt_name)
        .map(|path| restore_into(design, &cfg, &spec.name, warmup, &mut core, path));
    if let Some(every) = config.progress {
        install_progress(&mut core, tag, every, warmup + measure);
    }
    let report = core.run_with_warmup(warmup, measure, &spec.name);
    let metrics = core.take_intervals().and_then(|series| {
        write_interval_metrics(
            design,
            &cfg,
            &spec.name,
            warmup,
            series,
            &report,
            &config.interval_dir,
        )
    });
    RunRecord {
        checkpoint,
        metrics,
        ..RunRecord::new(report, started.elapsed())
    }
}

/// Installs the `COBRA_PROGRESS` heartbeat on a freshly-built core:
/// every `every` committed instructions, one stderr line with
/// instructions done, simulated MIPS, and the wall-clock ETA to
/// `target_insts` (warm-up plus measured region). Stderr only — stdout
/// stays stable for diffing.
fn install_progress<S: InstructionStream>(
    core: &mut Core<S>,
    tag: Option<&str>,
    every: u64,
    target_insts: u64,
) {
    let label = tag.unwrap_or("run").to_string();
    let started = std::time::Instant::now();
    core.set_progress(
        every,
        Box::new(move |insts, cycles| {
            let secs = started.elapsed().as_secs_f64();
            let mips = if secs > 0.0 {
                insts as f64 / secs / 1e6
            } else {
                0.0
            };
            let eta = if insts > 0 && target_insts > insts {
                secs * (target_insts - insts) as f64 / insts as f64
            } else {
                0.0
            };
            eprintln!(
                "[runner] progress {label}: {insts}/{target_insts} insts \
                 ({:.1}%), {cycles} cycles, {mips:.2} MIPS, ETA {eta:.1}s",
                insts as f64 * 100.0 / target_insts.max(1) as f64
            );
        }),
    );
}

/// Writes the interval `series` a measured run collected (when
/// `COBRA_INTERVAL` armed the engine) as a `.cbm` file to `dir`
/// (`COBRA_INTERVAL_DIR`), bound to the run's identity and carrying the
/// measured-region totals from `report` so any reader can verify
/// reconciliation self-contained. Returns the path written.
///
/// Write failures warn on stderr but never fail the run — telemetry is
/// an observability side channel, and the tables on stdout are the
/// primary artifact.
fn write_interval_metrics(
    design: &Design,
    cfg: &CoreConfig,
    workload: &str,
    warmup: u64,
    series: IntervalSeries,
    report: &PerfReport,
    dir: &Path,
) -> Option<PathBuf> {
    let meta = cobra_uarch::CbmMeta {
        design: design.name.clone(),
        topology: design.topology.clone(),
        config_hash: cobra_uarch::config_hash(design, cfg),
        workload: workload.to_string(),
        warmup_insts: warmup,
        interval_n: series.interval_n,
        sig_buckets: cobra_core::obs::interval::SIG_BUCKETS as u64,
    };
    let path = dir.join(metrics_file_name(&design.name, workload));
    let write = || -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        cobra_uarch::save_metrics(
            std::io::BufWriter::new(file),
            &meta,
            &series,
            &report.counters.to_host(),
            &report.attribution,
        )
        .map_err(|e| e.to_string())?;
        Ok(())
    };
    match write() {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: could not write interval metrics {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Restores the checkpoint at `path`
/// (`$COBRA_CKPT_DIR/<design>--<workload>.cbs`) into a freshly-built
/// core, returning `path`. Jobs without a matching checkpoint quietly
/// warm up from scratch, which keeps partially-checkpointed grids
/// runnable and stdout stable.
///
/// # Panics
///
/// Panics if the checkpoint file exists but is corrupt, truncated, or was
/// captured under a different design, configuration, workload, or warmup
/// boundary — restoring it anyway would silently skew the measured
/// region, so a mismatch is a fatal configuration error, reported with
/// the precise [`ContainerError`](cobra_uarch::ContainerError).
fn restore_into<S: InstructionStream>(
    design: &Design,
    cfg: &CoreConfig,
    workload: &str,
    warmup: u64,
    core: &mut Core<S>,
    path: PathBuf,
) -> PathBuf {
    let meta = CbsMeta::for_run(design, cfg, workload, warmup);
    let file = std::fs::File::open(&path)
        .unwrap_or_else(|e| panic!("COBRA_CKPT_DIR restore of {}: {e}", path.display()));
    restore_checkpoint(std::io::BufReader::new(file), &meta, core)
        .unwrap_or_else(|e| panic!("COBRA_CKPT_DIR restore of {}: {e}", path.display()));
    path
}

/// The number of instructions [`capture_workload`] records for a measured
/// region of `measure` instructions: warm-up (the harness's 40 %) plus
/// the region itself plus fetch-ahead slack, so a replayed run never
/// starves the frontend before the measured region completes.
pub fn capture_len(measure: u64) -> u64 {
    let warmup = measure * 2 / 5;
    warmup + measure + measure / 10 + 16_384
}

/// Captures `spec` to `<dir>/<name>.cbt` sized for a measured region of
/// `measure` instructions (see [`capture_len`]), returning the summary
/// and the path written.
///
/// # Errors
///
/// Propagates [`ContainerError`](cobra_workloads::ContainerError) from encode or I/O.
pub fn capture_workload(
    spec: &ProgramSpec,
    measure: u64,
    dir: &std::path::Path,
) -> Result<(cobra_workloads::CbtSummary, PathBuf), cobra_workloads::ContainerError> {
    let path = dir.join(format!("{}.cbt", spec.name));
    let mut stream = spec.build();
    let summary =
        cobra_workloads::capture_to_file(&mut stream, capture_len(measure), &spec.name, &path)?;
    Ok((summary, path))
}

/// Prints a horizontal bar scaled to `frac` of `width` characters.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    "█".repeat(n)
}

/// Formats a percentage delta between `new` and `base`.
pub fn pct_delta(new: f64, base: f64) -> String {
    if base == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", 100.0 * (new - base) / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4).chars().count(), 2);
    }

    #[test]
    fn pct_delta_formats() {
        assert_eq!(pct_delta(1.15, 1.0), "+15.0%");
        assert_eq!(pct_delta(0.97, 1.0), "-3.0%");
        assert_eq!(pct_delta(1.0, 0.0), "n/a");
    }
}
