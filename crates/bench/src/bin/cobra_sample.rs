//! `cobra-sample` — derive, capture, evaluate, and gate phase-sampling
//! plans (see `docs/SAMPLING.md`).
//!
//! Phase sampling estimates a full run's MPKI/IPC from a handful of
//! representative interval slices, picked by clustering the `.cbm`
//! interval phase signatures (`cobra_bench::sampling`):
//!
//! ```text
//! cobra-sample plan gcc                      # cluster metrics/TAGE-L--gcc.cbm
//! cobra-sample plan --all --k 8 --out plans  # plans for the whole suite
//! cobra-sample ckpt gcc --plans plans        # slice checkpoints, all designs
//! cobra-sample run TAGE-L gcc --plans plans  # sampled estimate
//! cobra-sample run TAGE-L gcc --selfcheck    # ... next to the exact run
//! cobra-sample check --plans tests/golden/plans \
//!     --golden tests/golden/fig10_full.jsonl --bound 2.0
//! #                                          # the CI sampled-grid gate
//! cobra-sample check --bless                 # regenerate the golden file
//! ```
//!
//! `plan` clusters one workload's interval telemetry; the signatures
//! count committed CFIs, so a plan derived under any design transfers to
//! every design at the same `COBRA_INSTS`. `ckpt` captures per-slice
//! warm-state checkpoints so sampled runs restore exact state. `run`
//! evaluates one (design, workload) pair under a plan; `--selfcheck`
//! also runs the exact full simulation and prints the estimation error.
//! `check` gates sampled estimates for a whole grid against committed
//! golden full-run values — the CI leg that keeps the documented error
//! bound honest.
//!
//! Exit status follows the README's command-line conventions; 1 means
//! the command failed (for `check`: a cell is outside the bound).

use cobra_bench::cli::{self, Stop};
use cobra_bench::runner::parallel_map;
use cobra_bench::{
    jsonv,
    jsonv::Json,
    metrics_file_name,
    sampling::{
        derive_plan, load_plan, plan_file_name, render_plan, run_sampled, slice_ckpt_name,
        SamplePlan,
    },
    workload_by_name, KERNEL_NAMES,
};
use cobra_core::composer::Design;
use cobra_core::config;
use cobra_core::designs;
use cobra_uarch::{read_metrics, save_checkpoint, CbsMeta, Core, CoreConfig};
use cobra_workloads::{ProgramSpec, SPEC17_NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cobra-sample COMMAND [OPTIONS] [WORKLOAD...]

Commands:
  plan    cluster .cbm interval telemetry into sampling plans
  ckpt    capture per-slice warm-state checkpoints for existing plans
  run     evaluate one design on one workload under a plan
  check   gate sampled estimates against golden full-run values

Common options:
  --all            every SPECint17 profile
  --plans DIR      plan (and slice-checkpoint) directory [tests/golden/plans]
  --designs CSV    comma-separated design names [every stock design]
  -h, --help       print this help

plan options:
  --metrics DIR    .cbm directory [COBRA_INTERVAL_DIR or metrics]
  --design NAME    design whose .cbm to cluster [TAGE-L]
  --k N            clusters (= slices) per workload [8]
  --seed N         clustering seed [42]
  --out DIR        where plans go [the --plans directory]

ckpt options:
  --out DIR        where slice checkpoints go [the --plans directory]

run options:
  --selfcheck      also run the exact full simulation and print the error

check options:
  --golden FILE    golden full-run JSONL [tests/golden/fig10_full.jsonl]
  --bound PCT      max |error| per cell, percent [2.0]
  --report FILE    write a JSON error report
  --bless          regenerate the golden file from exact full runs";

struct Options {
    command: String,
    /// The workloads named on argv, resolved (for `run`, its WORKLOAD).
    workloads: Vec<(String, ProgramSpec)>,
    /// `run`'s DESIGN.
    run_design: Option<Design>,
    designs: Vec<Design>,
    plans: PathBuf,
    metrics: Option<PathBuf>,
    plan_design: String,
    k: usize,
    seed: u64,
    out: Option<PathBuf>,
    selfcheck: bool,
    golden: PathBuf,
    bound: f64,
    report: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let command = match args.next_arg()? {
        Some(c) if ["plan", "ckpt", "run", "check"].contains(&c.as_str()) => c,
        Some(c) => return Err(format!("unknown command `{c}`").into()),
        None => return Err("no command (try `--help`)".into()),
    };
    let mut o = Options {
        command,
        workloads: Vec::new(),
        run_design: None,
        designs: Vec::new(),
        plans: PathBuf::from("tests/golden/plans"),
        metrics: None,
        plan_design: "TAGE-L".into(),
        k: 8,
        seed: 42,
        out: None,
        selfcheck: false,
        golden: PathBuf::from("tests/golden/fig10_full.jsonl"),
        bound: 2.0,
        report: None,
        bless: false,
    };
    let mut all = false;
    let mut names = Vec::new();
    let mut design_names = None;
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--all" => all = true,
            "--plans" => o.plans = PathBuf::from(args.value()?),
            "--designs" => design_names = Some(args.csv()?),
            "--metrics" => o.metrics = Some(PathBuf::from(args.value()?)),
            "--design" => o.plan_design = args.value()?,
            "--k" => o.k = args.parse()?,
            "--seed" => o.seed = args.parse()?,
            "--out" => o.out = Some(PathBuf::from(args.value()?)),
            "--selfcheck" => o.selfcheck = true,
            "--golden" => o.golden = PathBuf::from(args.value()?),
            "--bound" => o.bound = args.parse()?,
            "--report" => o.report = Some(PathBuf::from(args.value()?)),
            "--bless" => o.bless = true,
            _ => names.push(cli::positional(a)?),
        }
    }
    if all {
        names = cli::with_spec17(names);
    }
    if o.command == "run" {
        if names.len() != 2 {
            return Err("`run` takes exactly DESIGN WORKLOAD".into());
        }
        let d = names.remove(0);
        o.run_design = Some(designs::by_name(&d).ok_or_else(|| {
            let known: Vec<String> = designs::catalog().into_iter().map(|d| d.name).collect();
            format!("unknown design `{d}` (one of {})", known.join(", "))
        })?);
    }
    o.workloads = names
        .into_iter()
        .map(|n| match workload_by_name(&n) {
            Some(spec) => Ok((n, spec)),
            None => Err(format!(
                "unknown workload `{n}` (one of {}, {})",
                SPEC17_NAMES.join(", "),
                KERNEL_NAMES.join(", ")
            )),
        })
        .collect::<Result<_, _>>()?;
    o.designs = cli::designs(design_names.as_deref())?;
    Ok(o)
}

/// The workloads a plans directory holds plans for, sorted.
fn planned_workloads(plans: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(plans) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(w) = name.strip_suffix(".plan.json") {
                out.push(w.to_string());
            }
        }
    }
    out.sort();
    out
}

/// The workloads named on argv, or else those the plans directory holds
/// plans for. A plan file naming an unknown workload is a failure (exit
/// 1), not a usage error: the directory is wrong, not the argv.
fn resolve_workloads(o: &Options) -> Result<Vec<(String, ProgramSpec)>, String> {
    if !o.workloads.is_empty() {
        return Ok(o.workloads.clone());
    }
    let planned = planned_workloads(&o.plans);
    if planned.is_empty() {
        return Err(format!(
            "no workloads named and no plans in {} (try `--all`)",
            o.plans.display()
        ));
    }
    planned
        .into_iter()
        .map(|n| {
            workload_by_name(&n).map(|s| (n.clone(), s)).ok_or_else(|| {
                format!(
                    "{} holds a plan for unknown workload `{n}`",
                    o.plans.display()
                )
            })
        })
        .collect()
}

/// `plan`: cluster each workload's `.cbm` into a sampling plan.
fn cmd_plan(o: &Options) -> Result<(), String> {
    if o.workloads.is_empty() {
        return Err("no workloads named (try `--all`)".into());
    }
    let metrics = o
        .metrics
        .clone()
        .unwrap_or_else(|| config::get().interval_dir.clone());
    let out = o.out.clone().unwrap_or_else(|| o.plans.clone());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for (w, _) in &o.workloads {
        let cbm_path = metrics.join(metrics_file_name(&o.plan_design, w));
        let file = std::fs::File::open(&cbm_path).map_err(|e| {
            format!(
                "{}: {e} (run the grid with COBRA_INTERVAL set first)",
                cbm_path.display()
            )
        })?;
        let cbm = read_metrics(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", cbm_path.display()))?;
        let plan = derive_plan(&cbm, o.k, o.seed).map_err(|e| format!("{w}: {e}"))?;
        let path = out.join(plan_file_name(w));
        std::fs::write(&path, render_plan(&plan))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {w:<14} {} intervals -> {} slices ({:.1}% of run)  -> {}",
            cbm.records.len(),
            plan.slices.len(),
            plan.slices.iter().map(|s| s.len).sum::<u64>() as f64 * 100.0
                / plan.total_insts.max(1) as f64,
            path.display()
        );
    }
    Ok(())
}

/// Captures every slice checkpoint for one (design, workload) plan in a
/// single forward pass: the slices are start-ordered, and `Core::run`
/// stops on the first cycle at or past each requested commit boundary.
///
/// Boundaries recorded under the plan's telemetry design are exactly
/// reachable under that design, but a different superscalar design can
/// bunch commits differently and overshoot by up to a commit-width of
/// instructions — tolerated here (the estimator scales by the plan's
/// slice length, so a packet-width offset is noise, not skew). A stop
/// *short* of the boundary still fails: the workload ended early, so the
/// plan genuinely does not match.
fn capture_slices(
    design: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    out: &Path,
) -> Result<u64, String> {
    let cfg = CoreConfig::boom_4wide();
    let mut core =
        Core::new(design, cfg, spec.build()).map_err(|e| format!("compose failed: {e}"))?;
    let mut bytes = 0u64;
    for slice in &plan.slices {
        core.run(slice.start_inst, &spec.name);
        let got = core.counters().committed_insts;
        if got < slice.start_inst {
            return Err(format!(
                "slice s{} starts at instruction {} but the workload ended at {got} \
                 — the plan does not match this workload",
                slice.seq, slice.start_inst
            ));
        }
        let meta = CbsMeta::for_run(design, &cfg, &spec.name, slice.start_inst);
        let path = out.join(slice_ckpt_name(&design.name, &spec.name, slice.seq));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += save_checkpoint(std::io::BufWriter::new(file), &meta, &core)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(bytes)
}

/// `ckpt`: capture slice checkpoints for every (design, workload) pair.
fn cmd_ckpt(o: &Options) -> Result<bool, String> {
    let specs = resolve_workloads(o)?;
    let out = o.out.clone().unwrap_or_else(|| o.plans.clone());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut jobs = Vec::new();
    for (name, spec) in &specs {
        let plan = load_plan(&o.plans.join(plan_file_name(name)))?;
        for d in &o.designs {
            jobs.push((d, spec, plan.clone()));
        }
    }
    let results = parallel_map(&jobs, |_, (d, spec, plan)| {
        let t0 = Instant::now();
        let r = capture_slices(d, spec, plan, &out);
        (r, t0.elapsed().as_secs_f64())
    });
    let mut ok = true;
    for ((d, spec, plan), (r, wall)) in jobs.iter().zip(&results) {
        match r {
            Ok(bytes) => println!(
                "  {:<12} {:<14} {:>2} slices {:>9} bytes  {wall:>6.2}s",
                d.name,
                spec.name,
                plan.slices.len(),
                bytes
            ),
            Err(e) => {
                eprintln!("cobra-sample: {}/{}: {e}", d.name, spec.name);
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// The exact full run a plan's estimate approximates, at the plan's own
/// warmup boundary and the current `COBRA_INSTS` measured length.
fn run_full(design: &Design, spec: &ProgramSpec, plan: &SamplePlan) -> Result<f64, String> {
    let cfg = CoreConfig::boom_4wide();
    let mut core =
        Core::new(design, cfg, spec.build()).map_err(|e| format!("compose failed: {e}"))?;
    let report = core.run_with_warmup(plan.warmup_insts, config::get().insts, &spec.name);
    Ok(report.counters.mpki())
}

/// `run`: sampled estimate for one (design, workload), optionally next
/// to the exact run.
fn cmd_run(o: &Options) -> Result<bool, String> {
    let (Some(design), [(workload, spec)]) = (&o.run_design, o.workloads.as_slice()) else {
        unreachable!("parse_args checks `run`'s DESIGN WORKLOAD");
    };
    let plan = load_plan(&o.plans.join(plan_file_name(workload)))?;
    let t0 = Instant::now();
    let outcome = run_sampled(
        design,
        CoreConfig::boom_4wide(),
        spec,
        &plan,
        Some(&o.plans),
    )?;
    let sampled_wall = t0.elapsed().as_secs_f64();
    println!(
        "{} on {}: {} slices ({} mode), est MPKI {:.4}, est IPC {:.4}, {sampled_wall:.2}s",
        design.name,
        workload,
        plan.slices.len(),
        outcome.mode.as_str(),
        outcome.estimate.mpki(),
        outcome.estimate.ipc()
    );
    if o.selfcheck {
        let t1 = Instant::now();
        let full_mpki = run_full(design, spec, &plan)?;
        let full_wall = t1.elapsed().as_secs_f64();
        let err = err_pct(outcome.estimate.mpki(), full_mpki);
        println!(
            "  exact MPKI {full_mpki:.4} ({full_wall:.2}s) -> error {err:.3}%  speedup {:.1}x",
            full_wall / sampled_wall.max(1e-9)
        );
    }
    Ok(true)
}

/// Relative error in percent; falls back to absolute error when the
/// reference is (numerically) zero.
fn err_pct(est: f64, golden: f64) -> f64 {
    if golden.abs() < 1e-9 {
        (est - golden).abs() * 100.0
    } else {
        (est - golden).abs() * 100.0 / golden.abs()
    }
}

struct GoldenCell {
    design: String,
    workload: String,
    insts: u64,
    mpki: f64,
}

fn read_golden(path: &Path) -> Result<Vec<GoldenCell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = jsonv::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("{}:{}: missing {k:?}", path.display(), i + 1))
        };
        out.push(GoldenCell {
            design: s("design")?,
            workload: s("workload")?,
            insts: v
                .get("insts")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{}:{}: missing \"insts\"", path.display(), i + 1))?,
            mpki: v
                .get("mpki")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{}:{}: missing \"mpki\"", path.display(), i + 1))?,
        });
    }
    Ok(out)
}

/// `check --bless`: regenerate the golden full-run JSONL.
fn cmd_bless(o: &Options) -> Result<(), String> {
    let specs = resolve_workloads(o)?;
    let insts = config::get().insts;
    let mut jobs = Vec::new();
    for (name, spec) in &specs {
        let plan = load_plan(&o.plans.join(plan_file_name(name)))?;
        for d in &o.designs {
            jobs.push((d, spec, plan.clone()));
        }
    }
    let results = parallel_map(&jobs, |_, (d, spec, plan)| run_full(d, spec, plan));
    let mut lines = Vec::new();
    for ((d, spec, _), r) in jobs.iter().zip(&results) {
        let mpki = r
            .as_ref()
            .map_err(|e| format!("{}/{}: {e}", d.name, spec.name))?;
        lines.push(format!(
            "{{\"design\":{},\"workload\":{},\"insts\":{insts},\"mpki\":{mpki:.6}}}",
            cobra_bench::jsonv::escape(&d.name),
            cobra_bench::jsonv::escape(&spec.name),
        ));
    }
    lines.sort();
    if let Some(dir) = o.golden.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&o.golden, lines.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", o.golden.display()))?;
    println!(
        "blessed {} golden cell(s) at COBRA_INSTS={insts} -> {}",
        lines.len(),
        o.golden.display()
    );
    Ok(())
}

/// `check`: sampled estimates vs the golden full-run values.
fn cmd_check(o: &Options) -> Result<bool, String> {
    if o.bless {
        cmd_bless(o)?;
        return Ok(true);
    }
    let golden = read_golden(&o.golden)?;
    if golden.is_empty() {
        return Err(format!("{}: no golden cells", o.golden.display()));
    }
    let insts = config::get().insts;
    for c in &golden {
        if c.insts != insts {
            return Err(format!(
                "golden cell {}/{} was blessed at {} insts but COBRA_INSTS={insts} \
                 — rerun with the matching scale or re-bless",
                c.design, c.workload, c.insts
            ));
        }
    }
    let all = designs::all();
    let mut jobs = Vec::new();
    for c in &golden {
        let d = all
            .iter()
            .find(|d| d.name == c.design)
            .ok_or_else(|| format!("golden names unknown design `{}`", c.design))?;
        let spec = workload_by_name(&c.workload)
            .ok_or_else(|| format!("golden names unknown workload `{}`", c.workload))?;
        let plan = load_plan(&o.plans.join(plan_file_name(&c.workload)))?;
        jobs.push((d, spec, plan, c));
    }
    let results = parallel_map(&jobs, |_, (d, spec, plan, _)| {
        run_sampled(d, CoreConfig::boom_4wide(), spec, plan, Some(&o.plans))
    });
    let mut cells = Vec::new();
    let mut max_err = 0.0f64;
    let mut failed = 0usize;
    println!(
        "{:<12} {:<14} {:>6} {:>10} {:>10} {:>8}",
        "design", "workload", "mode", "golden", "sampled", "err %"
    );
    for ((d, spec, _, c), r) in jobs.iter().zip(&results) {
        let outcome = r
            .as_ref()
            .map_err(|e| format!("{}/{}: {e}", d.name, spec.name))?;
        let est = outcome.estimate.mpki();
        let err = err_pct(est, c.mpki);
        max_err = max_err.max(err);
        let over = err > o.bound;
        if over {
            failed += 1;
        }
        println!(
            "{:<12} {:<14} {:>6} {:>10.4} {:>10.4} {:>8.3}{}",
            d.name,
            spec.name,
            outcome.mode.as_str(),
            c.mpki,
            est,
            err,
            if over { "  OVER BOUND" } else { "" }
        );
        cells.push(format!(
            "    {{\"design\":{},\"workload\":{},\"mode\":{},\"golden_mpki\":{:.6},\
             \"est_mpki\":{est:.6},\"err_pct\":{err:.4}}}",
            cobra_bench::jsonv::escape(&d.name),
            cobra_bench::jsonv::escape(&spec.name),
            cobra_bench::jsonv::escape(outcome.mode.as_str()),
            c.mpki
        ));
    }
    let pass = failed == 0;
    println!(
        "{} cell(s), max error {max_err:.3}% (bound {:.3}%): {}",
        jobs.len(),
        o.bound,
        if pass { "PASS" } else { "FAIL" }
    );
    if let Some(path) = &o.report {
        let report = format!(
            "{{\n  \"format\":\"cobra-sample-check-v1\",\n  \"insts\":{insts},\n  \
             \"bound_pct\":{:.4},\n  \"max_err_pct\":{max_err:.4},\n  \
             \"pass\":{pass},\n  \"cells\":[\n{}\n  ]\n}}\n",
            o.bound,
            cells.join(",\n")
        );
        std::fs::write(path, report).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("error report -> {}", path.display());
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let o = match cli::parse("cobra-sample", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    if config::get().sample_dir.is_some() {
        eprintln!("cobra-sample: note: COBRA_SAMPLE_DIR is ignored here (plans come from --plans)");
    }
    let outcome = match o.command.as_str() {
        "plan" => cmd_plan(&o).map(|()| true),
        "ckpt" => cmd_ckpt(&o),
        "run" => cmd_run(&o),
        "check" => cmd_check(&o),
        _ => unreachable!("parse_args validated the command"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cobra-sample: {e}");
            ExitCode::FAILURE
        }
    }
}
