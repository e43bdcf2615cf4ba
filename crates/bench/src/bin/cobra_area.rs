//! `cobra-area` — the static storage/area budget oracle (ROADMAP item 1).
//!
//! Rolls a design's per-component SRAM geometry, flop bits, and generated
//! management structures into one budget report, computed from the
//! elaborated design model alone — no pipeline is built and no packet is
//! simulated. The numbers are bit-exact with the runtime accounting used
//! by `table1_storage` and `fig8_area` (both assert this).
//!
//! ```text
//! cobra-area --all                          # every built-in design
//! cobra-area TAGE-L "GTAG3 > BTB2 > BIM2"   # by name or raw topology
//! cobra-area --all --budget 96              # enforce a storage cap (KB)
//! cobra-area --all --format json            # the autotuner's pruning input
//! ```
//!
//! Exit status follows the README's command-line conventions; 1 means
//! at least one design exceeds its budget or fails to elaborate.

use cobra_area::ProcessModel;
use cobra_bench::cli::{self, Stop};
use cobra_core::analysis::{AnalysisConfig, DesignModel, ResourceReport};
use cobra_core::designs;
use std::process::ExitCode;

struct Options {
    targets: Vec<String>,
    all: bool,
    json: bool,
    budget_kb: Option<f64>,
    width: u8,
    ghist_bits: u32,
    lhist_entries: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            targets: Vec::new(),
            all: false,
            json: false,
            budget_kb: None,
            width: 8,
            ghist_bits: 64,
            lhist_entries: 256,
        }
    }
}

const USAGE: &str = "usage: cobra-area [OPTIONS] [TARGET...]

Targets are built-in design names (e.g. TAGE-L) or raw topology strings.

Options:
  --all             report every built-in design
  --budget KB       fail (exit 1) when a design's total storage exceeds KB
  --format FMT      human (default) or json
  --width N         fetch width for raw topologies [8]
  --ghist N         global-history bits for raw topologies [64]
  --lhist N         local-history entries for raw topologies [256]
  -h, --help        print this help";

fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let mut o = Options::default();
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--all" => o.all = true,
            "--budget" => o.budget_kb = Some(args.parse()?),
            "--format" => match args.value()?.as_str() {
                "json" => o.json = true,
                "human" => o.json = false,
                other => return Err(format!("unknown format `{other}`").into()),
            },
            "--width" => o.width = args.parse()?,
            "--ghist" => o.ghist_bits = args.parse()?,
            "--lhist" => o.lhist_entries = args.parse()?,
            _ => o.targets.push(cli::positional(a)?),
        }
    }
    if !o.all && o.targets.is_empty() {
        return Err("no targets; pass design names, topology strings, or --all".into());
    }
    Ok(o)
}

fn report_for(target: &str, o: &Options) -> Result<ResourceReport, String> {
    let d = designs::by_name(target)
        .unwrap_or_else(|| designs::from_topology(target, o.ghist_bits, o.lhist_entries));
    let model = DesignModel::build(
        &d.name,
        &d.topology,
        &d.registry,
        o.width,
        d.ghist_bits,
        d.lhist_entries,
    )
    .map_err(|e| e.to_string())?;
    if let Some(d) = model
        .resolution
        .iter()
        .find(|d| d.severity == cobra_core::analysis::Severity::Error)
    {
        return Err(d.to_string());
    }
    let cfg = AnalysisConfig {
        width: o.width,
        ..AnalysisConfig::default()
    };
    let mut report = ResourceReport::from_model(&model, &cfg);
    if let Some(kb) = o.budget_kb {
        report = report.with_budget_kb(kb);
    }
    Ok(report)
}

fn print_human(report: &ResourceReport, process: &ProcessModel) {
    println!("{}: {}", report.design, report.topology);
    let mut area_um2 = 0.0;
    for (label, r) in &report.components {
        let a = process.report_area_um2(r);
        area_um2 += a;
        println!(
            "  {label:<12} {:>10.2} KB  {:>12.0} um^2  ({} SRAM(s), {} flop bits)",
            r.kilobytes(),
            a,
            r.srams.len(),
            r.flop_bits
        );
    }
    let meta_area = process.report_area_um2(&report.management);
    area_um2 += meta_area;
    println!(
        "  {:<12} {:>10.2} KB  {:>12.0} um^2",
        "Management",
        report.management.kilobytes(),
        meta_area
    );
    println!(
        "  {:<12} {:>10.2} KB  {:>12.2} mm^2",
        "Total",
        report.total_kb(),
        area_um2 / 1.0e6
    );
    match (report.budget_kb, report.over_budget_kb()) {
        (Some(kb), Some(over)) => {
            println!(
                "  OVER BUDGET: {:.2} KB > {kb:.2} KB (+{over:.2})",
                report.total_kb()
            )
        }
        (Some(kb), None) => println!("  within budget: {:.2} KB <= {kb:.2} KB", report.total_kb()),
        (None, _) => {}
    }
}

fn main() -> ExitCode {
    let o = match cli::parse("cobra-area", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut targets = o.targets.clone();
    if o.all {
        targets.extend(designs::catalog().into_iter().map(|d| d.name));
    }

    let process = ProcessModel::finfet_7nm();
    let mut failed = false;
    let mut json_reports = Vec::new();
    for target in &targets {
        match report_for(target, &o) {
            Ok(report) => {
                if report.over_budget_kb().is_some() {
                    failed = true;
                }
                if o.json {
                    json_reports.push(report.render_json());
                } else {
                    print_human(&report, &process);
                }
            }
            Err(msg) => {
                failed = true;
                if o.json {
                    json_reports.push(format!(
                        "{{\"design\":\"{}\",\"error\":\"{}\"}}",
                        target.replace('\\', "\\\\").replace('"', "\\\""),
                        msg.replace('\\', "\\\\").replace('"', "\\\"")
                    ));
                } else {
                    eprintln!("cobra-area: {target}: {msg}");
                }
            }
        }
    }
    if o.json {
        println!("[{}]", json_reports.join(","));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
