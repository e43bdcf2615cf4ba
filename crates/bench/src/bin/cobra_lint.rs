//! `cobra-lint` — static analysis of predictor topologies.
//!
//! Runs the `cobra_core::analysis` passes over built-in designs or raw
//! topology strings, without simulating:
//!
//! ```text
//! cobra-lint --all                          # lint every built-in design
//! cobra-lint TAGE-L Tournament              # lint by design name
//! cobra-lint "UBTB1 > BIM2"                 # lint a raw topology
//! cobra-lint --all --format json            # machine-readable reports
//! cobra-lint --all --format sarif           # GitHub code-scanning output
//! cobra-lint --all --plan                   # + plan-soundness verifier
//! cobra-lint --all --deny warnings          # CI mode: warnings fail
//! cobra-lint --list-codes                   # the diagnostic code table
//! ```
//!
//! Raw topologies resolve against the stock component registry
//! ([`cobra_core::designs::stock_registry`]); built-in designs resolve
//! against their own registries and are cross-checked against the
//! storage reference figures in [`cobra_bench::reference`].
//!
//! `--plan` compiles each target's pipeline and cross-checks the lowered
//! execution plan against the elaborated design (the `P0101`–`P0501`
//! verifier), appending any finding to the report.
//!
//! Exit status follows the README's command-line conventions; 1 means
//! at least one denied diagnostic fired.

use cobra_bench::cli::{self, Stop};
use cobra_bench::{jsonv, reference};
use cobra_core::analysis::{self, AnalysisConfig, DiagCode, Severity};
use cobra_core::designs;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Options {
    targets: Vec<String>,
    all: bool,
    format: Format,
    plan: bool,
    deny_warnings: bool,
    deny: Vec<DiagCode>,
    allow: Vec<DiagCode>,
    width: u8,
    ghist_bits: u32,
    lhist_entries: u64,
    meta_budget_bits: u32,
}

impl Default for Options {
    fn default() -> Self {
        let base = AnalysisConfig::default();
        Self {
            targets: Vec::new(),
            all: false,
            format: Format::Human,
            plan: false,
            deny_warnings: false,
            deny: Vec::new(),
            allow: Vec::new(),
            width: base.width,
            ghist_bits: 64,
            lhist_entries: 256,
            meta_budget_bits: base.meta_budget_bits,
        }
    }
}

const USAGE: &str = "usage: cobra-lint [OPTIONS] [TARGET...]

Targets are built-in design names (e.g. TAGE-L) or raw topology strings
(e.g. \"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1\").

Options:
  --all               lint every built-in design
  --format FMT        human (default), json, or sarif
  --plan              also run the plan-soundness verifier (P-codes)
  --deny warnings     treat warnings as errors (exit 1)
  --deny CODE         treat one code (e.g. C0501) as an error
  --allow CODE        demote one warning code to a note
  --width N           fetch width for raw topologies [8]
  --ghist N           global-history bits for raw topologies [64]
  --lhist N           local-history entries for raw topologies [256]
  --meta-budget N     history-file metadata budget in bits [256]
  --list-codes        print the diagnostic code table and exit
  -h, --help          print this help";

fn parse_code(s: &str) -> Result<DiagCode, String> {
    DiagCode::from_code(s).ok_or_else(|| format!("unknown diagnostic code `{s}`"))
}

fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let mut o = Options::default();
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--list-codes" => {
                for c in DiagCode::all() {
                    println!(
                        "{}  {:7}  {}",
                        c.code(),
                        c.default_severity().name(),
                        c.summary()
                    );
                }
                return Err(Stop::Done);
            }
            "--all" => o.all = true,
            "--plan" => o.plan = true,
            "--format" => match args.value()?.as_str() {
                "json" => o.format = Format::Json,
                "human" => o.format = Format::Human,
                "sarif" => o.format = Format::Sarif,
                other => return Err(format!("unknown format `{other}`").into()),
            },
            "--deny" => {
                let v = args.value()?;
                if v == "warnings" {
                    o.deny_warnings = true;
                } else {
                    o.deny.push(parse_code(&v)?);
                }
            }
            "--allow" => o.allow.push(parse_code(&args.value()?)?),
            "--width" => o.width = args.parse()?,
            "--ghist" => o.ghist_bits = args.parse()?,
            "--lhist" => o.lhist_entries = args.parse()?,
            "--meta-budget" => o.meta_budget_bits = args.parse()?,
            _ => o.targets.push(cli::positional(a)?),
        }
    }
    if !o.all && o.targets.is_empty() {
        return Err("no targets; pass design names, topology strings, or --all".into());
    }
    Ok(o)
}

/// Applies deny/allow to a report's diagnostics in place.
fn adjust_severities(report: &mut analysis::AnalysisReport, o: &Options) {
    for d in &mut report.diagnostics {
        if o.allow.contains(&d.code) && d.severity == Severity::Warning {
            d.severity = Severity::Note;
        } else if d.severity == Severity::Warning && (o.deny_warnings || o.deny.contains(&d.code)) {
            d.severity = Severity::Error;
        }
    }
}

fn lint_one(target: &str, o: &Options) -> Result<analysis::AnalysisReport, String> {
    let cfg = |reference_kb, paper_kb| AnalysisConfig {
        width: o.width,
        meta_budget_bits: o.meta_budget_bits,
        reference_kb,
        paper_kb,
        ..AnalysisConfig::default()
    };
    let named = designs::by_name(target);
    let mut report = if let Some(design) = &named {
        let cfg = cfg(
            reference::measured_storage_kb(&design.name),
            reference::table1_storage_kb(&design.name),
        );
        analysis::analyze_design(design, &cfg)
    } else {
        let registry = designs::stock_registry();
        analysis::analyze_topology(
            target,
            target,
            &registry,
            o.ghist_bits,
            o.lhist_entries,
            &cfg(None, None),
        )
    }
    .map_err(|e| {
        // Parse failures never reach a report; render them in the same
        // caret style so the span is still visible.
        match e.span() {
            Some(span) => format!("{e}\n  {target}\n  {}", span.caret_line()),
            None => e.to_string(),
        }
    })?;
    if o.plan {
        // The verifier needs a compiled pipeline; a design whose pipeline
        // cannot compile already carries error diagnostics in the report,
        // so a compile failure here is not double-reported.
        let design = match named {
            Some(d) => d,
            None => designs::from_topology(target, o.ghist_bits, o.lhist_entries),
        };
        if let Ok(diags) = analysis::verify_design_plan(&design, o.width) {
            report.diagnostics.extend(diags);
        }
    }
    adjust_severities(&mut report, o);
    Ok(report)
}

fn main() -> ExitCode {
    let o = match cli::parse("cobra-lint", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut targets = o.targets.clone();
    if o.all {
        targets.extend(designs::catalog().into_iter().map(|d| d.name));
    }

    let mut failed = false;
    let mut json_reports = Vec::new();
    let mut sarif_results = Vec::new();
    for target in &targets {
        match lint_one(target, &o) {
            Ok(report) => {
                if !report.is_clean(Severity::Error) {
                    failed = true;
                }
                match o.format {
                    Format::Json => json_reports.push(report.render_json()),
                    Format::Sarif => sarif_results.extend(sarif_results_for(&report)),
                    Format::Human => print!("{}", report.render_human()),
                }
            }
            Err(msg) => {
                failed = true;
                match o.format {
                    Format::Json => json_reports.push(format!(
                        "{{\"design\":{},\"error\":{}}}",
                        jsonv::escape(target),
                        jsonv::escape(&msg)
                    )),
                    Format::Sarif => sarif_results.push(sarif_result(
                        "C0001",
                        "error",
                        &format!("{target}: {msg}"),
                        target,
                        None,
                    )),
                    Format::Human => eprintln!("cobra-lint: {target}: {msg}"),
                }
            }
        }
    }
    match o.format {
        Format::Json => println!("[{}]", json_reports.join(",")),
        Format::Sarif => println!("{}", sarif_document(&sarif_results)),
        Format::Human => {}
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// SARIF severity level for a diagnostic severity.
fn sarif_level(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// One SARIF result object. `region` is a byte span into the topology
/// text, reported as single-line column coordinates.
fn sarif_result(
    rule: &str,
    level: &str,
    message: &str,
    artifact: &str,
    region: Option<(usize, usize)>,
) -> String {
    let region_json = match region {
        Some((start, end)) => format!(
            ",\"region\":{{\"startLine\":1,\"startColumn\":{},\"endColumn\":{}}}",
            start + 1,
            end.max(start + 1) + 1
        ),
        None => String::new(),
    };
    format!(
        "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
         {{\"uri\":{}}}{region_json}}}}}]}}",
        jsonv::escape(rule),
        jsonv::escape(level),
        jsonv::escape(message),
        jsonv::escape(&format!("topologies/{}.cobra", sanitize(artifact))),
    )
}

/// All SARIF results for one report, in diagnostic order.
fn sarif_results_for(report: &analysis::AnalysisReport) -> Vec<String> {
    report
        .diagnostics
        .iter()
        .map(|d| {
            let mut text = format!("{}: {}", report.name, d.message);
            if let Some(c) = &d.component {
                text.push_str(&format!(" (component `{c}`)"));
            }
            if let Some(h) = &d.hint {
                text.push_str(&format!(" — hint: {h}"));
            }
            sarif_result(
                d.code.code(),
                sarif_level(d.severity),
                &text,
                &report.name,
                d.span.map(|s| (s.start, s.end)),
            )
        })
        .collect()
}

/// Wraps results in a complete SARIF 2.1.0 document with the full rule
/// table, suitable for GitHub code-scanning upload.
fn sarif_document(results: &[String]) -> String {
    let rules = DiagCode::all()
        .iter()
        .map(|c| {
            format!(
                "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
                 \"defaultConfiguration\":{{\"level\":{}}}}}",
                jsonv::escape(c.code()),
                jsonv::escape(c.summary()),
                jsonv::escape(sarif_level(c.default_severity())),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"cobra-lint\",\"rules\":[{rules}]}}}},\
         \"results\":[{}]}}]}}",
        results.join(",")
    )
}

/// Filesystem-safe artifact stem for a design name or raw topology.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
