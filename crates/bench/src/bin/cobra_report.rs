//! `cobra-report` — decode `.cbm` interval telemetry into phase
//! timelines, phase-change events, and worst-interval tables.
//!
//! The interval engine (see `cobra_core::obs::interval`) streams one
//! record per `COBRA_INTERVAL` committed instructions into a `.cbm`
//! file; this tool is the consumer:
//!
//! ```text
//! cobra-report metrics/TAGE-L--gcc.cbm            # timeline + phases + worst intervals
//! cobra-report --top 5 metrics/*.cbm              # more worst-interval rows
//! cobra-report --format json m.cbm                # machine-readable report
//! cobra-report --similarity m.cbm                 # interval-similarity matrix
//! cobra-report --check metrics/*.cbm              # CI mode: decode + reconcile only
//! ```
//!
//! Phase analysis uses the per-interval phase signature (a hashed
//! branch-PC working-set histogram, BBV-style): consecutive intervals
//! whose cosine similarity drops below the `--phase-threshold` are
//! reported as phase changes, and the `--similarity` matrix shows the
//! full interval × interval structure (SimPoint-style, small enough to
//! eyeball).
//!
//! `--check` decodes each file (checksums, caps, shape), verifies the
//! reconciliation invariant — summed over all records, the host and
//! per-component attribution deltas equal the embedded end-of-run
//! totals bit-exactly — and verifies the signature geometry
//! `cobra-sample plan` relies on (bucket count matching this build's
//! interval engine, full-width per-record signatures, no degenerate
//! intervals). Exit status follows the README's command-line
//! conventions; 1 means a file failed to decode, reconcile, or validate.

use cobra_bench::cli::{self, Stop};
use cobra_bench::jsonv;
use cobra_core::obs::interval::cosine;
use cobra_uarch::{read_metrics, reconcile, CbmFile};
use std::process::ExitCode;

struct Options {
    paths: Vec<String>,
    top: usize,
    json: bool,
    check: bool,
    similarity: bool,
    phase_threshold: f64,
}

const USAGE: &str = "usage: cobra-report [OPTIONS] FILE.cbm [FILE.cbm ...]

Decodes .cbm interval-telemetry files into phase timelines, phase-change
events, and worst-interval tables.

Options:
  --format FMT          human (default) or json
  --top N               rows in the worst-interval tables [3]
  --phase-threshold X   cosine-similarity drop that counts as a phase
                        change, in (0, 1] [0.75]
  --similarity          also print the interval-similarity matrix
  --check               decode, verify reconciliation, and validate the
                        phase-signature geometry cobra-sample expects
                        (CI mode); exit 1 on any failure
  -h, --help            print this help";

fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let mut o = Options {
        paths: Vec::new(),
        top: 3,
        json: false,
        check: false,
        similarity: false,
        phase_threshold: 0.75,
    };
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--format" => match args.value()?.as_str() {
                "json" => o.json = true,
                "human" => o.json = false,
                other => return Err(format!("unknown format `{other}`").into()),
            },
            "--top" => o.top = args.parse()?,
            "--phase-threshold" => {
                o.phase_threshold = args.parse()?;
                if !(o.phase_threshold > 0.0 && o.phase_threshold <= 1.0) {
                    return Err("`--phase-threshold` must be in (0, 1]".into());
                }
            }
            "--similarity" => o.similarity = true,
            "--check" => o.check = true,
            _ => o.paths.push(cli::positional(a)?),
        }
    }
    if o.paths.is_empty() {
        return Err("expected at least one FILE.cbm".into());
    }
    Ok(o)
}

fn open(path: &str) -> Result<CbmFile, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let file = read_metrics(std::io::BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    reconcile(&file).map_err(|e| format!("{path}: does not reconcile: {e}"))?;
    Ok(file)
}

/// `--check` also verifies the signature geometry `cobra-sample plan`
/// relies on: the declared bucket count must match the engine's
/// [`SIG_BUCKETS`](cobra_core::obs::interval::SIG_BUCKETS), every record
/// must carry a full-width signature, and no interval may be degenerate
/// (a zero length or an empty interval would poison clustering weights).
fn check_sampling_geometry(path: &str, file: &CbmFile) -> Result<(), String> {
    let expect = cobra_core::obs::interval::SIG_BUCKETS as u64;
    if file.meta.sig_buckets != expect {
        return Err(format!(
            "{path}: header declares {}-bucket phase signatures but this \
             build's interval engine emits {expect} — the file cannot seed \
             `cobra-sample plan` (re-capture it with this build)",
            file.meta.sig_buckets
        ));
    }
    if file.meta.interval_n == 0 {
        return Err(format!(
            "{path}: header declares interval_n=0 — interval telemetry was \
             never armed, so there is no phase series to cluster"
        ));
    }
    for r in &file.records {
        if r.sig.len() as u64 != file.meta.sig_buckets {
            return Err(format!(
                "{path}: interval {} carries a {}-bucket signature but the \
                 header declares {} — truncated or mixed-version file",
                r.seq,
                r.sig.len(),
                file.meta.sig_buckets
            ));
        }
        if r.host.committed_insts == 0 {
            return Err(format!(
                "{path}: interval {} is empty (zero committed instructions) \
                 — `cobra-sample plan` would reject this series",
                r.seq
            ));
        }
    }
    Ok(())
}

/// Interval indices where the phase signature breaks with the previous
/// interval (cosine similarity below `threshold`).
fn phase_changes(file: &CbmFile, threshold: f64) -> Vec<(usize, f64)> {
    file.records
        .windows(2)
        .enumerate()
        .filter_map(|(i, w)| {
            let sim = cosine(&w[0].sig, &w[1].sig);
            (sim < threshold).then_some((i + 1, sim))
        })
        .collect()
}

/// The `top` worst intervals for component row `row`, by blame
/// (direction + target), skipping blame-free intervals. Returns
/// `(record index, blame)` pairs, worst first.
fn worst_intervals(file: &CbmFile, row: usize, top: usize) -> Vec<(usize, u64)> {
    let mut rows: Vec<(usize, u64)> = file
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.attr.components[row].counters.blame()))
        .filter(|&(_, b)| b > 0)
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    rows
}

fn render_human(path: &str, file: &CbmFile, o: &Options) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let m = &file.meta.id;
    let _ = writeln!(
        out,
        "{path}: {} on {} (topology {}), interval {} insts, {} intervals",
        m.design,
        m.workload,
        m.topology,
        file.meta.interval_n,
        file.records.len()
    );
    let _ = writeln!(
        out,
        "totals: {} insts, MPKI {:.2}, IPC {:.3} — reconciles bit-exactly",
        file.totals_host.committed_insts,
        file.totals_host.mpki(),
        file.totals_host.ipc()
    );
    let _ = writeln!(
        out,
        "\n{:>4} {:>12} {:>8} {:>7} {:>7} {:>7} {:>8} {:>5}",
        "ivl", "start_inst", "insts", "mpki", "ipc", "hf_occ", "ras", "sim"
    );
    let mut prev_sig: Option<&Vec<u32>> = None;
    for (i, r) in file.records.iter().enumerate() {
        let sim = prev_sig
            .map(|p| format!("{:.2}", cosine(p, &r.sig)))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{i:>4} {:>12} {:>8} {:>7.2} {:>7.3} {:>7} {:>4}/{:<3} {sim:>5}",
            r.start_inst,
            r.host.committed_insts,
            r.host.mpki(),
            r.host.ipc(),
            r.gauges.hf_occupancy,
            r.gauges.ras_depth,
            r.gauges.ras_high_water,
        );
        prev_sig = Some(&r.sig);
    }
    let changes = phase_changes(file, o.phase_threshold);
    if changes.is_empty() {
        let _ = writeln!(
            out,
            "\nno phase changes (cosine similarity never dropped below {:.2})",
            o.phase_threshold
        );
    } else {
        let _ = writeln!(
            out,
            "\nphase changes (similarity < {:.2}):",
            o.phase_threshold
        );
        for (i, sim) in &changes {
            let _ = writeln!(
                out,
                "  interval {i} (at {} insts): similarity {sim:.3}",
                file.records[*i].start_inst
            );
        }
    }
    let _ = writeln!(out, "\nworst intervals per component (by blame):");
    for (row, label) in file.labels.iter().enumerate() {
        let worst = worst_intervals(file, row, o.top);
        if worst.is_empty() {
            continue;
        }
        let detail: Vec<String> = worst.iter().map(|(i, b)| format!("ivl{i}:{b}")).collect();
        let _ = writeln!(out, "  {label:<14} {}", detail.join(" "));
    }
    if o.similarity {
        let _ = writeln!(out, "\ninterval-similarity matrix (cosine × 100):");
        for a in &file.records {
            let row: Vec<String> = file
                .records
                .iter()
                .map(|b| format!("{:>3.0}", cosine(&a.sig, &b.sig) * 100.0))
                .collect();
            let _ = writeln!(out, "  {}", row.join(" "));
        }
    }
    out
}

fn render_json(path: &str, file: &CbmFile, o: &Options) -> String {
    let m = &file.meta.id;
    let records: Vec<String> = file
        .records
        .iter()
        .map(|r| {
            let blame: Vec<String> = file
                .labels
                .iter()
                .zip(&r.attr.components)
                .map(|(l, c)| format!("{}:{}", jsonv::escape(l), c.counters.blame()))
                .collect();
            format!(
                "{{\"start_inst\":{},\"insts\":{},\"mpki\":{:.4},\"ipc\":{:.4},\
                 \"hf_occupancy\":{},\"ras_depth\":{},\"blame\":{{{}}}}}",
                r.start_inst,
                r.host.committed_insts,
                r.host.mpki(),
                r.host.ipc(),
                r.gauges.hf_occupancy,
                r.gauges.ras_depth,
                blame.join(",")
            )
        })
        .collect();
    let changes: Vec<String> = phase_changes(file, o.phase_threshold)
        .iter()
        .map(|(i, sim)| format!("{{\"interval\":{i},\"similarity\":{sim:.6}}}"))
        .collect();
    format!(
        "{{\"file\":{},\"design\":{},\"workload\":{},\"topology\":{},\
         \"interval_n\":{},\"intervals\":{},\"total_insts\":{},\"total_mpki\":{:.4},\
         \"phase_changes\":[{}],\"records\":[{}]}}",
        jsonv::escape(path),
        jsonv::escape(&m.design),
        jsonv::escape(&m.workload),
        jsonv::escape(&m.topology),
        file.meta.interval_n,
        file.records.len(),
        file.totals_host.committed_insts,
        file.totals_host.mpki(),
        changes.join(","),
        records.join(",")
    )
}

fn main() -> ExitCode {
    let o = match cli::parse("cobra-report", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let mut failed = false;
    for path in &o.paths {
        match open(path) {
            Err(e) => {
                eprintln!("cobra-report: {e}");
                failed = true;
            }
            Ok(file) => {
                if o.check {
                    if let Err(e) = check_sampling_geometry(path, &file) {
                        eprintln!("cobra-report: {e}");
                        failed = true;
                        continue;
                    }
                    eprintln!(
                        "cobra-report: {path}: ok ({} intervals, reconciles, \
                         {}-bucket signatures)",
                        file.records.len(),
                        file.meta.sig_buckets
                    );
                } else if o.json {
                    println!("{}", render_json(path, &file, &o));
                } else {
                    print!("{}", render_human(path, &file, &o));
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
