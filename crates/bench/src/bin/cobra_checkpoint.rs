//! `cobra-checkpoint` — capture warm-state `.cbs` checkpoints for
//! warmup-once/measure-many grid runs.
//!
//! For each (design × workload) pair, builds the composed core, runs it
//! to the warmup boundary, and serializes the complete machine state —
//! every predictor table, the history file, the caches, the RAS, and the
//! workload cursor — into the COBRA Binary Snapshot format
//! (`docs/CHECKPOINT_FORMAT.md`). Grid binaries restore these via
//! `COBRA_CKPT_DIR`, skipping warm-up entirely while producing
//! `PerfReport`s byte-identical to straight-through runs:
//!
//! ```text
//! cobra-checkpoint gcc                      # all designs, one profile
//! cobra-checkpoint --all --out /tmp/ck      # the whole SPECint17 suite
//! cobra-checkpoint --all --at 200000        # checkpoint at 200k insts
//! cobra-checkpoint gcc --designs TAGE-L,B2  # a design subset
//! cobra-checkpoint gcc --verify             # restore + re-save each file
//! #                                           and require identical bytes
//! cobra-checkpoint --list                   # design and workload names
//! ```
//!
//! `--at` defaults to the warmup boundary the grid binaries will expect
//! at restore time: 40 % of `COBRA_INSTS` (500 000 by default). A
//! checkpoint taken at any other boundary is rejected at restore with a
//! precise `warmup boundary` identity mismatch rather than silently
//! skewing the measured region.
//!
//! Exit status follows the README's command-line conventions; 1 means
//! a capture or verify failed.

use cobra_bench::cli::{self, Stop};
use cobra_bench::runner::parallel_map;
use cobra_bench::{ckpt_file_name, warmup_for, KERNEL_NAMES};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::{read_meta, restore_checkpoint, save_checkpoint, CbsMeta, Core, CoreConfig};
use cobra_workloads::{ProgramSpec, SPEC17_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cobra-checkpoint [OPTIONS] WORKLOAD...

Runs each (design x workload) pair to the warmup boundary and writes the
warm machine state to `<out>/<design>--<workload>.cbs`, for restore via
COBRA_CKPT_DIR.

Options:
  --all            checkpoint every SPECint17 profile
  --designs CSV    comma-separated design names [every stock design]
  --out DIR        output directory [checkpoints]
  --at N           warmup boundary in instructions [40% of COBRA_INSTS]
  --verify         re-open each file, restore it into a fresh core,
                   re-serialize, and require byte-identical state
  --list           print design and workload names and exit
  -h, --help       print this help";

struct Options {
    specs: Vec<ProgramSpec>,
    designs: Vec<Design>,
    out: PathBuf,
    at: u64,
    verify: bool,
}

fn parse_args(args: &mut cli::Args) -> Result<Options, Stop> {
    let mut workloads: Vec<String> = Vec::new();
    let mut design_names: Option<Vec<String>> = None;
    let mut all = false;
    let mut out = PathBuf::from("checkpoints");
    let mut at = None;
    let mut verify = false;
    while let Some(a) = args.next_arg()? {
        match a.as_str() {
            "--all" => all = true,
            "--designs" => design_names = Some(args.csv()?),
            "--out" => out = PathBuf::from(args.value()?),
            "--at" => at = Some(args.parse::<u64>()?.max(1)),
            "--verify" => verify = true,
            "--list" => {
                let names: Vec<String> = designs::all().iter().map(|d| d.name.clone()).collect();
                println!("designs: {}", names.join(" "));
                println!("spec17: {}", SPEC17_NAMES.join(" "));
                println!("kernels: {}", KERNEL_NAMES.join(" "));
                return Err(Stop::Done);
            }
            _ => workloads.push(cli::positional(a)?),
        }
    }
    if all {
        workloads = cli::with_spec17(workloads);
    }
    if workloads.is_empty() {
        return Err("no workloads named (try `--all` or `--list`)".into());
    }
    Ok(Options {
        designs: cli::designs(design_names.as_deref())?,
        specs: workloads
            .iter()
            .map(|n| cli::workload(n))
            .collect::<Result<_, _>>()?,
        out,
        at: at.unwrap_or_else(|| warmup_for(cobra_core::config::get().insts)),
        verify,
    })
}

/// Captures one (design, workload) checkpoint, returning the bytes
/// written.
fn capture_one(
    design: &Design,
    spec: &ProgramSpec,
    warmup: u64,
    path: &std::path::Path,
) -> Result<u64, String> {
    let cfg = CoreConfig::boom_4wide();
    let mut core =
        Core::new(design, cfg, spec.build()).map_err(|e| format!("compose failed: {e}"))?;
    core.run(warmup, &spec.name);
    let meta = CbsMeta::for_run(design, &cfg, &spec.name, warmup);
    let file = std::fs::File::create(path).map_err(|e| format!("create failed: {e}"))?;
    save_checkpoint(std::io::BufWriter::new(file), &meta, &core)
        .map_err(|e| format!("write failed: {e}"))
}

/// Re-opens `path`, restores it into a fresh core, re-serializes that
/// core, and requires the bytes to match the file exactly — a full
/// save/restore/save fixed-point check.
fn verify_one(
    design: &Design,
    spec: &ProgramSpec,
    warmup: u64,
    path: &std::path::Path,
) -> Result<(), String> {
    let cfg = CoreConfig::boom_4wide();
    let bytes = std::fs::read(path).map_err(|e| format!("re-open failed: {e}"))?;
    let meta = CbsMeta::for_run(design, &cfg, &spec.name, warmup);
    let stored = read_meta(&bytes[..]).map_err(|e| format!("header: {e}"))?;
    if stored != meta {
        return Err(format!("identity mismatch: file says {stored:?}"));
    }
    let mut core =
        Core::new(design, cfg, spec.build()).map_err(|e| format!("compose failed: {e}"))?;
    restore_checkpoint(&bytes[..], &meta, &mut core).map_err(|e| format!("restore: {e}"))?;
    let mut resaved = Vec::new();
    save_checkpoint(&mut resaved, &meta, &core).map_err(|e| format!("re-save: {e}"))?;
    if resaved != bytes {
        return Err("restore/re-save is not a byte-identical fixed point".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match cli::parse("cobra-checkpoint", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!(
            "cobra-checkpoint: cannot create {}: {e}",
            opts.out.display()
        );
        return ExitCode::FAILURE;
    }

    let pairs: Vec<(&Design, &ProgramSpec)> = opts
        .designs
        .iter()
        .flat_map(|d| opts.specs.iter().map(move |s| (d, s)))
        .collect();
    println!(
        "checkpointing {} (design x workload) pair(s) to {} at {} warmup insts",
        pairs.len(),
        opts.out.display(),
        opts.at
    );

    let results = parallel_map(&pairs, |_, (design, spec)| {
        let path = opts.out.join(ckpt_file_name(&design.name, &spec.name));
        let t0 = Instant::now();
        let outcome = capture_one(design, spec, opts.at, &path).and_then(|bytes| {
            if opts.verify {
                verify_one(design, spec, opts.at, &path)?;
            }
            Ok(bytes)
        });
        (path, outcome, t0.elapsed().as_secs_f64())
    });

    let mut failed = false;
    for ((design, spec), (path, outcome, wall)) in pairs.iter().zip(&results) {
        match outcome {
            Ok(bytes) => {
                let verified = if opts.verify { "  verified" } else { "" };
                println!(
                    "  {:<12} {:<14} {:>9} bytes  {:>6.2}s{verified}  -> {}",
                    design.name,
                    spec.name,
                    bytes,
                    wall,
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("cobra-checkpoint: {}/{}: {e}", design.name, spec.name);
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
