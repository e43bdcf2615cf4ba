//! The repository's benchmark: host time of the COBRA reproduction, end
//! to end and per layer, on three workloads (see `perfbench/README.md`).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_exact --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`). The
//! lines before it give provenance, every metric with its unit, and any
//! failed check. `--bless` rewrites the workload's rows of the counter
//! fixture instead of timing.

mod fixture;
mod grids;
mod serve_mix;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["grid_exact", "grid_sampled", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("paper_mpki_err_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_share", "share"),
    ("sampled_err_max_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_err_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("runner.idle_s", "s"),
    ("workloads.open_s", "s"),
    ("workloads.next_block_s", "s"),
    ("workloads.replay_insts", "count"),
    ("composer.build_s", "s"),
    ("composer.predict_s", "s"),
    ("composer.queries", "count"),
    ("composer.commits", "count"),
    ("composer.useful_ratio", "share"),
    ("composer.revisions", "count"),
    ("composer.repair_entries", "count"),
    ("uarch.run_s", "s"),
    ("uarch.self_s", "s"),
    ("uarch.ns_per_cycle", "ns"),
    ("uarch.cycles", "count"),
    ("uarch.fetch_bubbles", "count"),
    ("uarch.rob_stall_cycles", "count"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.restores", "count"),
    ("checkpoint.bytes_read", "B"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes_written", "B"),
    ("sampling.slice_run_s", "s"),
    ("sampling.slices", "count"),
    ("sampling.sim_share", "share"),
    ("sampling.restore_per_run", "ratio"),
    ("sampling.err_heldout_max_pct", "%"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_ratio", "share"),
    ("serve.stores", "count"),
    ("serve.refusals_expected", "count"),
    ("serve.retries", "count"),
    ("serve.cache_bytes", "B"),
];

/// CI's bound on any sampled cell's MPKI error against the golden
/// full run (the `sampled-gate` leg's `--bound 10`).
pub const SAMPLED_BOUND_PCT: f64 = 10.0;

/// Environment knobs that change where the simulator reads or writes, or
/// what it computes; the benchmark refuses to time with any of them set.
pub const REFUSED_KNOBS: &[&str] = &[
    "COBRA_PLAN",
    "COBRA_TRACE",
    "COBRA_TRACE_DIR",
    "COBRA_CKPT_DIR",
    "COBRA_SAMPLE_DIR",
    "COBRA_INTERVAL",
    "COBRA_PROFILE",
    "COBRA_VERIFY_PLAN",
    "COBRA_SANITIZE",
];

/// Worker threads (and serve connections): the host's parallelism,
/// capped at two so the load is the same on larger hosts.
const MAX_THREADS: usize = 2;

/// One run's settings.
pub struct Ctx {
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// This run's scratch directory, removed at exit.
    pub tmp: PathBuf,
    /// Worker threads.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Rewrite the fixture instead of timing.
    pub bless: bool,
    workload: String,
}

impl Ctx {
    /// Writes the traced run's spans to `perfbench/out/spans-<workload>.jsonl`.
    pub fn write_spans(&self, spans: &[span::Span]) -> Result<(), String> {
        let dir = self.root.join("perfbench/out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}.jsonl", self.workload));
        std::fs::write(&path, span::to_jsonl(spans)).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Failed checks, printed before the result line.
    failures: Vec<String>,
    /// Informational lines.
    info: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A recorded metric, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one attempted operation, failed unless `ok`; `why` names
    /// the failure (empty when a note was already recorded).
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            if !why.is_empty() {
                self.failures.push(why);
            }
        }
    }

    /// Records a failed-check message.
    pub fn note(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Records an informational line.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Records the sample support of a latency distribution: its count
    /// and the highest percentile with ten samples beyond it.
    pub fn samples(&mut self, what: &str, xs: &[f64]) {
        match stats::tail(xs) {
            Some(t) => self.info.push(format!(
                "{what}: {} samples; p{} = {:.3} ms with {} beyond it",
                t.samples, t.pct, t.value, t.beyond
            )),
            None => self.info.push(format!(
                "{what}: {} samples (too few for a tail percentile)",
                xs.len()
            )),
        }
    }
}

/// Fisher–Yates shuffle driven by the seed.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = cobra_sim::SplitMix64::new(seed);
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checked-out revision, read from `.git` without running git.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// The `rustflags` the repository's `.cargo/config.toml` builds with.
fn codegen_flags(root: &Path) -> String {
    std::fs::read_to_string(root.join(".cargo/config.toml"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "none".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

const USAGE: &str = "usage: perfbench --workload <grid_exact|grid_sampled|serve_mixed> \
                     --seed <n> --seconds <n> --trace <0|1> [--bless]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--bless" => bless = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if bless && workload == "serve_mixed" {
        return Err("serve_mixed has no fixture rows: its reports are checked \
                    against the cache-less oracle"
            .into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        bless,
    })
}

/// Removes the run's scratch directory on every exit path.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let set: Vec<&str> = REFUSED_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to time with {} set: these knobs change what the simulator reads, \
             writes or computes",
            set.join(", ")
        ));
    }
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join(fixture::GOLDEN_PATH).is_file() || !root.join(fixture::PLANS_DIR).is_dir() {
        return Err(format!(
            "{} and {} not found: run from the repository root",
            fixture::GOLDEN_PATH,
            fixture::PLANS_DIR
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = root
        .join("perfbench/tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _tmp = TmpDir(tmp.clone());
    let ctx = Ctx {
        root: root.clone(),
        tmp,
        threads: nproc.min(MAX_THREADS),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace || args.bless,
        bless: args.bless,
        workload: args.workload.clone(),
    };
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={nproc} threads={} \
         revision={} codegen=[{}; profile.release lto=fat codegen-units=1]",
        args.workload,
        ctx.seed,
        args.seconds,
        u8::from(ctx.trace),
        ctx.threads,
        git_revision(&root),
        codegen_flags(&root)
    );

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "grid_exact" => grids::grid_exact(&ctx, &mut out)?,
        "grid_sampled" => grids::grid_sampled(&ctx, &mut out)?,
        _ => serve_mix::serve_mixed(&ctx, &mut out)?,
    }
    if args.bless {
        println!("blessed {} rows of {}", args.workload, fixture::CELLS_PATH);
        return Ok(out.failed == 0);
    }
    let share = stats::fail_share(out.failed, out.attempted);
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.set("ok_share", 1.0 - share);
    out.set("fail_share", share);

    for line in &out.info {
        println!("info: {line}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let list = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = out.metrics.get(*name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    for (name, unit) in list {
        let v = out.get(name);
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let attempted = out.attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.failed,
        fields.join(", ")
    );
    Ok(true)
}

/// A run that has not finished by then has hung: give up without a
/// result rather than outlive the harness's time limit.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

fn main() -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = cobra_bench::jsonv::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..30).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..30).collect::<Vec<_>>());
        let mut d: Vec<u32> = (0..30).collect();
        shuffle(&mut d, 8);
        assert_ne!(a, d);
    }
}
