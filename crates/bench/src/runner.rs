//! The parallel experiment runner.
//!
//! Every harness binary that reproduces a paper table or figure runs a
//! (design × workload) grid of independent simulations — embarrassingly
//! parallel work the paper itself distributes across FireSim FPGA
//! instances (Section V). This module fans the grid out across OS threads:
//!
//! * [`parallel_map`] — deterministic-order parallel map over a slice,
//!   using [`std::thread::scope`] plus an atomic work-queue index (no
//!   external dependencies);
//! * [`run_grid`] — the simulation-shaped convenience: a slice of
//!   [`Job`]s in, a [`RunRecord`] per job out (same order), each with the
//!   [`PerfReport`], its wall-clock time, and its provenance.
//!
//! Thread count comes from the `COBRA_THREADS` environment variable
//! (default: available hardware parallelism). Results are returned in job
//! order regardless of completion order, and each job is a fully
//! independent seeded simulation, so the printed report rows are
//! byte-identical whatever the thread count — the determinism test in
//! `tests/` enforces exactly that.
//!
//! Per-job progress and the end-of-grid throughput summary go to stderr,
//! keeping stdout (the tables the binaries exist to print) stable for
//! diffing against `results/`. Each stderr progress line carries the
//! job's stable grid id (`job07`), which is also the tag substituted into
//! any `COBRA_TRACE` template so concurrent jobs trace to distinct files.
//! Setting `COBRA_METRICS=<path>` additionally appends each job's
//! [`RunRecord::metrics_record`] (same id, in job order) once the grid
//! completes.

use crate::{jsonv, run_one_sourced};
use cobra_core::composer::Design;
use cobra_uarch::{CoreConfig, PerfReport};
use cobra_workloads::ProgramSpec;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Applies `f` to every item of `items` across `threads` OS threads,
/// returning the results in item order regardless of completion order.
///
/// Work is distributed through a shared atomic index (a lock-free work
/// queue), so long and short jobs interleave without static partitioning
/// imbalance. With `threads <= 1` the map runs inline on the calling
/// thread — bit-identical results either way, as long as `f` itself is
/// deterministic per item.
///
/// # Panics
///
/// Propagates a panic from any worker once all threads have joined.
pub fn parallel_map_on<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and completed")
        })
        .collect()
}

/// [`parallel_map_on`] with the `COBRA_THREADS` thread count.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_on(cobra_core::config::get().threads, items, f)
}

/// One cell of an experiment grid: a design, a core configuration, and a
/// workload.
pub struct Job<'a> {
    /// The predictor design to compose.
    pub design: &'a Design,
    /// Host-core configuration.
    pub cfg: CoreConfig,
    /// The workload to run.
    pub spec: &'a ProgramSpec,
}

impl<'a> Job<'a> {
    /// A job with the stock 4-wide BOOM configuration.
    pub fn new(design: &'a Design, cfg: CoreConfig, spec: &'a ProgramSpec) -> Self {
        Self { design, cfg, spec }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.design.name, self.spec.name)
    }
}

/// One run and where it came from: the one record behind every run
/// channel — the `[runner]` stderr line, the `COBRA_METRICS` JSONL
/// record, the `cobra-serve --bench-client` mirror and `cobra-trace
/// --metrics`. Every provenance field is `None` on the default path
/// (execution-driven, warmed up from scratch, untelemetered, exact,
/// in-process, compiled plan) and is rendered only when set.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The measured-region performance report.
    pub report: PerfReport,
    /// Wall-clock time of the whole run (warm-up + measured region).
    pub wall: Duration,
    /// The `.cbt` file replayed, when the run was trace-driven
    /// (`COBRA_TRACE_DIR`).
    pub trace: Option<PathBuf>,
    /// The `.cbs` file restored, when the run skipped its warm-up via a
    /// warm-state checkpoint (`COBRA_CKPT_DIR`).
    pub checkpoint: Option<PathBuf>,
    /// The `.cbm` interval-telemetry file written, when `COBRA_INTERVAL`
    /// armed the engine.
    pub metrics: Option<PathBuf>,
    /// `"<mode>:<plan path>"` when the run was *estimated* under a
    /// sampling plan (`COBRA_SAMPLE_DIR`), where mode is `ckpt` or
    /// `cold` ([`crate::sampling::SampleMode`]); its report carries
    /// estimated counters (`docs/SAMPLING.md`).
    pub sampled: Option<String>,
    /// The `cobra-serve` endpoint that produced the report, when the run
    /// was served rather than simulated in-process.
    pub served: Option<String>,
    /// How the serving daemon satisfied the job: `"hit"` (tier-1 result
    /// cache), `"warm"` (tier-2 checkpoint restore), or `"miss"` (full
    /// simulation).
    pub cache: Option<String>,
    /// `"interpreter"` when the run's pipelines took the reference
    /// interpreter fold (`COBRA_PLAN=off`) instead of the compiled plan.
    /// A served record leaves it `None`: the client cannot know the
    /// daemon's setting.
    pub packet_path: Option<&'static str>,
}

impl RunRecord {
    /// The record of an in-process run: `report` measured over `wall`,
    /// with the packet path of the process config (which the run's
    /// pipelines compiled from) and no other provenance.
    pub fn new(report: PerfReport, wall: Duration) -> Self {
        Self {
            report,
            wall,
            trace: None,
            checkpoint: None,
            metrics: None,
            sampled: None,
            served: None,
            cache: None,
            packet_path: (!cobra_core::config::get().plan).then_some("interpreter"),
        }
    }

    /// Simulated millions of instructions per wall-clock second, counting
    /// the measured region's committed instructions against the whole
    /// run's wall time (warm-up included) — a conservative throughput
    /// figure for capacity planning.
    pub fn mips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.report.counters.committed_insts as f64 / secs / 1e6
    }

    /// The provenance rows in record order: JSON key, stderr key, value.
    /// Both renderers read these rows, so a field added here shows up on
    /// both channels.
    fn provenance(&self) -> [(&'static str, &'static str, Option<String>); 7] {
        let path = |p: &Option<PathBuf>| p.as_ref().map(|p| p.display().to_string());
        [
            ("trace", "trace", path(&self.trace)),
            ("checkpoint", "ckpt", path(&self.checkpoint)),
            ("metrics", "cbm", path(&self.metrics)),
            ("sampled", "sampled", self.sampled.clone()),
            ("served", "served", self.served.clone()),
            ("cache", "cache", self.cache.clone()),
            (
                "packet_path",
                "packet_path",
                self.packet_path.map(String::from),
            ),
        ]
    }

    /// The provenance suffix of a stderr progress line (` trace=…`,
    /// ` ckpt=…`, ` cbm=…`, …); empty on the default path.
    pub fn provenance_note(&self) -> String {
        let mut note = String::new();
        for (_, key, value) in self.provenance() {
            if let Some(v) = value {
                note.push_str(&format!(" {key}={v}"));
            }
        }
        note
    }

    /// The record as one `COBRA_METRICS` JSONL line: job id, design,
    /// workload, wall seconds, MIPS, IPC, MPKI, accuracy, instruction,
    /// cycle and miss counts, then the provenance fields that are set.
    pub fn metrics_record(&self, job_id: &str) -> String {
        let c = &self.report.counters;
        let mut provenance = String::new();
        for (key, _, value) in self.provenance() {
            if let Some(v) = value {
                provenance.push_str(&format!(",\"{key}\":{}", jsonv::escape(&v)));
            }
        }
        format!(
            "{{\"job\":{},\"design\":{},\"workload\":{},\"wall_s\":{:.6},\"mips\":{:.3},\
             \"ipc\":{:.4},\"mpki\":{:.4},\"acc\":{:.4},\"insts\":{},\"cycles\":{},\
             \"branch_misses\":{}{provenance}}}",
            jsonv::escape(job_id),
            jsonv::escape(&self.report.design),
            jsonv::escape(&self.report.workload),
            self.wall.as_secs_f64(),
            self.mips(),
            c.ipc(),
            c.mpki(),
            c.branch_accuracy(),
            c.committed_insts,
            c.cycles,
            c.branch_misses()
        )
    }
}

/// Runs `jobs` on `threads` worker threads. Results come back in job
/// order; each row is bit-identical to what a serial loop over
/// [`run_one`](crate::run_one) would produce.
pub fn run_grid_on(threads: usize, jobs: &[Job<'_>]) -> Vec<RunRecord> {
    let total = jobs.len();
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let results = parallel_map_on(threads, jobs, |i, job| {
        let tag = job_id(i);
        let r = run_one_sourced(
            job.design,
            job.cfg,
            job.spec,
            Some(&format!("{tag}-{}-{}", job.design.name, job.spec.name)),
        );
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[runner] {n}/{total} {tag} {:<28} {:>7.2}s {:>7.2} MIPS{}",
            job.label(),
            r.wall.as_secs_f64(),
            r.mips(),
            r.provenance_note()
        );
        r
    });
    if let Some(path) = &cobra_core::config::get().metrics {
        let lines: Vec<String> = results
            .iter()
            .enumerate()
            .map(|(i, r)| r.metrics_record(&job_id(i)))
            .collect();
        if let Err(e) = write_metrics(path, &lines) {
            eprintln!("[runner] warning: could not write COBRA_METRICS={path:?}: {e}");
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let insts: u64 = results
        .iter()
        .map(|r| r.report.counters.committed_insts)
        .sum();
    // Summed per-job wall clock, not CPU time: when threads oversubscribe
    // the cores, a job's wall includes time spent descheduled.
    let job_secs: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    eprintln!(
        "[runner] grid done: {total} jobs on {} thread(s), {wall:.2}s wall \
         ({job_secs:.2} job-seconds, {:.2} aggregate MIPS)",
        threads.clamp(1, total.max(1)),
        if wall > 0.0 {
            insts as f64 / wall / 1e6
        } else {
            0.0
        }
    );
    results
}

/// [`run_grid_on`] with the `COBRA_THREADS` thread count — what the
/// harness binaries call.
pub fn run_grid(jobs: &[Job<'_>]) -> Vec<RunRecord> {
    run_grid_on(cobra_core::config::get().threads, jobs)
}

/// The stable id of grid position `i` (`job00`, `job01`, …) — the tag on
/// the stderr progress line, the `COBRA_TRACE` file-name context, and the
/// `job` field of each metrics record.
pub fn job_id(i: usize) -> String {
    format!("job{i:02}")
}

/// Appends `lines` (one JSONL record each) to `path`, creating parent
/// directories and the file as needed.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be created or
/// written.
pub fn write_metrics(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_on(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_inline() {
        let items = vec![1, 2, 3];
        let out = parallel_map_on(1, &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty() {
        let items: Vec<u32> = vec![];
        let out = parallel_map_on(8, &items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..64).collect();
        let serial = parallel_map_on(1, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        let parallel = parallel_map_on(8, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        assert_eq!(serial, parallel);
    }

    fn record(workload: &str) -> RunRecord {
        RunRecord {
            packet_path: None,
            ..RunRecord::new(
                PerfReport {
                    workload: workload.into(),
                    design: "TAGE-L".into(),
                    counters: Default::default(),
                    attribution: Default::default(),
                },
                Duration::from_millis(1234),
            )
        }
    }

    /// The keys of a flat JSON object line, in order (`jsonv` sorts
    /// them): the strings that follow a `{` or `,` outside any string.
    fn keys(line: &str) -> Vec<String> {
        jsonv::parse(line).expect("record parses");
        let mut keys = Vec::new();
        let (mut in_str, mut escaped, mut key_next) = (false, false, false);
        let mut key: Option<String> = None;
        for ch in line.chars() {
            if !in_str {
                match ch {
                    '"' => {
                        in_str = true;
                        key = key_next.then(String::new);
                    }
                    '{' | ',' => key_next = true,
                    _ => key_next = false,
                }
            } else if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
                key_next = false;
                keys.extend(key.take());
            } else if let Some(k) = &mut key {
                k.push(ch);
            }
        }
        keys
    }

    #[test]
    fn a_record_without_provenance_keeps_the_eleven_keys() {
        let r = record("gcc \"ref\"");
        assert_eq!(r.provenance_note(), "");
        let line = r.metrics_record(&job_id(3));
        assert_eq!(
            keys(&line),
            [
                "job",
                "design",
                "workload",
                "wall_s",
                "mips",
                "ipc",
                "mpki",
                "acc",
                "insts",
                "cycles",
                "branch_misses"
            ]
        );
        let v = jsonv::parse(&line).expect("record parses");
        assert_eq!(v.get("job").and_then(jsonv::Json::as_str), Some("job03"));
        assert_eq!(
            v.get("workload").and_then(jsonv::Json::as_str),
            Some("gcc \"ref\"")
        );
    }

    #[test]
    fn every_provenance_row_reaches_both_channels() {
        let r = RunRecord {
            trace: Some(PathBuf::from("/tmp/traces/gcc.cbt")),
            checkpoint: Some(PathBuf::from("/tmp/ckpt/TAGE-L--gcc.cbs")),
            metrics: Some(PathBuf::from("metrics/TAGE-L--gcc.cbm")),
            sampled: Some("ckpt:/tmp/plans/gcc.plan.json".into()),
            served: Some("unix:/tmp/cobra-serve.sock".into()),
            cache: Some("hit".into()),
            packet_path: Some("interpreter"),
            ..record("gcc")
        };
        let note = r.provenance_note();
        let line = r.metrics_record("job00");
        let v = jsonv::parse(&line).expect("record parses");
        let rows = r.provenance();
        for (json_key, stderr_key, value) in &rows {
            let value = value.as_deref().expect("every field is set");
            assert!(
                note.contains(&format!(" {stderr_key}={value}")),
                "{stderr_key} missing from {note:?}"
            );
            assert_eq!(
                v.get(json_key).and_then(jsonv::Json::as_str),
                Some(value),
                "{json_key} in {line}"
            );
        }
        let tail: Vec<String> = keys(&line).split_off(11);
        let row_keys: Vec<&str> = rows.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(
            tail, row_keys,
            "provenance follows the counters in row order"
        );
        assert!(
            note.contains(" ckpt=/tmp/ckpt/TAGE-L--gcc.cbs cbm="),
            "{note}"
        );
    }
}
