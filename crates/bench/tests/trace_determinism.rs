//! Determinism and isolation of `COBRA_TRACE` event tracing.
//!
//! Two properties, both load-bearing for the observability story:
//!
//! 1. **Tracing never perturbs results.** A grid run with tracing on
//!    must produce `PerfReport`s (and therefore printed stdout rows)
//!    identical to a run with tracing off — the sinks observe, they do
//!    not steer.
//! 2. **Trace files are thread-count independent.** Each grid job traces
//!    to its own file named by its stable job id, so the bytes of every
//!    per-job trace must be identical whether the grid ran on 1 thread
//!    or 4, same as the reports themselves.

use cobra_bench::runner::{job_id, run_grid_on, Job};
use cobra_core::config::{self, Config};
use cobra_core::designs;
use cobra_uarch::{CoreConfig, PerfReport};
use cobra_workloads::{kernels, spec17};
use std::path::PathBuf;

fn grid_reports(threads: usize, jobs: &[Job<'_>]) -> Vec<PerfReport> {
    run_grid_on(threads, jobs)
        .into_iter()
        .map(|r| r.report)
        .collect()
}

/// Sets the process config's `COBRA_TRACE` template, keeping every
/// other knob.
fn set_trace(template: Option<String>) {
    config::set(Config {
        trace: template,
        ..(*config::get()).clone()
    });
}

/// One test function on purpose: it pins the process config's
/// `COBRA_INSTS` and `COBRA_TRACE`, which would race against sibling
/// tests reading the same knobs.
#[test]
fn tracing_is_deterministic_and_free_of_side_effects() {
    config::set(Config {
        insts: 6000,
        ..(*config::get()).clone()
    });

    let d_tourn = designs::tournament();
    let d_tage = designs::tage_l();
    let specs = [spec17::spec17("gcc"), kernels::aliasing_stress()];
    let designs = [&d_tourn, &d_tage];
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            designs
                .iter()
                .map(move |d| Job::new(d, CoreConfig::boom_4wide(), spec))
        })
        .collect();

    // Baseline: tracing off.
    set_trace(None);
    let reports_off = grid_reports(1, &jobs);

    let base = std::env::temp_dir().join(format!("cobra-trace-test-{}", std::process::id()));
    let dir1 = base.join("t1");
    let dir4 = base.join("t4");

    // Same grid, tracing on, 1 thread then 4 threads into separate dirs.
    let template = |dir: &PathBuf| dir.join("ev-{}.jsonl").to_str().map(String::from);
    set_trace(Some(template(&dir1).expect("utf-8 path")));
    let reports_t1 = grid_reports(1, &jobs);

    set_trace(Some(template(&dir4).expect("utf-8 path")));
    let reports_t4 = grid_reports(4, &jobs);

    set_trace(None);

    // Property 1: tracing changed nothing — raw reports and the Display
    // rows the harness binaries print are byte-identical.
    assert_eq!(
        reports_off, reports_t1,
        "tracing on must not change results"
    );
    assert_eq!(
        reports_off, reports_t4,
        "thread count must not change results"
    );
    for (off, on) in reports_off.iter().zip(&reports_t1) {
        assert_eq!(off.to_string(), on.to_string());
    }

    // Property 2: per-job trace bytes are identical across thread counts.
    for (i, job) in jobs.iter().enumerate() {
        let name = format!(
            "ev-{}-{}-{}.jsonl",
            job_id(i),
            job.design.name,
            job.spec.name
        );
        let read = |dir: &PathBuf| {
            std::fs::read(dir.join(&name))
                .unwrap_or_else(|e| panic!("missing trace {name} in {}: {e}", dir.display()))
        };
        let (b1, b4) = (read(&dir1), read(&dir4));
        assert!(!b1.is_empty(), "{name}: trace should contain events");
        assert_eq!(b1, b4, "{name}: trace bytes diverged across thread counts");
    }

    let _ = std::fs::remove_dir_all(&base);
}
