//! Determinism of the parallel experiment runner.
//!
//! Every grid cell is an independent seeded simulation, so the runner's
//! thread count must never leak into the results: `COBRA_THREADS=1` and
//! `COBRA_THREADS=4` have to produce bit-identical [`PerfReport`]s in the
//! same job order. This is the property that lets the harness binaries
//! print byte-stable tables whatever the host's core count.

use cobra_bench::runner::{run_grid_on, Job};
use cobra_core::config::{self, Config};
use cobra_core::designs;
use cobra_uarch::{CoreConfig, PerfReport};
use cobra_workloads::{kernels, spec17};

/// One test function on purpose: it pins the process config's
/// `COBRA_INSTS`, which would race against sibling tests reading it.
#[test]
fn thread_count_does_not_change_reports() {
    // Keep the grid fast: the property under test is scheduling
    // independence, not simulator behavior at full run length.
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

    let serial: Vec<PerfReport> = run_grid_on(1, &jobs)
        .into_iter()
        .map(|r| r.report)
        .collect();
    let parallel: Vec<PerfReport> = run_grid_on(4, &jobs)
        .into_iter()
        .map(|r| r.report)
        .collect();

    assert_eq!(serial.len(), jobs.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "job {i} ({}/{}) diverged across thread counts",
            s.design, s.workload
        );
    }

    // And the runs actually simulated something.
    assert!(serial.iter().all(|r| r.counters.committed_insts > 0));
}
