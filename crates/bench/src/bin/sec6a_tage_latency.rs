//! Section VI-A: the physical-design experiment — a 2-cycle TAGE (critical
//! path) versus the 3-cycle pipelined TAGE. The paper found no accuracy
//! impact and ≈1 % IPC degradation.

use cobra_bench::runner::{run_grid, Job};
use cobra_bench::{pct_delta, reference};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{spec17, ProgramSpec};

const WORKLOADS: [&str; 5] = ["perlbench", "gcc", "x264", "leela", "xz"];

fn main() {
    println!("SECTION VI-A — TAGE arbitration latency: 2 vs 3 cycles");
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench", "IPC@2", "IPC@3", "dIPC", "acc@2", "acc@3", "dAcc"
    );
    let d2 = designs::by_name("TAGE-L/lat2").expect("catalog design");
    let d3 = designs::tage_l();
    let specs: Vec<ProgramSpec> = WORKLOADS.iter().map(|w| spec17::spec17(w)).collect();
    // Workload-major pairs: (2-cycle, 3-cycle) per benchmark.
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            [
                Job::new(&d2, CoreConfig::boom_4wide(), spec),
                Job::new(&d3, CoreConfig::boom_4wide(), spec),
            ]
        })
        .collect();
    let grid = run_grid(&jobs);
    let mut ipc_deltas = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r2 = &grid[2 * i].report;
        let r3 = &grid[2 * i + 1].report;
        ipc_deltas.push(100.0 * (r3.counters.ipc() - r2.counters.ipc()) / r2.counters.ipc());
        println!(
            "{:<11} {:>9.3} {:>9.3} {:>9} {:>8.2}% {:>8.2}% {:>8.2}",
            w,
            r2.counters.ipc(),
            r3.counters.ipc(),
            pct_delta(r3.counters.ipc(), r2.counters.ipc()),
            r2.counters.branch_accuracy(),
            r3.counters.branch_accuracy(),
            r3.counters.branch_accuracy() - r2.counters.branch_accuracy(),
        );
    }
    let mean = ipc_deltas.iter().sum::<f64>() / ipc_deltas.len() as f64;
    println!();
    println!(
        "mean IPC delta of the 3-cycle TAGE: {mean:+.2}%   (paper: ≈ −{:.0}%, \
with no accuracy impact)",
        reference::sec6::TAGE_LATENCY_IPC_LOSS_PCT
    );
    println!("The COBRA interface lets the TAGE latency change in isolation: no");
    println!("composer or topology modifications were needed for this sweep.");
}
