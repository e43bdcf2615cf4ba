//! Extension ablation: an ITTAGE indirect-target predictor on top of
//! TAGE-L. The stock designs predict indirect targets only through the
//! BTB's last-target entry; interpreter- and dispatch-heavy workloads
//! (perlbench, omnetpp) pay for that in target mispredictions.

use cobra_bench::pct_delta;
use cobra_bench::runner::{run_grid, Job};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{spec17, ProgramSpec};

const WORKLOADS: [&str; 4] = ["perlbench", "omnetpp", "xalancbmk", "gcc"];

fn main() {
    println!("ABLATION — ITTAGE indirect-target prediction over TAGE-L");
    println!(
        "{:<11} {:>10} {:>10} {:>9} {:>11} {:>11}",
        "bench", "MPKI base", "MPKI +IT", "dMPKI", "tgtMiss/ki", "tgtMiss+IT"
    );
    let d_base = designs::tage_l();
    let d_it = designs::by_name("TAGE-L+IT").expect("catalog design");
    let specs: Vec<ProgramSpec> = WORKLOADS.iter().map(|w| spec17::spec17(w)).collect();
    // Workload-major pairs: (base, +ITTAGE) per benchmark.
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            [
                Job::new(&d_base, CoreConfig::boom_4wide(), spec),
                Job::new(&d_it, CoreConfig::boom_4wide(), spec),
            ]
        })
        .collect();
    let grid = run_grid(&jobs);
    for (i, w) in WORKLOADS.iter().enumerate() {
        let base = &grid[2 * i].report;
        let it = &grid[2 * i + 1].report;
        let tm = |r: &cobra_uarch::PerfReport| {
            r.counters.target_mispredicts as f64 * 1000.0 / r.counters.committed_insts as f64
        };
        println!(
            "{:<11} {:>10.2} {:>10.2} {:>9} {:>11.2} {:>11.2}",
            w,
            base.counters.mpki(),
            it.counters.mpki(),
            pct_delta(it.counters.mpki(), base.counters.mpki()),
            tm(base),
            tm(it),
        );
    }
    println!();
    println!("Expectation: indirect-heavy workloads lose a large share of their");
    println!("target misses; branch-direction accuracy is untouched.");
}
