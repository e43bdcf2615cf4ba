//! Fig 10: branch MPKI and IPC of the three COBRA-BOOM variants on the
//! SPECint17 suite, with the commercial-core reference points.

use cobra_bench::reference;
use cobra_bench::runner::{run_grid, write_grid_summary, Job};
use cobra_uarch::{harmonic_mean, CoreConfig, PerfReport};
use cobra_workloads::{spec17, ProgramSpec};
use std::time::Instant;

fn main() {
    let all_designs = cobra_core::designs::all();
    let specs: Vec<ProgramSpec> = spec17::SPEC17_NAMES
        .iter()
        .map(|w| spec17::spec17(w))
        .collect();
    // Design-major grid: results[design][bench].
    let jobs: Vec<Job<'_>> = all_designs
        .iter()
        .flat_map(|d| {
            specs
                .iter()
                .map(move |s| Job::new(d, CoreConfig::boom_4wide(), s))
        })
        .collect();
    let started = Instant::now();
    let grid = run_grid(&jobs);
    let grid_wall = started.elapsed();
    // Machine-readable companion to the stdout tables (stderr notes the
    // path): wall, MIPS, packet-path mode, and thread count per run.
    let config = cobra_core::config::get();
    write_grid_summary(&config.grid_json, &grid, config.threads, grid_wall);
    let results: Vec<Vec<PerfReport>> = grid
        .chunks(specs.len())
        .map(|row| row.iter().map(|r| r.report.clone()).collect())
        .collect();

    println!("FIG 10 — SPECint17: branch misses per kilo-instruction (MPKI)");
    println!(
        "{:<11} {:>10} {:>10} {:>10}   {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench",
        "Tournament",
        "B2",
        "TAGE-L",
        "pprTourn",
        "pprB2",
        "pprTAGEL",
        "Skylake*",
        "Gravitn*"
    );
    for (i, w) in spec17::SPEC17_NAMES.iter().enumerate() {
        println!(
            "{:<11} {:>10.2} {:>10.2} {:>10.2}   {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            w,
            results[0][i].counters.mpki(),
            results[1][i].counters.mpki(),
            results[2][i].counters.mpki(),
            reference::FIG10_MPKI_TOURNAMENT[i],
            reference::FIG10_MPKI_B2[i],
            reference::FIG10_MPKI_TAGE_L[i],
            reference::FIG10_SKYLAKE[i].0,
            reference::FIG10_GRAVITON[i].0,
        );
    }

    println!();
    println!("FIG 10 — SPECint17: IPC");
    println!(
        "{:<11} {:>10} {:>10} {:>10}   {:>9} {:>9}",
        "bench", "Tournament", "B2", "TAGE-L", "Skylake*", "Gravitn*"
    );
    let mut ipcs = [Vec::new(), Vec::new(), Vec::new()];
    for (i, w) in spec17::SPEC17_NAMES.iter().enumerate() {
        for d in 0..3 {
            ipcs[d].push(results[d][i].counters.ipc());
        }
        println!(
            "{:<11} {:>10.3} {:>10.3} {:>10.3}   {:>9.2} {:>9.2}",
            w,
            results[0][i].counters.ipc(),
            results[1][i].counters.ipc(),
            results[2][i].counters.ipc(),
            reference::FIG10_SKYLAKE[i].1,
            reference::FIG10_GRAVITON[i].1,
        );
    }
    println!(
        "{:<11} {:>10.3} {:>10.3} {:>10.3}",
        "HARMEAN",
        harmonic_mean(&ipcs[0]),
        harmonic_mean(&ipcs[1]),
        harmonic_mean(&ipcs[2]),
    );
    println!();
    println!("* fixed reference series quoted from the paper's figure (measured");
    println!("  there with `perf` on EC2 hardware; \"approximate due to different");
    println!("  ISAs\"). Shape checks: TAGE-L most accurate on every benchmark;");
    println!("  Tournament suffers on aliasing-heavy workloads; easy benchmarks");
    println!("  (exchange2, x264) near-ceiling for all designs.");
}
