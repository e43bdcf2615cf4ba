//! Ablation for Section III-C (superscalar prediction): a counter table
//! that reads one entry per *packet* aliases adjacent branches within the
//! packet; the superscalar (banked, per-slot) table does not.
//!
//! The paper's example: "two adjacent conditional branches that are
//! frequently in the same fetch packet … would alias onto the same entry"
//! of a non-superscalar table.

use cobra_bench::pct_delta;
use cobra_bench::runner::{run_grid, Job};
use cobra_core::components::{Hbim, HbimConfig};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{kernels, spec17, ProgramSpec};

/// A bare bimodal design: the table under test provides every direction
/// prediction, so intra-packet aliasing is not masked by a backing
/// predictor. The superscalar table is the stock `BIM2`; the per-packet
/// table is the same geometry under its own label, `PBIM2`.
fn bim_design(superscalar: bool) -> Design {
    if superscalar {
        return Design {
            name: "bim/superscalar".into(),
            ..designs::from_topology("BTB2 > BIM2", 16, 0)
        };
    }
    let mut design = Design {
        name: "bim/per-packet".into(),
        ..designs::from_topology("BTB2 > PBIM2", 16, 0)
    };
    design.registry.register("PBIM2", |w| {
        Box::new(Hbim::new(HbimConfig {
            superscalar: false,
            ..HbimConfig::bim(16384, w)
        }))
    });
    design
}

fn main() {
    println!("ABLATION §III-C — superscalar vs per-packet counter table (bare bimodal)");
    println!(
        "{:<11} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "bench", "MPKI ss", "MPKI packet", "dMPKI", "acc ss", "acc packet"
    );
    let dense = ProgramSpec {
        name: "branch-dense".into(),
        body_len: (0, 2),
        ..kernels::aliasing_stress()
    };
    let specs = [
        ("branch-dense", dense),
        ("gcc", spec17::spec17("gcc")),
        ("deepsjeng", spec17::spec17("deepsjeng")),
    ];
    let d_ss = bim_design(true);
    let d_pk = bim_design(false);
    // Workload-major pairs: (superscalar, per-packet) per benchmark.
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|(_, spec)| {
            [
                Job::new(&d_ss, CoreConfig::boom_4wide(), spec),
                Job::new(&d_pk, CoreConfig::boom_4wide(), spec),
            ]
        })
        .collect();
    let grid = run_grid(&jobs);
    for (i, (w, _)) in specs.iter().enumerate() {
        let ss = &grid[2 * i].report;
        let pk = &grid[2 * i + 1].report;
        println!(
            "{:<11} {:>12.2} {:>12.2} {:>9} {:>9.2}% {:>9.2}%",
            w,
            ss.counters.mpki(),
            pk.counters.mpki(),
            pct_delta(pk.counters.mpki(), ss.counters.mpki()),
            ss.counters.branch_accuracy(),
            pk.counters.branch_accuracy(),
        );
    }
    println!();
    println!("Expectation per the paper: the per-packet table aliases adjacent");
    println!("branches in branch-dense packets, raising MPKI; the superscalar");
    println!("table gives each slot its own counter.");
}
