//! Predictor energy (the paper's Section VI-A future-work concern): run
//! each design on a workload and report per-component SRAM access energy.
//!
//! "Predictor energy consumption is expected to be an important concern,
//! as the energy cost of continuously reading predictor SRAMs is
//! significant."

use cobra_area::EnergyModel;
use cobra_core::designs;
use cobra_uarch::{Core, CoreConfig};
use cobra_workloads::spec17;

fn main() {
    let model = EnergyModel::finfet_7nm();
    let insts = cobra_core::config::get().insts;
    println!("PREDICTOR ENERGY — SRAM access energy on gcc ({insts} insts)");
    for design in designs::all() {
        let mut core = Core::new(
            &design,
            CoreConfig::boom_4wide(),
            spec17::spec17("gcc").build(),
        )
        .expect("stock design composes");
        let r = core.run(insts, "gcc");
        println!();
        println!("{}:", design.name);
        let mut total = 0.0;
        for (label, accesses) in core.bpu().accesses_by_component() {
            let nj: f64 = accesses
                .iter()
                .map(|a| model.report_energy_nj(a))
                .sum::<f64>()
                .max(0.0);
            let (reads, writes) = accesses
                .iter()
                .fold((0u64, 0u64), |(r, w), a| (r + a.reads, w + a.writes));
            total += nj;
            println!(
                "  {:<10} {:>12.1} nJ  ({} reads, {} writes)",
                label, nj, reads, writes
            );
        }
        println!(
            "  {:<10} {:>12.1} nJ  ({:.2} nJ/kinst)",
            "TOTAL",
            total,
            total * 1000.0 / r.counters.committed_insts as f64
        );
    }
    println!();
    println!("Observation to check: wide tagged reads (TAGE's seven tables, the");
    println!("BTB's four ways) dominate; every fetch packet reads them all.");
}
