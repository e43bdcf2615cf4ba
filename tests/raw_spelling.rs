//! The raw spelling of a built-in design is the design.
//!
//! Every catalog design is data over the stock label table, so its
//! topology text, resolved as a raw string with the design's history
//! parameters, must build the same storage and simulate the same report
//! as the catalog entry — the path `cobra-search` seeds, served raw
//! topologies and `cobra-lint "<topology>"` take. For the paper's three
//! designs the report is also the committed golden one.

use cobra::core::composer::{BpuConfig, BranchPredictorUnit, Design};
use cobra::core::designs;
use cobra::uarch::{Core, CoreConfig, PerfReport};
use cobra::workloads::spec17;

const WARMUP: u64 = 8_000;
const MEASURE: u64 = 20_000;

/// The golden-report fixture of the bench crate: one line per paper
/// design × {gcc, xz} at the same warm-up and measured region.
const GOLDEN: &str = include_str!("../crates/bench/tests/golden/reports.jsonl");

fn build(design: &Design) -> BranchPredictorUnit {
    BranchPredictorUnit::build(design, BpuConfig::default()).expect("catalog design composes")
}

fn gcc_report(design: &Design) -> PerfReport {
    let spec = spec17::spec17("gcc");
    let mut core =
        Core::new(design, CoreConfig::boom_4wide(), spec.build()).expect("catalog design composes");
    core.run_with_warmup(WARMUP, MEASURE, &spec.name)
}

/// `r` rendered as a line of the golden fixture.
fn golden_line(r: &PerfReport) -> String {
    let c = &r.counters;
    format!(
        "{{\"design\":\"{}\",\"workload\":\"{}\",\"warmup\":{WARMUP},\
         \"measure\":{MEASURE},\"cycles\":{},\"committed_insts\":{},\
         \"cond_branches\":{},\"cfis\":{},\"cond_mispredicts\":{},\
         \"target_mispredicts\":{},\"override_redirects\":{},\
         \"history_replays\":{},\"fetch_bubbles\":{},\
         \"icache_stall_cycles\":{},\"rob_stall_cycles\":{}}}",
        r.design,
        r.workload,
        c.cycles,
        c.committed_insts,
        c.cond_branches,
        c.cfis,
        c.cond_mispredicts,
        c.target_mispredicts,
        c.override_redirects,
        c.history_replays,
        c.fetch_bubbles,
        c.icache_stall_cycles,
        c.rob_stall_cycles,
    )
}

#[test]
fn raw_spelling_of_every_catalog_design_is_the_design() {
    let paper: Vec<String> = designs::all().into_iter().map(|d| d.name).collect();
    let mut mismatches = Vec::new();
    for d in designs::catalog() {
        let raw = designs::from_topology(&d.topology, d.ghist_bits, d.lhist_entries);
        let (named_bpu, raw_bpu) = (build(&d), build(&raw));
        if named_bpu.total_storage() != raw_bpu.total_storage() {
            mismatches.push(format!("{}: total_storage differs", d.name));
            continue;
        }
        if named_bpu.meta_storage() != raw_bpu.meta_storage() {
            mismatches.push(format!("{}: meta_storage differs", d.name));
            continue;
        }
        let want = gcc_report(&d);
        let got = PerfReport {
            design: d.name.clone(),
            ..gcc_report(&raw)
        };
        if got != want {
            mismatches.push(format!("{}: gcc PerfReport differs", d.name));
            continue;
        }
        if paper.contains(&d.name) && !GOLDEN.lines().any(|l| l == golden_line(&want)) {
            mismatches.push(format!("{}: gcc report is not the golden line", d.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "raw spellings that are not their design:\n  {}",
        mismatches.join("\n  ")
    );
}
