//! Cross-crate integration tests: workloads → core model → predictor unit,
//! checking the end-to-end behaviours the paper's evaluation relies on.

use cobra::core::composer::GhistRepairMode;
use cobra::core::designs;
use cobra::uarch::{Core, CoreConfig, PerfReport};
use cobra::workloads::{kernels, spec17, ProgramSpec};

const INSTS: u64 = 60_000;

fn run(design: &cobra::core::composer::Design, cfg: CoreConfig, spec: &ProgramSpec) -> PerfReport {
    let mut core = Core::new(design, cfg, spec.build()).expect("design composes");
    core.run(INSTS, &spec.name)
}

#[test]
fn all_designs_run_all_kernels_sanely() {
    for design in designs::all() {
        for name in ["dhrystone", "coremark", "loop-stress"] {
            let spec = match name {
                "dhrystone" => kernels::dhrystone(),
                "coremark" => kernels::coremark(false),
                _ => kernels::loop_stress(),
            };
            let r = run(&design, CoreConfig::boom_4wide(), &spec);
            let c = &r.counters;
            assert!(
                c.committed_insts >= INSTS,
                "{}/{name}: too few instructions",
                design.name
            );
            assert!(
                c.ipc() > 0.1 && c.ipc() <= 8.0,
                "{}/{name}: IPC {}",
                design.name,
                c.ipc()
            );
            assert!(
                c.branch_accuracy() > 50.0 && c.branch_accuracy() <= 100.0,
                "{}/{name}: accuracy {}",
                design.name,
                c.branch_accuracy()
            );
            assert!(
                c.cond_branches > 0,
                "{}/{name}: no branches committed",
                design.name
            );
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let spec = spec17::spec17("gcc");
    let a = run(&designs::tage_l(), CoreConfig::boom_4wide(), &spec);
    let b = run(&designs::tage_l(), CoreConfig::boom_4wide(), &spec);
    assert_eq!(a.counters, b.counters, "same seed must give identical runs");
}

#[test]
fn tage_l_beats_untagged_designs_on_history_code() {
    // Depth-20 correlations exceed B2's 16-bit global history but sit
    // inside TAGE's 26-bit table.
    let spec = kernels::history_depth(20);
    let tage = run(&designs::tage_l(), CoreConfig::boom_4wide(), &spec);
    let b2 = run(&designs::b2(), CoreConfig::boom_4wide(), &spec);
    assert!(
        tage.counters.branch_accuracy() >= b2.counters.branch_accuracy(),
        "TAGE-L {} vs B2 {}",
        tage.counters.branch_accuracy(),
        b2.counters.branch_accuracy()
    );
}

#[test]
fn loop_predictor_earns_its_keep() {
    // TAGE-L (with the loop corrector) must be strong on counted loops.
    let r = run(
        &designs::tage_l(),
        CoreConfig::boom_4wide(),
        &kernels::loop_stress(),
    );
    assert!(
        r.counters.branch_accuracy() > 97.0,
        "loop accuracy {}",
        r.counters.branch_accuracy()
    );
}

#[test]
fn serialized_fetch_costs_ipc() {
    let spec = kernels::dhrystone();
    let base = run(&designs::tage_l(), CoreConfig::boom_4wide(), &spec);
    let mut cfg = CoreConfig::boom_4wide();
    cfg.serialize_branches = true;
    let ser = run(&designs::tage_l(), cfg, &spec);
    assert!(
        ser.counters.ipc() < base.counters.ipc() * 0.97,
        "serialization must cost IPC: {} vs {}",
        ser.counters.ipc(),
        base.counters.ipc()
    );
}

#[test]
fn replay_mode_is_at_least_as_accurate_as_snapshot_only() {
    // Section VI-B's direction on a history-sensitive workload.
    let spec = spec17::spec17("gcc");
    let snap = run(
        &designs::tage_l(),
        CoreConfig::boom_4wide().with_repair_mode(GhistRepairMode::SnapshotOnly),
        &spec,
    );
    let replay = run(
        &designs::tage_l(),
        CoreConfig::boom_4wide().with_repair_mode(GhistRepairMode::ReplayFetch),
        &spec,
    );
    assert!(
        replay.counters.mpki() <= snap.counters.mpki() * 1.02,
        "replay {} vs snapshot {}",
        replay.counters.mpki(),
        snap.counters.mpki()
    );
}

#[test]
fn sfb_predication_improves_accuracy_for_every_design() {
    for design in designs::all() {
        let base = run(&design, CoreConfig::boom_4wide(), &kernels::coremark(false));
        let sfb = run(&design, CoreConfig::boom_4wide(), &kernels::coremark(true));
        assert!(
            sfb.counters.branch_accuracy() > base.counters.branch_accuracy(),
            "{}: {} vs {}",
            design.name,
            sfb.counters.branch_accuracy(),
            base.counters.branch_accuracy()
        );
    }
}

#[test]
fn tage_latency_sweep_keeps_accuracy() {
    // Section VI-A: varying the TAGE latency must not change accuracy
    // much; the interface isolates the change.
    let spec = spec17::spec17("gcc");
    let l2 = run(
        &designs::by_name("TAGE-L/lat2").expect("catalog design"),
        CoreConfig::boom_4wide(),
        &spec,
    );
    let l3 = run(&designs::tage_l(), CoreConfig::boom_4wide(), &spec);
    let diff = (l2.counters.branch_accuracy() - l3.counters.branch_accuracy()).abs();
    assert!(diff < 2.0, "accuracy moved {diff} points with latency");
    assert!(l2.counters.ipc() >= l3.counters.ipc() * 0.97);
}

#[test]
fn extension_designs_run() {
    for name in ["TAGE-SC-L", "Perceptron"] {
        let design = designs::by_name(name).expect("catalog design");
        let r = run(&design, CoreConfig::boom_4wide(), &kernels::dhrystone());
        assert!(
            r.counters.ipc() > 0.3,
            "{}: IPC {}",
            design.name,
            r.counters.ipc()
        );
    }
}

#[test]
fn spec_suite_ordering_headline() {
    // The paper's headline: TAGE-L has the best harmonic-mean IPC.
    let mut means = Vec::new();
    for design in designs::all() {
        let ipcs: Vec<f64> = ["gcc", "leela", "x264"]
            .iter()
            .map(|w| {
                run(&design, CoreConfig::boom_4wide(), &spec17::spec17(w))
                    .counters
                    .ipc()
            })
            .collect();
        means.push((design.name.clone(), cobra::uarch::harmonic_mean(&ipcs)));
    }
    let tage = means.iter().find(|(n, _)| n == "TAGE-L").unwrap().1;
    for (name, m) in &means {
        assert!(
            tage >= *m - 1e-9,
            "TAGE-L ({tage}) must not lose to {name} ({m})"
        );
    }
}

#[test]
fn wrong_path_speculation_is_bounded() {
    // The history file bounds in-flight speculation; a hostile workload
    // must not leak entries.
    let design = designs::b2();
    let mut core = Core::new(
        &design,
        CoreConfig::boom_4wide(),
        spec17::spec17("leela").build(),
    )
    .expect("composes");
    let r = core.run(INSTS, "leela");
    assert!(core.bpu().in_flight() <= core.bpu().config().history_file_entries);
    assert!(r.counters.cond_mispredicts > 0, "leela must mispredict");
}

#[test]
fn stock_designs_respect_their_sram_port_budgets() {
    // Every component declares single/dual-ported macros; a full simulated
    // run must never demand more ports per cycle than declared — the
    // property the metadata field exists to make achievable (paper
    // Section III-D).
    for design in designs::all() {
        let mut core = Core::new(
            &design,
            CoreConfig::boom_4wide(),
            spec17::spec17("gcc").build(),
        )
        .expect("composes");
        core.run(INSTS, "gcc");
        assert_eq!(
            core.bpu().port_violations(),
            0,
            "{} violated an SRAM port budget",
            design.name
        );
    }
}
