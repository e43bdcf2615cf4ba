//! Byte-identity of the compiled execution plan against the reference
//! interpreter.
//!
//! The plan path (`composer/plan.rs`) is a pure devirtualization of the
//! interpreter's per-packet walk: same responses, same fold schedule
//! results, same metadata, same attribution. This test enforces that
//! contract end-to-end: every stock design × every SPECint17 profile must
//! produce bit-identical [`PerfReport`]s (counters *and* per-component
//! attribution) with `COBRA_PLAN=off` and with the plan enabled —
//! execution-driven, trace-replayed (`COBRA_TRACE_DIR`), and
//! checkpoint-restored (`COBRA_CKPT_DIR`).
//!
//! One test function on purpose: it pins the `COBRA_PLAN`, `COBRA_INSTS`,
//! `COBRA_TRACE_DIR`, and `COBRA_CKPT_DIR` knobs of the process config,
//! which would race against sibling tests reading the same knobs.

use cobra_bench::{capture_workload, ckpt_file_name, run_one};
use cobra_core::composer::Design;
use cobra_core::config::{self, Config};
use cobra_core::designs;
use cobra_uarch::{save_checkpoint, CbsMeta, Core, CoreConfig, PerfReport};
use cobra_workloads::{spec17, ProgramSpec};
use std::path::Path;

fn sweep(designs: &[Design], specs: &[ProgramSpec]) -> Vec<PerfReport> {
    designs
        .iter()
        .flat_map(|d| {
            specs
                .iter()
                .map(|s| run_one(d, CoreConfig::boom_4wide(), s))
        })
        .collect()
}

fn assert_identical(reference: &[PerfReport], got: &[PerfReport], arm: &str) {
    assert_eq!(reference.len(), got.len());
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(
            r, g,
            "{arm}: {}/{} diverged from the reference interpreter run",
            r.design, r.workload
        );
        // PerfReport equality already covers attribution; spell the
        // per-component check out so a divergence names the surface.
        assert_eq!(
            r.attribution, g.attribution,
            "{arm}: {}/{} attribution counters diverged",
            r.design, r.workload
        );
    }
}

/// Sets the process config's packet path, keeping every other knob.
fn set_plan(plan: bool) {
    config::set(Config {
        plan,
        ..(*config::get()).clone()
    });
}

#[test]
fn plan_matches_interpreter_on_every_design_and_profile() {
    let measure = 4000;
    let warmup = measure * 2 / 5;
    config::set(Config {
        insts: measure,
        trace_dir: None,
        ckpt_dir: None,
        ..(*config::get()).clone()
    });
    let all = designs::all();
    let specs: Vec<ProgramSpec> = spec17::SPEC17_NAMES
        .iter()
        .map(|w| spec17::spec17(w))
        .collect();

    // Arm 1 — direct execution: the interpreter is the reference.
    set_plan(false);
    let reference = sweep(&all, &specs);
    set_plan(true);
    let plan = sweep(&all, &specs);
    assert_identical(&reference, &plan, "direct");

    let scratch = std::env::temp_dir().join(format!("cobra-plan-identity-{}", std::process::id()));
    let trace_dir = scratch.join("traces");
    let ckpt_dir = scratch.join("ckpts");
    std::fs::create_dir_all(&trace_dir).unwrap();
    std::fs::create_dir_all(&ckpt_dir).unwrap();

    // Arm 2 — trace-replayed: capture every profile, then replay through
    // both packet paths.
    for s in &specs {
        capture_workload(s, measure, &trace_dir).expect("capture");
    }
    config::set(Config {
        trace_dir: Some(trace_dir),
        ..(*config::get()).clone()
    });
    set_plan(false);
    assert_identical(&reference, &sweep(&all, &specs), "trace+interpreter");
    set_plan(true);
    assert_identical(&reference, &sweep(&all, &specs), "trace+plan");

    // Arm 3 — checkpoint-restored (composed with the trace replay): warm
    // every pair once, checkpoint at the warmup boundary, and rerun both
    // packet paths from the restored state.
    for d in &all {
        for s in &specs {
            capture_ckpt(
                d,
                s,
                warmup,
                &ckpt_dir.join(ckpt_file_name(&d.name, &s.name)),
            );
        }
    }
    config::set(Config {
        ckpt_dir: Some(ckpt_dir),
        ..(*config::get()).clone()
    });
    set_plan(false);
    assert_identical(&reference, &sweep(&all, &specs), "ckpt+interpreter");
    set_plan(true);
    assert_identical(&reference, &sweep(&all, &specs), "ckpt+plan");

    std::fs::remove_dir_all(&scratch).ok();
}

fn capture_ckpt(design: &Design, spec: &ProgramSpec, warmup: u64, path: &Path) {
    let cfg = CoreConfig::boom_4wide();
    let mut core = Core::new(design, cfg, spec.build()).expect("compose");
    core.run(warmup, &spec.name);
    let meta = CbsMeta::for_run(design, &cfg, &spec.name, warmup);
    let file = std::fs::File::create(path).expect("create checkpoint");
    save_checkpoint(std::io::BufWriter::new(file), &meta, &core).expect("save checkpoint");
}
