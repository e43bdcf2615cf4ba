//! Phase-sampling property and end-to-end tests.
//!
//! Three properties hold the sampled path to account:
//!
//! * **Partition** — a plan's cluster weights always sum to exactly the
//!   measured region (and so, normalized, to 1).
//! * **Determinism** — plan derivation is bit-identical for a fixed
//!   seed regardless of how many threads the caller runs it under.
//! * **Reconciliation** — the degenerate plan (every interval its own
//!   cluster), evaluated from slice checkpoints, reconstructs the full
//!   run's counters *exactly*, not approximately: checkpoint restore is
//!   bit-faithful, slice boundaries are exactly reachable, and the
//!   estimator's weights are exactly 1.

use cobra_bench::runner::parallel_map_on;
use cobra_bench::sampling::{
    derive_plan, parse_plan, render_plan, run_sampled, slice_ckpt_name, SampleMode,
};
use cobra_core::obs::interval::SIG_BUCKETS;
use cobra_uarch::{config_hash, save_checkpoint, CbmFile, CbmMeta, CbsMeta, Core, CoreConfig};
use cobra_workloads::kernels;
use std::path::PathBuf;

const MEASURE: u64 = 12_000;
const WARMUP: u64 = MEASURE * 2 / 5;
const INTERVAL: u64 = 1_500;

/// Runs the full (exact) simulation with interval telemetry armed and
/// packages the series as the `.cbm` file a grid run would have written.
fn telemetered_run() -> (CbmFile, f64, f64) {
    let design = cobra_core::designs::b2();
    let cfg = CoreConfig::boom_4wide();
    let spec = kernels::dhrystone();
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
    core.set_interval(INTERVAL);
    let report = core.run_with_warmup(WARMUP, MEASURE, &spec.name);
    let series = core.take_intervals().expect("interval engine was armed");
    let cbm = CbmFile {
        meta: CbmMeta {
            design: design.name.clone(),
            topology: design.topology.clone(),
            config_hash: config_hash(&design, &cfg),
            workload: spec.name.clone(),
            warmup_insts: WARMUP,
            interval_n: series.interval_n,
            sig_buckets: SIG_BUCKETS as u64,
        },
        labels: series.labels,
        records: series.records,
        totals_host: report.counters.to_host(),
        totals_attr: report.attribution.clone(),
    };
    (cbm, report.counters.mpki(), report.counters.ipc())
}

#[test]
fn real_telemetry_weights_partition_the_run() {
    let (cbm, _, _) = telemetered_run();
    assert!(cbm.records.len() >= 4, "need a few intervals to cluster");
    for k in [1, 2, 3, cbm.records.len()] {
        let plan = derive_plan(&cbm, k, 42).expect("plan derives");
        let covered: u64 = plan.slices.iter().map(|s| s.cluster_insts).sum();
        assert_eq!(covered, plan.total_insts, "k={k}: weights must partition");
        let total: f64 = plan.slices.iter().map(|s| s.weight(plan.total_insts)).sum();
        assert!((total - 1.0).abs() < 1e-12, "k={k}: weights sum to {total}");
        // And the rendered plan survives its own strict parser.
        assert_eq!(parse_plan(&render_plan(&plan)).expect("round-trip"), plan);
    }
}

#[test]
fn plan_derivation_is_thread_count_invariant() {
    let (cbm, _, _) = telemetered_run();
    let reference = render_plan(&derive_plan(&cbm, 3, 7).expect("plan derives"));
    for threads in [1usize, 8] {
        let jobs = [(); 8];
        let renders = parallel_map_on(threads, &jobs, |_, ()| {
            render_plan(&derive_plan(&cbm, 3, 7).expect("plan derives"))
        });
        for r in renders {
            assert_eq!(
                r, reference,
                "clustering must be bit-identical under {threads} thread(s)"
            );
        }
    }
}

#[test]
fn degenerate_checkpoint_plan_reconciles_exactly() {
    let (cbm, full_mpki, full_ipc) = telemetered_run();
    let n = cbm.records.len();
    let plan = derive_plan(&cbm, n, 1).expect("degenerate plan derives");
    assert_eq!(plan.slices.len(), n, "k = n must keep every interval");
    for s in &plan.slices {
        assert_eq!(s.cluster_insts, s.len, "degenerate slices weigh 1.0");
    }

    // Capture a slice checkpoint at every interval boundary in one
    // forward pass, exactly as `cobra-sample ckpt` does.
    let design = cobra_core::designs::b2();
    let cfg = CoreConfig::boom_4wide();
    let spec = kernels::dhrystone();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sampling-degenerate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
    for slice in &plan.slices {
        core.run(slice.start_inst, &spec.name);
        assert_eq!(
            core.counters().committed_insts,
            slice.start_inst,
            "slice boundaries must be exactly reachable"
        );
        let meta = CbsMeta::for_run(&design, &cfg, &spec.name, slice.start_inst);
        let path = dir.join(slice_ckpt_name(&design.name, &spec.name, slice.seq));
        let file = std::fs::File::create(&path).expect("create slice checkpoint");
        save_checkpoint(std::io::BufWriter::new(file), &meta, &core)
            .expect("write slice checkpoint");
    }

    let outcome =
        run_sampled(&design, cfg, &spec, &plan, Some(&dir)).expect("sampled run succeeds");
    assert_eq!(outcome.mode, SampleMode::Checkpoint);
    for (slot, want) in outcome
        .estimate
        .totals
        .iter()
        .zip(cbm.totals_host.to_array())
    {
        assert_eq!(
            *slot, want as f64,
            "degenerate checkpoint reconstruction must be exact"
        );
    }
    assert_eq!(outcome.estimate.mpki(), full_mpki);
    assert_eq!(outcome.estimate.ipc(), full_ipc);

    // Reversed, every slice starts before the previous one ended, so each
    // restores into a fresh core instead of the reused one: same deltas.
    let mut reversed = plan.clone();
    reversed.slices.reverse();
    let back =
        run_sampled(&design, cfg, &spec, &reversed, Some(&dir)).expect("sampled run succeeds");
    let mut forward = outcome.deltas.clone();
    forward.reverse();
    assert_eq!(back.deltas, forward);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_start_estimate_tracks_the_full_run() {
    let (cbm, full_mpki, _) = telemetered_run();
    let plan = derive_plan(&cbm, 3, 42).expect("plan derives");
    let design = cobra_core::designs::b2();
    let spec = kernels::dhrystone();
    let outcome = run_sampled(&design, CoreConfig::boom_4wide(), &spec, &plan, None)
        .expect("cold sampled run succeeds");
    assert_eq!(outcome.mode, SampleMode::ColdStart);
    let est = outcome.estimate.mpki();
    let err = (est - full_mpki).abs() / full_mpki.max(1e-9);
    assert!(
        err < 0.5,
        "cold 3-slice estimate {est:.4} strays {:.1}% from the full run's {full_mpki:.4}",
        err * 100.0
    );
}
