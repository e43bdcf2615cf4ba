//! End-to-end reconciliation tests for interval telemetry.
//!
//! The contract under test (ISSUE: interval telemetry engine): with the
//! engine armed, (1) summed over all intervals, the host and
//! per-component attribution deltas equal the end-of-run `PerfReport` /
//! `AttributionReport` *bit-exactly*; (2) the simulated results are
//! byte-identical to an unarmed run — telemetry observes, never
//! perturbs; (3) the series round-trips through the `.cbm` container
//! and its self-contained [`reconcile`] check passes. All three hold on
//! every execution source: execution-driven, trace-replay, and
//! checkpoint-restore.
//!
//! Telemetry is armed with `Core::set_interval` (not `COBRA_INTERVAL`),
//! so nothing here mutates process environment and the tests stay
//! parallel-safe.

use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_core::obs::interval::{HostCounters, IntervalSeries, SIG_BUCKETS};
use cobra_core::obs::ComponentCounters;
use cobra_uarch::{
    read_metrics, reconcile, restore_checkpoint, run_identity, save_checkpoint, save_metrics,
    CbmMeta, CbsMeta, Core, CoreConfig, PerfReport,
};
use cobra_workloads::{spec17, TraceProgram};
use std::collections::BTreeMap;

const MEASURE: u64 = 20_000;
const WARMUP: u64 = MEASURE * 2 / 5;
const INTERVAL: u64 = 1_500;

/// The designs × profiles matrix: smallest, tournament-style, and the
/// paper's flagship, each on three SPECint17 profiles with distinct
/// branch behavior.
fn matrix() -> (Vec<Design>, Vec<&'static str>) {
    (
        vec![designs::b2(), designs::tournament(), designs::tage_l()],
        vec!["gcc", "xz", "mcf"],
    )
}

/// Asserts every reconciliation invariant between a collected series and
/// the measured-region report it rode along with.
fn assert_reconciles(series: &IntervalSeries, report: &PerfReport, ctx: &str) {
    assert!(!series.records.is_empty(), "{ctx}: no intervals collected");
    assert_eq!(series.interval_n, INTERVAL, "{ctx}: interval length");

    // Host counters: field-wise sum equals the measured-region delta.
    let mut host = HostCounters::default();
    for r in &series.records {
        host.accumulate(&r.host);
    }
    assert_eq!(host, report.counters, "{ctx}: host counters");

    // Attribution: one label per component row, every counter additive.
    let totals = &report.attribution;
    assert_eq!(
        series.labels.len(),
        totals.components.len(),
        "{ctx}: label table"
    );
    for (i, comp) in totals.components.iter().enumerate() {
        assert_eq!(series.labels[i], comp.label, "{ctx}: label order");
        let mut sum = ComponentCounters::default();
        for r in &series.records {
            let c = &r.attr.components[i].counters;
            sum.queries += c.queries;
            sum.fires += c.fires;
            sum.mispredict_events += c.mispredict_events;
            sum.repairs += c.repairs;
            sum.updates += c.updates;
            sum.provided_final += c.provided_final;
            sum.overridden += c.overridden;
            sum.direction_blame += c.direction_blame;
            sum.target_blame += c.target_blame;
        }
        assert_eq!(
            sum, comp.counters,
            "{ctx}: component {} counters",
            comp.label
        );
    }
    let packets: u64 = series
        .records
        .iter()
        .map(|r| r.attr.packets_with_prediction)
        .sum();
    assert_eq!(
        packets, totals.packets_with_prediction,
        "{ctx}: packets with prediction"
    );
    let ghist: u64 = series
        .records
        .iter()
        .map(|r| r.attr.ghist_snapshot_repairs)
        .sum();
    assert_eq!(
        ghist, totals.ghist_snapshot_repairs,
        "{ctx}: ghist snapshot repairs"
    );
    let lhist: u64 = series.records.iter().map(|r| r.attr.lhist_repairs).sum();
    assert_eq!(lhist, totals.lhist_repairs, "{ctx}: lhist repairs");

    // Override edges accumulate across intervals to the run's edge set.
    let mut edges: BTreeMap<(String, String), u64> = BTreeMap::new();
    for r in &series.records {
        for e in &r.attr.overrides {
            *edges
                .entry((e.winner.clone(), e.loser.clone()))
                .or_default() += e.count;
        }
    }
    let want: BTreeMap<(String, String), u64> = totals
        .overrides
        .iter()
        .map(|e| ((e.winner.clone(), e.loser.clone()), e.count))
        .collect();
    assert_eq!(edges, want, "{ctx}: override edges");

    // The high-water mark is monotone, not additive: the last interval
    // carries the whole-run value.
    let last = series.records.last().expect("non-empty");
    assert_eq!(
        last.attr.hf_high_water, totals.hf_high_water,
        "{ctx}: history-file high water"
    );

    // Phase signatures count one entry per committed CFI.
    for r in &series.records {
        assert_eq!(r.sig.len(), SIG_BUCKETS, "{ctx}: signature geometry");
        assert_eq!(
            r.sig.iter().map(|&s| u64::from(s)).sum::<u64>(),
            r.host.cfis,
            "{ctx}: signature mass equals committed CFIs"
        );
    }
}

/// Saves the series to an in-memory `.cbm`, reads it back, and checks
/// both the decoder's equality and its self-contained reconciliation.
fn assert_cbm_roundtrips(
    design: &Design,
    cfg: &CoreConfig,
    workload: &str,
    series: &IntervalSeries,
    report: &PerfReport,
    ctx: &str,
) {
    let meta = CbmMeta {
        id: run_identity(design, cfg, workload),
        warmup_insts: WARMUP,
        interval_n: series.interval_n,
        sig_buckets: SIG_BUCKETS as u64,
    };
    let mut bytes = Vec::new();
    save_metrics(
        &mut bytes,
        &meta,
        series,
        &report.counters,
        &report.attribution,
    )
    .unwrap_or_else(|e| panic!("{ctx}: save failed: {e}"));
    let file = read_metrics(&bytes[..]).unwrap_or_else(|e| panic!("{ctx}: read failed: {e}"));
    assert_eq!(file.meta, meta, "{ctx}: .cbm identity header");
    assert_eq!(file.labels, series.labels, "{ctx}: .cbm label table");
    assert_eq!(file.records, series.records, "{ctx}: .cbm records");
    reconcile(&file).unwrap_or_else(|e| panic!("{ctx}: .cbm reconcile failed: {e}"));
}

/// The headline property, execution-driven: for every design × profile
/// in the matrix, an armed run reports byte-identically to an unarmed
/// one, its interval sums reconcile with the report, and the series
/// survives the `.cbm` container bit-exactly.
#[test]
fn armed_run_reconciles_and_matches_unarmed_for_all_designs_and_profiles() {
    let cfg = CoreConfig::boom_4wide();
    let (designs, profiles) = matrix();
    for name in &profiles {
        let spec = spec17::spec17(name);
        for design in &designs {
            let ctx = format!("{name}/{}", design.name);
            let unarmed = {
                let mut core = Core::new(design, cfg, spec.build()).expect("stock designs compose");
                core.run_with_warmup(WARMUP, MEASURE, &spec.name)
            };
            let mut core = Core::new(design, cfg, spec.build()).expect("stock designs compose");
            core.set_interval(INTERVAL);
            let armed = core.run_with_warmup(WARMUP, MEASURE, &spec.name);
            let series = core
                .take_intervals()
                .unwrap_or_else(|| panic!("{ctx}: armed run collected no series"));
            assert_eq!(
                unarmed, armed,
                "{ctx}: telemetry perturbed the simulated results"
            );
            assert_reconciles(&series, &armed, &ctx);
            assert_cbm_roundtrips(design, &cfg, &spec.name, &series, &armed, &ctx);
        }
    }
}

/// The trace-replay arm: a run replaying a captured `.cbt` stream with
/// telemetry armed reports identically to the execution-driven unarmed
/// run, and its intervals reconcile the same way.
#[test]
fn trace_replay_arm_reconciles() {
    let cfg = CoreConfig::boom_4wide();
    let design = designs::tage_l();
    let dir = std::env::temp_dir().join(format!("cobra-cbm-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    for name in ["gcc", "xz", "mcf"] {
        let spec = spec17::spec17(name);
        let ctx = format!("replay {name}/{}", design.name);
        let unarmed = {
            let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
            core.run_with_warmup(WARMUP, MEASURE, &spec.name)
        };
        let (_, path) =
            cobra_bench::capture_workload(&spec, MEASURE, &dir).expect("capture succeeds");
        let program = TraceProgram::open(&path).expect("captured trace opens");
        let mut core = Core::new(&design, cfg, program).expect("stock designs compose");
        core.set_interval(INTERVAL);
        let armed = core.run_with_warmup(WARMUP, MEASURE, &spec.name);
        let series = core
            .take_intervals()
            .unwrap_or_else(|| panic!("{ctx}: no series"));
        assert_eq!(unarmed, armed, "{ctx}: replay differs from execution");
        assert_reconciles(&series, &armed, &ctx);
        assert_cbm_roundtrips(&design, &cfg, &spec.name, &series, &armed, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint-restore arm: a run that skips its warm-up by restoring
/// a `.cbs` checkpoint still arms the interval engine at the measure
/// boundary, reports identically, and reconciles.
#[test]
fn checkpoint_restore_arm_reconciles() {
    let cfg = CoreConfig::boom_4wide();
    let design = designs::tournament();
    for name in ["gcc", "xz", "mcf"] {
        let spec = spec17::spec17(name);
        let ctx = format!("restore {name}/{}", design.name);
        let unarmed = {
            let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
            core.run_with_warmup(WARMUP, MEASURE, &spec.name)
        };
        let bytes = {
            let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
            core.run(WARMUP, &spec.name);
            let meta = CbsMeta::for_run(&design, &cfg, &spec.name, WARMUP);
            let mut bytes = Vec::new();
            save_checkpoint(&mut bytes, &meta, &core).expect("in-memory save cannot fail");
            bytes
        };
        let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
        let meta = CbsMeta::for_run(&design, &cfg, &spec.name, WARMUP);
        restore_checkpoint(&bytes[..], &meta, &mut core)
            .unwrap_or_else(|e| panic!("{ctx}: restore failed: {e}"));
        core.set_interval(INTERVAL);
        let armed = core.run_with_warmup(WARMUP, MEASURE, &spec.name);
        let series = core
            .take_intervals()
            .unwrap_or_else(|| panic!("{ctx}: no series"));
        assert_eq!(unarmed, armed, "{ctx}: restored run differs");
        assert_reconciles(&series, &armed, &ctx);
        assert_cbm_roundtrips(&design, &cfg, &spec.name, &series, &armed, &ctx);
    }
}

/// An unarmed core collects nothing — `take_intervals` stays `None`, so
/// the default path costs nothing and writes nothing.
#[test]
fn unarmed_run_collects_nothing() {
    let cfg = CoreConfig::boom_4wide();
    let spec = spec17::spec17("xz");
    let mut core = Core::new(&designs::b2(), cfg, spec.build()).expect("stock designs compose");
    core.run_with_warmup(WARMUP, MEASURE, &spec.name);
    assert!(core.take_intervals().is_none());
}

/// `set_interval(0)` disables telemetry even if the environment would
/// arm it — the in-process override wins.
#[test]
fn set_interval_zero_disables() {
    let cfg = CoreConfig::boom_4wide();
    let spec = spec17::spec17("xz");
    let mut core = Core::new(&designs::b2(), cfg, spec.build()).expect("stock designs compose");
    core.set_interval(0);
    core.run_with_warmup(WARMUP, MEASURE, &spec.name);
    assert!(core.take_intervals().is_none());
}
