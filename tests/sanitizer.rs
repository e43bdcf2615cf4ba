//! Runtime-sanitizer tests: a seeded monotonic-refinement violation is
//! caught when the sanitizer is on, and the same pipeline runs untouched
//! when it is off (the default).
//!
//! The sanitizer switch is read from the process config when a pipeline
//! is built, so every test here builds under an explicit setting and
//! these tests avoid relying on ambient state.

use cobra::core::composer::{ComponentRegistry, PredictorPipeline, Topology};
use cobra::core::config::{self, Config};
use cobra::core::{
    Component, HistoryView, Meta, PredictQuery, PredictionBundle, Response, StorageReport,
};
use cobra::sim::{ContainerError, HistoryRegister, StateReader, StateWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// The process config is global; tests toggling the sanitizer must not
/// overlap. Poisoning is ignored — a failed test already reported itself.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `build` with the sanitizer switched `on`, then restores the
/// process config; what `build` compiles keeps the setting.
fn built_with_sanitizer<T>(on: bool, build: impl FnOnce() -> T) -> T {
    let before = config::get();
    config::set(Config {
        sanitize: on,
        ..(*before).clone()
    });
    let built = build();
    config::set((*before).clone());
    built
}

/// Latency-1 hint: always predicts slot 0 taken.
struct Hint;

impl Component for Hint {
    fn kind(&self) -> &'static str {
        "hint"
    }
    fn latency(&self) -> u8 {
        1
    }
    fn storage(&self) -> StorageReport {
        StorageReport::new()
    }
    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        let mut pred = PredictionBundle::new(q.width);
        pred.slot_mut(0).taken = Some(true);
        Response {
            pred,
            meta: Meta::ZERO,
        }
    }
    fn save_state(&self, _w: &mut StateWriter) {}
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        Ok(())
    }
}

/// Latency-2 dropper: its compose is deliberately broken — once its own
/// response arrives it discards the input instead of refining it, so the
/// stage-1 prediction vanishes at stage 2.
struct Dropper;

impl Component for Dropper {
    fn kind(&self) -> &'static str {
        "dropper"
    }
    fn latency(&self) -> u8 {
        2
    }
    fn storage(&self) -> StorageReport {
        StorageReport::new()
    }
    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        Response {
            pred: PredictionBundle::new(q.width),
            meta: Meta::ZERO,
        }
    }
    fn compose(
        &self,
        width: u8,
        own: Option<&Response>,
        inputs: &[PredictionBundle],
    ) -> PredictionBundle {
        match own {
            Some(_) => PredictionBundle::new(width), // drops the hint
            None => inputs
                .first()
                .copied()
                .unwrap_or_else(|| PredictionBundle::new(width)),
        }
    }
    fn save_state(&self, _w: &mut StateWriter) {}
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        Ok(())
    }
}

fn broken_pipeline() -> PredictorPipeline {
    let mut registry = ComponentRegistry::new();
    registry.register("DROP2", |_| Box::new(Dropper));
    registry.register("HINT1", |_| Box::new(Hint));
    let topo = Topology::parse("DROP2 > HINT1").expect("valid topology text");
    PredictorPipeline::compile(&topo, &registry, 4).expect("statically legal pipeline")
}

fn predict_once(p: &mut PredictorPipeline) -> cobra::core::composer::PacketPrediction {
    let ghist = HistoryRegister::new(16);
    let hist = HistoryView {
        ghist: &ghist,
        lhist: 0,
        phist: 0,
    };
    p.predict_packet(0, 0x1000, &hist)
}

#[test]
fn sanitizer_catches_seeded_refinement_violation() {
    let _guard = serialize();
    let mut p = built_with_sanitizer(true, broken_pipeline);
    let result = catch_unwind(AssertUnwindSafe(|| predict_once(&mut p)));
    let payload = result.expect_err("the dropped stage-1 prediction must be caught");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .expect("panic payload is a message");
    assert!(
        msg.contains("cobra-sanitizer") && msg.contains("monotonic refinement"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn sanitizer_off_leaves_broken_pipeline_unchecked() {
    // Off by default: the same defective composition runs to completion,
    // exactly as on the untouched hot path.
    let _guard = serialize();
    let mut p = built_with_sanitizer(false, broken_pipeline);
    let out = predict_once(&mut p);
    assert_eq!(out.stages[0].slot(0).taken, Some(true), "hint at stage 1");
    assert_eq!(out.stages[1].slot(0).taken, None, "silently dropped");
}

#[test]
fn sanitizer_accepts_legal_stock_design() {
    // A clean design must produce no violations with the sanitizer on.
    use cobra::core::composer::{BpuConfig, BranchPredictorUnit};
    use cobra::core::designs;
    let _guard = serialize();
    let mut bpu = built_with_sanitizer(true, || {
        BranchPredictorUnit::build(&designs::tage_l(), BpuConfig::default()).unwrap()
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        for i in 0..64u64 {
            if let Some(id) = bpu.query(0x8000 + i * 32) {
                bpu.tick();
                let pred = *bpu.prediction(id, 3).unwrap();
                bpu.accept(id, pred);
                bpu.commit_front();
            }
        }
    }));
    assert!(result.is_ok(), "stock TAGE-L must be sanitizer-clean");
}
