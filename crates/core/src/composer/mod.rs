//! The COBRA predictor composer (paper Section IV).
//!
//! The composer turns a *topological description* of a predictor — an
//! ordering of sub-components such as `LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1`
//! — into a complete predictor pipeline, and generates the *management
//! structures* that maintain predictor state through speculation:
//!
//! * [`Topology`] — the ordering AST and its text notation parser;
//! * [`ComponentRegistry`] / [`Design`] — name → component factories and a
//!   packaged design (topology + registry + history parameters);
//! * [`PredictorPipeline`] — the compiled pipeline: per-stage composition
//!   of component responses with pass-through and override semantics;
//! * [`ComponentKind`] / [`ExecutionPlan`] — the devirtualized packet
//!   path: enum dispatch over the stock components plus precomputed
//!   per-stage fold schedules (`COBRA_PLAN=off` selects the reference
//!   interpreter);
//! * [`HistoryFile`] — the circular buffer tracking in-flight predictions,
//!   their history snapshots and per-component metadata;
//! * [`GlobalHistoryProvider`] / [`LocalHistoryProvider`] — speculatively
//!   updated history state with snapshot repair;
//! * [`BranchPredictorUnit`] — the drop-in unit a host core instantiates,
//!   tying all of the above together with the repair state machine.

mod bpu;
mod history_file;
pub mod mutate;
mod pipeline;
mod plan;
mod providers;
mod registry;
mod topology;

pub(crate) use bpu::Management;
pub use bpu::{
    BpuConfig, BpuStats, BranchPredictorUnit, CommittedPacket, GhistRepairMode, PacketId,
};
pub use history_file::{HistoryFile, HistoryFileEntry};
pub use pipeline::{PacketPrediction, PredictorPipeline, StageDescription, MAX_DEPTH};
pub use plan::{ComponentKind, ExecutionPlan};
pub use providers::{GlobalHistoryProvider, LocalHistoryProvider, PathHistoryProvider};
pub use registry::{ComponentRegistry, Design};
pub use topology::Topology;
