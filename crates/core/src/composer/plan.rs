//! Compiled execution plans: the devirtualized per-packet hot path.
//!
//! The interpreter in [`pipeline`](crate::composer::PredictorPipeline)
//! walks a `Box<dyn Component>` DAG, re-deciding per stage which nodes
//! fold and allocating fresh input vectors for every node of every stage.
//! This module removes both taxes:
//!
//! * [`ComponentKind`] is a monomorphized enum over the stock component
//!   library. Dispatch on the packet path is a jump table over enum
//!   variants the compiler can see through (and inline), not a virtual
//!   call through a vtable. User components still plug in via the
//!   [`ComponentKind::Custom`] escape variant at the old cost.
//! * [`ExecutionPlan`] precomputes, at `Bpu::build` time, everything the
//!   interpreter re-derives per packet: flat input-index arrays, per-node
//!   latencies and history wants, and a per-stage *fold schedule* — the
//!   subset of nodes whose composed output can actually change at that
//!   stage (a node folds at stage `d` only when its own response first
//!   arrives, `latency == d`, or a transitive input does). Composition
//!   is pure in its inputs, so skipped nodes keep their prior-stage
//!   output byte-for-byte.
//!
//! The plan is a pure scheduling artifact: it never changes *what* is
//! computed, only *when*, and `COBRA_PLAN=off` re-enables the interpreter
//! for differential checking (`crates/bench/tests/plan_identity.rs`).

use crate::components::{
    Btb, Gtag, Hbim, Ittage, LoopPredictor, MicroBtb, Perceptron, StatisticalCorrector, Tage,
    Tourney,
};
use crate::iface::{
    Component, FieldProfile, FireEvent, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{AccessReport, Meta, PredictionBundle, StorageReport};
use cobra_sim::{ContainerError, StateReader, StateWriter};

/// A predictor sub-component with monomorphized dispatch for the stock
/// library.
///
/// Every stock component gets its own variant, so the per-packet
/// `predict`/`compose` calls compile to direct (inlineable) calls behind
/// one enum discriminant test. Components outside the stock library are
/// carried by [`ComponentKind::Custom`] and still pay the virtual call —
/// correctness is identical, only the dispatch cost differs.
pub enum ComponentKind {
    /// Bimodal counter table family (BIM/GBIM/LBIM/GShare/GSelect).
    Hbim(Hbim),
    /// Large set-associative branch target buffer.
    Btb(Btb),
    /// Small fully-associative 1-cycle micro-BTB.
    MicroBtb(MicroBtb),
    /// Partially-tagged global-history table (the B2 backing predictor).
    Gtag(Gtag),
    /// Multi-table tagged geometric-history predictor.
    Tage(Tage),
    /// Loop-exit corrector with speculative iteration counters.
    LoopPredictor(LoopPredictor),
    /// Tournament arbitration between two sub-predictors.
    Tourney(Tourney),
    /// Perceptron direction predictor.
    Perceptron(Perceptron),
    /// Indirect-target TAGE.
    Ittage(Ittage),
    /// Statistical corrector reverting low-confidence predictions.
    StatisticalCorrector(StatisticalCorrector),
    /// Escape hatch for user components registered through
    /// [`ComponentRegistry::register`](crate::composer::ComponentRegistry::register):
    /// dispatch stays virtual, exactly as the interpreter always paid.
    Custom(Box<dyn Component>),
}

/// Expands to a `match` delegating to the payload of every variant, so
/// each method of the `Component` impl below is a single enum dispatch
/// over direct calls.
macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            ComponentKind::Hbim($c) => $body,
            ComponentKind::Btb($c) => $body,
            ComponentKind::MicroBtb($c) => $body,
            ComponentKind::Gtag($c) => $body,
            ComponentKind::Tage($c) => $body,
            ComponentKind::LoopPredictor($c) => $body,
            ComponentKind::Tourney($c) => $body,
            ComponentKind::Perceptron($c) => $body,
            ComponentKind::Ittage($c) => $body,
            ComponentKind::StatisticalCorrector($c) => $body,
            ComponentKind::Custom($c) => $body,
        }
    };
}

macro_rules! kind_from {
    ($($variant:ident => $ty:ty),* $(,)?) => {
        $(impl From<$ty> for ComponentKind {
            fn from(c: $ty) -> Self {
                ComponentKind::$variant(c)
            }
        })*
    };
}

kind_from! {
    Hbim => Hbim,
    Btb => Btb,
    MicroBtb => MicroBtb,
    Gtag => Gtag,
    Tage => Tage,
    LoopPredictor => LoopPredictor,
    Tourney => Tourney,
    Perceptron => Perceptron,
    Ittage => Ittage,
    StatisticalCorrector => StatisticalCorrector,
}

impl From<Box<dyn Component>> for ComponentKind {
    fn from(c: Box<dyn Component>) -> Self {
        ComponentKind::Custom(c)
    }
}

impl ComponentKind {
    /// `true` for the [`Custom`](Self::Custom) escape variant — such nodes
    /// are scheduled conservatively (every stage) because their `compose`
    /// is not known to be pure.
    pub fn is_custom(&self) -> bool {
        matches!(self, ComponentKind::Custom(_))
    }
}

/// Every method is one enum dispatch over direct (inlineable) calls to
/// the stock components; only [`ComponentKind::Custom`] calls through a
/// vtable. The pipeline's hot path calls these through the enum, and the
/// same impl drops a `ComponentKind` into any trait-object context
/// (conformance checkers, user harnesses).
impl Component for ComponentKind {
    #[inline]
    fn kind(&self) -> &'static str {
        dispatch!(self, c => c.kind())
    }
    fn label(&self) -> String {
        dispatch!(self, c => c.label())
    }
    #[inline]
    fn latency(&self) -> u8 {
        dispatch!(self, c => c.latency())
    }
    fn arity(&self) -> usize {
        dispatch!(self, c => c.arity())
    }
    fn meta_bits(&self) -> u32 {
        dispatch!(self, c => c.meta_bits())
    }
    fn local_history_bits(&self) -> u32 {
        dispatch!(self, c => c.local_history_bits())
    }
    fn field_profile(&self) -> FieldProfile {
        dispatch!(self, c => c.field_profile())
    }
    fn required_ghist_bits(&self) -> u32 {
        dispatch!(self, c => c.required_ghist_bits())
    }
    fn index_functions(&self) -> Vec<IndexDescriptor> {
        dispatch!(self, c => c.index_functions())
    }
    fn storage(&self) -> StorageReport {
        dispatch!(self, c => c.storage())
    }
    fn accesses(&self) -> Vec<AccessReport> {
        dispatch!(self, c => c.accesses())
    }
    fn port_violations(&self) -> usize {
        dispatch!(self, c => c.port_violations())
    }
    #[inline]
    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        dispatch!(self, c => c.predict(q))
    }
    #[inline]
    fn compose(
        &self,
        width: u8,
        own: Option<&Response>,
        inputs: &[PredictionBundle],
    ) -> PredictionBundle {
        dispatch!(self, c => c.compose(width, own, inputs))
    }
    #[inline]
    fn finalize_meta(&self, own: &Response, inputs: &[PredictionBundle]) -> Meta {
        dispatch!(self, c => c.finalize_meta(own, inputs))
    }
    #[inline]
    fn fire(&mut self, ev: &FireEvent<'_>) {
        dispatch!(self, c => c.fire(ev))
    }
    #[inline]
    fn mispredict(&mut self, ev: &UpdateEvent<'_>) {
        dispatch!(self, c => c.mispredict(ev))
    }
    #[inline]
    fn repair(&mut self, ev: &FireEvent<'_>) {
        dispatch!(self, c => c.repair(ev))
    }
    #[inline]
    fn update(&mut self, ev: &UpdateEvent<'_>) {
        dispatch!(self, c => c.update(ev))
    }
    fn save_state(&self, w: &mut StateWriter) {
        dispatch!(self, c => c.save_state(w))
    }
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        dispatch!(self, c => c.load_state(r))
    }
}

impl std::fmt::Debug for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ComponentKind::{}", self.label())
    }
}

/// Everything the per-packet fold needs that is invariant across packets,
/// computed once at compile time.
///
/// Inputs are stored flat (`input_ix[input_range[i].0..input_range[i].1]`
/// are node `i`'s input node indices) so the fold touches two contiguous
/// arrays instead of chasing a `Vec<Vec<usize>>`.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// `stage_sched[d-1]`: node indices (ascending) whose composed output
    /// can change at stage `d`. Stage 1 schedules every node.
    pub(crate) stage_sched: Vec<Vec<u32>>,
    /// Flat input-index array; see [`Self::input_range`].
    pub(crate) input_ix: Vec<u32>,
    /// Per-node `[lo, hi)` range into [`Self::input_ix`].
    pub(crate) input_range: Vec<(u32, u32)>,
    /// Cached per-node latency (avoids re-dispatching in the hot loop).
    pub(crate) latency: Vec<u8>,
    /// `true` for nodes of latency ≥ 2 (receive histories per the
    /// interface's history-timing rule).
    pub(crate) wants_hist: Vec<bool>,
}

impl ExecutionPlan {
    /// Lowers a compiled node array into a plan.
    ///
    /// `inputs(i)` yields node `i`'s input indices; nodes are in dataflow
    /// order (inputs strictly before consumers), which both the flat
    /// input arrays and the one-pass transitive-consumer closure rely on.
    pub(crate) fn lower(
        n: usize,
        depth: u8,
        latency: Vec<u8>,
        custom: &[bool],
        inputs: impl Fn(usize) -> Vec<usize>,
    ) -> Self {
        let mut input_ix = Vec::new();
        let mut input_range = Vec::with_capacity(n);
        for i in 0..n {
            let lo = input_ix.len() as u32;
            for j in inputs(i) {
                debug_assert!(j < i, "dataflow order violated: {j} feeds {i}");
                input_ix.push(j as u32);
            }
            input_range.push((lo, input_ix.len() as u32));
        }
        let wants_hist: Vec<bool> = latency.iter().map(|&l| l >= 2).collect();
        let mut stage_sched: Vec<Vec<u32>> = Vec::with_capacity(depth as usize);
        // Stage 1 folds everything: outputs go from their initial empty
        // bundles to composed values.
        stage_sched.push((0..n as u32).collect());
        let mut mark = vec![false; n];
        for d in 2..=depth {
            for m in mark.iter_mut() {
                *m = false;
            }
            for i in 0..n {
                // A node folds when its own response first arrives, when
                // any input re-folded this stage, or unconditionally for
                // custom components (their compose is opaque).
                let (lo, hi) = input_range[i];
                let input_changed = input_ix[lo as usize..hi as usize]
                    .iter()
                    .any(|&j| mark[j as usize]);
                mark[i] = latency[i] == d || custom[i] || input_changed;
            }
            stage_sched.push(
                mark.iter()
                    .enumerate()
                    .filter(|&(_, &m)| m)
                    .map(|(i, _)| i as u32)
                    .collect(),
            );
        }
        // Deliberate lowering bug for the CI mutation-smoke leg: drop the
        // last node from the final stage schedule. The plan verifier must
        // flag this statically (P0102) without running a single packet.
        #[cfg(cobra_seeded_bug)]
        if let Some(last) = stage_sched.last_mut() {
            last.pop();
        }
        Self {
            stage_sched,
            input_ix,
            input_range,
            latency,
            wants_hist,
        }
    }

    /// Node indices scheduled at stage `d` (1-based).
    pub fn schedule(&self, d: u8) -> &[u32] {
        &self.stage_sched[d as usize - 1]
    }

    /// Total scheduled folds across all stages — the plan's per-packet
    /// compose-call count (the interpreter's is `nodes × depth`).
    pub fn total_folds(&self) -> usize {
        self.stage_sched.iter().map(Vec::len).sum()
    }

    /// Number of component nodes the plan was lowered for (the
    /// self-profiler's row count).
    pub fn node_count(&self) -> usize {
        self.latency.len()
    }
}

/// Reusable per-packet buffers, held by the pipeline so the plan path
/// performs no transient allocation.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Raw per-node responses for the in-flight packet.
    pub(crate) responses: Vec<Response>,
    /// Latest composed output per node.
    pub(crate) outs: Vec<PredictionBundle>,
    /// Input-gather buffer (bounded by the widest arity).
    pub(crate) inputs_buf: Vec<PredictionBundle>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::HbimConfig;

    #[test]
    fn stock_components_are_not_custom() {
        let k: ComponentKind = Hbim::new(HbimConfig::bim(1024, 4)).into();
        assert!(!k.is_custom());
        assert_eq!(k.kind(), "bim");
        assert_eq!(k.latency(), 2);
    }

    #[test]
    fn boxed_component_becomes_custom() {
        let b: Box<dyn Component> = Box::new(Hbim::new(HbimConfig::bim(1024, 4)));
        let k: ComponentKind = b.into();
        assert!(k.is_custom());
        assert_eq!(k.kind(), "bim");
    }

    #[test]
    fn lower_chain_schedules_only_changing_nodes() {
        // Chain: node0 (lat 1) -> node1 (lat 2) -> node2 (lat 3).
        // Stage 2: node1 responds, node2 refolds (consumer). Stage 3:
        // only node2.
        let plan = ExecutionPlan::lower(3, 3, vec![1, 2, 3], &[false; 3], |i| {
            if i == 0 {
                vec![]
            } else {
                vec![i - 1]
            }
        });
        assert_eq!(plan.schedule(1), &[0, 1, 2]);
        assert_eq!(plan.schedule(2), &[1, 2]);
        assert_eq!(plan.schedule(3), &[2]);
        assert_eq!(plan.total_folds(), 6);
    }

    #[test]
    fn lower_arbiter_refolds_on_any_arm() {
        // nodes 0,1 (lat 2) feed selector 2 (lat 3).
        let plan = ExecutionPlan::lower(3, 3, vec![2, 2, 3], &[false; 3], |i| {
            if i == 2 {
                vec![0, 1]
            } else {
                vec![]
            }
        });
        assert_eq!(plan.schedule(2), &[0, 1, 2]);
        assert_eq!(plan.schedule(3), &[2]);
    }

    #[test]
    fn lower_schedules_custom_nodes_every_stage() {
        let plan = ExecutionPlan::lower(2, 3, vec![1, 3], &[true, false], |i| {
            if i == 1 {
                vec![0]
            } else {
                vec![]
            }
        });
        // Custom node 0 folds every stage, dragging its consumer along.
        assert_eq!(plan.schedule(2), &[0, 1]);
        assert_eq!(plan.schedule(3), &[0, 1]);
    }

    #[test]
    fn flat_inputs_round_trip() {
        let plan = ExecutionPlan::lower(3, 1, vec![1, 1, 1], &[false; 3], |i| {
            if i == 2 {
                vec![0, 1]
            } else {
                vec![]
            }
        });
        let (lo, hi) = plan.input_range[2];
        assert_eq!(&plan.input_ix[lo as usize..hi as usize], &[0, 1]);
        assert_eq!(plan.input_range[0], (0, 0));
    }
}
