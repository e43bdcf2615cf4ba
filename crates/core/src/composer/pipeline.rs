//! The compiled predictor pipeline (paper Section IV-B).
//!
//! [`PredictorPipeline::compile`] lowers the analyzer's elaboration of a
//! [`Topology`] against a [`ComponentRegistry`] (a [`DesignModel`]) into a
//! DAG of component nodes, taking over the instances the model built.
//! Per fetch packet,
//! [`PredictorPipeline::predict_packet`] queries every node once (history
//! is withheld from latency-1 nodes) and then folds the DAG once per
//! pipeline stage `d = 1..=depth`:
//!
//! * a node whose latency exceeds `d` passes its inputs through;
//! * a node whose latency is ≤ `d` composes its own response with its
//!   inputs (field-wise override by default, arbitration for selectors).
//!
//! The resulting per-stage bundles realize the paper's rule that "for any
//! latency `d`, the subset of the predictor topology containing
//! sub-components with latency `n ≤ d` specifies the final prediction made
//! `d` cycles after query", including the natural carrying-forward of
//! early predictions into later stages (Fig 4).

use crate::analysis::{reject_errors, DesignModel};
use crate::composer::plan::{ComponentKind, ExecutionPlan, PlanScratch};
use crate::composer::registry::{ComponentRegistry, Design};
use crate::composer::topology::Topology;
use crate::error::{ComposeError, Span};
use crate::iface::{Component, FireEvent, HistoryView, PredictQuery, Response, UpdateEvent};
use crate::obs::interval::NodeProfiler;
use crate::obs::{PacketAttribution, MAX_TRACKED_COMPONENTS, NO_PROVIDER};
use crate::types::{Meta, PredictionBundle, SlotPrediction, StorageReport};
use cobra_sim::{ContainerError, StateReader, StateWriter};
use std::time::Instant;

/// Maximum supported pipeline depth (response latency of the slowest
/// component).
pub const MAX_DEPTH: u8 = 8;

struct Node {
    component: ComponentKind,
    inputs: Vec<usize>,
    label: String,
}

/// A compiled predictor pipeline: component nodes in dataflow order, the
/// lowered [`ExecutionPlan`] driving the devirtualized packet path, and
/// the stage-folding logic.
pub struct PredictorPipeline {
    nodes: Vec<Node>,
    final_node: usize,
    depth: u8,
    width: u8,
    plan: ExecutionPlan,
    scratch: PlanScratch,
    /// Plan path enabled (`Config::plan` at compile time;
    /// [`force_plan`](Self::force_plan) overrides in-process).
    plan_enabled: bool,
    /// Runtime sanitizer checks on (`Config::sanitize` at compile time).
    sanitize: bool,
    /// Hot-path self-profiler (`Config::profile`): samples per-node predict
    /// and compose wall time on the plan path, 1 packet in 16. Renders its
    /// table to stderr on drop. `None` (the default) costs the packet path
    /// a single pointer-null check.
    profiler: Option<Box<NodeProfiler>>,
}

/// The full per-packet output of the pipeline: each node's raw response and
/// finalized metadata, plus the composed final prediction at every stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketPrediction {
    /// `stages[d-1]` is the final prediction visible at Fetch-`d`.
    pub stages: Vec<PredictionBundle>,
    /// Finalized per-node metadata, in node order.
    pub metas: Vec<Meta>,
    /// Value-flow provenance of the final stage's prediction.
    pub attr: PacketAttribution,
}

/// One row of [`PredictorPipeline::describe`]: which components respond at
/// a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDescription {
    /// Pipeline stage (Fetch-`stage`).
    pub stage: u8,
    /// Labels of components whose responses first appear at this stage.
    pub responders: Vec<String>,
}

impl PredictorPipeline {
    /// Compiles `topology` against `registry` for `width`-slot packets.
    ///
    /// # Errors
    ///
    /// Returns [`ComposeError::Analysis`] carrying the findings no pipeline
    /// can be compiled past: a compound left operand of `>` (`C0001`), an
    /// unregistered name (`C0101`), an arbiter whose arity does not match
    /// its inputs (`C0103`), a latency outside `1..=MAX_DEPTH` (`C0104`),
    /// or a metadata declaration wider than 64 bits (`C0301`). Spans index
    /// into the topology's rendering (`topology.to_string()`).
    pub fn compile(
        topology: &Topology,
        registry: &ComponentRegistry,
        width: u8,
    ) -> Result<Self, ComposeError> {
        Self::compile_spanned(topology, &[], registry, width)
    }

    /// [`compile`](Self::compile) with the component-name spans from
    /// [`Topology::parse_spanned`], so a finding is reported at its exact
    /// location in the caller's topology text. `spans` is in textual
    /// (`component_names`) order; pass `&[]` when no source text exists.
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile), with spans into the caller's text.
    pub fn compile_spanned(
        topology: &Topology,
        spans: &[Span],
        registry: &ComponentRegistry,
        width: u8,
    ) -> Result<Self, ComposeError> {
        Self::from_model(&mut DesignModel::from_topology(
            topology, spans, registry, width,
        ))
    }

    /// Compiles the design's topology string against its registry.
    ///
    /// # Errors
    ///
    /// [`ComposeError::Parse`] when the topology does not parse, else as
    /// [`compile`](Self::compile).
    pub fn from_design(design: &Design, width: u8) -> Result<Self, ComposeError> {
        Self::from_model(&mut DesignModel::build(
            &design.name,
            &design.topology,
            &design.registry,
            width,
            design.ghist_bits,
            design.lhist_entries,
        )?)
    }

    /// Compiles the pipeline from `model`, moving its component instances
    /// into the nodes; the model keeps every fact it read from them.
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile).
    ///
    /// # Panics
    ///
    /// Panics if the model's instances were already taken by another
    /// pipeline.
    pub(crate) fn from_model(model: &mut DesignModel) -> Result<Self, ComposeError> {
        reject_errors(&crate::analysis::compile_errors(model))?;
        let instances = std::mem::take(&mut model.instances);
        assert_eq!(
            instances.len(),
            model.components.len(),
            "a design model compiles into one pipeline"
        );
        let final_node = model
            .final_node
            .expect("a model without resolution errors has a root");
        let nodes: Vec<Node> = instances
            .into_iter()
            .zip(&model.components)
            .map(|(component, c)| Node {
                component,
                inputs: c.inputs.clone(),
                label: c.label.clone(),
            })
            .collect();
        let depth = model.depth();
        let latencies: Vec<u8> = model.components.iter().map(|c| c.latency).collect();
        let custom: Vec<bool> = model.components.iter().map(|c| c.is_custom).collect();
        let plan = ExecutionPlan::lower(nodes.len(), depth, latencies, &custom, |i| {
            nodes[i].inputs.clone()
        });
        let config = crate::config::get();
        let profiler = config.profile.then(|| {
            Box::new(NodeProfiler::new(
                nodes.iter().map(|n| n.label.clone()).collect(),
            ))
        });
        Ok(Self {
            nodes,
            final_node,
            depth,
            width: model.width,
            plan,
            scratch: PlanScratch::default(),
            plan_enabled: config.plan,
            sanitize: config.sanitize,
            profiler,
        })
    }

    /// Pipeline depth: the latency of the slowest component.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The lowered execution plan driving the devirtualized packet path.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// `true` when packets take the plan path (vs. the reference
    /// interpreter fold).
    pub fn plan_enabled(&self) -> bool {
        self.plan_enabled
    }

    /// `true` when the runtime sanitizer checks this pipeline's packets.
    pub(crate) fn sanitizing(&self) -> bool {
        self.sanitize
    }

    /// Overrides the `Config::plan` selection made at compile time — used by
    /// in-process differential tests and benches to flip paths without
    /// touching the environment.
    pub fn force_plan(&mut self, enabled: bool) {
        self.plan_enabled = enabled;
    }

    /// Test hook: arms (or disarms) the per-node self-profiler in-process,
    /// independent of the `Config::profile` gate read at compile time.
    #[doc(hidden)]
    pub fn force_profiler(&mut self, on: bool) {
        self.profiler = on.then(|| {
            Box::new(NodeProfiler::new(
                self.nodes.iter().map(|n| n.label.clone()).collect(),
            ))
        });
    }

    /// The self-profiler's rendered table, if armed and any packet was
    /// sampled (the same table it prints to stderr on drop).
    pub fn profile_report(&self) -> Option<String> {
        self.profiler.as_ref().and_then(|p| p.render())
    }

    /// Fetch-packet width in slots.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of component nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node labels in dataflow order (inputs before consumers).
    pub fn labels(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.label.as_str()).collect()
    }

    /// The maximum local-history bits any component requests.
    pub fn local_history_bits(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| n.component.local_history_bits())
            .max()
            .unwrap_or(0)
    }

    /// Total metadata bits per history-file entry (sum over components).
    pub fn meta_bits(&self) -> u32 {
        self.nodes.iter().map(|n| n.component.meta_bits()).sum()
    }

    /// Total SRAM port-budget violations across all components.
    pub fn port_violations(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.component.port_violations())
            .sum()
    }

    /// Per-component SRAM access counts, labelled (energy model input).
    pub fn accesses_by_component(&self) -> Vec<(String, Vec<crate::types::AccessReport>)> {
        self.nodes
            .iter()
            .map(|n| (n.label.clone(), n.component.accesses()))
            .collect()
    }

    /// Per-component storage reports, labelled.
    pub fn storage_by_component(&self) -> Vec<(String, StorageReport)> {
        self.nodes
            .iter()
            .map(|n| (n.label.clone(), n.component.storage()))
            .collect()
    }

    /// A pipeline diagram: which components first respond at each stage
    /// (the content of the paper's Fig 4 / Fig 7 diagrams).
    pub fn describe(&self) -> Vec<StageDescription> {
        (1..=self.depth)
            .map(|stage| StageDescription {
                stage,
                responders: self
                    .nodes
                    .iter()
                    .filter(|n| n.component.latency() == stage)
                    .map(|n| n.label.clone())
                    .collect(),
            })
            .collect()
    }

    /// Queries every component for one fetch packet and folds the DAG into
    /// per-stage final predictions.
    ///
    /// `hist` is handed only to components with latency ≥ 2, enforcing the
    /// interface's history-timing rule.
    pub fn predict_packet(
        &mut self,
        cycle: u64,
        pc: u64,
        hist: &HistoryView<'_>,
    ) -> PacketPrediction {
        self.predict_packet_width(cycle, pc, self.width, hist)
    }

    /// [`predict_packet`](Self::predict_packet) for a packet narrower than
    /// the full fetch width (a fetch that enters mid-block only covers the
    /// slots to the block end).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the pipeline's fetch width.
    pub fn predict_packet_width(
        &mut self,
        cycle: u64,
        pc: u64,
        width: u8,
        hist: &HistoryView<'_>,
    ) -> PacketPrediction {
        let mut out = PacketPrediction {
            stages: Vec::new(),
            metas: Vec::new(),
            attr: crate::obs::PacketAttribution::EMPTY,
        };
        self.predict_packet_into(cycle, pc, width, hist, &mut out);
        out
    }

    /// [`predict_packet_width`](Self::predict_packet_width) writing into an
    /// existing `out`, reusing its `stages`/`metas` buffers — the steady
    /// state predicts without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the pipeline's fetch width.
    pub fn predict_packet_into(
        &mut self,
        cycle: u64,
        pc: u64,
        width: u8,
        hist: &HistoryView<'_>,
        out: &mut PacketPrediction,
    ) {
        assert!(
            width >= 1 && width <= self.width,
            "packet width out of range"
        );
        if self.plan_enabled {
            self.predict_packet_plan(cycle, pc, width, hist, out);
        } else {
            self.predict_packet_interp(cycle, pc, width, hist, out);
        }
    }

    /// The reference interpreter fold: every node composes at every stage
    /// with freshly gathered inputs. Kept verbatim as the semantic ground
    /// truth the plan path is differentially tested against
    /// (`COBRA_PLAN=off`).
    fn predict_packet_interp(
        &mut self,
        cycle: u64,
        pc: u64,
        width: u8,
        hist: &HistoryView<'_>,
        out: &mut PacketPrediction,
    ) {
        let n = self.nodes.len();
        let mut responses: Vec<Response> = Vec::with_capacity(n);
        for node in &mut self.nodes {
            let q = PredictQuery {
                cycle,
                pc,
                width,
                hist: (node.component.latency() >= 2).then_some(*hist),
            };
            responses.push(node.component.predict(&q));
        }

        out.stages.clear();
        out.metas.clear();
        out.metas.resize(n, Meta::ZERO);
        let mut meta_done = vec![false; n];
        let mut outs: Vec<PredictionBundle> = vec![PredictionBundle::new(width); n];
        for d in 1..=self.depth {
            // Nodes are stored in dataflow order, so a single pass works.
            for i in 0..n {
                let node = &self.nodes[i];
                let inputs: Vec<PredictionBundle> = node.inputs.iter().map(|&j| outs[j]).collect();
                let own = (node.component.latency() <= d).then(|| &responses[i]);
                outs[i] = node.component.compose(width, own, &inputs);
                if node.component.latency() == d && !meta_done[i] {
                    out.metas[i] = node.component.finalize_meta(&responses[i], &inputs);
                    meta_done[i] = true;
                }
            }
            out.stages.push(outs[self.final_node]);
            if self.sanitize && d >= 2 {
                check_refinement(
                    pc,
                    d,
                    &out.stages[d as usize - 2],
                    &out.stages[d as usize - 1],
                );
            }
        }
        out.attr = attribute_final(&self.nodes, self.final_node, &responses, &outs, width);
    }

    /// The plan path: same fold, driven by the precomputed schedules with
    /// reused scratch buffers. A node absent from a stage's schedule keeps
    /// its prior-stage output — composition is pure, so the result is
    /// byte-identical to the interpreter's.
    fn predict_packet_plan(
        &mut self,
        cycle: u64,
        pc: u64,
        width: u8,
        hist: &HistoryView<'_>,
        out: &mut PacketPrediction,
    ) {
        let n = self.nodes.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        // The profiler is moved out for the duration of the packet so the
        // node iteration below can borrow `self.nodes` mutably.
        let mut prof = self.profiler.take();
        let sample = prof.as_deref_mut().is_some_and(NodeProfiler::tick);
        scratch.responses.clear();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let q = PredictQuery {
                cycle,
                pc,
                width,
                hist: self.plan.wants_hist[i].then_some(*hist),
            };
            if sample {
                let t0 = Instant::now();
                scratch.responses.push(node.component.predict(&q));
                if let Some(p) = prof.as_deref_mut() {
                    p.record_predict(i, t0);
                }
            } else {
                scratch.responses.push(node.component.predict(&q));
            }
        }

        out.stages.clear();
        out.metas.clear();
        out.metas.resize(n, Meta::ZERO);
        // Stage 1 schedules every node in dataflow order, so each `outs`
        // entry is overwritten before any consumer reads it — the buffer
        // only needs (re)initialization when the node count changes.
        if scratch.outs.len() != n {
            scratch.outs.clear();
            scratch.outs.resize(n, PredictionBundle::new(width));
        }
        for d in 1..=self.depth {
            for &iu in self.plan.schedule(d) {
                let i = iu as usize;
                let (lo, hi) = self.plan.input_range[i];
                let node = &self.nodes[i];
                let lat = self.plan.latency[i];
                let own = (lat <= d).then(|| &scratch.responses[i]);
                // Arity 0/1 nodes (the common case) borrow their input
                // straight out of `outs`; only arbiters pay a gather copy.
                let inputs: &[PredictionBundle] = match hi - lo {
                    0 => &[],
                    1 => std::slice::from_ref(
                        &scratch.outs[self.plan.input_ix[lo as usize] as usize],
                    ),
                    _ => {
                        scratch.inputs_buf.clear();
                        for &j in &self.plan.input_ix[lo as usize..hi as usize] {
                            scratch.inputs_buf.push(scratch.outs[j as usize]);
                        }
                        &scratch.inputs_buf
                    }
                };
                let composed = if sample {
                    let t0 = Instant::now();
                    let c = node.component.compose(width, own, inputs);
                    if let Some(p) = prof.as_deref_mut() {
                        p.record_compose(i, t0);
                    }
                    c
                } else {
                    node.component.compose(width, own, inputs)
                };
                if lat == d {
                    out.metas[i] = node.component.finalize_meta(&scratch.responses[i], inputs);
                }
                scratch.outs[i] = composed;
            }
            out.stages.push(scratch.outs[self.final_node]);
            if self.sanitize && d >= 2 {
                check_refinement(
                    pc,
                    d,
                    &out.stages[d as usize - 2],
                    &out.stages[d as usize - 1],
                );
            }
        }
        out.attr = attribute_final(
            &self.nodes,
            self.final_node,
            &scratch.responses,
            &scratch.outs,
            width,
        );
        self.scratch = scratch;
        self.profiler = prof;
    }

    /// Broadcasts a `fire` event; each component receives its own metadata.
    pub fn fire(
        &mut self,
        pc: u64,
        hist: &HistoryView<'_>,
        metas: &[Meta],
        pred: &PredictionBundle,
    ) {
        self.check_meta_tokens("fire", metas);
        for (node, &meta) in self.nodes.iter_mut().zip(metas) {
            node.component.fire(&FireEvent {
                pc,
                hist: *hist,
                meta,
                pred,
            });
        }
    }

    /// Broadcasts a `repair` event.
    pub fn repair(
        &mut self,
        pc: u64,
        hist: &HistoryView<'_>,
        metas: &[Meta],
        pred: &PredictionBundle,
    ) {
        self.check_meta_tokens("repair", metas);
        for (node, &meta) in self.nodes.iter_mut().zip(metas) {
            node.component.repair(&FireEvent {
                pc,
                hist: *hist,
                meta,
                pred,
            });
        }
    }

    /// Broadcasts a `mispredict` event.
    pub fn mispredict(&mut self, ev_base: &UpdateEvent<'_>, metas: &[Meta]) {
        self.check_meta_tokens("mispredict", metas);
        for (node, &meta) in self.nodes.iter_mut().zip(metas) {
            node.component.mispredict(&UpdateEvent { meta, ..*ev_base });
        }
    }

    /// Broadcasts a commit-time `update` event.
    pub fn update(&mut self, ev_base: &UpdateEvent<'_>, metas: &[Meta]) {
        self.check_meta_tokens("update", metas);
        for (node, &meta) in self.nodes.iter_mut().zip(metas) {
            node.component.update(&UpdateEvent { meta, ..*ev_base });
        }
    }

    /// Serializes every component's tables into a checkpoint stream, each
    /// node wrapped in a section named after its topology label so a
    /// restore into a different pipeline fails loudly.
    pub fn save_state(&self, w: &mut StateWriter) {
        for node in &self.nodes {
            w.begin_section(&node.label);
            node.component.save_state(w);
            w.end_section();
        }
    }

    /// Restores component state written by [`save_state`](Self::save_state)
    /// into a pipeline compiled from the same topology.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] when a section name does not match this
    /// pipeline's node order or a component rejects its payload.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        for node in &mut self.nodes {
            r.open_section(&node.label)?;
            node.component.load_state(r)?;
            r.close_section()?;
        }
        Ok(())
    }

    /// Sanitizer hook: every event broadcast must carry exactly one
    /// metadata word per component — a mismatch means a history-file token
    /// was built for a different pipeline or truncated in flight.
    #[inline]
    fn check_meta_tokens(&self, event: &str, metas: &[Meta]) {
        if self.sanitize && metas.len() != self.nodes.len() {
            crate::sanitize::violation(&format!(
                "{event} broadcast carries {} metadata word(s) for {} component(s)",
                metas.len(),
                self.nodes.len()
            ));
        }
    }
}

/// Sanitizer hook: composed predictions must refine monotonically — a slot
/// resolved at stage `d-1` (kind, direction, or target known) must still
/// be resolved at stage `d`. Values may change (that is an override);
/// knowledge may not be un-learned.
fn check_refinement(pc: u64, stage: u8, prev: &PredictionBundle, cur: &PredictionBundle) {
    for i in 0..prev.width() as usize {
        let p = prev.slot(i);
        let c = cur.slot(i);
        let dropped = (p.kind.is_some() && c.kind.is_none())
            || (p.taken.is_some() && c.taken.is_none())
            || (p.target().is_some() && c.target().is_none());
        if dropped {
            crate::sanitize::violation(&format!(
                "monotonic refinement violated at pc {pc:#x} slot {i}: stage {} predicted \
                 {p:?} but stage {stage} degraded it to {c:?}",
                stage - 1
            ));
        }
    }
}

/// Encodes one predicted field of a slot as a comparable value (`None`:
/// the field is unpredicted). Field indices: 0 = kind, 1 = taken,
/// 2 = target.
fn field_val(sp: &SlotPrediction, f: usize) -> Option<u64> {
    match f {
        0 => sp.kind.map(|k| k as u64),
        1 => sp.taken.map(u64::from),
        _ => sp.target(),
    }
}

/// Provider of value `v` for field `f` of slot `s` as seen at node
/// `start`: follows the first input (base of the topology first) whose
/// composed output carries the same value, bottoming out at the node
/// that introduced it. Inputs come before their consumers in dataflow
/// order, so the walk strictly descends and terminates.
fn walk_provider(
    nodes: &[Node],
    outs: &[PredictionBundle],
    start: usize,
    f: usize,
    s: usize,
    v: u64,
) -> u8 {
    let mut i = start;
    'descend: loop {
        for &j in &nodes[i].inputs {
            if field_val(outs[j].slot(s), f) == Some(v) {
                i = j;
                continue 'descend;
            }
        }
        return i as u8;
    }
}

/// The operational-provenance fold: for every predicted field of every
/// slot of the final bundle, finds the node whose own response
/// established the winning value ([`walk_provider`]). Ties credit the
/// node closest to the base of the topology (an arbiter that forwards a
/// sub-predictor's value attributes the sub-predictor, not itself); a
/// value no input carries is credited to the composing node.
///
/// `outs` are the final-stage per-node composed bundles, `responses` the
/// raw per-node responses. Only fields the final bundle actually carries
/// are walked, so the per-packet cost tracks the (small) number of live
/// predictions, not `nodes × width × 3`.
fn attribute_final(
    nodes: &[Node],
    final_node: usize,
    responses: &[Response],
    outs: &[PredictionBundle],
    width: u8,
) -> PacketAttribution {
    let n = nodes.len();
    if n >= NO_PROVIDER as usize {
        return PacketAttribution::EMPTY;
    }
    let width = width as usize;
    let mut attr = PacketAttribution::EMPTY;
    let fin = &outs[final_node];
    for s in 0..width.min(fin.width() as usize) {
        let sp = fin.slot(s);
        if sp.is_empty() {
            continue;
        }
        for f in 0..3 {
            if let Some(v) = field_val(sp, f) {
                let p = walk_provider(nodes, outs, final_node, f, s, v);
                match f {
                    0 => attr.kind_provider[s] = p,
                    1 => attr.taken_provider[s] = p,
                    _ => attr.target_provider[s] = p,
                }
            }
        }
    }
    for (i, resp) in responses
        .iter()
        .enumerate()
        .take(n.min(MAX_TRACKED_COMPONENTS))
    {
        let w = width.min(resp.pred.width() as usize);
        for s in 0..w {
            let sp = resp.pred.slot(s);
            if sp.taken.is_some() {
                attr.proposed_taken[i] |= 1 << s;
            }
            if sp.target().is_some() {
                attr.proposed_target[i] |= 1 << s;
            }
        }
    }
    attr
}

impl std::fmt::Debug for PredictorPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorPipeline")
            .field("labels", &self.labels())
            .field("depth", &self.depth)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{Hbim, HbimConfig, MicroBtb, MicroBtbConfig, Tourney, TourneyConfig};
    use crate::iface::SlotResolution;
    use crate::types::BranchKind;
    use cobra_sim::HistoryRegister;

    fn test_registry() -> ComponentRegistry {
        let mut r = ComponentRegistry::new();
        r.register("BIM2", |w| Box::new(Hbim::new(HbimConfig::bim(1024, w))));
        r.register("GBIM2", |w| {
            Box::new(Hbim::new(HbimConfig::gbim(1024, 8, w)))
        });
        r.register("LBIM2", |w| {
            Box::new(Hbim::new(HbimConfig::lbim(1024, 8, w)))
        });
        r.register("UBTB1", |w| {
            Box::new(MicroBtb::new(MicroBtbConfig::small(w)))
        });
        r.register("TOURNEY3", |w| {
            Box::new(Tourney::new(TourneyConfig::paper(w)))
        });
        r
    }

    fn compile(s: &str) -> PredictorPipeline {
        let t = Topology::parse(s).unwrap();
        PredictorPipeline::compile(&t, &test_registry(), 4).unwrap()
    }

    #[test]
    fn depth_is_max_latency() {
        assert_eq!(compile("BIM2 > UBTB1").depth(), 2);
        assert_eq!(compile("TOURNEY3 > [GBIM2, LBIM2]").depth(), 3);
    }

    /// The one `C`-code and span `topology` is rejected with.
    fn rejection(topology: &str) -> (&'static str, Option<Span>) {
        let t = Topology::parse(topology).unwrap();
        match PredictorPipeline::compile(&t, &test_registry(), 4) {
            Err(ComposeError::Analysis { diagnostics }) => {
                assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
                (diagnostics[0].code.code(), diagnostics[0].span)
            }
            other => panic!("expected one analysis finding, got {other:?}"),
        }
    }

    #[test]
    fn unknown_component_errors() {
        assert_eq!(rejection("NOPE9"), ("C0101", Some(Span::new(0, 5))));
    }

    #[test]
    fn arbiter_arity_checked() {
        // Tourney as a plain chain element (1 input) must be rejected.
        assert_eq!(
            rejection("TOURNEY3 > BIM2"),
            ("C0103", Some(Span::new(0, 8)))
        );
    }

    #[test]
    fn over_requires_leaf_left_operand() {
        // (A > B) > C with A>B as the *overriding* side cannot be expressed
        // by the chain builder; parser yields Over(Over(..)..) only via
        // parentheses. The finding points at the operand's top component.
        assert_eq!(
            rejection("(BIM2 > UBTB1) > GBIM2"),
            ("C0001", Some(Span::new(1, 5)))
        );
    }

    #[test]
    fn stage_outputs_respect_latencies() {
        let mut p = compile("BIM2 > UBTB1");
        let ghist = HistoryRegister::new(16);
        let hist = HistoryView {
            ghist: &ghist,
            lhist: 0,
            phist: 0,
        };
        let out = p.predict_packet(0, 0x1000, &hist);
        assert_eq!(out.stages.len(), 2);
        // Cold uBTB misses, so stage 1 is empty; stage 2 carries BIM
        // direction predictions.
        assert_eq!(out.stages[0].slot(0).taken, None);
        assert!(out.stages[1].slot(0).taken.is_some());
    }

    #[test]
    fn early_prediction_carries_into_later_stages() {
        // Train the uBTB so it hits at stage 1; its (kind, target) must
        // persist at stage 2 even though the BIM responds there.
        let mut p = compile("BIM2 > UBTB1");
        let ghist = HistoryRegister::new(16);
        let hist = HistoryView {
            ghist: &ghist,
            lhist: 0,
            phist: 0,
        };
        let out = p.predict_packet(0, 0x1000, &hist);
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Conditional,
            taken: true,
            target: 0x2000,
        }];
        let pred = out.stages[1];
        let ev = UpdateEvent {
            pc: 0x1000,
            width: 4,
            hist,
            meta: Meta::ZERO,
            pred: &pred,
            resolutions: &res,
            mispredicted_slot: None,
        };
        p.update(&ev, &out.metas);
        let out = p.predict_packet(1, 0x1000, &hist);
        assert_eq!(
            out.stages[0].slot(0).target(),
            Some(0x2000),
            "uBTB hit at F1"
        );
        assert_eq!(
            out.stages[1].slot(0).target(),
            Some(0x2000),
            "carried into F2"
        );
    }

    #[test]
    fn tournament_pipeline_stage_sequencing() {
        let mut p = compile("TOURNEY3 > [GBIM2, LBIM2]");
        let ghist = HistoryRegister::new(16);
        let hist = HistoryView {
            ghist: &ghist,
            lhist: 0,
            phist: 0,
        };
        let out = p.predict_packet(0, 0x2000, &hist);
        assert_eq!(out.stages.len(), 3);
        // At stage 2 the selector has not responded: input 0 (GBIM) is the
        // default. At stage 3 the tournament decision applies.
        assert!(out.stages[1].slot(0).taken.is_some());
        assert!(out.stages[2].slot(0).taken.is_some());
    }

    #[test]
    fn meta_bits_aggregates_components() {
        let p = compile("TOURNEY3 > [GBIM2, LBIM2]");
        assert_eq!(p.meta_bits(), 34 + 8 + 8);
    }

    #[test]
    fn local_history_bits_is_component_max() {
        let p = compile("TOURNEY3 > [GBIM2, LBIM2]");
        assert_eq!(p.local_history_bits(), 8);
        let p = compile("BIM2 > UBTB1");
        assert_eq!(p.local_history_bits(), 0);
    }

    #[test]
    fn describe_places_components_at_their_stages() {
        let p = compile("TOURNEY3 > [GBIM2, LBIM2]");
        let d = p.describe();
        assert_eq!(d.len(), 3);
        assert!(d[0].responders.is_empty());
        assert_eq!(d[1].responders.len(), 2);
        assert_eq!(d[2].responders, vec!["TOURNEY3".to_string()]);
    }

    #[test]
    fn profiler_does_not_change_predictions() {
        let mk = || {
            let mut p = compile("TOURNEY3 > [GBIM2, LBIM2]");
            p.force_plan(true);
            p
        };
        let mut plain = mk();
        let mut profiled = mk();
        profiled.force_profiler(true);
        let ghist = HistoryRegister::new(16);
        let hist = HistoryView {
            ghist: &ghist,
            lhist: 0,
            phist: 0,
        };
        for i in 0..40u64 {
            let pc = 0x1000 + (i % 7) * 0x40;
            let a = plain.predict_packet(i, pc, &hist);
            let b = profiled.predict_packet(i, pc, &hist);
            assert_eq!(a, b, "profiling must not perturb predictions");
        }
        assert!(
            profiled.profile_report().is_some(),
            "40 packets sample at least once"
        );
        assert!(plain.profile_report().is_none());
    }

    #[test]
    fn ordering_matters_between_topologies() {
        // uBTB above BIM vs BIM above uBTB produce different stage-2
        // predictions once the uBTB is trained to disagree with the BIM.
        let mut above = compile("UBTB1 > BIM2");
        let mut below = compile("BIM2 > UBTB1");
        let ghist = HistoryRegister::new(16);
        let hist = HistoryView {
            ghist: &ghist,
            lhist: 0,
            phist: 0,
        };
        // Train uBTB taken, BIM (via many not-taken updates) not-taken.
        for pipeline in [&mut above, &mut below] {
            // First, teach the uBTB a taken branch.
            let out = pipeline.predict_packet(0, 0x3000, &hist);
            let res = [SlotResolution {
                slot: 0,
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x4000,
            }];
            let pred = out.stages[1];
            let ev = UpdateEvent {
                pc: 0x3000,
                width: 4,
                hist,
                meta: Meta::ZERO,
                pred: &pred,
                resolutions: &res,
                mispredicted_slot: None,
            };
            pipeline.update(&ev, &out.metas);
            // Then drive the shared outcome not-taken several times so the
            // BIM learns not-taken while the uBTB counter weakens slowly.
            for _ in 0..2 {
                let out = pipeline.predict_packet(0, 0x3000, &hist);
                let res = [SlotResolution {
                    slot: 0,
                    kind: BranchKind::Conditional,
                    taken: false,
                    target: 0,
                }];
                let pred = out.stages[1];
                let ev = UpdateEvent {
                    pc: 0x3000,
                    width: 4,
                    hist,
                    meta: Meta::ZERO,
                    pred: &pred,
                    resolutions: &res,
                    mispredicted_slot: None,
                };
                pipeline.update(&ev, &out.metas);
            }
        }
        // Retrain the uBTB taken one more time in both, so uBTB=taken,
        // BIM=not-taken.
        for pipeline in [&mut above, &mut below] {
            for _ in 0..3 {
                let out = pipeline.predict_packet(0, 0x3000, &hist);
                let res = [SlotResolution {
                    slot: 0,
                    kind: BranchKind::Conditional,
                    taken: true,
                    target: 0x4000,
                }];
                let pred = out.stages[0];
                let ev = UpdateEvent {
                    pc: 0x3000,
                    width: 4,
                    hist,
                    meta: Meta::ZERO,
                    pred: &pred,
                    resolutions: &res,
                    mispredicted_slot: None,
                };
                pipeline.update(&ev, &out.metas);
            }
        }
        let _ = above.predict_packet(0, 0x3000, &hist);
        let _ = below.predict_packet(0, 0x3000, &hist);
        // Structural check: same components, different final node.
        assert_eq!(above.labels(), vec!["BIM2", "UBTB1"]);
        assert_eq!(below.labels(), vec!["UBTB1", "BIM2"]);
    }
}
