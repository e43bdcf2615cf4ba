//! The COBRA predictor sub-component interface (paper Section III).
//!
//! A predictor sub-component is a clocked unit that:
//!
//! * is queried with a fetch PC at cycle 0 and responds at its declared
//!   latency `p ≥ 1` ([`Component::latency`]);
//! * receives global/local histories only at the end of cycle 1, so a
//!   1-cycle component never sees them (the pipeline enforces this by
//!   passing `hist: None` to such components — see [`PredictQuery`]);
//! * must be *monotonic*: a prediction visible at cycle `p` persists (or is
//!   strengthened) at every later cycle, which the composition scheme
//!   guarantees by pass-through and which [`crate::validate`] checks;
//! * produces a prediction vector over the fetch packet (superscalar
//!   prediction, Section III-C) plus an opaque [`Meta`] word that the
//!   framework stores in the history file and hands back at `fire`,
//!   `mispredict`, `repair`, and `update` time (Section III-D);
//! * consumes zero or more `predict_in` bundles from components below it in
//!   the topology and composes them with its own response
//!   ([`Component::compose`], Section III-F).

use crate::types::{AccessReport, BranchKind, Meta, PredictionBundle, StorageReport};
use cobra_sim::{ContainerError, HistoryRegister, StateReader, StateWriter};

/// The history vectors available to a component from the end of Fetch-1.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    /// Speculative global branch history (bit 0 = most recent outcome).
    pub ghist: &'a HistoryRegister,
    /// Local history bits for the fetch PC, read from the local history
    /// provider's table (LSB = most recent outcome of branches at this PC's
    /// index).
    pub lhist: u64,
    /// Folded path history (extension; zero when no path provider exists).
    pub phist: u64,
}

/// A predict-time query, delivered at cycle 0.
#[derive(Debug, Clone, Copy)]
pub struct PredictQuery<'a> {
    /// Current simulation cycle, for SRAM port accounting.
    pub cycle: u64,
    /// Fetch-packet start address.
    pub pc: u64,
    /// Fetch-packet width in slots.
    pub width: u8,
    /// Histories — `None` for components of latency 1, per the interface's
    /// history-timing rule (Fig 2 of the paper).
    pub hist: Option<HistoryView<'a>>,
}

impl PredictQuery<'_> {
    /// The address of prediction slot `i` within this packet.
    pub fn slot_pc(&self, i: usize) -> u64 {
        self.pc + (i as u64) * crate::types::SLOT_BYTES
    }
}

/// A component's raw output for one query: its own (possibly partial)
/// prediction vector and provisional metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The component's own contribution, before composition.
    pub pred: PredictionBundle,
    /// Provisional metadata; [`Component::finalize_meta`] may refine it once
    /// the component's `predict_in` values are known.
    pub meta: Meta,
}

/// The resolved outcome of one control-flow instruction in a fetch packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotResolution {
    /// Slot index within the fetch packet.
    pub slot: u8,
    /// The instruction's actual kind.
    pub kind: BranchKind,
    /// Whether it actually redirected control flow.
    pub taken: bool,
    /// Its actual target (meaningful when `taken`).
    pub target: u64,
}

impl SlotResolution {
    /// Serializes the resolution into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(u64::from(self.slot));
        w.write_u64(self.kind.code());
        w.write_bool(self.taken);
        w.write_u64(self.target);
    }

    /// Decodes a resolution written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let slot = r.read_u64_capped("resolution slot", 0xff)? as u8;
        let code = r.read_u64("resolution kind")?;
        let kind = BranchKind::from_code(code).ok_or(ContainerError::BadValue {
            what: "resolution kind",
            got: code,
        })?;
        Ok(SlotResolution {
            slot,
            kind,
            taken: r.read_bool("resolution taken")?,
            target: r.read_u64("resolution target")?,
        })
    }
}

/// Payload of the speculative-update (`fire`) and `repair` events.
///
/// `fire` tells a component that the pipeline is acting on a prediction it
/// participated in, so it may speculatively update local state (e.g. a loop
/// predictor's iteration counter). `repair` tells it that a previously fired
/// packet was squashed, so that state must be restored — the metadata it
/// produced at predict time is handed back for exactly this purpose.
#[derive(Debug, Clone, Copy)]
pub struct FireEvent<'a> {
    /// Fetch-packet start address.
    pub pc: u64,
    /// Histories as of predict time.
    pub hist: HistoryView<'a>,
    /// This component's metadata from predict time.
    pub meta: Meta,
    /// The pipeline's final prediction for the packet.
    pub pred: &'a PredictionBundle,
}

/// Payload of the `mispredict` (fast) and `update` (commit-time) events.
#[derive(Debug, Clone, Copy)]
pub struct UpdateEvent<'a> {
    /// Fetch-packet start address.
    pub pc: u64,
    /// Packet width in slots.
    pub width: u8,
    /// Histories as of predict time, so indices computed at predict time can
    /// be regenerated.
    pub hist: HistoryView<'a>,
    /// This component's metadata from predict time.
    pub meta: Meta,
    /// The pipeline's final prediction for the packet.
    pub pred: &'a PredictionBundle,
    /// Resolved control-flow instructions in the packet, in slot order, up
    /// to and including the first taken one.
    pub resolutions: &'a [SlotResolution],
    /// The slot that mispredicted, when this event is a `mispredict` or the
    /// commit-time update of a packet that mispredicted.
    pub mispredicted_slot: Option<u8>,
}

impl UpdateEvent<'_> {
    /// Iterates over the resolved *conditional* branches in the packet.
    pub fn conditional_branches(&self) -> impl Iterator<Item = &SlotResolution> {
        self.resolutions
            .iter()
            .filter(|r| r.kind == BranchKind::Conditional)
    }

    /// The resolution for `slot`, if that slot resolved.
    pub fn resolution_for(&self, slot: u8) -> Option<&SlotResolution> {
        self.resolutions.iter().find(|r| r.slot == slot)
    }
}

/// A set of prediction-bundle fields, used by the static analyzer to reason
/// about which slot fields (`kind` / `taken` / `target`) a component can
/// populate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FieldSet(u8);

impl FieldSet {
    /// The empty set.
    pub const NONE: FieldSet = FieldSet(0);
    /// The branch-kind field.
    pub const KIND: FieldSet = FieldSet(1);
    /// The taken/not-taken direction field.
    pub const TAKEN: FieldSet = FieldSet(2);
    /// The redirect-target field.
    pub const TARGET: FieldSet = FieldSet(4);
    /// All three fields.
    pub const ALL: FieldSet = FieldSet(7);

    /// Set union.
    pub const fn union(self, other: FieldSet) -> FieldSet {
        FieldSet(self.0 | other.0)
    }

    /// Set intersection.
    pub const fn intersect(self, other: FieldSet) -> FieldSet {
        FieldSet(self.0 & other.0)
    }

    /// `true` when the set contains every field in `other`.
    pub const fn contains(self, other: FieldSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` when no field is in the set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Field names in the set, for rendering diagnostics.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.contains(FieldSet::KIND) {
            out.push("kind");
        }
        if self.contains(FieldSet::TAKEN) {
            out.push("taken");
        }
        if self.contains(FieldSet::TARGET) {
            out.push("target");
        }
        out
    }
}

/// A component's static field profile: which prediction fields it *may*
/// populate, and which it populates on *every* query (unconditionally).
///
/// The analyzer's reachability pass uses this to tell a conditional
/// overrider (a loop predictor that speaks only on confident loops —
/// `always` empty) from an unconditional one (a bimodal table that always
/// produces a direction — `always = {taken}`): only the latter can fully
/// shadow a component below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldProfile {
    /// Fields the component can populate on at least some queries.
    pub may: FieldSet,
    /// Fields the component populates on every query.
    pub always: FieldSet,
}

impl FieldProfile {
    /// The conservative default: may populate anything, guarantees nothing.
    /// Produces no false shadowing reports for components that don't
    /// declare a profile.
    pub const CONSERVATIVE: FieldProfile = FieldProfile {
        may: FieldSet::ALL,
        always: FieldSet::NONE,
    };
}

/// Static description of how one SRAM table inside a component forms its
/// row index from the prediction-time inputs.
///
/// The analyzer's interference pass compares these descriptors across a
/// composition: two tables with the same set count whose indices draw on
/// the same history source (and too few PC bits to de-correlate them) will
/// alias on the same pathological streams — the Tournament/`xz` diagnosis
/// from the paper's Section V-B, derived without running a trace.
///
/// `pc_bits` counts the bits of (hashed) program counter that actually
/// reach the index, *after* any masking the component applies — an
/// Alpha-style global-history BIM that folds in only `pc & 0xf`
/// reports 4 here even though the hash saw the full PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDescriptor {
    /// SRAM macro name this index drives (matches the `StorageReport` name).
    pub table: String,
    /// Number of selectable rows per bank (the index space).
    pub sets: u64,
    /// PC bits that survive into the index after masking.
    pub pc_bits: u32,
    /// Global-history bits folded into the index.
    pub ghist_bits: u32,
    /// Local-history bits folded into the index.
    pub lhist_bits: u32,
    /// Path-history bits folded into the index.
    pub path_bits: u32,
}

impl IndexDescriptor {
    /// Total history bits (of any flavor) contributing to the index.
    pub fn history_bits(&self) -> u32 {
        self.ghist_bits + self.lhist_bits + self.path_bits
    }

    /// History-source signature used for cross-component correlation:
    /// two indices with identical signatures hash the same input stream.
    pub fn history_signature(&self) -> (u32, u32, u32) {
        (self.ghist_bits, self.lhist_bits, self.path_bits)
    }
}

/// A COBRA predictor sub-component.
///
/// Implementations are clocked predictor structures (counter tables, BTBs,
/// TAGE, loop predictors, arbitration schemes, …). The composer wires them
/// into a pipeline according to a [`Topology`](crate::composer::Topology)
/// and drives these methods; see the crate-level documentation for the full
/// protocol.
///
/// All five event methods default to no-ops: "implementations of predictor
/// sub-components may choose to use and ignore arbitrary subsets of these
/// five signals" (paper Section III-E).
pub trait Component {
    /// Short lowercase kind name, e.g. `"tage"`.
    fn kind(&self) -> &'static str;

    /// Display label, e.g. `"TAGE3"`.
    fn label(&self) -> String {
        format!("{}{}", self.kind().to_uppercase(), self.latency())
    }

    /// Response latency in cycles (`p ≥ 1`). A component with latency 1
    /// will never be given histories.
    fn latency(&self) -> u8;

    /// Number of `predict_in` ports. Chain components take 1; arbitration
    /// schemes take 2 or more; a component ignoring its input still declares
    /// 1 (the composer feeds it the chain below, which it may pass through).
    fn arity(&self) -> usize {
        1
    }

    /// Width in bits of the metadata this component stores per prediction
    /// (Section III-D: "each sub-component independently specifies the
    /// bit-length required"). Must be ≤ 64 and must bound the values
    /// actually produced.
    fn meta_bits(&self) -> u32 {
        0
    }

    /// Local-history bits this component wants per fetch PC; the composer
    /// sizes the generated local history provider as the maximum over all
    /// components. Zero means "does not use local history".
    fn local_history_bits(&self) -> u32 {
        0
    }

    /// Static declaration of which prediction fields this component can
    /// populate, for the analyzer's reachability/shadowing pass. The
    /// default is deliberately conservative (may touch everything,
    /// guarantees nothing) so components that don't declare a profile are
    /// never reported as shadowing anything.
    fn field_profile(&self) -> FieldProfile {
        FieldProfile::CONSERVATIVE
    }

    /// Global-history bits this component actually reads (its longest
    /// history length). The analyzer warns when a design's global history
    /// register is narrower than this. Zero means "does not read global
    /// history".
    fn required_ghist_bits(&self) -> u32 {
        0
    }

    /// Static per-table index-function descriptors for the analyzer's
    /// interference pass. One entry per SRAM whose row index is computed
    /// from prediction-time inputs; fully-associative (CAM) structures and
    /// components without SRAM return nothing. The default is empty, which
    /// exempts the component from aliasing analysis rather than producing
    /// false reports.
    fn index_functions(&self) -> Vec<IndexDescriptor> {
        Vec::new()
    }

    /// Physical storage declaration for the area model.
    fn storage(&self) -> StorageReport;

    /// Lifetime SRAM access counts for the energy model. Components without
    /// SRAM macros (or whose accesses are negligible) may return nothing.
    fn accesses(&self) -> Vec<AccessReport> {
        Vec::new()
    }

    /// Number of SRAM port-budget violations observed so far — cycles in
    /// which the component demanded more ports than its macros declare.
    /// A nonzero count means the design as modelled would not map to its
    /// claimed memories in synthesis.
    fn port_violations(&self) -> usize {
        0
    }

    /// Generates this component's raw prediction for a query.
    ///
    /// Called once per fetch packet, at query time; state observed must be
    /// the state as of the query cycle. The returned prediction becomes
    /// visible to the pipeline at this component's latency stage.
    fn predict(&mut self, q: &PredictQuery<'_>) -> Response;

    /// Composes this component's response with its `predict_in` values at
    /// pipeline stage `d`.
    ///
    /// `own` is `None` while `d` is below this component's latency (the
    /// component has not yet responded and must pass its inputs through).
    /// The default implementation field-wise overrides `inputs[0]` with the
    /// component's own prediction — the pass-through / partial-override
    /// behaviour of Section III-F. Arbitration schemes override this.
    fn compose(
        &self,
        width: u8,
        own: Option<&Response>,
        inputs: &[PredictionBundle],
    ) -> PredictionBundle {
        let base = inputs
            .first()
            .copied()
            .unwrap_or_else(|| PredictionBundle::new(width));
        match own {
            Some(r) => base.overridden_by(&r.pred),
            None => base,
        }
    }

    /// Refines the metadata once the component's `predict_in` values at its
    /// response stage are known (e.g. a tournament selector records the
    /// sub-predictions it arbitrated between). Defaults to the provisional
    /// metadata from [`predict`](Self::predict).
    fn finalize_meta(&self, own: &Response, _inputs: &[PredictionBundle]) -> Meta {
        own.meta
    }

    /// Speculative update: the pipeline is acting on a prediction this
    /// component participated in.
    fn fire(&mut self, _ev: &FireEvent<'_>) {}

    /// Fast update on a misprediction, before commit.
    fn mispredict(&mut self, _ev: &UpdateEvent<'_>) {}

    /// Restore state corrupted by a squashed speculative update.
    fn repair(&mut self, _ev: &FireEvent<'_>) {}

    /// Slow, commit-time update from committing branches.
    fn update(&mut self, _ev: &UpdateEvent<'_>) {}

    /// Serializes the component's *complete* mutable state for a
    /// warm-state checkpoint (`.cbs`).
    ///
    /// Deliberately required, not defaulted: a component that holds any
    /// state must decide what to save, and a genuinely stateless one
    /// documents that by writing nothing. The composer frames each
    /// component's fields in a named section whose field count is
    /// validated at restore time, so save/load asymmetries fail loudly.
    fn save_state(&self, w: &mut StateWriter);

    /// Restores state previously written by
    /// [`save_state`](Self::save_state) into a component constructed with
    /// the identical configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] if the stream is malformed or does not fit
    /// this component's shape; the component must then be discarded.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MAX_FETCH_WIDTH;

    /// A trivial component used to exercise trait defaults.
    struct Fixed {
        taken: bool,
    }

    impl Component for Fixed {
        fn kind(&self) -> &'static str {
            "fixed"
        }
        fn latency(&self) -> u8 {
            1
        }
        fn storage(&self) -> StorageReport {
            StorageReport::new()
        }
        fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
            let mut pred = PredictionBundle::new(q.width);
            for i in 0..q.width as usize {
                pred.slot_mut(i).taken = Some(self.taken);
            }
            Response {
                pred,
                meta: Meta(7),
            }
        }
        fn save_state(&self, w: &mut StateWriter) {
            w.write_bool(self.taken);
        }
        fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
            self.taken = r.read_bool("fixed taken")?;
            Ok(())
        }
    }

    fn query(width: u8) -> PredictQuery<'static> {
        PredictQuery {
            cycle: 0,
            pc: 0x1000,
            width,
            hist: None,
        }
    }

    #[test]
    fn default_compose_passes_through_before_response() {
        let c = Fixed { taken: true };
        let mut below = PredictionBundle::new(4);
        below.slot_mut(0).taken = Some(false);
        let out = c.compose(4, None, &[below]);
        assert_eq!(out, below);
    }

    #[test]
    fn default_compose_overrides_after_response() {
        let mut c = Fixed { taken: true };
        let resp = c.predict(&query(4));
        let mut below = PredictionBundle::new(4);
        below.slot_mut(2).set_target(Some(0x44));
        let out = c.compose(4, Some(&resp), &[below]);
        assert_eq!(out.slot(2).taken, Some(true), "own direction overrides");
        assert_eq!(
            out.slot(2).target(),
            Some(0x44),
            "input target passes through"
        );
    }

    #[test]
    fn default_compose_with_no_inputs_uses_empty_base() {
        let c = Fixed { taken: false };
        let out = c.compose(8, None, &[]);
        assert_eq!(out, PredictionBundle::new(8));
        assert_eq!(out.width() as usize, MAX_FETCH_WIDTH);
    }

    #[test]
    fn default_finalize_meta_keeps_provisional() {
        let mut c = Fixed { taken: true };
        let resp = c.predict(&query(2));
        assert_eq!(c.finalize_meta(&resp, &[]), Meta(7));
    }

    #[test]
    fn label_combines_kind_and_latency() {
        let c = Fixed { taken: true };
        assert_eq!(c.label(), "FIXED1");
    }

    #[test]
    fn slot_pc_steps_by_parcel() {
        let q = query(4);
        assert_eq!(q.slot_pc(0), 0x1000);
        assert_eq!(q.slot_pc(3), 0x1006);
    }

    #[test]
    fn update_event_filters_conditionals() {
        let pred = PredictionBundle::new(4);
        let ghist = HistoryRegister::new(8);
        let res = [
            SlotResolution {
                slot: 0,
                kind: BranchKind::Jump,
                taken: true,
                target: 0x20,
            },
            SlotResolution {
                slot: 1,
                kind: BranchKind::Conditional,
                taken: false,
                target: 0,
            },
        ];
        let ev = UpdateEvent {
            pc: 0,
            width: 4,
            hist: HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            },
            meta: Meta::ZERO,
            pred: &pred,
            resolutions: &res,
            mispredicted_slot: None,
        };
        assert_eq!(ev.conditional_branches().count(), 1);
        assert_eq!(ev.resolution_for(0).unwrap().kind, BranchKind::Jump);
        assert!(ev.resolution_for(3).is_none());
    }
}
