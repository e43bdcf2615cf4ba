//! Common value types of the COBRA predictor interface.

use cobra_sim::{ContainerError, SramSpec, StateReader, StateWriter};
use std::fmt;

/// Maximum supported fetch-packet width in prediction slots.
///
/// The evaluated BOOM configuration fetches 16 bytes per cycle of 16-bit RVC
/// instructions, i.e. up to 8 prediction slots.
pub const MAX_FETCH_WIDTH: usize = 8;

/// Granularity of a prediction slot in bytes (one RVC parcel).
pub const SLOT_BYTES: u64 = 2;

/// The kind of a control-flow instruction, as predicted (by a BTB) or
/// resolved (by the backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A conditional branch: contributes a history bit; needs direction and
    /// target prediction.
    Conditional,
    /// An unconditional direct jump.
    Jump,
    /// A function call (jump-and-link): pushes the return address.
    Call,
    /// A function return: target comes from the return-address stack.
    Ret,
    /// An indirect jump through a register.
    Indirect,
}

impl BranchKind {
    /// `true` for kinds that always redirect control flow when executed.
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::Conditional)
    }

    /// Stable numeric code used by checkpoint serialization.
    pub fn code(self) -> u64 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::Jump => 1,
            BranchKind::Call => 2,
            BranchKind::Ret => 3,
            BranchKind::Indirect => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u64) -> Option<BranchKind> {
        Some(match code {
            0 => BranchKind::Conditional,
            1 => BranchKind::Jump,
            2 => BranchKind::Call,
            3 => BranchKind::Ret,
            4 => BranchKind::Indirect,
            _ => return None,
        })
    }

    /// Encodes an optional kind as one biased code (0 = `None`).
    pub fn encode_opt(kind: Option<BranchKind>) -> u64 {
        kind.map_or(0, |k| k.code() + 1)
    }

    /// Decodes a value written by [`encode_opt`](Self::encode_opt).
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError::BadValue`] for codes outside the kind range.
    pub fn decode_opt(v: u64) -> Result<Option<BranchKind>, ContainerError> {
        if v == 0 {
            return Ok(None);
        }
        BranchKind::from_code(v - 1)
            .map(Some)
            .ok_or(ContainerError::BadValue {
                what: "branch kind",
                got: v,
            })
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Conditional => "br",
            BranchKind::Jump => "jmp",
            BranchKind::Call => "call",
            BranchKind::Ret => "ret",
            BranchKind::Indirect => "ijmp",
        };
        f.write_str(s)
    }
}

/// A single slot's worth of (possibly partial) prediction.
///
/// Every field is optional because the interface explicitly supports partial
/// predictions (Section III-F of the paper): a BTB may provide only a
/// target, a direction table only a direction. A later component in the
/// topology overrides exactly the fields it provides and passes the rest
/// through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotPrediction {
    /// The kind of control-flow instruction believed to be at this slot
    /// (`None`: no CFI predicted here).
    pub kind: Option<BranchKind>,
    /// Predicted direction for a conditional branch.
    pub taken: Option<bool>,
    // The target is stored packed (validity bit + bits) rather than as an
    // `Option<u64>`: the option's discriminant would pad the struct from
    // 16 to 24 bytes, and `PredictionBundle` copies are the single largest
    // memory-traffic source on the packet hot path. `target_bits` is kept
    // normalized to 0 whenever `has_target` is false so the derived
    // equality matches option semantics.
    has_target: bool,
    target_bits: u64,
}

impl SlotPrediction {
    /// A slot with the given fields (the struct-literal form this type had
    /// when `target` was a public `Option<u64>` field).
    pub fn new(kind: Option<BranchKind>, taken: Option<bool>, target: Option<u64>) -> Self {
        Self {
            kind,
            taken,
            has_target: target.is_some(),
            target_bits: target.unwrap_or(0),
        }
    }

    /// Predicted target address, if this slot redirects.
    pub fn target(&self) -> Option<u64> {
        self.has_target.then_some(self.target_bits)
    }

    /// Sets (or clears) the predicted target address.
    pub fn set_target(&mut self, target: Option<u64>) {
        self.has_target = target.is_some();
        self.target_bits = target.unwrap_or(0);
    }

    /// `true` if no component has predicted anything for this slot.
    pub fn is_empty(&self) -> bool {
        self.kind.is_none() && self.taken.is_none() && !self.has_target
    }

    /// Overlays `other`'s provided fields on top of `self` (field-wise
    /// override, the interface's default composition rule).
    pub fn overridden_by(&self, other: &SlotPrediction) -> SlotPrediction {
        SlotPrediction {
            kind: other.kind.or(self.kind),
            taken: other.taken.or(self.taken),
            has_target: other.has_target || self.has_target,
            target_bits: if other.has_target {
                other.target_bits
            } else {
                self.target_bits
            },
        }
    }

    /// `true` if this slot, as currently predicted, redirects fetch:
    /// an unconditional CFI, or a conditional branch predicted taken.
    ///
    /// A redirect additionally requires a known target; see
    /// [`PredictionBundle::redirect`].
    pub fn wants_redirect(&self) -> bool {
        match self.kind {
            Some(BranchKind::Conditional) => self.taken == Some(true),
            Some(_) => true,
            None => false,
        }
    }

    /// Serializes the slot's fields into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(BranchKind::encode_opt(self.kind));
        w.write_u64(match self.taken {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        w.write_bool(self.has_target);
        w.write_u64(self.target_bits);
    }

    /// Decodes a slot written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let kind = BranchKind::decode_opt(r.read_u64("slot kind")?)?;
        let taken = match r.read_u64_capped("slot taken", 2)? {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        };
        let has_target = r.read_bool("slot has target")?;
        let target = r.read_u64("slot target")?;
        Ok(Self::new(kind, taken, has_target.then_some(target)))
    }
}

/// A vector of predictions covering one fetch packet — the `predict_out`
/// (and `predict_in`) type of the COBRA interface.
///
/// # Examples
///
/// ```
/// use cobra_core::{BranchKind, PredictionBundle};
///
/// let mut b = PredictionBundle::new(4);
/// b.slot_mut(1).kind = Some(BranchKind::Conditional);
/// b.slot_mut(1).taken = Some(true);
/// b.slot_mut(1).set_target(Some(0x8000_0000));
/// assert_eq!(b.redirect(), Some((1, 0x8000_0000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionBundle {
    width: u8,
    slots: [SlotPrediction; MAX_FETCH_WIDTH],
}

impl PredictionBundle {
    /// An empty (all-fallthrough) bundle of `width` slots.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_FETCH_WIDTH`].
    pub fn new(width: u8) -> Self {
        assert!(
            (1..=MAX_FETCH_WIDTH as u8).contains(&width),
            "bundle width out of range"
        );
        Self {
            width,
            slots: [SlotPrediction::default(); MAX_FETCH_WIDTH],
        }
    }

    /// Number of slots.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Borrows slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn slot(&self, i: usize) -> &SlotPrediction {
        assert!(i < self.width as usize, "slot index out of range");
        &self.slots[i]
    }

    /// Mutably borrows slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn slot_mut(&mut self, i: usize) -> &mut SlotPrediction {
        assert!(i < self.width as usize, "slot index out of range");
        &mut self.slots[i]
    }

    /// Iterates over the live slots.
    pub fn iter(&self) -> impl Iterator<Item = &SlotPrediction> {
        self.slots[..self.width as usize].iter()
    }

    /// Field-wise override of `self` by `other`, slot by slot.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn overridden_by(&self, other: &PredictionBundle) -> PredictionBundle {
        assert_eq!(self.width, other.width, "bundle width mismatch");
        let mut out = *self;
        for i in 0..self.width as usize {
            out.slots[i] = self.slots[i].overridden_by(&other.slots[i]);
        }
        out
    }

    /// The first slot that redirects fetch with a known target, as
    /// `(slot, target)`. Slots past the first redirect are architecturally
    /// invisible.
    ///
    /// A slot that *wants* to redirect but has no target (e.g. a taken
    /// direction prediction with a BTB miss) cannot steer fetch and is
    /// skipped — the packet falls through, to be corrected later; this is
    /// the behavioural consequence of an insufficient BTB.
    pub fn redirect(&self) -> Option<(usize, u64)> {
        self.iter().enumerate().find_map(|(i, s)| {
            if s.wants_redirect() {
                s.target().map(|t| (i, t))
            } else {
                None
            }
        })
    }

    /// The slot index after which nothing executes: the first slot that
    /// wants to redirect (with or without a known target).
    pub fn cutoff(&self) -> Option<usize> {
        self.iter()
            .enumerate()
            .find_map(|(i, s)| if s.wants_redirect() { Some(i) } else { None })
    }

    /// The global-history contribution of this bundle: one `bool` per slot
    /// predicted to hold a conditional branch, oldest (lowest slot) first,
    /// stopping after the first redirecting slot.
    ///
    /// Slots with a conditional branch but no direction prediction
    /// contribute `false` (the static not-taken assumption).
    pub fn history_bits(&self) -> impl Iterator<Item = bool> + '_ {
        let cut = self.cutoff().unwrap_or(self.width as usize - 1);
        self.iter()
            .take(cut + 1)
            .filter(|s| s.kind == Some(BranchKind::Conditional))
            .map(|s| s.taken.unwrap_or(false))
    }

    /// Predicted next fetch PC given this packet starts at `pc` and spans
    /// `fetch_bytes`.
    pub fn next_pc(&self, pc: u64, fetch_bytes: u64) -> u64 {
        match self.redirect() {
            Some((_, target)) => target,
            None => (pc & !(fetch_bytes - 1)) + fetch_bytes,
        }
    }

    /// Serializes the bundle (width plus every live slot).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(u64::from(self.width));
        for s in self.iter() {
            s.save_state(w);
        }
    }

    /// Decodes a bundle written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input or an out-of-range
    /// width.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let width = r.read_u64("bundle width")?;
        if !(1..=MAX_FETCH_WIDTH as u64).contains(&width) {
            return Err(ContainerError::BadValue {
                what: "bundle width",
                got: width,
            });
        }
        let mut b = PredictionBundle::new(width as u8);
        for i in 0..width as usize {
            *b.slot_mut(i) = SlotPrediction::load_state(r)?;
        }
        Ok(b)
    }
}

/// A component's opaque per-prediction metadata word.
///
/// The interface guarantees this value, produced at predict time, is handed
/// back to the component at `fire`, `mispredict`, `repair`, and `update`
/// time (Section III-D). Components use it to avoid second read ports and to
/// restore corrupted local state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Meta(pub u64);

impl Meta {
    /// The all-zeros metadata word.
    pub const ZERO: Meta = Meta(0);
}

/// Lifetime access counts for one SRAM macro, consumed by the energy
/// model ("the energy cost of continuously reading predictor SRAMs is
/// significant" — paper Section VI-A, citing Parikh et al.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessReport {
    /// Macro name (matches the storage report).
    pub name: String,
    /// Macro geometry.
    pub spec: SramSpec,
    /// Lifetime reads.
    pub reads: u64,
    /// Lifetime writes.
    pub writes: u64,
    /// Distinct rows written at least once — the touched-set
    /// utilization numerator interval telemetry reports against
    /// `spec.entries`.
    pub rows_touched: u64,
}

/// A component's declaration of its physical storage: SRAM macros plus
/// flip-flop bits, consumed by the area model and the Table I harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageReport {
    /// Named SRAM macros (structure name, geometry).
    pub srams: Vec<(String, SramSpec)>,
    /// Register (flip-flop) bits outside SRAM macros.
    pub flop_bits: u64,
}

impl StorageReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an SRAM macro to the report.
    pub fn add_sram(&mut self, name: impl Into<String>, spec: SramSpec) -> &mut Self {
        self.srams.push((name.into(), spec));
        self
    }

    /// Adds flip-flop bits to the report.
    pub fn add_flops(&mut self, bits: u64) -> &mut Self {
        self.flop_bits += bits;
        self
    }

    /// Total storage bits (SRAM + flops).
    pub fn total_bits(&self) -> u64 {
        self.srams.iter().map(|(_, s)| s.total_bits()).sum::<u64>() + self.flop_bits
    }

    /// Total storage in kilobytes.
    pub fn kilobytes(&self) -> f64 {
        self.total_bits() as f64 / 8192.0
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &StorageReport) {
        self.srams.extend(other.srams.iter().cloned());
        self.flop_bits += other.flop_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken_slot(target: u64) -> SlotPrediction {
        SlotPrediction::new(Some(BranchKind::Conditional), Some(true), Some(target))
    }

    #[test]
    fn override_fills_missing_fields() {
        let base = SlotPrediction::new(Some(BranchKind::Conditional), Some(true), None);
        let btb = SlotPrediction::new(None, None, Some(0x100));
        let merged = base.overridden_by(&btb);
        assert_eq!(merged.taken, Some(true));
        assert_eq!(merged.target(), Some(0x100));
    }

    #[test]
    fn override_replaces_fields() {
        let base = taken_slot(0x100);
        let stronger = SlotPrediction::new(None, Some(false), None);
        let merged = base.overridden_by(&stronger);
        assert_eq!(merged.taken, Some(false));
        assert_eq!(merged.target(), Some(0x100));
    }

    #[test]
    fn redirect_finds_first_taken_with_target() {
        let mut b = PredictionBundle::new(4);
        *b.slot_mut(2) = taken_slot(0xabc0);
        *b.slot_mut(3) = taken_slot(0xdef0);
        assert_eq!(b.redirect(), Some((2, 0xabc0)));
    }

    #[test]
    fn taken_without_target_cannot_redirect() {
        let mut b = PredictionBundle::new(4);
        b.slot_mut(1).kind = Some(BranchKind::Conditional);
        b.slot_mut(1).taken = Some(true);
        assert_eq!(b.redirect(), None);
        assert_eq!(b.cutoff(), Some(1));
    }

    #[test]
    fn unconditional_jump_redirects_regardless_of_direction() {
        let mut b = PredictionBundle::new(4);
        b.slot_mut(0).kind = Some(BranchKind::Jump);
        b.slot_mut(0).set_target(Some(0x40));
        assert_eq!(b.redirect(), Some((0, 0x40)));
    }

    #[test]
    fn next_pc_fallthrough_aligns() {
        let b = PredictionBundle::new(8);
        assert_eq!(b.next_pc(0x1004, 16), 0x1010);
    }

    #[test]
    fn history_bits_stop_at_redirect() {
        let mut b = PredictionBundle::new(4);
        b.slot_mut(0).kind = Some(BranchKind::Conditional);
        b.slot_mut(0).taken = Some(false);
        *b.slot_mut(1) = taken_slot(0x99);
        b.slot_mut(2).kind = Some(BranchKind::Conditional);
        b.slot_mut(2).taken = Some(true); // past the redirect: invisible
        let bits: Vec<bool> = b.history_bits().collect();
        assert_eq!(bits, vec![false, true]);
    }

    #[test]
    fn history_bits_include_directionless_branch_as_not_taken() {
        let mut b = PredictionBundle::new(4);
        b.slot_mut(0).kind = Some(BranchKind::Conditional);
        let bits: Vec<bool> = b.history_bits().collect();
        assert_eq!(bits, vec![false]);
    }

    #[test]
    fn bundle_override_is_slotwise() {
        let mut base = PredictionBundle::new(2);
        *base.slot_mut(0) = taken_slot(0x10);
        let mut over = PredictionBundle::new(2);
        over.slot_mut(0).taken = Some(false);
        *over.slot_mut(1) = taken_slot(0x20);
        let merged = base.overridden_by(&over);
        assert_eq!(merged.slot(0).taken, Some(false));
        assert_eq!(merged.slot(0).target(), Some(0x10));
        assert_eq!(merged.redirect(), Some((1, 0x20)));
    }

    #[test]
    fn storage_report_totals() {
        use cobra_sim::{PortKind, SramSpec};
        let mut r = StorageReport::new();
        r.add_sram(
            "bht",
            SramSpec {
                entries: 1024,
                entry_bits: 2,
                ports: PortKind::DualPort,
                banks: 1,
            },
        )
        .add_flops(48);
        assert_eq!(r.total_bits(), 2048 + 48);
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn slot_bounds_checked() {
        let b = PredictionBundle::new(2);
        let _ = b.slot(2);
    }
}
