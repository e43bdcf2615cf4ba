//! A tournament arbitration scheme ("TOURNEY3").
//!
//! The tournament selector chooses between two incoming predictions with a
//! global-history-indexed table of 2-bit choosers, as in the Alpha 21264.
//! It demonstrates the interface's multi-input arbitration (Section III-F:
//! "a predictor sub-component may be implemented to require multiple
//! `predict_in` inputs") and its metadata discipline (Section III-G3: "the
//! selector uses the metadata field to track the predictions made by the
//! sub-predictors to determine an update for the counter table").

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, PortKind, SaturatingCounter, SramModel, StateReader, StateWriter};

/// Configuration for a [`Tourney`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TourneyConfig {
    /// Chooser-table entries (power of two).
    pub entries: u64,
    /// Chooser-counter width.
    pub counter_bits: u8,
    /// Global-history bits hashed into the chooser index.
    pub hist_bits: u32,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl TourneyConfig {
    /// The paper's 1K-counter tournament selector.
    pub fn paper(width: u8) -> Self {
        Self {
            entries: 1024,
            counter_bits: 2,
            hist_bits: 12,
            latency: 3,
            width,
        }
    }
}

mod meta_layout {
    pub const CTR: u32 = 0; // 2 bits: chooser counter at predict
    pub const IN0_TAKEN: u32 = 2; // 8 bits
    pub const IN0_VALID: u32 = 10; // 8 bits
    pub const IN1_TAKEN: u32 = 18; // 8 bits
    pub const IN1_VALID: u32 = 26; // 8 bits
}

/// A two-input tournament selector.
///
/// Chooser semantics: a counter at or above its midpoint selects input 1
/// (conventionally the *local* sub-predictor), below selects input 0 (the
/// *global* one). The selected input provides the direction; target and
/// kind fields merge across both inputs so a BTB beneath either operand
/// still supplies targets.
#[derive(Debug)]
pub struct Tourney {
    cfg: TourneyConfig,
    chooser: SramModel<u8>,
}

impl Tourney {
    /// Builds a tournament selector.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or the latency is below 2.
    pub fn new(cfg: TourneyConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(cfg.latency >= 2, "the chooser reads history: latency >= 2");
        let init = SaturatingCounter::weakly_not_taken(cfg.counter_bits).value();
        Self {
            chooser: SramModel::new(
                cfg.entries,
                cfg.counter_bits as u64,
                PortKind::DualPort,
                init,
            ),
            cfg,
        }
    }

    /// The selector's configuration.
    pub fn config(&self) -> &TourneyConfig {
        &self.cfg
    }

    fn index(&self, pc: u64, ghist: &cobra_sim::HistoryRegister) -> u64 {
        let n = bits::clog2(self.cfg.entries);
        let h = ghist.folded(self.cfg.hist_bits.min(ghist.width()), n);
        (h ^ (bits::mix64(pc >> 1) & 0x3)) & bits::mask(n)
    }

    fn counter(&self, raw: u8) -> SaturatingCounter {
        let mut c = SaturatingCounter::new(self.cfg.counter_bits, 0);
        c.set(raw);
        c
    }
}

impl Component for Tourney {
    fn kind(&self) -> &'static str {
        "tourney"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn arity(&self) -> usize {
        2
    }

    fn meta_bits(&self) -> u32 {
        34
    }

    fn field_profile(&self) -> FieldProfile {
        // An arbiter forwards whichever arm it selects, so any field may
        // appear; it guarantees none of its own.
        FieldProfile {
            may: FieldSet::ALL,
            always: FieldSet::NONE,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.hist_bits
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        // `index` keeps only two PC bits (`mix64(pc) & 0x3`); the chooser
        // row is chosen almost entirely by folded global history.
        vec![IndexDescriptor {
            table: "tourney-chooser".into(),
            sets: self.cfg.entries,
            pc_bits: bits::clog2(self.cfg.entries).min(2),
            ghist_bits: self.cfg.hist_bits,
            lhist_bits: 0,
            path_bits: 0,
        }]
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_sram("tourney-chooser", self.chooser.spec());
        r
    }

    fn accesses(&self) -> Vec<crate::types::AccessReport> {
        let (reads, writes) = self.chooser.access_counts();
        vec![crate::types::AccessReport {
            name: "table".into(),
            spec: self.chooser.spec(),
            reads,
            writes,
            rows_touched: self.chooser.rows_touched(),
        }]
    }

    fn port_violations(&self) -> usize {
        self.chooser.violations().len()
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        self.chooser.begin_cycle(q.cycle);
        let mut meta = 0u64;
        if let Some(h) = &q.hist {
            let idx = self.index(q.pc, h.ghist);
            let raw = *self.chooser.read(idx);
            meta |= (raw as u64 & 0x3) << meta_layout::CTR;
        }
        // The selector contributes no prediction of its own; its decision
        // is applied in `compose`.
        Response {
            pred: PredictionBundle::new(q.width),
            meta: Meta(meta),
        }
    }

    fn compose(
        &self,
        width: u8,
        own: Option<&Response>,
        inputs: &[PredictionBundle],
    ) -> PredictionBundle {
        match (own, inputs) {
            (Some(r), [in0, in1, ..]) => {
                let sel_local = self
                    .counter(bits::field(r.meta.0, meta_layout::CTR, 2) as u8)
                    .is_taken();
                let mut out = PredictionBundle::new(width);
                for i in 0..width as usize {
                    let (chosen, other) = if sel_local {
                        (in1.slot(i), in0.slot(i))
                    } else {
                        (in0.slot(i), in1.slot(i))
                    };
                    let s = out.slot_mut(i);
                    s.kind = chosen.kind.or(other.kind);
                    s.set_target(chosen.target().or(other.target()));
                    s.taken = chosen.taken.or(other.taken);
                }
                out
            }
            // Before the selector responds (or with a malformed input list)
            // the first operand is the default.
            (_, [in0, ..]) => *in0,
            _ => PredictionBundle::new(width),
        }
    }

    fn finalize_meta(&self, own: &Response, inputs: &[PredictionBundle]) -> Meta {
        use meta_layout::*;
        let mut meta = own.meta.0;
        if let [in0, in1, ..] = inputs {
            for i in 0..in0.width() as usize {
                if let Some(t) = in0.slot(i).taken {
                    meta |= 1u64 << (IN0_VALID + i as u32);
                    meta |= (t as u64) << (IN0_TAKEN + i as u32);
                }
                if let Some(t) = in1.slot(i).taken {
                    meta |= 1u64 << (IN1_VALID + i as u32);
                    meta |= (t as u64) << (IN1_TAKEN + i as u32);
                }
            }
        }
        Meta(meta)
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        use meta_layout::*;
        self.chooser.begin_cycle(0);
        let idx = self.index(ev.pc, ev.hist.ghist);
        let mut ctr = self.counter(bits::field(ev.meta.0, CTR, 2) as u8);
        let mut touched = false;
        for r in ev.conditional_branches() {
            let i = r.slot as u32;
            let v0 = bits::field(ev.meta.0, IN0_VALID + i, 1) == 1;
            let v1 = bits::field(ev.meta.0, IN1_VALID + i, 1) == 1;
            if !(v0 && v1) {
                continue;
            }
            let p0 = bits::field(ev.meta.0, IN0_TAKEN + i, 1) == 1;
            let p1 = bits::field(ev.meta.0, IN1_TAKEN + i, 1) == 1;
            if p0 != p1 {
                // Train toward the sub-predictor that was right.
                ctr.train(p1 == r.taken);
                touched = true;
            }
        }
        if touched {
            self.chooser.write(idx, ctr.value());
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.chooser
            .save_state(w, |w, &c| w.write_u64(u64::from(c)));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.chooser
            .load_state(r, |r| Ok(r.read_u64_capped("chooser counter", 0xff)? as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use crate::types::BranchKind;
    use cobra_sim::HistoryRegister;

    fn bundle_with_dir(taken: bool) -> PredictionBundle {
        let mut b = PredictionBundle::new(4);
        for i in 0..4 {
            b.slot_mut(i).taken = Some(taken);
        }
        b
    }

    fn predict(t: &mut Tourney, ghist: &HistoryRegister) -> Response {
        t.predict(&PredictQuery {
            cycle: 0,
            pc: 0x100,
            width: 4,
            hist: Some(HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            }),
        })
    }

    fn train(
        t: &mut Tourney,
        ghist: &HistoryRegister,
        resp: &Response,
        in0: &PredictionBundle,
        in1: &PredictionBundle,
        outcome: bool,
    ) {
        let meta = t.finalize_meta(resp, &[*in0, *in1]);
        let pred = t.compose(4, Some(resp), &[*in0, *in1]);
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Conditional,
            taken: outcome,
            target: 0x40,
        }];
        t.update(&UpdateEvent {
            pc: 0x100,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            },
            meta,
            pred: &pred,
            resolutions: &res,
            mispredicted_slot: None,
        });
    }

    #[test]
    fn pass_through_before_response() {
        let t = Tourney::new(TourneyConfig::paper(4));
        let in0 = bundle_with_dir(true);
        let in1 = bundle_with_dir(false);
        let out = t.compose(4, None, &[in0, in1]);
        assert_eq!(out, in0, "first operand is the default");
    }

    #[test]
    fn learns_to_prefer_the_correct_input() {
        let mut t = Tourney::new(TourneyConfig::paper(4));
        let ghist = HistoryRegister::new(32);
        let in0 = bundle_with_dir(true); // "global" — always wrong below
        let in1 = bundle_with_dir(false); // "local" — always right below
        for _ in 0..4 {
            let r = predict(&mut t, &ghist);
            train(&mut t, &ghist, &r, &in0, &in1, false);
        }
        let r = predict(&mut t, &ghist);
        let out = t.compose(4, Some(&r), &[in0, in1]);
        assert_eq!(out.slot(0).taken, Some(false), "selector must pick input 1");
    }

    #[test]
    fn defaults_to_global_input_initially() {
        let mut t = Tourney::new(TourneyConfig::paper(4));
        let ghist = HistoryRegister::new(32);
        let r = predict(&mut t, &ghist);
        let in0 = bundle_with_dir(true);
        let in1 = bundle_with_dir(false);
        let out = t.compose(4, Some(&r), &[in0, in1]);
        assert_eq!(out.slot(0).taken, Some(true));
    }

    #[test]
    fn merges_targets_across_inputs() {
        let mut t = Tourney::new(TourneyConfig::paper(4));
        let ghist = HistoryRegister::new(32);
        let r = predict(&mut t, &ghist);
        // Input 0 carries a BTB target; input 1 carries the direction.
        let mut in0 = PredictionBundle::new(4);
        in0.slot_mut(2).kind = Some(BranchKind::Conditional);
        in0.slot_mut(2).set_target(Some(0xcafe0));
        let mut in1 = PredictionBundle::new(4);
        in1.slot_mut(2).taken = Some(true);
        let out = t.compose(4, Some(&r), &[in0, in1]);
        assert_eq!(out.slot(2).target(), Some(0xcafe0));
        assert_eq!(out.slot(2).taken, Some(true));
        assert_eq!(out.slot(2).kind, Some(BranchKind::Conditional));
    }

    #[test]
    fn no_training_when_inputs_agree() {
        let mut t = Tourney::new(TourneyConfig::paper(4));
        let ghist = HistoryRegister::new(32);
        let both = bundle_with_dir(true);
        let before = predict(&mut t, &ghist).meta;
        for _ in 0..4 {
            let r = predict(&mut t, &ghist);
            train(&mut t, &ghist, &r, &both, &both, true);
        }
        let after = predict(&mut t, &ghist).meta;
        assert_eq!(
            bits::field(before.0, meta_layout::CTR, 2),
            bits::field(after.0, meta_layout::CTR, 2),
            "agreement must not move the chooser"
        );
    }

    #[test]
    fn finalize_meta_records_both_inputs() {
        let mut t = Tourney::new(TourneyConfig::paper(4));
        let ghist = HistoryRegister::new(32);
        let r = predict(&mut t, &ghist);
        let in0 = bundle_with_dir(true);
        let in1 = bundle_with_dir(false);
        let meta = t.finalize_meta(&r, &[in0, in1]);
        assert_eq!(bits::field(meta.0, meta_layout::IN0_TAKEN, 4), 0b1111);
        assert_eq!(bits::field(meta.0, meta_layout::IN1_TAKEN, 4), 0b0000);
        assert_eq!(bits::field(meta.0, meta_layout::IN0_VALID, 4), 0b1111);
    }

    #[test]
    fn arity_is_two() {
        let t = Tourney::new(TourneyConfig::paper(4));
        assert_eq!(t.arity(), 2);
        assert_eq!(t.storage().total_bits(), 2048);
    }
}
