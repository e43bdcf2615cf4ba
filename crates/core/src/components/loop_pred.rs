//! A loop predictor ("LOOP3") with speculative iteration counters.
//!
//! The loop predictor corrects the periodic misprediction a counter- or
//! history-based predictor makes at loop exits: once it has observed a
//! branch behave as a loop with a stable trip count, it predicts the exit
//! iteration exactly.
//!
//! This component exercises the parts of the COBRA interface the others do
//! not (paper Section III-G5): it is *updated at query time* — the
//! speculative iteration counter advances as predictions are made — and is
//! therefore *repaired immediately on mispredicts* and on squashes, using
//! the metadata field to restore the counter contents that speculation
//! corrupted.

use crate::iface::{
    Component, FieldProfile, FieldSet, FireEvent, IndexDescriptor, PredictQuery, Response,
    UpdateEvent,
};
use crate::types::{BranchKind, Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, StateReader, StateWriter};

/// Configuration for a [`LoopPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopConfig {
    /// Number of direct-mapped entries (power of two).
    pub entries: u64,
    /// Partial tag width.
    pub tag_bits: u32,
    /// Iteration-counter width (bounds the largest learnable trip count).
    pub iter_bits: u32,
    /// Confidence needed before predictions are offered (trips observed
    /// with the same count).
    pub conf_max: u8,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl LoopConfig {
    /// The paper's 256-entry loop predictor.
    pub fn paper(width: u8) -> Self {
        Self {
            entries: 256,
            tag_bits: 10,
            iter_bits: 10,
            conf_max: 7,
            latency: 3,
            width,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    valid: bool,
    tag: u64,
    slot: u8,
    /// Learned trip count: taken iterations before the not-taken exit.
    trip: u32,
    /// Speculative iteration counter, advanced at query time.
    spec_iter: u32,
    /// Architectural iteration counter, advanced at commit.
    arch_iter: u32,
    /// Confidence that `trip` is stable.
    conf: u8,
    /// Replacement age.
    age: u8,
}

/// A loop-exit corrector with speculative iteration tracking.
#[derive(Debug)]
pub struct LoopPredictor {
    cfg: LoopConfig,
    entries: Vec<LoopEntry>,
}

mod meta_layout {
    pub const HIT: u32 = 0; // 1 bit
    pub const PROVIDED: u32 = 1; // 1 bit: a prediction was offered
    pub const SPEC_BEFORE: u32 = 2; // 12 bits: spec_iter before query update
    pub const PRED_TAKEN: u32 = 14; // 1 bit
    pub const SLOT: u32 = 15; // 3 bits
}

impl LoopPredictor {
    /// Builds a loop predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `iter_bits` exceeds 12
    /// (the metadata layout's speculative-counter field).
    pub fn new(cfg: LoopConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(cfg.iter_bits <= 12, "iter_bits exceeds metadata field");
        assert!(cfg.latency >= 1, "latency must be >= 1");
        Self {
            entries: vec![LoopEntry::default(); cfg.entries as usize],
            cfg,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &LoopConfig {
        &self.cfg
    }

    fn index(&self, pc: u64) -> usize {
        (bits::mix64(pc >> 1) & bits::mask(bits::clog2(self.cfg.entries))) as usize
    }

    fn tag(&self, pc: u64) -> u64 {
        (bits::mix64(pc >> 1) >> 20) & bits::mask(self.cfg.tag_bits)
    }

    fn max_iter(&self) -> u32 {
        bits::mask(self.cfg.iter_bits) as u32
    }
}

impl Component for LoopPredictor {
    fn kind(&self) -> &'static str {
        "loop"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        18
    }

    fn field_profile(&self) -> FieldProfile {
        // Speaks only on confidently-tracked loops, so nothing is
        // guaranteed on an arbitrary query.
        FieldProfile {
            may: FieldSet::TAKEN,
            always: FieldSet::NONE,
        }
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        vec![IndexDescriptor {
            table: "loop-table".into(),
            sets: self.cfg.entries,
            pc_bits: bits::clog2(self.cfg.entries),
            ghist_bits: 0,
            lhist_bits: 0,
            path_bits: 0,
        }]
    }

    fn storage(&self) -> StorageReport {
        // The loop table needs query-time update and repair alongside
        // prediction: a 2R1W macro.
        let entry_bits = 1 + self.cfg.tag_bits as u64 + 3 + 3 * self.cfg.iter_bits as u64 + 3 + 8;
        let mut r = StorageReport::new();
        r.add_sram(
            "loop-table",
            cobra_sim::SramSpec {
                entries: self.cfg.entries,
                entry_bits,
                ports: cobra_sim::PortKind::TwoReadOneWrite,
                banks: 1,
            },
        );
        r
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        let mut pred = PredictionBundle::new(q.width);
        let idx = self.index(q.pc);
        let tag = self.tag(q.pc);
        let mut meta = 0u64;
        use meta_layout::*;
        let max_iter = self.max_iter();
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            meta |= 1 << HIT;
            meta |= ((e.spec_iter as u64) & 0xfff) << SPEC_BEFORE;
            meta |= ((e.slot as u64) & 0x7) << SLOT;
            // The loop hypothesis: taken until spec_iter reaches the trip.
            let hypothesis = e.spec_iter + 1 < e.trip.max(1);
            if e.conf >= self.cfg.conf_max && (e.slot as usize) < q.width as usize {
                pred.slot_mut(e.slot as usize).kind = Some(BranchKind::Conditional);
                pred.slot_mut(e.slot as usize).taken = Some(hypothesis);
                meta |= 1 << PROVIDED;
                if hypothesis {
                    meta |= 1 << PRED_TAKEN;
                }
            }
            // Query-time speculative update (Section III-G5).
            e.spec_iter = if hypothesis {
                (e.spec_iter + 1).min(max_iter)
            } else {
                0
            };
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    /// The loop predictor ignores `fire`: its speculative state already
    /// advanced at query time.
    fn fire(&mut self, _ev: &FireEvent<'_>) {}

    fn repair(&mut self, ev: &FireEvent<'_>) {
        use meta_layout::*;
        if bits::field(ev.meta.0, HIT, 1) == 0 {
            return;
        }
        let idx = self.index(ev.pc);
        let tag = self.tag(ev.pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            // Restore the speculative counter corrupted by this squashed
            // query, from the metadata snapshot.
            e.spec_iter = bits::field(ev.meta.0, SPEC_BEFORE, 12) as u32;
        }
    }

    fn mispredict(&mut self, ev: &UpdateEvent<'_>) {
        use meta_layout::*;
        let idx = self.index(ev.pc);
        let tag = self.tag(ev.pc);
        let max_iter = self.max_iter();
        let hit = bits::field(ev.meta.0, HIT, 1) == 1;
        let e = &mut self.entries[idx];
        if hit && e.valid && e.tag == tag {
            // Resynchronize the speculative counter with reality: the
            // resolved outcome replaces whatever was speculated.
            if let Some(slot) = ev.mispredicted_slot {
                if slot == e.slot {
                    if let Some(r) = ev.resolution_for(slot) {
                        let before = bits::field(ev.meta.0, SPEC_BEFORE, 12) as u32;
                        e.spec_iter = if r.taken {
                            (before + 1).min(max_iter)
                        } else {
                            0
                        };
                    }
                }
            }
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        let idx = self.index(ev.pc);
        let tag = self.tag(ev.pc);
        let max_iter = self.max_iter();
        let conf_max = self.cfg.conf_max;
        for r in ev.conditional_branches() {
            let e = &mut self.entries[idx];
            if e.valid && e.tag == tag && r.slot == e.slot {
                // Architectural iteration tracking.
                if r.taken {
                    e.arch_iter = (e.arch_iter + 1).min(max_iter);
                } else {
                    let observed_trip = e.arch_iter + 1; // iterations incl. exit
                    if e.trip == observed_trip {
                        e.conf = (e.conf + 1).min(conf_max);
                    } else {
                        e.trip = observed_trip;
                        e.conf = 0;
                    }
                    e.arch_iter = 0;
                    e.age = e.age.saturating_add(1).min(15);
                }
            } else if ev.mispredicted_slot == Some(r.slot) && r.kind == BranchKind::Conditional {
                // Allocate for a mispredicting branch: candidate loop exit.
                let can_replace = !e.valid || e.conf == 0 || e.age == 0;
                if can_replace {
                    *e = LoopEntry {
                        valid: true,
                        tag,
                        slot: r.slot,
                        trip: 0,
                        spec_iter: if r.taken { 1 } else { 0 },
                        arch_iter: if r.taken { 1 } else { 0 },
                        conf: 0,
                        age: 8,
                    };
                } else {
                    e.age = e.age.saturating_sub(1);
                }
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        for e in &self.entries {
            w.write_bool(e.valid);
            w.write_u64(e.tag);
            w.write_u64(u64::from(e.slot));
            w.write_u64(u64::from(e.trip));
            w.write_u64(u64::from(e.spec_iter));
            w.write_u64(u64::from(e.arch_iter));
            w.write_u64(u64::from(e.conf));
            w.write_u64(u64::from(e.age));
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        for e in &mut self.entries {
            e.valid = r.read_bool("loop valid")?;
            e.tag = r.read_u64("loop tag")?;
            e.slot = r.read_u64_capped("loop slot", 0xff)? as u8;
            e.trip = r.read_u64_capped("loop trip", u64::from(u32::MAX))? as u32;
            e.spec_iter = r.read_u64_capped("loop spec iter", u64::from(u32::MAX))? as u32;
            e.arch_iter = r.read_u64_capped("loop arch iter", u64::from(u32::MAX))? as u32;
            e.conf = r.read_u64_capped("loop conf", 0xff)? as u8;
            e.age = r.read_u64_capped("loop age", 0xff)? as u8;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use cobra_sim::HistoryRegister;

    const PC: u64 = 0x9000;
    const SLOT: u8 = 1;

    fn predict(lp: &mut LoopPredictor) -> Response {
        lp.predict(&PredictQuery {
            cycle: 0,
            pc: PC,
            width: 4,
            hist: None,
        })
    }

    fn commit(lp: &mut LoopPredictor, resp: &Response, taken: bool, mispredicted: bool) {
        let ghist = HistoryRegister::new(8);
        let mut pred = resp.pred;
        if pred.slot(SLOT as usize).taken.is_none() {
            pred.slot_mut(SLOT as usize).taken = Some(false);
        }
        let res = [SlotResolution {
            slot: SLOT,
            kind: BranchKind::Conditional,
            taken,
            target: 0x40,
        }];
        let ev = UpdateEvent {
            pc: PC,
            width: 4,
            hist: HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            },
            meta: resp.meta,
            pred: &pred,
            resolutions: &res,
            mispredicted_slot: if mispredicted { Some(SLOT) } else { None },
        };
        if mispredicted {
            lp.mispredict(&ev);
        }
        lp.update(&ev);
    }

    /// Drives `trips` full loops of trip count `n` through the predictor,
    /// returning how many exit iterations were predicted not-taken.
    fn run_loop(lp: &mut LoopPredictor, n: u32, trips: usize) -> usize {
        let mut exits_predicted = 0;
        for _ in 0..trips {
            for i in 1..=n {
                let taken = i < n; // exit on the n-th iteration
                let resp = predict(lp);
                let predicted = resp.pred.slot(SLOT as usize).taken;
                if !taken && predicted == Some(false) {
                    exits_predicted += 1;
                }
                let mispredicted = predicted.map_or(taken, |p| p != taken);
                commit(lp, &resp, taken, mispredicted);
            }
        }
        exits_predicted
    }

    #[test]
    fn learns_stable_trip_count() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        // Warm up past confidence threshold, then expect exit predictions.
        run_loop(&mut lp, 10, 9);
        let hits = run_loop(&mut lp, 10, 5);
        assert_eq!(hits, 5, "every exit must be predicted after warm-up");
    }

    #[test]
    fn no_prediction_before_confidence() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        let hits = run_loop(&mut lp, 10, 3);
        assert_eq!(hits, 0, "low confidence must not offer predictions");
    }

    #[test]
    fn trip_change_resets_confidence() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        run_loop(&mut lp, 10, 9);
        assert_eq!(run_loop(&mut lp, 10, 1), 1);
        // Change the trip count: predictions must stop until re-learned.
        run_loop(&mut lp, 6, 1);
        let hits = run_loop(&mut lp, 6, 3);
        assert_eq!(hits, 0, "confidence must reset after a trip change");
        run_loop(&mut lp, 6, 8);
        assert_eq!(run_loop(&mut lp, 6, 2), 2);
    }

    #[test]
    fn repair_restores_speculative_counter() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        run_loop(&mut lp, 10, 9);
        // Query twice speculatively (wrong path), then repair both.
        let r1 = predict(&mut lp);
        let r2 = predict(&mut lp);
        let ghist = HistoryRegister::new(8);
        let pred = PredictionBundle::new(4);
        // Repair youngest-first is not required; entries restore their own
        // snapshot. Repair r2 then r1 (forwards-walk does oldest first; both
        // orders must converge because r1's snapshot is the oldest state).
        for r in [&r2, &r1] {
            lp.repair(&FireEvent {
                pc: PC,
                hist: HistoryView {
                    ghist: &ghist,
                    lhist: 0,
                    phist: 0,
                },
                meta: r.meta,
                pred: &pred,
            });
        }
        // Now a clean loop run must still predict every exit.
        let hits = run_loop(&mut lp, 10, 2);
        assert_eq!(hits, 2, "speculative corruption must have been repaired");
    }

    #[test]
    fn metadata_records_spec_counter() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        run_loop(&mut lp, 4, 9);
        let r1 = predict(&mut lp);
        let r2 = predict(&mut lp);
        let s1 = bits::field(r1.meta.0, meta_layout::SPEC_BEFORE, 12);
        let s2 = bits::field(r2.meta.0, meta_layout::SPEC_BEFORE, 12);
        assert_eq!(s2, s1 + 1, "query-time update advances the counter");
    }

    #[test]
    fn only_the_learned_slot_is_predicted() {
        let mut lp = LoopPredictor::new(LoopConfig::paper(4));
        run_loop(&mut lp, 5, 9);
        let r = predict(&mut lp);
        for i in 0..4usize {
            if i != SLOT as usize {
                assert!(r.pred.slot(i).taken.is_none());
            }
        }
    }

    #[test]
    fn storage_is_a_multiported_macro() {
        let lp = LoopPredictor::new(LoopConfig::paper(8));
        let s = lp.storage();
        assert_eq!(s.srams.len(), 1);
        assert_eq!(s.srams[0].1.ports, cobra_sim::PortKind::TwoReadOneWrite);
        assert!(s.total_bits() > 256 * 40);
    }
}
