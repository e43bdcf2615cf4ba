//! A small fully-associative micro-BTB ("uBTB1").
//!
//! The uBTB is the 1-cycle component of the TAGE-L design: it redirects
//! fetch on the very next cycle after a prediction, hiding the latency of
//! the backing predictors for hot branches. Because it responds at cycle 1
//! it never sees histories (the interface's history-timing rule); it keys
//! on the slot PC alone and carries a small direction counter so it can
//! provide a complete (kind + direction + target) prediction by itself.

use crate::iface::{Component, FieldProfile, FieldSet, PredictQuery, Response, UpdateEvent};
use crate::types::{BranchKind, Meta, PredictionBundle, StorageReport};
use cobra_sim::{ContainerError, SaturatingCounter, StateReader, StateWriter};

/// Configuration for a [`MicroBtb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroBtbConfig {
    /// Number of fully-associative entries (≤ 64).
    pub entries: usize,
    /// Direction-counter width in bits.
    pub counter_bits: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl MicroBtbConfig {
    /// The paper's 32-entry uBTB.
    pub fn small(width: u8) -> Self {
        Self {
            entries: 32,
            counter_bits: 2,
            width,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct UbtbEntry {
    valid: bool,
    pc: u64,
    kind: BranchKind,
    target: u64,
    ctr: SaturatingCounter,
}

/// A 1-cycle fully-associative micro-BTB with direction hints.
#[derive(Debug)]
pub struct MicroBtb {
    cfg: MicroBtbConfig,
    entries: Vec<UbtbEntry>,
    victim_ptr: usize,
}

impl MicroBtb {
    /// Builds a uBTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds 64.
    pub fn new(cfg: MicroBtbConfig) -> Self {
        assert!(
            (1..=64).contains(&cfg.entries),
            "uBTB entries must be 1..=64"
        );
        let blank = UbtbEntry {
            valid: false,
            pc: 0,
            kind: BranchKind::Conditional,
            target: 0,
            ctr: SaturatingCounter::weakly_taken(cfg.counter_bits),
        };
        Self {
            entries: vec![blank; cfg.entries],
            cfg,
            victim_ptr: 0,
        }
    }

    /// The uBTB's configuration.
    pub fn config(&self) -> &MicroBtbConfig {
        &self.cfg
    }

    fn find(&self, slot_pc: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.pc == slot_pc)
    }

    fn meta_shift(slot: usize) -> u32 {
        // Per slot: 1 hit bit + 6 index bits.
        slot as u32 * 7
    }
}

impl Component for MicroBtb {
    fn kind(&self) -> &'static str {
        "ubtb"
    }

    fn latency(&self) -> u8 {
        1
    }

    fn meta_bits(&self) -> u32 {
        self.cfg.width as u32 * 7
    }

    fn field_profile(&self) -> FieldProfile {
        // Populates kind/target (and taken for conditionals) on a hit,
        // nothing on a miss.
        FieldProfile {
            may: FieldSet::ALL,
            always: FieldSet::NONE,
        }
    }

    fn storage(&self) -> StorageReport {
        // Fully associative: all flops (CAM), no SRAM macro.
        let entry_bits = 1 + 40 + 3 + 40 + self.cfg.counter_bits as u64;
        let mut r = StorageReport::new();
        r.add_flops(self.cfg.entries as u64 * entry_bits + 8);
        r
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        debug_assert!(q.hist.is_none(), "uBTB is a 1-cycle component");
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        for i in 0..q.width as usize {
            if let Some(idx) = self.find(q.slot_pc(i)) {
                let e = &self.entries[idx];
                pred.slot_mut(i).kind = Some(e.kind);
                pred.slot_mut(i).set_target(Some(e.target));
                if e.kind == BranchKind::Conditional {
                    pred.slot_mut(i).taken = Some(e.ctr.is_taken());
                }
                meta |= (1 | ((idx as u64) << 1)) << Self::meta_shift(i);
            }
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        for r in ev.resolutions {
            let slot_pc = ev.pc + r.slot as u64 * crate::types::SLOT_BYTES;
            let m = ev.meta.0 >> Self::meta_shift(r.slot as usize);
            let hit = m & 1 == 1;
            let hit_idx = ((m >> 1) & 0x3f) as usize;
            if hit && hit_idx < self.entries.len() && self.entries[hit_idx].pc == slot_pc {
                let e = &mut self.entries[hit_idx];
                e.kind = r.kind;
                e.ctr.train(r.taken);
                if r.taken {
                    e.target = r.target;
                }
            } else if r.taken {
                // Install: reuse a current match if one appeared since
                // predict time, else round-robin victim.
                let idx = self.find(slot_pc).unwrap_or_else(|| {
                    let v = self.victim_ptr % self.entries.len();
                    self.victim_ptr = self.victim_ptr.wrapping_add(1);
                    v
                });
                self.entries[idx] = UbtbEntry {
                    valid: true,
                    pc: slot_pc,
                    kind: r.kind,
                    target: r.target,
                    ctr: SaturatingCounter::weakly_taken(self.cfg.counter_bits),
                };
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.victim_ptr as u64);
        for e in &self.entries {
            w.write_bool(e.valid);
            w.write_u64(e.pc);
            w.write_u64(e.kind.code());
            w.write_u64(e.target);
            w.write_u64(u64::from(e.ctr.value()));
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.victim_ptr = r.read_u64("ubtb victim ptr")? as usize;
        for e in &mut self.entries {
            e.valid = r.read_bool("ubtb valid")?;
            e.pc = r.read_u64("ubtb pc")?;
            let code = r.read_u64("ubtb kind")?;
            e.kind = BranchKind::from_code(code).ok_or(ContainerError::BadValue {
                what: "ubtb kind",
                got: code,
            })?;
            e.target = r.read_u64("ubtb target")?;
            let ctr = r.read_u64_capped("ubtb counter", 0xff)?;
            e.ctr = SaturatingCounter::new(self.cfg.counter_bits, 0);
            e.ctr.set(ctr as u8);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use cobra_sim::HistoryRegister;

    fn query(pc: u64) -> PredictQuery<'static> {
        PredictQuery {
            cycle: 0,
            pc,
            width: 4,
            hist: None,
        }
    }

    fn resolve(u: &mut MicroBtb, pc: u64, meta: Meta, res: &[SlotResolution]) {
        let ghist = HistoryRegister::new(8);
        let pred = PredictionBundle::new(4);
        u.update(&UpdateEvent {
            pc,
            width: 4,
            hist: HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            },
            meta,
            pred: &pred,
            resolutions: res,
            mispredicted_slot: None,
        });
    }

    fn taken_cond(slot: u8, target: u64) -> SlotResolution {
        SlotResolution {
            slot,
            kind: BranchKind::Conditional,
            taken: true,
            target,
        }
    }

    #[test]
    fn provides_complete_prediction_after_install() {
        let mut u = MicroBtb::new(MicroBtbConfig::small(4));
        let r = u.predict(&query(0x100));
        resolve(&mut u, 0x100, r.meta, &[taken_cond(1, 0x500)]);
        let r = u.predict(&query(0x100));
        let s = r.pred.slot(1);
        assert_eq!(s.kind, Some(BranchKind::Conditional));
        assert_eq!(s.taken, Some(true));
        assert_eq!(s.target(), Some(0x500));
    }

    #[test]
    fn counter_learns_not_taken() {
        let mut u = MicroBtb::new(MicroBtbConfig::small(4));
        let r = u.predict(&query(0x100));
        resolve(&mut u, 0x100, r.meta, &[taken_cond(0, 0x500)]);
        for _ in 0..2 {
            let r = u.predict(&query(0x100));
            resolve(
                &mut u,
                0x100,
                r.meta,
                &[SlotResolution {
                    slot: 0,
                    kind: BranchKind::Conditional,
                    taken: false,
                    target: 0,
                }],
            );
        }
        let r = u.predict(&query(0x100));
        assert_eq!(r.pred.slot(0).taken, Some(false));
        assert_eq!(
            r.pred.slot(0).target(),
            Some(0x500),
            "target survives direction retraining"
        );
    }

    #[test]
    fn capacity_eviction_round_robin() {
        let mut u = MicroBtb::new(MicroBtbConfig {
            entries: 2,
            counter_bits: 2,
            width: 4,
        });
        for i in 0..3u64 {
            let pc = 0x1000 + i * 0x40;
            let r = u.predict(&query(pc));
            resolve(&mut u, pc, r.meta, &[taken_cond(0, pc + 8)]);
        }
        // The first entry must have been evicted.
        let r = u.predict(&query(0x1000));
        assert!(r.pred.slot(0).kind.is_none());
        let r = u.predict(&query(0x1080));
        assert_eq!(r.pred.slot(0).target(), Some(0x1088));
    }

    #[test]
    fn unconditional_jump_has_no_direction() {
        let mut u = MicroBtb::new(MicroBtbConfig::small(4));
        let r = u.predict(&query(0x200));
        resolve(
            &mut u,
            0x200,
            r.meta,
            &[SlotResolution {
                slot: 2,
                kind: BranchKind::Jump,
                taken: true,
                target: 0x900,
            }],
        );
        let r = u.predict(&query(0x200));
        assert_eq!(r.pred.slot(2).kind, Some(BranchKind::Jump));
        assert_eq!(r.pred.slot(2).taken, None);
    }

    #[test]
    fn one_cycle_latency_and_flop_storage() {
        let u = MicroBtb::new(MicroBtbConfig::small(8));
        assert_eq!(u.latency(), 1);
        let s = u.storage();
        assert!(s.srams.is_empty(), "uBTB is a CAM, not an SRAM");
        assert!(s.flop_bits > 0);
    }
}
