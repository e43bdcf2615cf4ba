//! A large set-associative branch target buffer (2-cycle "BTB2").
//!
//! The BTB learns the *kind* and *target* of control-flow instructions. It
//! provides a partial prediction (Section III-F): it fills in `kind` and
//! `target` and passes any incoming direction prediction through, exactly
//! like the decoupled BTB of the paper's Fig 3. Set associativity is made
//! affordable by the metadata field, which records the hit way at predict
//! time so the update needs no second tag-match (Section III-G2).

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{BranchKind, Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, PortKind, SramModel, StateReader, StateWriter};

/// Configuration for a [`Btb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries (power of two).
    pub entries: u64,
    /// Ways per set (power of two, ≤ 8).
    pub assoc: u64,
    /// Partial tag width in bits.
    pub tag_bits: u32,
    /// Stored target width in bits (an offset-compressed target field).
    pub target_bits: u32,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl BtbConfig {
    /// The paper's 2K-entry, 2-cycle BTB. Targets are stored as
    /// offset-compressed 22-bit fields and tags are partial, the standard
    /// storage optimizations (Section II-A cites \[37\], \[40\] on predictor
    /// storage efficiency).
    pub fn large(width: u8) -> Self {
        Self {
            entries: 2048,
            assoc: 4,
            tag_bits: 12,
            target_bits: 22,
            latency: 2,
            width,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    kind: Option<BranchKind>,
    target: u64,
}

/// A set-associative BTB, banked by prediction slot.
#[derive(Debug)]
pub struct Btb {
    cfg: BtbConfig,
    ways: Vec<SramModel<BtbEntry>>,
    /// Round-robin replacement pointer (a small flop in hardware).
    victim_ptr: u64,
}

impl Btb {
    /// Builds a BTB.
    ///
    /// # Panics
    ///
    /// Panics if geometry parameters are not powers of two or the
    /// associativity exceeds 8.
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(
            bits::is_pow2(cfg.assoc) && cfg.assoc <= 8,
            "assoc must be a power of two <= 8"
        );
        assert!(cfg.entries >= cfg.assoc, "fewer entries than ways");
        assert!(cfg.latency >= 1, "latency must be >= 1");
        let sets = cfg.entries / cfg.assoc;
        assert!(
            sets.is_multiple_of(cfg.width as u64),
            "sets must divide across slot banks"
        );
        let entry_bits = 1 + cfg.tag_bits as u64 + 3 + cfg.target_bits as u64;
        // Each way is banked by prediction slot: a packet's parallel
        // lookups touch distinct banks.
        let ways = (0..cfg.assoc)
            .map(|_| {
                SramModel::new_banked(
                    sets,
                    entry_bits,
                    PortKind::DualPort,
                    cfg.width as u64,
                    BtbEntry::default(),
                )
            })
            .collect();
        Self {
            cfg,
            ways,
            victim_ptr: 0,
        }
    }

    /// The BTB's configuration.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    fn sets(&self) -> u64 {
        self.cfg.entries / self.cfg.assoc
    }

    fn set_index(&self, slot: usize, slot_pc: u64) -> u64 {
        let rows = self.sets() / self.cfg.width as u64;
        let row = bits::mix64(slot_pc >> 1) & bits::mask(bits::clog2(rows));
        slot as u64 * rows + row
    }

    fn tag(&self, slot_pc: u64) -> u64 {
        (bits::mix64(slot_pc >> 1) >> 24) & bits::mask(self.cfg.tag_bits)
    }

    fn meta_shift(slot: usize) -> u32 {
        // Per slot: 1 hit bit + 3 way bits.
        slot as u32 * 4
    }
}

impl Component for Btb {
    fn kind(&self) -> &'static str {
        "btb"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        self.cfg.width as u32 * 4
    }

    fn field_profile(&self) -> FieldProfile {
        // Populates kind and target on a hit, nothing on a miss.
        FieldProfile {
            may: FieldSet::KIND.union(FieldSet::TARGET),
            always: FieldSet::NONE,
        }
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        // All ways share one set index: a full-width PC hash over the
        // per-slot row space. No history reaches the index.
        let rows = self.sets() / self.cfg.width as u64;
        let pc_bits = bits::clog2(rows);
        (0..self.ways.len())
            .map(|i| IndexDescriptor {
                table: format!("btb-way{i}"),
                sets: rows,
                pc_bits,
                ghist_bits: 0,
                lhist_bits: 0,
                path_bits: 0,
            })
            .collect()
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        for (i, way) in self.ways.iter().enumerate() {
            r.add_sram(format!("btb-way{i}"), way.spec());
        }
        r.add_flops(8); // replacement pointer
        r
    }

    fn accesses(&self) -> Vec<crate::types::AccessReport> {
        self.ways
            .iter()
            .enumerate()
            .map(|(i, way)| {
                let (reads, writes) = way.access_counts();
                crate::types::AccessReport {
                    name: format!("way{i}"),
                    spec: way.spec(),
                    reads,
                    writes,
                    rows_touched: way.rows_touched(),
                }
            })
            .collect()
    }

    fn port_violations(&self) -> usize {
        self.ways.iter().map(|t| t.violations().len()).sum()
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        // One accounting cycle per way per packet: every slot reads its
        // own bank, so per-bank counts (and hence violations) match the
        // per-lookup reset exactly while skipping width-1 counter fills.
        for way in &mut self.ways {
            way.begin_cycle(q.cycle);
        }
        let rows = self.sets() / self.cfg.width as u64;
        let row_mask = bits::mask(bits::clog2(rows));
        let tag_mask = bits::mask(self.cfg.tag_bits);
        for i in 0..q.width as usize {
            let h = bits::mix64(q.slot_pc(i) >> 1);
            let set = i as u64 * rows + (h & row_mask);
            let tag = (h >> 24) & tag_mask;
            for (w, way) in self.ways.iter_mut().enumerate() {
                let e = *way.read(set);
                if e.valid && e.tag == tag {
                    pred.slot_mut(i).kind = e.kind;
                    pred.slot_mut(i).set_target(Some(e.target));
                    meta |= (1 | ((w as u64) << 1)) << Self::meta_shift(i);
                    break;
                }
            }
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        for r in ev.resolutions {
            // Learn targets of taken control flow; refresh the kind of
            // anything that hit.
            let slot_pc = ev.pc + r.slot as u64 * crate::types::SLOT_BYTES;
            let set = self.set_index(r.slot as usize, slot_pc);
            let tag = self.tag(slot_pc);
            let m = ev.meta.0 >> Self::meta_shift(r.slot as usize);
            let hit = m & 1 == 1;
            let hit_way = (m >> 1) & 0x7;
            if hit {
                // Recover the way from metadata: no re-lookup needed.
                let way = &mut self.ways[hit_way as usize];
                way.begin_cycle(0);
                let mut e = *way.peek(set);
                if e.tag == tag {
                    e.kind = Some(r.kind);
                    if r.taken {
                        e.target = r.target;
                    }
                    way.write(set, e);
                }
            } else if r.taken {
                let victim = self.victim_ptr % self.cfg.assoc;
                self.victim_ptr = self.victim_ptr.wrapping_add(1);
                let way = &mut self.ways[victim as usize];
                way.begin_cycle(0);
                way.write(
                    set,
                    BtbEntry {
                        valid: true,
                        tag,
                        kind: Some(r.kind),
                        target: r.target,
                    },
                );
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.victim_ptr);
        for way in &self.ways {
            way.save_state(w, |w, e| {
                w.write_bool(e.valid);
                w.write_u64(e.tag);
                w.write_u64(BranchKind::encode_opt(e.kind));
                w.write_u64(e.target);
            });
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.victim_ptr = r.read_u64("btb victim ptr")?;
        for way in &mut self.ways {
            way.load_state(r, |r| {
                Ok(BtbEntry {
                    valid: r.read_bool("btb valid")?,
                    tag: r.read_u64("btb tag")?,
                    kind: BranchKind::decode_opt(r.read_u64("btb kind")?)?,
                    target: r.read_u64("btb target")?,
                })
            })?;
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

    fn resolve(btb: &mut Btb, pc: u64, meta: Meta, res: &[SlotResolution]) {
        let ghist = HistoryRegister::new(8);
        let pred = PredictionBundle::new(4);
        btb.update(&UpdateEvent {
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

    #[test]
    fn learns_taken_branch_target() {
        let mut btb = Btb::new(BtbConfig::large(4));
        let r = btb.predict(&query(0x1000));
        assert!(r.pred.slot(1).target().is_none());
        resolve(
            &mut btb,
            0x1000,
            r.meta,
            &[SlotResolution {
                slot: 1,
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x2000,
            }],
        );
        let r = btb.predict(&query(0x1000));
        assert_eq!(r.pred.slot(1).target(), Some(0x2000));
        assert_eq!(r.pred.slot(1).kind, Some(BranchKind::Conditional));
        assert_eq!(r.pred.slot(1).taken, None, "BTB never predicts direction");
    }

    #[test]
    fn does_not_install_not_taken_branches() {
        let mut btb = Btb::new(BtbConfig::large(4));
        let r = btb.predict(&query(0x1000));
        resolve(
            &mut btb,
            0x1000,
            r.meta,
            &[SlotResolution {
                slot: 0,
                kind: BranchKind::Conditional,
                taken: false,
                target: 0,
            }],
        );
        let r = btb.predict(&query(0x1000));
        assert!(r.pred.slot(0).kind.is_none());
    }

    #[test]
    fn retarget_on_hit_updates_in_place() {
        let mut btb = Btb::new(BtbConfig::large(4));
        let r = btb.predict(&query(0x3000));
        resolve(
            &mut btb,
            0x3000,
            r.meta,
            &[SlotResolution {
                slot: 2,
                kind: BranchKind::Indirect,
                taken: true,
                target: 0xaaa0,
            }],
        );
        let r = btb.predict(&query(0x3000));
        assert_eq!(r.pred.slot(2).target(), Some(0xaaa0));
        resolve(
            &mut btb,
            0x3000,
            r.meta,
            &[SlotResolution {
                slot: 2,
                kind: BranchKind::Indirect,
                taken: true,
                target: 0xbbb0,
            }],
        );
        let r = btb.predict(&query(0x3000));
        assert_eq!(r.pred.slot(2).target(), Some(0xbbb0));
    }

    #[test]
    fn associativity_holds_conflicting_pcs() {
        // Four PCs mapping to different sets would be luck; instead verify
        // that installing many distinct branches keeps at least the most
        // recent `assoc` alive in some set by checking a recently-installed
        // branch still hits after several other installs.
        let mut btb = Btb::new(BtbConfig {
            entries: 64,
            assoc: 4,
            ..BtbConfig::large(4)
        });
        let pcs: Vec<u64> = (0..8).map(|i| 0x1_0000 + i * 0x400).collect();
        for &pc in &pcs {
            let r = btb.predict(&query(pc));
            resolve(
                &mut btb,
                pc,
                r.meta,
                &[SlotResolution {
                    slot: 0,
                    kind: BranchKind::Jump,
                    taken: true,
                    target: pc + 0x88,
                }],
            );
        }
        let last = *pcs.last().unwrap();
        let r = btb.predict(&query(last));
        assert_eq!(r.pred.slot(0).target(), Some(last + 0x88));
    }

    #[test]
    fn meta_records_hit_way() {
        let mut btb = Btb::new(BtbConfig::large(4));
        let r = btb.predict(&query(0x5000));
        resolve(
            &mut btb,
            0x5000,
            r.meta,
            &[SlotResolution {
                slot: 0,
                kind: BranchKind::Call,
                taken: true,
                target: 0x9000,
            }],
        );
        let r = btb.predict(&query(0x5000));
        assert_eq!(r.meta.0 & 1, 1, "hit bit set for slot 0");
    }

    #[test]
    fn storage_scales_with_geometry() {
        let btb = Btb::new(BtbConfig::large(8));
        let bits = btb.storage().total_bits();
        // 2048 entries x (1 valid + 12 tag + 3 kind + 22 target) + 8 flops
        assert_eq!(bits, 2048 * 38 + 8);
    }

    #[test]
    fn slots_are_independent() {
        let mut btb = Btb::new(BtbConfig::large(4));
        let r = btb.predict(&query(0x7000));
        resolve(
            &mut btb,
            0x7000,
            r.meta,
            &[
                SlotResolution {
                    slot: 0,
                    kind: BranchKind::Conditional,
                    taken: true,
                    target: 0x100,
                },
                SlotResolution {
                    slot: 3,
                    kind: BranchKind::Ret,
                    taken: true,
                    target: 0x200,
                },
            ],
        );
        let r = btb.predict(&query(0x7000));
        assert_eq!(r.pred.slot(0).target(), Some(0x100));
        assert_eq!(r.pred.slot(3).kind, Some(BranchKind::Ret));
        assert!(r.pred.slot(1).kind.is_none());
    }
}
