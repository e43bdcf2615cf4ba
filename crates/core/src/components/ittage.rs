//! An ITTAGE-style indirect-target predictor (extension component).
//!
//! The paper's designs predict indirect-jump targets only through the BTB
//! (last-target prediction), and its Section III-G notes the library is "a
//! representative subset" that other predictor types can extend. This
//! component follows Seznec's ITTAGE: tagged tables over geometrically
//! increasing global-history lengths store full targets, so polymorphic
//! call sites and switch dispatch get history-correlated target
//! prediction.
//!
//! The component provides a *partial* prediction in the interface's sense:
//! it overrides only the `target` of slots its `predict_in` already marks
//! as indirect jumps, passing everything else through — the same
//! decoupling the paper's Fig 3 shows for the BTB.

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{BranchKind, Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{
    ContainerError, HistoryRegister, PortKind, SaturatingCounter, SramModel, StateReader,
    StateWriter,
};

/// Configuration for an [`Ittage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IttageConfig {
    /// Entries per tagged table (power of two).
    pub table_entries: u64,
    /// Tag width per table.
    pub tag_bits: Vec<u32>,
    /// Global-history length per table (0 = PC-only base table).
    pub hist_lengths: Vec<u32>,
    /// Stored target width (offset-compressed).
    pub target_bits: u32,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl IttageConfig {
    /// A three-table ITTAGE over 0/8/24-bit histories.
    pub fn small(width: u8) -> Self {
        Self {
            table_entries: 256,
            tag_bits: vec![9, 10, 11],
            hist_lengths: vec![0, 8, 24],
            target_bits: 22,
            latency: 3,
            width,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    valid: bool,
    tag: u64,
    target: u64,
    /// Confidence counter raw value (2-bit).
    ctr: u8,
}

/// A tagged geometric-history indirect-target predictor.
#[derive(Debug)]
pub struct Ittage {
    cfg: IttageConfig,
    tables: Vec<SramModel<ItEntry>>,
}

mod meta_layout {
    pub const SLOT: u32 = 0; // 3 bits: slot the prediction applied to
    pub const PROVIDER: u32 = 3; // 3 bits: provider table + 1 (0 = none)
    pub const CTR: u32 = 6; // 2 bits: provider confidence at predict
}

impl Ittage {
    /// Builds the predictor.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent per-table vectors, non-power-of-two entries,
    /// or latency below 2 (history user).
    pub fn new(cfg: IttageConfig) -> Self {
        assert_eq!(cfg.tag_bits.len(), cfg.hist_lengths.len());
        assert!(!cfg.hist_lengths.is_empty(), "need at least one table");
        assert!(bits::is_pow2(cfg.table_entries));
        assert!(cfg.latency >= 2, "history users need latency >= 2");
        assert!(
            cfg.table_entries.is_multiple_of(cfg.width as u64),
            "entries must divide across slot banks"
        );
        let tables = cfg
            .tag_bits
            .iter()
            .map(|&tb| {
                SramModel::new_banked(
                    cfg.table_entries,
                    1 + tb as u64 + cfg.target_bits as u64 + 2,
                    PortKind::DualPort,
                    cfg.width as u64,
                    ItEntry::default(),
                )
            })
            .collect();
        Self { cfg, tables }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &IttageConfig {
        &self.cfg
    }

    fn index(&self, t: usize, slot: usize, slot_pc: u64, ghist: &HistoryRegister) -> u64 {
        let rows = self.cfg.table_entries / self.cfg.width as u64;
        let n = bits::clog2(rows);
        let hl = self.cfg.hist_lengths[t].min(ghist.width());
        let h = if hl == 0 { 0 } else { ghist.folded(hl, n) };
        let row = (bits::mix64(slot_pc >> 1) ^ h ^ ((t as u64) << 5)) & bits::mask(n);
        slot as u64 * rows + row
    }

    fn tag(&self, t: usize, slot_pc: u64, ghist: &HistoryRegister) -> u64 {
        let tb = self.cfg.tag_bits[t];
        let hl = self.cfg.hist_lengths[t].min(ghist.width());
        let h = if hl == 0 { 0 } else { ghist.folded(hl, tb) };
        ((bits::mix64(slot_pc >> 1) >> 19) ^ (h << 1)) & bits::mask(tb)
    }

    /// Longest-history hit for `slot_pc`, as `(table, entry)`.
    fn lookup(
        &mut self,
        cycle: u64,
        slot: usize,
        slot_pc: u64,
        ghist: &HistoryRegister,
    ) -> Option<(usize, ItEntry)> {
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, slot, slot_pc, ghist);
            self.tables[t].begin_cycle(cycle);
            let e = *self.tables[t].read(idx);
            if e.valid && e.tag == self.tag(t, slot_pc, ghist) {
                return Some((t, e));
            }
        }
        None
    }
}

impl Component for Ittage {
    fn kind(&self) -> &'static str {
        "ittage"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        8
    }

    fn field_profile(&self) -> FieldProfile {
        // Overrides the target of indirect branches on a tagged hit only.
        FieldProfile {
            may: FieldSet::TARGET,
            always: FieldSet::NONE,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.hist_lengths.iter().copied().max().unwrap_or(0)
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        let rows = self.cfg.table_entries / self.cfg.width as u64;
        let n = bits::clog2(rows);
        self.cfg
            .hist_lengths
            .iter()
            .enumerate()
            .map(|(i, &hl)| IndexDescriptor {
                table: format!("ittage-t{i}"),
                sets: rows,
                pc_bits: n,
                ghist_bits: hl,
                lhist_bits: 0,
                path_bits: 0,
            })
            .collect()
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        for (i, t) in self.tables.iter().enumerate() {
            r.add_sram(format!("ittage-t{i}"), t.spec());
        }
        r
    }

    fn accesses(&self) -> Vec<crate::types::AccessReport> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (reads, writes) = t.access_counts();
                crate::types::AccessReport {
                    name: format!("t{i}"),
                    spec: t.spec(),
                    reads,
                    writes,
                    rows_touched: t.rows_touched(),
                }
            })
            .collect()
    }

    fn port_violations(&self) -> usize {
        self.tables.iter().map(|t| t.violations().len()).sum()
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        // Like the BTB, the ITTAGE looks every slot up in parallel; only
        // addresses where an indirect jump was actually observed ever have
        // matching tags, so a hit identifies an indirect site by itself.
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        if let Some(h) = &q.hist {
            for i in 0..q.width as usize {
                if let Some((t, e)) = self.lookup(q.cycle, i, q.slot_pc(i), h.ghist) {
                    if e.ctr >= 1 {
                        pred.slot_mut(i).set_target(Some(e.target));
                        use meta_layout::*;
                        meta |= (i as u64 & 0x7) << SLOT;
                        meta |= ((t as u64 + 1) & 0x7) << PROVIDER;
                        meta |= (e.ctr as u64 & 0x3) << CTR;
                    }
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
            if !matches!(r.kind, BranchKind::Indirect) || !r.taken {
                continue;
            }
            let slot_pc = ev.pc + r.slot as u64 * crate::types::SLOT_BYTES;
            let ghist = ev.hist.ghist;
            // Train the provider; allocate on a wrong or missing target.
            let slot = r.slot as usize;
            let provider = {
                let mut found = None;
                for t in (0..self.tables.len()).rev() {
                    let idx = self.index(t, slot, slot_pc, ghist);
                    let e = *self.tables[t].peek(idx);
                    if e.valid && e.tag == self.tag(t, slot_pc, ghist) {
                        found = Some((t, idx, e));
                        break;
                    }
                }
                found
            };
            match provider {
                Some((t, idx, mut e)) => {
                    let mut c = SaturatingCounter::new(2, 0);
                    c.set(e.ctr);
                    if e.target == r.target {
                        c.increment();
                        e.ctr = c.value();
                        self.tables[t].poke(idx, e);
                    } else {
                        c.decrement();
                        e.ctr = c.value();
                        if c.value() == 0 {
                            e.target = r.target;
                        }
                        self.tables[t].poke(idx, e);
                        // Also allocate in a longer table for this context.
                        if t + 1 < self.tables.len() {
                            let nt = t + 1;
                            let nidx = self.index(nt, slot, slot_pc, ghist);
                            let ntag = self.tag(nt, slot_pc, ghist);
                            let cur = *self.tables[nt].peek(nidx);
                            if !cur.valid || cur.ctr == 0 {
                                self.tables[nt].poke(
                                    nidx,
                                    ItEntry {
                                        valid: true,
                                        tag: ntag,
                                        target: r.target,
                                        ctr: 1,
                                    },
                                );
                            }
                        }
                    }
                }
                None => {
                    // Allocate in the base table.
                    let idx = self.index(0, slot, slot_pc, ghist);
                    let tag0 = self.tag(0, slot_pc, ghist);
                    let cur = *self.tables[0].peek(idx);
                    if !cur.valid || cur.ctr == 0 {
                        self.tables[0].poke(
                            idx,
                            ItEntry {
                                valid: true,
                                tag: tag0,
                                target: r.target,
                                ctr: 1,
                            },
                        );
                    } else {
                        let mut e = cur;
                        e.ctr -= 1;
                        self.tables[0].poke(idx, e);
                    }
                }
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        for table in &self.tables {
            table.save_state(w, |w, e| {
                w.write_bool(e.valid);
                w.write_u64(e.tag);
                w.write_u64(e.target);
                w.write_u64(u64::from(e.ctr));
            });
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        for table in &mut self.tables {
            table.load_state(r, |r| {
                Ok(ItEntry {
                    valid: r.read_bool("ittage valid")?,
                    tag: r.read_u64("ittage tag")?,
                    target: r.read_u64("ittage target")?,
                    ctr: r.read_u64_capped("ittage counter", 0xff)? as u8,
                })
            })?;
        }
        Ok(())
    }
}

impl Ittage {
    /// Looks up a predicted target for an indirect CFI at `slot_pc` under
    /// `ghist`, with its confidence. Used by tests and by hosts wanting a
    /// direct target query outside the composed pipeline.
    pub fn predict_target(
        &mut self,
        cycle: u64,
        slot_pc: u64,
        ghist: &HistoryRegister,
    ) -> Option<(u64, u8)> {
        self.lookup(cycle, 0, slot_pc, ghist)
            .map(|(_, e)| (e.target, e.ctr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};

    fn resolve(it: &mut Ittage, pc: u64, ghist: &HistoryRegister, target: u64) {
        let pred = PredictionBundle::new(4);
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Indirect,
            taken: true,
            target,
        }];
        it.update(&UpdateEvent {
            pc,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            },
            meta: Meta::ZERO,
            pred: &pred,
            resolutions: &res,
            mispredicted_slot: None,
        });
    }

    #[test]
    fn learns_a_monomorphic_target() {
        let mut it = Ittage::new(IttageConfig::small(4));
        let ghist = HistoryRegister::new(32);
        assert!(it.predict_target(0, 0x1000, &ghist).is_none());
        resolve(&mut it, 0x1000, &ghist, 0x4000);
        resolve(&mut it, 0x1000, &ghist, 0x4000);
        let (t, ctr) = it.predict_target(0, 0x1000, &ghist).expect("hit");
        assert_eq!(t, 0x4000);
        assert!(ctr >= 1);
    }

    #[test]
    fn history_separates_polymorphic_targets() {
        let mut it = Ittage::new(IttageConfig::small(4));
        let mut h1 = HistoryRegister::new(32);
        h1.push_all([true; 10]);
        let mut h2 = HistoryRegister::new(32);
        h2.push_all([false; 10]);
        // Same site, two targets selected by history.
        for _ in 0..6 {
            resolve(&mut it, 0x2000, &h1, 0xaaa0);
            resolve(&mut it, 0x2000, &h2, 0xbbb0);
        }
        let (t1, _) = it.predict_target(0, 0x2000, &h1).expect("hit under h1");
        let (t2, _) = it.predict_target(0, 0x2000, &h2).expect("hit under h2");
        assert_eq!(t1, 0xaaa0, "history 1 selects target A");
        assert_eq!(t2, 0xbbb0, "history 2 selects target B");
    }

    #[test]
    fn target_change_retrains_after_confidence_drains() {
        let mut it = Ittage::new(IttageConfig::small(4));
        let ghist = HistoryRegister::new(32);
        for _ in 0..4 {
            resolve(&mut it, 0x3000, &ghist, 0x1_1110);
        }
        // Switch targets: confidence must drain before replacement.
        for _ in 0..6 {
            resolve(&mut it, 0x3000, &ghist, 0x2_2220);
        }
        let (t, _) = it.predict_target(0, 0x3000, &ghist).expect("hit");
        assert_eq!(t, 0x2_2220);
    }

    #[test]
    fn storage_reports_tables() {
        let it = Ittage::new(IttageConfig::small(8));
        assert_eq!(it.storage().srams.len(), 3);
    }

    #[test]
    fn non_indirect_resolutions_are_ignored() {
        let mut it = Ittage::new(IttageConfig::small(4));
        let ghist = HistoryRegister::new(32);
        let pred = PredictionBundle::new(4);
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Conditional,
            taken: true,
            target: 0x4000,
        }];
        it.update(&UpdateEvent {
            pc: 0x1000,
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
        });
        assert!(it.predict_target(0, 0x1000, &ghist).is_none());
    }
}
