//! A single partially-tagged global-history counter table ("GTAG3").
//!
//! This is the backing predictor of the paper's "B2" design — the predictor
//! shipped with the original BOOM core: one table of fetch-packet entries,
//! each holding a partial tag plus one counter per prediction slot, indexed
//! and tagged by hashes of the fetch PC and global history. On a tag miss
//! it predicts nothing (pass-through); entries are allocated when the
//! pipeline mispredicts.

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{
    ContainerError, HistoryRegister, PortKind, SaturatingCounter, SramModel, StateReader,
    StateWriter,
};

/// Configuration for a [`Gtag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtagConfig {
    /// Number of packet entries (power of two).
    pub entries: u64,
    /// Partial tag width in bits.
    pub tag_bits: u32,
    /// Counter width in bits.
    pub counter_bits: u8,
    /// Global-history length hashed into index and tag.
    pub hist_bits: u32,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl GtagConfig {
    /// The B2 design's 2K-entry partially-tagged table over a 16-bit global
    /// history.
    pub fn b2(width: u8) -> Self {
        Self {
            entries: 2048,
            tag_bits: 10,
            counter_bits: 2,
            hist_bits: 16,
            latency: 3,
            width,
        }
    }
}

#[derive(Debug, Clone)]
struct GtagEntry {
    valid: bool,
    tag: u64,
    ctrs: [u8; crate::types::MAX_FETCH_WIDTH],
    /// Usefulness: protects entries that have predicted correctly from
    /// being evicted by every passing misprediction.
    useful: u8,
}

impl Default for GtagEntry {
    fn default() -> Self {
        Self {
            valid: false,
            tag: 0,
            ctrs: [0; crate::types::MAX_FETCH_WIDTH],
            useful: 0,
        }
    }
}

/// A partially-tagged global-history table with per-slot counters.
#[derive(Debug)]
pub struct Gtag {
    cfg: GtagConfig,
    table: SramModel<GtagEntry>,
}

impl Gtag {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or the latency is below 2
    /// (the component reads global history).
    pub fn new(cfg: GtagConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(cfg.latency >= 2, "history users need latency >= 2");
        let entry_bits = 1 + cfg.tag_bits as u64 + cfg.width as u64 * cfg.counter_bits as u64 + 2;
        Self {
            table: SramModel::new(
                cfg.entries,
                entry_bits,
                PortKind::DualPort,
                GtagEntry::default(),
            ),
            cfg,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &GtagConfig {
        &self.cfg
    }

    fn index(&self, pc: u64, ghist: &HistoryRegister) -> u64 {
        let n = bits::clog2(self.cfg.entries);
        let h = ghist.folded(self.cfg.hist_bits.min(ghist.width()), n);
        (bits::mix64(pc >> 1) ^ h) & bits::mask(n)
    }

    fn tag(&self, pc: u64, ghist: &HistoryRegister) -> u64 {
        let h = ghist.folded(self.cfg.hist_bits.min(ghist.width()), self.cfg.tag_bits);
        ((bits::mix64(pc >> 1) >> 13) ^ (h << 1)) & bits::mask(self.cfg.tag_bits)
    }

    fn counter(&self, raw: u8) -> SaturatingCounter {
        let mut c = SaturatingCounter::new(self.cfg.counter_bits, 0);
        c.set(raw);
        c
    }
}

impl Component for Gtag {
    fn kind(&self) -> &'static str {
        "gtag"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        1 + self.cfg.width as u32 * self.cfg.counter_bits as u32
    }

    fn field_profile(&self) -> FieldProfile {
        // Overrides the direction on a tag hit, nothing on a miss.
        FieldProfile {
            may: FieldSet::TAKEN,
            always: FieldSet::NONE,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.hist_bits
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        vec![IndexDescriptor {
            table: "gtag-table".into(),
            sets: self.cfg.entries,
            pc_bits: bits::clog2(self.cfg.entries),
            ghist_bits: self.cfg.hist_bits,
            lhist_bits: 0,
            path_bits: 0,
        }]
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_sram("gtag-table", self.table.spec());
        r
    }

    fn accesses(&self) -> Vec<crate::types::AccessReport> {
        let (reads, writes) = self.table.access_counts();
        vec![crate::types::AccessReport {
            name: "table".into(),
            spec: self.table.spec(),
            reads,
            writes,
            rows_touched: self.table.rows_touched(),
        }]
    }

    fn port_violations(&self) -> usize {
        self.table.violations().len()
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        self.table.begin_cycle(q.cycle);
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        if let Some(h) = &q.hist {
            let idx = self.index(q.pc, h.ghist);
            let tag = self.tag(q.pc, h.ghist);
            let e = self.table.read(idx).clone();
            if e.valid && e.tag == tag {
                meta |= 1;
                for i in 0..q.width as usize {
                    let c = self.counter(e.ctrs[i]);
                    pred.slot_mut(i).taken = Some(c.is_taken());
                    meta |= (e.ctrs[i] as u64) << (1 + i as u32 * self.cfg.counter_bits as u32);
                }
            }
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        self.table.begin_cycle(0);
        let idx = self.index(ev.pc, ev.hist.ghist);
        let tag = self.tag(ev.pc, ev.hist.ghist);
        let hit_at_predict = ev.meta.0 & 1 == 1;
        let cb = self.cfg.counter_bits as u32;
        if hit_at_predict {
            // Train the counters recovered from metadata and write back.
            let mut e = self.table.peek(idx).clone();
            if !(e.valid && e.tag == tag) {
                return; // entry was since reallocated; drop the update
            }
            for r in ev.conditional_branches() {
                let stored = bits::field(ev.meta.0, 1 + r.slot as u32 * cb, cb) as u8;
                let was_correct = self.counter(stored).is_taken() == r.taken;
                let mut c = self.counter(stored);
                c.train(r.taken);
                e.ctrs[r.slot as usize] = c.value();
                let mut u = SaturatingCounter::new(2, 0);
                u.set(e.useful);
                u.train(was_correct);
                e.useful = u.value();
            }
            self.table.write(idx, e);
        } else if ev.mispredicted_slot.is_some() {
            // Allocate on a misprediction the base predictor got wrong —
            // but never over a still-useful entry.
            {
                let cur = self.table.peek(idx).clone();
                if cur.valid && cur.useful > 0 {
                    let mut cur = cur;
                    cur.useful -= 1;
                    self.table.poke(idx, cur);
                    return;
                }
            }
            let mut e = GtagEntry {
                valid: true,
                tag,
                ctrs: [SaturatingCounter::weakly_not_taken(self.cfg.counter_bits).value();
                    crate::types::MAX_FETCH_WIDTH],
                useful: 0,
            };
            for r in ev.conditional_branches() {
                let init = if r.taken {
                    SaturatingCounter::weakly_taken(self.cfg.counter_bits)
                } else {
                    SaturatingCounter::weakly_not_taken(self.cfg.counter_bits)
                };
                e.ctrs[r.slot as usize] = init.value();
            }
            self.table.write(idx, e);
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w, |w, e| {
            w.write_bool(e.valid);
            w.write_u64(e.tag);
            for &c in &e.ctrs {
                w.write_u64(u64::from(c));
            }
            w.write_u64(u64::from(e.useful));
        });
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.table.load_state(r, |r| {
            let valid = r.read_bool("gtag valid")?;
            let tag = r.read_u64("gtag tag")?;
            let mut ctrs = [0u8; crate::types::MAX_FETCH_WIDTH];
            for c in &mut ctrs {
                *c = r.read_u64_capped("gtag counter", 0xff)? as u8;
            }
            let useful = r.read_u64_capped("gtag useful", 0xff)? as u8;
            Ok(GtagEntry {
                valid,
                tag,
                ctrs,
                useful,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use crate::types::BranchKind;

    fn cond(slot: u8, taken: bool) -> SlotResolution {
        SlotResolution {
            slot,
            kind: BranchKind::Conditional,
            taken,
            target: 0x40,
        }
    }

    fn run_update(
        g: &mut Gtag,
        pc: u64,
        ghist: &HistoryRegister,
        meta: Meta,
        res: &[SlotResolution],
        mispredicted: bool,
    ) {
        let pred = PredictionBundle::new(4);
        g.update(&UpdateEvent {
            pc,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            },
            meta,
            pred: &pred,
            resolutions: res,
            mispredicted_slot: if mispredicted {
                Some(res[0].slot)
            } else {
                None
            },
        });
    }

    fn predict(g: &mut Gtag, pc: u64, ghist: &HistoryRegister) -> Response {
        g.predict(&PredictQuery {
            cycle: 0,
            pc,
            width: 4,
            hist: Some(HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            }),
        })
    }

    #[test]
    fn misses_until_allocated_on_mispredict() {
        let mut g = Gtag::new(GtagConfig::b2(4));
        let ghist = HistoryRegister::new(32);
        let r = predict(&mut g, 0x1000, &ghist);
        assert_eq!(r.pred.slot(0).taken, None, "tag miss provides nothing");
        // A correct-prediction update must NOT allocate.
        run_update(&mut g, 0x1000, &ghist, r.meta, &[cond(0, true)], false);
        let r = predict(&mut g, 0x1000, &ghist);
        assert_eq!(r.pred.slot(0).taken, None);
        // A mispredict allocates.
        run_update(&mut g, 0x1000, &ghist, r.meta, &[cond(0, true)], true);
        let r = predict(&mut g, 0x1000, &ghist);
        assert_eq!(r.pred.slot(0).taken, Some(true));
    }

    #[test]
    fn history_correlation_separates_contexts() {
        let mut g = Gtag::new(GtagConfig::b2(4));
        let mut h1 = HistoryRegister::new(32);
        h1.push_all([true; 8]);
        let mut h0 = HistoryRegister::new(32);
        h0.push_all([false; 8]);
        let r = predict(&mut g, 0x2000, &h1);
        run_update(&mut g, 0x2000, &h1, r.meta, &[cond(1, true)], true);
        let r = predict(&mut g, 0x2000, &h0);
        run_update(&mut g, 0x2000, &h0, r.meta, &[cond(1, false)], true);
        // Now the same PC predicts differently under the two histories.
        let r1 = predict(&mut g, 0x2000, &h1);
        let r0 = predict(&mut g, 0x2000, &h0);
        assert_eq!(r1.pred.slot(1).taken, Some(true));
        assert_eq!(r0.pred.slot(1).taken, Some(false));
    }

    #[test]
    fn hit_training_strengthens_counters() {
        let mut g = Gtag::new(GtagConfig::b2(4));
        let ghist = HistoryRegister::new(32);
        let r = predict(&mut g, 0x3000, &ghist);
        run_update(&mut g, 0x3000, &ghist, r.meta, &[cond(2, false)], true);
        for _ in 0..3 {
            let r = predict(&mut g, 0x3000, &ghist);
            assert_eq!(r.pred.slot(2).taken, Some(false));
            run_update(&mut g, 0x3000, &ghist, r.meta, &[cond(2, false)], false);
        }
        // One taken outcome must not flip a now-strong counter.
        let r = predict(&mut g, 0x3000, &ghist);
        run_update(&mut g, 0x3000, &ghist, r.meta, &[cond(2, true)], false);
        let r2 = predict(&mut g, 0x3000, &ghist);
        assert_eq!(r2.pred.slot(2).taken, Some(false));
        let _ = r;
    }

    #[test]
    fn latency_below_two_rejected() {
        let result = std::panic::catch_unwind(|| {
            Gtag::new(GtagConfig {
                latency: 1,
                ..GtagConfig::b2(4)
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn storage_counts_tags_and_counters() {
        let g = Gtag::new(GtagConfig::b2(4));
        // 2048 x (1 valid + 10 tag + 4x2 counters + 2 useful)
        assert_eq!(g.storage().total_bits(), 2048 * 21);
    }
}
