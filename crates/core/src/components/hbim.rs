//! History-indexed bimodal counter tables (HBIM).
//!
//! One parameterized component covers the whole family of untagged counter
//! tables from the paper: a plain PC-indexed BIM, global-history-indexed
//! tables (GBIM / GHT), local-history-indexed tables (LBIM / LHT), and the
//! hashed GShare / GSelect variants. The indexing option is the
//! [`IndexScheme`] parameter, matching the paper's "bimodal counter tables
//! with a parameterized indexing option, so they can be indexed by a global
//! history, local history, PC, or any hashed combination of the above".

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, PortKind, SaturatingCounter, SramModel, StateReader, StateWriter};

/// How an [`Hbim`] computes its table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexScheme {
    /// Pure PC indexing (a classic bimodal table). Usable at latency ≥ 1.
    Pc,
    /// Pure global-history indexing over the low `bits` history bits.
    GlobalHistory {
        /// History bits used for the index.
        bits: u32,
    },
    /// PC xor folded global history (GShare).
    GShare {
        /// Global-history length folded into the index.
        hist_bits: u32,
    },
    /// PC bits concatenated with global-history bits (GSelect).
    GSelect {
        /// PC bits in the concatenation.
        pc_bits: u32,
        /// History bits in the concatenation.
        hist_bits: u32,
    },
    /// Local-history indexing: the per-PC history selects the counter.
    LocalHistory {
        /// Local-history bits used for the index.
        bits: u32,
    },
    /// PC xor folded *path* history (targets of recent taken redirections)
    /// — the history-provider variant of paper Section IV-B3.
    PathHash {
        /// Path-history bits folded into the index.
        bits: u32,
    },
}

impl IndexScheme {
    /// `true` if this scheme reads a history vector, which forces latency
    /// ≥ 2 under the interface's history-timing rule.
    pub fn uses_history(self) -> bool {
        !matches!(self, IndexScheme::Pc)
    }

    /// Local-history bits this scheme requires from the provider.
    pub fn local_history_bits(self) -> u32 {
        match self {
            IndexScheme::LocalHistory { bits } => bits,
            _ => 0,
        }
    }

    /// Global-history bits this scheme reads from the provider.
    pub fn global_history_bits(self) -> u32 {
        match self {
            IndexScheme::GlobalHistory { bits } => bits,
            IndexScheme::GShare { hist_bits } => hist_bits,
            IndexScheme::GSelect { hist_bits, .. } => hist_bits,
            _ => 0,
        }
    }

    /// `true` if this scheme reads the path-history register.
    pub fn uses_path(self) -> bool {
        matches!(self, IndexScheme::PathHash { .. })
    }
}

/// Configuration for an [`Hbim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbimConfig {
    /// Number of counters (power of two).
    pub entries: u64,
    /// Counter width in bits.
    pub counter_bits: u8,
    /// Index computation.
    pub index: IndexScheme,
    /// Response latency (≥ 2 if the index uses history).
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
    /// Superscalar mode: read one (banked) counter per slot. When `false`
    /// the table reads a single counter for the whole packet, exhibiting
    /// the intra-packet aliasing the paper describes in Section III-C.
    pub superscalar: bool,
}

impl HbimConfig {
    /// A PC-indexed bimodal table ("BIM2" in the paper's designs).
    pub fn bim(entries: u64, width: u8) -> Self {
        Self {
            entries,
            counter_bits: 2,
            index: IndexScheme::Pc,
            latency: 2,
            width,
            superscalar: true,
        }
    }

    /// A global-history-indexed table ("GBIM2" / the Tournament's BHT).
    pub fn gbim(entries: u64, hist_bits: u32, width: u8) -> Self {
        Self {
            entries,
            counter_bits: 2,
            index: IndexScheme::GShare { hist_bits },
            latency: 2,
            width,
            superscalar: true,
        }
    }

    /// A local-history-indexed table ("LBIM2").
    pub fn lbim(entries: u64, local_bits: u32, width: u8) -> Self {
        Self {
            entries,
            counter_bits: 2,
            index: IndexScheme::LocalHistory { bits: local_bits },
            latency: 2,
            width,
            superscalar: true,
        }
    }
}

/// A bimodal counter table with parameterized indexing.
///
/// Superscalar prediction (Section III-C): in superscalar mode the table is
/// banked by slot — each slot within the fetch packet reads its own
/// counter, so adjacent branches in one packet do not alias. The metadata
/// field stores the read counter values so commit-time updates need no
/// second read port (Section III-D).
#[derive(Debug)]
pub struct Hbim {
    cfg: HbimConfig,
    table: SramModel<u8>,
}

impl Hbim {
    /// Builds the table from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, the counter is wider than
    /// 8 bits, the packet width exceeds the framework maximum, or the
    /// latency violates the history-timing rule.
    pub fn new(cfg: HbimConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(
            (1..=8).contains(&cfg.counter_bits),
            "counter width must be 1..=8"
        );
        assert!(
            (1..=crate::types::MAX_FETCH_WIDTH as u8).contains(&cfg.width),
            "invalid fetch width"
        );
        assert!(
            !cfg.index.uses_history() || cfg.latency >= 2,
            "history-indexed tables need latency >= 2"
        );
        assert!(cfg.latency >= 1, "latency must be >= 1");
        let init = SaturatingCounter::weakly_not_taken(cfg.counter_bits).value();
        // Superscalar tables are banked by prediction slot so one packet's
        // parallel reads are conflict-free (Section III-C/III-D).
        let banks = if cfg.superscalar { cfg.width as u64 } else { 1 };
        assert!(
            cfg.entries.is_multiple_of(banks),
            "entries must divide across slot banks"
        );
        Self {
            table: SramModel::new_banked(
                cfg.entries,
                cfg.counter_bits as u64,
                PortKind::DualPort,
                banks,
                init,
            ),
            cfg,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &HbimConfig {
        &self.cfg
    }

    fn index_bits(&self) -> u32 {
        bits::clog2(self.table.rows_per_bank())
    }

    /// Flat entry index for a (slot, row-hash) pair.
    fn entry(&self, slot: usize, row: u64) -> u64 {
        if self.cfg.superscalar {
            self.table.entry_of(slot as u64, row)
        } else {
            row
        }
    }

    /// The slot-invariant history contribution to the index: every slot in
    /// a packet shares one history view, so the fold is computed once per
    /// query and combined with the per-slot PC hash in [`Self::combine`].
    fn hist_part(
        &self,
        n: u32,
        ghist: Option<&cobra_sim::HistoryRegister>,
        lhist: u64,
        phist: u64,
    ) -> u64 {
        match self.cfg.index {
            IndexScheme::Pc => 0,
            IndexScheme::GlobalHistory { bits: h } => {
                let g = ghist.map_or(0, |g| g.low_bits(h.min(g.width()).min(64)));
                bits::xor_fold(g, n)
            }
            IndexScheme::GShare { hist_bits } => {
                ghist.map_or(0, |g| g.folded(hist_bits.min(g.width()), n))
            }
            IndexScheme::GSelect { hist_bits, .. } => {
                let g = ghist.map_or(0, |g| g.low_bits(hist_bits.min(g.width()).min(64)));
                g & bits::mask(hist_bits)
            }
            IndexScheme::LocalHistory { bits: h } => bits::xor_fold(lhist & bits::mask(h), n),
            IndexScheme::PathHash { bits: h } => bits::xor_fold(phist & bits::mask(h), n),
        }
    }

    /// Combines a precomputed history part with one slot's PC into the
    /// final counter index.
    fn combine(&self, n: u32, hist_part: u64, slot_pc: u64) -> u64 {
        let pc_part = bits::mix64(slot_pc >> 1);
        let raw = match self.cfg.index {
            IndexScheme::Pc => pc_part,
            IndexScheme::GlobalHistory { .. } => hist_part ^ (pc_part & 0xf),
            IndexScheme::GShare { .. } => pc_part ^ hist_part,
            IndexScheme::GSelect {
                pc_bits, hist_bits, ..
            } => ((pc_part & bits::mask(pc_bits)) << hist_bits) | hist_part,
            IndexScheme::LocalHistory { .. } => hist_part ^ (pc_part & 0x7),
            IndexScheme::PathHash { .. } => pc_part ^ hist_part,
        };
        raw & bits::mask(n)
    }

    /// Computes the counter index for `slot_pc` under the configured scheme.
    fn index(
        &self,
        slot_pc: u64,
        ghist: Option<&cobra_sim::HistoryRegister>,
        lhist: u64,
        phist: u64,
    ) -> u64 {
        let n = self.index_bits();
        self.combine(n, self.hist_part(n, ghist, lhist, phist), slot_pc)
    }

    fn counter_at(&mut self, idx: u64) -> SaturatingCounter {
        let v = *self.table.read(idx);
        let mut c = SaturatingCounter::new(self.cfg.counter_bits, 0);
        c.set(v);
        c
    }

    fn slots(&self) -> usize {
        if self.cfg.superscalar {
            self.cfg.width as usize
        } else {
            1
        }
    }
}

impl Component for Hbim {
    fn kind(&self) -> &'static str {
        match self.cfg.index {
            IndexScheme::Pc => "bim",
            IndexScheme::GlobalHistory { .. } => "ght",
            IndexScheme::GShare { .. } => "gbim",
            IndexScheme::GSelect { .. } => "gsel",
            IndexScheme::LocalHistory { .. } => "lbim",
            IndexScheme::PathHash { .. } => "pbim",
        }
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        self.slots() as u32 * self.cfg.counter_bits as u32
    }

    fn local_history_bits(&self) -> u32 {
        self.cfg.index.local_history_bits()
    }

    fn field_profile(&self) -> FieldProfile {
        // A bimodal table produces a direction for every slot on every
        // query, so it unconditionally populates `taken`.
        FieldProfile {
            may: FieldSet::TAKEN,
            always: FieldSet::TAKEN,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.index.global_history_bits()
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        let n = self.index_bits();
        // `combine` masks the PC hash differently per scheme: full width for
        // Pc/GShare/PathHash, 4 bits for Alpha-style GlobalHistory, 3 bits
        // for LocalHistory, and the configured count for GSelect.
        let (pc_bits, ghist_bits, lhist_bits, path_bits) = match self.cfg.index {
            IndexScheme::Pc => (n, 0, 0, 0),
            IndexScheme::GlobalHistory { bits } => (n.min(4), bits, 0, 0),
            IndexScheme::GShare { hist_bits } => (n, hist_bits, 0, 0),
            IndexScheme::GSelect { pc_bits, hist_bits } => (pc_bits, hist_bits, 0, 0),
            IndexScheme::LocalHistory { bits } => (n.min(3), 0, bits, 0),
            IndexScheme::PathHash { bits } => (n, 0, 0, bits),
        };
        vec![IndexDescriptor {
            table: format!("{}-counters", self.kind()),
            sets: self.table.rows_per_bank(),
            pc_bits,
            ghist_bits,
            lhist_bits,
            path_bits,
        }]
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_sram(format!("{}-counters", self.kind()), self.table.spec());
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
        let ghist = q.hist.as_ref().map(|h| h.ghist);
        let lhist = q.hist.as_ref().map_or(0, |h| h.lhist);
        let phist = q.hist.as_ref().map_or(0, |h| h.phist);
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        if self.cfg.superscalar {
            let n = self.index_bits();
            let hpart = self.hist_part(n, ghist, lhist, phist);
            for i in 0..q.width as usize {
                let row = self.combine(n, hpart, q.slot_pc(i));
                let c = self.counter_at(self.entry(i, row));
                pred.slot_mut(i).taken = Some(c.is_taken());
                meta |= (c.value() as u64) << (i as u32 * self.cfg.counter_bits as u32);
            }
        } else {
            let idx = self.index(q.pc, ghist, lhist, phist);
            let c = self.counter_at(idx);
            for i in 0..q.width as usize {
                pred.slot_mut(i).taken = Some(c.is_taken());
            }
            meta = c.value() as u64;
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        self.table.begin_cycle(0);
        let cb = self.cfg.counter_bits as u32;
        for r in ev.conditional_branches() {
            let (idx, stored) = if self.cfg.superscalar {
                let slot_pc = ev.pc + r.slot as u64 * crate::types::SLOT_BYTES;
                let row = self.index(slot_pc, Some(ev.hist.ghist), ev.hist.lhist, ev.hist.phist);
                let stored = bits::field(ev.meta.0, r.slot as u32 * cb, cb) as u8;
                (self.entry(r.slot as usize, row), stored)
            } else {
                let row = self.index(ev.pc, Some(ev.hist.ghist), ev.hist.lhist, ev.hist.phist);
                (row, bits::field(ev.meta.0, 0, cb) as u8)
            };
            // Train from the metadata-recovered value, avoiding an
            // update-time read port (Section III-D).
            let mut c = SaturatingCounter::new(self.cfg.counter_bits, 0);
            c.set(stored);
            c.train(r.taken);
            self.table.write(idx, c.value());
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w, |w, &c| w.write_u64(u64::from(c)));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.table
            .load_state(r, |r| Ok(r.read_u64_capped("bim counter", 0xff)? as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use crate::types::BranchKind;
    use cobra_sim::HistoryRegister;

    fn ev_ctx<'a>(
        pc: u64,
        ghist: &'a HistoryRegister,
        lhist: u64,
        meta: Meta,
        pred: &'a PredictionBundle,
        res: &'a [SlotResolution],
    ) -> UpdateEvent<'a> {
        UpdateEvent {
            pc,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist,
                phist: 0,
            },
            meta,
            pred,
            resolutions: res,
            mispredicted_slot: None,
        }
    }

    fn cond(slot: u8, taken: bool) -> SlotResolution {
        SlotResolution {
            slot,
            kind: BranchKind::Conditional,
            taken,
            target: 0x100,
        }
    }

    fn train_repeatedly(bim: &mut Hbim, pc: u64, slot: u8, taken: bool, times: usize) {
        let ghist = HistoryRegister::new(32);
        for _ in 0..times {
            let q = PredictQuery {
                cycle: 0,
                pc,
                width: 4,
                hist: Some(HistoryView {
                    ghist: &ghist,
                    lhist: 0,
                    phist: 0,
                }),
            };
            let r = bim.predict(&q);
            let res = [cond(slot, taken)];
            let pred = PredictionBundle::new(4);
            bim.update(&ev_ctx(pc, &ghist, 0, r.meta, &pred, &res));
        }
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut bim = Hbim::new(HbimConfig::bim(1024, 4));
        train_repeatedly(&mut bim, 0x4000, 1, true, 4);
        let ghist = HistoryRegister::new(32);
        let q = PredictQuery {
            cycle: 0,
            pc: 0x4000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        };
        let r = bim.predict(&q);
        assert_eq!(r.pred.slot(1).taken, Some(true));
    }

    #[test]
    fn superscalar_avoids_intra_packet_aliasing() {
        // Two adjacent branches with opposite behaviour in one packet.
        let mut bim = Hbim::new(HbimConfig::bim(1024, 4));
        let ghist = HistoryRegister::new(32);
        for _ in 0..6 {
            let q = PredictQuery {
                cycle: 0,
                pc: 0x4000,
                width: 4,
                hist: Some(HistoryView {
                    ghist: &ghist,
                    lhist: 0,
                    phist: 0,
                }),
            };
            let r = bim.predict(&q);
            let res = [cond(0, true), cond(2, false)];
            let pred = PredictionBundle::new(4);
            bim.update(&ev_ctx(0x4000, &ghist, 0, r.meta, &pred, &res));
        }
        let q = PredictQuery {
            cycle: 0,
            pc: 0x4000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        };
        let r = bim.predict(&q);
        assert_eq!(r.pred.slot(0).taken, Some(true));
        assert_eq!(r.pred.slot(2).taken, Some(false));
    }

    #[test]
    fn non_superscalar_aliases_within_packet() {
        let mut bim = Hbim::new(HbimConfig {
            superscalar: false,
            ..HbimConfig::bim(1024, 4)
        });
        let ghist = HistoryRegister::new(32);
        // Alternating outcomes on two branches in the same packet thrash
        // the single shared counter: predictions for both slots are equal.
        let q = PredictQuery {
            cycle: 0,
            pc: 0x4000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        };
        let r = bim.predict(&q);
        assert_eq!(r.pred.slot(0).taken, r.pred.slot(3).taken);
        assert_eq!(bim.meta_bits(), 2);
    }

    #[test]
    fn gshare_differs_by_history() {
        let mut g = Hbim::new(HbimConfig::gbim(4096, 12, 4));
        let mut h1 = HistoryRegister::new(32);
        let h0 = HistoryRegister::new(32);
        for i in 0..12 {
            h1.push(i % 2 == 0);
        }
        // Train taken under h1 only.
        for _ in 0..4 {
            let q = PredictQuery {
                cycle: 0,
                pc: 0x8000,
                width: 4,
                hist: Some(HistoryView {
                    ghist: &h1,
                    lhist: 0,
                    phist: 0,
                }),
            };
            let r = g.predict(&q);
            let res = [cond(0, true)];
            let pred = PredictionBundle::new(4);
            g.update(&ev_ctx(0x8000, &h1, 0, r.meta, &pred, &res));
        }
        let q1 = PredictQuery {
            cycle: 0,
            pc: 0x8000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &h1,
                lhist: 0,
                phist: 0,
            }),
        };
        assert_eq!(g.predict(&q1).pred.slot(0).taken, Some(true));
        let q0 = PredictQuery {
            cycle: 0,
            pc: 0x8000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &h0,
                lhist: 0,
                phist: 0,
            }),
        };
        assert_eq!(
            g.predict(&q0).pred.slot(0).taken,
            Some(false),
            "different history must map to a different (untrained) counter"
        );
    }

    #[test]
    fn local_history_scheme_requests_provider_bits() {
        let l = Hbim::new(HbimConfig::lbim(1024, 10, 4));
        assert_eq!(l.local_history_bits(), 10);
        assert_eq!(l.kind(), "lbim");
    }

    #[test]
    fn update_uses_metadata_not_a_read_port() {
        let mut bim = Hbim::new(HbimConfig::bim(256, 4));
        let ghist = HistoryRegister::new(8);
        let q = PredictQuery {
            cycle: 5,
            pc: 0x40,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        };
        let r = bim.predict(&q);
        let before_reads = 4;
        let res = [cond(0, true)];
        let pred = PredictionBundle::new(4);
        bim.update(&ev_ctx(0x40, &ghist, 0, r.meta, &pred, &res));
        let (reads, writes) = {
            let _ = &bim;
            bim.table.access_counts()
        };
        assert_eq!(reads, before_reads, "update must not read the array");
        assert_eq!(writes, 1);
    }

    #[test]
    fn storage_reports_counter_bits() {
        let bim = Hbim::new(HbimConfig::bim(16384, 8));
        let r = bim.storage();
        assert_eq!(r.total_bits(), 16384 * 2);
    }

    #[test]
    fn path_hash_scheme_separates_by_path() {
        let mut p = Hbim::new(HbimConfig {
            entries: 4096,
            counter_bits: 2,
            index: IndexScheme::PathHash { bits: 16 },
            latency: 2,
            width: 4,
            superscalar: true,
        });
        assert_eq!(p.kind(), "pbim");
        let ghist = HistoryRegister::new(16);
        // Two different path histories, opposite outcomes at the same PC.
        let train = |p: &mut Hbim, phist: u64, taken: bool| {
            let q = PredictQuery {
                cycle: 0,
                pc: 0x6000,
                width: 4,
                hist: Some(HistoryView {
                    ghist: &ghist,
                    lhist: 0,
                    phist,
                }),
            };
            let r = p.predict(&q);
            let res = [cond(0, taken)];
            let pred = PredictionBundle::new(4);
            let mut hist = HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist,
            };
            hist.phist = phist;
            p.update(&UpdateEvent {
                pc: 0x6000,
                width: 4,
                hist,
                meta: r.meta,
                pred: &pred,
                resolutions: &res,
                mispredicted_slot: None,
            });
            r
        };
        for _ in 0..4 {
            train(&mut p, 0xaaaa, true);
            train(&mut p, 0x5555, false);
        }
        let ra = train(&mut p, 0xaaaa, true);
        let rb = train(&mut p, 0x5555, false);
        assert_eq!(ra.pred.slot(0).taken, Some(true));
        assert_eq!(rb.pred.slot(0).taken, Some(false));
    }

    #[test]
    #[should_panic(expected = "history-indexed tables need latency")]
    fn history_index_at_latency_one_rejected() {
        let _ = Hbim::new(HbimConfig {
            latency: 1,
            ..HbimConfig::gbim(1024, 8, 4)
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_rejected() {
        let _ = Hbim::new(HbimConfig::bim(1000, 4));
    }
}
