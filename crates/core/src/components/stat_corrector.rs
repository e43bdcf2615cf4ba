//! A statistical corrector (extension component).
//!
//! TAGE-SC-L pairs TAGE with a statistical corrector that reverts TAGE's
//! prediction when statistics say TAGE is likely wrong for this (PC,
//! history) context. The paper's TAGE-L design deliberately omits it
//! ("vaguely similar to TAGE-SC-L, only with no statistical corrector");
//! this module provides a simplified GEHL-style corrector so that the
//! omission can be ablated: a few tables of signed counters over different
//! history lengths vote, and when their combined confidence is high they
//! override the incoming direction.

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, PortKind, SramModel, StateReader, StateWriter};

/// Configuration for a [`StatisticalCorrector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectorConfig {
    /// Entries per table (power of two).
    pub entries: u64,
    /// Signed counter width in bits.
    pub counter_bits: u8,
    /// History lengths, one per table (0 = PC-only bias table).
    pub hist_lengths: Vec<u32>,
    /// Confidence threshold: the vote sum must reach this magnitude to
    /// override the incoming prediction.
    pub threshold: i32,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl CorrectorConfig {
    /// A small three-table corrector.
    pub fn small(width: u8) -> Self {
        Self {
            entries: 1024,
            counter_bits: 6,
            hist_lengths: vec![0, 5, 13],
            threshold: 12,
            latency: 3,
            width,
        }
    }
}

/// A GEHL-style statistical corrector.
#[derive(Debug)]
pub struct StatisticalCorrector {
    cfg: CorrectorConfig,
    tables: Vec<SramModel<i8>>,
}

mod meta_layout {
    pub const CONFIDENT: u32 = 0; // 8 bits, per slot
    pub const DIRECTION: u32 = 8; // 8 bits, per slot
}

impl StatisticalCorrector {
    /// Builds a corrector.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, no tables are configured,
    /// or the latency is below 2.
    pub fn new(cfg: CorrectorConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(!cfg.hist_lengths.is_empty(), "need at least one table");
        assert!(cfg.latency >= 2, "history users need latency >= 2");
        assert!(
            cfg.entries.is_multiple_of(cfg.width as u64),
            "entries must divide across slot banks"
        );
        let tables = cfg
            .hist_lengths
            .iter()
            .map(|_| {
                SramModel::new_banked(
                    cfg.entries,
                    cfg.counter_bits as u64,
                    PortKind::TwoReadOneWrite,
                    cfg.width as u64,
                    0i8,
                )
            })
            .collect();
        Self { cfg, tables }
    }

    /// The corrector's configuration.
    pub fn config(&self) -> &CorrectorConfig {
        &self.cfg
    }

    fn index(
        &self,
        t: usize,
        slot: usize,
        slot_pc: u64,
        ghist: &cobra_sim::HistoryRegister,
    ) -> u64 {
        let rows = self.cfg.entries / self.cfg.width as u64;
        let n = bits::clog2(rows);
        let hl = self.cfg.hist_lengths[t].min(ghist.width());
        let h = if hl == 0 { 0 } else { ghist.folded(hl, n) };
        let row = (bits::mix64(slot_pc >> 1) ^ h ^ ((t as u64) << 3)) & bits::mask(n);
        slot as u64 * rows + row
    }

    fn counter_max(&self) -> i8 {
        ((1u32 << (self.cfg.counter_bits - 1)) - 1) as i8
    }

    fn vote(
        &mut self,
        cycle: u64,
        slot: usize,
        slot_pc: u64,
        ghist: &cobra_sim::HistoryRegister,
    ) -> i32 {
        let mut sum = 0i32;
        for t in 0..self.tables.len() {
            let idx = self.index(t, slot, slot_pc, ghist);
            self.tables[t].begin_cycle(cycle);
            sum += *self.tables[t].read(idx) as i32;
        }
        sum
    }
}

impl Component for StatisticalCorrector {
    fn kind(&self) -> &'static str {
        "sc"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        16
    }

    fn field_profile(&self) -> FieldProfile {
        // Reverts the incoming direction only when statistically confident.
        FieldProfile {
            may: FieldSet::TAKEN,
            always: FieldSet::NONE,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.hist_lengths.iter().copied().max().unwrap_or(0)
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        let rows = self.cfg.entries / self.cfg.width as u64;
        let n = bits::clog2(rows);
        self.cfg
            .hist_lengths
            .iter()
            .enumerate()
            .map(|(i, &hl)| IndexDescriptor {
                table: format!("sc-t{i}"),
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
            r.add_sram(format!("sc-t{i}"), t.spec());
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
        let mut meta = 0u64;
        use meta_layout::*;
        if let Some(h) = &q.hist {
            for i in 0..q.width as usize {
                let sum = self.vote(q.cycle, i, q.slot_pc(i), h.ghist);
                if sum.abs() >= self.cfg.threshold {
                    meta |= 1u64 << (CONFIDENT + i as u32);
                    meta |= ((sum >= 0) as u64) << (DIRECTION + i as u32);
                }
            }
        }
        // Its own bundle is empty: the correction is applied in `compose`,
        // overriding only slots where the corrector is confident.
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
        let mut out = inputs
            .first()
            .copied()
            .unwrap_or_else(|| PredictionBundle::new(width));
        use meta_layout::*;
        if let Some(r) = own {
            for i in 0..width as usize {
                if bits::field(r.meta.0, CONFIDENT + i as u32, 1) == 1
                    && out.slot(i).taken.is_some()
                {
                    // Correct only slots that carry a prediction to correct.
                    out.slot_mut(i).taken =
                        Some(bits::field(r.meta.0, DIRECTION + i as u32, 1) == 1);
                }
            }
        }
        out
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        let cmax = self.counter_max();
        for r in ev.conditional_branches() {
            let slot_pc = ev.pc + r.slot as u64 * crate::types::SLOT_BYTES;
            // GEHL-style: train when the final prediction was wrong or the
            // vote was below threshold.
            let sum = self.vote(0, r.slot as usize, slot_pc, ev.hist.ghist);
            let final_taken = ev.pred.slot(r.slot as usize).taken.unwrap_or(false);
            if final_taken != r.taken || sum.abs() < self.cfg.threshold {
                for t in 0..self.tables.len() {
                    let idx = self.index(t, r.slot as usize, slot_pc, ev.hist.ghist);
                    let v = *self.tables[t].peek(idx);
                    let nv = if r.taken {
                        (v + 1).min(cmax)
                    } else {
                        (v - 1).max(-cmax - 1)
                    };
                    self.tables[t].write(idx, nv);
                }
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        for table in &self.tables {
            table.save_state(w, |w, &c| w.write_i64(i64::from(c)));
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        for table in &mut self.tables {
            table.load_state(r, |r| {
                let v = r.read_i64("corrector counter")?;
                i8::try_from(v).map_err(|_| ContainerError::Shape {
                    detail: format!("corrector counter {v} exceeds i8 range"),
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
    use crate::types::BranchKind;
    use cobra_sim::HistoryRegister;

    fn step(
        sc: &mut StatisticalCorrector,
        ghist: &HistoryRegister,
        input_taken: bool,
        outcome: bool,
    ) -> Option<bool> {
        let resp = sc.predict(&PredictQuery {
            cycle: 0,
            pc: 0x3000,
            width: 4,
            hist: Some(HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            }),
        });
        let mut input = PredictionBundle::new(4);
        for i in 0..4 {
            input.slot_mut(i).taken = Some(input_taken);
        }
        let out = sc.compose(4, Some(&resp), &[input]);
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Conditional,
            taken: outcome,
            target: 0x40,
        }];
        sc.update(&UpdateEvent {
            pc: 0x3000,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            },
            meta: resp.meta,
            pred: &out,
            resolutions: &res,
            mispredicted_slot: None,
        });
        out.slot(0).taken
    }

    #[test]
    fn corrects_a_consistently_wrong_input() {
        let mut sc = StatisticalCorrector::new(CorrectorConfig::small(4));
        let ghist = HistoryRegister::new(32);
        // The input predictor insists on "taken"; reality is "not taken".
        let mut corrected = false;
        for _ in 0..40 {
            if step(&mut sc, &ghist, true, false) == Some(false) {
                corrected = true;
            }
        }
        assert!(corrected, "the corrector must eventually flip the input");
    }

    #[test]
    fn leaves_correct_input_alone_when_unconfident() {
        let mut sc = StatisticalCorrector::new(CorrectorConfig::small(4));
        let ghist = HistoryRegister::new(32);
        let out = step(&mut sc, &ghist, true, true);
        assert_eq!(out, Some(true), "cold corrector must pass through");
    }

    #[test]
    fn does_not_invent_predictions() {
        let mut sc = StatisticalCorrector::new(CorrectorConfig::small(4));
        let ghist = HistoryRegister::new(32);
        // Saturate the corrector toward not-taken.
        for _ in 0..40 {
            step(&mut sc, &ghist, true, false);
        }
        let resp = sc.predict(&PredictQuery {
            cycle: 0,
            pc: 0x3000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        });
        // Input with NO direction prediction: corrector must not add one.
        let input = PredictionBundle::new(4);
        let out = sc.compose(4, Some(&resp), &[input]);
        assert_eq!(out.slot(0).taken, None);
    }

    #[test]
    fn storage_has_one_macro_per_table() {
        let sc = StatisticalCorrector::new(CorrectorConfig::small(8));
        assert_eq!(sc.storage().srams.len(), 3);
    }
}
