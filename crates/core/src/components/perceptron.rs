//! A perceptron predictor (extension component).
//!
//! Section III-G of the paper notes that "other predictor types, like
//! perceptron [24] …, may be implemented similarly" against the COBRA
//! interface; this module does so, following Jiménez & Lin's HPCA 2001
//! design: a table of signed weight vectors dotted with the global history.
//!
//! As the paper anticipates for complex sub-components (Section III-C), the
//! perceptron provides a *single* prediction for the whole fetch packet
//! rather than per-slot predictions. Unlike the counter tables it cannot
//! fold its whole update into metadata (the weight vector is too wide), so
//! it re-reads weights at update time — the physical cost shows up as an
//! extra read port in its storage declaration.

use crate::iface::{
    Component, FieldProfile, FieldSet, IndexDescriptor, PredictQuery, Response, UpdateEvent,
};
use crate::types::{Meta, PredictionBundle, StorageReport};
use cobra_sim::bits;
use cobra_sim::{ContainerError, PortKind, SramModel, StateReader, StateWriter};

/// Configuration for a [`Perceptron`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Number of perceptrons (power of two).
    pub entries: u64,
    /// History length (weights per perceptron, excluding bias).
    pub hist_len: u32,
    /// Weight width in bits (signed).
    pub weight_bits: u8,
    /// Response latency.
    pub latency: u8,
    /// Fetch-packet width in slots.
    pub width: u8,
}

impl PerceptronConfig {
    /// A 256-entry, 24-bit-history perceptron.
    pub fn default_size(width: u8) -> Self {
        Self {
            entries: 256,
            hist_len: 24,
            weight_bits: 8,
            latency: 3,
            width,
        }
    }

    /// Jiménez's training threshold θ = ⌊1.93·h + 14⌋.
    pub fn theta(&self) -> i32 {
        (1.93 * self.hist_len as f64 + 14.0) as i32
    }
}

/// A global-history perceptron predictor.
#[derive(Debug)]
pub struct Perceptron {
    cfg: PerceptronConfig,
    weights: SramModel<Vec<i16>>,
}

mod meta_layout {
    pub const SUM: u32 = 0; // 18 bits: sum + 2^17 (biased)
    pub const TAKEN: u32 = 18; // 1 bit
}

impl Perceptron {
    /// Builds a perceptron table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, `hist_len` is zero, or
    /// the latency is below 2 (history user).
    pub fn new(cfg: PerceptronConfig) -> Self {
        assert!(bits::is_pow2(cfg.entries), "entries must be a power of two");
        assert!(cfg.hist_len > 0, "history length must be nonzero");
        assert!(cfg.latency >= 2, "history users need latency >= 2");
        let row = vec![0i16; cfg.hist_len as usize + 1];
        Self {
            weights: SramModel::new(
                cfg.entries,
                (cfg.hist_len as u64 + 1) * cfg.weight_bits as u64,
                PortKind::TwoReadOneWrite,
                row,
            ),
            cfg,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &PerceptronConfig {
        &self.cfg
    }

    fn index(&self, pc: u64) -> u64 {
        bits::mix64(pc >> 1) & bits::mask(bits::clog2(self.cfg.entries))
    }

    fn weight_max(&self) -> i16 {
        ((1u32 << (self.cfg.weight_bits - 1)) - 1) as i16
    }

    fn dot(&self, row: &[i16], ghist: &cobra_sim::HistoryRegister) -> i32 {
        let mut sum = row[0] as i32; // bias weight
        for i in 0..self.cfg.hist_len.min(ghist.width()) {
            let x = if ghist.bit(i) { 1 } else { -1 };
            sum += row[i as usize + 1] as i32 * x;
        }
        sum
    }
}

impl Component for Perceptron {
    fn kind(&self) -> &'static str {
        "perceptron"
    }

    fn latency(&self) -> u8 {
        self.cfg.latency
    }

    fn meta_bits(&self) -> u32 {
        19
    }

    fn field_profile(&self) -> FieldProfile {
        // The dot product always yields a direction (the pipeline always
        // supplies histories to a latency ≥ 2 component).
        FieldProfile {
            may: FieldSet::TAKEN,
            always: FieldSet::TAKEN,
        }
    }

    fn required_ghist_bits(&self) -> u32 {
        self.cfg.hist_len
    }

    fn index_functions(&self) -> Vec<IndexDescriptor> {
        // History enters only the dot product, never the row index.
        vec![IndexDescriptor {
            table: "perceptron-weights".into(),
            sets: self.cfg.entries,
            pc_bits: bits::clog2(self.cfg.entries),
            ghist_bits: 0,
            lhist_bits: 0,
            path_bits: 0,
        }]
    }

    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_sram("perceptron-weights", self.weights.spec());
        r
    }

    fn accesses(&self) -> Vec<crate::types::AccessReport> {
        let (reads, writes) = self.weights.access_counts();
        vec![crate::types::AccessReport {
            name: "table".into(),
            spec: self.weights.spec(),
            reads,
            writes,
            rows_touched: self.weights.rows_touched(),
        }]
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        self.weights.begin_cycle(q.cycle);
        let mut pred = PredictionBundle::new(q.width);
        let mut meta = 0u64;
        if let Some(h) = &q.hist {
            let idx = self.index(q.pc);
            let row = self.weights.read(idx).clone();
            let sum = self.dot(&row, h.ghist);
            let taken = sum >= 0;
            for i in 0..q.width as usize {
                pred.slot_mut(i).taken = Some(taken);
            }
            let biased = (sum + (1 << 17)).clamp(0, (1 << 18) - 1) as u64;
            meta |= biased << meta_layout::SUM;
            meta |= (taken as u64) << meta_layout::TAKEN;
        }
        Response {
            pred,
            meta: Meta(meta),
        }
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        use meta_layout::*;
        let sum = bits::field(ev.meta.0, SUM, 18) as i32 - (1 << 17);
        let predicted = bits::field(ev.meta.0, TAKEN, 1) == 1;
        let theta = self.cfg.theta();
        let wmax = self.weight_max();
        // Train on the first resolved conditional branch in the packet (the
        // packet-level prediction applies to it).
        let Some(r) = ev.conditional_branches().next() else {
            return;
        };
        if predicted == r.taken && sum.abs() > theta {
            return; // confident and correct: no training
        }
        self.weights.begin_cycle(0);
        let idx = self.index(ev.pc);
        let mut row = self.weights.read(idx).clone();
        let t = if r.taken { 1i16 } else { -1i16 };
        row[0] = (row[0] + t).clamp(-wmax - 1, wmax);
        for i in 0..self.cfg.hist_len.min(ev.hist.ghist.width()) {
            let x = if ev.hist.ghist.bit(i) { 1i16 } else { -1i16 };
            let w = &mut row[i as usize + 1];
            *w = (*w + t * x).clamp(-wmax - 1, wmax);
        }
        self.weights.write(idx, row);
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.weights.save_state(w, |w, row| {
            w.write_u64(row.len() as u64);
            for &wt in row {
                w.write_i64(i64::from(wt));
            }
        });
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        let row_len = self.cfg.hist_len as u64 + 1;
        self.weights.load_state(r, |r| {
            let n = r.read_u64_capped("weight row length", row_len)?;
            if n != row_len {
                return Err(ContainerError::BadValue {
                    what: "weight row length",
                    got: n,
                });
            }
            let mut row = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let v = r.read_i64("perceptron weight")?;
                if i16::try_from(v).is_err() {
                    return Err(ContainerError::Shape {
                        detail: format!("perceptron weight {v} exceeds i16 range"),
                    });
                }
                row.push(v as i16);
            }
            Ok(row)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{HistoryView, SlotResolution};
    use crate::types::BranchKind;
    use cobra_sim::HistoryRegister;

    fn step(p: &mut Perceptron, ghist: &HistoryRegister, outcome: bool) -> Option<bool> {
        let resp = p.predict(&PredictQuery {
            cycle: 0,
            pc: 0x2000,
            width: 4,
            hist: Some(HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            }),
        });
        let predicted = resp.pred.slot(0).taken;
        let res = [SlotResolution {
            slot: 0,
            kind: BranchKind::Conditional,
            taken: outcome,
            target: 0x40,
        }];
        p.update(&UpdateEvent {
            pc: 0x2000,
            width: 4,
            hist: HistoryView {
                ghist,
                lhist: 0,
                phist: 0,
            },
            meta: resp.meta,
            pred: &resp.pred,
            resolutions: &res,
            mispredicted_slot: None,
        });
        predicted
    }

    #[test]
    fn learns_linearly_separable_pattern() {
        // Outcome = history bit 2 (a simple correlation a perceptron nails).
        let mut p = Perceptron::new(PerceptronConfig::default_size(4));
        let mut ghist = HistoryRegister::new(32);
        let mut correct = 0;
        let mut total = 0;
        for step_i in 0..300 {
            let outcome = ghist.bit(2);
            let predicted = step(&mut p, &ghist, outcome);
            if step_i > 150 {
                total += 1;
                if predicted == Some(outcome) {
                    correct += 1;
                }
            }
            // Interleave an unrelated pseudo-random branch into history.
            ghist.push(outcome);
            ghist.push(step_i % 3 == 0);
        }
        assert!(
            correct * 100 >= total * 95,
            "perceptron should learn h[2] correlation: {correct}/{total}"
        );
    }

    #[test]
    fn weights_saturate() {
        let mut p = Perceptron::new(PerceptronConfig {
            weight_bits: 4,
            ..PerceptronConfig::default_size(4)
        });
        let ghist = HistoryRegister::new(32);
        for _ in 0..100 {
            step(&mut p, &ghist, true);
        }
        let idx = p.index(0x2000);
        let row = p.weights.peek(idx).clone();
        assert!(row.iter().all(|&w| (-8..=7).contains(&w)));
    }

    #[test]
    fn single_prediction_covers_packet() {
        let mut p = Perceptron::new(PerceptronConfig::default_size(4));
        let ghist = HistoryRegister::new(32);
        let resp = p.predict(&PredictQuery {
            cycle: 0,
            pc: 0x2000,
            width: 4,
            hist: Some(HistoryView {
                ghist: &ghist,
                lhist: 0,
                phist: 0,
            }),
        });
        let d0 = resp.pred.slot(0).taken;
        assert!(d0.is_some());
        for i in 1..4 {
            assert_eq!(resp.pred.slot(i).taken, d0);
        }
    }

    #[test]
    fn theta_follows_jimenez() {
        let cfg = PerceptronConfig::default_size(4);
        assert_eq!(cfg.theta(), (1.93 * 24.0 + 14.0) as i32);
    }

    #[test]
    fn update_reads_weights_port_cost_declared() {
        let p = Perceptron::new(PerceptronConfig::default_size(4));
        let (_, spec) = &p.storage().srams[0];
        assert_eq!(spec.ports, cobra_sim::PortKind::TwoReadOneWrite);
    }
}
