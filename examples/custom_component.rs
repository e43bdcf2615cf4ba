//! Implementing a custom sub-component against the COBRA interface and
//! composing it into a pipeline — the extension path the paper's interface
//! section is designed for.
//!
//! The component below is an *agree predictor* flavour of bias table: it
//! predicts whether the incoming prediction should be trusted or inverted,
//! exercising `predict_in`-dependent composition.
//!
//! ```sh
//! cargo run --release --example custom_component
//! ```

use cobra::core::components::{Btb, BtbConfig, Hbim, HbimConfig};
use cobra::core::composer::{ComponentRegistry, Design};
use cobra::core::validate::{check_component, CheckConfig};
use cobra::core::{
    Component, Meta, PredictQuery, PredictionBundle, Response, StorageReport, UpdateEvent,
};
use cobra::sim::{
    bits, ContainerError, PortKind, SaturatingCounter, SramModel, StateReader, StateWriter,
};
use cobra::uarch::{Core, CoreConfig};
use cobra::workloads::spec17;

/// An agree/invert corrector: a table of 2-bit counters voting on whether
/// the prediction below it tends to be right for this (PC, history).
struct AgreePredictor {
    table: SramModel<u8>,
}

impl AgreePredictor {
    fn new(entries: u64) -> Self {
        Self {
            table: SramModel::new(
                entries,
                2,
                PortKind::DualPort,
                SaturatingCounter::weakly_taken(2).value(),
            ),
        }
    }

    fn index(&self, pc: u64, ghist: &cobra::sim::HistoryRegister) -> u64 {
        let n = bits::clog2(self.table.len());
        (bits::mix64(pc >> 1) ^ ghist.folded(10.min(ghist.width()), n)) & bits::mask(n)
    }
}

impl Component for AgreePredictor {
    fn kind(&self) -> &'static str {
        "agree"
    }
    fn latency(&self) -> u8 {
        3
    }
    fn meta_bits(&self) -> u32 {
        2
    }
    fn storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        r.add_sram("agree-table", self.table.spec());
        r
    }

    fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
        let mut meta = 0;
        if let Some(h) = &q.hist {
            let idx = self.index(q.pc, h.ghist);
            self.table.begin_cycle(q.cycle);
            meta = *self.table.read(idx) as u64;
        }
        // Own bundle is empty: the decision is applied in `compose`.
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
        if let Some(r) = own {
            let mut agree = SaturatingCounter::new(2, 0);
            agree.set(r.meta.0 as u8);
            if !agree.is_taken() {
                // Low trust: invert the incoming direction predictions.
                for i in 0..width as usize {
                    if let Some(t) = out.slot(i).taken {
                        out.slot_mut(i).taken = Some(!t);
                    }
                }
            }
        }
        out
    }

    fn update(&mut self, ev: &UpdateEvent<'_>) {
        self.table.begin_cycle(0);
        let idx = self.index(ev.pc, ev.hist.ghist);
        let mut agree = SaturatingCounter::new(2, 0);
        agree.set(bits::field(ev.meta.0, 0, 2) as u8);
        for r in ev.conditional_branches() {
            // Reconstruct what the input predicted: the final output was
            // possibly inverted by us, so undo our own decision.
            let final_taken = ev.pred.slot(r.slot as usize).taken.unwrap_or(false);
            let input_taken = if agree.is_taken() {
                final_taken
            } else {
                !final_taken
            };
            agree.train(input_taken == r.taken);
        }
        self.table.write(idx, agree.value());
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w, |w, &c| w.write_u64(u64::from(c)));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.table
            .load_state(r, |r| Ok(r.read_u64_capped("agree counter", 0xff)? as u8))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Check interface conformance before composing (Section V-A:
    //    components are validated independently).
    let mut c = AgreePredictor::new(1024);
    let violations = check_component(&mut c, CheckConfig::default());
    assert!(
        violations.is_empty(),
        "interface violations: {violations:?}"
    );
    println!("AgreePredictor passes the interface conformance checks.");

    // 2. Compose it above a bimodal+BTB base and evaluate.
    let mut registry = ComponentRegistry::new();
    registry.register("AGREE3", |_w| Box::new(AgreePredictor::new(1024)));
    registry.register("BIM2", |w| Box::new(Hbim::new(HbimConfig::bim(16384, w))));
    registry.register("BTB2", |w| Box::new(Btb::new(BtbConfig::large(w))));
    let design = Design {
        name: "Agree".into(),
        topology: "AGREE3 > BTB2 > BIM2".into(),
        registry,
        ghist_bits: 16,
        lhist_entries: 0,
    };

    let baseline = {
        let mut registry = ComponentRegistry::new();
        registry.register("BIM2", |w| Box::new(Hbim::new(HbimConfig::bim(16384, w))));
        registry.register("BTB2", |w| Box::new(Btb::new(BtbConfig::large(w))));
        Design {
            name: "BIM-only".into(),
            topology: "BTB2 > BIM2".into(),
            registry,
            ghist_bits: 16,
            lhist_entries: 0,
        }
    };

    for d in [&baseline, &design] {
        let mut core = Core::new(d, CoreConfig::boom_4wide(), spec17::spec17("gcc").build())?;
        println!("{}", core.run(150_000, "gcc"));
    }
    println!("\nThe agree layer adds history sensitivity on top of an untagged");
    println!("bimodal base without touching the composer or the base components.");
    Ok(())
}
