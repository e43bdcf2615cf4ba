//! Interface-conformance checking for predictor sub-components.
//!
//! The paper's interface places contractual obligations on component
//! implementations that the type system cannot express: metadata must fit
//! its declared width, composition must pass inputs through before the
//! component responds, prediction must be repeatable after a repair, and
//! output widths must be preserved. [`check_component`] drives a component
//! through randomized stimulus and reports every violation — the COBRA
//! analogue of an RTL interface-assertion bench, and the tool that lets
//! sub-components be "designed and validated independently, before
//! evaluation of the complete predictor pipelines" (Section V-A).

use crate::iface::{Component, HistoryView, PredictQuery};
use crate::types::PredictionBundle;
use cobra_sim::{HistoryRegister, SplitMix64};
use std::fmt;

/// A single conformance violation found by [`check_component`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The component's latency is zero.
    ZeroLatency,
    /// Metadata exceeded the declared bit width.
    MetaOverflow {
        /// Declared width in bits.
        declared: u32,
        /// An offending metadata value.
        value: u64,
    },
    /// `compose` with no own response did not pass input 0 through.
    NotPassThrough,
    /// `compose` returned a bundle of the wrong width.
    WidthChanged {
        /// Width fed in.
        expected: u8,
        /// Width returned.
        found: u8,
    },
    /// `compose` was not pure (same arguments, different results).
    ComposeImpure,
    /// A `repair` with the predict-time metadata did not restore the
    /// component's prediction for the same query.
    RepairIneffective,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ZeroLatency => write!(f, "component declares latency 0"),
            Violation::MetaOverflow { declared, value } => write!(
                f,
                "metadata value {value:#x} exceeds declared {declared} bits"
            ),
            Violation::NotPassThrough => {
                write!(f, "compose without a response must pass input 0 through")
            }
            Violation::WidthChanged { expected, found } => {
                write!(f, "compose changed bundle width from {expected} to {found}")
            }
            Violation::ComposeImpure => write!(f, "compose is not a pure function"),
            Violation::RepairIneffective => write!(
                f,
                "repair with predict-time metadata did not restore the prediction"
            ),
        }
    }
}

/// Options for [`check_component`].
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Fetch width to exercise.
    pub width: u8,
    /// Randomized queries to run.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            width: 4,
            queries: 200,
            seed: 0xC0BA,
        }
    }
}

fn random_bundle(rng: &mut SplitMix64, width: u8) -> PredictionBundle {
    let mut b = PredictionBundle::new(width);
    for i in 0..width as usize {
        if rng.chance(0.4) {
            b.slot_mut(i).kind = Some(crate::types::BranchKind::Conditional);
            b.slot_mut(i).taken = Some(rng.chance(0.5));
            if rng.chance(0.7) {
                b.slot_mut(i)
                    .set_target(Some(0x1_0000 + rng.below(1 << 20) * 2));
            }
        }
    }
    b
}

/// Checks a component against the interface contract, returning every
/// violation found (empty = conformant).
///
/// # Examples
///
/// ```
/// use cobra_core::components::{Hbim, HbimConfig};
/// use cobra_core::validate::{check_component, CheckConfig};
///
/// let mut bim = Hbim::new(HbimConfig::bim(1024, 4));
/// assert!(check_component(&mut bim, CheckConfig::default()).is_empty());
/// ```
pub fn check_component(c: &mut dyn Component, cfg: CheckConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed);

    if c.latency() == 0 {
        violations.push(Violation::ZeroLatency);
        return violations;
    }
    let uses_history = c.latency() >= 2;
    let declared_meta = c.meta_bits().min(64);
    let meta_mask = if declared_meta == 64 {
        u64::MAX
    } else {
        (1u64 << declared_meta) - 1
    };

    let mut ghist = HistoryRegister::new(64);
    let arity = c.arity().max(1);

    for step in 0..cfg.queries {
        let pc = 0x8000 + rng.below(1 << 14) * 16;
        let lhist = rng.next_u64() & 0xffff_ffff;
        let hist = HistoryView {
            ghist: &ghist,
            lhist,
            phist: 0,
        };
        let q = PredictQuery {
            cycle: step as u64,
            pc,
            width: cfg.width,
            hist: uses_history.then_some(hist),
        };
        let resp = c.predict(&q);

        // Metadata must fit the declared width.
        let inputs: Vec<PredictionBundle> = (0..arity)
            .map(|_| random_bundle(&mut rng, cfg.width))
            .collect();
        let meta = c.finalize_meta(&resp, &inputs);
        if meta.0 & !meta_mask != 0 && violations.len() < 8 {
            violations.push(Violation::MetaOverflow {
                declared: declared_meta,
                value: meta.0,
            });
        }

        // Pass-through before the component responds.
        let pre = c.compose(cfg.width, None, &inputs);
        if pre != inputs[0] && violations.len() < 8 {
            violations.push(Violation::NotPassThrough);
        }

        // Width preservation and purity of compose.
        let out1 = c.compose(cfg.width, Some(&resp), &inputs);
        let out2 = c.compose(cfg.width, Some(&resp), &inputs);
        if out1.width() != cfg.width && violations.len() < 8 {
            violations.push(Violation::WidthChanged {
                expected: cfg.width,
                found: out1.width(),
            });
        }
        if out1 != out2 && violations.len() < 8 {
            violations.push(Violation::ComposeImpure);
        }

        // Repair must restore the prediction for an identical re-query
        // (components without speculative query-time state satisfy this
        // trivially; the loop predictor relies on its metadata).
        let fire_like = crate::iface::FireEvent {
            pc,
            hist,
            meta,
            pred: &out1,
        };
        c.repair(&fire_like);
        let resp2 = c.predict(&q);
        if resp2.pred != resp.pred && violations.len() < 8 {
            violations.push(Violation::RepairIneffective);
        }
        // Undo the second speculative query too, leaving clean state.
        let meta2 = c.finalize_meta(&resp2, &inputs);
        c.repair(&crate::iface::FireEvent {
            pc,
            hist,
            meta: meta2,
            pred: &out1,
        });

        ghist.push(rng.chance(0.5));
        if violations.len() >= 8 {
            break;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{
        Btb, BtbConfig, Gtag, GtagConfig, Hbim, HbimConfig, LoopConfig, LoopPredictor, MicroBtb,
        MicroBtbConfig, Perceptron, PerceptronConfig, Tage, TageConfig, Tourney, TourneyConfig,
    };
    use crate::iface::Response;
    use crate::types::{Meta, StorageReport};

    #[test]
    fn library_components_conform() {
        let cfg = CheckConfig::default();
        let mut components: Vec<Box<dyn Component>> = vec![
            Box::new(Hbim::new(HbimConfig::bim(1024, 4))),
            Box::new(Hbim::new(HbimConfig::gbim(1024, 8, 4))),
            Box::new(Hbim::new(HbimConfig::lbim(1024, 8, 4))),
            Box::new(Btb::new(BtbConfig::large(4))),
            Box::new(MicroBtb::new(MicroBtbConfig::small(4))),
            Box::new(Gtag::new(GtagConfig::b2(4))),
            Box::new(Tage::new(TageConfig::paper(4))),
            Box::new(LoopPredictor::new(LoopConfig::paper(4))),
            Box::new(Tourney::new(TourneyConfig::paper(4))),
            Box::new(Perceptron::new(PerceptronConfig::default_size(4))),
        ];
        for c in &mut components {
            let v = check_component(c.as_mut(), cfg);
            assert!(v.is_empty(), "{} violates: {:?}", c.kind(), v);
        }
    }

    /// A deliberately broken component: lies about its metadata width.
    struct MetaLiar;
    impl Component for MetaLiar {
        fn kind(&self) -> &'static str {
            "liar"
        }
        fn latency(&self) -> u8 {
            2
        }
        fn meta_bits(&self) -> u32 {
            4
        }
        fn storage(&self) -> StorageReport {
            StorageReport::new()
        }
        fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
            Response {
                pred: PredictionBundle::new(q.width),
                meta: Meta(0xdead_beef),
            }
        }
        fn save_state(&self, _w: &mut cobra_sim::StateWriter) {}
        fn load_state(
            &mut self,
            _r: &mut cobra_sim::StateReader<'_>,
        ) -> Result<(), cobra_sim::ContainerError> {
            Ok(())
        }
    }

    #[test]
    fn catches_metadata_overflow() {
        let v = check_component(&mut MetaLiar, CheckConfig::default());
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::MetaOverflow { .. })));
    }

    /// A component that swallows its input instead of passing through.
    struct Swallower;
    impl Component for Swallower {
        fn kind(&self) -> &'static str {
            "swallower"
        }
        fn latency(&self) -> u8 {
            3
        }
        fn storage(&self) -> StorageReport {
            StorageReport::new()
        }
        fn predict(&mut self, q: &PredictQuery<'_>) -> Response {
            Response {
                pred: PredictionBundle::new(q.width),
                meta: Meta::ZERO,
            }
        }
        fn compose(
            &self,
            width: u8,
            _own: Option<&Response>,
            _inputs: &[PredictionBundle],
        ) -> PredictionBundle {
            PredictionBundle::new(width)
        }
        fn save_state(&self, _w: &mut cobra_sim::StateWriter) {}
        fn load_state(
            &mut self,
            _r: &mut cobra_sim::StateReader<'_>,
        ) -> Result<(), cobra_sim::ContainerError> {
            Ok(())
        }
    }

    #[test]
    fn catches_missing_pass_through() {
        let v = check_component(&mut Swallower, CheckConfig::default());
        assert!(v.contains(&Violation::NotPassThrough));
    }

    #[test]
    fn violation_display_messages() {
        assert!(Violation::ZeroLatency.to_string().contains("latency 0"));
        assert!(Violation::NotPassThrough.to_string().contains("pass"));
    }
}
