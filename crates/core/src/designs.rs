//! The built-in predictor designs, as data over one stock label table.
//!
//! A topology label names one parameterized sub-component (Section III-G,
//! Fig 5), whatever design it appears in: [`STOCK_LABELS`] maps each label
//! to the one factory that builds it, and every design — catalog entry or
//! raw topology — resolves against the registry built from that table.
//! Two parameterizations of one structure are two labels (`BIM2` and
//! `SBIM2` differ in size, `TAGE3` and `TAGE2` in latency), so a
//! topology's text is the whole design.
//!
//! | Design | Topology | Histories |
//! |---|---|---|
//! | Tournament | `TOURNEY3 > [GBIM2 > BTB2, LBIM2]` | 32-bit global, 256×32-bit local |
//! | B2 | `GTAG3 > BTB2 > BIM2` | 16-bit global |
//! | TAGE-L | `LOOP3 > TAGE3 > BTB2 > SBIM2 > UBTB1` | 64-bit global |
//! | TAGE-SC-L | `LOOP3 > SC3 > TAGE3 > BTB2 > SBIM2 > UBTB1` | 64-bit global |
//! | TAGE-L+IT | `ITTAGE3 > LOOP3 > TAGE3 > BTB2 > SBIM2 > UBTB1` | 64-bit global |
//! | Perceptron | `PERC3 > BTB2 > BIM2` | 32-bit global |
//! | TAGE-L/lat2 | `LOOP3 > TAGE2 > BTB2 > SBIM2 > UBTB1` | 64-bit global |
//!
//! The first three are the paper's designs (Table I / Fig 7); pass any of
//! them to [`BranchPredictorUnit::build`](crate::composer::BranchPredictorUnit::build).

use crate::components::{
    Btb, BtbConfig, CorrectorConfig, Gtag, GtagConfig, Hbim, HbimConfig, IndexScheme, Ittage,
    IttageConfig, LoopConfig, LoopPredictor, MicroBtb, MicroBtbConfig, Perceptron,
    PerceptronConfig, StatisticalCorrector, Tage, TageConfig, Tourney, TourneyConfig,
};
use crate::composer::{ComponentKind, ComponentRegistry, Design};

/// Builds a stock component for a fetch width.
type Factory = fn(u8) -> ComponentKind;

/// Every stock label and the factory of the one component it names, in
/// label order: the single source of [`stock_registry`].
pub const STOCK_LABELS: &[(&str, Factory)] = &[
    // The 16K-entry PC-indexed bimodal base of B2 and Perceptron.
    ("BIM2", |w| Hbim::new(HbimConfig::bim(16384, w)).into()),
    // The 2K-entry BTB every stock design uses.
    ("BTB2", |w| Btb::new(BtbConfig::large(w)).into()),
    // Alpha-style: the global table is indexed by the history register
    // alone — the untagged indexing whose aliasing Section V-B calls out.
    ("GBIM2", |w| {
        Hbim::new(HbimConfig {
            entries: 16384,
            counter_bits: 2,
            index: IndexScheme::GlobalHistory { bits: 14 },
            latency: 2,
            width: w,
            superscalar: true,
        })
        .into()
    }),
    ("GTAG3", |w| Gtag::new(GtagConfig::b2(w)).into()),
    ("ITTAGE3", |w| Ittage::new(IttageConfig::small(w)).into()),
    ("LBIM2", |w| {
        Hbim::new(HbimConfig {
            entries: 1024,
            counter_bits: 2,
            index: IndexScheme::LocalHistory { bits: 32 },
            latency: 2,
            width: w,
            superscalar: true,
        })
        .into()
    }),
    ("LOOP3", |w| LoopPredictor::new(LoopConfig::paper(w)).into()),
    ("PERC3", |w| {
        Perceptron::new(PerceptronConfig::default_size(w)).into()
    }),
    // The TAGE-L family's small (4K-entry) bimodal base.
    ("SBIM2", |w| Hbim::new(HbimConfig::bim(4096, w)).into()),
    ("SC3", |w| {
        StatisticalCorrector::new(CorrectorConfig::small(w)).into()
    }),
    // The Section VI-A variant: the paper's TAGE arbitrating in 2 cycles.
    ("TAGE2", |w| {
        Tage::new(TageConfig {
            latency: 2,
            ..TageConfig::paper(w)
        })
        .into()
    }),
    ("TAGE3", |w| Tage::new(TageConfig::paper(w)).into()),
    ("TOURNEY3", |w| Tourney::new(TourneyConfig::paper(w)).into()),
    ("UBTB1", |w| MicroBtb::new(MicroBtbConfig::small(w)).into()),
];

/// The built-in designs, paper designs first: name, topology, global-history
/// bits and local-history entries. The extension rows add the statistical
/// corrector the paper's TAGE-L deliberately omits; an ITTAGE
/// indirect-target predictor, so indirect dispatch sites (interpreters,
/// virtual calls) get history-correlated targets instead of the BTB's
/// last-target guess; a perceptron in place of TAGE; and the 2-cycle TAGE
/// of the Section VI-A physical-design experiment.
#[rustfmt::skip]
const CATALOG: &[(&str, &str, u32, u64)] = &[
    ("Tournament",  "TOURNEY3 > [GBIM2 > BTB2, LBIM2]",               32, 256),
    ("B2",          "GTAG3 > BTB2 > BIM2",                            16, 0),
    ("TAGE-L",      "LOOP3 > TAGE3 > BTB2 > SBIM2 > UBTB1",           64, 0),
    ("TAGE-SC-L",   "LOOP3 > SC3 > TAGE3 > BTB2 > SBIM2 > UBTB1",     64, 0),
    ("TAGE-L+IT",   "ITTAGE3 > LOOP3 > TAGE3 > BTB2 > SBIM2 > UBTB1", 64, 0),
    ("Perceptron",  "PERC3 > BTB2 > BIM2",                            32, 0),
    ("TAGE-L/lat2", "LOOP3 > TAGE2 > BTB2 > SBIM2 > UBTB1",           64, 0),
];

fn design(&(name, topology, ghist_bits, lhist_entries): &(&str, &str, u32, u64)) -> Design {
    Design {
        name: name.into(),
        ..from_topology(topology, ghist_bits, lhist_entries)
    }
}

/// The "Tournament" design, `TOURNEY3 > [GBIM2 > BTB2, LBIM2]`: a
/// globally-indexed selector choosing between untagged global- and
/// local-history counter tables, similar to the Alpha 21264 and riscyOOO
/// predictors.
///
/// Table I: 32-bit global and 256×32-bit local histories, a 2K-entry BTB
/// with a 16K-entry 2-bit BHT, and 1K tournament counters.
pub fn tournament() -> Design {
    design(&CATALOG[0])
}

/// The "B2" design, `GTAG3 > BTB2 > BIM2`: the original BOOM predictor — a
/// single partially-tagged global-history table backed by a PC-indexed
/// bimodal table.
///
/// Table I: 16-bit global history, 2K partially-tagged plus 16K untagged
/// counters, and a 2K-entry BTB.
pub fn b2() -> Design {
    design(&CATALOG[1])
}

/// The "TAGE-L" design, `LOOP3 > TAGE3 > BTB2 > SBIM2 > UBTB1`: a 7-table
/// TAGE with a loop corrector, micro-BTB, and bimodal base — "vaguely
/// similar to TAGE-SC-L, only with no statistical corrector, and a simpler
/// loop predictor".
///
/// Table I: 64-bit global history, 7 TAGE tables, a 2K-entry BTB with a
/// 32-entry uBTB, and a 256-entry loop predictor.
pub fn tage_l() -> Design {
    design(&CATALOG[2])
}

/// Every stock design — the paper's three, the first catalog rows — for
/// sweep harnesses.
pub fn all() -> Vec<Design> {
    CATALOG[..3].iter().map(design).collect()
}

/// Every built-in design, paper designs first — what `cobra-lint --all`
/// iterates.
pub fn catalog() -> Vec<Design> {
    CATALOG.iter().map(design).collect()
}

/// Looks a built-in design up by its name (as reported by
/// [`Design::name`](crate::composer::Design)), case-insensitively.
pub fn by_name(name: &str) -> Option<Design> {
    CATALOG
        .iter()
        .find(|row| row.0.eq_ignore_ascii_case(name))
        .map(design)
}

/// Wraps a raw topology string as an ad-hoc [`Design`] resolved against
/// [`stock_registry`] — the path `cobra-lint` and `cobra-serve` take for
/// topologies that are not in the catalog. The design's name is the
/// topology text itself.
pub fn from_topology(topology: &str, ghist_bits: u32, lhist_entries: u64) -> Design {
    Design {
        name: topology.into(),
        topology: topology.into(),
        registry: stock_registry(),
        ghist_bits,
        lhist_entries,
    }
}

/// A registry holding every [`STOCK_LABELS`] row — the resolution context
/// of every built-in design and raw topology.
pub fn stock_registry() -> ComponentRegistry {
    let mut registry = ComponentRegistry::new();
    for &(label, factory) in STOCK_LABELS {
        registry.register_kind(label, factory);
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::{BpuConfig, BranchPredictorUnit};
    use crate::iface::Component;

    #[test]
    fn all_designs_compile() {
        for d in catalog() {
            let bpu = BranchPredictorUnit::build(&d, BpuConfig::default());
            assert!(bpu.is_ok(), "design {} failed to build", d.name);
        }
    }

    #[test]
    fn latency_variant_changes_depth() {
        let d3 = BranchPredictorUnit::build(&tage_l(), BpuConfig::default()).unwrap();
        assert_eq!(d3.depth(), 3);
        // With a 2-cycle TAGE the loop predictor (3 cycles) still bounds
        // the depth, but the TAGE responds a stage earlier.
        let tage2 = STOCK_LABELS.iter().find(|row| row.0 == "TAGE2").unwrap();
        assert_eq!((tage2.1)(4).latency(), 2);
        let lat2 = by_name("TAGE-L/lat2").expect("catalog row");
        let d2 = BranchPredictorUnit::build(&lat2, BpuConfig::default()).unwrap();
        assert_eq!(d2.depth(), 3);
    }

    #[test]
    fn storage_ordering_matches_table1() {
        // Table I: TAGE-L (28 KB) is by far the largest; Tournament and B2
        // are of the same order.
        let size = |d: &Design| {
            BranchPredictorUnit::build(d, BpuConfig::default())
                .unwrap()
                .total_storage()
                .kilobytes()
        };
        let t = size(&tournament());
        let b = size(&b2());
        let l = size(&tage_l());
        assert!(
            l > t && l > b,
            "TAGE-L must be the largest: {l} vs {t}, {b}"
        );
    }

    #[test]
    fn tournament_uses_local_histories() {
        let bpu = BranchPredictorUnit::build(&tournament(), BpuConfig::default()).unwrap();
        let meta = bpu.meta_storage();
        assert!(
            meta.srams.iter().any(|(n, _)| n == "local-history-table"),
            "tournament generates a local history provider"
        );
    }
}
