//! Interface-conformance sweep over the stock label table.
//!
//! `validate::check_component` is the per-component assertion bench; this
//! test guarantees no component ships under a stock label without passing
//! it — including the extension components (ITTAGE, statistical
//! corrector, perceptron) that only appear in non-paper designs. Every
//! built-in design resolves against the same table, so this sweep covers
//! every component of every design.

use cobra::core::designs;
use cobra::core::validate::{check_component, CheckConfig};

/// Every label the stock registry resolves. Kept explicit so a new
/// component cannot be registered without extending the conformance sweep.
const EXPECTED_LABELS: &[&str] = &[
    "BIM2", "BTB2", "GBIM2", "GTAG3", "ITTAGE3", "LBIM2", "LOOP3", "PERC3", "SBIM2", "SC3",
    "TAGE2", "TAGE3", "TOURNEY3", "UBTB1",
];

#[test]
fn stock_registry_covers_expected_labels() {
    let table: Vec<&str> = designs::STOCK_LABELS.iter().map(|row| row.0).collect();
    assert_eq!(table, EXPECTED_LABELS, "stock label table changed");
    let registry = designs::stock_registry();
    let mut names: Vec<String> = registry.names().map(String::from).collect();
    names.sort();
    assert_eq!(names, EXPECTED_LABELS, "stock registry labels changed");
}

#[test]
fn every_registry_component_conforms() {
    // Each label is checked at its own width at 4 and 8 slots, and once
    // more built 8 wide but driven with the default (narrower) check, the
    // way the composer validates sub-components before composing them
    // (Section V-A).
    let width_checked = |width| CheckConfig {
        width,
        ..CheckConfig::default()
    };
    for &(label, factory) in designs::STOCK_LABELS {
        for (width, check) in [
            (4u8, width_checked(4)),
            (8, width_checked(8)),
            (8, CheckConfig::default()),
        ] {
            let mut c = factory(width);
            let violations = check_component(&mut c, check);
            assert!(
                violations.is_empty(),
                "{label} (width {width}, checked at {}) violates the interface \
                 contract: {violations:?}",
                check.width
            );
        }
    }
}
