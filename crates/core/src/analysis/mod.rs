//! Static analysis of predictor topologies (the `cobra-lint` engine).
//!
//! The analyzer elaborates a topology against its [`ComponentRegistry`]
//! into a [`DesignModel`] — instantiating each component once to read its
//! declared latency, arity, metadata width, history requirements, field
//! profile, storage, and index functions — and then runs static passes
//! over it, without simulating a single fetch packet:
//!
//! * **L1 latency** — override chains must refine monotonically
//!   ([`DiagCode::LatencyInversion`]) and selectors must not arbitrate
//!   before their arms respond ([`DiagCode::SelectorBeforeArm`]);
//! * **L2 metadata** — per-component width caps and the summed
//!   history-file budget, with per-component attribution;
//! * **L3 storage** — per-component accounting, drift against a reference
//!   figure, and the paper Table 1 delta as a note;
//! * **L4 reachability** — components whose predictions can never survive
//!   composition (shadowing, zero-width override windows);
//! * **L5 structure** — duplicates, arity mismatches, invalid latencies,
//!   and history-provider requirements;
//! * **L6 dataflow** ([`dataflow`]) — history-width inference, field-flow,
//!   and index-interference analysis over propagated component metadata.
//!
//! A second tier cross-checks the *compiled* artifacts rather than the
//! topology:
//!
//! * the **plan-soundness verifier** ([`planck`], `P0101`–`P0501`)
//!   re-derives fold schedules and input wiring from component metadata
//!   and checks the lowered [`ExecutionPlan`] against them — run via
//!   [`verify_design_plan`], `cobra-lint --plan`, and (under
//!   `COBRA_VERIFY_PLAN`) inside [`BranchPredictorUnit::build`];
//! * the **resource model** ([`resource`], the `cobra-area` binary)
//!   rolls per-component SRAM geometry and management storage into a
//!   machine-readable budget report, bit-exact with the runtime
//!   accounting.
//!
//! Findings are [`Diagnostic`]s with stable codes, severities, spans into
//! the topology text, and fix hints; an [`AnalysisReport`] renders them
//! human-readable or as JSON. [`BranchPredictorUnit::build`] runs the
//! error-level subset of these passes, so a defective design is rejected
//! with diagnostics instead of producing a silently-broken pipeline.
//!
//! [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build
//! [`ExecutionPlan`]: crate::composer::ExecutionPlan

pub mod dataflow;
pub mod diagnostics;
pub mod model;
pub mod passes;
pub mod planck;
pub mod resource;

pub use diagnostics::{DiagCode, Diagnostic, Severity};
pub use model::{ComponentInfo, DesignModel};
pub use planck::verify_pipeline;
pub use resource::{management_storage_report, ResourceReport};

use crate::composer::{ComponentRegistry, Design, PredictorPipeline};
use crate::error::ComposeError;
use diagnostics::json_str;

/// Knobs for an analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Fetch width components are instantiated for.
    pub width: u8,
    /// History-file metadata budget in bits
    /// ([`DiagCode::MetaBudgetExceeded`] fires above this).
    pub meta_budget_bits: u32,
    /// History-file capacity used for management-storage accounting.
    pub history_file_entries: usize,
    /// Reference component-storage figure in KB;
    /// [`DiagCode::StorageDrift`] fires when the model deviates beyond
    /// [`storage_tolerance`](Self::storage_tolerance).
    pub reference_kb: Option<f64>,
    /// The paper's Table 1 storage figure in KB, reported as a delta in the
    /// [`DiagCode::StorageSummary`] note.
    pub paper_kb: Option<f64>,
    /// Relative tolerance for [`DiagCode::StorageDrift`].
    pub storage_tolerance: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            width: 8,
            meta_budget_bits: 256,
            history_file_entries: 40,
            reference_kb: None,
            paper_kb: None,
            storage_tolerance: 0.25,
        }
    }
}

/// The outcome of analyzing one design.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Design name.
    pub name: String,
    /// The topology text all diagnostic spans index into.
    pub topology: String,
    /// Fetch width the design was analyzed at.
    pub width: u8,
    /// Pipeline depth implied by the declared latencies.
    pub depth: u8,
    /// Global-history register width the design supplies.
    pub ghist_bits: u32,
    /// Summed per-component metadata bits.
    pub meta_bits: u32,
    /// Summed component storage in bits.
    pub component_storage_bits: u64,
    /// Storage of the generated management structures (history file and
    /// providers) in bits.
    pub management_storage_bits: u64,
    /// Per-component static facts, in dataflow order.
    pub components: Vec<ComponentInfo>,
    /// Every finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when no finding is at or above `floor`.
    pub fn is_clean(&self, floor: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < floor)
    }

    /// Total storage (components + management) in KB.
    pub fn total_storage_kb(&self) -> f64 {
        (self.component_storage_bits + self.management_storage_bits) as f64 / 8192.0
    }

    /// Renders the report for terminals: a header, each diagnostic with its
    /// caret line, and a summary count.
    pub fn render_human(&self) -> String {
        let mut out = format!("{}: {}\n", self.name, self.topology);
        out.push_str(&format!(
            "  width {}, depth {}, ghist {} b, metadata {} b, storage {:.2} KB \
             (components {:.2} + management {:.2})\n",
            self.width,
            self.depth,
            self.ghist_bits,
            self.meta_bits,
            self.total_storage_kb(),
            self.component_storage_bits as f64 / 8192.0,
            self.management_storage_bits as f64 / 8192.0,
        ));
        for d in &self.diagnostics {
            for line in d.render(&self.topology).lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!("  {errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// Renders the report as one JSON object.
    pub fn render_json(&self) -> String {
        let components = self
            .components
            .iter()
            .map(|c| {
                format!(
                    "{{\"label\":{},\"kind\":{},\"latency\":{},\"meta_bits\":{},\
                     \"storage_bits\":{}}}",
                    json_str(&c.label),
                    json_str(&c.kind),
                    c.latency,
                    c.meta_bits,
                    c.storage_bits
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let diagnostics = self
            .diagnostics
            .iter()
            .map(Diagnostic::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"design\":{},\"topology\":{},\"width\":{},\"depth\":{},\"ghist_bits\":{},\
             \"meta_bits\":{},\"component_storage_bits\":{},\"management_storage_bits\":{},\
             \"errors\":{},\"warnings\":{},\"components\":[{components}],\
             \"diagnostics\":[{diagnostics}]}}",
            json_str(&self.name),
            json_str(&self.topology),
            self.width,
            self.depth,
            self.ghist_bits,
            self.meta_bits,
            self.component_storage_bits,
            self.management_storage_bits,
            self.errors().count(),
            self.warnings().count(),
        )
    }
}

/// Storage of the management structures [`BranchPredictorUnit::build`]
/// would generate for this model, in bits. See
/// [`resource::management_storage_report`] for the full report.
///
/// [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build
fn management_storage_bits(model: &DesignModel, cfg: &AnalysisConfig) -> u64 {
    resource::management_storage_report(model, cfg).total_bits()
}

/// Analyzes a raw topology string against `registry`.
///
/// # Errors
///
/// Returns [`ComposeError::Parse`] when the text does not parse; every
/// other finding lands in the report's diagnostics.
pub fn analyze_topology(
    name: &str,
    topology: &str,
    registry: &ComponentRegistry,
    ghist_bits: u32,
    lhist_entries: u64,
    cfg: &AnalysisConfig,
) -> Result<AnalysisReport, ComposeError> {
    let model = DesignModel::build(
        name,
        topology,
        registry,
        cfg.width,
        ghist_bits,
        lhist_entries,
    )?;
    let diagnostics = passes::run_all(&model, cfg);
    Ok(AnalysisReport {
        name: model.name.clone(),
        topology: model.topology.clone(),
        width: model.width,
        depth: model.depth(),
        ghist_bits: model.ghist_bits,
        meta_bits: model.meta_bits_total(),
        component_storage_bits: model.component_storage_bits(),
        management_storage_bits: management_storage_bits(&model, cfg),
        components: model.components,
        diagnostics,
    })
}

/// Analyzes a packaged [`Design`].
///
/// # Errors
///
/// Returns [`ComposeError::Parse`] when the design's topology does not
/// parse.
pub fn analyze_design(
    design: &Design,
    cfg: &AnalysisConfig,
) -> Result<AnalysisReport, ComposeError> {
    analyze_topology(
        &design.name,
        &design.topology,
        &design.registry,
        design.ghist_bits,
        design.lhist_entries,
        cfg,
    )
}

/// Compiles `design`'s pipeline and runs the tier-1 plan-soundness
/// verifier over its lowered [`ExecutionPlan`] (the `cobra-lint --plan`
/// entry point).
///
/// Returns the verifier's diagnostics — empty when the plan is sound. The
/// elaborated model rides along so per-node findings carry spans into the
/// topology text.
///
/// # Errors
///
/// Returns the composition error when the pipeline itself cannot be
/// compiled (unknown components, invalid latencies, …) or the topology
/// does not parse.
///
/// [`ExecutionPlan`]: crate::composer::ExecutionPlan
pub fn verify_design_plan(design: &Design, width: u8) -> Result<Vec<Diagnostic>, ComposeError> {
    let pipeline = PredictorPipeline::from_design(design, width)?;
    let model = DesignModel::build(
        &design.name,
        &design.topology,
        &design.registry,
        width,
        design.ghist_bits,
        design.lhist_entries,
    )?;
    Ok(verify_pipeline(&pipeline, Some(&model)))
}

/// The build-time gate: rejects `design` when any error-level pass fires.
///
/// Run by [`BranchPredictorUnit::build`] after pipeline compilation, so a
/// defective topology produces structured diagnostics instead of a
/// silently-broken pipeline.
///
/// # Errors
///
/// [`ComposeError::Parse`] when the topology does not parse, or
/// [`ComposeError::Analysis`] carrying every error-level diagnostic.
///
/// [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build
pub fn gate_design(design: &Design, width: u8) -> Result<(), ComposeError> {
    let cfg = AnalysisConfig {
        width,
        ..AnalysisConfig::default()
    };
    let report = analyze_design(design, &cfg)?;
    let errors: Vec<Diagnostic> = report.errors().cloned().collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(ComposeError::Analysis {
            diagnostics: errors,
        })
    }
}

/// The admission gate for raw topology strings: parses and lints
/// `topology` against `registry` and rejects it when any error-level pass
/// fires — *before* anything is simulated or even elaborated into a
/// pipeline.
///
/// This is what `cobra-serve` runs on every submitted job, so a malformed
/// topology comes back to the client as structured `C`-code diagnostics
/// instead of a worker panic. On success the full [`AnalysisReport`] is
/// returned (a server can surface storage figures or warnings alongside
/// the acceptance).
///
/// # Errors
///
/// [`ComposeError::Parse`] (with a span) when the text does not parse, or
/// [`ComposeError::Analysis`] carrying every error-level diagnostic.
pub fn gate_topology(
    name: &str,
    topology: &str,
    registry: &ComponentRegistry,
    ghist_bits: u32,
    lhist_entries: u64,
    width: u8,
) -> Result<AnalysisReport, ComposeError> {
    let cfg = AnalysisConfig {
        width,
        ..AnalysisConfig::default()
    };
    let report = analyze_topology(name, topology, registry, ghist_bits, lhist_entries, &cfg)?;
    let errors: Vec<Diagnostic> = report.errors().cloned().collect();
    if errors.is_empty() {
        Ok(report)
    } else {
        Err(ComposeError::Analysis {
            diagnostics: errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    #[test]
    fn stock_designs_are_error_and_warning_clean() {
        for d in designs::catalog() {
            let report = analyze_design(&d, &AnalysisConfig::default()).unwrap();
            assert!(
                report.is_clean(Severity::Warning),
                "{} dirty:\n{}",
                d.name,
                report.render_human()
            );
        }
    }

    #[test]
    fn report_always_carries_storage_note() {
        let report = analyze_design(&designs::b2(), &AnalysisConfig::default()).unwrap();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::StorageSummary));
        assert!(report.management_storage_bits > 0);
    }

    #[test]
    fn gate_rejects_latency_inversion() {
        let mut d = designs::tage_l();
        d.topology = "UBTB1 > BIM2".into();
        let err = gate_design(&d, 8).unwrap_err();
        match err {
            ComposeError::Analysis { diagnostics } => {
                assert!(diagnostics.iter().all(|d| d.is_error()));
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == DiagCode::LatencyInversion));
            }
            other => panic!("expected Analysis error, got {other:?}"),
        }
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let report = analyze_design(&designs::b2(), &AnalysisConfig::default()).unwrap();
        let j = report.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"design\":\"B2\""));
        assert!(j.contains("\"diagnostics\":["));
    }
}
