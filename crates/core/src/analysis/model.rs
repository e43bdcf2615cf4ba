//! The resolved design model the analysis passes run over, and the one
//! elaboration of a topology.
//!
//! A [`DesignModel`] is the static elaboration of a topology against a
//! component registry: every resolvable component is instantiated once,
//! its declared properties (latency, arity, metadata width, history
//! requirements, field profile, storage) are read, and the
//! override/arbitration structure is captured as an input graph in
//! dataflow order. Unresolvable names become structural diagnostics
//! instead of failures, so the passes can still report on the rest of the
//! design. The instances are kept: the composer compiles its pipeline
//! from them ([`PredictorPipeline::from_design`]), so no topology is ever
//! walked or instantiated a second time.
//!
//! [`PredictorPipeline::from_design`]: crate::composer::PredictorPipeline::from_design

use super::diagnostics::{DiagCode, Diagnostic};
use crate::composer::{ComponentKind, ComponentRegistry, Topology};
use crate::error::{ComposeError, Span};
use crate::iface::{Component, FieldProfile};

/// Static facts about one component instance in a topology.
#[derive(Debug, Clone)]
pub struct ComponentInfo {
    /// Registry label, e.g. `"TAGE3"`.
    pub label: String,
    /// Component kind, e.g. `"tage"`.
    pub kind: String,
    /// Byte span of this occurrence in the topology text.
    pub span: Span,
    /// Declared response latency.
    pub latency: u8,
    /// Declared `predict_in` arity.
    pub arity: usize,
    /// Declared metadata width in bits.
    pub meta_bits: u32,
    /// Local-history bits the component wants per fetch PC.
    pub local_history_bits: u32,
    /// Global-history bits the component actually reads.
    pub required_ghist_bits: u32,
    /// Which prediction fields the component may/always populates.
    pub profile: FieldProfile,
    /// Declared storage in bits.
    pub storage_bits: u64,
    /// Full storage declaration (per-SRAM specs and flop bits), for the
    /// resource model.
    pub storage: crate::types::StorageReport,
    /// Per-table index-function descriptors, for the interference pass.
    pub index_fns: Vec<crate::iface::IndexDescriptor>,
    /// `true` when this component lowers through the `Custom` escape hatch
    /// (boxed trait object, opaque to the plan compiler).
    pub is_custom: bool,
    /// Indices (into [`DesignModel::components`]) of resolved inputs, in
    /// port order.
    pub inputs: Vec<usize>,
    /// Number of inputs the topology supplies, counting unresolvable ones
    /// (used for arity checking).
    pub declared_inputs: usize,
    /// `true` when this node is an arbitration selector in the topology
    /// (`SEL > [..]`).
    pub is_selector: bool,
}

/// The statically-elaborated form of a design, ready for analysis.
#[derive(Debug)]
pub struct DesignModel {
    /// Design name (or `"<topology>"` for raw topology strings).
    pub name: String,
    /// The topology source text all spans index into.
    pub topology: String,
    /// Fetch width the components were instantiated for.
    pub width: u8,
    /// Global-history register width the design supplies.
    pub ghist_bits: u32,
    /// Local-history entries the design supplies (0 = no local provider).
    pub lhist_entries: u64,
    /// Resolved components in dataflow order (inputs before consumers).
    pub components: Vec<ComponentInfo>,
    /// Index of the final (topmost) component, when it resolved.
    pub final_node: Option<usize>,
    /// Diagnostics produced during resolution (unknown components,
    /// malformed operands).
    pub resolution: Vec<Diagnostic>,
    /// The instances [`components`](Self::components) describe, index for
    /// index, until a pipeline compiled from the model takes them.
    pub(crate) instances: Vec<ComponentKind>,
}

impl DesignModel {
    /// Elaborates `topology_text` against `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`ComposeError::Parse`] when the text does not parse;
    /// resolution problems (unknown names) become diagnostics in
    /// [`resolution`](Self::resolution) instead.
    pub fn build(
        name: &str,
        topology_text: &str,
        registry: &ComponentRegistry,
        width: u8,
        ghist_bits: u32,
        lhist_entries: u64,
    ) -> Result<Self, ComposeError> {
        let (topo, spans) = Topology::parse_spanned(topology_text)?;
        Ok(Self {
            name: name.into(),
            ghist_bits,
            lhist_entries,
            ..Self::elaborate(&topo, spans, topology_text.into(), registry, width)
        })
    }

    /// Elaborates an already-parsed `topology` with no history providers.
    /// `spans` locate its component names in textual order; with `&[]`
    /// they are recovered from the topology's rendering, which becomes
    /// the model's text.
    pub(crate) fn from_topology(
        topology: &Topology,
        spans: &[Span],
        registry: &ComponentRegistry,
        width: u8,
    ) -> Self {
        let text = topology.to_string();
        let spans = match spans {
            [] => Topology::parse_spanned(&text)
                .map(|(_, spans)| spans)
                .unwrap_or_default(),
            given => given.to_vec(),
        };
        Self::elaborate(topology, spans, text, registry, width)
    }

    fn elaborate(
        topology: &Topology,
        spans: Vec<Span>,
        text: String,
        registry: &ComponentRegistry,
        width: u8,
    ) -> Self {
        let mut b = Builder {
            registry,
            width,
            spans,
            next_occurrence: 0,
            components: Vec::new(),
            instances: Vec::new(),
            resolution: Vec::new(),
        };
        let final_node = b.visit(topology);
        Self {
            name: "<topology>".into(),
            topology: text,
            width,
            ghist_bits: 0,
            lhist_entries: 0,
            components: b.components,
            final_node,
            resolution: b.resolution,
            instances: b.instances,
        }
    }

    /// All component indices in the subtree rooted at `idx` (including
    /// `idx` itself).
    pub fn subtree(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            out.push(i);
            stack.extend(self.components[i].inputs.iter().copied());
        }
        out
    }

    /// Sum of declared metadata bits over all resolved components.
    pub fn meta_bits_total(&self) -> u32 {
        self.components.iter().map(|c| c.meta_bits).sum()
    }

    /// Sum of declared component storage in bits (management structures
    /// excluded).
    pub fn component_storage_bits(&self) -> u64 {
        self.components.iter().map(|c| c.storage_bits).sum()
    }

    /// Pipeline depth implied by the declared latencies.
    pub fn depth(&self) -> u8 {
        self.components
            .iter()
            .map(|c| c.latency)
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

struct Builder<'a> {
    registry: &'a ComponentRegistry,
    width: u8,
    /// Span of the n-th component name, in textual (= `component_names`)
    /// order.
    spans: Vec<Span>,
    next_occurrence: usize,
    components: Vec<ComponentInfo>,
    instances: Vec<ComponentKind>,
    resolution: Vec<Diagnostic>,
}

impl Builder<'_> {
    /// Claims the span of the next component name in textual order.
    fn next_span(&mut self) -> Span {
        let s = self
            .spans
            .get(self.next_occurrence)
            .copied()
            .unwrap_or(Span::point(0));
        self.next_occurrence += 1;
        s
    }

    /// Walks the topology, claiming name spans in textual order while
    /// building nodes in dataflow order. Returns the node index for `t`'s
    /// root, or `None` when it (or a parent-relevant part) is unresolvable.
    fn visit(&mut self, t: &Topology) -> Option<usize> {
        match t {
            Topology::Leaf(name) => {
                let span = self.next_span();
                self.add(name, span, Vec::new(), 0, false)
            }
            Topology::Over(a, b) => match &**a {
                Topology::Leaf(name) => {
                    // `a` occurs textually before anything in `b`.
                    let span = self.next_span();
                    let below = self.visit(b);
                    self.add(name, span, below.into_iter().collect(), 1, false)
                }
                compound => {
                    // The composer rejects a compound left operand of `>`;
                    // surface the same rule as a structural diagnostic and
                    // keep walking so the operands still get checked.
                    let up = self.visit(compound);
                    let span = up.map(|i| self.components[i].span);
                    let mut d = Diagnostic::new(
                        DiagCode::ParseError,
                        format!("the left operand of `>` must be a single component, found `{compound}`"),
                    )
                    .with_hint("parenthesized chains can only appear inside arbitration arms");
                    if let Some(span) = span {
                        d = d.with_span(span);
                    }
                    self.resolution.push(d);
                    self.visit(b);
                    up
                }
            },
            Topology::Arbiter { selector, inputs } => {
                let span = self.next_span();
                let resolved: Vec<usize> = inputs.iter().filter_map(|i| self.visit(i)).collect();
                self.add(selector, span, resolved, inputs.len(), true)
            }
        }
    }

    fn add(
        &mut self,
        name: &str,
        span: Span,
        inputs: Vec<usize>,
        declared_inputs: usize,
        is_selector: bool,
    ) -> Option<usize> {
        let Ok(c) = self.registry.build(name, self.width, Some(span)) else {
            self.resolution.push(
                Diagnostic::new(
                    DiagCode::UnknownComponent,
                    format!("unknown component `{name}`: no factory registered under this name"),
                )
                .with_component(name)
                .with_span(span)
                .with_hint("register the component in the design's registry, or fix the spelling"),
            );
            return None;
        };
        let storage = c.storage();
        self.components.push(ComponentInfo {
            label: name.to_string(),
            kind: c.kind().to_string(),
            span,
            latency: c.latency(),
            arity: c.arity(),
            meta_bits: c.meta_bits(),
            local_history_bits: c.local_history_bits(),
            required_ghist_bits: c.required_ghist_bits(),
            profile: c.field_profile(),
            storage_bits: storage.total_bits(),
            storage,
            index_fns: c.index_functions(),
            is_custom: c.is_custom(),
            inputs,
            declared_inputs,
            is_selector,
        });
        self.instances.push(c);
        Some(self.components.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    #[test]
    fn model_resolves_paper_design() {
        let d = designs::tage_l();
        let m = DesignModel::build(&d.name, &d.topology, &d.registry, 8, d.ghist_bits, 0).unwrap();
        assert_eq!(m.components.len(), 5);
        assert!(m.resolution.is_empty());
        let last = &m.components[m.final_node.unwrap()];
        assert_eq!(last.label, "LOOP3");
        assert_eq!(m.depth(), 3);
        // Spans point at the right names.
        for c in &m.components {
            assert_eq!(&m.topology[c.span.start..c.span.end], c.label);
        }
    }

    #[test]
    fn model_links_arbiter_inputs() {
        let d = designs::tournament();
        let m =
            DesignModel::build(&d.name, &d.topology, &d.registry, 8, d.ghist_bits, 256).unwrap();
        let sel = &m.components[m.final_node.unwrap()];
        assert_eq!(sel.label, "TOURNEY3");
        assert!(sel.is_selector);
        assert_eq!(sel.inputs.len(), 2);
        assert_eq!(sel.declared_inputs, 2);
        // First arm is GBIM2 > BTB2: its subtree has two components.
        assert_eq!(m.subtree(sel.inputs[0]).len(), 2);
    }

    #[test]
    fn unknown_component_becomes_diagnostic_not_failure() {
        let d = designs::b2();
        let m =
            DesignModel::build("broken", "GTAG3 > NOPE9 > BIM2", &d.registry, 8, 16, 0).unwrap();
        assert_eq!(m.components.len(), 2, "GTAG3 and BIM2 still resolve");
        assert_eq!(m.resolution.len(), 1);
        let diag = &m.resolution[0];
        assert_eq!(diag.code, DiagCode::UnknownComponent);
        assert_eq!(diag.span, Some(crate::error::Span::new(8, 13)));
    }
}
