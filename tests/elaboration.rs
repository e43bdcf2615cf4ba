//! One elaboration per topology: every entry point that turns a topology
//! into a pipeline instantiates each component exactly once, and every
//! input it refuses comes back as one analysis finding with its `C`-code
//! and span.

use cobra::core::composer::{
    BpuConfig, BranchPredictorUnit, ComponentRegistry, Design, PredictorPipeline, Topology,
};
use cobra::core::config::{self, Config};
use cobra::core::{designs, ComposeError, Span};
use cobra::core::{Component, Meta, PredictQuery, PredictionBundle, Response, StorageReport};
use cobra::sim::{ContainerError, StateReader, StateWriter};
use cobra::uarch::{Core, CoreConfig, TraceSim};
use cobra::workloads::spec17;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The process config is global: a test that sets it must not overlap
/// one that builds under it.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

type Counts = Arc<Mutex<BTreeMap<String, usize>>>;

/// `design` with every factory wrapped to count its calls.
fn counted(design: Design) -> (Design, Counts) {
    let counts = Counts::default();
    let mut registry = ComponentRegistry::new();
    let names: Vec<String> = design.registry.names().map(String::from).collect();
    let name = design.name.clone();
    let topology = design.topology.clone();
    let (ghist_bits, lhist_entries) = (design.ghist_bits, design.lhist_entries);
    let inner = Arc::new(design);
    for label in names {
        let (inner, counts) = (Arc::clone(&inner), Arc::clone(&counts));
        registry.register_kind(label.clone(), move |w| {
            *counts.lock().unwrap().entry(label.clone()).or_default() += 1;
            inner.registry.build(&label, w, None).expect("registered")
        });
    }
    let design = Design {
        name,
        topology,
        registry,
        ghist_bits,
        lhist_entries,
    };
    (design, counts)
}

/// Runs `build`, then asserts it called every factory of the design's
/// topology exactly once, and resets the counts.
fn assert_once(what: &str, design: &Design, counts: &Counts, build: impl FnOnce()) {
    counts.lock().unwrap().clear();
    build();
    let got = std::mem::take(&mut *counts.lock().unwrap());
    let want: BTreeMap<String, usize> = Topology::parse(&design.topology)
        .unwrap()
        .component_names()
        .into_iter()
        .map(|n| (n.to_string(), 1))
        .collect();
    assert_eq!(got, want, "{what} of {}", design.name);
}

#[test]
fn every_build_instantiates_each_component_once() {
    let _guard = serialize();
    let before = config::get();
    for verify_plan in [false, true] {
        config::set(Config {
            verify_plan,
            ..(*before).clone()
        });
        for design in [designs::tage_l(), designs::tournament()] {
            let (design, counts) = counted(design);
            let how = |entry: &str| format!("{entry} (verify_plan {verify_plan})");
            assert_once(&how("BranchPredictorUnit::build"), &design, &counts, || {
                BranchPredictorUnit::build(&design, BpuConfig::default()).unwrap();
            });
            assert_once(&how("Core::new"), &design, &counts, || {
                let stream = spec17::spec17("gcc").build();
                Core::new(&design, CoreConfig::boom_4wide(), stream).unwrap();
            });
            assert_once(&how("TraceSim::new"), &design, &counts, || {
                TraceSim::new(&design).unwrap();
            });
            assert_once(
                &how("PredictorPipeline::from_design"),
                &design,
                &counts,
                || {
                    PredictorPipeline::from_design(&design, 8).unwrap();
                },
            );
        }
    }
    config::set((*before).clone());
}

/// A component whose declarations are set by the test.
struct Declared {
    latency: u8,
    meta_bits: u32,
    local_history_bits: u32,
}

impl Component for Declared {
    fn kind(&self) -> &'static str {
        "declared"
    }
    fn latency(&self) -> u8 {
        self.latency
    }
    fn meta_bits(&self) -> u32 {
        self.meta_bits
    }
    fn local_history_bits(&self) -> u32 {
        self.local_history_bits
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
    fn save_state(&self, _w: &mut StateWriter) {}
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        Ok(())
    }
}

/// The stock components plus one per out-of-range declaration.
fn table_registry() -> ComponentRegistry {
    let mut r = designs::stock_registry();
    for (label, latency, meta_bits, local_history_bits) in [
        ("LAT0", 0, 0, 0),
        ("LAT9", 9, 0, 0),
        ("META2", 2, 65, 0),
        ("LHIST2", 2, 0, 65),
    ] {
        r.register(label, move |_| {
            Box::new(Declared {
                latency,
                meta_bits,
                local_history_bits,
            })
        });
    }
    r
}

/// The findings `result` was rejected with; empty when it succeeded.
fn findings<T>(result: Result<T, ComposeError>) -> Vec<(&'static str, Option<Span>)> {
    match result {
        Ok(_) => Vec::new(),
        Err(ComposeError::Analysis { diagnostics }) => diagnostics
            .iter()
            .map(|d| (d.code.code(), d.span))
            .collect(),
        Err(other) => panic!("expected an analysis finding, got {other:?}"),
    }
}

#[test]
fn refusals_map_to_one_code_and_span() {
    let _guard = serialize();
    // (topology, code, span of the finding, compile refuses it too)
    let rows: [(&str, &str, Option<Span>, bool); 7] = [
        ("NOPE9", "C0101", Some(Span::new(0, 5)), true),
        ("TOURNEY3 > BIM2", "C0103", Some(Span::new(0, 8)), true),
        ("LAT0", "C0104", Some(Span::new(0, 4)), true),
        ("LAT9", "C0104", Some(Span::new(0, 4)), true),
        ("META2", "C0301", Some(Span::new(0, 5)), true),
        ("LHIST2", "C0108", Some(Span::new(0, 6)), false),
        (
            "(GBIM2 > UBTB1) > BIM2",
            "C0001",
            Some(Span::new(1, 6)),
            true,
        ),
    ];
    for (topology, code, span, compile_refuses) in rows {
        let want = (code, span);
        let t = Topology::parse(topology).unwrap();
        let compiled = findings(PredictorPipeline::compile(&t, &table_registry(), 8));
        if compile_refuses {
            assert_eq!(compiled, vec![want], "compile `{topology}`");
        } else {
            assert_eq!(compiled, vec![], "compile `{topology}`");
        }
        let design = Design {
            name: "table".into(),
            topology: topology.into(),
            registry: table_registry(),
            ghist_bits: 64,
            lhist_entries: 256,
        };
        let built = findings(BranchPredictorUnit::build(&design, BpuConfig::default()));
        assert!(built.contains(&want), "build `{topology}`: {built:?}");
    }
}
