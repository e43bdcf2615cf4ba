//! Cross-crate integration tests at the composer/BPU protocol level:
//! driving the predictor unit the way the host frontend does, and checking
//! the management structures' invariants.

use cobra::core::composer::{BpuConfig, BranchPredictorUnit, Design};
use cobra::core::{designs, BranchKind, SlotResolution};
use cobra::sim::SplitMix64;

fn build(design: &Design) -> BranchPredictorUnit {
    BranchPredictorUnit::build(
        design,
        BpuConfig {
            history_file_entries: 16,
            ..BpuConfig::default()
        },
    )
    .expect("stock design composes")
}

fn cond(slot: u8, taken: bool, target: u64) -> SlotResolution {
    SlotResolution {
        slot,
        kind: BranchKind::Conditional,
        taken,
        target,
    }
}

#[test]
fn speculative_history_survives_a_random_protocol_storm() {
    // Drive the full query/speculate/revise/accept/resolve/commit protocol
    // with randomized decisions and check the structural invariants the
    // management structures must hold.
    let mut bpu = build(&designs::tage_l());
    let mut rng = SplitMix64::new(0x57011);
    let mut live: Vec<u64> = Vec::new();
    for step in 0..20_000u64 {
        bpu.tick();
        // Fetch.
        if rng.chance(0.8) {
            if let Some(id) = bpu.query(0x1_0000 + rng.below(1 << 9) * 16) {
                bpu.speculate(id, 1);
                live.push(id);
            }
        }
        // Accept the oldest in-flight packet sometimes.
        if rng.chance(0.7) {
            if let Some(&id) = live.first() {
                let depth = bpu.depth();
                if let Some(p) = bpu.prediction(id, depth).copied() {
                    bpu.accept(id, p);
                    // Resolve one branch, occasionally mispredicted.
                    let taken = rng.chance(0.5);
                    let misp = rng.chance(0.15);
                    let redirect = bpu.resolve(id, cond(0, taken, 0x4_0000), misp);
                    if misp {
                        assert!(redirect.is_some(), "mispredict must redirect");
                        // Everything younger is gone.
                        live.retain(|&t| t <= id);
                    }
                    live.retain(|&t| t != id || !misp);
                    let _ = bpu.commit_front();
                    live.retain(|&t| t != id);
                }
            }
        }
        // Occasional full flush (exception).
        if rng.chance(0.01) {
            bpu.flush();
            live.clear();
        }
        assert!(
            bpu.in_flight() <= bpu.config().history_file_entries,
            "history file overflow at step {step}"
        );
        assert!(
            bpu.speculative_ghist().width() == 64,
            "history register width is invariant"
        );
    }
    let stats = bpu.stats();
    assert!(stats.queries > 1000, "storm must exercise queries");
    assert!(stats.mispredicts > 50, "storm must exercise repair");
}

#[test]
fn revise_then_flush_restores_clean_history() {
    let mut bpu = build(&designs::b2());
    let before = bpu.speculative_ghist().clone();
    let a = bpu.query(0x4000).unwrap();
    bpu.speculate(a, 1);
    let mut pred = *bpu.prediction(a, 3).unwrap();
    pred.slot_mut(0).kind = Some(BranchKind::Conditional);
    pred.slot_mut(0).taken = Some(true);
    pred.slot_mut(0).set_target(Some(0x9000));
    bpu.revise(a, &pred, true);
    assert_ne!(*bpu.speculative_ghist(), before, "revision pushed a bit");
    bpu.flush();
    assert_eq!(*bpu.speculative_ghist(), before, "flush rewinds history");
}

#[test]
fn committed_packets_report_their_resolutions() {
    let mut bpu = build(&designs::tournament());
    let a = bpu.query(0x8000).unwrap();
    bpu.speculate(a, 1);
    let p = *bpu.prediction(a, 3).unwrap();
    bpu.accept(a, p);
    bpu.resolve(a, cond(2, true, 0xa000), false);
    bpu.resolve(a, cond(0, false, 0), false);
    let pkt = bpu.commit_front().expect("accepted packet commits");
    assert_eq!(pkt.resolutions.len(), 2);
    assert_eq!(pkt.resolutions[0].slot, 0, "resolutions kept in slot order");
    assert_eq!(pkt.resolutions[1].slot, 2);
    assert_eq!(pkt.mispredicted_slot, None);
}

#[test]
fn meta_storage_tracks_design_shape() {
    // The Tournament's local-history provider must appear in its Meta
    // storage and nowhere else.
    let tourney = build(&designs::tournament());
    let tage = build(&designs::tage_l());
    let has_lhist = |b: &BranchPredictorUnit| {
        b.meta_storage()
            .srams
            .iter()
            .any(|(n, _)| n == "local-history-table")
    };
    assert!(has_lhist(&tourney));
    assert!(!has_lhist(&tage));
}

#[test]
fn topology_dsl_and_composer_agree_on_structure() {
    use cobra::core::composer::{PredictorPipeline, Topology};
    for design in designs::all() {
        let topo = Topology::parse(&design.topology).expect("stock topology parses");
        let pipeline = PredictorPipeline::compile(&topo, &design.registry, 8).expect("compiles");
        assert_eq!(
            pipeline.num_nodes(),
            topo.len(),
            "{}: node count mismatch",
            design.name
        );
        assert_eq!(
            pipeline.depth(),
            3,
            "{}: all stock designs are 3-deep",
            design.name
        );
        // Display round-trip.
        let reparsed = Topology::parse(&topo.to_string()).expect("round-trips");
        assert_eq!(topo, reparsed);
    }
}
