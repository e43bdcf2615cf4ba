//! Cursor-relative checkpoint restore.
//!
//! `Core::load_state` moves the workload stream only forward, from where
//! the core's stream already is. A core reused for successive checkpoints
//! of one run must therefore land in exactly the state a fresh core does,
//! while pulling only about the last checkpoint's worth of instructions
//! in total. A checkpoint behind the cursor is refused with a precise
//! error.

use cobra::core::designs;
use cobra::sim::{SnapError, StateReader, StateWriter};
use cobra::uarch::{Core, CoreConfig, DynInst, InstructionStream, PerfCounters, StaticInst};
use cobra::workloads::spec17;

/// Committed instructions each restored slice runs.
const SLICE: u64 = 1_500;

/// The read-ahead batch of the core's fetch (`FETCH_BATCH`).
const BATCH: u64 = 4_096;

/// A stream that counts every instruction pulled through it.
struct Counting<S> {
    inner: S,
    pulled: u64,
}

impl<S: InstructionStream> InstructionStream for Counting<S> {
    fn entry_pc(&self) -> u64 {
        self.inner.entry_pc()
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        let i = self.inner.next_inst();
        self.pulled += u64::from(i.is_some());
        i
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let n = self.inner.next_block(out, max);
        self.pulled += n as u64;
        n
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        self.inner.inst_at(pc)
    }
}

fn state_bytes<S: InstructionStream>(core: &Core<S>) -> Vec<u8> {
    let mut w = StateWriter::new();
    core.save_state(&mut w);
    w.finish()
}

fn load<S: InstructionStream>(core: &mut Core<S>, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = StateReader::new(bytes);
    core.load_state(&mut r)?;
    r.finish()
}

/// Runs one slice from the core's restored state and returns its delta.
fn run_slice<S: InstructionStream>(core: &mut Core<S>, boundary: u64) -> PerfCounters {
    let before = *core.counters();
    let report = core.run(boundary + SLICE, "slice");
    assert!(report.counters.committed_insts >= boundary + SLICE);
    report.counters.delta(&before)
}

/// The restore sequence: (case, boundary). Each boundary is taken from
/// one straight run; the reused core restores them in this order.
fn cases() -> Vec<(&'static str, u64)> {
    let b0 = 20_000;
    let b1 = b0 + SLICE; // the previous slice ends exactly here
    let b2 = b1 + SLICE + 1_000; // under one read-ahead batch past it
    let b3 = b2 + SLICE + 3 * BATCH; // several batches past it
    vec![
        ("first", b0),
        ("gap 0", b1),
        ("gap under a batch", b2),
        ("gap over a batch", b3),
    ]
}

#[test]
fn reused_core_restores_equal_fresh_core_restores() {
    let cfg = CoreConfig::boom_4wide();
    let cases = cases();
    for spec in [spec17::spec17("gcc"), spec17::spec17("xz")] {
        for design in designs::all() {
            let who = format!("{} on {}", design.name, spec.name);
            // One straight run, checkpointed at every boundary.
            let mut straight = Core::new(&design, cfg, spec.build()).unwrap();
            let ckpts: Vec<Vec<u8>> = cases
                .iter()
                .map(|&(_, b)| {
                    straight.run(b, "straight");
                    state_bytes(&straight)
                })
                .collect();

            let mut reused = Core::new(
                &design,
                cfg,
                Counting {
                    inner: spec.build(),
                    pulled: 0,
                },
            )
            .unwrap();
            for (&(case, boundary), ckpt) in cases.iter().zip(&ckpts) {
                load(&mut reused, ckpt).unwrap_or_else(|e| panic!("{who}, {case}: {e}"));
                if case == "gap over a batch" {
                    // The same boundary twice: a second restore with no
                    // run in between moves the cursor by nothing.
                    load(&mut reused, ckpt).unwrap_or_else(|e| panic!("{who}, again: {e}"));
                }
                let mut fresh = Core::new(&design, cfg, spec.build()).unwrap();
                load(&mut fresh, ckpt).unwrap();
                assert_eq!(state_bytes(&reused), state_bytes(&fresh), "{who}, {case}");
                assert_eq!(state_bytes(&reused), *ckpt, "{who}, {case}");
                assert_eq!(
                    run_slice(&mut reused, boundary),
                    run_slice(&mut fresh, boundary),
                    "{who}, {case}: slice counters"
                );
            }

            // A backwards boundary: the cursor is past the first
            // checkpoint, which must be refused, not replayed wrongly.
            let err = load(&mut reused, &ckpts[0]).unwrap_err();
            assert!(
                matches!(&err, SnapError::Shape { detail } if detail.contains("behind")),
                "{who}: {err}"
            );

            // The reused core pulled about the last boundary's reads (plus
            // the last slice and one read-ahead batch), not the sum of
            // every restore's reads as fresh cores would.
            let last = cases.last().unwrap().1 + SLICE;
            let sum: u64 = cases.iter().map(|&(_, b)| b).sum();
            let pulled = reused.into_stream().pulled;
            assert!(
                pulled >= last && pulled <= last + 2 * BATCH,
                "{who}: pulled {pulled}, last slice ends at {last}"
            );
            assert!(pulled < sum / 2, "{who}: pulled {pulled}, sum {sum}");
        }
    }
}
