//! End-to-end fidelity tests for the CBT capture/replay path.
//!
//! The contract under test (ISSUE: trace-driven workload subsystem): a
//! captured `.cbt` trace replays the workload's instruction stream
//! *bit-for-bit*, so a full-core simulation driven by the replay produces
//! a `PerfReport` byte-identical to the execution-driven run — and any
//! corruption of the file is rejected up front with a precise error, not
//! discovered mid-simulation.

use cobra_bench::capture_len;
use cobra_core::designs;
use cobra_uarch::{Core, CoreConfig, InstructionStream};
use cobra_workloads::{capture_stream, spec17, ContainerError, TraceProgram, SPEC17_NAMES};

/// Captures `records` instructions of `name`'s stream into memory.
fn capture_bytes(name: &str, records: u64) -> Vec<u8> {
    let spec = spec17::spec17(name);
    let mut bytes = Vec::new();
    capture_stream(&mut spec.build(), records, name, &mut bytes).unwrap();
    bytes
}

/// Capture → replay reproduces the dynamic stream record-for-record, for
/// every SPECint17 profile. This is the cheap, wide net; the expensive
/// full-core identity check below samples two profiles.
#[test]
fn replay_matches_direct_stream_for_all_profiles() {
    for name in SPEC17_NAMES {
        let records = 30_000u64;
        let bytes = capture_bytes(name, records);
        let mut replay = TraceProgram::from_bytes(bytes).unwrap();
        let mut direct = spec17::spec17(name).build();
        assert_eq!(replay.entry_pc(), direct.entry_pc(), "{name}: entry pc");
        for i in 0..records {
            assert_eq!(
                replay.next_inst(),
                direct.next_inst(),
                "{name}: record {i} diverges"
            );
        }
        assert!(replay.next_inst().is_none(), "{name}: trace must end");
    }
}

/// The headline acceptance criterion: a full speculating-core run fed by
/// the replayed trace produces a `PerfReport` equal in every field to the
/// execution-driven run — same counters, same attribution, cycle for
/// cycle. Covers both a pattern-heavy profile (gcc) and an
/// indirect/call-heavy one (omnetpp) so wrong-path `inst_at` fetches and
/// the RAS/BTB paths are exercised through the static image.
#[test]
fn replayed_core_report_is_byte_identical() {
    let measure = 20_000u64;
    let warmup = measure * 2 / 5;
    for name in ["gcc", "omnetpp"] {
        let spec = spec17::spec17(name);
        let bytes = capture_bytes(name, capture_len(measure));
        for design in designs::all() {
            let direct = {
                let mut core = Core::new(&design, CoreConfig::boom_4wide(), spec.build())
                    .expect("stock designs compose");
                core.run_with_warmup(warmup, measure, &spec.name)
            };
            let replayed = {
                let program = TraceProgram::from_bytes(bytes.clone()).unwrap();
                let mut core = Core::new(&design, CoreConfig::boom_4wide(), program)
                    .expect("stock designs compose");
                core.run_with_warmup(warmup, measure, &spec.name)
            };
            assert_eq!(
                direct, replayed,
                "{name}/{}: replayed PerfReport differs from execution-driven",
                design.name
            );
        }
    }
}

/// Every possible truncation of a valid trace is rejected by
/// `TraceProgram::from_bytes` (which validates exhaustively at open).
#[test]
fn every_truncation_is_rejected() {
    let bytes = capture_bytes("xz", 2_000);
    for len in 0..bytes.len() {
        let err = TraceProgram::from_bytes(bytes[..len].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes was accepted"));
        // No truncation may be reported as a success or a panic; any
        // ContainerError variant is acceptable, but the common ones should be
        // the precise, named ones.
        let msg = err.to_string();
        assert!(!msg.is_empty());
    }
}

/// Every single-bit flip anywhere in a valid trace is rejected: each file
/// region (header, blocks, static image, footer) is CRC-32C-covered, so
/// no flip can escape.
#[test]
fn every_bit_flip_is_rejected() {
    let bytes = capture_bytes("xz", 1_000);
    for i in 0..bytes.len() {
        let bit = i % 8; // one flip per byte keeps this O(n) yet covers every byte
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << bit;
        assert!(
            TraceProgram::from_bytes(corrupt).is_err(),
            "flipping bit {bit} of byte {i} was accepted"
        );
    }
}

/// Targeted corruptions produce the *precise* error the spec promises,
/// not a generic failure.
#[test]
fn corruption_errors_are_precise() {
    let bytes = capture_bytes("xz", 1_000);

    // Wrong leading magic.
    let mut c = bytes.clone();
    c[0] = b'X';
    assert!(matches!(
        TraceProgram::from_bytes(c),
        Err(ContainerError::BadMagic(_))
    ));

    // Future version number (bytes 8..10, little-endian u16) — also
    // breaks the header CRC, but version is checked first so old readers
    // fail with the actionable error.
    let mut c = bytes.clone();
    c[8] = 0xFF;
    c[9] = 0x7F;
    assert!(matches!(
        TraceProgram::from_bytes(c),
        Err(ContainerError::UnsupportedVersion { got: 0x7FFF, .. })
    ));

    // Payload corruption inside the first block: named by block number.
    // The first block starts right after the header; find it by flipping
    // a byte well past the header region but before the footer.
    let mut c = bytes.clone();
    let mid = c.len() / 3;
    c[mid] ^= 0x40;
    match TraceProgram::from_bytes(c) {
        Err(
            ContainerError::BlockChecksum {
                stored, computed, ..
            }
            | ContainerError::Checksum {
                stored, computed, ..
            },
        ) => assert_ne!(stored, computed),
        other => panic!("expected a checksum error with stored/computed, got {other:?}"),
    }

    // Truncation mid-footer names the structure that ran out.
    let short = bytes[..bytes.len() - 4].to_vec();
    let err = TraceProgram::from_bytes(short).expect_err("truncated file accepted");
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") || msg.contains("footer") || msg.contains("magic"),
        "unhelpful truncation error: {msg}"
    );
}
