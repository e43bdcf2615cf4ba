//! End-to-end fidelity tests for the `.cbs` warm-state checkpoint path.
//!
//! The contract under test (ISSUE: warm-state checkpoints): a core
//! restored from a checkpoint taken at the warmup boundary produces a
//! `PerfReport` *byte-identical* to the straight-through run — for every
//! stock design on every SPECint17 profile — and any corruption or
//! identity mismatch is rejected up front with a precise error, never
//! discovered as silent measurement skew.

use cobra_bench::{ckpt_file_name, run_one_sourced};
use cobra_core::composer::Design;
use cobra_core::config::{self, Config};
use cobra_core::designs;
use cobra_uarch::{
    restore_checkpoint, save_checkpoint, CacheConfig, CbsMeta, ContainerError, Core, CoreConfig,
};
use cobra_workloads::{spec17, ProgramSpec, SPEC17_NAMES};

const MEASURE: u64 = 20_000;
const WARMUP: u64 = MEASURE * 2 / 5;

/// Runs `spec` on `design` to the warmup boundary and serializes the warm
/// state to memory.
fn checkpoint_bytes(design: &Design, cfg: &CoreConfig, spec: &ProgramSpec, warmup: u64) -> Vec<u8> {
    let mut core = Core::new(design, *cfg, spec.build()).expect("stock designs compose");
    core.run(warmup, &spec.name);
    let meta = CbsMeta::for_run(design, cfg, &spec.name, warmup);
    let mut bytes = Vec::new();
    save_checkpoint(&mut bytes, &meta, &core).expect("in-memory save cannot fail");
    bytes
}

/// A boom_4wide variant with four-set caches, so checkpoints stay small
/// enough for the quadratic hostile-input sweeps below. Only capacities
/// shrink; each level keeps its stock hit latency (the fetch stage treats
/// any nonzero L1I latency as a stall-and-retry, so it must stay 0).
fn tiny_cfg() -> CoreConfig {
    let base = CoreConfig::boom_4wide();
    let shrink = |mut c: CacheConfig| {
        c.size_bytes = c.ways * c.line_bytes * 4;
        c
    };
    CoreConfig {
        l1i: shrink(base.l1i),
        l1d: shrink(base.l1d),
        l2: shrink(base.l2),
        l3: shrink(base.l3),
        ..base
    }
}

/// A small valid checkpoint for the corruption sweeps: B2 (the smallest
/// stock design) on xz with tiny caches.
fn small_checkpoint() -> (Design, CoreConfig, ProgramSpec, Vec<u8>) {
    let design = designs::b2();
    let cfg = tiny_cfg();
    let spec = spec17::spec17("xz");
    let bytes = checkpoint_bytes(&design, &cfg, &spec, 2_000);
    (design, cfg, spec, bytes)
}

/// The headline acceptance criterion: for every stock design on every
/// SPECint17 profile, restoring a warmup-boundary checkpoint into a fresh
/// core and running the measured region yields a `PerfReport` equal in
/// every field to the straight-through warmup-and-measure run — same
/// counters, same attribution, cycle for cycle.
#[test]
fn restored_report_is_byte_identical_for_all_designs_and_profiles() {
    let cfg = CoreConfig::boom_4wide();
    for name in SPEC17_NAMES {
        let spec = spec17::spec17(name);
        for design in designs::all() {
            let direct = {
                let mut core =
                    Core::new(&design, cfg, spec.build()).expect("stock designs compose");
                core.run_with_warmup(WARMUP, MEASURE, &spec.name)
            };
            let bytes = checkpoint_bytes(&design, &cfg, &spec, WARMUP);
            let restored = {
                let mut core =
                    Core::new(&design, cfg, spec.build()).expect("stock designs compose");
                let meta = CbsMeta::for_run(&design, &cfg, &spec.name, WARMUP);
                restore_checkpoint(&bytes[..], &meta, &mut core)
                    .unwrap_or_else(|e| panic!("{name}/{}: restore failed: {e}", design.name));
                core.run_with_warmup(WARMUP, MEASURE, &spec.name)
            };
            assert_eq!(
                direct, restored,
                "{name}/{}: restored PerfReport differs from straight-through",
                design.name
            );
        }
    }
}

/// The harness-level path: with `COBRA_CKPT_DIR` pointing at a directory
/// holding a matching checkpoint, `run_one_sourced` restores it (and says
/// so in its provenance) and still reports byte-identically to the
/// warm-up-from-scratch run. This is the only test in this binary that
/// sets the process config, so it cannot race a parallel test.
#[test]
fn ckpt_dir_restore_matches_direct_end_to_end() {
    let design = designs::tage_l();
    let cfg = CoreConfig::boom_4wide();
    let spec = spec17::spec17("gcc");

    // The harness derives measure from COBRA_INSTS and warmup as 40 % of
    // it; the checkpoint must be taken at exactly that boundary.
    let before = config::get();
    config::set(Config {
        insts: MEASURE,
        ckpt_dir: None,
        ..(*before).clone()
    });
    let direct = run_one_sourced(&design, cfg, &spec, None);
    assert_eq!(direct.checkpoint, None, "no checkpoint dir set yet");

    let dir = std::env::temp_dir().join(format!("cobra-cbs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp checkpoint dir");
    let path = dir.join(ckpt_file_name(&design.name, &spec.name));
    let bytes = checkpoint_bytes(&design, &cfg, &spec, WARMUP);
    std::fs::write(&path, bytes).expect("write checkpoint");

    config::set(Config {
        insts: MEASURE,
        ckpt_dir: Some(dir.clone()),
        ..(*before).clone()
    });
    let restored = run_one_sourced(&design, cfg, &spec, None);
    config::set((*before).clone());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        restored.checkpoint.as_deref(),
        Some(path.as_path()),
        "provenance must record the restored file"
    );
    assert_eq!(
        direct.report, restored.report,
        "restored harness run differs from warm-up-from-scratch"
    );
}

/// A checkpoint only restores into the exact run it was taken from: any
/// identity drift — design, configuration, workload, or warmup boundary —
/// is named precisely, before any state is touched.
#[test]
fn identity_mismatches_are_rejected_up_front() {
    let design = designs::b2();
    let cfg = tiny_cfg();
    let spec = spec17::spec17("xz");
    let bytes = checkpoint_bytes(&design, &cfg, &spec, 2_000);
    let good = CbsMeta::for_run(&design, &cfg, &spec.name, 2_000);
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");

    let wrong_design = CbsMeta::for_run(&designs::tournament(), &cfg, &spec.name, 2_000);
    assert!(matches!(
        restore_checkpoint(&bytes[..], &wrong_design, &mut core),
        Err(ContainerError::IdentityMismatch {
            field: "design",
            ..
        })
    ));

    let mut other_cfg = cfg;
    other_cfg.rob_entries += 1;
    let wrong_cfg = CbsMeta::for_run(&design, &other_cfg, &spec.name, 2_000);
    assert!(matches!(
        restore_checkpoint(&bytes[..], &wrong_cfg, &mut core),
        Err(ContainerError::IdentityMismatch {
            field: "config hash",
            ..
        })
    ));

    let wrong_workload = CbsMeta::for_run(&design, &cfg, "gcc", 2_000);
    assert!(matches!(
        restore_checkpoint(&bytes[..], &wrong_workload, &mut core),
        Err(ContainerError::IdentityMismatch {
            field: "workload",
            ..
        })
    ));

    let wrong_warmup = CbsMeta::for_run(&design, &cfg, &spec.name, 2_001);
    assert!(matches!(
        restore_checkpoint(&bytes[..], &wrong_warmup, &mut core),
        Err(ContainerError::IdentityMismatch {
            field: "warmup boundary",
            ..
        })
    ));

    // And the untouched core still restores cleanly afterwards.
    restore_checkpoint(&bytes[..], &good, &mut core).expect("matching restore succeeds");
}

/// Every possible truncation of a valid checkpoint is rejected — never
/// accepted, never a panic.
#[test]
fn every_truncation_is_rejected() {
    let (design, cfg, spec, bytes) = small_checkpoint();
    let good = CbsMeta::for_run(&design, &cfg, &spec.name, 2_000);
    // Detection never depends on prior core contents, so one scratch core
    // serves the whole sweep.
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
    for len in 0..bytes.len() {
        let err = restore_checkpoint(&bytes[..len], &good, &mut core)
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes was accepted"));
        assert!(!err.to_string().is_empty());
    }
}

/// Every single-bit flip anywhere in a valid checkpoint is rejected: the
/// header and payload are both CRC-32C-covered, so no flip can escape.
#[test]
fn every_bit_flip_is_rejected() {
    let (design, cfg, spec, bytes) = small_checkpoint();
    let good = CbsMeta::for_run(&design, &cfg, &spec.name, 2_000);
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
    for i in 0..bytes.len() {
        let bit = i % 8; // one flip per byte keeps this O(n^2) yet covers every byte
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << bit;
        assert!(
            restore_checkpoint(&corrupt[..], &good, &mut core).is_err(),
            "flipping bit {bit} of byte {i} was accepted"
        );
    }
}

/// Targeted corruptions produce the *precise* error the format spec
/// (`docs/CHECKPOINT_FORMAT.md`) promises, not a generic failure.
#[test]
fn corruption_errors_are_precise() {
    let (design, cfg, spec, bytes) = small_checkpoint();
    let good = CbsMeta::for_run(&design, &cfg, &spec.name, 2_000);
    let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");

    // Wrong leading magic.
    let mut c = bytes.clone();
    c[0] = b'X';
    assert!(matches!(
        restore_checkpoint(&c[..], &good, &mut core),
        Err(ContainerError::BadMagic(_))
    ));

    // Future version number (bytes 8..10, little-endian u16) — also
    // breaks the header CRC, but version is checked first so old readers
    // fail with the actionable error.
    let mut c = bytes.clone();
    c[8] = 0xFF;
    c[9] = 0x7F;
    assert!(matches!(
        restore_checkpoint(&c[..], &good, &mut core),
        Err(ContainerError::UnsupportedVersion { got: 0x7FFF, .. })
    ));

    // Payload corruption mid-file is caught by a checksum with
    // stored/computed evidence.
    let mut c = bytes.clone();
    let mid = c.len() / 2;
    c[mid] ^= 0x40;
    match restore_checkpoint(&c[..], &good, &mut core) {
        Err(ContainerError::Checksum {
            stored, computed, ..
        }) => assert_ne!(stored, computed),
        other => panic!("expected a checksum error with stored/computed, got {other:?}"),
    }

    // Appending trailing garbage is counted and rejected.
    let mut c = bytes.clone();
    c.extend_from_slice(b"junk");
    assert!(matches!(
        restore_checkpoint(&c[..], &good, &mut core),
        Err(ContainerError::TrailingBytes {
            what: "footer magic",
            count: 4
        })
    ));
}

/// Applies `edit` to the state payload of a valid `.cbs` file and
/// re-forges the payload length and CRC, so the corruption reaches the
/// state decoder instead of failing the checksum.
fn edit_state_payload(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut rest = bytes;
    cobra_uarch::read_meta(&mut rest).expect("valid header");
    let header_len = bytes.len() - rest.len();
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let mut payload = rest[4..4 + len].to_vec();
    edit(&mut payload);
    let len_bytes = (payload.len() as u32).to_le_bytes();
    let crc = cobra_sim::crc32c(&[&len_bytes[..], &payload].concat());
    let footer = &rest[4 + len + 4..];
    [
        &bytes[..header_len],
        &len_bytes,
        &payload,
        &crc.to_le_bytes(),
        footer,
    ]
    .concat()
}

/// Corruption inside a checksum-valid state payload is reported by the
/// state decoder with an error naming the section or field at fault, and
/// unread state bytes are counted as trailing the state payload.
#[test]
fn state_payload_errors_name_their_field() {
    let (design, cfg, spec, bytes) = small_checkpoint();
    let good = CbsMeta::for_run(&design, &cfg, &spec.name, 2_000);
    let fresh = || Core::new(&design, cfg, spec.build()).expect("stock designs compose");
    let restore = |c: &[u8]| restore_checkpoint(c, &good, &mut fresh());
    restore(&edit_state_payload(&bytes, |_| {})).expect("an untouched payload restores");

    // The payload opens the `core` section: tag, name length, then the
    // name. Flipping its first letter renames the section.
    let renamed = edit_state_payload(&bytes, |p| {
        assert_eq!(&p[2..6], b"core");
        p[2] ^= 0x20;
    });
    match restore(&renamed) {
        Err(e @ ContainerError::SectionName { .. }) => {
            let msg = e.to_string();
            assert!(
                msg.contains("\"core\"") && msg.contains("\"Core\""),
                "{msg}"
            );
        }
        other => panic!("expected SectionName, got {other:?}"),
    }

    // The section's first field is the cycle count; retagging it as a
    // boolean trips the reader's tag check on that field.
    let retagged = edit_state_payload(&bytes, |p| p[6] = 0xD3);
    match restore(&retagged) {
        Err(
            e @ ContainerError::TagMismatch {
                at: 6, got: 0xD3, ..
            },
        ) => {
            assert!(e.to_string().contains("core cycle"), "{e}");
        }
        other => panic!("expected TagMismatch, got {other:?}"),
    }

    // The payload's last byte is the field count the writer recorded for
    // the `core` section; bump it and the reader's count disagrees.
    let recounted = edit_state_payload(&bytes, |p| *p.last_mut().unwrap() += 1);
    match restore(&recounted) {
        Err(e @ ContainerError::FieldCount { .. }) => {
            assert!(e.to_string().contains("section \"core\""), "{e}");
        }
        other => panic!("expected FieldCount, got {other:?}"),
    }

    // One byte past the decoded state.
    let trailing = edit_state_payload(&bytes, |p| p.push(0));
    match restore(&trailing) {
        Err(
            e @ ContainerError::TrailingBytes {
                what: "state payload",
                count: 1,
            },
        ) => assert!(e.to_string().contains("state payload"), "{e}"),
        other => panic!("expected TrailingBytes after the state payload, got {other:?}"),
    }
}
