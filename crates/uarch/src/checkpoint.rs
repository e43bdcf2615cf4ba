//! The COBRA Binary Snapshot (CBS) format — warm-state checkpoints of a
//! composed pipeline plus its host core.
//!
//! A `.cbs` file is a versioned, self-contained serialization of a
//! [`Core`] at an instruction boundary: every predictor sub-component's
//! tables, the history file with its in-flight packets, the speculative
//! history providers, the RAS, the cache hierarchy, and the workload
//! cursor. Restoring it into a freshly-built core of the same design,
//! configuration, and workload puts the machine in *exactly* the state
//! the straight-through run had at that boundary, so a
//! warmup-once/measure-many grid run produces a
//! [`PerfReport`](crate::PerfReport) byte-identical to the run that never
//! checkpointed.
//!
//! The file is identity-checked before any state is decoded: the header
//! names the design, topology, configuration hash, workload, and warmup
//! boundary, and [`restore_checkpoint`] refuses a file whose identity
//! does not match the core it is asked to fill. The normative
//! specification, including a worked hex example, is in
//! [`docs/CHECKPOINT_FORMAT.md`] at the repository root; this module is
//! the reference implementation.
//!
//! [`docs/CHECKPOINT_FORMAT.md`]: https://github.com/cobra-bp/cobra-rs/blob/main/docs/CHECKPOINT_FORMAT.md
//!
//! The file is a [`cobra_sim::container`] frame: the shared prefix and
//! identity head, then the warmup boundary, the header CRC, and one
//! CRC-framed state payload.

use crate::core::Core;
use crate::program::InstructionStream;
use crate::CoreConfig;
use cobra_core::composer::Design;
use cobra_sim::container::{self, check_field, ContainerError, Format, Identity};
use cobra_sim::{varint, StateReader, StateWriter};
use std::io::{Read, Write};

/// The `.cbs` framing: magic `COBRACBS`, footer `CBSX`, version 1, and a
/// 64 MiB cap on the state payload.
pub const FORMAT: Format = Format {
    name: "CBS",
    magic: *b"COBRACBS",
    footer_magic: *b"CBSX",
    version: 1,
    max_payload: 1 << 26,
};

/// The identity a checkpoint is bound to: which design, configuration,
/// and workload produced it, and at what warmup boundary.
///
/// [`restore_checkpoint`] compares every field against the file header
/// and refuses on any mismatch — a checkpoint can only ever shortcut the
/// exact run that would have produced the same warm state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbsMeta {
    /// Design name (e.g. `"TAGE-L"`).
    pub design: String,
    /// Topology string in the paper's notation.
    pub topology: String,
    /// FNV-1a hash over the full design + core configuration (see
    /// [`config_hash`]).
    pub config_hash: u64,
    /// Workload name the checkpoint was captured running.
    pub workload: String,
    /// Instruction count at which the checkpoint was taken (the warmup
    /// boundary).
    pub warmup_insts: u64,
}

impl CbsMeta {
    /// Builds the identity record for a run of `design` under `cfg` on
    /// `workload`, checkpointed at `warmup_insts`.
    pub fn for_run(design: &Design, cfg: &CoreConfig, workload: &str, warmup_insts: u64) -> Self {
        Self {
            design: design.name.clone(),
            topology: design.topology.clone(),
            config_hash: config_hash(design, cfg),
            workload: workload.to_string(),
            warmup_insts,
        }
    }

    fn identity(&self) -> Identity<&str> {
        Identity {
            design: &self.design,
            topology: &self.topology,
            config_hash: self.config_hash,
            workload: &self.workload,
        }
    }
}

/// FNV-1a 64-bit hash over everything that shapes simulated state: the
/// design's name, topology, and history-provider parameters, and the
/// full core configuration (caches, widths, latencies, predictor
/// management knobs) via their `Debug` renderings.
///
/// Any configuration change — even one that does not alter table
/// geometry — changes the hash, so a stale checkpoint is rejected
/// instead of silently skewing results.
pub fn config_hash(design: &Design, cfg: &CoreConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Field separator, so concatenations cannot collide.
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(design.name.as_bytes());
    eat(design.topology.as_bytes());
    eat(&design.ghist_bits.to_le_bytes());
    eat(&design.lhist_entries.to_le_bytes());
    eat(format!("{cfg:?}").as_bytes());
    h
}

/// Serializes `core` (full predictor + host-core state) into `w` as a
/// `.cbs` file bound to `meta`, and returns the bytes written.
///
/// # Errors
///
/// [`ContainerError::LimitExceeded`] if a name or the state payload is
/// over the format's caps (nothing is written); I/O errors propagate.
pub fn save_checkpoint<W: Write, S: InstructionStream>(
    w: W,
    meta: &CbsMeta,
    core: &Core<S>,
) -> Result<u64, ContainerError> {
    let mut header = container::begin_header(&FORMAT);
    container::put_identity(&mut header, &meta.identity())?;
    varint::write_u64(&mut header, meta.warmup_insts);
    let mut sw = StateWriter::new();
    core.save_state(&mut sw);
    container::write_frame(w, &FORMAT, &header, &sw.finish())
}

/// Parses and checksums a `.cbs` header, returning the identity record
/// without touching the state payload — what `cobra-checkpoint --list`
/// shows.
///
/// # Errors
///
/// Any [`ContainerError`] describing the first malformed header structure.
pub fn read_meta<R: Read>(mut r: R) -> Result<CbsMeta, ContainerError> {
    let mut h = container::read_header(&mut r, &FORMAT)?;
    let Identity {
        design,
        topology,
        config_hash,
        workload,
    } = h.identity()?;
    let warmup_insts = h.varint("header warmup boundary")?;
    h.check("header checksum")?;
    Ok(CbsMeta {
        design,
        topology,
        config_hash,
        workload,
        warmup_insts,
    })
}

/// Restores a `.cbs` file into `core`, which must be built from the same
/// design, configuration, and workload the checkpoint names, and either
/// fresh or still behind the checkpoint in the same run (the workload
/// cursor moves only forward; see [`Core::load_state`]). The whole file
/// is validated — header and payload checksums, identity fields against
/// `expected`, exact payload shape, no trailing bytes — before returning.
///
/// On success the core stands exactly where the capturing run stood at
/// `expected.warmup_insts` committed instructions; calling
/// [`Core::run_with_warmup`] then reproduces the straight-through run's
/// measurement byte-for-byte (the warmup loop is a no-op because the
/// restored core has already committed past the boundary).
///
/// # Errors
///
/// Any [`ContainerError`]. If the error is [`ContainerError::State`],
/// the core may be partially overwritten and must be discarded; identity
/// and checksum errors are detected before any state is written.
pub fn restore_checkpoint<R: Read, S: InstructionStream>(
    r: R,
    expected: &CbsMeta,
    core: &mut Core<S>,
) -> Result<(), ContainerError> {
    restore_inner(r, expected, core, false).map(|_| ())
}

/// Like [`restore_checkpoint`], but accepts a checkpoint captured at an
/// *earlier* warmup boundary than `expected.warmup_insts` (same design,
/// configuration, and workload) and returns the boundary the file was
/// actually taken at. The caller resumes simulation from that boundary —
/// because the machine is deterministic, running the remaining
/// `expected.warmup_insts - stored` instructions lands in exactly the
/// state a straight-through run would have reached.
///
/// This is the tier-2 path of the `cobra-serve` warm cache: a job at a
/// larger instruction bound reuses the warm state of a smaller one and
/// simulates only the remainder.
///
/// # Errors
///
/// Any [`ContainerError`]; an `IdentityMismatch` on the `warmup boundary`
/// field when the stored boundary is *beyond* `expected.warmup_insts`
/// (the overshoot cannot be unwound).
pub fn restore_checkpoint_resume<R: Read, S: InstructionStream>(
    r: R,
    expected: &CbsMeta,
    core: &mut Core<S>,
) -> Result<u64, ContainerError> {
    restore_inner(r, expected, core, true)
}

/// Scans `dir` for the `.cbs` file that best shortcuts a run expecting
/// `expected`: identical design, topology, configuration hash, and
/// workload, captured at the largest warmup boundary not beyond
/// `expected.warmup_insts`. Files that fail to open or parse are
/// skipped, not fatal — a cache directory may hold foreign or damaged
/// entries. Returns the path and its header, or `None`.
pub fn best_resume_checkpoint(
    dir: &std::path::Path,
    expected: &CbsMeta,
) -> Option<(std::path::PathBuf, CbsMeta)> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cbs"))
        .collect();
    // Deterministic scan order, so ties resolve the same way every run.
    paths.sort();
    let mut best: Option<(std::path::PathBuf, CbsMeta)> = None;
    for path in paths {
        let Ok(f) = std::fs::File::open(&path) else {
            continue;
        };
        let Ok(meta) = read_meta(std::io::BufReader::new(f)) else {
            continue;
        };
        if meta.identity().check(&expected.identity()).is_err()
            || meta.warmup_insts > expected.warmup_insts
        {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|(_, b)| meta.warmup_insts > b.warmup_insts)
        {
            best = Some((path, meta));
        }
    }
    best
}

fn restore_inner<R: Read, S: InstructionStream>(
    mut r: R,
    expected: &CbsMeta,
    core: &mut Core<S>,
    allow_earlier_warmup: bool,
) -> Result<u64, ContainerError> {
    let meta = read_meta(&mut r)?;
    meta.identity().check(&expected.identity())?;
    // An earlier boundary passes as the expected one; an overshoot is
    // reported as stored.
    let boundary = if allow_earlier_warmup {
        meta.warmup_insts.max(expected.warmup_insts)
    } else {
        meta.warmup_insts
    };
    check_field("warmup boundary", boundary, expected.warmup_insts)?;
    let payload = container::read_payload(&mut r, &FORMAT)?;
    let mut sr = StateReader::new(&payload);
    core.load_state(&mut sr)?;
    sr.finish()?;
    Ok(meta.warmup_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CfiOutcome, DynInst, IterStream, Op, StaticInst};
    use crate::CoreConfig;
    use cobra_core::{designs, BranchKind};

    /// A deterministic branchy loop: 15 straight-line parcels, a
    /// data-dependent conditional (taken 3 of every 4 trips), and a
    /// backwards jump.
    fn branchy(n: u64) -> IterStream<impl Iterator<Item = DynInst>> {
        IterStream::new(
            0x1000,
            (0..n).map(|i| {
                let slot = i % 16;
                let pc = 0x1000 + slot * 2;
                match slot {
                    7 => DynInst {
                        pc,
                        op: Op::Load {
                            addr: 0x10_0000 + (i / 16) % 4096 * 64,
                        },
                        cfi: None,
                        dep: 0,
                    },
                    11 => DynInst {
                        pc,
                        op: Op::Cfi,
                        cfi: Some(CfiOutcome {
                            kind: BranchKind::Conditional,
                            taken: (i / 16) % 4 != 3,
                            target: 0x1000 + 13 * 2,
                            sfb: false,
                        }),
                        dep: 1,
                    },
                    15 => DynInst {
                        pc,
                        op: Op::Cfi,
                        cfi: Some(CfiOutcome {
                            kind: BranchKind::Jump,
                            taken: true,
                            target: 0x1000,
                            sfb: false,
                        }),
                        dep: 0,
                    },
                    _ => DynInst::int(pc),
                }
            }),
        )
    }

    fn fresh_core(cfg: CoreConfig) -> Core<IterStream<impl Iterator<Item = DynInst>>> {
        Core::new(&designs::b2(), cfg, branchy(200_000)).expect("composes")
    }

    fn meta(cfg: &CoreConfig, warmup: u64) -> CbsMeta {
        CbsMeta::for_run(&designs::b2(), cfg, "branchy", warmup)
    }

    fn capture(cfg: CoreConfig, warmup: u64) -> Vec<u8> {
        let mut core = fresh_core(cfg);
        core.run(warmup, "branchy");
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &meta(&cfg, warmup), &core).unwrap();
        buf
    }

    /// A Table II shape with toy caches, so the exhaustive per-byte
    /// hostile-input sweeps stay fast (the serialized hierarchy is the
    /// bulk of a real checkpoint).
    fn tiny_cfg() -> CoreConfig {
        let base = CoreConfig::boom_4wide();
        let shrink = |mut c: crate::CacheConfig| {
            c.size_bytes = c.ways * c.line_bytes * 4; // four sets
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

    #[test]
    fn restored_run_is_byte_identical() {
        const WARMUP: u64 = 8_000;
        const MEASURE: u64 = 20_000;
        let cfg = CoreConfig::boom_4wide();
        // Straight-through run.
        let mut direct = fresh_core(cfg);
        let baseline = direct.run_with_warmup(WARMUP, MEASURE, "branchy");
        // Checkpointed run: warm up, snapshot, restore into a fresh core,
        // then measure.
        let bytes = capture(cfg, WARMUP);
        let mut restored = fresh_core(cfg);
        restore_checkpoint(&bytes[..], &meta(&cfg, WARMUP), &mut restored).unwrap();
        let replayed = restored.run_with_warmup(WARMUP, MEASURE, "branchy");
        assert_eq!(baseline, replayed);
    }

    #[test]
    fn resume_from_earlier_boundary_is_byte_identical() {
        const WARMUP: u64 = 2_000;
        const MEASURE: u64 = 5_000;
        let cfg = tiny_cfg();
        let mut direct = fresh_core(cfg);
        let baseline = direct.run_with_warmup(WARMUP, MEASURE, "branchy");
        // Restore a checkpoint taken at half the warmup boundary, run the
        // remaining warmup, then measure: determinism makes the report
        // byte-identical to the straight-through run.
        let bytes = capture(cfg, 1_000);
        let expected = meta(&cfg, WARMUP);
        let mut resumed = fresh_core(cfg);
        let stored = restore_checkpoint_resume(&bytes[..], &expected, &mut resumed).unwrap();
        assert_eq!(stored, 1_000);
        resumed.run(WARMUP, "branchy");
        let replayed = resumed.run_with_warmup(WARMUP, MEASURE, "branchy");
        assert_eq!(baseline, replayed);
        // An equal boundary is accepted; an overshoot is not.
        let exact = capture(cfg, WARMUP);
        let mut core = fresh_core(cfg);
        assert_eq!(
            restore_checkpoint_resume(&exact[..], &expected, &mut core).unwrap(),
            WARMUP
        );
        let over = capture(cfg, 3_000);
        let mut core = fresh_core(cfg);
        assert!(matches!(
            restore_checkpoint_resume(&over[..], &expected, &mut core),
            Err(ContainerError::IdentityMismatch {
                field: "warmup boundary",
                ..
            })
        ));
    }

    #[test]
    fn best_resume_checkpoint_picks_latest_eligible() {
        let cfg = tiny_cfg();
        let dir = std::env::temp_dir().join(format!("cobra-cbs-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for warmup in [500u64, 1_500, 3_000] {
            let bytes = capture(cfg, warmup);
            std::fs::write(dir.join(format!("w{warmup}.cbs")), bytes).unwrap();
        }
        // A foreign-identity file and a damaged file must both be skipped.
        let mut other = meta(&cfg, 1_500);
        other.workload = "other".into();
        let mut core = fresh_core(cfg);
        core.run(1_500, "other");
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &other, &core).unwrap();
        std::fs::write(dir.join("foreign.cbs"), buf).unwrap();
        std::fs::write(dir.join("damaged.cbs"), b"COBRACBS junk").unwrap();

        // Boundary 2_000: the 1_500 capture is the best shortcut (3_000
        // overshoots, 500 is dominated).
        let (path, m) = best_resume_checkpoint(&dir, &meta(&cfg, 2_000)).unwrap();
        assert_eq!(m.warmup_insts, 1_500);
        assert!(path.ends_with("w1500.cbs"));
        // Boundary 3_000: the exact capture wins.
        let (_, m) = best_resume_checkpoint(&dir, &meta(&cfg, 3_000)).unwrap();
        assert_eq!(m.warmup_insts, 3_000);
        // Nothing at or below 400.
        assert!(best_resume_checkpoint(&dir, &meta(&cfg, 400)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips() {
        let cfg = tiny_cfg();
        let bytes = capture(cfg, 2_000);
        let m = read_meta(&bytes[..]).unwrap();
        assert_eq!(m, meta(&cfg, 2_000));
    }

    #[test]
    fn identity_mismatches_are_precise() {
        let cfg = tiny_cfg();
        let bytes = capture(cfg, 2_000);
        let mut core = fresh_core(cfg);
        let with = |edit: fn(&mut CbsMeta)| {
            let mut m = meta(&cfg, 2_000);
            edit(&mut m);
            m
        };
        for (field, m) in [
            ("design", with(|m| m.design = "TAGE-L".into())),
            ("topology", with(|m| m.topology = "BIM2".into())),
            ("config hash", with(|m| m.config_hash ^= 1)),
            ("workload", with(|m| m.workload = "other".into())),
            ("warmup boundary", with(|m| m.warmup_insts += 1)),
        ] {
            match restore_checkpoint(&bytes[..], &m, &mut core) {
                Err(ContainerError::IdentityMismatch { field: f, .. }) if f == field => {}
                other => panic!("{field}: expected IdentityMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn config_hash_sees_every_knob() {
        let base = config_hash(&designs::b2(), &CoreConfig::boom_4wide());
        let mut cfg = CoreConfig::boom_4wide();
        cfg.dram_latency += 1;
        assert_ne!(base, config_hash(&designs::b2(), &cfg));
        assert_ne!(
            base,
            config_hash(&designs::tage_l(), &CoreConfig::boom_4wide())
        );
    }

    #[test]
    fn error_messages_are_precise() {
        let e = check_field("design", "B2", "TAGE-L").unwrap_err();
        let s = e.to_string();
        assert!(s.contains("B2") && s.contains("TAGE-L"), "{s}");
        assert!(ContainerError::BadMagic(&FORMAT)
            .to_string()
            .contains("COBRACBS"));
    }

    #[test]
    fn static_lookup_still_available_after_restore() {
        // Regression guard: restore must not disturb the stream's static
        // decode (wrong-path fetch consults it after the boundary).
        let s = branchy(10);
        assert_eq!(s.inst_at(0x9999), StaticInst::filler());
    }
}
