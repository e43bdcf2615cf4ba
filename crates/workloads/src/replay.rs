//! Trace capture and replay: turn any [`InstructionStream`] into a `.cbt`
//! file, and a `.cbt` file back into an [`InstructionStream`].
//!
//! [`capture_stream`] records a stream prefix — the dynamic instruction
//! sequence plus the static-decode image wrong-path fetch consults — and
//! [`TraceProgram`] replays it. Because both halves of the workload
//! interface are preserved, a replayed run through the full speculating
//! core produces a `PerfReport` *byte-identical* to the execution-driven
//! run over the same stream (enforced by `crates/bench/tests/cbt_roundtrip.rs`).
//!
//! Replay streams block-by-block: memory stays O(block) however long the
//! trace is. [`TraceProgram::open`] runs a full integrity pass
//! ([`CbtReader::validate`]) first, so a corrupted file is rejected up
//! front with a precise [`ContainerError`] instead of failing mid-simulation.

use crate::cbt::{CbtReader, CbtSummary, CbtWriter, StaticImage};
use cobra_sim::container::ContainerError;
use cobra_uarch::{DynInst, InstructionStream, StaticInst};
use std::io::{BufReader, Cursor, Read, Seek, Write};
use std::path::Path;

/// Captures up to `insts` instructions of `stream` into `out` as a CBT
/// trace named `name`, returning the written summary.
///
/// The stream is consumed; callers wanting to also *run* the workload
/// build a second stream from the same spec (generation is seeded, so the
/// two are identical). After the dynamic prefix is recorded, the static
/// image is probed over the observed PC window via
/// [`InstructionStream::inst_at`].
///
/// # Errors
///
/// [`ContainerError::Unencodable`] if the stream yields instructions CBT cannot
/// represent (inconsistent op/CFI fields, disconnected PCs); I/O errors
/// from `out`.
pub fn capture_stream<S, W>(
    stream: &mut S,
    insts: u64,
    name: &str,
    out: W,
) -> Result<CbtSummary, ContainerError>
where
    S: InstructionStream + ?Sized,
    W: Write,
{
    let entry = stream.entry_pc();
    let mut w = CbtWriter::new(out, name, entry)?;
    for _ in 0..insts {
        match stream.next_inst() {
            Some(inst) => w.push(&inst)?,
            None => break,
        }
    }
    let image = match w.pc_window() {
        Some((lo, hi)) => StaticImage::probe(entry, lo, hi, |pc| stream.inst_at(pc)),
        None => StaticImage::empty(),
    };
    w.finish(&image)
}

/// Captures `stream` to a file at `path` (parent directories are
/// created), replacing any existing file.
///
/// # Errors
///
/// As [`capture_stream`], plus file-creation errors.
pub fn capture_to_file<S>(
    stream: &mut S,
    insts: u64,
    name: &str,
    path: &Path,
) -> Result<CbtSummary, ContainerError>
where
    S: InstructionStream + ?Sized,
{
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    capture_stream(stream, insts, name, std::io::BufWriter::new(file))
}

/// A replayed `.cbt` trace, usable anywhere an [`InstructionStream`] is:
/// the full core, [`TraceSim`](cobra_uarch::TraceSim), or the grid
/// binaries (via `COBRA_TRACE_DIR`).
#[derive(Debug)]
pub struct TraceProgram<R: Read + Seek> {
    reader: CbtReader<R>,
    block: Vec<DynInst>,
    pos: usize,
    next_block: usize,
    consumed: u64,
}

impl TraceProgram<BufReader<std::fs::File>> {
    /// Opens and fully validates the trace at `path`.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] from parsing or the integrity pass.
    pub fn open(path: &Path) -> Result<Self, ContainerError> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(BufReader::new(file))
    }
}

impl TraceProgram<Cursor<Vec<u8>>> {
    /// Opens and fully validates a trace held in memory.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] from parsing or the integrity pass.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ContainerError> {
        Self::from_reader(Cursor::new(bytes))
    }
}

impl<R: Read + Seek> TraceProgram<R> {
    /// Opens and fully validates a trace from any seekable reader.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] from parsing or the integrity pass.
    pub fn from_reader(r: R) -> Result<Self, ContainerError> {
        let mut reader = CbtReader::open(r)?;
        reader.validate()?;
        Ok(Self {
            reader,
            block: Vec::new(),
            pos: 0,
            next_block: 0,
            consumed: 0,
        })
    }

    /// The workload name stored in the trace.
    pub fn name(&self) -> &str {
        self.reader.name()
    }

    /// Total dynamic records in the trace.
    pub fn records(&self) -> u64 {
        self.reader.total_records()
    }

    /// Records not yet yielded by [`InstructionStream::next_inst`].
    pub fn remaining(&self) -> u64 {
        self.records().saturating_sub(self.consumed)
    }

    /// Fraction of the trace already replayed, in `[0.0, 1.0]`.
    ///
    /// Progress accessor for observability surfaces (heartbeats, status
    /// lines). An empty trace reports `1.0`: there is nothing left to
    /// replay.
    pub fn replay_fraction(&self) -> f64 {
        let total = self.records();
        if total == 0 {
            return 1.0;
        }
        self.consumed.min(total) as f64 / total as f64
    }
}

impl<R: Read + Seek> InstructionStream for TraceProgram<R> {
    fn entry_pc(&self) -> u64 {
        self.reader.entry_pc()
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        loop {
            if self.pos < self.block.len() {
                let inst = self.block[self.pos];
                self.pos += 1;
                self.consumed += 1;
                return Some(inst);
            }
            if self.next_block >= self.reader.blocks() {
                return None;
            }
            // Validated at open; a failure here means the file changed
            // underneath us, which is not survivable mid-simulation.
            self.block = self
                .reader
                .read_block(self.next_block)
                .unwrap_or_else(|e| panic!("validated trace became unreadable: {e}"));
            self.next_block += 1;
            self.pos = 0;
        }
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let start = out.len();
        while out.len() - start < max {
            if self.pos < self.block.len() {
                let take = (max - (out.len() - start)).min(self.block.len() - self.pos);
                out.extend_from_slice(&self.block[self.pos..self.pos + take]);
                self.pos += take;
                self.consumed += take as u64;
                continue;
            }
            if self.next_block >= self.reader.blocks() {
                break;
            }
            self.block = self
                .reader
                .read_block(self.next_block)
                .unwrap_or_else(|e| panic!("validated trace became unreadable: {e}"));
            self.next_block += 1;
            self.pos = 0;
        }
        out.len() - start
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        self.reader.image().lookup(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec17;
    use crate::synth::ProgramSpec;
    use cobra_core::BranchKind;

    #[test]
    fn capture_then_replay_matches_direct_execution() {
        let spec = ProgramSpec {
            name: "roundtrip".into(),
            seed: 42,
            ..ProgramSpec::default()
        };
        let mut bytes = Vec::new();
        capture_stream(&mut spec.build(), 20_000, "roundtrip", &mut bytes).unwrap();
        let mut replay = TraceProgram::from_bytes(bytes).unwrap();
        assert_eq!(replay.name(), "roundtrip");
        assert_eq!(replay.records(), 20_000);

        let mut direct = spec.build();
        assert_eq!(replay.entry_pc(), direct.entry_pc());
        for i in 0..20_000 {
            assert_eq!(replay.next_inst(), direct.next_inst(), "record {i}");
        }
        assert!(replay.next_inst().is_none(), "trace must end");
    }

    #[test]
    fn replay_preserves_static_decode() {
        let spec = spec17::spec17("xz");
        let mut bytes = Vec::new();
        capture_stream(&mut spec.build(), 30_000, "xz", &mut bytes).unwrap();
        let replay = TraceProgram::from_bytes(bytes).unwrap();
        let direct = spec.build();
        // Probe a window comfortably wider than the code image, plus odd
        // and far-out addresses.
        for pc in (0u64..0x3_0000).step_by(2) {
            assert_eq!(replay.inst_at(pc), direct.inst_at(pc), "pc {pc:#x}");
        }
        assert_eq!(replay.inst_at(0x10001), direct.inst_at(0x10001));
        assert_eq!(replay.inst_at(u64::MAX - 1), direct.inst_at(u64::MAX - 1));
    }

    #[test]
    fn replay_fraction_tracks_consumption() {
        let spec = ProgramSpec {
            name: "fraction".into(),
            seed: 7,
            ..ProgramSpec::default()
        };
        let mut bytes = Vec::new();
        capture_stream(&mut spec.build(), 1_000, "fraction", &mut bytes).unwrap();
        let mut replay = TraceProgram::from_bytes(bytes).unwrap();
        assert_eq!(replay.replay_fraction(), 0.0);
        for _ in 0..250 {
            replay.next_inst().unwrap();
        }
        assert_eq!(replay.replay_fraction(), 0.25);
        assert_eq!(replay.remaining(), 750);
        while replay.next_inst().is_some() {}
        assert_eq!(replay.replay_fraction(), 1.0);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn capture_stops_at_stream_end() {
        use cobra_uarch::IterStream;
        let insts: Vec<DynInst> = (0..100).map(|i| DynInst::int(0x100 + i * 2)).collect();
        let mut s = IterStream::new(0x100, insts.into_iter());
        let mut bytes = Vec::new();
        let summary = capture_stream(&mut s, 1_000_000, "short", &mut bytes).unwrap();
        assert_eq!(summary.records, 100);
        let mut replay = TraceProgram::from_bytes(bytes).unwrap();
        let mut n = 0;
        while replay.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn replay_includes_branch_kinds() {
        // omnetpp's prefix is indirect-heavy, xalancbmk's call-heavy;
        // together they cover every CFI kind.
        let mut kinds = std::collections::BTreeSet::new();
        for name in ["omnetpp", "xalancbmk"] {
            let spec = spec17::spec17(name);
            let mut bytes = Vec::new();
            capture_stream(&mut spec.build(), 100_000, name, &mut bytes).unwrap();
            let mut replay = TraceProgram::from_bytes(bytes).unwrap();
            while let Some(i) = replay.next_inst() {
                if let Some(c) = i.cfi {
                    kinds.insert(format!("{:?}", c.kind));
                }
            }
        }
        for k in [
            BranchKind::Conditional,
            BranchKind::Call,
            BranchKind::Ret,
            BranchKind::Indirect,
        ] {
            assert!(kinds.contains(&format!("{k:?}")), "missing {k:?}");
        }
    }
}
