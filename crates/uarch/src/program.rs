//! The interface between a workload and the simulated core.
//!
//! The core is execution-driven along the architecturally-correct path: an
//! [`InstructionStream`] yields the dynamic instruction sequence the
//! program actually executes. Wrong-path fetch (after a misprediction the
//! frontend runs ahead down the predicted path) sees only *static*
//! instruction information via [`InstructionStream::inst_at`]; wrong-path
//! instructions occupy frontend and predictor resources and are squashed
//! when the mispredicted branch resolves, exercising the repair machinery
//! exactly as real speculation does.

use cobra_core::BranchKind;
use cobra_sim::{ContainerError, StateReader, StateWriter};

/// An instruction's execution class, determining issue port and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Simple integer ALU operation.
    Int,
    /// Integer multiply.
    Mul,
    /// Integer divide (long latency, unpipelined).
    Div,
    /// Memory load from `addr`.
    Load {
        /// Effective address.
        addr: u64,
    },
    /// Memory store to `addr`.
    Store {
        /// Effective address.
        addr: u64,
    },
    /// Floating-point operation.
    Fp,
    /// A control-flow instruction (outcome carried separately).
    Cfi,
}

impl Op {
    /// Serializes the operation into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        match self {
            Op::Int => w.write_u64(0),
            Op::Mul => w.write_u64(1),
            Op::Div => w.write_u64(2),
            Op::Fp => w.write_u64(3),
            Op::Cfi => w.write_u64(4),
            Op::Load { addr } => {
                w.write_u64(5);
                w.write_u64(*addr);
            }
            Op::Store { addr } => {
                w.write_u64(6);
                w.write_u64(*addr);
            }
        }
    }

    /// Decodes an operation written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        Ok(match r.read_u64_capped("op code", 6)? {
            0 => Op::Int,
            1 => Op::Mul,
            2 => Op::Div,
            3 => Op::Fp,
            4 => Op::Cfi,
            5 => Op::Load {
                addr: r.read_u64("load addr")?,
            },
            _ => Op::Store {
                addr: r.read_u64("store addr")?,
            },
        })
    }
}

/// The resolved outcome of a control-flow instruction on the correct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfiOutcome {
    /// Control-flow kind.
    pub kind: BranchKind,
    /// Whether it redirects (always `true` for unconditional kinds).
    pub taken: bool,
    /// The target when taken.
    pub target: u64,
    /// `true` for a short-forwards "hammock" branch eligible for the
    /// Section VI-C predication optimization.
    pub sfb: bool,
}

impl CfiOutcome {
    /// Serializes the outcome into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.kind.code());
        w.write_bool(self.taken);
        w.write_u64(self.target);
        w.write_bool(self.sfb);
    }

    /// Decodes an outcome written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let code = r.read_u64("cfi kind")?;
        let kind = BranchKind::from_code(code).ok_or(ContainerError::BadValue {
            what: "cfi kind",
            got: code,
        })?;
        Ok(CfiOutcome {
            kind,
            taken: r.read_bool("cfi taken")?,
            target: r.read_u64("cfi target")?,
            sfb: r.read_bool("cfi sfb")?,
        })
    }
}

/// One architecturally-executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Instruction address (2-byte parcels).
    pub pc: u64,
    /// Execution class.
    pub op: Op,
    /// Branch outcome, for `Op::Cfi`.
    pub cfi: Option<CfiOutcome>,
    /// Data dependency: this instruction consumes the result of the
    /// instruction `dep` positions earlier in program order (0 = none).
    pub dep: u8,
}

impl DynInst {
    /// A simple integer instruction at `pc` with no dependency.
    pub fn int(pc: u64) -> Self {
        Self {
            pc,
            op: Op::Int,
            cfi: None,
            dep: 0,
        }
    }

    /// Serializes the instruction into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.pc);
        self.op.save_state(w);
        w.write_bool(self.cfi.is_some());
        if let Some(c) = &self.cfi {
            c.save_state(w);
        }
        w.write_u64(u64::from(self.dep));
    }

    /// Decodes an instruction written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, ContainerError> {
        let pc = r.read_u64("inst pc")?;
        let op = Op::load_state(r)?;
        let cfi = if r.read_bool("inst has cfi")? {
            Some(CfiOutcome::load_state(r)?)
        } else {
            None
        };
        Ok(DynInst {
            pc,
            op,
            cfi,
            dep: r.read_u64_capped("inst dep", 0xff)? as u8,
        })
    }
}

/// Static decode information for an arbitrary address (wrong-path fetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Execution class (addresses for memory ops may be placeholders).
    pub op: Op,
    /// CFI kind, if the instruction is a branch or jump.
    pub cfi_kind: Option<BranchKind>,
    /// Statically-known target (direct branches and jumps encode it).
    pub target: Option<u64>,
}

impl StaticInst {
    /// A non-CFI filler instruction.
    pub fn filler() -> Self {
        Self {
            op: Op::Int,
            cfi_kind: None,
            target: None,
        }
    }
}

/// A workload, as consumed by the core.
pub trait InstructionStream {
    /// The program entry point.
    fn entry_pc(&self) -> u64;

    /// The next architecturally-executed instruction, or `None` when the
    /// program ends.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Appends up to `max` upcoming instructions to `out`, returning how
    /// many were appended (0 means the program ended). Equivalent to
    /// repeated [`next_inst`](Self::next_inst) calls; block-backed streams
    /// override it to hand out whole decoded blocks, letting batch drivers
    /// amortize cursor/bounds work — and, behind `&mut dyn` streams,
    /// virtual dispatch — across hundreds of instructions.
    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let start = out.len();
        while out.len() - start < max {
            match self.next_inst() {
                Some(i) => out.push(i),
                None => break,
            }
        }
        out.len() - start
    }

    /// Static decode information at an arbitrary address, used for
    /// predecode of wrong-path fetches. Must be deterministic per address.
    fn inst_at(&self, pc: u64) -> StaticInst;
}

/// A mutable borrow of a stream is itself a stream, so short-lived cores
/// (one per sampled slice) can share a single underlying workload
/// generator without rebuilding it from instruction zero each time.
impl<S: InstructionStream + ?Sized> InstructionStream for &mut S {
    fn entry_pc(&self) -> u64 {
        (**self).entry_pc()
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        (**self).next_inst()
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        (**self).next_block(out, max)
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        (**self).inst_at(pc)
    }
}

/// An adapter turning any iterator of [`DynInst`] into an
/// [`InstructionStream`] with filler wrong-path decode.
///
/// # Examples
///
/// ```
/// use cobra_uarch::{DynInst, InstructionStream, IterStream};
///
/// let insts = (0..4).map(|i| DynInst::int(0x1000 + i * 2));
/// let mut s = IterStream::new(0x1000, insts);
/// assert_eq!(s.next_inst().unwrap().pc, 0x1000);
/// ```
pub struct IterStream<I> {
    entry: u64,
    iter: I,
}

impl<I: Iterator<Item = DynInst>> IterStream<I> {
    /// Wraps `iter` as a stream entering at `entry`.
    pub fn new(entry: u64, iter: I) -> Self {
        Self { entry, iter }
    }
}

impl<I: Iterator<Item = DynInst>> InstructionStream for IterStream<I> {
    fn entry_pc(&self) -> u64 {
        self.entry
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        self.iter.next()
    }

    fn inst_at(&self, _pc: u64) -> StaticInst {
        StaticInst::filler()
    }
}

/// A stream positioned mid-program: construction pulls (and discards) the
/// first `skip` architecturally-executed instructions from `inner`, then
/// re-enters at the PC of the next one. This is the fast-forward half of
/// cold-start phase sampling — workload generators produce tens of
/// millions of instructions per second, so skipping to a slice boundary
/// costs a small fraction of simulating to it.
///
/// Wrong-path decode (`inst_at`) delegates to the underlying program, so
/// a core running a `SkipStream` predecodes exactly what it would have
/// mid-run. The one modelling difference from a checkpoint restore is
/// warm state: the core starts cold at the slice boundary, which is why
/// sampled slices prepend a short warmup (`COBRA_SAMPLE_WARMUP`).
///
/// [`pulls`](Self::pulls) reports how many instructions have been
/// consumed from `inner` in total (skipped + served), so a caller sharing
/// one generator across successive slices knows the cursor position when
/// the core hands the stream back ([`crate::Core::into_stream`]).
pub struct SkipStream<S> {
    inner: S,
    pending: Option<DynInst>,
    entry: u64,
    pulls: u64,
}

impl<S: InstructionStream> SkipStream<S> {
    /// Fast-forwards `inner` past `skip` instructions. If the program
    /// ends first, the stream is simply exhausted (the core will observe
    /// `None` immediately).
    pub fn new(mut inner: S, skip: u64) -> Self {
        let mut pulls = 0u64;
        while pulls < skip {
            if inner.next_inst().is_none() {
                break;
            }
            pulls += 1;
        }
        let pending = inner.next_inst();
        let entry = match &pending {
            Some(i) => {
                pulls += 1;
                i.pc
            }
            None => inner.entry_pc(),
        };
        Self {
            inner,
            pending,
            entry,
            pulls,
        }
    }

    /// Total instructions consumed from the underlying stream so far
    /// (skipped at construction plus served since).
    pub fn pulls(&self) -> u64 {
        self.pulls
    }

    /// Unwraps the underlying stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: InstructionStream> InstructionStream for SkipStream<S> {
    fn entry_pc(&self) -> u64 {
        self.entry
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        if let Some(i) = self.pending.take() {
            return Some(i);
        }
        let i = self.inner.next_inst();
        if i.is_some() {
            self.pulls += 1;
        }
        i
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let start = out.len();
        // `pending` was already counted toward `pulls` at construction;
        // only fresh inner pulls advance the cursor.
        if let Some(i) = self.pending.take() {
            out.push(i);
        }
        let already = out.len() - start;
        let fresh = self.inner.next_block(out, max - already);
        self.pulls += fresh as u64;
        already + fresh
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        self.inner.inst_at(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_stream_yields_in_order() {
        let mut s = IterStream::new(0, (0..3).map(|i| DynInst::int(i * 2)));
        assert_eq!(s.next_inst().unwrap().pc, 0);
        assert_eq!(s.next_inst().unwrap().pc, 2);
        assert_eq!(s.next_inst().unwrap().pc, 4);
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn filler_is_not_a_cfi() {
        let s = IterStream::new(0, std::iter::empty());
        assert!(s.inst_at(0x1234).cfi_kind.is_none());
    }

    #[test]
    fn skip_stream_repositions_and_counts() {
        let base = IterStream::new(0x1000, (0..10).map(|i| DynInst::int(0x1000 + i * 4)));
        let mut s = SkipStream::new(base, 3);
        // Entry is the PC of the first surviving instruction.
        assert_eq!(s.entry_pc(), 0x1000 + 3 * 4);
        assert_eq!(s.pulls(), 4); // 3 skipped + 1 peeked
        assert_eq!(s.next_inst().unwrap().pc, 0x1000 + 3 * 4);
        assert_eq!(s.pulls(), 4); // serving the peek does not re-count
        assert_eq!(s.next_inst().unwrap().pc, 0x1000 + 4 * 4);
        assert_eq!(s.pulls(), 5);
    }

    #[test]
    fn skip_stream_block_pull_matches_serial() {
        let mk = || IterStream::new(0, (0..20).map(|i| DynInst::int(i * 4)));
        let mut a = SkipStream::new(mk(), 5);
        let mut b = SkipStream::new(mk(), 5);
        let mut block = Vec::new();
        let got = a.next_block(&mut block, 8);
        assert_eq!(got, 8);
        for inst in &block {
            assert_eq!(inst.pc, b.next_inst().unwrap().pc);
        }
        assert_eq!(a.pulls(), b.pulls());
    }

    #[test]
    fn skip_stream_past_end_is_exhausted() {
        let base = IterStream::new(0x40, (0..4).map(|i| DynInst::int(0x40 + i * 4)));
        let mut s = SkipStream::new(base, 100);
        assert!(s.next_inst().is_none());
        assert_eq!(s.pulls(), 4);
        // Falls back to the program entry when nothing survives the skip.
        assert_eq!(s.entry_pc(), 0x40);
    }

    #[test]
    fn mut_ref_stream_delegates() {
        let mut base = IterStream::new(0, (0..4).map(|i| DynInst::int(i * 4)));
        {
            let borrowed: &mut _ = &mut base;
            assert_eq!(borrowed.next_inst().unwrap().pc, 0);
            assert_eq!(InstructionStream::entry_pc(&borrowed), 0);
        }
        // The borrow released; the cursor advanced in the base stream.
        assert_eq!(base.next_inst().unwrap().pc, 4);
    }
}
