//! # cobra-workloads
//!
//! Synthetic workload generation for the COBRA reproduction.
//!
//! The paper evaluates on SPECint2017 (reference inputs, FPGA-hosted,
//! trillions of cycles), Dhrystone, and CoreMark. None of those runs are
//! reproducible in a pure-Rust laptop build, so this crate generates
//! *synthetic programs* — seeded control-flow graphs with parameterized
//! branch behaviours, memory locality, and instruction-level parallelism —
//! that exercise the same predictor phenomena:
//!
//! * [`behavior`] — per-branch dynamic behaviours (loops, biased-random,
//!   patterns, history-correlated);
//! * [`synth`] — the [`ProgramSpec`] generator and [`SyntheticProgram`]
//!   executor (an infinite [`InstructionStream`](cobra_uarch::InstructionStream));
//! * [`mod@spec17`] — ten profiles standing in for the SPECint17 suite;
//! * [`kernels`] — Dhrystone, a CoreMark-like kernel with hammock branches
//!   for the Section VI-C experiment, and predictor stress kernels;
//! * [`cbt`] — the COBRA Binary Trace format: versioned, block-structured,
//!   checksummed on-disk branch traces (spec in `docs/TRACE_FORMAT.md`);
//! * [`replay`] — capture any [`InstructionStream`](cobra_uarch::InstructionStream)
//!   to `.cbt` and replay it byte-identically via [`TraceProgram`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod cbt;
pub mod kernels;
pub mod replay;
pub mod spec17;
pub mod synth;

pub use behavior::{BehaviorState, BranchBehavior};
pub use cbt::{CbtReader, CbtSummary, CbtWriter, StaticImage};
/// The error type of every container reader and writer.
pub use cobra_sim::container::ContainerError;
pub use replay::{capture_stream, capture_to_file, TraceProgram};
pub use spec17::{all_spec17, spec17, SPEC17_NAMES};
pub use synth::{BranchMix, ProgramSpec, SyntheticProgram};
