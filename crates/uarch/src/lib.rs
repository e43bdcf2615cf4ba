//! # cobra-uarch
//!
//! A BOOM-like superscalar out-of-order host-core model for evaluating
//! COBRA-composed branch predictors end-to-end (the role FireSim-simulated
//! BOOM plays in the paper).
//!
//! * [`CoreConfig`] reproduces the paper's Table II machine configuration.
//! * [`Core`] is the simulated machine: a cycle-level frontend (fetch
//!   pipeline with override redirects, predecode, RAS, fetch buffer)
//!   around a [`BranchPredictorUnit`](cobra_core::composer::BranchPredictorUnit),
//!   and a scoreboard out-of-order backend (ROB, issue ports, caches,
//!   in-order commit).
//! * [`InstructionStream`] is the workload interface: the architectural
//!   instruction sequence plus static decode for wrong-path fetch.
//! * [`PerfReport`] / [`PerfCounters`] are the measured outputs (IPC, MPKI,
//!   accuracy, bubble breakdowns).
//!
//! ```
//! use cobra_core::designs;
//! use cobra_uarch::{Core, CoreConfig, DynInst, IterStream};
//!
//! let insts = (0..2000u64).map(|i| DynInst::int(0x1000 + i * 2));
//! let stream = IterStream::new(0x1000, insts);
//! let mut core = Core::new(&designs::b2(), CoreConfig::boom_4wide(), stream)?;
//! let report = core.run(1000, "straightline");
//! assert!(report.counters.committed_insts >= 1000);
//! # Ok::<(), cobra_core::ComposeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod checkpoint;
mod config;
mod core;
pub mod metrics;
mod perf;
mod program;
mod ras;
pub mod resultcache;
mod tracesim;

pub use crate::core::Core;
pub use cache::{Cache, MemoryHierarchy};
pub use checkpoint::{
    best_resume_checkpoint, config_hash, read_meta, restore_checkpoint, restore_checkpoint_resume,
    save_checkpoint, CbsMeta,
};
/// The error type of every container reader and writer.
pub use cobra_sim::container::ContainerError;
pub use config::{CacheConfig, CoreConfig};
pub use metrics::{read_metrics, reconcile, save_metrics, CbmFile, CbmMeta};
pub use perf::{harmonic_mean, PerfCounters, PerfReport};
pub use program::{CfiOutcome, DynInst, InstructionStream, IterStream, Op, SkipStream, StaticInst};
pub use ras::{RasSnapshot, ReturnAddressStack};
pub use resultcache::{read_result, read_result_meta, save_result, CbrMeta};
pub use tracesim::{TraceSim, TraceStats};
