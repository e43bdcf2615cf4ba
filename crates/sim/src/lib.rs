//! # cobra-sim
//!
//! Cycle-level simulation primitives shared by the COBRA framework crates.
//!
//! This crate plays the role that a hardware construction language's standard
//! library plays for the original (Chisel) COBRA: it provides the small,
//! heavily-reused building blocks out of which predictor sub-components and
//! the host core are assembled:
//!
//! * [`SaturatingCounter`] — n-bit up/down saturating counters, the universal
//!   currency of direction prediction.
//! * [`HistoryRegister`] — a wide speculative shift register with snapshot
//!   save/restore, used for global branch history.
//! * [`FoldedHistory`] — incrementally-folded history compression as used by
//!   hardware TAGE index/tag hash functions.
//! * [`SramModel`] — a behavioural single/dual-ported SRAM with port-usage
//!   accounting, so predictor structures can be checked against their port
//!   budget and costed by the area model.
//! * [`CircularBuffer`] — the ring-buffer shape used by the composer's
//!   history file.
//! * [`TokenSlab`] — an O(1) ring-backed map from sequential packet ids to
//!   per-packet side state, replacing ordered maps on the hot path.
//! * [`Fifo`] — a bounded queue with hardware-like enqueue/dequeue semantics
//!   for the host-core pipeline.
//! * [`SplitMix64`] — a tiny deterministic RNG for stimulus and for the rare
//!   randomized hardware policies (e.g. TAGE allocation victim choice).
//! * [`bits`] — bit-field extraction and hash-mixing helpers.
//! * [`varint`] — LEB128/ZigZag integer coding and [`Crc32c`] checksums,
//!   the serialization primitives under the binary containers.
//! * [`container`] — the frame shared by the four binary containers
//!   (`.cbt`, `.cbs`, `.cbm`, `.cbr`): magic/version/flags prefix,
//!   capped strings, header CRC, identity head, CRC-framed payload,
//!   footer, and one error type.
//! * [`Snapshot`] with [`StateWriter`]/[`StateReader`] — structured
//!   full-state serialization for warm-state checkpoints (the COBRA
//!   Binary Snapshot format, `cobra_uarch::checkpoint`).
//!
//! Everything in this crate is deterministic and allocation-light; the
//! simulator's hot loops run over these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod checksum;
mod circular;
pub mod container;
mod counter;
mod fifo;
mod folded;
mod history;
mod rng;
mod slab;
mod snapshot;
mod sram;
pub mod varint;

pub use checksum::{crc32c, Crc32c};
pub use circular::CircularBuffer;
pub use container::ContainerError;
pub use counter::{CounterState, SaturatingCounter};
pub use fifo::Fifo;
pub use folded::FoldedHistory;
pub use history::{HistoryRegister, HistorySnapshot};
pub use rng::SplitMix64;
pub use slab::TokenSlab;
pub use snapshot::{Snapshot, StateReader, StateWriter};
pub use sram::{PortKind, PortViolation, SramModel, SramSpec};
