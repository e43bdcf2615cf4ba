//! # cobra-core
//!
//! A Rust reproduction of **COBRA** (ISPASS 2021): a framework for
//! evaluating *compositions* of hardware branch predictors.
//!
//! The crate has three layers, mirroring the paper:
//!
//! 1. **The interface** (see [`Component`]): the contract a predictor
//!    sub-component implements — pipelined responses at a declared latency,
//!    histories delivered at Fetch-1, superscalar prediction vectors, an
//!    opaque metadata word round-tripped through the framework, and the
//!    five prediction events (`predict`, `fire`, `mispredict`, `repair`,
//!    `update`).
//! 2. **The sub-component library** ([`components`]): bimodal counter
//!    tables with parameterized indexing, a set-associative BTB and a
//!    micro-BTB, a tournament selector, TAGE, a loop predictor, and
//!    extension components (perceptron, statistical corrector).
//! 3. **The composer** ([`composer`]): compiles a topological description
//!    like `LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1` into a complete predictor
//!    pipeline, and generates the management structures — history file,
//!    repair state machine, and global/local history providers — that keep
//!    predictor state consistent through speculation.
//!
//! The three predictor designs evaluated in the paper (Tournament, B2, and
//! TAGE-L) are provided ready-made in [`designs`].
//!
//! ## Quick example
//!
//! ```
//! use cobra_core::composer::{BranchPredictorUnit, BpuConfig};
//! use cobra_core::designs;
//!
//! let mut bpu = BranchPredictorUnit::build(
//!     &designs::tage_l(),
//!     BpuConfig::default(),
//! ).expect("valid topology");
//!
//! // Query a fetch packet; predictions become visible stage by stage.
//! let id = bpu.query(0x8000_0100).expect("history file has room");
//! bpu.tick();
//! let early = bpu.prediction(id, 1).expect("stage-1 prediction");
//! assert_eq!(early.width(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod components;
pub mod composer;
pub mod config;
pub mod designs;
mod error;
mod iface;
pub mod obs;
pub mod sanitize;
mod types;
pub mod validate;

pub use error::{ComposeError, Span};
pub use iface::{
    Component, FieldProfile, FieldSet, FireEvent, HistoryView, IndexDescriptor, PredictQuery,
    Response, SlotResolution, UpdateEvent,
};
pub use types::{
    AccessReport, BranchKind, Meta, PredictionBundle, SlotPrediction, StorageReport,
    MAX_FETCH_WIDTH, SLOT_BYTES,
};
