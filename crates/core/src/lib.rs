#![warn(missing_docs)]
// Index-based loops below intentionally mirror the row/column arithmetic
// of the GPU kernels they model.
#![allow(clippy::needless_range_loop)]

//! Virtual Persistent Processor Specialization (VPPS).
//!
//! A reproduction of *In-Register Parameter Caching for Dynamic Neural Nets
//! with Virtual Persistent Processor Specialization* (MICRO 2018) as a Rust
//! library over a simulated Volta-class GPU.
//!
//! VPPS trains dynamic neural networks with the model's weight matrices
//! *persistent in the GPU register file*: a single forward-backward-update
//! kernel is specialized per model before training, and for every batch of
//! (possibly differently shaped) computation graphs the host generates a
//! script that drives each persistent CTA as a CISC-like virtual vector
//! processor. This eliminates the recurring DRAM weight loads and the
//! per-operation kernel-launch overheads that dominate small-batch training
//! in frameworks like DyNet.
//!
//! The crate mirrors the paper's two halves:
//!
//! * **Specialization, once per model** — [`specialize::KernelPlan`] builds
//!   the register [`distribute::Distribution`] (Fig. 4 / Eq. 1), generates
//!   the specialized kernel source (Fig. 5) and models its NVRTC cost
//!   (Table II).
//! * **Script generation + execution, once per batch** — [`script::generate`]
//!   encodes the per-VPP instruction streams with `signal`/`wait` barriers
//!   (Fig. 6), and [`exec`] interprets them over the simulated device on one
//!   deterministic thread; [`script::validate_protocol`] proves the barriers
//!   would order them when every VPP runs at once.
//!
//! The user-facing API is [`Handle`], matching the paper's three calls:
//!
//! ```
//! use dyn_graph::{Graph, Model};
//! use gpu_sim::DeviceConfig;
//! use vpps::{Handle, VppsOptions};
//!
//! let mut model = Model::new(1);
//! let w = model.add_matrix("W", 16, 8);
//! let mut handle = Handle::new(&model, DeviceConfig::titan_v(), VppsOptions::default())?;
//!
//! let mut graph = Graph::new();
//! let x = graph.input(vec![0.5; 8]);
//! let h = graph.matvec(&model, w, x);
//! let loss = graph.pick_neg_log_softmax(h, 3);
//!
//! let stale = handle.fb(&mut model, &graph, loss); // returns previous loss
//! let latest = handle.sync_get_latest_loss();
//! assert_eq!(stale, 0.0);
//! assert!(latest > 0.0);
//! # Ok::<(), vpps::VppsError>(())
//! ```

pub mod distribute;
pub mod engine;
pub mod error;
pub mod exec;
pub mod handle;
pub mod script;
pub mod specialize;

pub use engine::{
    BackendKind, Engine, ExecutionBackend, LoweredCache, LoweredCacheStats, LoweredScript,
    RecoveryPolicy, RecoveryStats, RunOutcome, Session,
};
pub use error::VppsError;
pub use gpu_sim::{FaultConfig, FaultEvent, FaultKind, FaultProfile, OutageKind, OutageWindow};
pub use handle::{Handle, PhaseBreakdown, RpwMode, VppsOptions};
pub use specialize::{GradStrategy, KernelPlan, PlanCache, PlanSignature};
