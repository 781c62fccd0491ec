//! Script-guided execution of the persistent forward-backward kernel
//! (paper §III-B2, Fig. 7).
//!
//! The executors themselves live in the unified engine layer
//! ([`crate::engine`]), whose one sweep runs either backend over the shared
//! instruction semantics ([`semantics::execute_instr`]) and static costs
//! ([`semantics::instr_cost`]). This module keeps the pieces the engine is
//! built from:
//!
//! * [`interp`] — [`ExecConfig`], the epilogue hyper-parameters;
//! * [`fallback`] — the batched-GEMM gradient epilogue;
//! * [`regcache`] — the functional stand-in for the SM register file;
//! * [`semantics`] — data-independent instruction semantics and costs;
//! * [`kernels`] — the SIMD-friendly inner loops (chunked dot, axpy) shared
//!   by the interpreted semantics and the lowered executor, so every backend
//!   computes bit-identical f32 results.
//!
//! All backends operate on a [`RegCache`] and the shared tensor
//! [`vpps_tensor::Pool`] standing in for device DRAM.

pub mod fallback;
pub mod interp;
pub mod kernels;
pub mod regcache;
pub mod semantics;

pub use interp::ExecConfig;
pub use regcache::RegCache;
pub use vpps_obs::{SimSpan, SimTrace};
