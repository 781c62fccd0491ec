#![warn(missing_docs)]

//! Benchmark harness regenerating every table and figure of the VPPS paper.
//!
//! The harness wires the workspace together: it instantiates each benchmark
//! application at the paper's §IV dimensions ([`apps`]), runs it under VPPS
//! and under every baseline on the simulated Titan V ([`harness`]), and
//! formats the paper's tables and figures as text ([`report`]). The `repro`
//! binary (`cargo run -p vpps-bench --release --bin repro -- all`) drives
//! everything and writes a `BENCH_<experiment>.json` per sweep;
//! [`trajectory`] is the single definition of those files and of the
//! checker of the facts they record (`repro check FILE…`).
//!
//! Every number comes from the simulated clock, so it is deterministic and
//! will not match the paper's wall-clock measurements — the reproduction
//! targets the *shape* of each result: who wins, by roughly what factor, and
//! where the crossovers fall. `EXPERIMENTS.md` records both. Host speed has
//! one instrument, the standalone `benchmark/` package.

pub mod ablations;
pub mod apps;
pub mod chaos_bench;
pub mod chaos_sharded_bench;
pub mod harness;
pub mod report;
pub mod serve_bench;
pub mod sharded_bench;
pub mod trace_bench;
pub mod trajectory;

pub use apps::{AppInstance, AppKind, AppSpec};
pub use chaos_bench::{run_chaos, ChaosRecord, ChaosScenario, ChaosSummary};
pub use chaos_sharded_bench::{
    chaos_sharded_scenario, run_chaos_sharded, ChaosShardedRecord, ChaosShardedScenario,
};
pub use harness::{profiled_rpw, run_baseline, run_vpps_with, RunResult};
pub use serve_bench::{run_scenario, run_scenario_server, ServeScenario, ServeWorkload};
pub use sharded_bench::{run_sharded, ShardedRecord};
pub use trace_bench::{chrome_view_json, run_trace, trace_point, trace_scenario, TraceRecord};
