//! Two-clock benchmark over the VPPS layer crates: host ops/s and
//! allocations on the host clock, goodput and latency on the simulated
//! clock, over four train/serve workloads. See `README.md`.

mod alloc;
mod compare;
mod metrics;
mod run;
mod serve;
mod spans;
mod stats;
mod stepped;
mod traced;
mod train;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  vpps-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans FILE]
  vpps-benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
  vpps-benchmark compare A.json B.json
workloads: train_tree_b1_cold train_bilstm_b8_warm serve_open_1dev serve_closed_4dev_mixed";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("all") => run::all(&args[1..]),
        Some(_) => run::one(&args),
        None => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
