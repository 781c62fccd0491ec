//! `cargo test` inside `benchmark/`: every workload at `--smoke` size, timed
//! and traced pass, all output checks, then `compare` of the result with
//! itself.

use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_vpps-benchmark");

#[test]
fn smoke_run_passes_every_check_and_compares_clean() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let run = Command::new(EXE)
        .args(["all", "--smoke", "--seconds", "0.3", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for name in [
        "train_tree_b1_cold",
        "train_bilstm_b8_warm",
        "serve_open_1dev",
        "serve_closed_4dev_mixed",
        "host_ops_per_s",
        "sim_latency_us_p99",
        "engine.execute_us_per_op",
        "serve.redispatched",
    ] {
        assert!(stdout.contains(name), "report does not mention {name}");
    }

    let compare = Command::new(EXE)
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("benchmark binary starts");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "self-compare regressed:\n{table}");
    assert!(!table.contains("regressed") && !table.contains("unresolved"));
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "7"][..],
        &["compare", "only-one.json"][..],
    ] {
        let run = Command::new(EXE)
            .args(args)
            .output()
            .expect("binary starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
