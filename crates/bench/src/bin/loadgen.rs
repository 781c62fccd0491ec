//! Load generator for the `vpps-serve` serving layer.
//!
//! ```text
//! cargo run -p vpps-bench --release --bin loadgen -- --requests 500 --seed 7
//! ```
//!
//! Issues a deterministic multi-tenant request trace (open-loop Poisson by
//! default, closed-loop with `--closed-loop N`) against a serving instance
//! with a warm Tree-LSTM handle, then prints the serving report: goodput,
//! p50/p95/p99 latency, batch-size distribution, shed counts.
//!
//! Flags for CI smoke runs:
//!
//! * `--fail-on-shed` — exit non-zero if any request was shed. At the
//!   default (low) offered load the server must complete everything.
//! * `--verify-determinism` — run the scenario twice and exit non-zero
//!   unless both runs serialize to byte-identical trajectory records.
//!   Holds with fault injection armed: faults and recovery replay exactly.
//! * `--emit=FILE` — write the run's `BENCH_*.json` trajectory document
//!   (schema-validated) to FILE; with `--emit=-` print it to stdout.
//!
//! Tracing flags:
//!
//! * `--trace-sample=N` — trace every N-th request id (deterministic,
//!   keyed on the id alone; 1 traces everything). Prints the analyzer's
//!   per-phase p99 attribution and exits non-zero if the trace is
//!   structurally unsound or anything was dropped.
//! * `--emit-trace=FILE` — write the per-request Chrome-trace view (one
//!   track per device, one per request; schema-validated) to FILE.
//!   Implies `--trace-sample=1` unless a sample stride was given.
//!
//! Chaos flags:
//!
//! * `--fault-profile=SPEC` — arm deterministic fault injection on the
//!   served model's devices. SPEC is a comma list of `key=value` pairs
//!   (`seed`, `transfer`, `launch`, `hang`, `dram`, `jit`), e.g.
//!   `--fault-profile=seed=7,launch=0.05,hang=0.02`. Composes with
//!   `--devices N`: each device draws from its own seeded stream.
//! * `--outage=DEV@START..END[:kind]` — schedule a whole-device outage
//!   (`crash`, `hang` or `brownout`; times in virtual microseconds), e.g.
//!   `--outage=1@300..900:hang`. Repeatable, up to four windows. Queued and
//!   in-flight work on a crashed or hung device is re-dispatched to
//!   survivors exactly once; the run reports the re-dispatch and terminal
//!   per-device health.
//! * `--expect-recovery` — exit non-zero unless the run injected faults,
//!   some handle in the fleet retried or fell back, and requests completed:
//!   proves the recovery path actually ran.

use vpps::{BackendKind, FaultConfig};
use vpps_bench::serve_bench::{record_of, run_scenario_server, ServeScenario, SCHEMA};
use vpps_bench::trajectory;
use vpps_serve::ServeRecord;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--requests N] [--seed N] [--rate RPS] [--tenants N]\n\
         \x20              [--batch-max N] [--linger-us F] [--no-batching]\n\
         \x20              [--train-fraction F] [--deadline-us F] [--closed-loop N]\n\
         \x20              [--queue-cap N] [--tenant-quota N] [--hidden N]\n\
         \x20              [--devices N] [--sample-pool N]\n\
         \x20              [--backend event-interp|lowered]\n\
         \x20              [--label S] [--emit FILE|-] [--fail-on-shed]\n\
         \x20              [--verify-determinism] [--fault-profile SPEC]\n\
         \x20              [--outage DEV@START..END[:kind]] [--expect-recovery]\n\
         \x20              [--trace-sample N] [--emit-trace FILE]"
    );
    std::process::exit(2);
}

struct Args {
    scenario: ServeScenario,
    emit: Option<String>,
    emit_trace: Option<String>,
    fail_on_shed: bool,
    verify_determinism: bool,
    expect_recovery: bool,
}

fn parse_args() -> Args {
    let mut sc = ServeScenario {
        label: "loadgen".to_owned(),
        ..ServeScenario::default()
    };
    let mut emit = None;
    let mut emit_trace = None;
    let mut fail_on_shed = false;
    let mut verify_determinism = false;
    let mut expect_recovery = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // Flags accept both `--flag value` and `--flag=value`.
    let value = |i: &mut usize, arg: &str| -> String {
        if let Some((_, v)) = arg.split_once('=') {
            return v.to_owned();
        }
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        let arg = argv[i].clone();
        let key = arg.split_once('=').map_or(arg.as_str(), |(k, _)| k);
        let parse_num = |s: String| -> f64 {
            s.parse().unwrap_or_else(|_| {
                eprintln!("invalid number {s:?} for {key}");
                std::process::exit(2);
            })
        };
        match key {
            "--requests" => sc.requests = parse_num(value(&mut i, &arg)) as usize,
            "--seed" => sc.seed = parse_num(value(&mut i, &arg)) as u64,
            "--rate" => sc.rate_rps = parse_num(value(&mut i, &arg)),
            "--tenants" => sc.tenants = (parse_num(value(&mut i, &arg)) as u32).max(1),
            "--batch-max" => sc.max_batch = (parse_num(value(&mut i, &arg)) as usize).max(1),
            "--linger-us" => sc.linger_us = parse_num(value(&mut i, &arg)),
            "--no-batching" => sc.max_batch = 1,
            "--train-fraction" => sc.train_fraction = parse_num(value(&mut i, &arg)),
            "--deadline-us" => sc.deadline_us = Some(parse_num(value(&mut i, &arg))),
            "--closed-loop" => sc.closed_clients = Some(parse_num(value(&mut i, &arg)) as usize),
            "--queue-cap" => sc.queue_capacity = parse_num(value(&mut i, &arg)) as usize,
            "--tenant-quota" => sc.tenant_quota = parse_num(value(&mut i, &arg)) as usize,
            "--hidden" => sc.hidden = (parse_num(value(&mut i, &arg)) as usize).max(8),
            "--devices" => sc.devices = (parse_num(value(&mut i, &arg)) as usize).max(1),
            "--sample-pool" => sc.sample_pool = parse_num(value(&mut i, &arg)) as usize,
            "--label" => sc.label = value(&mut i, &arg),
            "--backend" => {
                let name = value(&mut i, &arg);
                sc.backend = name.parse::<BackendKind>().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--fault-profile" => {
                let spec = value(&mut i, &arg);
                // Preserve any --outage windows parsed before this flag.
                let outages: Vec<_> = sc.faults.outage_windows().collect();
                sc.faults = FaultConfig::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("invalid --fault-profile {spec:?}: {e}");
                    std::process::exit(2);
                });
                for w in outages {
                    sc.faults.push_outage(w).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                }
            }
            "--outage" => {
                let spec = value(&mut i, &arg);
                let window = gpu_sim::OutageWindow::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("invalid --outage {spec:?}: {e}");
                    std::process::exit(2);
                });
                sc.faults.push_outage(window).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--trace-sample" => {
                sc.trace_sample = Some((parse_num(value(&mut i, &arg)) as u64).max(1));
            }
            "--emit-trace" => emit_trace = Some(value(&mut i, &arg)),
            "--emit" => emit = Some(value(&mut i, &arg)),
            "--fail-on-shed" => fail_on_shed = true,
            "--verify-determinism" => verify_determinism = true,
            "--expect-recovery" => expect_recovery = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }
    if emit_trace.is_some() && sc.trace_sample.is_none() {
        sc.trace_sample = Some(1);
    }
    Args {
        scenario: sc,
        emit,
        emit_trace,
        fail_on_shed,
        verify_determinism,
        expect_recovery,
    }
}

/// One run plus the fault/recovery accounting `--expect-recovery` needs
/// and the trace sink when tracing was armed.
struct RunOutput {
    rec: ServeRecord,
    faults_injected: u64,
    recovery: vpps::RecoveryStats,
    redispatched: u64,
    rehomes: u64,
    cold_rebuilds: u64,
    trace: Option<vpps_obs::TraceSink>,
}

fn run_once(sc: &ServeScenario) -> RunOutput {
    let (mut server, mid, offered_rps) = run_scenario_server(sc);
    let trace = server.take_trace();
    let router = server.router_stats();
    RunOutput {
        rec: record_of(sc, &server, offered_rps),
        faults_injected: server.faults_injected(mid),
        recovery: server.recovery_stats(mid),
        redispatched: server.redispatched_batches(),
        rehomes: router.rehomes,
        cold_rebuilds: router.cold_rebuilds,
        trace,
    }
}

fn print_report(rec: &ServeRecord) {
    let r = &rec.report;
    println!(
        "scenario '{}' on backend {} — offered {:.0} rps",
        rec.label, rec.backend, rec.offered_rps
    );
    println!(
        "  requests: {} offered, {} completed ({} in deadline), {} shed",
        r.offered,
        r.completed,
        r.good,
        r.total_shed()
    );
    for (reason, n) in &r.shed {
        if *n > 0 {
            println!("    shed[{reason}]: {n}");
        }
    }
    println!(
        "  goodput: {:.0} rps (throughput {:.0} rps) over {:.3} ms makespan",
        r.goodput_rps,
        r.throughput_rps,
        r.makespan_s * 1e3
    );
    println!(
        "  batches: {} dispatched, mean size {:.2}, distribution {:?}",
        r.batches, r.mean_batch, r.batch_sizes
    );
    println!(
        "  e2e latency: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        r.e2e.p50_us, r.e2e.p95_us, r.e2e.p99_us, r.e2e.max_us
    );
    println!(
        "  queue wait:  p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
        r.queue_wait.p50_us, r.queue_wait.p95_us, r.queue_wait.p99_us
    );
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    let out = run_once(&args.scenario);
    let rec = out.rec;
    let json = SCHEMA.document(&args.scenario.label, &[], vec![rec.to_json()]);
    if let Err(e) = trajectory::validate(&json) {
        eprintln!("trajectory failed self-validation: {e}");
        std::process::exit(1);
    }
    print_report(&rec);
    if args.scenario.faults.enabled {
        let r = &out.recovery;
        println!(
            "  chaos: {} faults injected; {} retries, {} backend fallbacks, \
             {} baseline fallbacks, {} quarantines, {} rollbacks",
            out.faults_injected,
            r.retries,
            r.backend_fallbacks,
            r.baseline_fallbacks,
            r.quarantines,
            r.rollbacks
        );
    }
    if args.scenario.faults.has_outages() {
        let health = rec
            .devices
            .iter()
            .map(|d| format!("{}:{}", d.id, d.health))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  outages: {} batches re-dispatched, {} buckets re-homed \
             ({} cold rebuilds); terminal health [{health}]",
            out.redispatched, out.rehomes, out.cold_rebuilds
        );
    }

    let mut failed = false;
    if let Some(sink) = &out.trace {
        let analysis = vpps_obs::TraceAnalysis::analyze(sink);
        println!(
            "  trace: {} events ({} dropped), {} timelines, {} batches, \
             {} retries, {} steals (sample 1/{})",
            analysis.events,
            analysis.events_dropped,
            analysis.timelines.len(),
            analysis.batches,
            analysis.retries,
            analysis.steals,
            sink.sample()
        );
        let o = &analysis.overall;
        println!(
            "  phase p99:   linger {:.1} us, queue {:.1} us, execute {:.1} us",
            o.linger.p99_us, o.queue.p99_us, o.execute.p99_us
        );
        if !analysis.complete() {
            for e in analysis.errors.iter().take(8) {
                eprintln!("  trace error: {e}");
            }
            eprintln!(
                "TRACE FAILURE: attribution incomplete ({} errors, {} events \
                 dropped, {} host spans dropped)",
                analysis.errors.len(),
                analysis.events_dropped,
                analysis.host_spans_dropped
            );
            failed = true;
        }
        if let Some(path) = &args.emit_trace {
            let view = analysis.to_chrome().to_json();
            if let Err(e) = vpps_obs::validate_chrome_trace(&view) {
                eprintln!("per-request trace view failed self-validation: {e}");
                failed = true;
            } else {
                std::fs::write(path, &view).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("per-request trace view -> {path}");
            }
        }
    }
    if args.verify_determinism {
        let again = run_once(&args.scenario).rec;
        let json2 = SCHEMA.document(&args.scenario.label, &[], vec![again.to_json()]);
        if json == json2 {
            println!("determinism: two runs produced byte-identical trajectories");
        } else {
            eprintln!("DETERMINISM FAILURE: same seed, different trajectories");
            failed = true;
        }
    }
    if args.expect_recovery {
        if out.faults_injected == 0 {
            eprintln!("RECOVERY FAILURE: --expect-recovery but no faults were injected");
            failed = true;
        }
        let r = &out.recovery;
        if r.retries + r.backend_fallbacks + r.baseline_fallbacks + r.jit_retries == 0 {
            eprintln!("RECOVERY FAILURE: faults were injected but no handle recovered from one");
            failed = true;
        }
        if rec.report.completed == 0 {
            eprintln!("RECOVERY FAILURE: --expect-recovery but no request completed");
            failed = true;
        }
    }
    if args.fail_on_shed && rec.report.total_shed() > 0 {
        eprintln!(
            "SHED FAILURE: {} requests shed at offered load {:.0} rps",
            rec.report.total_shed(),
            rec.offered_rps
        );
        failed = true;
    }
    if let Some(path) = &args.emit {
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("trajectory -> {path}");
        }
    }
    println!("(completed in {:.1?} host wall time)", t0.elapsed());
    if failed {
        std::process::exit(1);
    }
}
