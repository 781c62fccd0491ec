//! Regenerates every table and figure of the VPPS paper on the simulated
//! Titan V.
//!
//! ```text
//! cargo run -p vpps-bench --release --bin repro -- all          # quick scale
//! cargo run -p vpps-bench --release --bin repro -- fig8 --full  # paper scale
//! cargo run -p vpps-bench --release --bin repro -- check BENCH_*.json
//! ```
//!
//! Subcommands:
//!
//! * `fig2`, `fig8`, `fig9`, `fig12`, `table1` — print the paper's table and
//!   write the runs behind it to `BENCH_<name>.json`; `fig10`, `table2` —
//!   print only; `all` — all seven plus `serve`.
//! * `ablations` — the four design-decision ablations of EXPERIMENTS.md.
//! * `serve` (batching vs per-request dispatch, `BENCH_serve.json`),
//!   `serve-sharded` (device-count sweep, `BENCH_serve_sharded.json`),
//!   `serve-trace` (per-request phase attribution, `BENCH_serve_trace.json`;
//!   `--emit-trace=FILE` writes the per-request Chrome view — one track per
//!   device plus one per request — instead of the host-span trace), `chaos`
//!   (swept fault rates, `BENCH_chaos.json`), `chaos-sharded` (whole-device
//!   crash / hang / brownout windows, `BENCH_chaos_sharded.json`).
//! * `check FILE…` — validates each `BENCH_*.json` against the schema its
//!   `"schema"` string names and checks the facts it records. Exit 0: all
//!   hold; 1: a recorded fact failed (each is named); 2: a file is
//!   unreadable, malformed, or of an unknown schema or version.
//! * `trace` — writes a Chrome trace of one Tree-LSTM persistent kernel to
//!   `vpps_kernel_trace.json`.
//!
//! Every sweep that writes a file then runs `check` on what it wrote and
//! exits nonzero if a recorded fact does not hold, so the self-checks have
//! one definition (`vpps_bench::trajectory`). Files go to `$VPPS_BENCH_DIR`
//! when set, else the current directory. `--full` uses the paper's
//! 128-input workloads; the default "quick" scale keeps every trend visible
//! while running in minutes on one CPU core.
//!
//! `--backend=NAME` selects the VPPS execution backend for the sweeps
//! (`event-interp` or `lowered`) without changing any reported number —
//! both feed the same unified metrics. `lowered` pre-resolves each script to
//! flat micro-ops and caches the artifact per plan, so warm batches skip
//! both dispatch and analysis.
//!
//! `--emit-metrics=FILE` turns instrumentation on and writes the run's
//! metric registry after the experiment: a versioned JSON snapshot, or
//! Prometheus text exposition when FILE ends in `.prom`. `--emit-trace=FILE`
//! writes the recorded host spans as Chrome `trace_event` JSON (load in
//! `chrome://tracing` or <https://ui.perfetto.dev>). Both outputs are validated
//! against their own schemas before the process exits.

use std::path::Path;

use gpu_sim::DeviceConfig;
use vpps::BackendKind;
use vpps_baselines::Strategy;
use vpps_bench::ablations::{self, Ablation};
use vpps_bench::apps::{AppInstance, AppKind, AppSpec};
use vpps_bench::harness::{self, profiled_rpw, run_baseline, run_vpps_with, RunResult};
use vpps_bench::report::{fmt_flag, fmt_mb, fmt_ratio, fmt_tput, render_columns, render_table};
use vpps_bench::serve_bench::{self, run_scenario, ServeScenario};
use vpps_bench::trajectory::{self, CheckError, Schema};
use vpps_bench::{chaos_bench, chaos_sharded_bench, sharded_bench, trace_bench};
use vpps_obs::Json;

#[derive(Clone, Copy)]
struct Scale {
    treelstm_inputs: usize,
    tagger_inputs: usize,
    td_inputs: usize,
    batches: &'static [usize],
    fig12_batches: &'static [usize],
}

const QUICK: Scale = Scale {
    treelstm_inputs: 32,
    tagger_inputs: 16,
    td_inputs: 8,
    batches: &[1, 2, 4, 8, 16, 32],
    fig12_batches: &[1, 2, 8, 32],
};

const FULL: Scale = Scale {
    treelstm_inputs: 128,
    tagger_inputs: 64,
    td_inputs: 32,
    batches: &[1, 2, 4, 8, 16, 32, 64, 128],
    fig12_batches: &[1, 2, 8, 32, 128],
};

fn device() -> DeviceConfig {
    DeviceConfig::titan_v()
}

fn inputs_for(kind: AppKind, scale: &Scale) -> usize {
    match kind {
        AppKind::TreeLstm | AppKind::Rvnn => scale.treelstm_inputs,
        AppKind::BiLstm | AppKind::BiLstmChar => scale.tagger_inputs,
        AppKind::TdRnn | AppKind::TdLstm => scale.td_inputs,
    }
}

/// The batch sizes of `batches` that `app` has enough inputs for.
fn fitting<'a>(batches: &'a [usize], app: &'a AppInstance) -> impl Iterator<Item = usize> + 'a {
    batches.iter().copied().filter(|&b| b <= app.num_inputs())
}

/// Trains `app` at `batch` under VPPS (profiled rpw) and under each of
/// `baselines`. Returns the runs, VPPS first, and VPPS's throughput over
/// the best baseline's.
fn vpps_vs(
    app: &AppInstance,
    batch: usize,
    backend: BackendKind,
    baselines: &[Strategy],
) -> (Vec<RunResult>, f64) {
    let rpw = profiled_rpw(app, &device(), batch);
    let mut runs = vec![run_vpps_with(app, &device(), batch, rpw, backend)];
    for &strategy in baselines {
        runs.push(run_baseline(app, &device(), batch, strategy));
    }
    let best = runs[1..].iter().map(|r| r.throughput).fold(0.0, f64::max);
    let ratio = runs[0].throughput / best;
    (runs, ratio)
}

/// The `[batch, throughput of each run…, ratio]` table row for [`vpps_vs`].
fn tput_row(batch: usize, runs: &[RunResult], ratio: f64) -> Vec<String> {
    let mut row = vec![batch.to_string()];
    row.extend(runs.iter().map(|r| fmt_tput(r.throughput)));
    row.push(fmt_ratio(ratio));
    row
}

const DYNET: [Strategy; 2] = [Strategy::DepthBased, Strategy::AgendaBased];

/// Checks one trajectory file the way `repro check` reports it. Returns the
/// exit-code class: 0 ok, 1 a recorded fact failed, 2 unreadable/malformed.
fn check_file(path: &Path) -> i32 {
    let name = path.display();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{name}: unreadable: {e}");
            return 2;
        }
    };
    match trajectory::check(&text) {
        Ok(schema) => {
            println!("{name}: ok ({} v{})", schema.name, schema.version);
            0
        }
        Err(CheckError::Facts(failed)) => {
            for fact in failed {
                eprintln!("{name}: FAILED {fact}");
            }
            1
        }
        Err(CheckError::Malformed(e)) => {
            eprintln!("{name}: malformed: {e}");
            2
        }
    }
}

/// Writes a sweep's `BENCH_<experiment>.json`, then holds the file to the
/// same checker: the subcommand fails if a fact it recorded does not hold.
fn emit(experiment: &str, document: String) {
    let path = trajectory::write(experiment, &document).unwrap_or_else(|e| {
        eprintln!("cannot write the {experiment} trajectory: {e}");
        std::process::exit(1);
    });
    if check_file(&path) != 0 {
        std::process::exit(1);
    }
    println!();
}

/// [`emit`] for a schema without header fields.
fn emit_records(schema: &Schema, experiment: &str, records: Vec<Json>) {
    emit(experiment, schema.document(experiment, &[], records));
}

/// [`emit`] for the figure/table sweeps: the runs behind the printed rows.
fn emit_runs(experiment: &str, runs: &[RunResult]) {
    let records = runs.iter().map(RunResult::to_json).collect();
    emit_records(&harness::SCHEMA, experiment, records);
}

fn fig2(scale: &Scale) {
    println!("Fig. 2 — Distribution of off-chip DRAM loads during DyNet training");
    println!("(weight-matrix bytes as a fraction of all loaded bytes, DyNet-AB, batch 8)\n");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for kind in AppKind::ALL {
        let inputs = inputs_for(kind, scale).min(16);
        let app = AppInstance::new(AppSpec::paper(kind), inputs);
        let r = run_baseline(&app, &device(), 8.min(inputs), Strategy::AgendaBased);
        rows.push(vec![
            kind.name().to_owned(),
            format!("{:.1}%", 100.0 * r.weight_fraction),
            format!("{:.1}%", 100.0 * (1.0 - r.weight_fraction)),
        ]);
        runs.push(r);
    }
    println!(
        "{}",
        render_table(
            "Fig 2",
            &["application", "weight-matrix loads", "other loads"],
            &rows
        )
    );
    println!("Paper: weight matrices dominate DRAM loads for every application.\n");
    emit_runs("fig2", &runs);
}

fn fig8(scale: &Scale, backend: BackendKind) {
    println!("Fig. 8 — Tree-LSTM training throughput vs batch size");
    println!("(hidden = embedding = 256; inputs/s in simulated time)\n");
    let app = AppInstance::new(AppSpec::paper(AppKind::TreeLstm), scale.treelstm_inputs);
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for batch in fitting(scale.batches, &app) {
        let baselines = [DYNET[0], DYNET[1], Strategy::TfFold];
        let (batch_runs, ratio) = vpps_vs(&app, batch, backend, &baselines);
        rows.push(tput_row(batch, &batch_runs, ratio));
        runs.extend(batch_runs);
    }
    println!(
        "{}",
        render_table(
            "Fig 8",
            &[
                "batch",
                "VPPS",
                "DyNet-DB",
                "DyNet-AB",
                "TF-Fold",
                "VPPS/best-DyNet"
            ],
            &rows
        )
    );
    println!("Paper: VPPS wins 2.92x at batch 2, narrowing to 1.16x at batch 128;");
    println!("TF-Fold trails both. The advantage concentrates at small batches.\n");
    emit_runs("fig8", &runs);
}

fn table1(scale: &Scale, backend: BackendKind) {
    println!(
        "Table I — Weight bytes loaded (MB) training {} inputs",
        scale.treelstm_inputs
    );
    println!("(Tree-LSTM, hidden = embedding = 256)\n");
    let app = AppInstance::new(AppSpec::paper(AppKind::TreeLstm), scale.treelstm_inputs);
    let mut header = vec!["system".to_owned()];
    let mut vpps_row = vec!["VPPS".to_owned()];
    let mut ab_row = vec!["DyNet-AB".to_owned()];
    let mut runs = Vec::new();
    for batch in fitting(scale.batches, &app) {
        header.push(format!("b={batch}"));
        let vpps = run_vpps_with(&app, &device(), batch, 1, backend);
        let ab = run_baseline(&app, &device(), batch, Strategy::AgendaBased);
        vpps_row.push(fmt_mb(vpps.weight_mb));
        ab_row.push(fmt_mb(ab.weight_mb));
        runs.extend([vpps, ab]);
    }
    let headers: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table("Table I", &headers, &[vpps_row, ab_row]));
    println!("Paper (128 inputs): VPPS 352.62 MB at batch 1 halving with batch size");
    println!("(exactly weights x launches); DyNet-AB 2.82k MB shrinking sub-linearly.\n");
    emit_runs("table1", &runs);
}

fn fig9(scale: &Scale, backend: BackendKind) {
    println!("Fig. 9 — Tree-LSTM throughput vs hidden-layer length");
    println!("(word embedding fixed at 128)\n");
    let mut runs = Vec::new();
    for hidden in [128usize, 256, 384] {
        let spec = AppSpec::paper(AppKind::TreeLstm)
            .with_hidden(hidden)
            .with_emb(128);
        let app = AppInstance::new(spec, scale.treelstm_inputs);
        let mut rows = Vec::new();
        let mut occupancy = String::new();
        for batch in fitting(scale.batches, &app) {
            let (batch_runs, ratio) = vpps_vs(&app, batch, backend, &DYNET);
            if let Some((ctas, _)) = batch_runs[0].vpps_config {
                occupancy = format!("{} CTA(s)/SM ({}% occupancy)", ctas, 12.5 * ctas as f64);
            }
            rows.push(tput_row(batch, &batch_runs, ratio));
            runs.extend(batch_runs);
        }
        println!(
            "{}",
            render_table(
                &format!("Fig 9 - hidden {hidden} [{occupancy}]"),
                &["batch", "VPPS", "DyNet-DB", "DyNet-AB", "VPPS/best"],
                &rows
            )
        );
    }
    println!("Paper: throughput falls as hidden grows; 384 forces 1 CTA/SM (12.5%");
    println!("occupancy) and drops disproportionately vs 256; VPPS stays ahead.\n");
    emit_runs("fig9", &runs);
}

fn fig10(scale: &Scale, backend: BackendKind) {
    println!("Fig. 10 — VPPS execution-time breakdown per input (ms)");
    println!("(Tree-LSTM, hidden = embedding = 256; CPU and GPU overlap at runtime)\n");
    let app = AppInstance::new(AppSpec::paper(AppKind::TreeLstm), scale.treelstm_inputs);
    let mut rows = Vec::new();
    for batch in fitting(scale.batches, &app) {
        let rpw = profiled_rpw(&app, &device(), batch);
        let r = run_vpps_with(&app, &device(), batch, rpw, backend);
        let p = r.vpps_phases.expect("vpps run has phases");
        let per = |t: gpu_sim::SimTime| format!("{:.3}", t.as_ms() / r.inputs as f64);
        rows.push(vec![
            batch.to_string(),
            per(p.graph_construction),
            per(p.forward_schedule),
            per(p.backward_schedule),
            per(p.script_copy),
            per(p.kernel_exec),
            per(p.host_total()),
            per(p.device_total()),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Fig 10",
            &[
                "batch",
                "cpu:graph",
                "cpu:fwd-sched",
                "cpu:bwd-sched",
                "gpu:copy",
                "gpu:kernel",
                "cpu total",
                "gpu total"
            ],
            &rows
        )
    );
    println!("Paper: GPU kernel dominates at small batches; per-input kernel time");
    println!("shrinks with batch while CPU scheduling grows, making the CPU the");
    println!("bottleneck at large batches (the slight decline in Fig. 8).\n");
}

fn fig12(scale: &Scale, backend: BackendKind) {
    println!("Fig. 12 — Training throughput for the other applications");
    println!("(BiLSTM/BiLSTMwChar/TD-LSTM at 256; TD-RNN/RvNN at 512)\n");
    let mut runs = Vec::new();
    for kind in [
        AppKind::BiLstm,
        AppKind::BiLstmChar,
        AppKind::TdRnn,
        AppKind::TdLstm,
        AppKind::Rvnn,
    ] {
        let app = AppInstance::new(AppSpec::paper(kind), inputs_for(kind, scale));
        let mut rows = Vec::new();
        let mut peak: f64 = 0.0;
        for batch in fitting(scale.fig12_batches, &app) {
            let (batch_runs, ratio) = vpps_vs(&app, batch, backend, &DYNET);
            peak = peak.max(ratio);
            rows.push(tput_row(batch, &batch_runs, ratio));
            runs.extend(batch_runs);
        }
        println!(
            "{}",
            render_table(
                &format!(
                    "Fig 12 - {} (peak VPPS advantage {})",
                    kind.name(),
                    fmt_ratio(peak)
                ),
                &["batch", "VPPS", "DyNet-DB", "DyNet-AB", "VPPS/best"],
                &rows
            )
        );
    }
    println!("Paper: VPPS leads across applications, up to 6.08x (BiLSTM, batch 2);");
    println!("DyNet closes the gap at smaller batches on TD-RNN/RvNN, whose graphs");
    println!("have few operation types and batch easily.\n");
    emit_runs("fig12", &runs);
}

fn table2() {
    println!("Table II — JIT compilation duration (modeled NVRTC seconds)\n");
    let mut rows = Vec::new();
    for kind in AppKind::ALL {
        let app = AppInstance::new(AppSpec::paper(kind), 1);
        let model = app.fresh_model();
        let plan = vpps::KernelPlan::build(&model, &device(), 1)
            .expect("paper-scale models fit the Titan V");
        let jit = plan.jit_cost();
        rows.push(vec![
            kind.name().to_owned(),
            format!("{:.2}", jit.program_compile.as_secs()),
            format!("{:.2}", jit.module_load.as_secs()),
            format!("{}", plan.source().template_instantiations()),
            format!("{}", plan.source().register_refs_per_thread()),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Table II",
            &[
                "application",
                "prog. compile (s)",
                "module load (s)",
                "instantiations",
                "regs/thread"
            ],
            &rows
        )
    );
    println!("Paper: 11-75 s compile; hidden-512 apps (TD-RNN, RvNN) cost several");
    println!("times the hidden-256 apps; module load is ~0.5-0.65 of compile.\n");
}

fn trace() {
    use vpps::engine::run_batch_traced;

    println!("Exporting a per-VPP kernel timeline (Tree-LSTM, batch 4)...");
    let mut spec = AppSpec::paper(AppKind::TreeLstm);
    spec.hidden = 64;
    spec.emb = 64;
    spec.vocab = 500;
    spec.max_len = 10;
    let app = AppInstance::new(spec, 4);
    let mut model = app.fresh_model();
    let plan = vpps::KernelPlan::build(&model, &device(), 1).expect("fits");
    let (g, loss) = app.batch_graphs(4).remove(0);
    let (gs, mut pool) = harness::staged(&model, &plan, (&g, loss), Default::default());
    let mut gpu = gpu_sim::GpuSim::new(device());
    let (run, trace) = run_batch_traced(
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        Default::default(),
    );
    let mut chrome = vpps_obs::ChromeTrace::new();
    chrome.add_sim_trace(0, &trace);
    let json = chrome.to_json();
    if let Err(e) = vpps_obs::validate_chrome_trace(&json) {
        eprintln!("kernel trace failed self-validation: {e}");
        std::process::exit(1);
    }
    let path = "vpps_kernel_trace.json";
    std::fs::write(path, json).expect("write trace");
    println!(
        "kernel body {}; {} events ({} barrier-wait us) -> {path}",
        run.body_time,
        trace.len(),
        (trace.wait_ns() / 1e3) as u64
    );
    println!("open chrome://tracing or https://ui.perfetto.dev and load the file.");
}

/// The four design-decision ablations (EXPERIMENTS.md "Ablations"), every
/// number virtual-clock or a static count.
fn ablations() {
    println!("Ablations — the design decisions DESIGN.md calls out");
    println!("(one Tree-LSTM batch of 4 trees, hidden = embedding = 64)\n");
    let value = |r: &Ablation, v: f64| match r.unit {
        "us" => format!("{v:.1} us"),
        unit => format!("{v:.0} {unit}"),
    };
    println!(
        "{}",
        render_columns(
            "Ablations",
            &ablations::run(),
            &[
                ("design decision", &|r| r.decision.to_owned()),
                ("chosen", &|r| value(r, r.chosen)),
                ("alternative", &|r| value(r, r.alternative)),
                ("alt / chosen", &|r| fmt_ratio(r.alternative / r.chosen)),
            ]
        )
    );
    println!("Paper: in-register gradients win when registers allow (III-C2); overlap");
    println!("hides host scheduling (III-C1); RISC scripts would multiply the");
    println!("instructions the host must manage (III-B2).\n");
}

/// Serving-layer experiment: shape-bucketed dynamic batching vs batch-1
/// dispatch at a saturating offered load, plus a low-load sanity row.
/// Writes `BENCH_serve.json`; on the lowered backend the checked facts are
/// that every row hit the warm script cache and none re-missed.
fn serve(full: bool, backend: BackendKind) {
    println!("Serve — multi-tenant batched serving vs per-request dispatch");
    println!("(Tree-LSTM inference; open-loop Poisson arrivals on the virtual clock)\n");
    let requests = if full { 500 } else { 160 };
    let hidden = if full { 128 } else { 64 };
    let base = ServeScenario {
        requests,
        hidden,
        backend,
        ..ServeScenario::default()
    };
    let saturating = 5_000_000.0;
    let records = vec![
        run_scenario(&ServeScenario {
            label: "no-batching".to_owned(),
            rate_rps: saturating,
            max_batch: 1,
            ..base.clone()
        }),
        run_scenario(&ServeScenario {
            label: "batching".to_owned(),
            rate_rps: saturating,
            max_batch: 16,
            ..base.clone()
        }),
        run_scenario(&ServeScenario {
            label: "low-load".to_owned(),
            rate_rps: 2_000.0,
            ..base.clone()
        }),
    ];
    println!(
        "{}",
        render_columns(
            "Serve",
            &records,
            &[
                ("scenario", &|r| r.label.clone()),
                ("offered rps", &|r| format!("{:.0}", r.offered_rps)),
                ("goodput rps", &|r| format!("{:.0}", r.report.goodput_rps)),
                ("mean batch", &|r| format!("{:.2}", r.report.mean_batch)),
                ("p50 us", &|r| format!("{:.0}", r.report.e2e.p50_us)),
                ("p99 us", &|r| format!("{:.0}", r.report.e2e.p99_us)),
                ("shed", &|r| r.report.total_shed().to_string()),
            ]
        )
    );
    let single = records[0].report.goodput_rps;
    let batched = records[1].report.goodput_rps;
    println!(
        "Batching goodput is {} batch-1 dispatch at the same offered load;",
        fmt_ratio(batched / single.max(1.0))
    );
    println!("the low-load row must complete everything with zero shed.\n");
    let records = records.iter().map(|r| r.to_json()).collect();
    emit_records(&serve_bench::SCHEMA, "serve", records);
}

/// Sharded-serving experiment: the saturating Zipf serving trace swept
/// across device counts, with warmup so the reported goodput reflects warm
/// per-device lowered caches. Writes `BENCH_serve_sharded.json`; the
/// checked facts: warm script-cache hit rate >= 0.9, byte-identical reruns,
/// sharded outputs bit-identical to single-device, goodput not regressing
/// as devices are added and >= 1.5x at 4 devices.
fn serve_sharded(full: bool) {
    println!("Serve-sharded — device-count sweep of the sharded serving layer");
    println!("(saturating Zipf corpus; plan-affinity routing with work stealing)\n");
    let records = sharded_bench::run_sharded(full);
    let util = |r: &sharded_bench::ShardedRecord| {
        let per_device = r.per_device_util.iter().map(|u| format!("{u:.2}"));
        per_device.collect::<Vec<_>>().join(" ")
    };
    println!(
        "{}",
        render_columns(
            "Serve-sharded",
            &records,
            &[
                ("devices", &|r| r.devices.to_string()),
                ("goodput rps", &|r| format!("{:.0}", r.goodput_rps)),
                ("mean batch", &|r| format!("{:.2}", r.mean_batch)),
                ("warm hit", &|r| format!("{:.3}", r.warm_hit_rate)),
                ("affinity", &|r| r.affinity_hits.to_string()),
                ("steals", &|r| r.steals.to_string()),
                ("per-device util", &util),
                ("det", &|r| fmt_flag(r.deterministic)),
                ("=1-dev", &|r| fmt_flag(r.outputs_match_single)),
            ]
        )
    );
    let g1 = records
        .iter()
        .find(|r| r.devices == 1)
        .map_or(0.0, |r| r.goodput_rps);
    for r in records.iter().filter(|r| r.devices > 1) {
        println!(
            "scaling: {} devices give {} the single-device goodput",
            r.devices,
            fmt_ratio(r.goodput_rps / g1.max(1.0))
        );
    }
    println!();
    let records = records.iter().map(|r| r.to_json()).collect();
    emit_records(&sharded_bench::SCHEMA, "serve_sharded", records);
}

/// Request-tracing experiment: the saturating sharded corpus with every
/// request traced, per device count. Prints the fig10-style per-phase p99
/// breakdown (overall and cold-vs-warm) and writes
/// `BENCH_serve_trace.json`; the checked facts: exact phase tiling, exactly
/// one terminal per admitted request, zero dropped events/spans, nonzero
/// queue attribution, byte-identical reruns. `trace_view` writes the
/// per-request Chrome view.
fn serve_trace(full: bool, trace_view: Option<&str>) {
    println!("Serve-trace — end-to-end request tracing with exact time attribution");
    println!("(every request traced; phase spans must tile e2e latency bitwise)\n");
    let records = trace_bench::run_trace(full);
    println!(
        "{}",
        render_columns(
            "Serve-trace",
            &records,
            &[
                ("devices", &|r| r.devices.to_string()),
                ("traced", &|r| r.traced.to_string()),
                ("e2e p99 us", &|r| format!("{:.0}", r.overall.e2e.p99_us)),
                ("linger p99", &|r| format!("{:.0}", r.overall.linger.p99_us)),
                ("queue p99", &|r| format!("{:.0}", r.overall.queue.p99_us)),
                ("exec p99", &|r| format!("{:.0}", r.overall.execute.p99_us)),
                ("tail queue", &|r| format!(
                    "{:.2}",
                    r.overall.tail_queue_share
                )),
                ("tiled", &|r| fmt_flag(r.tiled_exactly)),
                ("1 terminal", &|r| fmt_flag(r.terminal_exactly_once)),
                ("det", &|r| fmt_flag(r.deterministic)),
            ]
        )
    );
    for r in &records {
        for g in &r.by_warmth {
            println!(
                "devices={} {}: {} requests, e2e p99 {:.0} us (execute p99 {:.0} us)",
                r.devices, g.label, g.requests, g.e2e.p99_us, g.execute.p99_us
            );
        }
    }
    println!();
    if let Some(path) = trace_view {
        let sc = trace_bench::trace_scenario(full);
        let devices = *trace_bench::trace_device_counts(full)
            .last()
            .expect("at least one device count");
        match trace_bench::chrome_view_json(&sc, devices) {
            Ok(json) => {
                std::fs::write(path, &json).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("per-request trace view ({devices} devices) -> {path}");
            }
            Err(e) => {
                eprintln!("per-request trace view failed self-validation: {e}");
                std::process::exit(1);
            }
        }
    }
    let records = records.iter().map(|r| r.to_json()).collect();
    emit_records(&trace_bench::SCHEMA, "serve_trace", records);
}

/// Chaos experiment: the serving trace replayed across a ladder of fault
/// rates with deterministic injection and the full recovery stack armed.
/// Writes `BENCH_chaos.json`; the checked facts: armed-rate-0 silence,
/// same-seed reproducibility, faults injected off the rate-0 row.
fn chaos(full: bool, backend: BackendKind) {
    println!("Chaos — goodput and recovery cost under swept fault rates");
    println!("(deterministic injection; every point self-checks reproducibility)\n");
    let sc = chaos_bench::ChaosScenario {
        requests: if full { 240 } else { 80 },
        hidden: if full { 64 } else { 32 },
        backend,
        ..chaos_bench::ChaosScenario::default()
    };
    let summary = chaos_bench::run_chaos(&sc);
    let fallbacks = |r: &chaos_bench::ChaosRecord| {
        (r.recovery.backend_fallbacks + r.recovery.baseline_fallbacks).to_string()
    };
    println!(
        "{}",
        render_columns(
            "Chaos",
            &summary.records,
            &[
                ("fault rate", &|r| format!("{:.2}", r.rate)),
                ("injected", &|r| r.faults_total.to_string()),
                ("retries", &|r| r.recovery.retries.to_string()),
                ("fallbacks", &fallbacks),
                ("quarantines", &|r| r.recovery.quarantines.to_string()),
                ("goodput rps", &|r| format!(
                    "{:.0}",
                    r.record.report.goodput_rps
                )),
                ("p99 us", &|r| format!("{:.0}", r.record.report.e2e.p99_us)),
                ("shed", &|r| r.record.report.total_shed().to_string()),
            ]
        )
    );
    println!(
        "armed rate-0 identical to disabled: {}; same-seed sweep reproducible: {}\n",
        fmt_flag(summary.zero_rate_identical),
        fmt_flag(summary.same_seed_identical),
    );
    emit("chaos", chaos_bench::document("chaos", &summary));
}

/// Chaos-sharded experiment: device-count × outage-kind sweep of scheduled
/// whole-device faults (crash, hang, brownout) against the sharded server.
/// Writes `BENCH_chaos_sharded.json`; the checked facts: zero lost
/// requests, zero duplicate resolutions, surviving-path outputs
/// bit-identical to a fault-free run, same-seed rerun byte-identical,
/// request-trace spans still tiling exactly with re-dispatch attributed,
/// goodput holding its (N-1)/N floor during and recovering after.
fn chaos_sharded(full: bool) {
    println!("Chaos-sharded — whole-device outages against the sharded server");
    println!("(scheduled crash/hang/brownout on device 1 over the middle third");
    println!("of the fault-free makespan; every point self-checks exactly-once)\n");
    let sc = chaos_sharded_bench::chaos_sharded_scenario(full);
    let records = chaos_sharded_bench::run_chaos_sharded(&sc);
    println!(
        "{}",
        render_columns(
            "Chaos-sharded",
            &records,
            &[
                ("devices", &|r| r.devices.to_string()),
                ("outage", &|r| r.kind.clone()),
                ("window us", &|r| {
                    format!("{:.0}..{:.0}", r.outage_start_us, r.outage_end_us)
                }),
                ("lost", &|r| r.lost.to_string()),
                ("dup", &|r| r.duplicates.to_string()),
                ("redisp", &|r| r.redispatched.to_string()),
                ("cold/rehomed", &|r| {
                    format!("{}/{}", r.warm_rebuild_cold_lowers, r.rehomes)
                }),
                ("pre rps", &|r| format!("{:.0}", r.goodput_pre_rps)),
                ("during rps", &|r| format!("{:.0}", r.goodput_during_rps)),
                ("post rps", &|r| format!("{:.0}", r.goodput_post_rps)),
                ("=clean", &|r| fmt_flag(r.outputs_match_fault_free)),
                ("det", &|r| fmt_flag(r.deterministic)),
            ]
        )
    );
    println!("lost and dup must be 0 on every row: a failing device may slow the");
    println!("fleet but never loses or double-resolves an admitted request.\n");
    let records = records.iter().map(|r| r.to_json()).collect();
    emit_records(&chaos_sharded_bench::SCHEMA, "chaos_sharded", records);
}

/// Captures the metric registry and writes it to `path` (Prometheus text
/// for `.prom`, versioned JSON snapshot otherwise). JSON snapshots are
/// validated by parsing them back through their own schema.
fn emit_metrics(path: &str, cmd: &str, backend: BackendKind, full: bool) {
    let mut snap = vpps_obs::Snapshot::capture();
    snap.set_extra("experiment", vpps_obs::Json::from(cmd));
    snap.set_extra("backend", vpps_obs::Json::from(backend.name()));
    snap.set_extra(
        "scale",
        vpps_obs::Json::from(if full { "full" } else { "quick" }),
    );
    let text = if path.ends_with(".prom") {
        vpps_obs::to_prometheus_text(&snap)
    } else {
        let json = snap.to_json();
        match vpps_obs::Snapshot::parse(&json) {
            Ok(back) if back == snap => {}
            Ok(_) => {
                eprintln!("metrics snapshot did not round-trip losslessly");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("metrics snapshot failed self-validation: {e}");
                std::process::exit(1);
            }
        }
        json
    };
    std::fs::write(path, &text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "metrics: {} counters, {} gauges, {} histograms -> {path}",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len()
    );
}

/// Writes the recorded host spans as Chrome trace-event JSON, validating
/// the output before the process exits.
fn emit_trace(path: &str) {
    let spans = vpps_obs::snapshot_spans();
    let mut chrome = vpps_obs::ChromeTrace::new();
    chrome.add_host_spans(0, &spans);
    let json = chrome.to_json();
    if let Err(e) = vpps_obs::validate_chrome_trace(&json) {
        eprintln!("host-span trace failed self-validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    let dropped = vpps_obs::dropped_spans();
    println!(
        "trace: {} host spans{} -> {path}",
        chrome.len(),
        if dropped > 0 {
            format!(" ({dropped} dropped, ring full)")
        } else {
            String::new()
        }
    );
}

/// Names the `problem` with the command line, prints the usage, exits 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: repro [fig2|fig8|fig9|fig10|fig12|table1|table2|ablations|trace|\
         serve|serve-sharded|serve-trace|chaos|chaos-sharded|all] [--full] \
         [--backend=event-interp|lowered] [--emit-metrics=FILE[.prom]] [--emit-trace=FILE]\n       \
         repro check FILE..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let (cmd, operands) = match positional.split_first() {
        Some((&cmd, rest)) => (cmd, rest),
        None => ("all", &[][..]),
    };
    if cmd == "check" {
        if operands.is_empty() || !flags.is_empty() {
            usage("check takes files and no flags");
        }
        let worst = operands.iter().map(|f| check_file(Path::new(f))).max();
        std::process::exit(worst.unwrap_or(0));
    }

    let mut full = false;
    let mut backend = BackendKind::default();
    let mut metrics_path = None;
    let mut trace_path = None;
    for flag in flags {
        if flag == "--full" {
            full = true;
        } else if let Some(name) = flag.strip_prefix("--backend=") {
            backend = name.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        } else if let Some(path) = flag.strip_prefix("--emit-metrics=") {
            metrics_path = Some(path);
        } else if let Some(path) = flag.strip_prefix("--emit-trace=") {
            trace_path = Some(path);
        } else {
            usage(&format!("unknown flag '{flag}'"));
        }
    }
    if let Some(extra) = operands.first() {
        usage(&format!("unexpected argument '{extra}'"));
    }
    let scale = if full { FULL } else { QUICK };
    if metrics_path.is_some() || trace_path.is_some() {
        vpps_obs::set_enabled(true);
    }

    let t0 = std::time::Instant::now();
    println!(
        "VPPS reproduction — simulated {} — scale: {} — backend: {}\n",
        device().name,
        if full { "full (paper)" } else { "quick" },
        backend.name()
    );
    match cmd {
        "fig2" => fig2(&scale),
        "fig8" => fig8(&scale, backend),
        "fig9" => fig9(&scale, backend),
        "fig10" => fig10(&scale, backend),
        "fig12" => fig12(&scale, backend),
        "table1" => table1(&scale, backend),
        "table2" => table2(),
        "ablations" => ablations(),
        "trace" => trace(),
        "serve" => serve(full, backend),
        "serve-sharded" => serve_sharded(full),
        // serve-trace claims --emit-trace for its per-request view (one
        // track per device + one per request) instead of the host spans.
        "serve-trace" => serve_trace(full, trace_path.take()),
        "chaos" => chaos(full, backend),
        "chaos-sharded" => chaos_sharded(full),
        "all" => {
            table2();
            fig2(&scale);
            fig8(&scale, backend);
            table1(&scale, backend);
            fig9(&scale, backend);
            fig10(&scale, backend);
            fig12(&scale, backend);
            serve(full, backend);
        }
        other => usage(&format!("unknown experiment '{other}'")),
    }
    if let Some(path) = metrics_path {
        emit_metrics(path, cmd, backend, full);
    }
    if let Some(path) = trace_path {
        emit_trace(path);
    }
    println!("(completed in {:.1?} host wall time)", t0.elapsed());
}
