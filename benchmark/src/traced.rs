//! The traced pass (`--trace 1`): one repetition's ops replayed through the
//! layers' public entry points with a benchmark-side span around each call,
//! plus the reference passes the per-layer ratios are taken against. It
//! reports per-layer metrics only; end-to-end metrics come from the timed
//! pass, which never runs any of this.
//!
//! Every pass runs [`ROUNDS`] times, interleaved with the others, and host
//! times are summed over the per-position minimum across rounds (see
//! [`min_per_position`]): several metrics are differences between passes,
//! which a shared host's drift would otherwise swamp.

use std::collections::BTreeMap;
use std::time::Instant;

use dyn_graph::levels::level_sort;
use dyn_graph::{Graph, Model, NodeId};
use gpu_sim::DeviceConfig;
use vpps::{BackendKind, Handle, LoweredCacheStats, PhaseBreakdown, VppsOptions};
use vpps_baselines::{BaselineExecutor, Strategy};
use vpps_obs::{Json, TraceAnalysis};
use vpps_serve::ServeReport;

use crate::metrics::Values;
use crate::run::{Opts, Outcome};
use crate::serve::{self, DriveTimes, ServeInputs};
use crate::spans::Spans;
use crate::stats::min_per_position;
use crate::stepped::{Counts, Stepper};
use crate::train::{self, TrainInputs, LEARNING_RATE, POOL_CAPACITY};
use crate::workload::{ServeSpec, Spec, TrainSpec};

/// Interleaved rounds of every pass.
const ROUNDS: usize = 3;

/// Capacity of the server's request-trace sink: every event of the largest
/// repetition fits, so nothing is dropped.
const TRACE_SINK_EVENTS: usize = 1 << 20;

/// Requests replayed on both backends for `engine.lowered_speedup`.
const SERVE_RATIO_REQUESTS: usize = 256;

struct Pass {
    values: Values,
    errors: Vec<String>,
    spans: Spans,
    attempted: u64,
    failed: u64,
}

/// Named series of per-position host µs, each the minimum across rounds.
#[derive(Default)]
struct Mins(BTreeMap<&'static str, Vec<f64>>);

impl Mins {
    fn merge(&mut self, name: &'static str, round: &[f64]) {
        let merged = match self.0.get(name) {
            Some(cur) => min_per_position([cur.as_slice(), round]),
            None => round.to_vec(),
        };
        self.0.insert(name, merged);
    }

    /// Merges a stepped pass's self time per span name and op.
    fn merge_spans(&mut self, spans: &Spans, ops: usize) {
        for (name, per_op) in spans.self_us_per_op(ops) {
            self.merge(name, &per_op);
        }
    }

    fn series(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn sum(&self, name: &str) -> f64 {
        self.series(name).iter().sum()
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn bits(values: &[f32]) -> impl Iterator<Item = u32> + '_ {
    values.iter().map(|x| x.to_bits())
}

/// Lowered-script cache tallies between two snapshots.
fn cache_values(v: &mut Values, before: LoweredCacheStats, after: LoweredCacheStats) {
    let hits = after.script_hits - before.script_hits;
    let misses = after.script_misses - before.script_misses;
    v.insert(
        "engine.script_hit_share",
        share(hits as f64, (hits + misses) as f64),
    );
    v.insert(
        "engine.script_re_misses",
        (after.script_re_misses - before.script_re_misses) as f64,
    );
    v.insert(
        "engine.script_evictions",
        (after.script_evictions - before.script_evictions) as f64,
    );
}

/// Rolls the stepped passes up into the `script.*`, `engine.*` and
/// `dyn_graph.*` metrics. `ops` is inputs or requests; `direct_us` the
/// untraced `Handle` call per op that the split is a split of. Returns the
/// stepped µs per op, everything a `Handle` call covers included.
fn layer_values(v: &mut Values, mins: &Mins, counts: &Counts, ops: f64, direct_us: f64) -> f64 {
    let per_op = |name: &str| mins.sum(name) / ops;
    let generate = per_op("script.generate");
    let lower = per_op("engine.lower");
    let prepare = per_op("engine.prepare");
    let execute = per_op("engine.execute");
    let lower_series = mins.series("engine.lower");
    let miss_us: f64 = counts
        .lower_miss_ops
        .iter()
        .map(|op| lower_series[*op as usize])
        .sum();
    v.insert(
        "dyn_graph.level_sort_us_per_op",
        per_op("dyn_graph.level_sort"),
    );
    v.insert("script.generate_us_per_op", generate);
    v.insert("script.instrs_per_op", counts.script_instrs as f64 / ops);
    v.insert("script.bytes_per_op", counts.script_bytes as f64 / ops);
    v.insert("script.barriers_per_op", counts.barriers as f64 / ops);
    v.insert("engine.lower_us_per_op", lower);
    v.insert(
        "engine.lower_us_per_miss",
        share(miss_us, counts.lower_miss_ops.len() as f64),
    );
    v.insert("engine.prepare_us_per_op", prepare);
    v.insert("engine.execute_us_per_op", execute);
    v.insert("engine.sim_instrs_per_op", counts.sim_instrs as f64 / ops);
    v.insert(
        "engine.host_ns_per_sim_instr",
        share(mins.sum("engine.execute") * 1e3, counts.sim_instrs as f64),
    );
    let layers = generate + lower + prepare + execute;
    v.insert("handle.overhead_us_per_op", direct_us - layers);
    layers + per_op("handle.step")
}

/// Steps the first `k` ops on a fresh `Lowered` and a fresh `EventInterp`
/// pipeline: the in-run reference ratio that survives a noisy machine, and
/// one more bit-identity check.
fn backend_ratio(
    pass: &mut Pass,
    model0: &Model,
    k: usize,
    inputs_per_op: f64,
    opts: &VppsOptions,
    op: impl Fn(&Model, usize) -> (Graph, NodeId, bool),
) {
    const BACKENDS: [(BackendKind, &str); 2] = [
        (BackendKind::Lowered, "lowered"),
        (BackendKind::EventInterp, "interp"),
    ];
    let mut mins = Mins::default();
    let mut outputs: Vec<Vec<u32>> = Vec::new();
    for round in 0..ROUNDS {
        for (backend, series) in BACKENDS {
            let mut model = model0.clone();
            let mut stepper = Stepper::new(&model, backend, opts.pool_capacity, opts.learning_rate);
            let mut spans = Spans::with_capacity(k * 6);
            let mut out_bits = Vec::new();
            for i in 0..k {
                let (g, root, train) = op(&model, i);
                let out = stepper.step(&mut model, &g, root, train, i as u32, &mut spans);
                out_bits.extend(bits(&out));
            }
            let by = spans.self_us_per_op(k);
            let engine_us: Vec<f64> = (0..k)
                .map(|i| {
                    ["engine.lower", "engine.prepare", "engine.execute"]
                        .iter()
                        .filter_map(|n| by.get(n))
                        .map(|per_op| per_op[i])
                        .sum()
                })
                .collect();
            mins.merge(series, &engine_us);
            if round == 0 {
                outputs.push(out_bits);
            }
        }
    }
    if outputs[0] != outputs[1] {
        pass.errors.push(format!(
            "first {k} ops stepped on Lowered and EventInterp give different results"
        ));
    }
    pass.values.insert(
        "engine.interp_execute_us_per_op",
        mins.sum("interp") / (k as f64 * inputs_per_op),
    );
    pass.values.insert(
        "engine.lowered_speedup",
        share(mins.sum("interp"), mins.sum("lowered")),
    );
}

fn plan_values(v: &mut Values, handle: &Handle) {
    let plan = handle.plan();
    v.insert("specialize.sim_jit_s", plan.jit_cost().total().as_secs());
    v.insert(
        "specialize.cached_mb",
        plan.distribution().cached_bytes() as f64 / 1e6,
    );
    v.insert("specialize.ctas_per_sm", plan.ctas_per_sm() as f64);
}

/// The `Handle`'s simulated phase split (Fig. 10) and recovery tallies.
fn handle_values(v: &mut Values, phases: &PhaseBreakdown, handle: &Handle, ops: f64) {
    v.insert(
        "handle.sim_host_us_per_op",
        phases.host_total().as_us() / ops,
    );
    v.insert(
        "handle.sim_device_us_per_op",
        phases.device_total().as_us() / ops,
    );
    let recovery = handle.recovery_stats();
    v.insert("handle.retries", recovery.retries as f64);
    v.insert(
        "handle.backend_fallbacks",
        recovery.backend_fallbacks as f64,
    );
}

/// One op of a stepped pass: build the graph, level-sort it on its own (the
/// generator sorts again inside), then step the pipeline, all under an `op`
/// span. Returns the result bits.
fn step_op(
    spans: &mut Spans,
    stepper: &mut Stepper,
    model: &mut Model,
    op: u32,
    train: bool,
    build: impl FnOnce(&Model) -> (Graph, NodeId),
) -> Vec<u32> {
    spans.scope("op", op, |spans| {
        let (g, root) = spans.enter("models.build", op, || build(model));
        spans.enter("dyn_graph.level_sort", op, || level_sort(&g));
        let out = stepper.step(model, &g, root, train, op, spans);
        bits(&out).collect()
    })
}

fn min_into(v: &mut Values, name: &'static str, value: f64) {
    let slot = v.entry(name).or_insert(value);
    *slot = slot.min(value);
}

fn train_pass(spec: &TrainSpec, seed: u64) -> Pass {
    let mut v = Values::new();
    let mut errors = Vec::new();
    let mut mins = Mins::default();

    let t0 = Instant::now();
    let inputs = TrainInputs::generate(spec, seed);
    v.insert(
        "datasets.sample_us_per_op",
        t0.elapsed().as_secs_f64() * 1e6 / inputs.inputs() as f64,
    );
    let batches = spec.timed_epochs * inputs.batches();

    // What round 0 keeps for the metrics that are not host times.
    let mut reference = None;
    let mut first_spans = None;
    let mut counts = Counts::default();

    for round in 0..ROUNDS {
        // 1. Untraced reference: the same calls as a timed repetition.
        let mut model = inputs.model.clone();
        let t0 = Instant::now();
        let mut handle = train::new_handle(&model, BackendKind::Lowered);
        min_into(
            &mut v,
            "specialize.handle_new_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        train::warm_up(&inputs, &mut model, &mut handle, spec);
        let cache0 = handle.lowered_cache_stats();
        let phases0 = *handle.phases();
        let metrics0 = handle.metrics();
        let pass = train::run_timed(&inputs, &mut model, &mut handle, spec, None);
        mins.merge("fb", &pass.call_us);
        mins.merge("build", &pass.build_us);
        if round == 0 {
            let opsf = pass.inputs as f64;
            plan_values(&mut v, &handle);
            cache_values(&mut v, cache0, handle.lowered_cache_stats());
            v.insert("models.nodes_per_op", pass.nodes as f64 / opsf);
            let phases = handle.phases().delta_since(&phases0);
            handle_values(&mut v, &phases, &handle, opsf);
            let m = handle.metrics();
            let dram = m.dram.delta(&metrics0.dram);
            let kernel = m.kernel_time - metrics0.kernel_time;
            v.insert(
                "gpu_sim.launches_per_op",
                (m.launches - metrics0.launches) as f64 / opsf,
            );
            v.insert(
                "gpu_sim.weight_load_mb_per_kop",
                dram.weight_loads_mb() / opsf * 1e3,
            );
            v.insert(
                "gpu_sim.dram_load_mb_per_kop",
                dram.total_loads() as f64 / 1e6 / opsf * 1e3,
            );
            v.insert("gpu_sim.weight_load_share", dram.weight_load_fraction());
            v.insert("gpu_sim.sim_kernel_us_per_op", kernel.as_us() / opsf);
            v.insert(
                "gpu_sim.barrier_stall_share",
                share(
                    (m.barrier_stall - metrics0.barrier_stall).as_ns(),
                    kernel.as_ns() * handle.plan().total_vpps() as f64,
                ),
            );
        }
        let reference = reference.get_or_insert(pass);

        // 2. Stepped pass over the same batches.
        let mut model = inputs.model.clone();
        let mut stepper = Stepper::new(&model, BackendKind::Lowered, POOL_CAPACITY, LEARNING_RATE);
        min_into(&mut v, "specialize.plan_build_ms", stepper.plan_build_ms);
        let mut warm_spans = Spans::with_capacity(0);
        for _ in 0..spec.warm_epochs {
            for b in 0..inputs.batches() {
                let (g, l) = inputs.build(&model, b);
                stepper.step(&mut model, &g, l, true, 0, &mut warm_spans);
            }
        }
        drop(warm_spans);
        stepper.counts = Counts::default();
        let mut spans = Spans::with_capacity(batches * 8);
        let mut stepped_bits = Vec::with_capacity(batches);
        for i in 0..batches {
            stepped_bits.extend(step_op(
                &mut spans,
                &mut stepper,
                &mut model,
                i as u32,
                true,
                |model| inputs.build(model, i % inputs.batches()),
            ));
        }
        mins.merge_spans(&spans, batches);
        if round == 0 {
            if stepped_bits != reference.loss_bits {
                errors.push("stepped pipeline losses differ from Handle::fb losses".to_owned());
            }
            first_spans = Some(spans);
            counts = stepper.counts.clone();
        }

        // 3. The same repetition with the library's own instrumentation on.
        let mut model = inputs.model.clone();
        let mut handle = train::new_handle(&model, BackendKind::Lowered);
        train::warm_up(&inputs, &mut model, &mut handle, spec);
        vpps_obs::clear_spans();
        let dropped0 = vpps_obs::dropped_spans();
        vpps_obs::set_enabled(true);
        let observed = train::run_timed(&inputs, &mut model, &mut handle, spec, None);
        vpps_obs::set_enabled(false);
        let observed_us: Vec<f64> = observed
            .build_us
            .iter()
            .zip(&observed.call_us)
            .map(|(b, c)| b + c)
            .collect();
        mins.merge("observed", &observed_us);
        if round == 0 {
            let dropped = vpps_obs::dropped_spans() - dropped0;
            let events = vpps_obs::snapshot_spans().len() as u64 + dropped;
            v.insert(
                "obs.trace_events_per_op",
                events as f64 / observed.inputs as f64,
            );
            v.insert("obs.spans_dropped", dropped as f64);
            if observed.loss_bits != reference.loss_bits {
                errors.push("enabling vpps_obs changed the training losses".to_owned());
            }
        }
        vpps_obs::clear_spans();
    }

    let reference = reference.expect("at least one round ran");
    let opsf = reference.inputs as f64;
    let direct_us = mins.sum("fb") / opsf;
    v.insert("handle.fb_us_per_op", direct_us);
    v.insert("models.build_us_per_op", mins.sum("build") / opsf);
    let stepped_us = layer_values(&mut v, &mins, &counts, opsf, direct_us);
    v.insert("trace.stepped_coverage", share(stepped_us, direct_us));
    v.insert(
        "obs.trace_overhead_share",
        mins.sum("observed") / (mins.sum("fb") + mins.sum("build")) - 1.0,
    );

    let mut pass = Pass {
        values: v,
        errors,
        spans: first_spans.expect("at least one round ran"),
        attempted: reference.inputs,
        // A non-finite batch loss fails every input of that batch.
        failed: reference
            .loss_bits
            .iter()
            .filter(|b| !f32::from_bits(**b).is_finite())
            .count() as u64
            * spec.batch as u64,
    };

    // 4. The first batches on both backends.
    let k = (32 / spec.batch).clamp(4, 16).min(batches);
    backend_ratio(
        &mut pass,
        &inputs.model,
        k,
        spec.batch as f64,
        &train::handle_opts(BackendKind::Lowered),
        |model, i| {
            let (g, l) = inputs.build(model, i % inputs.batches());
            (g, l, true)
        },
    );

    // 5. DyNet-style baselines on the same first batches (Fig. 8).
    let vpps_us: f64 = reference.sim_us[..k].iter().sum();
    let k_inputs = k * spec.batch;
    let mut best: Option<(f64, f64)> = None;
    for strategy in [Strategy::DepthBased, Strategy::AgendaBased] {
        let mut model = inputs.model.clone();
        let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), strategy, LEARNING_RATE);
        let t0 = Instant::now();
        for i in 0..k {
            let (g, l) = inputs.build(&model, i % inputs.batches());
            exec.train_batch(&mut model, &g, l);
        }
        let host_us = t0.elapsed().as_secs_f64() * 1e6;
        let sim_us = exec.wall_time().as_us();
        if best.is_none_or(|(s, _)| sim_us < s) {
            best = Some((sim_us, host_us));
        }
    }
    let (sim_us, host_us) = best.expect("two strategies ran");
    pass.values
        .insert("baselines.sim_speedup", share(sim_us, vpps_us));
    pass.values
        .insert("baselines.train_us_per_op", host_us / k_inputs as f64);
    pass
}

/// The server's handles use the library defaults for everything the
/// workload does not set; the direct and stepped passes must match them.
fn serve_handle_opts() -> VppsOptions {
    VppsOptions {
        pool_capacity: 1 << 22,
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    }
}

fn serve_pass(spec: &ServeSpec, seed: u64) -> Pass {
    let mut v = Values::new();
    let mut errors = Vec::new();
    let mut mins = Mins::default();
    let n = spec.requests;
    let opsf = n as f64;
    let opts = serve_handle_opts();

    let t0 = Instant::now();
    let inputs = ServeInputs::generate(spec, seed);
    v.insert(
        "datasets.sample_us_per_op",
        t0.elapsed().as_secs_f64() * 1e6 / opsf,
    );

    let mut failed = 0;
    let mut result_hash = 0;
    let mut direct_bits: Vec<u32> = Vec::new();
    let mut first_spans = None;
    let mut counts = Counts::default();

    for round in 0..ROUNDS {
        // 1. Untraced reference: the same calls as a timed repetition.
        let t0 = Instant::now();
        let (mut server, mid) = serve::server_for(spec, &inputs.model, BackendKind::Lowered);
        min_into(
            &mut v,
            "specialize.handle_new_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        let mut times = DriveTimes::default();
        let ids = serve::drive(&mut server, mid, &inputs, spec, n, &mut times);
        mins.merge("serve", &times.seg_us);
        mins.merge("build", &times.build_us);
        mins.merge("submit", &times.submit_us);
        mins.merge("pump", &times.pump_us);
        if round == 0 {
            let verdict = serve::verdict(&server, &ids);
            failed = verdict.failed;
            result_hash = verdict.result_hash;
            v.insert("models.nodes_per_op", times.nodes as f64 / opsf);
            cache_values(
                &mut v,
                LoweredCacheStats::default(),
                server.lowered_cache_stats(),
            );
            let report = ServeReport::from_outcomes(server.outcomes());
            v.insert("serve.mean_batch", report.mean_batch);
            v.insert("serve.batches", report.batches as f64);
            v.insert("serve.shed", report.total_shed() as f64);
            v.insert("serve.redispatched", server.redispatched_batches() as f64);
            let router = server.router_stats();
            v.insert("serve.rehomes", router.rehomes as f64);
            v.insert("serve.cold_rebuilds", router.cold_rebuilds as f64);
            v.insert("serve.sim_queue_wait_us_p99", report.queue_wait.p99_us);
            v.insert("serve.sim_execute_us_p99", report.execute.p99_us);
            let busy: Vec<f64> = server
                .device_stats()
                .iter()
                .map(|d| share(d.busy.as_secs(), report.makespan_s))
                .collect();
            let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
            v.insert("serve.sim_device_busy_share", mean_busy);
            v.insert(
                "serve.sim_device_busy_imbalance",
                share(busy.iter().copied().fold(0.0, f64::max), mean_busy),
            );
        }
        drop(server);

        // 2. The same graphs straight through one `Handle`.
        let mut model = inputs.model.clone();
        let mut handle = Handle::new(&model, DeviceConfig::titan_v(), opts)
            .expect("workload model fits the device");
        let mut out_bits: Vec<u32> = Vec::new();
        let mut build_us = Vec::with_capacity(n);
        let mut call_us = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            let (g, root) = inputs.build(i);
            let t1 = Instant::now();
            if inputs.reqs[i].train {
                handle.fb(&mut model, &g, root);
                out_bits.push(handle.sync_get_latest_loss().to_bits());
            } else {
                out_bits.extend(bits(&handle.infer(&mut model, &g, root)));
            }
            build_us.push((t1 - t0).as_secs_f64() * 1e6);
            call_us.push(t1.elapsed().as_secs_f64() * 1e6);
        }
        mins.merge("direct_build", &build_us);
        mins.merge("direct_call", &call_us);
        if round == 0 {
            plan_values(&mut v, &handle);
            handle_values(&mut v, handle.phases(), &handle, opsf);
            direct_bits = out_bits;
        }
        drop(handle);

        // 3. Stepped pass over the same graphs.
        let mut model = inputs.model.clone();
        let mut stepper = Stepper::new(
            &model,
            BackendKind::Lowered,
            opts.pool_capacity,
            opts.learning_rate,
        );
        min_into(&mut v, "specialize.plan_build_ms", stepper.plan_build_ms);
        let mut spans = Spans::with_capacity(n * 8);
        let mut stepped_bits: Vec<u32> = Vec::with_capacity(direct_bits.len());
        for i in 0..n {
            stepped_bits.extend(step_op(
                &mut spans,
                &mut stepper,
                &mut model,
                i as u32,
                inputs.reqs[i].train,
                |_| inputs.build(i),
            ));
        }
        mins.merge_spans(&spans, n);
        if round == 0 {
            if stepped_bits != direct_bits {
                errors.push(
                    "stepped pipeline outputs differ from Handle::infer/fb outputs".to_owned(),
                );
            }
            first_spans = Some(spans);
            counts = stepper.counts.clone();
        }
        drop(stepper);

        // 4. The same repetition with request tracing and instrumentation on.
        vpps_obs::clear_spans();
        let dropped0 = vpps_obs::dropped_spans();
        let (mut traced, mid) = serve::server_for(spec, &inputs.model, BackendKind::Lowered);
        traced.enable_tracing(TRACE_SINK_EVENTS, 1);
        vpps_obs::set_enabled(true);
        let mut traced_times = DriveTimes::default();
        let traced_ids = serve::drive(&mut traced, mid, &inputs, spec, n, &mut traced_times);
        vpps_obs::set_enabled(false);
        mins.merge("traced", &traced_times.seg_us);
        if round == 0 {
            let host_dropped = vpps_obs::dropped_spans() - dropped0;
            if serve::verdict(&traced, &traced_ids).result_hash != result_hash {
                errors.push("enabling tracing changed the outcome stream".to_owned());
            }
            let sink = traced.take_trace().expect("tracing was enabled");
            let t0 = Instant::now();
            let analysis = TraceAnalysis::analyze(&sink);
            v.insert("obs.analyze_ms", t0.elapsed().as_secs_f64() * 1e3);
            v.insert("obs.trace_events_per_op", sink.len() as f64 / opsf);
            v.insert("obs.spans_dropped", (sink.dropped() + host_dropped) as f64);
            v.insert(
                "obs.trace_complete",
                f64::from(u8::from(analysis.complete())),
            );
            // Dropped events make the trace incomplete (reported above); a
            // structural error in what was recorded is a failed check.
            if let Some(e) = analysis.errors.first() {
                errors.push(format!("request trace is unsound: {e}"));
            }
        }
        vpps_obs::clear_spans();
    }

    let serve_us = mins.sum("serve") / opsf;
    let direct_us = mins.sum("direct_call") / opsf;
    v.insert("models.build_us_per_op", mins.sum("build") / opsf);
    v.insert("serve.submit_us_per_op", mins.sum("submit") / opsf);
    v.insert("serve.pump_us_per_op", mins.sum("pump") / opsf);
    v.insert("handle.fb_us_per_op", direct_us);
    v.insert(
        "serve.overhead_share",
        1.0 - share(direct_us + mins.sum("direct_build") / opsf, serve_us),
    );
    v.insert(
        "obs.trace_overhead_share",
        mins.sum("traced") / mins.sum("serve") - 1.0,
    );
    let stepped_us = layer_values(&mut v, &mins, &counts, opsf, direct_us);
    v.insert(
        "trace.stepped_coverage",
        share(stepped_us + mins.sum("models.build") / opsf, serve_us),
    );

    let mut pass = Pass {
        values: v,
        errors,
        spans: first_spans.expect("at least one round ran"),
        attempted: n as u64,
        failed,
    };

    // 5. The first requests on both backends.
    backend_ratio(
        &mut pass,
        &inputs.model,
        SERVE_RATIO_REQUESTS.min(n),
        1.0,
        &opts,
        |_, i| {
            let (g, root) = inputs.build(i);
            (g, root, inputs.reqs[i].train)
        },
    );
    pass
}

/// Runs the traced pass of one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let pass = match opts.workload.spec(opts.smoke) {
        Spec::Train(s) => train_pass(&s, opts.seed),
        Spec::Serve(s) => serve_pass(&s, opts.seed),
    };
    if let Some(path) = &opts.spans {
        let mut text = String::new();
        pass.spans.to_json().write(&mut text);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for e in &pass.errors {
        eprintln!("check failed: {e}");
    }
    let mut detail = Json::obj();
    detail.set("rounds", Json::from(ROUNDS as u64));
    detail.set("spans", Json::from(pass.spans.spans().len() as u64));
    detail.set(
        "errors",
        Json::Arr(pass.errors.iter().map(|e| Json::from(e.as_str())).collect()),
    );
    Ok(Outcome {
        correct: pass.errors.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        values: pass.values,
        detail,
    })
}
