//! Invariants of the `vpps-serve` serving layer under randomized traffic:
//!
//! * every submitted request is resolved exactly once — completed or shed,
//!   never both, never dropped silently;
//! * no dispatched batch mixes specialization plans (checked across two
//!   models with distinct plan signatures), request kinds, or sizes beyond
//!   the policy's `max_batch`;
//! * the linger bound holds on the virtual clock: a completed request is
//!   always dispatched within `max_linger` of its arrival;
//! * batched inference is bit-identical to serial per-request execution of
//!   the same trace — batching changes scheduling, never numerics;
//! * device failure domains hold under randomized whole-device outages:
//!   nothing is ever placed on (or stolen by) a Draining or Down device,
//!   exactly-once resolution survives crash/hang/brownout windows, outputs
//!   stay bit-identical to a fault-free run, and a revived device re-earns
//!   `Healthy` through exactly its configured probation ramp.
//!
//! The traffic generator drives a scaled-down Tree-LSTM serving workload:
//! random arrival gaps, tenants, per-request parse trees (so graph shapes
//! differ), and randomized batching/admission policies.

use std::collections::BTreeMap;

use dyn_graph::Model;
use gpu_sim::{DeviceConfig, OutageKind, OutageWindow, SimTime};
use proptest::prelude::*;
use vpps::{BackendKind, RecoveryStats};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{DynamicModel, TreeLstm};
use vpps_serve::{
    Admission, AdmissionPolicy, BatchPolicy, DeviceHealth, ModelId, Outcome, Request, RequestKind,
    ServeConfig, Server, ShedReason, TenantId,
};

/// One randomly generated request, before materialization into a graph.
#[derive(Debug, Clone)]
struct ReqSpec {
    tenant: u32,
    /// Gap to the previous arrival, nanoseconds.
    gap_ns: u32,
    /// Seed for the per-request parse tree (controls graph shape).
    sample_seed: u32,
    /// Which of the two registered models this request targets.
    second_model: bool,
    train: bool,
}

/// One randomly generated serving run: a trace plus the policies.
#[derive(Debug, Clone)]
struct RunSpec {
    reqs: Vec<ReqSpec>,
    max_batch: usize,
    linger_us: u16,
    queue_capacity: usize,
    tenant_quota: usize,
    /// Relative deadline in microseconds; 0 disables deadlines.
    deadline_us: u32,
}

fn arb_run() -> impl Strategy<Value = RunSpec> {
    let req = (0u32..3, 0u32..400_000, any::<u32>(), any::<bool>(), 0u8..4).prop_map(
        |(tenant, gap_ns, sample_seed, second_model, train)| ReqSpec {
            tenant,
            gap_ns,
            sample_seed,
            second_model,
            // ~1 in 4 requests trains.
            train: train == 0,
        },
    );
    (
        prop::collection::vec(req, 1..24),
        1usize..6,
        20u16..400,
        4usize..64,
        2usize..32,
        prop_oneof![Just(0u32), 50u32..5_000],
    )
        .prop_map(
            |(reqs, max_batch, linger_us, queue_capacity, tenant_quota, deadline_us)| RunSpec {
                reqs,
                max_batch,
                linger_us,
                queue_capacity,
                tenant_quota,
                deadline_us,
            },
        )
}

/// Two Tree-LSTM workloads with different dimensions — and therefore
/// different specialization plans — behind one server.
struct TwoModelWorkload {
    arches: [TreeLstm; 2],
    models: [Model; 2],
}

impl TwoModelWorkload {
    fn new() -> Self {
        let mut m0 = Model::new(11);
        let a0 = TreeLstm::register(&mut m0, 60, 16, 16, 3);
        let mut m1 = Model::new(13);
        let a1 = TreeLstm::register(&mut m1, 60, 24, 24, 3);
        Self {
            arches: [a0, a1],
            models: [m0, m1],
        }
    }

    fn graph(&self, which: usize, sample_seed: u32) -> (dyn_graph::Graph, dyn_graph::NodeId) {
        let mut bank = Treebank::new(TreebankConfig {
            vocab: 60,
            min_len: 3,
            max_len: 7,
            classes: 3,
            seed: u64::from(sample_seed),
        });
        let sample = bank.sample();
        self.arches[which].build(&self.models[which], &sample)
    }
}

fn server_for(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    backend: BackendKind,
) -> (Server, [ModelId; 2]) {
    server_with(spec, workload, devices, backend, |_| {})
}

/// [`server_for`] with a config tweak applied before construction (used to
/// arm outage schedules and shrink the probation ramp).
fn server_with(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    backend: BackendKind,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (Server, [ModelId; 2]) {
    server_on(spec, workload, devices, backend, None, tweak)
}

/// [`server_with`] on `workers` background compute threads, or on as many
/// as [`Server::new`] picks for this host.
fn server_on(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    backend: BackendKind,
    workers: Option<usize>,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (Server, [ModelId; 2]) {
    let mut cfg = ServeConfig {
        device: DeviceConfig::titan_v(),
        opts: vpps::VppsOptions {
            pool_capacity: 1 << 21,
            backend,
            ..vpps::VppsOptions::default()
        },
        batch: BatchPolicy {
            max_batch: spec.max_batch,
            max_linger: SimTime::from_us(f64::from(spec.linger_us)),
            deadline_aware: true,
        },
        admission: AdmissionPolicy {
            queue_capacity: spec.queue_capacity,
            tenant_quota: spec.tenant_quota,
        },
        recovery: vpps_serve::RecoveryConfig,
        shard: vpps_serve::ShardPolicy {
            devices,
            ..vpps_serve::ShardPolicy::default()
        },
        health: vpps_serve::HealthPolicy::default(),
    };
    tweak(&mut cfg);
    let mut server = match workers {
        Some(workers) => Server::with_compute_workers(cfg, workers),
        None => Server::new(cfg),
    };
    let m0 = server
        .register_model("small", workload.models[0].clone())
        .expect("small model fits");
    let m1 = server
        .register_model("large", workload.models[1].clone())
        .expect("large model fits");
    (server, [m0, m1])
}

/// Submits the trace with every arrival (and deadline) shifted by `offset`,
/// returning the admission verdicts in submission order.
fn submit_trace(
    server: &mut Server,
    mids: [ModelId; 2],
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    offset: SimTime,
) -> Vec<Admission> {
    let mut clock = offset;
    let mut admissions = Vec::with_capacity(spec.reqs.len());
    for r in &spec.reqs {
        clock += SimTime::from_ns(f64::from(r.gap_ns));
        let which = usize::from(r.second_model);
        let (graph, root) = workload.graph(which, r.sample_seed);
        let deadline =
            (spec.deadline_us > 0).then(|| clock + SimTime::from_us(f64::from(spec.deadline_us)));
        admissions.push(server.submit(Request {
            tenant: TenantId(r.tenant),
            model: mids[which],
            kind: if r.train {
                RequestKind::Train
            } else {
                RequestKind::Infer
            },
            graph,
            root,
            arrival: clock,
            deadline,
        }));
    }
    admissions
}

/// Drives the whole trace through a server and returns it drained, plus the
/// admission verdict for every request in submission order.
fn run_trace(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    backend: BackendKind,
) -> (Server, [ModelId; 2], Vec<Admission>) {
    let (mut server, mids) = server_for(spec, workload, devices, backend);
    let admissions = submit_trace(&mut server, mids, spec, workload, SimTime::ZERO);
    server.drain();
    (server, mids, admissions)
}

/// Infer-only variant of a spec with admission wide open: every request
/// completes, so output and cache comparisons see the whole trace.
fn completing_spec(spec: &RunSpec) -> RunSpec {
    let mut spec = spec.clone();
    for r in &mut spec.reqs {
        r.train = false;
    }
    spec.deadline_us = 0;
    spec.queue_capacity = 10_000;
    spec.tenant_quota = 10_000;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every submitted request resolves exactly once, shed admissions stay
    /// shed, and no outcome appears for a request that was never submitted.
    #[test]
    fn every_request_resolves_exactly_once(spec in arb_run()) {
        let workload = TwoModelWorkload::new();
        let (server, _, admissions) = run_trace(&spec, &workload, 1, BackendKind::default());
        prop_assert_eq!(server.outcomes().len(), spec.reqs.len(),
            "one outcome per submitted request");
        let mut seen = BTreeMap::new();
        for o in server.outcomes() {
            *seen.entry(o.id()).or_insert(0u32) += 1;
        }
        for (id, n) in &seen {
            prop_assert_eq!(*n, 1, "request {:?} resolved {} times", id, n);
        }
        for adm in &admissions {
            match adm {
                Admission::Queued(id) => {
                    prop_assert!(seen.contains_key(id), "queued {id:?} has an outcome");
                }
                Admission::Shed(id, _) => {
                    let shed_now = server.outcomes().iter().any(
                        |o| matches!(o, Outcome::Shed(s) if s.id == *id));
                    prop_assert!(shed_now, "shed-at-admission {id:?} recorded as shed");
                }
            }
        }
    }

    /// A dispatched batch never mixes specialization plans, request kinds,
    /// or more members than the policy allows. Batch identity is
    /// `(model, dispatched_at, completed_at)`: one model executes batches
    /// serially on its device, so no two batches share all three.
    #[test]
    fn batches_are_homogeneous_and_bounded(spec in arb_run()) {
        let workload = TwoModelWorkload::new();
        let (server, mids, _) = run_trace(&spec, &workload, 1, BackendKind::default());
        prop_assert!(server.plan_signature(mids[0]) != server.plan_signature(mids[1]),
            "the two workload models must have distinct plans");
        let mut batches: BTreeMap<(usize, u64, u64), Vec<_>> = BTreeMap::new();
        for o in server.outcomes() {
            if let Outcome::Completed(c) = o {
                batches
                    .entry((
                        c.model.0,
                        c.dispatched_at.as_ns().to_bits(),
                        c.completed_at.as_ns().to_bits(),
                    ))
                    .or_default()
                    .push(c);
            }
        }
        for ((model, _, _), members) in &batches {
            let kind = members[0].kind;
            let size = members[0].batch_size;
            prop_assert!(size <= spec.max_batch, "batch of {} exceeds max {}", size, spec.max_batch);
            prop_assert_eq!(members.len(), size,
                "batch on model {} reports size {} but has {} members", model, size, members.len());
            for c in members {
                prop_assert_eq!(c.kind, kind, "batch mixes request kinds");
                prop_assert_eq!(c.batch_size, size, "batch members disagree on size");
            }
        }
    }

    /// The linger bound: on the virtual clock, every completed request was
    /// dispatched no later than `arrival + max_linger`.
    #[test]
    fn linger_deadline_is_never_exceeded(spec in arb_run()) {
        let workload = TwoModelWorkload::new();
        let (server, _, _) = run_trace(&spec, &workload, 1, BackendKind::default());
        let linger = SimTime::from_us(f64::from(spec.linger_us));
        for o in server.outcomes() {
            if let Outcome::Completed(c) = o {
                prop_assert!(
                    c.dispatched_at <= c.arrival + linger,
                    "request {:?} arrived {} us, dispatched {} us, linger {} us",
                    c.id, c.arrival.as_us(), c.dispatched_at.as_us(), linger.as_us()
                );
            }
        }
    }

    /// Batching changes scheduling, never numerics: an all-inference trace
    /// produces bit-identical outputs whether batched or executed one
    /// request at a time.
    #[test]
    fn batched_inference_matches_serial_bitwise(spec in arb_run()) {
        // Inference only (training mutates weights, so request outputs
        // depend on everything executed before them), no deadline sheds,
        // and admission wide enough that both configurations keep
        // everything.
        let spec = completing_spec(&spec);
        let mut serial = spec.clone();
        serial.max_batch = 1;

        let workload = TwoModelWorkload::new();
        let (batched_srv, _, _) = run_trace(&spec, &workload, 1, BackendKind::default());
        let (serial_srv, _, _) = run_trace(&serial, &workload, 1, BackendKind::default());

        let batched = completed_outputs(&batched_srv);
        let serial = completed_outputs(&serial_srv);
        prop_assert_eq!(batched.len(), spec.reqs.len(), "batched run completed everything");
        prop_assert_eq!(serial.len(), spec.reqs.len(), "serial run completed everything");
        for (id, bits) in &batched {
            prop_assert_eq!(&serial[id], bits, "request {:?} differs from serial run", id);
        }
    }

    /// Two batches drawn from the same bucket lower to the same script-cache
    /// key: resubmitting an identical (time-shifted) trace re-forms the same
    /// batches, and with the lowered backend every one of them must hit the
    /// warm script cache instead of lowering again.
    #[test]
    fn repeated_traces_hit_the_warm_script_cache(spec in arb_run()) {
        let spec = completing_spec(&spec);
        let workload = TwoModelWorkload::new();
        let (mut server, mids) = server_for(&spec, &workload, 1, BackendKind::Lowered);
        submit_trace(&mut server, mids, &spec, &workload, SimTime::ZERO);
        server.drain();
        let cold = server.lowered_cache_stats();
        // The trace is mus-scale; one second is safely past the drain.
        let offset = SimTime::from_secs(1.0);
        prop_assert!(server.now() < offset, "pass 1 ran past the replay offset");
        submit_trace(&mut server, mids, &spec, &workload, offset);
        server.drain();
        let warm = server.lowered_cache_stats();
        prop_assert_eq!(warm.script_misses, cold.script_misses,
            "an identical resubmitted trace must not lower any new script");
        prop_assert!(warm.script_hits > cold.script_hits,
            "the replayed batches must hit the script cache");
        prop_assert_eq!(warm.script_re_misses, 0, "structure-keyed buckets never re-miss");
        prop_assert_eq!(warm.script_evictions, 0, "a fault-free run far below capacity never evicts");
    }

    /// Sharding changes placement, never numerics: an all-inference trace
    /// produces bit-identical per-request outputs on any device count.
    #[test]
    fn sharded_execution_matches_single_device_bitwise(spec in arb_run(), devices in 2usize..5) {
        let spec = completing_spec(&spec);
        let workload = TwoModelWorkload::new();
        let (single_srv, _, _) = run_trace(&spec, &workload, 1, BackendKind::default());
        let (sharded_srv, _, _) = run_trace(&spec, &workload, devices, BackendKind::default());

        let single = completed_outputs(&single_srv);
        let sharded = completed_outputs(&sharded_srv);
        prop_assert_eq!(single.len(), spec.reqs.len(), "single-device run completed everything");
        prop_assert_eq!(sharded.len(), spec.reqs.len(), "sharded run completed everything");
        for (id, bits) in &sharded {
            prop_assert_eq!(&single[id], bits,
                "request {:?} differs between {} devices and one", id, devices);
        }
    }
}

/// One randomized whole-device outage: which non-zero device it hits, the
/// window, and the fault kind.
#[derive(Debug, Clone, Copy)]
struct OutageSpec {
    victim_pick: u32,
    start_us: u32,
    len_us: u32,
    kind_pick: u8,
}

fn arb_outage() -> impl Strategy<Value = OutageSpec> {
    (any::<u32>(), 0u32..2_000, 300u32..5_000, any::<u8>()).prop_map(
        |(victim_pick, start_us, len_us, kind_pick)| OutageSpec {
            victim_pick,
            start_us,
            len_us,
            kind_pick,
        },
    )
}

impl OutageSpec {
    /// The outage window against a concrete fleet: victims are always
    /// non-zero devices (device 0 survives) and kinds cycle through `picks`.
    fn window(&self, devices: usize, picks: &[OutageKind]) -> OutageWindow {
        OutageWindow {
            device: 1 + self.victim_pick % (devices as u32 - 1),
            kind: picks[self.kind_pick as usize % picks.len()],
            start: SimTime::from_us(f64::from(self.start_us)),
            end: SimTime::from_us(f64::from(self.start_us + self.len_us)),
        }
    }
}

/// Drives the trace through a sharded server with one scheduled outage
/// armed, returning it drained.
fn run_outage_trace(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    window: OutageWindow,
) -> Server {
    run_outage_trace_armed(spec, workload, devices, window, |_| {})
}

/// [`run_outage_trace`] with `arm` applied to the server before the first
/// submission (used to switch tracing on).
fn run_outage_trace_armed(
    spec: &RunSpec,
    workload: &TwoModelWorkload,
    devices: usize,
    window: OutageWindow,
    arm: impl FnOnce(&mut Server),
) -> Server {
    let (mut server, mids) = server_with(
        spec,
        workload,
        devices,
        BackendKind::default(),
        |cfg: &mut ServeConfig| {
            cfg.opts
                .faults
                .push_outage(window)
                .expect("one window fits");
        },
    );
    arm(&mut server);
    submit_trace(&mut server, mids, spec, workload, SimTime::ZERO);
    server.drain();
    server
}

/// The victim's single outage cycle, reconstructed from its health log:
/// when it left service, when it came back under probation, and when (if
/// ever) it re-earned `Healthy`.
struct OutageCycle {
    draining_at: SimTime,
    reviving_at: Option<SimTime>,
    healthy_at: Option<SimTime>,
}

fn outage_cycle(srv: &Server, victim: usize) -> Option<OutageCycle> {
    let log = srv.device_health_log(victim);
    let draining_at = log
        .iter()
        .find(|t| t.to == DeviceHealth::Draining)
        .map(|t| t.at)?;
    Some(OutageCycle {
        draining_at,
        reviving_at: log
            .iter()
            .find(|t| t.to == DeviceHealth::Reviving)
            .map(|t| t.at),
        healthy_at: log
            .iter()
            .find(|t| t.to == DeviceHealth::Healthy)
            .map(|t| t.at),
    })
}

/// Batches the victim executed, as `(dispatched_at, completed_at)` pairs —
/// every completion in one batch shares both timestamps.
fn victim_batches(srv: &Server, victim: usize) -> Vec<(SimTime, SimTime)> {
    let mut batches: Vec<(SimTime, SimTime)> = Vec::new();
    for o in srv.outcomes() {
        if let Outcome::Completed(c) = o {
            if c.device == victim && !batches.contains(&(c.dispatched_at, c.completed_at)) {
                batches.push((c.dispatched_at, c.completed_at));
            }
        }
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routing and work stealing respect health: from the moment a device
    /// starts draining until its revival, nothing is dispatched to it — no
    /// placement, no affinity hit, no steal — and no batch dispatched
    /// before the outage is allowed to report a completion from inside it
    /// (aborted work must resolve elsewhere). Every request still resolves
    /// exactly once.
    #[test]
    fn nothing_runs_on_a_draining_or_down_device(
        spec in arb_run(),
        devices in 2usize..5,
        outage in arb_outage(),
    ) {
        let window = outage.window(devices, &[OutageKind::Crash, OutageKind::Hang]);
        let victim = window.device as usize;
        let workload = TwoModelWorkload::new();
        let srv = run_outage_trace(&spec, &workload, devices, window);

        prop_assert_eq!(srv.outcomes().len(), spec.reqs.len(),
            "one outcome per submitted request");
        let mut seen = BTreeMap::new();
        for o in srv.outcomes() {
            *seen.entry(o.id()).or_insert(0u32) += 1;
        }
        for (id, n) in &seen {
            prop_assert_eq!(*n, 1, "request {:?} resolved {} times", id, n);
        }

        // A short or idle hang may thaw undetected; the routing property
        // is about the declared Draining..Reviving service gap.
        if let Some(cycle) = outage_cycle(&srv, victim) {
            // Past any virtual clock in these traces, when the victim never
            // revived (the trace drained inside the window).
            let until = cycle.reviving_at.unwrap_or(SimTime::from_secs(1e9));
            for (dispatched_at, completed_at) in victim_batches(&srv, victim) {
                prop_assert!(
                    !(dispatched_at >= cycle.draining_at && dispatched_at < until),
                    "batch dispatched to device {} at {} us, inside its outage \
                     ({} us .. {} us)",
                    victim, dispatched_at.as_us(),
                    cycle.draining_at.as_us(), until.as_us()
                );
                prop_assert!(
                    completed_at < cycle.draining_at || dispatched_at >= until,
                    "batch on device {} spans its outage: dispatched {} us, \
                     completed {} us", victim,
                    dispatched_at.as_us(), completed_at.as_us()
                );
            }
        }
    }

    /// Outages change placement and timing, never results: across crash,
    /// hang, and brownout windows the completed outputs are bit-identical
    /// to a fault-free single-device run of the same trace, and everything
    /// still completes.
    #[test]
    fn outage_outputs_match_a_fault_free_run_bitwise(
        spec in arb_run(),
        devices in 2usize..5,
        outage in arb_outage(),
    ) {
        let spec = completing_spec(&spec);
        let window = outage.window(devices, &OutageKind::ALL);
        let workload = TwoModelWorkload::new();
        let (clean_srv, _, _) = run_trace(&spec, &workload, 1, BackendKind::default());
        let outage_srv = run_outage_trace(&spec, &workload, devices, window);

        let clean = completed_outputs(&clean_srv);
        let faulted = completed_outputs(&outage_srv);
        prop_assert_eq!(faulted.len(), spec.reqs.len(),
            "the {:?} outage must not lose or shed anything", window.kind);
        for (id, bits) in &faulted {
            prop_assert_eq!(&clean[id], bits,
                "request {:?} differs from the fault-free run under {:?}",
                id, window.kind);
        }
    }

    /// The revival probation ramp is exact: affinity re-homed off a down
    /// device stays re-homed — the victim executes nothing until its
    /// `Reviving` transition, and it re-earns `Healthy` after completing
    /// exactly `probation_warm_batches` batches (fewer ever run while it is
    /// still on probation).
    #[test]
    fn rehomed_work_returns_only_through_the_probation_ramp(
        spec in arb_run(),
        devices in 2usize..5,
        outage in arb_outage(),
        probation in 1u32..4,
    ) {
        let window = outage.window(devices, &[OutageKind::Crash, OutageKind::Hang]);
        let victim = window.device as usize;
        let workload = TwoModelWorkload::new();
        let (mut server, mids) = server_with(
            &spec,
            &workload,
            devices,
            BackendKind::default(),
            |cfg: &mut ServeConfig| {
                cfg.opts.faults.push_outage(window).expect("one window fits");
                cfg.health.probation_warm_batches = probation;
            },
        );
        submit_trace(&mut server, mids, &spec, &workload, SimTime::ZERO);
        server.drain();

        let Some(cycle) = outage_cycle(&server, victim) else { return Ok(()) };
        let Some(reviving_at) = cycle.reviving_at else { return Ok(()) };
        let ramp: Vec<_> = victim_batches(&server, victim)
            .into_iter()
            .filter(|&(dispatched_at, completed_at)| {
                dispatched_at >= reviving_at
                    && cycle.healthy_at.is_none_or(|h| completed_at <= h)
            })
            .collect();
        match cycle.healthy_at {
            Some(_) => prop_assert_eq!(
                ramp.len() as u32, probation,
                "a device re-earns Healthy after exactly its probation ramp"
            ),
            None => prop_assert!(
                (ramp.len() as u32) < probation,
                "{} batches ran on device {} while still on probation (ramp {})",
                ramp.len(), victim, probation
            ),
        }
    }
}

/// Per-request output bits of every completion in a drained server.
fn completed_outputs(srv: &Server) -> BTreeMap<vpps_serve::RequestId, Vec<u32>> {
    srv.outcomes()
        .iter()
        .filter_map(|o| match o {
            Outcome::Completed(c) => Some((c.id, c.output.iter().map(|v| v.to_bits()).collect())),
            Outcome::Shed(_) => None,
        })
        .collect()
}

/// The hand-timed trace of [`virtual_timeline_is_pinned_across_commits`]:
/// `(arrival µs, tenant, parse-tree seed, second model, train)`. Every
/// fourth request trains.
const PINNED_TRACE: [(u32, u32, u32, bool, bool); 48] = [
    (80, 0, 1, false, false),
    (96, 1, 1, false, false),
    (112, 2, 2, true, false),
    (128, 0, 2, true, true),
    (960, 1, 3, false, false),
    (1000, 2, 3, false, false),
    (1040, 0, 1, false, false),
    (1080, 1, 4, true, true),
    (2240, 0, 3, false, false),
    (2242, 1, 3, false, false),
    (2244, 2, 3, false, false),
    (2246, 0, 5, false, true),
    (2248, 1, 3, false, false),
    (2250, 2, 3, false, false),
    (2252, 0, 3, false, false),
    (2254, 1, 6, true, true),
    (5600, 1, 1, false, false),
    (5640, 2, 1, false, false),
    (5680, 0, 2, true, false),
    (5720, 1, 7, false, true),
    (12800, 2, 3, false, false),
    (12840, 0, 3, false, false),
    (12880, 1, 2, true, false),
    (12920, 2, 4, true, true),
    (15920, 0, 1, false, false),
    (15936, 1, 1, false, false),
    (15952, 2, 2, true, false),
    (15968, 0, 8, true, true),
    (16400, 1, 3, false, false),
    (16480, 2, 3, false, false),
    (16560, 0, 1, false, false),
    (16640, 1, 5, false, true),
    (24000, 2, 2, true, false),
    (24080, 0, 2, true, false),
    (24160, 1, 1, false, false),
    (24240, 2, 9, true, true),
    (35920, 0, 1, false, false),
    (35936, 1, 3, false, false),
    (35952, 2, 2, true, false),
    (35968, 0, 4, true, true),
    (36160, 1, 1, false, false),
    (36320, 2, 3, false, false),
    (36480, 0, 2, true, false),
    (36640, 1, 6, true, true),
    (40080, 2, 1, false, false),
    (40160, 0, 3, false, false),
    (40240, 1, 2, true, false),
    (40320, 2, 7, false, true),
];

/// Renders the *discrete* timeline of a drained server: outcomes in recorded
/// order, every device's health walk, and the routing/dispatch tallies. No
/// float goes in — output values pass through `tanh`/`exp` and every
/// timestamp through a `log2` in the host cost model, so their bits depend
/// on the host's libm; orders and counts do not.
fn discrete_timeline(srv: &Server, devices: usize) -> String {
    let mut lines: Vec<String> = srv
        .outcomes()
        .iter()
        .map(|o| match o {
            Outcome::Completed(c) => {
                format!("{} completed d{} b{}", c.id.0, c.device, c.batch_size)
            }
            Outcome::Shed(s) => format!("{} shed {}", s.id.0, s.reason.name()),
        })
        .collect();
    lines.extend((0..devices).map(|d| {
        let walk: Vec<String> = srv
            .device_health_log(d)
            .iter()
            .map(|t| format!("{}>{}", t.from, t.to))
            .collect();
        format!("d{d} health {}", walk.join(" "))
    }));
    let r = srv.router_stats();
    lines.push(format!(
        "routed {} placements {} affinity {} steals {} rehomes {} cold {}",
        r.routed, r.placements, r.affinity_hits, r.steals, r.rehomes, r.cold_rebuilds
    ));
    lines.push(format!(
        "redispatched {} batches {} failures {}",
        srv.redispatched_batches(),
        srv.batches_dispatched(),
        srv.batch_failures()
    ));
    lines.join("\n") + "\n"
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of [`discrete_timeline`] over [`PINNED_TRACE`], computed at commit
/// `644d7cf`.
const PINNED_TIMELINE_HASH: u64 = 8_924_471_552_644_543_197;

/// Memory pool of every handle in [`pinned_chaos_run`], in elements: room
/// for the resident tables and every request graph of [`PINNED_TRACE`]
/// alone but the larger model's training graph of parse tree 4, and not
/// for three of the smaller model's largest inference graphs in one batch.
const PINNED_POOL: usize = 10_000;

/// The chaos run [`virtual_timeline_is_pinned_across_commits`] pins, on
/// the lowered backend (whose ladder has two backend rungs above the
/// baseline) and `workers` background compute threads (or as many as the
/// host gets), with `arm` applied to the server before the first
/// submission. Drained.
fn pinned_chaos_run(workers: Option<usize>, arm: impl FnOnce(&mut Server)) -> Server {
    let mut at_us = 0;
    let reqs = PINNED_TRACE
        .iter()
        .map(|&(arrival_us, tenant, sample_seed, second_model, train)| {
            let gap_ns = (arrival_us - at_us) * 1_000;
            at_us = arrival_us;
            ReqSpec {
                tenant,
                gap_ns,
                sample_seed,
                second_model,
                train,
            }
        })
        .collect();
    let spec = RunSpec {
        reqs,
        max_batch: 3,
        linger_us: 60,
        queue_capacity: 9,
        tenant_quota: 1,
        deadline_us: 900,
    };
    let window = |device, kind, start_us: f64, end_us: f64| OutageWindow {
        device,
        kind,
        start: SimTime::from_us(start_us),
        end: SimTime::from_us(end_us),
    };
    let workload = TwoModelWorkload::new();
    let (mut server, mids) = server_on(
        &spec,
        &workload,
        3,
        BackendKind::Lowered,
        workers,
        |cfg: &mut ServeConfig| {
            let mut faults = vpps::FaultConfig::uniform(5, 0.3);
            faults.jit_failure = 0.0;
            cfg.opts.faults = faults;
            cfg.opts.pool_capacity = PINNED_POOL;
            for w in [
                window(0, OutageKind::Crash, 2500.0, 12000.0),
                window(2, OutageKind::Hang, 16000.0, 32000.0),
                window(1, OutageKind::Hang, 36000.0, 36150.0),
                window(0, OutageKind::Brownout, 40000.0, 44800.0),
            ] {
                cfg.opts.faults.push_outage(w).expect("four windows fit");
            }
        },
    );
    arm(&mut server);
    submit_trace(&mut server, mids, &spec, &workload, SimTime::ZERO);
    server.drain();
    server
}

/// Cross-commit pin of the serving layer's virtual timeline: a fixed trace
/// on three devices through a crash, a watchdog-declared hang, a sub-grace
/// hang that thaws in place, a brownout, a fault profile the handle's
/// ladder absorbs (down to the baseline rung), a pool too small for some
/// batches and one request graph (so batches really fail and split) and a
/// 25 % train mix must resolve every request in the same
/// order, on the same device, in the same batch, with the same health walks
/// and routing tallies as it did when the constant was recorded. Same-commit
/// rerun checks cannot see a change that moves both runs alike; this can.
#[test]
fn virtual_timeline_is_pinned_across_commits() {
    let server = pinned_chaos_run(None, |_| {});
    let timeline = discrete_timeline(&server, 3);
    assert_eq!(server.outcomes().len(), PINNED_TRACE.len());
    let mids = [ModelId(0), ModelId(1)];
    let retry_budget_sheds = server
        .outcomes()
        .iter()
        .filter_map(Outcome::shed)
        .filter(|s| s.reason == ShedReason::RetryBudget)
        .count();
    let baseline: u64 = mids
        .iter()
        .map(|&mid| server.recovery_stats(mid).baseline_fallbacks)
        .sum();
    assert!(server.batch_failures() > 0, "premise: batches fail");
    assert!(
        retry_budget_sheds > 0,
        "premise: a graph exhausts its retries"
    );
    assert!(
        baseline > 0,
        "premise: the ladder reaches the baseline rung"
    );
    assert!(
        server.redispatched_batches() > 0,
        "premise: the crash aborts work"
    );
    assert_eq!(
        fnv1a(timeline.as_bytes()),
        PINNED_TIMELINE_HASH,
        "the virtual timeline moved; it now reads:\n{timeline}"
    );
}

/// A 4-device closed loop on the lowered backend: 12 clients, each
/// submitting its next request the instant its last one resolves (or one
/// linger after a shed), 96 requests over both models with every fourth one
/// training, under what `tweak` adds to the configuration. Drained, on
/// `workers` background compute threads.
fn closed_loop_run(workers: usize, tweak: impl FnOnce(&mut ServeConfig)) -> (Server, [ModelId; 2]) {
    const CLIENTS: usize = 12;
    const REQUESTS: u32 = 96;
    let spec = RunSpec {
        reqs: Vec::new(),
        max_batch: 4,
        linger_us: 40,
        queue_capacity: 64,
        tenant_quota: 64,
        deadline_us: 0,
    };
    let workload = TwoModelWorkload::new();
    let (mut server, mids) = server_on(
        &spec,
        &workload,
        4,
        BackendKind::Lowered,
        Some(workers),
        tweak,
    );
    server.enable_tracing(1 << 14, 1);
    let linger = SimTime::from_us(f64::from(spec.linger_us));
    let mut ready: Vec<(SimTime, usize)> = (0..CLIENTS).map(|c| (SimTime::ZERO, c)).collect();
    let mut blocked: BTreeMap<vpps_serve::RequestId, usize> = BTreeMap::new();
    let (mut sent, mut scanned) = (0u32, 0);
    while sent < REQUESTS || !blocked.is_empty() {
        ready.sort_by(|a, b| a.0.as_ns().total_cmp(&b.0.as_ns()).then(a.1.cmp(&b.1)));
        if sent < REQUESTS && !ready.is_empty() {
            let (at, client) = ready.remove(0);
            let which = (sent % 2) as usize;
            let (graph, root) = workload.graph(which, sent % 5);
            let admission = server.submit(Request {
                tenant: TenantId(client as u32 % 3),
                model: mids[which],
                kind: if sent % 4 == 3 {
                    RequestKind::Train
                } else {
                    RequestKind::Infer
                },
                graph,
                root,
                arrival: at.max(server.now()),
                deadline: None,
            });
            sent += 1;
            match admission {
                Admission::Queued(id) => {
                    blocked.insert(id, client);
                }
                Admission::Shed(..) => ready.push((server.now() + linger, client)),
            }
        } else {
            let t = server.now() + linger;
            server.run_until(t);
        }
        while scanned < server.outcomes().len() {
            let (id, at) = match &server.outcomes()[scanned] {
                Outcome::Completed(c) => (c.id, c.completed_at),
                Outcome::Shed(s) => (s.id, s.at),
            };
            if let Some(client) = blocked.remove(&id) {
                ready.push((at, client));
            }
            scanned += 1;
        }
    }
    server.drain();
    (server, mids)
}

/// Everything a drained server computed and decided, as comparable values:
/// the outcome stream (ids, times, devices, output bits), the request
/// trace, per-device stats, lowered-cache and recovery tallies, and every
/// replica's parameters as bits.
fn run_fingerprint(server: &mut Server, mids: [ModelId; 2], devices: usize) -> String {
    let bits = |t: SimTime| t.as_ns().to_bits();
    let outcomes: Vec<String> = server
        .outcomes()
        .iter()
        .map(|o| match o {
            Outcome::Completed(c) => format!(
                "{} d{} b{} {:x} {:x} {:x} {:?}",
                c.id.0,
                c.device,
                c.batch_size,
                bits(c.dispatched_at),
                bits(c.started_at),
                bits(c.completed_at),
                c.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            ),
            Outcome::Shed(s) => format!("{} shed {} {:x}", s.id.0, s.reason.name(), bits(s.at)),
        })
        .collect();
    let mut replicas = Vec::new();
    for mid in mids {
        replicas.push(format!("{:?}", server.recovery_stats(mid)));
        for d in 0..devices {
            let replica = server
                .replica(mid, d)
                .expect("a drained server has every replica home");
            let params: Vec<Vec<u32>> = replica
                .params()
                .map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            replicas.push(format!("{params:?}"));
        }
    }
    let trace = server.take_trace().expect("tracing was enabled");
    format!(
        "{outcomes:#?}\n{:?}\n{:?}\n{:?}\n{replicas:?}\n{:?}",
        trace.events(),
        server.device_stats(),
        server.lowered_cache_stats(),
        server.router_stats()
    )
}

/// How many threads compute batch values changes no byte: the pinned chaos
/// run, a 4-device closed-loop crash run with training, and the same closed
/// loop under two fault profiles with the degradation ladder on — whose
/// batches also compute on the `EventInterp` rung and, under the second,
/// on the launch-per-op baseline rung — each on the lowered
/// backend with 0, 1 and 3 background compute workers, agree on every
/// outcome, trace event, device and cache tally and replica parameter — and
/// the pinned run keeps its pinned timeline.
#[test]
fn compute_worker_count_changes_no_byte() {
    let pinned = |workers| {
        let mut server = pinned_chaos_run(Some(workers), |s| s.enable_tracing(1 << 14, 1));
        let timeline = discrete_timeline(&server, 3);
        assert_eq!(
            fnv1a(timeline.as_bytes()),
            PINNED_TIMELINE_HASH,
            "{workers} workers moved the timeline:\n{timeline}"
        );
        let mids = [ModelId(0), ModelId(1)];
        run_fingerprint(&mut server, mids, 3)
    };
    let trained = |server: &Server| {
        server
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .any(|c| c.kind == RequestKind::Train)
    };
    let crashed = |workers| {
        let crash = OutageWindow {
            device: 2,
            kind: OutageKind::Crash,
            start: SimTime::from_us(120.0),
            end: SimTime::from_us(900.0),
        };
        let (mut server, mids) = closed_loop_run(workers, |cfg| {
            cfg.opts.faults.push_outage(crash).expect("one window fits");
        });
        assert!(server.redispatched_batches() > 0, "the crash aborted work");
        assert!(trained(&server), "training batches completed");
        run_fingerprint(&mut server, mids, 4)
    };
    // The closed loop under faults with the ladder on, and the tally of the
    // rung its premise needs batches to reach.
    type Tally = fn(RecoveryStats) -> u64;
    let degraded = |workers, spec: &str, rung: Tally| {
        let (mut server, mids) = closed_loop_run(workers, |cfg| {
            cfg.opts.faults = vpps::FaultConfig::parse(spec).expect("valid");
        });
        let reached: u64 = mids
            .iter()
            .map(|&mid| rung(server.recovery_stats(mid)))
            .sum();
        assert!(reached > 0, "premise: {spec} degraded batches to the rung");
        assert!(trained(&server), "training batches completed");
        run_fingerprint(&mut server, mids, 4)
    };
    let profiles: [(&str, Tally); 2] = [
        ("seed=7,dram=0.3,hang=0.2", |s| s.backend_fallbacks),
        ("seed=7,dram=0.7", |s| s.baseline_fallbacks),
    ];
    let inline = (
        pinned(0),
        crashed(0),
        profiles.map(|(spec, rung)| degraded(0, spec, rung)),
    );
    for workers in [1, 3] {
        assert!(
            pinned(workers) == inline.0,
            "pinned run on {workers} workers"
        );
        assert!(
            crashed(workers) == inline.1,
            "crash run on {workers} workers"
        );
        for ((spec, rung), want) in profiles.into_iter().zip(&inline.2) {
            assert!(
                degraded(workers, spec, rung) == *want,
                "{spec} run on {workers} workers"
            );
        }
    }
}

/// The 4-device closed loop on one background worker prepares batches
/// ahead: the worker generates and lowers some batch that its dispatch then
/// uses (`ahead`), so the pipeline is exercised, not just compiled; every
/// prepare is accounted for; and the run is the inline run, byte for byte.
/// Host timing decides how the prepares split between the worker and the
/// event thread, so a run on a loaded core may leave every one to the event
/// thread: the test gives the worker a few runs to use one.
#[test]
fn prepared_batches_dispatch_ahead() {
    let (mut inline, mids) = closed_loop_run(0, |_| {});
    assert_eq!(
        inline.prepare_stats(),
        Default::default(),
        "no worker, no prepare"
    );
    let want = run_fingerprint(&mut inline, mids, 4);
    let mut ahead = 0;
    for _ in 0..5 {
        let (mut server, mids) = closed_loop_run(1, |_| {});
        let stats = server.prepare_stats();
        let misses = server.lowered_cache_stats().script_misses;
        assert!(
            stats.ahead + stats.inline + stats.discarded <= misses,
            "one prepare per miss at most: {stats:?} against {misses} misses"
        );
        assert!(
            run_fingerprint(&mut server, mids, 4) == want,
            "prepared run"
        );
        ahead = stats.ahead;
        if ahead > 0 {
            break;
        }
    }
    assert!(ahead > 0, "the worker prepared a batch its dispatch used");
}

/// The hand-timed trace of [`exact_tie_outage_placements_are_enumerated`]:
/// `(arrival µs, second model)`, every request an inference over one fixed
/// parse tree per model — so two buckets. Pairs arrive in the same instant,
/// the third and fourth fill both buckets (size flushes), and the last pair
/// lingers out together (two linger flushes tied at 70 µs).
const TIE_TRACE: [(u32, bool); 6] = [
    (10, false),
    (10, true),
    (20, false),
    (25, true),
    (40, false),
    (40, true),
];

/// Deterministic-simulation coverage of the event order: sampling proptests
/// place an outage edge on the exact instant of another event with
/// probability ~0, so this enumerates those placements instead. Every
/// window whose start *and* end are instants of the fault-free run (plus,
/// per start, one end inside and one beyond the watchdog grace) is tried on
/// every device as a crash, a hang and a brownout; each run must resolve
/// every request exactly once with the fault-free output bits, start nothing
/// on a device between its `Draining` and `Reviving` transitions, and leave
/// a complete trace. The one order-sensitive rule is checked by name: an
/// outage edge sorts before a device completion in the same instant, so a
/// crash starting exactly when the victim's running batch would complete
/// aborts it — no completion on the victim carries that instant, and the
/// members complete elsewhere.
#[test]
fn exact_tie_outage_placements_are_enumerated() {
    const DEVICES: usize = 3;
    let mut at_us = 0;
    let reqs = TIE_TRACE
        .iter()
        .map(|&(arrival_us, second_model)| {
            let gap_ns = (arrival_us - at_us) * 1_000;
            at_us = arrival_us;
            ReqSpec {
                tenant: 0,
                gap_ns,
                sample_seed: 1 + u32::from(second_model),
                second_model,
                train: false,
            }
        })
        .collect();
    let spec = RunSpec {
        reqs,
        max_batch: 2,
        linger_us: 30,
        queue_capacity: 64,
        tenant_quota: 64,
        deadline_us: 0,
    };
    let workload = TwoModelWorkload::new();
    let (clean, _, _) = run_trace(&spec, &workload, DEVICES, BackendKind::default());
    let clean_outputs = completed_outputs(&clean);
    assert_eq!(clean_outputs.len(), TIE_TRACE.len());
    let clean_completions: Vec<_> = clean
        .outcomes()
        .iter()
        .filter_map(Outcome::completion)
        .collect();

    let mut instants: Vec<SimTime> = clean_completions
        .iter()
        .flat_map(|c| [c.arrival, c.dispatched_at, c.started_at, c.completed_at])
        .collect();
    instants.sort_by(|a, b| a.as_ns().total_cmp(&b.as_ns()));
    instants.dedup();
    let grace = vpps_serve::WATCHDOG_GRACE;
    let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
    for (i, &start) in instants.iter().enumerate() {
        spans.extend(instants[i + 1..].iter().map(|&end| (start, end)));
        spans.push((start, start + SimTime::from_ns(grace.as_ns() / 2.0)));
        spans.push((start, start + grace + grace));
    }

    let mut aborts_checked = 0;
    for device in 0..DEVICES {
        for kind in OutageKind::ALL {
            for &(start, end) in &spans {
                let window = OutageWindow {
                    device: device as u32,
                    kind,
                    start,
                    end,
                };
                let at = format!(
                    "{kind:?} on device {device}, {} us .. {} us",
                    start.as_us(),
                    end.as_us()
                );
                let mut srv = run_outage_trace_armed(&spec, &workload, DEVICES, window, |s| {
                    s.enable_tracing(1 << 12, 1)
                });

                assert_eq!(
                    srv.outcomes().len(),
                    TIE_TRACE.len(),
                    "{at}: one outcome each"
                );
                assert_eq!(
                    completed_outputs(&srv),
                    clean_outputs,
                    "{at}: outputs differ from the fault-free run"
                );
                let sink = srv.take_trace().expect("tracing was armed");
                let analysis = vpps_obs::TraceAnalysis::analyze(&sink);
                assert!(
                    analysis.complete(),
                    "{at}: trace errors {:?}",
                    analysis.errors
                );

                let log = srv.device_health_log(device);
                let down = log.iter().find(|t| t.to == DeviceHealth::Draining);
                let back = log.iter().find(|t| t.to == DeviceHealth::Reviving);
                for c in srv.outcomes().iter().filter_map(Outcome::completion) {
                    let out_of_service = down.is_some_and(|d| c.started_at >= d.at)
                        && back.is_none_or(|b| c.started_at < b.at);
                    assert!(
                        c.device != device || !out_of_service,
                        "{at}: request {:?} started at {} us on the out-of-service device",
                        c.id,
                        c.started_at.as_us()
                    );
                }

                if kind != OutageKind::Crash {
                    continue;
                }
                // The batch (if any) that the fault-free run completes on
                // the victim in the very instant the crash begins.
                let tied: Vec<_> = clean_completions
                    .iter()
                    .filter(|c| c.device == device && c.completed_at == start)
                    .collect();
                for c in srv.outcomes().iter().filter_map(Outcome::completion) {
                    assert!(
                        !(c.device == device && c.completed_at == start),
                        "{at}: a completion raced the crash in its own instant"
                    );
                    if tied.iter().any(|t| t.id == c.id) {
                        assert_ne!(c.device, device, "{at}: aborted member ran on the victim");
                        aborts_checked += 1;
                    }
                }
            }
        }
    }
    assert!(aborts_checked > 0, "no crash start tied with a completion");
}
