//! Serving workloads: `Server::submit` over per-request Tree-LSTM graphs,
//! open loop (seeded Poisson arrivals) or closed loop (single-outstanding
//! clients), all on the virtual clock from one host thread.

use std::collections::BTreeMap;
use std::time::Instant;

use dyn_graph::{Graph, Model, NodeId};
use gpu_sim::{DeviceConfig, OutageWindow, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpps::{BackendKind, FaultConfig, VppsOptions};
use vpps_datasets::{TreeSample, Treebank, TreebankConfig, Zipf};
use vpps_models::{DynamicModel, TreeLstm};
use vpps_serve::{
    Admission, AdmissionPolicy, BatchPolicy, HealthPolicy, ModelId, Outcome, RecoveryConfig,
    Request, RequestId, RequestKind, ServeConfig, ServeReport, Server, ShardPolicy, TenantId,
};

use crate::alloc;
use crate::stats::Fnv;
use crate::workload::{Arrivals, Rep, ServeSpec, SimResult};

const VOCAB: usize = 500;
const LINGER_US: f64 = 200.0;

/// Sentence length of the pool input at popularity rank `r`. A fixed cycle
/// through 4–10 that starts at the middle, so the work carried by the
/// popular ranks is the same under every seed; the seed decides tokens,
/// tree shapes, tenants, kinds and arrival times.
fn pool_len(rank: usize) -> usize {
    [7, 5, 9, 4, 10, 6, 8][rank % 7]
}

/// One request of the trace.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Issuing tenant (open loop; closed-loop clients map to tenants).
    pub tenant: u32,
    /// Popularity rank of the request's input in the pool.
    pub rank: u32,
    /// `Train` instead of `Infer`.
    pub train: bool,
    /// Scheduled arrival, simulated seconds (open loop only).
    pub arrival_s: f64,
}

/// A serving workload's generated inputs, a pure function of `(spec, seed)`.
pub struct ServeInputs {
    /// The freshly initialised served model.
    pub model: Model,
    arch: TreeLstm,
    pool: Vec<TreeSample>,
    /// The request sequence, in issue order.
    pub reqs: Vec<Req>,
}

impl ServeInputs {
    /// Generates the model, the input pool and the request sequence.
    pub fn generate(spec: &ServeSpec, seed: u64) -> Self {
        let mut model = Model::new(seed ^ 0x5E47E);
        let arch = TreeLstm::register(&mut model, VOCAB, spec.hidden, spec.hidden, 5);
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..spec.pool)
            .map(|rank| {
                let len = pool_len(rank);
                Treebank::new(TreebankConfig {
                    vocab: VOCAB,
                    min_len: len,
                    max_len: len,
                    classes: 5,
                    seed: rng.gen(),
                })
                .sample()
            })
            .collect();
        let tenant_dist = Zipf::new(spec.tenants as usize, 1.0);
        let pool_dist = Zipf::new(spec.pool, 1.0);
        let mut clock = 0.0f64;
        let mut reqs: Vec<Req> = (0..spec.requests)
            .map(|_| {
                if let Arrivals::Open { .. } = spec.arrivals {
                    // Exponential gap by inverse transform (unit rate);
                    // 1-u keeps ln's argument positive.
                    let u: f64 = rng.gen();
                    clock += -(1.0 - u).ln();
                }
                Req {
                    tenant: tenant_dist.sample(&mut rng) as u32,
                    rank: pool_dist.sample(&mut rng) as u32,
                    train: spec.train_fraction > 0.0 && rng.gen::<f64>() < spec.train_fraction,
                    arrival_s: clock,
                }
            })
            .collect();
        if let Arrivals::Open { rate_rps } = spec.arrivals {
            // Stretch the Poisson trace so it offers exactly `rate_rps` over
            // its length: every seed then loads the server equally, and only
            // the burstiness differs.
            let scale = spec.requests as f64 / rate_rps / clock;
            for r in &mut reqs {
                r.arrival_s *= scale;
            }
        }
        Self {
            model,
            arch,
            pool,
            reqs,
        }
    }

    /// Builds request `i`'s graph — what a client pays before every submit.
    pub fn build(&self, i: usize) -> (Graph, NodeId) {
        self.arch
            .build(&self.model, &self.pool[self.reqs[i].rank as usize])
    }

    /// Hash over the request sequence (tenant, input, kind, arrival-time
    /// bits) and every pool input's node count.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.reqs {
            h.write(u64::from(r.tenant));
            h.write(u64::from(r.rank));
            h.write(u64::from(r.train));
            h.write(r.arrival_s.to_bits());
        }
        for s in &self.pool {
            h.write(self.arch.build(&self.model, s).0.len() as u64);
        }
        h.finish()
    }
}

/// A server with the workload's model registered.
pub fn server_for(spec: &ServeSpec, model: &Model, backend: BackendKind) -> (Server, ModelId) {
    let mut faults = FaultConfig::disabled();
    if let Some(outage) = spec.outage {
        let window = OutageWindow::parse(outage).expect("workload outage spec is well-formed");
        faults
            .push_outage(window)
            .expect("one outage fits the schedule");
    }
    let mut server = Server::new(ServeConfig {
        device: DeviceConfig::titan_v(),
        opts: VppsOptions {
            pool_capacity: 1 << 22,
            backend,
            faults,
            ..VppsOptions::default()
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_linger: SimTime::from_us(LINGER_US),
            deadline_aware: true,
        },
        admission: AdmissionPolicy {
            queue_capacity: 256,
            tenant_quota: 64,
        },
        recovery: RecoveryConfig::default(),
        shard: ShardPolicy {
            devices: spec.devices,
            steal_margin: SimTime::from_us(50.0),
        },
        health: HealthPolicy::default(),
    });
    let mid = server
        .register_model("tree-lstm", model.clone())
        .expect("workload model fits the device");
    (server, mid)
}

/// Host time the driver spent, split by what it was calling.
#[derive(Debug, Default)]
pub struct DriveTimes {
    /// Host µs of each graph build.
    pub build_us: Vec<f64>,
    /// Host µs of each `Server::submit`.
    pub submit_us: Vec<f64>,
    /// Host µs of each `run_until` and the final `drain`.
    pub pump_us: Vec<f64>,
    /// Host µs of every timed segment in call order: one per request
    /// (build + submit) and one per `run_until`/`drain`.
    pub seg_us: Vec<f64>,
    /// Graph nodes over all requests.
    pub nodes: u64,
}

/// Builds request `i`'s graph and submits it, timing both.
fn submit_one(
    server: &mut Server,
    mid: ModelId,
    inputs: &ServeInputs,
    i: usize,
    tenant: u32,
    arrival: SimTime,
    times: &mut DriveTimes,
) -> Admission {
    let req = &inputs.reqs[i];
    let t0 = Instant::now();
    let (graph, root) = inputs.build(i);
    let t1 = Instant::now();
    times.nodes += graph.len() as u64;
    let admission = server.submit(Request {
        tenant: TenantId(tenant),
        model: mid,
        kind: if req.train {
            RequestKind::Train
        } else {
            RequestKind::Infer
        },
        graph,
        root,
        arrival,
        deadline: None,
    });
    let t2 = Instant::now();
    times.build_us.push((t1 - t0).as_secs_f64() * 1e6);
    times.submit_us.push((t2 - t1).as_secs_f64() * 1e6);
    times.seg_us.push((t2 - t0).as_secs_f64() * 1e6);
    admission
}

fn pump(times: &mut DriveTimes, f: impl FnOnce()) {
    let t0 = Instant::now();
    f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    times.pump_us.push(us);
    times.seg_us.push(us);
}

/// Drives the first `n` requests through `server` and drains it. Returns the
/// ids the server assigned, in submission order.
pub fn drive(
    server: &mut Server,
    mid: ModelId,
    inputs: &ServeInputs,
    spec: &ServeSpec,
    n: usize,
    times: &mut DriveTimes,
) -> Vec<RequestId> {
    let mut ids = Vec::with_capacity(n);
    match spec.arrivals {
        Arrivals::Open { .. } => {
            for i in 0..n {
                let req = &inputs.reqs[i];
                let arrival = SimTime::from_secs(req.arrival_s);
                ids.push(submit_one(server, mid, inputs, i, req.tenant, arrival, times).id());
            }
        }
        // Ported from the repository's load generator
        // (`serve_bench::run_closed_loop`): client `c` is ready at
        // `ready[c]`; a client with a request in flight is keyed by it.
        Arrivals::Closed { clients } => {
            let linger = SimTime::from_us(LINGER_US);
            let mut ready: Vec<(usize, SimTime)> =
                (0..clients).map(|c| (c, SimTime::ZERO)).collect();
            let mut blocked: BTreeMap<RequestId, usize> = BTreeMap::new();
            let mut scanned = 0;
            while ids.len() < n || !blocked.is_empty() {
                // Earliest ready client (ties: lowest id) submits next.
                ready.sort_by(|a, b| a.1.as_ns().total_cmp(&b.1.as_ns()).then(a.0.cmp(&b.0)));
                if ids.len() < n && !ready.is_empty() {
                    let (client, at) = ready.remove(0);
                    let arrival = at.max(server.now());
                    let tenant = (client % spec.tenants as usize) as u32;
                    let admission =
                        submit_one(server, mid, inputs, ids.len(), tenant, arrival, times);
                    ids.push(admission.id());
                    match admission {
                        Admission::Queued(id) => {
                            blocked.insert(id, client);
                        }
                        // Shed: back off one linger, then submit new work.
                        Admission::Shed(..) => ready.push((client, server.now() + linger)),
                    }
                } else if !blocked.is_empty() {
                    // Everyone waits: let queued batches linger out.
                    let t = server.now() + linger;
                    pump(times, || server.run_until(t));
                }
                while scanned < server.outcomes().len() {
                    let (id, at) = match &server.outcomes()[scanned] {
                        Outcome::Completed(c) => (c.id, c.completed_at),
                        Outcome::Shed(s) => (s.id, s.at),
                    };
                    if let Some(client) = blocked.remove(&id) {
                        ready.push((client, at));
                    }
                    scanned += 1;
                }
            }
        }
    }
    pump(times, || server.drain());
    ids
}

/// What a drained server says about the ids it was given.
pub struct Verdict {
    /// Ids shed, lost, resolved twice, or completed with a non-finite value.
    pub failed: u64,
    /// FNV-1a over the outcome stream (id, times, output bits).
    pub result_hash: u64,
}

/// Checks that every submitted id resolved exactly once with finite output.
pub fn verdict(server: &Server, ids: &[RequestId]) -> Verdict {
    let mut seen: BTreeMap<RequestId, (u32, bool)> =
        ids.iter().map(|id| (*id, (0, false))).collect();
    let mut h = Fnv::default();
    let mut strangers = 0u64;
    for o in server.outcomes() {
        let (id, ok) = match o {
            Outcome::Completed(c) => {
                h.write(c.id.0);
                h.write(c.completed_at.as_ns().to_bits());
                h.write(c.device as u64);
                for v in &c.output {
                    h.write(u64::from(v.to_bits()));
                }
                (c.id, c.output.iter().all(|v| v.is_finite()))
            }
            Outcome::Shed(s) => {
                h.write(s.id.0);
                h.write(s.at.as_ns().to_bits());
                h.write(u64::MAX);
                (s.id, false)
            }
        };
        match seen.get_mut(&id) {
            Some(e) => {
                e.0 += 1;
                e.1 = ok;
            }
            None => strangers += 1,
        }
    }
    let failed = seen.values().filter(|(n, ok)| *n != 1 || !ok).count() as u64 + strangers;
    Verdict {
        failed,
        result_hash: h.finish(),
    }
}

/// One repetition: generate the trace, construct a fresh `Server`, register
/// the model, then time every request through to a drained server.
pub fn run_rep(spec: &ServeSpec, seed: u64) -> Rep {
    let t0 = Instant::now();
    let inputs = ServeInputs::generate(spec, seed);
    let (mut server, mid) = server_for(spec, &inputs.model, BackendKind::Lowered);
    let mut times = DriveTimes {
        build_us: Vec::with_capacity(spec.requests),
        submit_us: Vec::with_capacity(spec.requests),
        ..DriveTimes::default()
    };
    let setup_s = t0.elapsed().as_secs_f64();
    alloc::arm();
    let start = Instant::now();
    let ids = drive(&mut server, mid, &inputs, spec, spec.requests, &mut times);
    let host_s = start.elapsed().as_secs_f64();
    let allocs = alloc::disarm();

    let v = verdict(&server, &ids);
    let report = ServeReport::from_outcomes(server.outcomes());
    let latencies_us: Vec<f64> = server
        .outcomes()
        .iter()
        .filter_map(|o| match o {
            Outcome::Completed(c) => Some((c.completed_at - c.arrival).as_us()),
            Outcome::Shed(_) => None,
        })
        .collect();
    // With nothing completed there is no latency to rank; the run fails on
    // `failed` anyway.
    let sim = SimResult::new(
        report.goodput_rps,
        if latencies_us.is_empty() {
            &[0.0]
        } else {
            &latencies_us
        },
        v.result_hash,
    );
    Rep {
        setup_s,
        host_s,
        ops: ids.len() as u64,
        failed: v.failed,
        allocs,
        call_us: times.submit_us,
        seg_us: times.seg_us,
        sim,
    }
}

/// Output check for a serving workload: the first `n` requests of the trace
/// driven through a `Lowered` and an `EventInterp` server must resolve every
/// id once and produce bit-identical outcome streams. Returns one message
/// per failed check.
pub fn check(inputs: &ServeInputs, spec: &ServeSpec, n: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let n = n.min(spec.requests);
    let mut hashes = Vec::new();
    for backend in [BackendKind::Lowered, BackendKind::EventInterp] {
        let (mut server, mid) = server_for(spec, &inputs.model, backend);
        let ids = drive(
            &mut server,
            mid,
            inputs,
            spec,
            n,
            &mut DriveTimes::default(),
        );
        let v = verdict(&server, &ids);
        if v.failed > 0 {
            errors.push(format!(
                "{}: {} of the first {n} requests did not resolve exactly once with a finite result",
                backend.name(),
                v.failed
            ));
        }
        hashes.push(v.result_hash);
    }
    if hashes[0] != hashes[1] {
        errors.push(format!(
            "first {n} requests: Lowered and EventInterp outcome streams differ"
        ));
    }
    errors
}
