//! Serving scenarios: a load generator over `vpps-serve`.
//!
//! One [`ServeScenario`] describes a complete serving experiment — workload
//! model, traffic trace, batching and admission policies, arrival mode —
//! and [`run_scenario`] executes it deterministically on the virtual clock,
//! returning a [`ServeRecord`] for the `BENCH_serve.json` trajectory.
//!
//! The workload is a scaled-down Tree-LSTM sentiment model: every request
//! carries a *different* parse-tree-shaped graph (the dynamic-shape regime
//! the paper targets), so cross-request batching has to cope with
//! heterogeneous shapes — exactly what the shape-bucketed batcher is for.
//!
//! Two arrival modes:
//!
//! * **Open loop** — arrivals come from a seeded Poisson process at a fixed
//!   offered load ([`vpps_datasets::RequestCorpus`]), independent of
//!   completions. Overload shows up as shed requests, not slowed arrivals.
//! * **Closed loop** — `clients` virtual users each keep exactly one
//!   request outstanding, submitting the next the moment the previous
//!   completes. Offered load adapts to service capacity.

use std::collections::BTreeMap;

use dyn_graph::{Graph, Model, NodeId};
use gpu_sim::{DeviceConfig, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpps::BackendKind;
use vpps_datasets::{RequestCorpus, RequestCorpusConfig, Treebank, TreebankConfig};
use vpps_models::{DynamicModel, TreeLstm};
use vpps_obs::Json;
use vpps_serve::{
    Admission, AdmissionPolicy, BatchPolicy, ModelId, Outcome, Request, RequestKind, ServeConfig,
    ServeRecord, ServeReport, Server, ShedReason, TenantId,
};

use crate::trajectory::{records, text, uint, Facts, Field, Schema, Ty};

const LATENCY: &[Field] = &[
    ("p50_us", Ty::F64),
    ("p95_us", Ty::F64),
    ("p99_us", Ty::F64),
    ("max_us", Ty::F64),
    ("mean_us", Ty::F64),
];

const DEVICE_ROW: &[Field] = &[
    ("device", Ty::U64),
    ("health", Ty::Str),
    ("batches", Ty::U64),
    ("failures", Ty::U64),
];

/// Fields of [`ServeReport::to_json`] (the chaos trajectory embeds the same
/// object in its records).
pub(crate) const REPORT: &[Field] = &[
    ("offered", Ty::U64),
    ("completed", Ty::U64),
    ("good", Ty::U64),
    (
        "shed",
        Ty::Tally(|| ShedReason::ALL.iter().map(|r| r.name()).collect()),
    ),
    ("batches", Ty::U64),
    ("batch_sizes", Ty::Arr),
    ("mean_batch", Ty::F64),
    ("makespan_s", Ty::F64),
    ("goodput_rps", Ty::F64),
    ("throughput_rps", Ty::F64),
    ("e2e", Ty::Obj(LATENCY)),
    ("queue_wait", Ty::Obj(LATENCY)),
    ("execute", Ty::Obj(LATENCY)),
];

/// `BENCH_serve.json` and `loadgen --emit`: one [`ServeRecord::to_json`] per
/// scenario. v2 added the lowered script-cache counters (`script_hits` /
/// `script_misses` / `script_re_misses`); v3 the `execute` latency stage
/// (device start → completion); v4 the per-device `devices` array (terminal
/// health, batch/failure tallies); v5 dropped the two device-row counts and
/// the shed reason of the per-model shedding gate the server no longer has.
pub static SCHEMA: Schema = Schema {
    name: "vpps-serve-trajectory",
    version: 5,
    header: &[],
    record: &[
        ("label", Ty::Str),
        ("backend", Ty::Str),
        ("offered_rps", Ty::F64),
        ("script_hits", Ty::U64),
        ("script_misses", Ty::U64),
        ("script_re_misses", Ty::U64),
        ("devices", Ty::ArrOf(DEVICE_ROW)),
        ("report", Ty::Obj(REPORT)),
    ],
    facts,
};

/// On the lowered backend the structure-keyed script cache must be exercised
/// (popular inputs repeat) and must stay warm: a re-miss is a script lowered
/// twice, i.e. the cache keying churning.
fn facts(doc: &Json) -> Vec<String> {
    let mut f = Facts::default();
    for r in records(doc) {
        if text(r, "backend") == BackendKind::Lowered.name() {
            f.row(text(r, "label").to_owned());
            f.require(uint(r, "script_hits") > 0, || {
                "script_hits is 0: the warm lowered cache was never hit".to_owned()
            });
            f.all_zero(r, &["script_re_misses"]);
        }
    }
    f.failed
}

/// One serving experiment, fully described.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// Row label in the trajectory ("batching", "no-batching", ...).
    pub label: String,
    /// Requests to issue.
    pub requests: usize,
    /// Trace seed: the whole run is a pure function of this scenario.
    pub seed: u64,
    /// Number of tenants (Zipf-skewed activity).
    pub tenants: u32,
    /// Open-loop offered load in requests per simulated second. Ignored in
    /// closed-loop mode.
    pub rate_rps: f64,
    /// Fraction of training requests (the rest are inference).
    pub train_fraction: f64,
    /// Relative deadline per request, microseconds; `None` disables.
    pub deadline_us: Option<f64>,
    /// Batch policy: max batch size.
    pub max_batch: usize,
    /// Batch policy: linger, microseconds.
    pub linger_us: f64,
    /// Admission: bound on outstanding requests.
    pub queue_capacity: usize,
    /// Admission: per-tenant queue quota.
    pub tenant_quota: usize,
    /// Execution backend for the warm handles.
    pub backend: BackendKind,
    /// `Some(n)`: closed loop with `n` single-outstanding-request clients.
    /// `None`: open loop at `rate_rps`.
    pub closed_clients: Option<usize>,
    /// Sample-seed pool size: popular inputs repeat (Zipf over the pool),
    /// so structurally identical requests co-batch and warm the lowered
    /// script cache. `0` gives every request a unique graph.
    pub sample_pool: usize,
    /// Virtual devices the server shards across (1 = unsharded).
    pub devices: usize,
    /// Work-stealing margin, microseconds: a batch leaves its warm affinity
    /// device only when that device's backlog exceeds the least-loaded
    /// backlog by more than this. Size it against the batch service time —
    /// a margin far below one batch's service steals on any queueing at
    /// all, scattering cold lowering passes across devices.
    pub steal_margin_us: f64,
    /// Hidden/embedding dimension of the serving model (weight volume — and
    /// therefore the per-launch prologue cost batching amortizes).
    pub hidden: usize,
    /// Fault injection for the warm handles ([`vpps::FaultConfig::disabled`]
    /// by default). Arming this turns the scenario into a chaos run: the
    /// same seeded trace, with deterministic faults layered on top.
    pub faults: vpps::FaultConfig,
    /// `Some(n)`: enable per-request tracing, recording every `n`-th
    /// request id (1 traces everything). Tracing is pure observation: the
    /// virtual timeline is bit-identical with tracing on or off.
    pub trace_sample: Option<u64>,
}

impl Default for ServeScenario {
    fn default() -> Self {
        Self {
            label: "serve".to_owned(),
            requests: 500,
            seed: 7,
            tenants: 4,
            rate_rps: 50_000.0,
            train_fraction: 0.0,
            deadline_us: None,
            max_batch: 8,
            linger_us: 200.0,
            queue_capacity: 256,
            tenant_quota: 64,
            backend: BackendKind::default(),
            closed_clients: None,
            sample_pool: 32,
            devices: 1,
            steal_margin_us: 50.0,
            hidden: 64,
            faults: vpps::FaultConfig::disabled(),
            trace_sample: None,
        }
    }
}

/// The serving workload: one Tree-LSTM model plus a per-request sample
/// generator (each request gets its own parse tree, hence its own graph
/// shape).
pub struct ServeWorkload {
    arch: TreeLstm,
    model: Model,
    vocab: usize,
}

impl ServeWorkload {
    /// Builds the workload model at `hidden` dimensions.
    pub fn new(seed: u64, hidden: usize) -> Self {
        let vocab = 500;
        let mut model = Model::new(seed);
        let arch = TreeLstm::register(&mut model, vocab, hidden, hidden, 5);
        Self { arch, model, vocab }
    }

    /// The initial model (registered with the server).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Builds one request graph from a per-request seed: a fresh random
    /// parse tree, so consecutive requests differ in shape.
    pub fn request_graph(&self, sample_seed: u64) -> (Graph, NodeId) {
        let mut bank = Treebank::new(TreebankConfig {
            vocab: self.vocab,
            min_len: 4,
            max_len: 10,
            classes: 5,
            seed: sample_seed,
        });
        let sample = bank.sample();
        self.arch.build(&self.model, &sample)
    }
}

pub(crate) fn server_for(sc: &ServeScenario) -> (Server, ModelId, ServeWorkload) {
    let workload = ServeWorkload::new(sc.seed ^ 0x5E47E, sc.hidden);
    let cfg = ServeConfig {
        device: DeviceConfig::titan_v(),
        opts: vpps::VppsOptions {
            pool_capacity: 1 << 22,
            backend: sc.backend,
            faults: sc.faults,
            ..vpps::VppsOptions::default()
        },
        batch: BatchPolicy {
            max_batch: sc.max_batch,
            max_linger: SimTime::from_us(sc.linger_us),
            deadline_aware: true,
        },
        admission: AdmissionPolicy {
            queue_capacity: sc.queue_capacity,
            tenant_quota: sc.tenant_quota,
        },
        recovery: vpps_serve::RecoveryConfig,
        shard: vpps_serve::ShardPolicy {
            devices: sc.devices.max(1),
            steal_margin: SimTime::from_us(sc.steal_margin_us),
        },
        health: vpps_serve::HealthPolicy::default(),
    };
    let mut server = Server::new(cfg);
    if let Some(sample) = sc.trace_sample {
        server.enable_tracing(1 << 20, sample.max(1));
    }
    let mid = server
        .register_model("tree-lstm", workload.model().clone())
        .expect("workload model fits the device");
    (server, mid, workload)
}

/// Runs one scenario end to end and condenses it into a trajectory record.
/// Deterministic: equal scenarios produce byte-identical records.
pub fn run_scenario(sc: &ServeScenario) -> ServeRecord {
    let (server, _, offered_rps) = run_scenario_server(sc);
    record_of(sc, &server, offered_rps)
}

/// Condenses a finished scenario's server into its trajectory record.
pub fn record_of(sc: &ServeScenario, server: &Server, offered_rps: f64) -> ServeRecord {
    let cache = server.lowered_cache_stats();
    ServeRecord {
        label: sc.label.clone(),
        backend: sc.backend.name().to_owned(),
        offered_rps,
        script_hits: cache.script_hits,
        script_misses: cache.script_misses,
        script_re_misses: cache.script_re_misses,
        devices: server.device_stats(),
        report: ServeReport::from_outcomes(server.outcomes()),
    }
}

/// Runs one scenario and returns the finished server (plus the served
/// model's id and the offered load) for callers that need more than the
/// condensed record — fault journals, recovery statistics.
pub fn run_scenario_server(sc: &ServeScenario) -> (Server, ModelId, f64) {
    match sc.closed_clients {
        None => run_open_loop(sc),
        Some(clients) => run_closed_loop(sc, clients.max(1)),
    }
}

/// The open-loop request trace `sc` describes.
pub(crate) fn corpus_for(sc: &ServeScenario) -> RequestCorpus {
    RequestCorpus::generate(RequestCorpusConfig {
        requests: sc.requests,
        tenants: sc.tenants,
        tenant_skew: 1.0,
        rate_rps: sc.rate_rps,
        train_fraction: sc.train_fraction,
        deadline_s: sc.deadline_us.map(|us| us * 1e-6),
        sample_pool: sc.sample_pool,
        seed: sc.seed,
    })
}

/// Submits one pass over `corpus`, shifting every arrival (and deadline) by
/// `offset` so a later pass lands after the earlier ones finished.
pub(crate) fn submit_corpus(
    server: &mut Server,
    mid: ModelId,
    workload: &ServeWorkload,
    corpus: &RequestCorpus,
    offset: SimTime,
) {
    for spec in &corpus.specs {
        let (graph, root) = workload.request_graph(spec.sample_seed);
        server.submit(Request {
            tenant: TenantId(spec.tenant),
            model: mid,
            kind: if spec.train {
                RequestKind::Train
            } else {
                RequestKind::Infer
            },
            graph,
            root,
            arrival: offset + SimTime::from_secs(spec.arrival_s),
            deadline: spec.deadline_s.map(|d| offset + SimTime::from_secs(d)),
        });
    }
}

fn run_open_loop(sc: &ServeScenario) -> (Server, ModelId, f64) {
    let (mut server, mid, workload) = server_for(sc);
    let corpus = corpus_for(sc);
    submit_corpus(&mut server, mid, &workload, &corpus, SimTime::ZERO);
    server.drain();
    (server, mid, corpus.offered_rps())
}

/// A finished run's observable surface, for same-seed replay comparison:
/// per outcome `(id, time bits, time bits, device + payload digest)`.
pub(crate) fn outcome_fingerprint(server: &Server) -> Vec<(u64, u64, u64, u64)> {
    let time = |t: SimTime| t.as_ns().to_bits();
    server
        .outcomes()
        .iter()
        .map(|o| match o {
            Outcome::Completed(c) => {
                let mut digest = 0xcbf2_9ce4_8422_2325u64 ^ c.device as u64;
                for x in &c.output {
                    digest ^= x.to_bits() as u64;
                    digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (c.id.0, time(c.dispatched_at), time(c.completed_at), digest)
            }
            Outcome::Shed(s) => {
                let reason = ShedReason::ALL.iter().position(|r| *r == s.reason);
                (s.id.0, time(s.at), u64::MAX, reason.map_or(0, |r| r as u64))
            }
        })
        .collect()
}

/// Completed outputs as bits, keyed by request id.
pub(crate) fn output_bits(server: &Server) -> BTreeMap<u64, Vec<u32>> {
    server
        .outcomes()
        .iter()
        .filter_map(Outcome::completion)
        .map(|c| (c.id.0, c.output.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn run_closed_loop(sc: &ServeScenario, clients: usize) -> (Server, ModelId, f64) {
    let (mut server, mid, workload) = server_for(sc);
    let mut rng = StdRng::seed_from_u64(sc.seed);
    // Same popular-inputs-repeat regime as the open-loop corpus.
    let pool: Vec<u64> = (0..sc.sample_pool).map(|_| rng.gen()).collect();
    let pool_dist = (!pool.is_empty()).then(|| vpps_datasets::Zipf::new(pool.len(), 1.0));
    let linger = SimTime::from_us(sc.linger_us);
    // Client c is ready to submit at ready[c]; a client with a request in
    // flight is keyed by that request's id instead.
    let mut ready: Vec<(usize, SimTime)> = (0..clients).map(|c| (c, SimTime::ZERO)).collect();
    let mut blocked: BTreeMap<vpps_serve::RequestId, usize> = BTreeMap::new();
    let mut scanned = 0;
    let mut issued = 0;
    while issued < sc.requests || !blocked.is_empty() {
        // Earliest ready client (ties: lowest client id) submits next.
        ready.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        if issued < sc.requests && !ready.is_empty() {
            let (client, at) = ready.remove(0);
            let sample_seed: u64 = match &pool_dist {
                Some(d) => pool[d.sample(&mut rng)],
                None => rng.gen(),
            };
            let train = sc.train_fraction > 0.0 && rng.gen::<f64>() < sc.train_fraction;
            let (graph, root) = workload.request_graph(sample_seed);
            let arrival = at.max(server.now());
            let admission = server.submit(Request {
                tenant: TenantId((client % sc.tenants as usize) as u32),
                model: mid,
                kind: if train {
                    RequestKind::Train
                } else {
                    RequestKind::Infer
                },
                graph,
                root,
                arrival,
                deadline: sc.deadline_us.map(|us| arrival + SimTime::from_us(us)),
            });
            issued += 1;
            match admission {
                Admission::Queued(id) => {
                    blocked.insert(id, client);
                }
                // Shed: back off one linger before retrying with new work.
                Admission::Shed(..) => ready.push((client, server.now() + linger)),
            }
        } else if !blocked.is_empty() {
            // Everyone is waiting: force queued batches to flush (every
            // queued request lingers out within one max_linger).
            let t = server.now() + linger;
            server.run_until(t);
        }
        // Unblock clients whose requests resolved.
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
    server.drain();
    let elapsed = server.now().as_secs();
    let realized = if elapsed > 0.0 {
        issued as f64 / elapsed
    } else {
        0.0
    };
    (server, mid, realized)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(label: &str) -> ServeScenario {
        ServeScenario {
            label: label.to_owned(),
            requests: 40,
            hidden: 32,
            ..ServeScenario::default()
        }
    }

    #[test]
    fn open_loop_low_load_completes_everything() {
        let rec = run_scenario(&tiny("low-load"));
        assert_eq!(rec.report.offered, 40);
        assert_eq!(rec.report.completed, 40);
        assert_eq!(rec.report.total_shed(), 0);
        assert!(rec.offered_rps > 0.0);
        assert!(rec.report.e2e.p99_us > 0.0);
    }

    #[test]
    fn closed_loop_completes_everything() {
        let mut sc = tiny("closed");
        sc.closed_clients = Some(8);
        let rec = run_scenario(&sc);
        assert_eq!(rec.report.completed, 40);
        assert_eq!(rec.report.total_shed(), 0);
        // With 8 clients and batching, some co-batching happens.
        assert!(
            rec.report.mean_batch > 1.0,
            "mean {}",
            rec.report.mean_batch
        );
    }

    #[test]
    fn scenarios_are_deterministic() {
        let sc = tiny("det");
        let a = SCHEMA.document("det", &[], vec![run_scenario(&sc).to_json()]);
        let b = SCHEMA.document("det", &[], vec![run_scenario(&sc).to_json()]);
        assert_eq!(a, b, "same scenario must serialize identically");
    }

    #[test]
    fn batching_beats_batch_one_under_saturation() {
        let saturated = |max_batch: usize, label: &str| {
            let mut sc = tiny(label);
            sc.requests = 120;
            sc.rate_rps = 5_000_000.0;
            sc.max_batch = max_batch;
            run_scenario(&sc)
        };
        let single = saturated(1, "no-batching");
        let batched = saturated(16, "batching");
        assert!(
            batched.report.goodput_rps >= 2.0 * single.report.goodput_rps,
            "batching {} rps vs single {} rps",
            batched.report.goodput_rps,
            single.report.goodput_rps
        );
    }
}
