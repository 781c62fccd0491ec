//! The four workloads and the shapes shared by their drivers.
//!
//! Names are fixed; later issues cite them. Op counts are per repetition and
//! sized so a repetition takes one to three seconds on `BackendKind::Lowered`.

use crate::stats::nearest_rank;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tree-LSTM, batch 1, every tree fresh.
    TrainTreeB1Cold,
    /// BiLSTM tagger, batch 8, the same sentences every epoch.
    TrainBilstmB8Warm,
    /// One device, open-loop Poisson arrivals at light load, inference.
    ServeOpen1Dev,
    /// Four devices, closed loop, train beside infer, one crash.
    ServeClosed4DevMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainTreeB1Cold,
        Workload::TrainBilstmB8Warm,
        Workload::ServeOpen1Dev,
        Workload::ServeClosed4DevMixed,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainTreeB1Cold => "train_tree_b1_cold",
            Workload::TrainBilstmB8Warm => "train_bilstm_b8_warm",
            Workload::ServeOpen1Dev => "serve_open_1dev",
            Workload::ServeClosed4DevMixed => "serve_closed_4dev_mixed",
        }
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainTreeB1Cold => {
                "Tree-LSTM h256 batch 1 on fresh trees: per-batch fixed cost plus a lowering \
                 pass on most batches; bypasses the lowered-script cache"
            }
            Workload::TrainBilstmB8Warm => {
                "BiLSTM h256 batch 8 re-running 64 sentences: every timed batch hits the script \
                 cache, so script generation and the micro-op sweep do the work; bypasses lowering"
            }
            Workload::ServeOpen1Dev => {
                "1 device, open-loop Poisson at 700 rps (36% of capacity), inference, pool of 32 \
                 inputs: warm cache, batch near 1, per-request fixed cost; bypasses routing and \
                 training"
            }
            Workload::ServeClosed4DevMixed => {
                "4 devices, closed loop of 64 clients, 25% train, 2048-input pool, one crash: \
                 routing, re-dispatch, cache thrash and writes beside reads"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Training workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Tree-LSTM over parse trees (`true`) or BiLSTM tagger over sentences.
    pub tree: bool,
    /// Hidden = embedding = MLP width.
    pub hidden: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Inputs per batch.
    pub batch: usize,
    /// Inputs per epoch.
    pub inputs: usize,
    /// Untimed epochs before the timed region.
    pub warm_epochs: usize,
    /// Timed epochs.
    pub timed_epochs: usize,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Open loop: Poisson arrivals at this rate on the virtual clock.
    Open {
        /// Requests per simulated second.
        rate_rps: f64,
    },
    /// Closed loop: this many clients, each with one request outstanding.
    Closed {
        /// Client count.
        clients: usize,
    },
}

/// Serving workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Hidden = embedding width of the served Tree-LSTM.
    pub hidden: usize,
    /// Virtual devices.
    pub devices: usize,
    /// Requests per repetition.
    pub requests: usize,
    /// Tenants.
    pub tenants: u32,
    /// Distinct inputs; requests pick one Zipf-skewed.
    pub pool: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Share of `Train` requests.
    pub train_fraction: f64,
    /// Scheduled whole-device outage (`DEV@START..END:kind`, µs).
    pub outage: Option<&'static str>,
}

/// A workload's parameters.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    /// `Handle::fb` over batch graphs.
    Train(TrainSpec),
    /// `Server::submit` over request graphs.
    Serve(ServeSpec),
}

impl Workload {
    /// Full-size or `--smoke` parameters.
    pub fn spec(self, smoke: bool) -> Spec {
        match self {
            Workload::TrainTreeB1Cold => Spec::Train(TrainSpec {
                tree: true,
                hidden: if smoke { 32 } else { 256 },
                vocab: if smoke { 500 } else { 5000 },
                batch: 1,
                inputs: if smoke { 24 } else { 126 },
                warm_epochs: 0,
                timed_epochs: 1,
            }),
            Workload::TrainBilstmB8Warm => Spec::Train(TrainSpec {
                tree: false,
                hidden: if smoke { 32 } else { 256 },
                vocab: if smoke { 500 } else { 5000 },
                batch: 8,
                inputs: if smoke { 16 } else { 64 },
                warm_epochs: 1,
                timed_epochs: 2,
            }),
            Workload::ServeOpen1Dev => Spec::Serve(ServeSpec {
                hidden: if smoke { 32 } else { 64 },
                devices: 1,
                requests: if smoke { 300 } else { 6000 },
                tenants: 4,
                pool: 32,
                arrivals: Arrivals::Open { rate_rps: 700.0 },
                train_fraction: 0.0,
                outage: None,
            }),
            Workload::ServeClosed4DevMixed => Spec::Serve(ServeSpec {
                hidden: if smoke { 32 } else { 64 },
                devices: 4,
                requests: if smoke { 400 } else { 4000 },
                tenants: 4,
                pool: 2048,
                arrivals: Arrivals::Closed { clients: 64 },
                train_fraction: 0.25,
                outage: Some(if smoke {
                    "1@10000..30000:crash"
                } else {
                    "1@200000..400000:crash"
                }),
            }),
        }
    }
}

/// Everything one repetition's virtual clock produced. A pure function of
/// the seed: repetitions must agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Ops per simulated second.
    pub ops_per_s: f64,
    /// Median simulated latency per op, µs.
    pub latency_p50_us: f64,
    /// 99th-percentile (nearest rank) simulated latency per op, µs.
    pub latency_p99_us: f64,
    /// Latency samples behind the two quantiles.
    pub latency_n: usize,
    /// FNV-1a over every result the ops returned (loss bits, output bits,
    /// completion times).
    pub result_hash: u64,
}

impl SimResult {
    /// Builds the result from per-op simulated latencies (µs).
    pub fn new(ops_per_s: f64, latencies_us: &[f64], result_hash: u64) -> Self {
        Self {
            ops_per_s,
            latency_p50_us: nearest_rank(latencies_us, 0.5),
            latency_p99_us: nearest_rank(latencies_us, 0.99),
            latency_n: latencies_us.len(),
            result_hash,
        }
    }

    /// `true` if every field has the same bits.
    pub fn bit_identical(&self, other: &Self) -> bool {
        self.ops_per_s.to_bits() == other.ops_per_s.to_bits()
            && self.latency_p50_us.to_bits() == other.latency_p50_us.to_bits()
            && self.latency_p99_us.to_bits() == other.latency_p99_us.to_bits()
            && self.latency_n == other.latency_n
            && self.result_hash == other.result_hash
    }
}

/// One repetition: a fresh `Handle`/`Server`, then the seeded op sequence.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from repetition start to the first timed op.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub host_s: f64,
    /// Ops attempted in the timed region.
    pub ops: u64,
    /// Ops shed, lost, duplicated or with a non-finite result.
    pub failed: u64,
    /// Heap allocations in the timed region.
    pub allocs: u64,
    /// Host µs of each top-level call (`Handle::fb` / `Server::submit`).
    pub call_us: Vec<f64>,
    /// Host µs of every timed segment (an op, or a pump of the server), in
    /// call order; the sequence is the same in every repetition.
    pub seg_us: Vec<f64>,
    /// The virtual clock's view.
    pub sim: SimResult,
}
