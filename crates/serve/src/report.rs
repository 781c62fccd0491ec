//! Serving reports and the rows of the `BENCH_serve.json` trajectory.
//!
//! [`ServeReport`] condenses a server's outcome stream into the headline
//! serving numbers — offered load, goodput, latency quantiles, batch-size
//! distribution, shed counts — computed **exactly** from the per-request
//! records (not from the log2 obs histograms, which are estimates).
//! [`ServeRecord::to_json`] is one row of the trajectory document; the
//! document itself (envelope, field table, checker) is defined with every
//! other `BENCH_*.json` in `vpps_bench::trajectory`.

use gpu_sim::SimTime;
use vpps_obs::{Json, PhaseStats};

use crate::device::DeviceStats;
use crate::request::{Outcome, ShedReason};

/// One stage's latency stats as a trajectory object: the five keys of
/// `BENCH_serve*.json`, in their recorded order (no sample count).
fn latency_json(s: &PhaseStats) -> Json {
    let mut o = Json::obj();
    o.set("p50_us", Json::Num(s.p50_us));
    o.set("p95_us", Json::Num(s.p95_us));
    o.set("p99_us", Json::Num(s.p99_us));
    o.set("max_us", Json::Num(s.max_us));
    o.set("mean_us", Json::Num(s.mean_us));
    o
}

/// Headline serving numbers for one run (one outcome stream).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests submitted (admitted + shed).
    pub offered: u64,
    /// Requests that completed execution.
    pub completed: u64,
    /// Completions that met their deadline (all of them when no deadlines
    /// were set) — the numerator of goodput.
    pub good: u64,
    /// Shed counts by [`ShedReason::name`].
    pub shed: Vec<(String, u64)>,
    /// Batches dispatched.
    pub batches: u64,
    /// Batch-size histogram: `(size, batches_of_that_size)`, ascending.
    pub batch_sizes: Vec<(u64, u64)>,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// First arrival to last completion, in simulated seconds.
    pub makespan_s: f64,
    /// In-deadline completions per simulated second of makespan.
    pub goodput_rps: f64,
    /// All completions per simulated second of makespan.
    pub throughput_rps: f64,
    /// End-to-end latency (arrival → completion).
    pub e2e: PhaseStats,
    /// Queueing/batching delay (arrival → dispatch).
    pub queue_wait: PhaseStats,
    /// Device execution time (start of the final attempt → completion).
    pub execute: PhaseStats,
}

impl ServeReport {
    /// Builds the report from an outcome stream (typically
    /// [`crate::Server::outcomes`] after a drain).
    pub fn from_outcomes(outcomes: &[Outcome]) -> Self {
        let mut r = Self {
            offered: outcomes.len() as u64,
            ..Self::default()
        };
        let mut shed = ShedReason::ALL.map(|reason| (reason.name().to_owned(), 0u64));
        let mut sizes: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut e2e_ns = Vec::new();
        let mut wait_ns = Vec::new();
        let mut exec_ns = Vec::new();
        let mut first_arrival: Option<SimTime> = None;
        let mut last_completion = SimTime::ZERO;
        let mut batch_members = 0u64;
        for o in outcomes {
            match o {
                Outcome::Completed(c) => {
                    r.completed += 1;
                    if c.in_deadline {
                        r.good += 1;
                    }
                    e2e_ns.push((c.completed_at - c.arrival).as_ns());
                    wait_ns.push((c.dispatched_at - c.arrival).as_ns());
                    exec_ns.push((c.completed_at - c.started_at).as_ns());
                    first_arrival = Some(match first_arrival {
                        Some(f) => f.min(c.arrival),
                        None => c.arrival,
                    });
                    last_completion = last_completion.max(c.completed_at);
                    // Each member of an n-batch reports batch_size == n, so
                    // a batch of n contributes n entries; divide back out.
                    *sizes.entry(c.batch_size as u64).or_insert(0) += 1;
                    batch_members += 1;
                }
                Outcome::Shed(s) => {
                    // `ShedReason::ALL` lists the variants in declaration
                    // order, so a reason's discriminant is its slot.
                    shed[s.reason as usize].1 += 1;
                }
            }
        }
        r.shed = shed.into_iter().collect();
        r.batch_sizes = sizes
            .into_iter()
            .map(|(size, members)| (size, members / size.max(1)))
            .collect();
        r.batches = r.batch_sizes.iter().map(|&(_, n)| n).sum();
        r.mean_batch = if r.batches > 0 {
            batch_members as f64 / r.batches as f64
        } else {
            0.0
        };
        if let Some(first) = first_arrival {
            let makespan = (last_completion - first).as_secs();
            r.makespan_s = makespan;
            if makespan > 0.0 {
                r.goodput_rps = r.good as f64 / makespan;
                r.throughput_rps = r.completed as f64 / makespan;
            }
        }
        r.e2e = PhaseStats::from_ns_samples(e2e_ns);
        r.queue_wait = PhaseStats::from_ns_samples(wait_ns);
        r.execute = PhaseStats::from_ns_samples(exec_ns);
        r
    }

    /// Total shed requests.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().map(|&(_, n)| n).sum()
    }

    /// Serializes the report as one trajectory record.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("offered", Json::from(self.offered));
        o.set("completed", Json::from(self.completed));
        o.set("good", Json::from(self.good));
        let mut shed = Json::obj();
        for (reason, n) in &self.shed {
            shed.set(reason, Json::from(*n));
        }
        o.set("shed", shed);
        o.set("batches", Json::from(self.batches));
        o.set(
            "batch_sizes",
            Json::Arr(
                self.batch_sizes
                    .iter()
                    .map(|&(size, n)| Json::Arr(vec![Json::from(size), Json::from(n)]))
                    .collect(),
            ),
        );
        o.set("mean_batch", Json::Num(self.mean_batch));
        o.set("makespan_s", Json::Num(self.makespan_s));
        o.set("goodput_rps", Json::Num(self.goodput_rps));
        o.set("throughput_rps", Json::Num(self.throughput_rps));
        o.set("e2e", latency_json(&self.e2e));
        o.set("queue_wait", latency_json(&self.queue_wait));
        o.set("execute", latency_json(&self.execute));
        o
    }
}

/// One device's terminal snapshot as a serve trajectory entry: where its
/// lifecycle ended up after the run, and the batches it ran and failed.
fn device_json(s: &DeviceStats) -> Json {
    let mut o = Json::obj();
    o.set("device", Json::from(s.id as u64));
    o.set("health", Json::from(s.health.name()));
    o.set("batches", Json::from(s.batches));
    o.set("failures", Json::from(s.failures));
    o
}

/// One labelled report row in a serve trajectory (e.g. one point of an
/// offered-load sweep, or "batching" vs "no-batching").
#[derive(Debug, Clone)]
pub struct ServeRecord {
    /// Row label (configuration under test).
    pub label: String,
    /// Execution backend name.
    pub backend: String,
    /// Offered load in requests per simulated second (0 when closed-loop).
    pub offered_rps: f64,
    /// Lowered script-cache hits across the run's warm handles (0 on
    /// non-lowered backends).
    pub script_hits: u64,
    /// Lowered script-cache misses (cold lowering passes).
    pub script_misses: u64,
    /// Structural re-misses: a previously cached script lowered again — a
    /// cache-keying regression when nonzero under a repeating workload.
    pub script_re_misses: u64,
    /// Terminal per-device snapshots, in device order (one entry for a
    /// single-device server; empty only for legacy non-device rows).
    pub devices: Vec<DeviceStats>,
    /// The measured numbers.
    pub report: ServeReport,
}

impl ServeRecord {
    /// Serializes the row as one record of the serve trajectory.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("label", Json::from(self.label.as_str()));
        o.set("backend", Json::from(self.backend.as_str()));
        o.set("offered_rps", Json::Num(self.offered_rps));
        o.set("script_hits", Json::from(self.script_hits));
        o.set("script_misses", Json::from(self.script_misses));
        o.set("script_re_misses", Json::from(self.script_re_misses));
        o.set(
            "devices",
            Json::Arr(self.devices.iter().map(device_json).collect()),
        );
        o.set("report", self.report.to_json());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Completion, ModelId, RequestId, RequestKind, Shed, TenantId};

    fn completion(id: u64, arrive_ns: f64, done_ns: f64, batch: usize, good: bool) -> Outcome {
        Outcome::Completed(Completion {
            id: RequestId(id),
            tenant: TenantId(0),
            model: ModelId(0),
            kind: RequestKind::Infer,
            arrival: SimTime::from_ns(arrive_ns),
            dispatched_at: SimTime::from_ns(arrive_ns + 10.0),
            started_at: SimTime::from_ns(arrive_ns + 20.0),
            completed_at: SimTime::from_ns(done_ns),
            device: 0,
            batch_size: batch,
            output: vec![0.0],
            in_deadline: good,
        })
    }

    #[test]
    fn report_counts_batches_and_goodput() {
        let outcomes = vec![
            completion(0, 0.0, 1000.0, 2, true),
            completion(1, 0.0, 1000.0, 2, true),
            completion(2, 100.0, 2000.0, 1, false),
            Outcome::Shed(Shed {
                id: RequestId(3),
                tenant: TenantId(1),
                at: SimTime::from_ns(150.0),
                reason: ShedReason::QueueFull,
            }),
        ];
        let r = ServeReport::from_outcomes(&outcomes);
        assert_eq!(r.offered, 4);
        assert_eq!(r.completed, 3);
        assert_eq!(r.good, 2);
        assert_eq!(r.total_shed(), 1);
        assert_eq!(r.batches, 2, "one 2-batch and one 1-batch");
        assert_eq!(r.batch_sizes, vec![(1, 1), (2, 1)]);
        assert!((r.mean_batch - 1.5).abs() < 1e-12);
        // Makespan 2000ns = 2e-6s; goodput 2/2e-6, throughput 3/2e-6.
        assert!((r.goodput_rps - 1e6).abs() < 1.0);
        assert!((r.throughput_rps - 1.5e6).abs() < 1.0);
        assert!(r.e2e.p50_us > 0.0);
        assert!(r.e2e.max_us >= r.e2e.p99_us);
    }

    #[test]
    fn every_shed_reason_is_counted_under_its_own_name() {
        // One shed of the first reason, two of the second, ...
        let outcomes: Vec<Outcome> = ShedReason::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &reason)| {
                std::iter::repeat_n(reason, i + 1).map(|reason| {
                    Outcome::Shed(Shed {
                        id: RequestId(0),
                        tenant: TenantId(0),
                        at: SimTime::ZERO,
                        reason,
                    })
                })
            })
            .collect();
        let r = ServeReport::from_outcomes(&outcomes);
        for (i, reason) in ShedReason::ALL.iter().enumerate() {
            assert_eq!(r.shed[i], (reason.name().to_owned(), i as u64 + 1));
        }
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = ServeReport::from_outcomes(&[]);
        assert_eq!(r.offered, 0);
        assert_eq!(r.goodput_rps, 0.0);
        assert_eq!(r.e2e, PhaseStats::default());
    }

    #[test]
    fn record_serializes_every_section() {
        let outcomes = vec![completion(0, 0.0, 500.0, 1, true)];
        let rec = ServeRecord {
            label: "batching".into(),
            backend: "event-interp".into(),
            offered_rps: 1000.0,
            script_hits: 12,
            script_misses: 3,
            script_re_misses: 0,
            devices: vec![DeviceStats {
                batches: 7,
                failures: 2,
                ..DeviceStats::default()
            }],
            report: ServeReport::from_outcomes(&outcomes),
        };
        let json = rec.to_json().to_string();
        assert!(json.starts_with("{\"label\":\"batching\",\"backend\":\"event-interp\""));
        assert!(json.contains("\"goodput_rps\""));
        assert!(json.contains("\"script_hits\":12"));
        assert!(json.contains("\"health\":\"healthy\""));
        assert!(json.contains("\"failures\":2"));
        for reason in ShedReason::ALL {
            assert!(json.contains(&format!("\"{}\":", reason.name())));
        }
    }
}
