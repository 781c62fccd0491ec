//! Chaos-sharded benchmark: whole-device outages against the sharded
//! server (`BENCH_chaos_sharded.json`).
//!
//! Sweeps device count × outage kind. Each point replays the *same* seeded
//! serving trace three times:
//!
//! 1. **fault-free** — fixes the timeline (the outage window is placed at
//!    `[T/3, 2T/3]` of the fault-free makespan, so it always lands in the
//!    middle of real traffic) and the reference outputs;
//! 2. **outage** — with one scheduled whole-device outage on device 1 and
//!    full request tracing armed, measuring goodput before/during/after the
//!    window, re-dispatch counts, and warm-rebuild cold lowers;
//! 3. **outage again** — same seed, to self-check byte-identical replay.
//!
//! The invariants the failure-domain design promises are *checked while
//! benchmarking* and written into the document, so the schema's fact list
//! only reads flags:
//!
//! * `lost == 0` and `duplicates == 0` — every admitted request resolves
//!   exactly once, across crash, hang and brownout schedules;
//! * `outputs_match_fault_free` — surviving-path outputs are bit-identical
//!   to the fault-free run (re-dispatch re-executes, it never corrupts);
//! * `deterministic` — the same-seed rerun reproduces outcome ids, virtual
//!   timestamps, executing devices and output bits exactly;
//! * `trace_complete` — the traced run's per-request phase spans still tile
//!   each latency exactly, with re-dispatch visible as an attributed phase.

use gpu_sim::{OutageKind, OutageWindow, SimTime};
use vpps::BackendKind;
use vpps_obs::Json;
use vpps_serve::{Outcome, Server};

use crate::serve_bench::{outcome_fingerprint, output_bits, run_scenario_server, ServeScenario};
use crate::trajectory::{num, records, text, uint, Facts, Schema, Ty};

/// `BENCH_chaos_sharded.json`: one [`ChaosShardedRecord`] per (device count,
/// outage kind) point.
pub static SCHEMA: Schema = Schema {
    name: "vpps-chaos-sharded-trajectory",
    version: 1,
    header: &[],
    record: &[
        ("devices", Ty::U64),
        ("kind", Ty::Str),
        ("outage_device", Ty::U64),
        ("outage_start_us", Ty::F64),
        ("outage_end_us", Ty::F64),
        ("offered", Ty::U64),
        ("completed", Ty::U64),
        ("shed", Ty::U64),
        ("lost", Ty::U64),
        ("duplicates", Ty::U64),
        ("redispatched", Ty::U64),
        ("rehomes", Ty::U64),
        ("warm_rebuild_cold_lowers", Ty::U64),
        ("device_downs", Ty::U64),
        ("device_revivals", Ty::U64),
        ("goodput_pre_rps", Ty::F64),
        ("goodput_during_rps", Ty::F64),
        ("goodput_post_rps", Ty::F64),
        ("outputs_match_fault_free", Ty::Bool),
        ("deterministic", Ty::Bool),
        ("trace_complete", Ty::Bool),
        ("self_checks_pass", Ty::Bool),
    ],
    facts,
};

fn facts(doc: &Json) -> Vec<String> {
    let mut f = Facts::default();
    let rows = records(doc);
    let crash4 = rows
        .iter()
        .any(|r| uint(r, "devices") == 4 && text(r, "kind") == OutageKind::Crash.name());
    f.require(crash4, || "no record has devices=4 kind=crash".to_owned());
    for r in rows {
        let (n, kind) = (uint(r, "devices"), text(r, "kind"));
        f.row(format!("devices={n} kind={kind}"));
        f.all_zero(r, &["lost", "duplicates"]);
        f.all_true(
            r,
            &[
                "outputs_match_fault_free",
                "deterministic",
                "trace_complete",
                "self_checks_pass",
            ],
        );
        // Crash and hang must actually kill (and revive) the device and
        // move its work; a brownout must never escalate to Down.
        if kind == OutageKind::Brownout.name() {
            f.all_zero(r, &["device_downs"]);
        } else {
            for key in ["device_downs", "device_revivals", "redispatched"] {
                f.require(uint(r, key) >= 1, || format!("{key} is 0"));
            }
        }
        // Losing 1 of N devices may cost its capacity share but no more
        // (0.8 slack for batching-boundary jitter), and the revived fleet
        // must recover to at least 0.9x pre-outage.
        let [pre, during, post] =
            ["pre", "during", "post"].map(|w| num(r, &format!("goodput_{w}_rps")));
        let floor = (n as f64 - 1.0) / n as f64 * 0.8 * pre;
        f.require(during >= floor, || {
            format!("goodput_during_rps {during:.0} below the (N-1)/N floor {floor:.0}")
        });
        f.require(post >= 0.9 * pre, || {
            format!("goodput_post_rps {post:.0} < 0.9x goodput_pre_rps {pre:.0}")
        });
    }
    f.failed
}

/// The sweep scenario: device counts × outage kinds over one seeded trace.
#[derive(Debug, Clone)]
pub struct ChaosShardedScenario {
    /// Requests per point.
    pub requests: usize,
    /// Seed for the request trace (and the outage placement, via the
    /// fault-free makespan).
    pub seed: u64,
    /// Open-loop offered load, requests per simulated second.
    pub rate_rps: f64,
    /// Hidden dimension of the workload model.
    pub hidden: usize,
    /// Device counts to sweep (each must be >= 2: an outage needs a
    /// survivor).
    pub device_counts: Vec<usize>,
    /// Outage kinds to sweep.
    pub kinds: Vec<OutageKind>,
}

impl Default for ChaosShardedScenario {
    fn default() -> Self {
        Self {
            requests: 120,
            seed: 23,
            // Between one device's capacity and two devices' on this
            // workload, so arrivals span the outage window and keep flowing
            // after revival: a one-device outage visibly degrades goodput,
            // and post-revival recovery is observable because the router
            // still has work to place.
            rate_rps: 3_000.0,
            hidden: 32,
            device_counts: vec![2, 4],
            kinds: OutageKind::ALL.to_vec(),
        }
    }
}

/// One (device count, outage kind) point with its self-checked invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosShardedRecord {
    /// Devices the server sharded across.
    pub devices: usize,
    /// Outage kind ([`OutageKind::name`]).
    pub kind: String,
    /// Device the outage hit.
    pub outage_device: u32,
    /// Window start, virtual microseconds.
    pub outage_start_us: f64,
    /// Window end, virtual microseconds.
    pub outage_end_us: f64,
    /// Requests submitted.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests shed with a typed reason.
    pub shed: u64,
    /// Submitted requests with *no* outcome — must be 0 (nothing vanishes
    /// with a failing device).
    pub lost: u64,
    /// Requests with more than one outcome — must be 0 (re-dispatch never
    /// double-resolves).
    pub duplicates: u64,
    /// Batches taken off the failing device and re-dispatched to survivors.
    pub redispatched: u64,
    /// Buckets whose affinity was forced off the failing device.
    pub rehomes: u64,
    /// Re-homed buckets that paid one cold lowering pass on their new home
    /// (the warm-rebuild cost of the failure).
    pub warm_rebuild_cold_lowers: u64,
    /// Down declarations on the outage device (crash or watchdog-detected
    /// hang; 0 for brownout).
    pub device_downs: u64,
    /// Revivals of the outage device.
    pub device_revivals: u64,
    /// In-deadline completions per simulated second before the window.
    pub goodput_pre_rps: f64,
    /// ... inside the window (the degraded interval).
    pub goodput_during_rps: f64,
    /// ... after the window (post-revival).
    pub goodput_post_rps: f64,
    /// Completed outputs bit-identical to the fault-free run of the same
    /// trace.
    pub outputs_match_fault_free: bool,
    /// Same-seed rerun reproduced ids, timestamps, devices and outputs.
    pub deterministic: bool,
    /// The traced run's phase spans tile every latency exactly, with
    /// re-dispatch attributed (no analyzer errors, nothing dropped).
    pub trace_complete: bool,
}

impl ChaosShardedRecord {
    /// `true` iff every in-process invariant held for this point (recorded
    /// as `self_checks_pass`).
    fn self_checks_pass(&self) -> bool {
        self.lost == 0
            && self.duplicates == 0
            && self.outputs_match_fault_free
            && self.deterministic
            && self.trace_complete
            // Crash and hang must actually kill (and revive) the device;
            // a brownout must never escalate to Down.
            && if self.kind == "brownout" {
                self.device_downs == 0
            } else {
                self.device_downs >= 1 && self.device_revivals >= 1 && self.redispatched >= 1
            }
    }
}

fn scenario_for(sc: &ChaosShardedScenario, devices: usize, label: String) -> ServeScenario {
    ServeScenario {
        label,
        requests: sc.requests,
        seed: sc.seed,
        rate_rps: sc.rate_rps,
        hidden: sc.hidden,
        devices,
        backend: BackendKind::Lowered,
        train_fraction: 0.0, // replicas diverge under training; infer-only
        deadline_us: None,
        queue_capacity: 1 << 16, // admission never sheds: exactly-once is
        tenant_quota: 1 << 16,   // checked over *completions*
        ..ServeScenario::default()
    }
}

/// In-deadline completions per simulated second inside `[from, to)`.
fn window_goodput(server: &Server, from: SimTime, to: SimTime) -> f64 {
    let span_s = (to - from).as_secs();
    if span_s <= 0.0 {
        return 0.0;
    }
    let good = server
        .outcomes()
        .iter()
        .filter_map(Outcome::completion)
        .filter(|c| c.in_deadline && c.completed_at >= from && c.completed_at < to)
        .count();
    good as f64 / span_s
}

fn chaos_sharded_point(
    sc: &ChaosShardedScenario,
    devices: usize,
    kind: OutageKind,
) -> ChaosShardedRecord {
    assert!(devices >= 2, "an outage needs at least one survivor");
    // Fault-free pass: reference outputs and the timeline that places the
    // outage window over the middle third of real traffic.
    let clean_sc = scenario_for(sc, devices, format!("chaos-sharded-{devices}-clean"));
    let (clean, _, _) = run_scenario_server(&clean_sc);
    let makespan = clean.now();
    let window = OutageWindow {
        device: 1,
        kind,
        start: SimTime::from_ns(makespan.as_ns() / 3.0),
        end: SimTime::from_ns(makespan.as_ns() * 2.0 / 3.0),
    };

    let mut outage_sc = scenario_for(
        sc,
        devices,
        format!("chaos-sharded-{devices}-{}", kind.name()),
    );
    outage_sc
        .faults
        .push_outage(window)
        .expect("one window fits");
    outage_sc.trace_sample = Some(1); // tracing is pure observation

    let run = |s: &ServeScenario| {
        let (mut server, _, _) = run_scenario_server(s);
        let trace = server.take_trace();
        (server, trace)
    };
    let (server, trace) = run(&outage_sc);
    let (server2, _) = run(&outage_sc);
    let deterministic = outcome_fingerprint(&server) == outcome_fingerprint(&server2);

    let analysis = trace.as_ref().map(vpps_obs::TraceAnalysis::analyze);
    let trace_complete = analysis.as_ref().is_some_and(|a| a.complete());

    // Exactly-once accounting over the outcome stream.
    let offered = sc.requests as u64;
    let mut ids: Vec<u64> = server.outcomes().iter().map(|o| o.id().0).collect();
    ids.sort_unstable();
    let total = ids.len() as u64;
    ids.dedup();
    let resolved = ids.len() as u64;
    let duplicates = total - resolved;
    let lost = offered.saturating_sub(resolved);
    let completed = server
        .outcomes()
        .iter()
        .filter(|o| o.completion().is_some())
        .count() as u64;

    let router = server.router_stats();
    let downs = |d: usize| {
        server
            .device_health_log(d)
            .iter()
            .filter(|t| t.to == vpps_serve::DeviceHealth::Down)
            .count() as u64
    };
    let revivals = |d: usize| {
        server
            .device_health_log(d)
            .iter()
            .filter(|t| t.to == vpps_serve::DeviceHealth::Reviving)
            .count() as u64
    };

    ChaosShardedRecord {
        devices,
        kind: kind.name().to_owned(),
        outage_device: window.device,
        outage_start_us: window.start.as_ns() / 1e3,
        outage_end_us: window.end.as_ns() / 1e3,
        offered,
        completed,
        shed: total - completed,
        lost,
        duplicates,
        redispatched: server.redispatched_batches(),
        rehomes: router.rehomes,
        warm_rebuild_cold_lowers: router.cold_rebuilds,
        device_downs: downs(1),
        device_revivals: revivals(1),
        goodput_pre_rps: window_goodput(&server, SimTime::ZERO, window.start),
        goodput_during_rps: window_goodput(&server, window.start, window.end),
        // A window of the outage's own length right after revival (clipped
        // to the makespan), so the quiet drain tail does not dilute the
        // recovery measurement.
        goodput_post_rps: {
            let post_end = SimTime::from_ns(
                (window.end.as_ns() + (window.end - window.start).as_ns())
                    .min(server.now().as_ns()),
            );
            window_goodput(&server, window.end, post_end)
        },
        outputs_match_fault_free: {
            let reference = output_bits(&clean);
            !reference.is_empty() && output_bits(&server) == reference
        },
        deterministic,
        trace_complete,
    }
}

/// Runs the full sweep: one record per (device count, outage kind) pair.
pub fn run_chaos_sharded(sc: &ChaosShardedScenario) -> Vec<ChaosShardedRecord> {
    let mut records = Vec::new();
    for &devices in &sc.device_counts {
        for &kind in &sc.kinds {
            records.push(chaos_sharded_point(sc, devices, kind));
        }
    }
    records
}

/// The scale used by `repro chaos-sharded`.
pub fn chaos_sharded_scenario(full: bool) -> ChaosShardedScenario {
    ChaosShardedScenario {
        requests: if full { 240 } else { 120 },
        device_counts: if full { vec![2, 4, 8] } else { vec![2, 4] },
        ..ChaosShardedScenario::default()
    }
}

impl ChaosShardedRecord {
    /// Serializes the point as one record of [`SCHEMA`].
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("devices", Json::from(self.devices as u64));
        o.set("kind", Json::from(self.kind.as_str()));
        o.set("outage_device", Json::from(self.outage_device as u64));
        o.set("outage_start_us", Json::Num(self.outage_start_us));
        o.set("outage_end_us", Json::Num(self.outage_end_us));
        o.set("offered", Json::from(self.offered));
        o.set("completed", Json::from(self.completed));
        o.set("shed", Json::from(self.shed));
        o.set("lost", Json::from(self.lost));
        o.set("duplicates", Json::from(self.duplicates));
        o.set("redispatched", Json::from(self.redispatched));
        o.set("rehomes", Json::from(self.rehomes));
        o.set(
            "warm_rebuild_cold_lowers",
            Json::from(self.warm_rebuild_cold_lowers),
        );
        o.set("device_downs", Json::from(self.device_downs));
        o.set("device_revivals", Json::from(self.device_revivals));
        o.set("goodput_pre_rps", Json::Num(self.goodput_pre_rps));
        o.set("goodput_during_rps", Json::Num(self.goodput_during_rps));
        o.set("goodput_post_rps", Json::Num(self.goodput_post_rps));
        o.set(
            "outputs_match_fault_free",
            Json::Bool(self.outputs_match_fault_free),
        );
        o.set("deterministic", Json::Bool(self.deterministic));
        o.set("trace_complete", Json::Bool(self.trace_complete));
        o.set("self_checks_pass", Json::Bool(self.self_checks_pass()));
        o
    }
}
