//! Request-tracing benchmark (`BENCH_serve_trace.json`).
//!
//! Runs the saturating sharded serving scenario with per-request tracing
//! armed (sampling every request), reconstructs every timeline with
//! [`TraceAnalysis`], and records — per device count — the fig10-style
//! per-phase latency breakdown (overall, per tenant, per bucket signature,
//! cold vs warm script cache) together with the self-checks the schema's
//! fact list reads as booleans:
//!
//! * **tiled_exactly** — every request's phase spans tile its end-to-end
//!   latency with bit-equal boundaries and an exactly-zero sum residue;
//! * **terminal_exactly_once** — every admitted request's trace ends in
//!   exactly one resolution span, and the terminal sets match the server's
//!   outcome stream id-for-id;
//! * **complete** — no trace events and no host spans were dropped, so the
//!   attribution claim covers the whole run;
//! * **deterministic** — the run, repeated from scratch, serializes to
//!   byte-identical JSON;
//! * **queue_attr_nonzero** — the saturating corpus actually shows up as
//!   device-queue wait in the attribution (a breakdown that can't see
//!   queueing under saturation is broken);
//! * **cold_and_warm_present** — the breakdown splits executed requests by
//!   script-cache behaviour and both populations exist.

use std::collections::BTreeSet;

use vpps_obs::{GroupBreakdown, Json, PhaseStats, Resolution, TraceAnalysis};
use vpps_serve::Outcome;

use crate::serve_bench::{run_scenario_server, ServeScenario};
use crate::sharded_bench::sharded_scenario;
use crate::trajectory::{num, records, uint, Facts, Field, Schema, Ty};

const PHASE: &[Field] = &[
    ("count", Ty::U64),
    ("mean_us", Ty::F64),
    ("p50_us", Ty::F64),
    ("p95_us", Ty::F64),
    ("p99_us", Ty::F64),
    ("max_us", Ty::F64),
];

const BREAKDOWN: &[Field] = &[
    ("label", Ty::Str),
    ("requests", Ty::U64),
    ("e2e", Ty::Obj(PHASE)),
    ("linger", Ty::Obj(PHASE)),
    ("queue", Ty::Obj(PHASE)),
    ("execute", Ty::Obj(PHASE)),
    ("tail_linger_share", Ty::F64),
    ("tail_queue_share", Ty::F64),
    ("tail_execute_share", Ty::F64),
];

/// `BENCH_serve_trace.json`: one [`TraceRecord`] per device count.
pub static SCHEMA: Schema = Schema {
    name: "vpps-serve-trace",
    version: 1,
    header: &[],
    record: &[
        ("devices", Ty::U64),
        ("offered_rps", Ty::F64),
        ("requests", Ty::U64),
        ("completed", Ty::U64),
        ("dropped", Ty::U64),
        ("traced", Ty::U64),
        ("events", Ty::U64),
        ("events_dropped", Ty::U64),
        ("host_spans_dropped", Ty::U64),
        ("batches", Ty::U64),
        ("retries", Ty::U64),
        ("steals", Ty::U64),
        ("errors", Ty::U64),
        ("tiled_exactly", Ty::Bool),
        ("terminal_exactly_once", Ty::Bool),
        ("queue_attr_nonzero", Ty::Bool),
        ("cold_and_warm_present", Ty::Bool),
        ("complete", Ty::Bool),
        ("deterministic", Ty::Bool),
        ("overall", Ty::Obj(BREAKDOWN)),
        ("by_tenant", Ty::ArrOf(BREAKDOWN)),
        ("by_bucket", Ty::ArrOf(BREAKDOWN)),
        ("by_warmth", Ty::ArrOf(BREAKDOWN)),
    ],
    facts,
};

fn facts(doc: &Json) -> Vec<String> {
    let mut f = Facts::default();
    for r in records(doc) {
        f.row(format!("devices={}", uint(r, "devices")));
        f.all_true(
            r,
            &[
                "tiled_exactly",
                "terminal_exactly_once",
                "queue_attr_nonzero",
                "cold_and_warm_present",
                "complete",
                "deterministic",
            ],
        );
        f.all_zero(r, &["events_dropped", "host_spans_dropped", "errors"]);
        // The sweep's corpus saturates the devices: an all-zero queue phase
        // means the analyzer mislabels time, not that the queues are empty.
        for phase in ["e2e", "queue", "execute"] {
            let p99 = num(r, &format!("overall.{phase}.p99_us"));
            f.require(p99 > 0.0, || {
                format!("overall.{phase}.p99_us is {p99} under a saturating corpus")
            });
        }
        let (traced, requests) = (uint(r, "traced"), uint(r, "requests"));
        f.require(traced == requests, || {
            format!("traced {traced} of {requests} requests")
        });
    }
    f.failed
}

/// The tracing scenario: the sharded sweep's saturating Zipf corpus with
/// every request traced.
pub fn trace_scenario(full: bool) -> ServeScenario {
    ServeScenario {
        label: "serve-trace".to_owned(),
        trace_sample: Some(1),
        ..sharded_scenario(full)
    }
}

/// Device counts swept by [`run_trace`].
pub fn trace_device_counts(full: bool) -> Vec<usize> {
    if full {
        vec![1, 2, 4]
    } else {
        vec![1, 2]
    }
}

/// One device-count point of the tracing sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual devices the server sharded across.
    pub devices: usize,
    /// Offered load realized by the trace, requests per simulated second.
    pub offered_rps: f64,
    /// Requests submitted (each has exactly one outcome).
    pub requests: u64,
    /// Requests that completed execution.
    pub completed: u64,
    /// Requests shed or failed.
    pub dropped: u64,
    /// Timelines reconstructed from the trace.
    pub traced: u64,
    /// Trace events recorded.
    pub events: u64,
    /// Trace events rejected because the sink was full.
    pub events_dropped: u64,
    /// Host spans the global ring buffer dropped during the run.
    pub host_spans_dropped: u64,
    /// Batches formed (excludes retry singletons).
    pub batches: u64,
    /// Singleton retries after faulted batches.
    pub retries: u64,
    /// Batches stolen away from their affinity device.
    pub steals: u64,
    /// Structural analyzer errors (must be 0).
    pub errors: u64,
    /// Every timeline passed its exact-tiling check.
    pub tiled_exactly: bool,
    /// Terminal sets match the outcome stream id-for-id, one each.
    pub terminal_exactly_once: bool,
    /// Device-queue wait is visible in the attribution (p99 > 0).
    pub queue_attr_nonzero: bool,
    /// Both cold and warm executed populations exist.
    pub cold_and_warm_present: bool,
    /// Structurally sound and nothing dropped ([`TraceAnalysis::complete`]).
    pub complete: bool,
    /// The run, repeated from scratch, was byte-identical.
    pub deterministic: bool,
    /// Breakdown over every traced request.
    pub overall: GroupBreakdown,
    /// Breakdown per tenant.
    pub by_tenant: Vec<GroupBreakdown>,
    /// Breakdown per bucket signature.
    pub by_bucket: Vec<GroupBreakdown>,
    /// Breakdown of executed requests, cold vs warm script cache.
    pub by_warmth: Vec<GroupBreakdown>,
}

/// One run condensed into its record (`deterministic` still unset).
fn trace_run(sc: &ServeScenario, devices: usize) -> TraceRecord {
    // The host-span ring is global; start each run from a clean ring so
    // `host_spans_dropped` reflects this run alone (and reruns match).
    vpps_obs::clear_spans();
    let mut sc = sc.clone();
    sc.devices = devices;
    let (mut server, _, offered_rps) = run_scenario_server(&sc);
    let sink = server.take_trace().expect("trace_scenario arms tracing");
    let analysis = TraceAnalysis::analyze(&sink);

    let mut out_completed: BTreeSet<u64> = BTreeSet::new();
    let mut out_dropped: BTreeSet<u64> = BTreeSet::new();
    for o in server.outcomes() {
        match o {
            Outcome::Completed(c) => out_completed.insert(c.id.0),
            Outcome::Shed(s) => out_dropped.insert(s.id.0),
        };
    }
    let mut tl_completed: BTreeSet<u64> = BTreeSet::new();
    let mut tl_dropped: BTreeSet<u64> = BTreeSet::new();
    for t in &analysis.timelines {
        match t.resolution {
            Resolution::Completed => tl_completed.insert(t.req),
            // Retry-budget failures surface as sheds in the outcome stream.
            Resolution::Shed | Resolution::Failed => tl_dropped.insert(t.req),
        };
    }

    let tiled_exactly = !analysis.timelines.is_empty()
        && analysis.timelines.iter().all(|t| t.check_tiling().is_ok());
    let terminal_exactly_once = tl_completed == out_completed && tl_dropped == out_dropped;
    let has_warmth = |label: &str| analysis.by_warmth.iter().any(|g| g.label == label);

    TraceRecord {
        devices,
        offered_rps,
        requests: server.outcomes().len() as u64,
        completed: out_completed.len() as u64,
        dropped: out_dropped.len() as u64,
        traced: analysis.timelines.len() as u64,
        events: analysis.events,
        events_dropped: analysis.events_dropped,
        host_spans_dropped: analysis.host_spans_dropped,
        batches: analysis.batches,
        retries: analysis.retries,
        steals: analysis.steals,
        errors: analysis.errors.len() as u64,
        tiled_exactly,
        terminal_exactly_once,
        queue_attr_nonzero: analysis.overall.queue.p99_us > 0.0,
        cold_and_warm_present: has_warmth("cold") && has_warmth("warm"),
        complete: analysis.complete(),
        deterministic: false, // filled by trace_point
        overall: analysis.overall,
        by_tenant: analysis.by_tenant,
        by_bucket: analysis.by_bucket,
        by_warmth: analysis.by_warmth,
    }
}

/// One point of the sweep, with the byte-identity self-check filled in:
/// the scenario is run twice and `deterministic` records whether both
/// runs serialized to the same bytes.
pub fn trace_point(sc: &ServeScenario, devices: usize) -> TraceRecord {
    let mut record = trace_run(sc, devices);
    let second = trace_run(sc, devices);
    // `deterministic` is false in both records here, so comparing their
    // serialized bytes compares only the measured trace.
    record.deterministic = record.to_json().to_string() == second.to_json().to_string();
    record
}

/// Runs the full sweep and returns one record per device count.
pub fn run_trace(full: bool) -> Vec<TraceRecord> {
    let sc = trace_scenario(full);
    trace_device_counts(full)
        .into_iter()
        .map(|d| trace_point(&sc, d))
        .collect()
}

/// Renders one run's per-request Chrome-trace view (process 0: one track
/// per device with batch windows; process 1: one track per request with its
/// phase spans), validated against the trace-event schema.
///
/// # Errors
///
/// The rendered JSON failed its own schema validation — a bug.
pub fn chrome_view_json(sc: &ServeScenario, devices: usize) -> Result<String, String> {
    vpps_obs::clear_spans();
    let mut sc = sc.clone();
    sc.devices = devices;
    let (mut server, _, _) = run_scenario_server(&sc);
    let sink = server.take_trace().ok_or("tracing was not enabled")?;
    let json = TraceAnalysis::analyze(&sink).to_chrome().to_json();
    vpps_obs::validate_chrome_trace(&json)?;
    Ok(json)
}

fn stats_json(s: &PhaseStats) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::from(s.count as u64));
    o.set("mean_us", Json::Num(s.mean_us));
    o.set("p50_us", Json::Num(s.p50_us));
    o.set("p95_us", Json::Num(s.p95_us));
    o.set("p99_us", Json::Num(s.p99_us));
    o.set("max_us", Json::Num(s.max_us));
    o
}

fn breakdown_json(b: &GroupBreakdown) -> Json {
    let mut o = Json::obj();
    o.set("label", Json::from(b.label.as_str()));
    o.set("requests", Json::from(b.requests as u64));
    o.set("e2e", stats_json(&b.e2e));
    o.set("linger", stats_json(&b.linger));
    o.set("queue", stats_json(&b.queue));
    o.set("execute", stats_json(&b.execute));
    o.set("tail_linger_share", Json::Num(b.tail_linger_share));
    o.set("tail_queue_share", Json::Num(b.tail_queue_share));
    o.set("tail_execute_share", Json::Num(b.tail_execute_share));
    o
}

impl TraceRecord {
    /// Serializes the point as one record of [`SCHEMA`].
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("devices", Json::from(self.devices as u64));
        o.set("offered_rps", Json::Num(self.offered_rps));
        o.set("requests", Json::from(self.requests));
        o.set("completed", Json::from(self.completed));
        o.set("dropped", Json::from(self.dropped));
        o.set("traced", Json::from(self.traced));
        o.set("events", Json::from(self.events));
        o.set("events_dropped", Json::from(self.events_dropped));
        o.set("host_spans_dropped", Json::from(self.host_spans_dropped));
        o.set("batches", Json::from(self.batches));
        o.set("retries", Json::from(self.retries));
        o.set("steals", Json::from(self.steals));
        o.set("errors", Json::from(self.errors));
        o.set("tiled_exactly", Json::from(self.tiled_exactly));
        o.set(
            "terminal_exactly_once",
            Json::from(self.terminal_exactly_once),
        );
        o.set("queue_attr_nonzero", Json::from(self.queue_attr_nonzero));
        o.set(
            "cold_and_warm_present",
            Json::from(self.cold_and_warm_present),
        );
        o.set("complete", Json::from(self.complete));
        o.set("deterministic", Json::from(self.deterministic));
        o.set("overall", breakdown_json(&self.overall));
        o.set(
            "by_tenant",
            Json::Arr(self.by_tenant.iter().map(breakdown_json).collect()),
        );
        o.set(
            "by_bucket",
            Json::Arr(self.by_bucket.iter().map(breakdown_json).collect()),
        );
        o.set(
            "by_warmth",
            Json::Arr(self.by_warmth.iter().map(breakdown_json).collect()),
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_view_renders_and_validates() {
        let mut sc = trace_scenario(false);
        sc.requests = 24;
        let json = chrome_view_json(&sc, 2).unwrap();
        assert!(json.contains("\"pid\":0"), "device tracks present");
        assert!(json.contains("\"pid\":1"), "request tracks present");
    }
}
