//! Sharded-serving benchmark (`BENCH_serve_sharded.json`).
//!
//! Sweeps the device count of the sharded server under a saturating
//! Zipf-skewed multi-tenant corpus and records, per device count:
//!
//! * **goodput** over a measured pass that starts with warm lowered caches
//!   (three warmup passes over the same trace precede it, so the reported
//!   numbers are steady-state, not cold-start);
//! * **warm script-cache hit rate** — the fraction of lowered script-cache
//!   lookups in the measured pass that hit. With structure-keyed buckets
//!   this must be ≈1: every batch shape was already lowered during warmup;
//! * **router behavior** — placements, affinity hits, steal counts;
//! * **per-device utilization and batch counts** over the measured pass;
//! * two self-checks computed in-process and recorded as booleans for the
//!   schema's fact list: `deterministic` (the whole warmup+measure run,
//!   repeated, is byte-identical) and `outputs_match_single` (a low-load
//!   verification trace produces bit-identical per-request outputs on N
//!   devices and on one).
//!
//! Everything runs on the virtual clock; records are pure functions of the
//! scenario.

use std::collections::BTreeMap;

use vpps::BackendKind;
use vpps_obs::Json;
use vpps_serve::ServeReport;

use crate::serve_bench::{
    corpus_for, outcome_fingerprint, output_bits, run_scenario_server, server_for, submit_corpus,
    ServeScenario,
};
use crate::trajectory::{arr, num, records, uint, Facts, Schema, Ty};

/// `BENCH_serve_sharded.json`: one [`ShardedRecord`] per device count.
pub static SCHEMA: Schema = Schema {
    name: "vpps-serve-sharded-trajectory",
    version: 1,
    header: &[],
    record: &[
        ("devices", Ty::U64),
        ("offered_rps", Ty::F64),
        ("completed", Ty::U64),
        ("shed", Ty::U64),
        ("goodput_rps", Ty::F64),
        ("mean_batch", Ty::F64),
        ("warm_hit_rate", Ty::F64),
        ("script_hits", Ty::U64),
        ("script_misses", Ty::U64),
        ("script_re_misses", Ty::U64),
        ("routed", Ty::U64),
        ("placements", Ty::U64),
        ("affinity_hits", Ty::U64),
        ("steals", Ty::U64),
        ("per_device_util", Ty::Arr),
        ("per_device_batches", Ty::Arr),
        ("deterministic", Ty::Bool),
        ("outputs_match_single", Ty::Bool),
    ],
    facts,
};

fn facts(doc: &Json) -> Vec<String> {
    let mut f = Facts::default();
    let rows = records(doc);
    // Adding devices must not cost goodput (2% tolerance for batching-
    // boundary jitter), and 4 devices must deliver at least 1.5x one.
    let mut goodput: Vec<(u64, f64)> = rows
        .iter()
        .map(|r| (uint(r, "devices"), num(r, "goodput_rps")))
        .collect();
    goodput.sort_by_key(|&(devices, _)| devices);
    for pair in goodput.windows(2) {
        let ((d_lo, lo), (d_hi, hi)) = (pair[0], pair[1]);
        f.require(hi >= 0.98 * lo, || {
            format!("goodput_rps fell {lo:.0} -> {hi:.0} from {d_lo} to {d_hi} devices")
        });
    }
    let at = |d| goodput.iter().find(|p| p.0 == d).map(|p| p.1);
    match (at(1), at(4)) {
        (Some(g1), Some(g4)) => f.require(g4 >= 1.5 * g1, || {
            format!("goodput_rps at 4 devices {g4:.0} < 1.5x the 1-device {g1:.0}")
        }),
        _ => f.require(false, || "scaling needs devices=1 and devices=4".to_owned()),
    }
    for r in rows {
        let devices = uint(r, "devices");
        f.row(format!("devices={devices}"));
        let hit = num(r, "warm_hit_rate");
        f.require(hit >= 0.9, || {
            format!("warm_hit_rate {hit:.3} < 0.9 after warmup")
        });
        f.all_zero(r, &["script_re_misses"]);
        f.all_true(r, &["deterministic", "outputs_match_single"]);
        for key in ["per_device_util", "per_device_batches"] {
            let n = arr(r, key).len() as u64;
            f.require(n == devices, || format!("{key} has {n} entries"));
        }
    }
    f.failed
}

/// One device-count point of the sharded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRecord {
    /// Virtual devices the server sharded across.
    pub devices: usize,
    /// Offered load realized by the trace, requests per simulated second.
    pub offered_rps: f64,
    /// Completions in the measured (warm) pass.
    pub completed: u64,
    /// Sheds in the measured pass.
    pub shed: u64,
    /// In-deadline completions per simulated second in the measured pass.
    pub goodput_rps: f64,
    /// Mean requests per batch in the measured pass.
    pub mean_batch: f64,
    /// Warm lowered script-cache hit rate over the measured pass.
    pub warm_hit_rate: f64,
    /// Script-cache hits across the whole run (warmup + measure).
    pub script_hits: u64,
    /// Script-cache misses across the whole run.
    pub script_misses: u64,
    /// Structural re-misses across the whole run (must stay 0).
    pub script_re_misses: u64,
    /// Batches routed across the whole run.
    pub routed: u64,
    /// First-seen bucket placements.
    pub placements: u64,
    /// Batches routed to their warm affinity device.
    pub affinity_hits: u64,
    /// Batches stolen to a less-loaded device.
    pub steals: u64,
    /// Per-device busy fraction over the measured pass.
    pub per_device_util: Vec<f64>,
    /// Per-device executed batches over the measured pass.
    pub per_device_batches: Vec<u64>,
    /// The whole warmup+measure run, repeated from scratch, was
    /// byte-identical.
    pub deterministic: bool,
    /// A low-load verification trace completed every request with
    /// per-request outputs bit-identical to a single-device run.
    pub outputs_match_single: bool,
}

/// The sweep scenario: a saturating open-loop burst of Zipf-popular inputs
/// on the lowered backend (the backend whose caches sharding must respect).
pub fn sharded_scenario(full: bool) -> ServeScenario {
    ServeScenario {
        label: "serve-sharded".to_owned(),
        requests: if full { 480 } else { 240 },
        rate_rps: 2_000_000.0,
        tenants: 6,
        backend: BackendKind::Lowered,
        sample_pool: 24,
        hidden: 32,
        // ~2 batch services: steal only under real imbalance, so hot
        // buckets stay on (and keep hitting) their warm affinity device.
        steal_margin_us: 2_000.0,
        ..ServeScenario::default()
    }
}

/// Device counts swept by [`run_sharded`].
pub fn device_counts(full: bool) -> Vec<usize> {
    if full {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 2, 4]
    }
}

/// Runs the full sweep and returns one record per device count.
pub fn run_sharded(full: bool) -> Vec<ShardedRecord> {
    let sc = sharded_scenario(full);
    device_counts(full)
        .into_iter()
        .map(|d| sharded_point(&sc, d))
        .collect()
}

/// Everything one warmup+measure execution produces.
struct WarmRun {
    record: ShardedRecord,
    fingerprint: Vec<(u64, u64, u64, u64)>,
}

fn warm_run(sc: &ServeScenario, devices: usize) -> WarmRun {
    let mut sc = sc.clone();
    sc.devices = devices;
    let (mut server, mid, workload) = server_for(&sc);
    let corpus = corpus_for(&sc);

    // Warmup: three passes over the trace. The first pays the cold lowering
    // misses on each bucket's affinity device; the later ones let devices
    // that *steal* hot buckets under load lower them too, so the measured
    // pass sees steady-state caches on every device a batch can land on.
    for _ in 0..3 {
        let offset = server.now();
        submit_corpus(&mut server, mid, &workload, &corpus, offset);
        server.drain();
    }
    let cache_warm = server.lowered_cache_stats();
    let stats_warm = server.device_stats();
    let outcomes_warm = server.outcomes().len();
    let t_warm = server.now();

    // Measured pass: same trace, shifted past the warmup; every batch shape
    // is already lowered on the devices that execute it.
    submit_corpus(&mut server, mid, &workload, &corpus, t_warm);
    server.drain();
    let cache = server.lowered_cache_stats();
    let stats = server.device_stats();
    let elapsed = server.now() - t_warm;

    let report = ServeReport::from_outcomes(&server.outcomes()[outcomes_warm..]);
    let warm_hits = cache.script_hits - cache_warm.script_hits;
    let warm_misses = cache.script_misses - cache_warm.script_misses;
    let warm_hit_rate = if warm_hits + warm_misses == 0 {
        1.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };
    let per_device_util = stats
        .iter()
        .zip(&stats_warm)
        .map(|(s, w)| {
            if elapsed.as_ns() > 0.0 {
                (s.busy - w.busy).as_ns() / elapsed.as_ns()
            } else {
                0.0
            }
        })
        .collect();
    let per_device_batches = stats
        .iter()
        .zip(&stats_warm)
        .map(|(s, w)| s.batches - w.batches)
        .collect();
    let router = server.router_stats();
    WarmRun {
        record: ShardedRecord {
            devices,
            offered_rps: corpus.offered_rps(),
            completed: report.completed,
            shed: report.total_shed(),
            goodput_rps: report.goodput_rps,
            mean_batch: report.mean_batch,
            warm_hit_rate,
            script_hits: cache.script_hits,
            script_misses: cache.script_misses,
            script_re_misses: cache.script_re_misses,
            routed: router.routed,
            placements: router.placements,
            affinity_hits: router.affinity_hits,
            steals: router.steals,
            per_device_util,
            per_device_batches,
            deterministic: false,        // filled by sharded_point
            outputs_match_single: false, // filled by sharded_point
        },
        fingerprint: outcome_fingerprint(&server),
    }
}

/// Per-request output bits of a low-load (shed-free) verification trace.
fn verification_outputs(sc: &ServeScenario, devices: usize) -> Option<BTreeMap<u64, Vec<u32>>> {
    let mut v = sc.clone();
    v.devices = devices;
    v.requests = sc.requests.min(160);
    v.rate_rps = 20_000.0; // low load: nothing sheds, every request completes
    v.train_fraction = 0.0; // replicas diverge under training; infer-only
    v.deadline_us = None;
    v.queue_capacity = 1 << 16; // belt and braces: admission never sheds
    let (server, _, _) = run_scenario_server(&v);
    let out = output_bits(&server);
    (out.len() == v.requests).then_some(out) // a shed voids the comparison
}

/// One point of the sweep, with both self-checks filled in.
pub(crate) fn sharded_point(sc: &ServeScenario, devices: usize) -> ShardedRecord {
    let first = warm_run(sc, devices);
    let second = warm_run(sc, devices);
    let single = verification_outputs(sc, 1);
    let sharded = verification_outputs(sc, devices);
    let mut record = first.record;
    // Both flags are still false in both records here, so plain equality
    // compares only the measured numbers.
    record.deterministic = first.fingerprint == second.fingerprint && record == second.record;
    record.outputs_match_single = match (&single, &sharded) {
        (Some(a), Some(b)) => a == b && !a.is_empty(),
        _ => false,
    };
    record
}

impl ShardedRecord {
    /// Serializes the point as one record of [`SCHEMA`].
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("devices", Json::from(self.devices as u64));
        o.set("offered_rps", Json::Num(self.offered_rps));
        o.set("completed", Json::from(self.completed));
        o.set("shed", Json::from(self.shed));
        o.set("goodput_rps", Json::Num(self.goodput_rps));
        o.set("mean_batch", Json::Num(self.mean_batch));
        o.set("warm_hit_rate", Json::Num(self.warm_hit_rate));
        o.set("script_hits", Json::from(self.script_hits));
        o.set("script_misses", Json::from(self.script_misses));
        o.set("script_re_misses", Json::from(self.script_re_misses));
        o.set("routed", Json::from(self.routed));
        o.set("placements", Json::from(self.placements));
        o.set("affinity_hits", Json::from(self.affinity_hits));
        o.set("steals", Json::from(self.steals));
        o.set(
            "per_device_util",
            Json::Arr(self.per_device_util.iter().map(|&u| Json::Num(u)).collect()),
        );
        o.set(
            "per_device_batches",
            Json::Arr(
                self.per_device_batches
                    .iter()
                    .map(|&b| Json::from(b))
                    .collect(),
            ),
        );
        o.set("deterministic", Json::from(self.deterministic));
        o.set(
            "outputs_match_single",
            Json::from(self.outputs_match_single),
        );
        o
    }
}
