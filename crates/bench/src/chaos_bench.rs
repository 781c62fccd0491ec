//! Chaos benchmark: goodput and recovery cost under swept fault rates.
//!
//! A [`ChaosScenario`] replays the *same* seeded serving trace (the
//! Tree-LSTM workload from [`crate::serve_bench`]) at a ladder of fault
//! rates, producing one [`ChaosRecord`] per rate: serving goodput, faults
//! injected by kind, and the handle-level recovery activity (retries,
//! backoff time, fallbacks, quarantines). The summary is the versioned
//! `BENCH_chaos.json` document, like the other bench trajectories.
//!
//! Two invariants are *checked while benchmarking* and recorded in the
//! document, so the schema's fact list only needs to read flags:
//!
//! * `zero_rate_identical` — the rate-0 row is executed twice, once with the
//!   injector armed at rate 0 and once with it disabled, and the serialized
//!   serving records must be byte-identical (an armed-but-silent injector
//!   perturbs nothing).
//! * `same_seed_identical` — the whole sweep is executed twice in-process
//!   and the two summaries must serialize byte-identically (faults and
//!   recovery are exactly reproducible).

use vpps::{FaultConfig, FaultKind, RecoveryStats};
use vpps_obs::Json;
use vpps_serve::ServeRecord;

use crate::serve_bench::{record_of, run_scenario_server, ServeScenario, REPORT};
use crate::trajectory::{num, records, uint, Facts, Schema, Ty};

/// `BENCH_chaos.json`: one [`ChaosRecord`] per swept fault rate, under the
/// sweep's two determinism flags. v2 dropped the transition count of the
/// per-model shedding gate the server no longer has.
pub static SCHEMA: Schema = Schema {
    name: "vpps-chaos-trajectory",
    version: 2,
    header: &[
        ("zero_rate_identical", Ty::Bool),
        ("same_seed_identical", Ty::Bool),
    ],
    record: &[
        ("rate", Ty::F64),
        ("label", Ty::Str),
        ("backend", Ty::Str),
        ("offered_rps", Ty::F64),
        ("report", Ty::Obj(REPORT)),
        (
            "faults",
            Ty::Tally(|| {
                let kinds = FaultKind::ALL.iter().map(|k| k.name());
                kinds.chain(["total"]).collect()
            }),
        ),
        (
            "recovery",
            Ty::Obj(&[
                ("retries", Ty::U64),
                ("backoff_us", Ty::F64),
                ("watchdog_timeouts", Ty::U64),
                ("backend_fallbacks", Ty::U64),
                ("baseline_fallbacks", Ty::U64),
                ("quarantines", Ty::U64),
                ("rejits", Ty::U64),
                ("jit_retries", Ty::U64),
                ("rollbacks", Ty::U64),
            ]),
        ),
        ("batch_failures", Ty::U64),
    ],
    facts,
};

fn facts(doc: &Json) -> Vec<String> {
    let mut f = Facts::default();
    f.all_true(doc, &["zero_rate_identical", "same_seed_identical"]);
    // The injector must be silent at rate 0; above it, it must fire and the
    // recovery layer must answer.
    let sum = |path: &str, zero_rate: bool| -> u64 {
        let rows = records(doc).iter();
        rows.filter(|r| (num(r, "rate") == 0.0) == zero_rate)
            .map(|r| uint(r, path))
            .sum()
    };
    let (silent, injected) = (sum("faults.total", true), sum("faults.total", false));
    f.require(silent == 0, || {
        format!("faults.total is {silent} on the rate-0 rows")
    });
    f.require(injected > 0, || {
        "faults.total is 0 off the rate-0 rows: nothing was injected".to_owned()
    });
    f.require(sum("recovery.retries", false) > 0, || {
        "recovery.retries is 0 off the rate-0 rows: recovery never ran".to_owned()
    });
    f.failed
}

/// One chaos experiment: a serving trace swept over fault rates.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Requests per sweep point.
    pub requests: usize,
    /// Seed for both the request trace and the fault streams.
    pub seed: u64,
    /// Open-loop offered load, requests per simulated second.
    pub rate_rps: f64,
    /// Maximum batch size.
    pub max_batch: usize,
    /// Hidden dimension of the workload model.
    pub hidden: usize,
    /// Uniform per-kind fault rates to sweep (`0.0` rows double as the
    /// armed-vs-disabled bit-identity check).
    pub rates: Vec<f64>,
    /// Execution backend for the warm handles (the top of the ladder).
    pub backend: vpps::BackendKind,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        Self {
            requests: 120,
            seed: 42,
            rate_rps: 50_000.0,
            max_batch: 8,
            hidden: 32,
            rates: vec![0.0, 0.02, 0.05, 0.10],
            backend: vpps::BackendKind::default(),
        }
    }
}

/// One sweep point: the serving record plus fault/recovery accounting.
#[derive(Debug, Clone)]
pub struct ChaosRecord {
    /// Uniform fault rate of this point.
    pub rate: f64,
    /// The serving-side numbers (goodput, latency, shed reasons).
    pub record: ServeRecord,
    /// Faults injected, by [`FaultKind::name`], in [`FaultKind::ALL`] order.
    pub faults: Vec<(String, u64)>,
    /// Total faults injected.
    pub faults_total: u64,
    /// Handle-level recovery activity.
    pub recovery: RecoveryStats,
    /// Batches whose dispatch returned a typed error to the server.
    pub batch_failures: u64,
}

/// A full sweep plus its self-checked invariants.
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// One record per swept rate, in scenario order.
    pub records: Vec<ChaosRecord>,
    /// `true` iff every rate-0 row was byte-identical to a disabled-injector
    /// run of the same trace.
    pub zero_rate_identical: bool,
    /// `true` iff re-running the whole sweep reproduced the summary
    /// byte-for-byte (filled by [`run_chaos`]).
    pub same_seed_identical: bool,
}

fn serve_scenario(sc: &ChaosScenario, rate: f64, faults: FaultConfig) -> ServeScenario {
    ServeScenario {
        label: format!("chaos-rate-{rate}"),
        requests: sc.requests,
        seed: sc.seed,
        rate_rps: sc.rate_rps,
        max_batch: sc.max_batch,
        hidden: sc.hidden,
        faults,
        backend: sc.backend,
        ..ServeScenario::default()
    }
}

fn run_point(sc: &ChaosScenario, rate: f64, faults: FaultConfig) -> ChaosRecord {
    let ssc = serve_scenario(sc, rate, faults);
    let (server, mid, offered_rps) = run_scenario_server(&ssc);
    let record = record_of(&ssc, &server, offered_rps);
    // The chaos sweep runs one device, so device 0 is the whole fleet.
    let faults: Vec<(String, u64)> = FaultKind::ALL
        .iter()
        .map(|&k| {
            (
                k.name().to_owned(),
                server.fault_profile_on(mid, 0).map_or(0, |p| p.injected(k)),
            )
        })
        .collect();
    let faults_total = faults.iter().map(|&(_, n)| n).sum();
    ChaosRecord {
        rate,
        record,
        faults,
        faults_total,
        recovery: server.recovery_stats(mid),
        batch_failures: server.batch_failures(),
    }
}

fn run_sweep(sc: &ChaosScenario) -> (Vec<ChaosRecord>, bool) {
    let mut records = Vec::new();
    let mut zero_rate_identical = true;
    for &rate in &sc.rates {
        let armed = run_point(sc, rate, FaultConfig::uniform(sc.seed, rate));
        if rate == 0.0 {
            // The armed-but-silent injector must not perturb the serving
            // results at all: compare the serialized records byte-for-byte
            // against a disabled-injector run of the same trace.
            let disabled = run_point(sc, rate, FaultConfig::disabled());
            zero_rate_identical &= armed.faults_total == 0
                && armed.record.to_json().to_string() == disabled.record.to_json().to_string();
        }
        records.push(armed);
    }
    (records, zero_rate_identical)
}

/// Runs the sweep — twice, to self-check reproducibility — and returns the
/// summary with both invariant flags filled in.
pub fn run_chaos(sc: &ChaosScenario) -> ChaosSummary {
    let (records, zero_rate_identical) = run_sweep(sc);
    let first = ChaosSummary {
        records,
        zero_rate_identical,
        same_seed_identical: true,
    };
    let (again, zero_again) = run_sweep(sc);
    let second = ChaosSummary {
        records: again,
        zero_rate_identical: zero_again,
        same_seed_identical: true,
    };
    let identical = document("chaos", &first) == document("chaos", &second);
    ChaosSummary {
        same_seed_identical: identical,
        ..first
    }
}

impl ChaosRecord {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("rate", Json::Num(self.rate));
        o.set("label", Json::from(self.record.label.as_str()));
        o.set("backend", Json::from(self.record.backend.as_str()));
        o.set("offered_rps", Json::Num(self.record.offered_rps));
        o.set("report", self.record.report.to_json());
        let mut faults = Json::obj();
        for (kind, n) in &self.faults {
            faults.set(kind, Json::from(*n));
        }
        faults.set("total", Json::from(self.faults_total));
        o.set("faults", faults);
        let r = &self.recovery;
        let mut rec = Json::obj();
        rec.set("retries", Json::from(r.retries));
        rec.set("backoff_us", Json::Num(r.backoff.as_ns() / 1e3));
        rec.set("watchdog_timeouts", Json::from(r.watchdog_timeouts));
        rec.set("backend_fallbacks", Json::from(r.backend_fallbacks));
        rec.set("baseline_fallbacks", Json::from(r.baseline_fallbacks));
        rec.set("quarantines", Json::from(r.quarantines));
        rec.set("rejits", Json::from(r.rejits));
        rec.set("jit_retries", Json::from(r.jit_retries));
        rec.set("rollbacks", Json::from(r.rollbacks));
        o.set("recovery", rec);
        o.set("batch_failures", Json::from(self.batch_failures));
        o
    }
}

/// Serializes a chaos summary into its [`SCHEMA`] document.
pub fn document(experiment: &str, summary: &ChaosSummary) -> String {
    let header = [
        ("zero_rate_identical", summary.zero_rate_identical.into()),
        ("same_seed_identical", summary.same_seed_identical.into()),
    ];
    let records = summary.records.iter().map(ChaosRecord::to_json).collect();
    SCHEMA.document(experiment, &header, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded facts (silent at rate 0, injected + retried above it,
    /// reproducible) are checked with every schema's in `trajectory::tests`.
    #[test]
    fn faults_cost_latency_not_completions() {
        let summary = run_chaos(&ChaosScenario {
            requests: 24,
            rates: vec![0.0, 0.1],
            ..ChaosScenario::default()
        });
        let [clean, faulty] = &summary.records[..] else {
            panic!("one record per rate");
        };
        assert!(faulty.faults_total > 0 && faulty.recovery.retries > 0);
        // The ladder absorbs every device fault: everything still completes.
        let (clean, faulty) = (&clean.record.report, &faulty.record.report);
        assert_eq!(faulty.completed, faulty.offered);
        assert!(
            faulty.e2e.p99_us >= clean.e2e.p99_us,
            "recovery work cannot make the tail faster: {} vs {}",
            faulty.e2e.p99_us,
            clean.e2e.p99_us
        );
    }
}
