//! Invariants of the per-request tracing layer under randomized traffic:
//!
//! * **exact tiling** — every traced request's phase spans chain with
//!   bit-equal boundaries from admission to resolution, and the phase
//!   durations sum to the end-to-end virtual-clock latency with zero error
//!   in exact expansion arithmetic, on any device count;
//! * **one terminal per request** — the trace's completed/dropped id sets
//!   equal the outcome stream's, so no admitted request ever vanishes from
//!   (or is double-counted by) the attribution, even when batches fail
//!   into the serving-side singleton split and retry budget;
//! * **deterministic sampling** — `trace_sample = n` traces exactly the
//!   request ids divisible by `n`, nothing else;
//! * **byte-identical reruns** — the same seed produces a byte-identical
//!   `BENCH_serve_trace.json` summary, run to run.
//!
//! The traffic generator is the bench harness's [`ServeScenario`], so these
//! invariants cover the exact code path `repro serve-trace` measures; the
//! failing runs serve its workload from a memory pool too small for some of
//! its graphs.

use std::collections::BTreeSet;

use gpu_sim::SimTime;
use proptest::prelude::*;
use vpps_bench::{run_scenario_server, ServeScenario, ServeWorkload};
use vpps_obs::{Resolution, TraceAnalysis};
use vpps_serve::{Outcome, Request, RequestKind, ServeConfig, Server, TenantId};

/// A randomized scenario with tracing armed for every request. Dimensions
/// are scaled down (and `hidden` shrunk) so a proptest case stays cheap.
fn arb_scenario() -> impl Strategy<Value = ServeScenario> {
    let shape = (6usize..48, 1u32..5, 1usize..8, 20u32..400);
    let admission = (
        4usize..64,
        2usize..32,
        prop_oneof![Just(0u32), 200u32..5_000],
    );
    (
        any::<u64>(),
        shape,
        admission,
        0u8..4,
        prop_oneof![Just(0usize), 4usize..24],
        10u32..200,
    )
        .prop_map(
            |(
                seed,
                (requests, tenants, max_batch, linger_us),
                (queue_capacity, tenant_quota, deadline_us),
                train,
                sample_pool,
                rate_krps,
            )| {
                ServeScenario {
                    label: "trace-invariants".to_owned(),
                    requests,
                    seed,
                    tenants,
                    rate_rps: f64::from(rate_krps) * 1_000.0,
                    train_fraction: f64::from(train) * 0.1,
                    deadline_us: (deadline_us > 0).then(|| f64::from(deadline_us)),
                    max_batch,
                    linger_us: f64::from(linger_us),
                    queue_capacity,
                    tenant_quota,
                    sample_pool,
                    hidden: 24,
                    trace_sample: Some(1),
                    ..ServeScenario::default()
                }
            },
        )
}

/// Runs a scenario on `devices`, returning the trace analysis plus the
/// outcome stream's completed/dropped id sets.
fn run_traced(sc: &ServeScenario, devices: usize) -> (TraceAnalysis, BTreeSet<u64>, BTreeSet<u64>) {
    let mut sc = sc.clone();
    sc.devices = devices;
    // The host-span ring is process-global: start clean so dropped-span
    // accounting reflects this run alone.
    vpps_obs::clear_spans();
    let (server, _mid, _offered) = run_scenario_server(&sc);
    analyzed(server)
}

/// The trace analysis of a drained, traced server, plus the outcome
/// stream's completed/dropped id sets.
fn analyzed(mut server: Server) -> (TraceAnalysis, BTreeSet<u64>, BTreeSet<u64>) {
    let sink = server.take_trace().expect("scenario arms tracing");
    let mut completed = BTreeSet::new();
    let mut dropped = BTreeSet::new();
    for o in server.outcomes() {
        match o {
            Outcome::Completed(c) => completed.insert(c.id.0),
            Outcome::Shed(s) => dropped.insert(s.id.0),
        };
    }
    (TraceAnalysis::analyze(&sink), completed, dropped)
}

/// Splits an analysis's timelines into (completed, dropped) id sets, where
/// retry-budget failures count as drops — matching the outcome stream,
/// which records them as sheds.
fn terminal_sets(analysis: &TraceAnalysis) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let mut completed = BTreeSet::new();
    let mut dropped = BTreeSet::new();
    for t in &analysis.timelines {
        match t.resolution {
            Resolution::Completed => completed.insert(t.req),
            Resolution::Shed | Resolution::Failed => dropped.insert(t.req),
        };
    }
    (completed, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On any device count, every traced request's spans tile its latency
    /// exactly — bit-equal boundaries from arrival to resolution, so the
    /// durations telescope — and the trace's terminal verdicts match the
    /// outcome stream one-for-one.
    #[test]
    fn phase_spans_tile_latency_exactly(sc in arb_scenario(), devices in 1usize..5) {
        let (analysis, out_completed, out_dropped) = run_traced(&sc, devices);
        prop_assert!(analysis.errors.is_empty(), "analyzer errors: {:?}", analysis.errors);
        prop_assert_eq!(analysis.events_dropped, 0, "trace ring dropped events");
        prop_assert_eq!(analysis.timelines.len(), sc.requests,
            "sample 1/1 must trace every request");
        for t in &analysis.timelines {
            if let Err(e) = t.check_tiling() {
                prop_assert!(false, "tiling violated on {} devices: {e}", devices);
            }
        }
        let (tl_completed, tl_dropped) = terminal_sets(&analysis);
        prop_assert_eq!(tl_completed, out_completed, "completed sets diverge");
        prop_assert_eq!(tl_dropped, out_dropped, "dropped sets diverge");
    }

    /// `trace_sample = n` traces exactly the request ids divisible by `n`:
    /// deterministic, keyed on the id alone, independent of scheduling.
    #[test]
    fn sampling_traces_exactly_every_nth_id(sc in arb_scenario(), n in 1u64..6) {
        let mut sc = sc.clone();
        sc.trace_sample = Some(n);
        let (analysis, out_completed, out_dropped) = run_traced(&sc, 2);
        let expected: BTreeSet<u64> = out_completed
            .union(&out_dropped)
            .copied()
            .filter(|id| id.is_multiple_of(n))
            .collect();
        let traced: BTreeSet<u64> = analysis.timelines.iter().map(|t| t.req).collect();
        prop_assert_eq!(traced, expected, "sample 1/{} traced the wrong id set", n);
        prop_assert!(analysis.errors.is_empty(), "analyzer errors: {:?}", analysis.errors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// With deterministic faults armed (the handle's ladder absorbs them)
    /// and a memory pool of 20 000 elements — room for the resident tables
    /// and most single inference graphs, but not for the larger ones, most
    /// training graphs or batches of several — batches fail into the
    /// serving-side singleton split, and still every admitted request's
    /// trace ends in exactly one terminal span that agrees with the outcome
    /// stream, tiling intact.
    #[test]
    fn faulty_runs_still_terminate_every_trace(seed in any::<u64>(), devices in 1usize..4) {
        const REQUESTS: u64 = 48;
        vpps_obs::clear_spans();
        let workload = ServeWorkload::new(seed, 24);
        let mut cfg = ServeConfig::default();
        cfg.opts.pool_capacity = 20_000;
        cfg.opts.faults = vpps::FaultConfig {
            jit_failure: 0.0, // registration must succeed
            ..vpps::FaultConfig::uniform(seed ^ 0x0DD5EED, 0.1)
        };
        cfg.shard.devices = devices;
        let mut server = Server::new(cfg);
        server.enable_tracing(1 << 20, 1);
        let mid = server
            .register_model("tree-lstm", workload.model().clone())
            .expect("the workload model fits");
        for i in 0..REQUESTS {
            let (graph, root) = workload.request_graph(seed.wrapping_add(i % 16));
            server.submit(Request {
                tenant: TenantId((i % 4) as u32),
                model: mid,
                kind: if i % 5 == 0 { RequestKind::Train } else { RequestKind::Infer },
                graph,
                root,
                arrival: SimTime::from_us(20.0 * i as f64),
                deadline: None,
            });
        }
        server.drain();
        prop_assert!(server.batch_failures() > 0, "premise: batches fail");
        let (analysis, out_completed, out_dropped) = analyzed(server);
        prop_assert!(analysis.errors.is_empty(), "analyzer errors: {:?}", analysis.errors);
        prop_assert_eq!(analysis.timelines.len() as u64, REQUESTS,
            "every admitted request must have a timeline");
        for t in &analysis.timelines {
            if let Err(e) = t.check_tiling() {
                prop_assert!(false, "tiling violated under faults: {e}");
            }
        }
        let (tl_completed, tl_dropped) = terminal_sets(&analysis);
        prop_assert_eq!(tl_completed, out_completed, "completed sets diverge under faults");
        prop_assert_eq!(tl_dropped, out_dropped, "dropped sets diverge under faults");
    }
}

/// Same seed, same bytes: the summary `repro serve-trace` writes is a pure
/// function of the scenario. `trace_point` itself reruns the scenario and
/// byte-compares the records; on top of that, two independent `trace_point`
/// calls must serialize the whole summary document identically.
#[test]
fn same_seed_trace_summary_is_byte_identical() {
    let sc = ServeScenario {
        requests: 96,
        ..vpps_bench::trace_scenario(false)
    };
    let a = vpps_bench::trace_point(&sc, 2);
    assert!(
        a.deterministic,
        "rerun of the same seed produced different trace bytes"
    );
    let b = vpps_bench::trace_point(&sc, 2);
    let schema = &vpps_bench::trace_bench::SCHEMA;
    let (sa, sb) = (
        schema.document("serve_trace", &[], vec![a.to_json()]),
        schema.document("serve_trace", &[], vec![b.to_json()]),
    );
    assert_eq!(
        sa.as_bytes(),
        sb.as_bytes(),
        "summary JSON differs between identical runs"
    );
}
