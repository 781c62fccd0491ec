//! Invariants of the observability layer under real workloads:
//!
//! * per-traffic-class DRAM bytes always sum to the totals;
//! * all three execution backends report identical unified metrics *with
//!   instrumentation enabled* (the obs hooks must not perturb the analytic
//!   path);
//! * recorded span trees are well-nested with monotonic timestamps;
//! * a lowered run names the kernel tier it ran on, an interpreted run none;
//! * metric snapshots survive a JSON round-trip through their versioned
//!   schema;
//! * the registered metric names and recorded span names are the catalogue
//!   DESIGN.md §5c documents, in both directions.
//!
//! Reuses the random-graph generators shared with the backend-equivalence
//! and reference-agreement suites. Tests that enable the global obs flag
//! take [`obs_lock`] and filter spans by their own thread's track, so
//! parallel test threads do not interfere.

use dyn_graph::Model;
use gpu_sim::{GpuSim, Metrics, TrafficTag};
use proptest::prelude::*;
use vpps::engine;
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, TableLayout};
use vpps::{BackendKind, KernelPlan};
use vpps_obs::HistogramSnapshot;

#[path = "support/graphgen.rs"]
mod graphgen;
use graphgen::{arb_recipe, build_from_recipe, small_device, GraphRecipe, DIM};

/// The model every recipe of this suite is built over.
fn test_model() -> Model {
    let mut model = Model::new(987);
    model.add_matrix("W1", DIM, DIM);
    model.add_matrix("W2", DIM, DIM);
    model.add_bias("b", DIM);
    model
}

/// Runs one recipe end-to-end on one backend with a fresh model, pool and
/// device, returning the batch metrics and what the run posts to the
/// `engine.instr.*` / `engine.barriers` counters.
fn run_on_backend(recipe: &GraphRecipe, kind: BackendKind) -> (Metrics, InstrCounts) {
    let mut model = test_model();
    let (g, loss) = build_from_recipe(&model, recipe);

    let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
    let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
    let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    for (id, node) in g.iter() {
        if let dyn_graph::Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
    let mut gpu = GpuSim::new(small_device());
    let cfg = ExecConfig {
        learning_rate: 0.05,
        weight_decay: 0.0,
        apply_update: true,
    };
    let session = kind.backend().prepare(&plan, &gs, cfg, gpu.cost_model());
    let posted = (session.timeline.instr_mix.clone(), gs.num_barriers);
    let run = engine::run_prepared(kind.backend(), &session, &mut pool, &mut model, &mut gpu);
    (run.metrics, posted)
}

/// Per-mnemonic executed-instruction counts plus the barrier count.
type InstrCounts = (Vec<(&'static str, u64)>, u32);

/// Serializes the tests that flip the process-wide obs flag: one switching
/// it off must not cut short what another records or counts. Poisoning is
/// ignored: a failed test must not cascade.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_dram_sums(metrics: &Metrics) {
    let load_sum: u64 = TrafficTag::ALL.iter().map(|&t| metrics.dram.loads(t)).sum();
    let store_sum: u64 = TrafficTag::ALL
        .iter()
        .map(|&t| metrics.dram.stores(t))
        .sum();
    assert_eq!(load_sum, metrics.dram.total_loads(), "load classes sum");
    assert_eq!(store_sum, metrics.dram.total_stores(), "store classes sum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-class DRAM bytes sum to the totals on any random graph.
    #[test]
    fn dram_classes_sum_to_totals(recipe in arb_recipe()) {
        let (metrics, _) = run_on_backend(&recipe, BackendKind::EventInterp);
        assert_dram_sums(&metrics);
        prop_assert!(metrics.dram.total_loads() > 0, "a batch always loads weights");
    }

    /// With instrumentation ON, the lowered backend still reports unified
    /// metrics identical to the reference interpreter's — the obs hooks sit
    /// outside the analytic path.
    #[test]
    fn backends_report_identical_metrics_under_instrumentation(recipe in arb_recipe()) {
        let _obs = obs_lock();
        vpps_obs::set_enabled(true);
        let (reference, reference_instrs) = run_on_backend(&recipe, BackendKind::EventInterp);
        let (metrics, instrs) = run_on_backend(&recipe, BackendKind::Lowered);
        vpps_obs::set_enabled(false);
        prop_assert!(!instrs.0.is_empty(), "a batch executes instructions");
        prop_assert_eq!(instrs, reference_instrs, "executed-instruction counters");
        for &tag in &TrafficTag::ALL {
            prop_assert_eq!(metrics.dram.loads(tag), reference.dram.loads(tag), "loads[{:?}]", tag);
            prop_assert_eq!(
                metrics.dram.stores(tag), reference.dram.stores(tag),
                "stores[{:?}]", tag
            );
        }
        prop_assert_eq!(metrics.launches, reference.launches);
        prop_assert_eq!(
            metrics.kernel_time.as_ns().to_bits(),
            reference.kernel_time.as_ns().to_bits(),
            "kernel_time"
        );
        prop_assert_eq!(
            metrics.barrier_stall.as_ns().to_bits(),
            reference.barrier_stall.as_ns().to_bits(),
            "barrier_stall"
        );
        assert_dram_sums(&metrics);
    }

    /// A metric snapshot built from arbitrary contents survives the JSON
    /// round-trip through its versioned schema.
    #[test]
    fn snapshot_round_trips(
        counters in prop::collection::vec(0u64..(1 << 53), 0..6),
        gauges in prop::collection::vec(any::<f64>(), 0..6),
        hists in prop::collection::vec(
            (prop::collection::vec(0u64..(1 << 53), 1..40), 0u64..(1 << 53)),
            0..4,
        ),
    ) {
        // Counts stay below 2^53: the snapshot format stores numbers as
        // JSON doubles, so only that range round-trips exactly (real
        // registry counts never approach it). NaN/Inf gauges likewise
        // cannot round-trip (no JSON literals for them); the registry
        // never produces them from counters/times, so map them out.
        let mut snap = vpps_obs::Snapshot::default();
        for (i, v) in counters.into_iter().enumerate() {
            snap.counters.insert(format!("test.counter.{i}"), v);
        }
        for (i, v) in gauges.into_iter().enumerate() {
            let v = if v.is_finite() { v } else { 0.0 };
            snap.gauges.insert(format!("test.gauge.{i}"), v);
        }
        for (i, (buckets, sum)) in hists.into_iter().enumerate() {
            snap.histograms
                .insert(format!("test.hist.{i}"), HistogramSnapshot { buckets, sum });
        }
        snap.set_extra("experiment", vpps_obs::Json::from("prop"));
        let back = vpps_obs::Snapshot::parse(&snap.to_json());
        prop_assert_eq!(back.as_ref(), Ok(&snap));
    }
}

/// Spans recorded while driving a real batch are well-nested per track and
/// carry monotonic timestamps.
#[test]
fn span_trees_are_well_nested_and_monotonic() {
    let _obs = obs_lock();
    vpps_obs::set_enabled(true);
    let track = vpps_obs::current_track();
    let recipe = GraphRecipe {
        ops: vec![0, 3, 1, 6, 4, 7, 2],
        picks: vec![7; 30],
        label: 1,
    };
    run_on_backend(&recipe, BackendKind::EventInterp);
    vpps_obs::set_enabled(false);

    let mine: Vec<vpps_obs::SpanEvent> = vpps_obs::snapshot_spans()
        .into_iter()
        .filter(|e| e.track == track)
        .collect();
    assert!(
        mine.iter().any(|e| e.name == "engine.prepare"),
        "engine spans recorded"
    );
    assert!(
        mine.iter().any(|e| e.name == "script.generate"),
        "script spans recorded"
    );

    for e in &mine {
        assert!(e.end_ns() >= e.start_ns, "span {e:?} runs backwards");
    }
    // Well-nested: any two spans on one track either nest or are disjoint,
    // and true containment implies greater depth.
    for (i, a) in mine.iter().enumerate() {
        for b in mine.iter().skip(i + 1) {
            let disjoint = a.end_ns() <= b.start_ns || b.end_ns() <= a.start_ns;
            let a_in_b = b.start_ns <= a.start_ns && a.end_ns() <= b.end_ns();
            let b_in_a = a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns();
            assert!(
                disjoint || a_in_b || b_in_a,
                "spans {a:?} and {b:?} partially overlap"
            );
            if a_in_b && a.start_ns > b.start_ns && a.end_ns() < b.end_ns() {
                assert!(
                    a.depth > b.depth,
                    "contained span {a:?} not deeper than {b:?}"
                );
            }
            if b_in_a && b.start_ns > a.start_ns && b.end_ns() < a.end_ns() {
                assert!(
                    b.depth > a.depth,
                    "contained span {b:?} not deeper than {a:?}"
                );
            }
        }
    }
}

/// The Chrome exporter renders those same spans as a trace that validates.
#[test]
fn host_spans_export_as_valid_chrome_trace() {
    let _obs = obs_lock();
    vpps_obs::set_enabled(true);
    let track = vpps_obs::current_track();
    let recipe = GraphRecipe {
        ops: vec![0, 1, 2, 3],
        picks: vec![3; 30],
        label: 0,
    };
    run_on_backend(&recipe, BackendKind::EventInterp);
    vpps_obs::set_enabled(false);

    let mine: Vec<vpps_obs::SpanEvent> = vpps_obs::snapshot_spans()
        .into_iter()
        .filter(|e| e.track == track)
        .collect();
    assert!(!mine.is_empty());
    let mut chrome = vpps_obs::ChromeTrace::new();
    chrome.add_host_spans(0, &mine);
    let json = chrome.to_json();
    assert_eq!(
        vpps_obs::validate_chrome_trace(&json).expect("valid chrome trace"),
        mine.len()
    );
}

/// A lowered run counts itself under the kernel tier the host dispatched to —
/// one `engine.kernels.*` name, in step with `engine.batches.lowered` — and an
/// interpreted run, which never enters the blocked kernels, under none.
#[test]
fn lowered_runs_name_their_kernel_tier() {
    let _obs = obs_lock();
    let recipe = GraphRecipe {
        ops: vec![0, 3, 1, 6, 2],
        picks: vec![5; 30],
        label: 1,
    };
    let counted_tiers = || -> Vec<(String, u64)> {
        vpps_obs::registry_snapshot()
            .into_iter()
            .filter_map(|(name, value)| match value {
                vpps_obs::MetricValue::Counter(n) if n > 0 => Some((name, n)),
                _ => None,
            })
            .filter(|(name, _)| name.starts_with("engine.kernels."))
            .collect()
    };
    vpps_obs::reset_metrics();
    vpps_obs::set_enabled(true);
    run_on_backend(&recipe, BackendKind::EventInterp);
    let after_interp = counted_tiers();
    run_on_backend(&recipe, BackendKind::Lowered);
    run_on_backend(&recipe, BackendKind::Lowered);
    vpps_obs::set_enabled(false);

    assert_eq!(after_interp, Vec::new(), "the interpreter names no tier");
    let batches = vpps_obs::counter("engine.batches.lowered").get();
    assert_eq!(batches, 2);
    let tier = format!("engine.kernels.{}", vpps::exec::kernels::tier());
    assert_eq!(counted_tiers(), vec![(tier, batches)]);
}

/// Timing the lowered sweep per op class changes no output: the same
/// training and inference calls give the same loss, output and parameter
/// bits with obs on (every lowered sweep timed) as with obs off, and the
/// timed sweeps count host time under the mnemonics of the ops they ran.
/// Of the four sweeps, the prologue copies parameters in three: the first,
/// and each one after a training step changed them; the second training
/// step follows an inference, which changed nothing.
#[test]
fn op_class_timing_changes_no_output() {
    use vpps::{Handle, RpwMode, VppsOptions};

    let _obs = obs_lock();
    let recipe = GraphRecipe {
        ops: vec![0, 3, 1, 4, 2, 6, 7],
        picks: vec![5; 30],
        label: 1,
    };
    let run = |observed: bool| -> Vec<u32> {
        let mut model = test_model();
        let opts = VppsOptions {
            rpw: RpwMode::Fixed(1),
            pool_capacity: 1 << 18,
            backend: BackendKind::Lowered,
            ..VppsOptions::default()
        };
        let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
        let (g, loss) = build_from_recipe(&model, &recipe);
        vpps_obs::set_enabled(observed);
        let mut out = Vec::new();
        for _ in 0..2 {
            handle.fb(&mut model, &g, loss);
            out.push(handle.sync_get_latest_loss());
            out.extend(handle.infer(&mut model, &g, loss));
        }
        vpps_obs::set_enabled(false);
        out.extend(
            model
                .params()
                .flat_map(|(_, p)| p.value.as_slice().to_vec()),
        );
        out.iter().map(|v| v.to_bits()).collect()
    };
    vpps_obs::reset_metrics();
    let plain = run(false);
    let timed = run(true);
    assert_eq!(
        timed, plain,
        "obs on changed a loss, output or parameter bit"
    );
    let timed_classes: Vec<String> = vpps_obs::registry_snapshot()
        .into_iter()
        .filter_map(|(name, value)| match value {
            vpps_obs::MetricValue::Counter(n) if n > 0 => {
                name.strip_prefix("engine.op_ns.").map(str::to_owned)
            }
            _ => None,
        })
        .collect();
    for class in ["matvec", "tmatvec", "outer", "tanh", "sigmoid", "pick_nls"] {
        assert!(
            timed_classes.iter().any(|c| c == class),
            "no engine.op_ns.{class} among {timed_classes:?}"
        );
    }
    assert_eq!(vpps_obs::counter("engine.batches.lowered").get(), 4);
    assert_eq!(vpps_obs::counter("engine.prologue.loads").get(), 3);
}

/// One §5c table row's name, `{a,b}` groups already expanded: its segments
/// (`<…>` is a placeholder for any one dot-free segment), the metric kind
/// (empty for a span) and whether only a `PlanCache` user registers it.
struct CatalogueEntry {
    pattern: String,
    kind: String,
    needs_plan_cache: bool,
}

impl CatalogueEntry {
    fn matches(&self, name: &str) -> bool {
        let want: Vec<&str> = self.pattern.split('.').collect();
        let have: Vec<&str> = name.split('.').collect();
        want.len() == have.len()
            && want
                .iter()
                .zip(&have)
                .all(|(w, h)| w == h || (w.starts_with('<') && !h.is_empty()))
    }
}

/// Every spelling of `name` with its first `{a,b,…}` group (and then the
/// rest) expanded.
fn expand_braces(name: &str) -> Vec<String> {
    let Some((head, rest)) = name.split_once('{') else {
        return vec![name.to_owned()];
    };
    let (alternatives, tail) = rest.split_once('}').expect("closed brace group");
    alternatives
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The span table and the metric table of DESIGN.md §5c, as `(spans,
/// metrics)`: every back-ticked name in a row's first cell is an entry.
fn design_catalogue() -> (Vec<CatalogueEntry>, Vec<CatalogueEntry>) {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("5c. Observability"))
        .expect("DESIGN.md has a §5c");
    let (mut spans, mut metrics) = (Vec::new(), Vec::new());
    let mut table = "";
    for row in section.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        if matches!(cells[0], "Span" | "Metric") {
            table = cells[0];
            continue;
        }
        let into = match table {
            "Span" => &mut spans,
            "Metric" => &mut metrics,
            other => panic!("§5c row {row:?} under unknown table {other:?}"),
        };
        // Odd pieces of a split on '`' are the code spans.
        for name in cells[0].split('`').skip(1).step_by(2) {
            into.extend(
                expand_braces(name)
                    .into_iter()
                    .map(|pattern| CatalogueEntry {
                        pattern,
                        kind: if table == "Metric" {
                            cells[1].to_owned()
                        } else {
                            String::new()
                        },
                        needs_plan_cache: row.contains("`PlanCache`"),
                    }),
            );
        }
    }
    (spans, metrics)
}

/// DESIGN.md §5c is the catalogue of what the process registers: after a
/// training batch on every backend, a batch that walks the whole recovery
/// ladder, a traced two-device serve run through injected faults and a
/// device crash, and a serve run whose pool is too small for its graphs
/// (so batches fail and their members retry as singletons), every
/// registered metric and every recorded span is a row of the tables —
/// under the documented kind — and every row that names one metric
/// outright was registered.
#[test]
fn registered_names_are_the_design_catalogue() {
    use gpu_sim::SimTime;
    use vpps::{FaultConfig, Handle, RpwMode, VppsOptions};
    use vpps_bench::{run_scenario_server, ServeScenario};
    use vpps_serve::{Request, RequestKind, ServeConfig, Server, TenantId};

    let _obs = obs_lock();
    vpps_obs::clear_spans();
    vpps_obs::set_enabled(true);
    let recipe = GraphRecipe {
        ops: vec![0, 3, 1, 6, 2],
        picks: vec![5; 30],
        label: 1,
    };
    // Every run of the third handle is corrupted, so every attempt of its
    // batches is rolled back: the third fault quarantines the plan, the
    // ladder degrades down to the baseline, and the second batch re-lowers
    // what the quarantine evicted.
    let always_failing = FaultConfig::parse("seed=1,dram=1").expect("valid spec");
    for (backend, faults) in [
        (BackendKind::EventInterp, FaultConfig::disabled()),
        (BackendKind::Lowered, FaultConfig::disabled()),
        (BackendKind::Lowered, always_failing),
    ] {
        let mut model = test_model();
        let opts = VppsOptions {
            rpw: RpwMode::Fixed(1),
            pool_capacity: 1 << 18,
            backend,
            faults,
            ..VppsOptions::default()
        };
        let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
        let (g, loss) = build_from_recipe(&model, &recipe);
        for _ in 0..2 {
            handle.fb(&mut model, &g, loss);
        }
    }
    let faults = FaultConfig::parse(
        "seed=5,transfer=0.3,launch=0.3,hang=0.3,dram=0.3,outage=1@1500..3000:crash",
    )
    .expect("valid spec");
    let (server, _, _) = run_scenario_server(&ServeScenario {
        requests: 240,
        devices: 2,
        hidden: 24,
        train_fraction: 0.2,
        queue_capacity: 24,
        backend: BackendKind::Lowered,
        faults,
        trace_sample: Some(1),
        ..ServeScenario::default()
    });
    assert_eq!(server.outcomes().len(), 240, "every request resolved");
    let model = test_model();
    let mut cfg = ServeConfig {
        device: small_device(),
        ..ServeConfig::default()
    };
    cfg.opts.pool_capacity = 64;
    let mut server = Server::new(cfg);
    let mid = server.register_model("tiny", model.clone()).expect("fits");
    for at in 0..4 {
        let (graph, root) = build_from_recipe(&model, &recipe);
        server.submit(Request {
            tenant: TenantId(0),
            model: mid,
            kind: RequestKind::Infer,
            graph,
            root,
            arrival: SimTime::from_us(f64::from(at)),
            deadline: None,
        });
    }
    server.drain();
    vpps_obs::set_enabled(false);
    assert!(server.batch_failures() > 0, "the pool fits no batch");

    let (spans, metrics) = design_catalogue();
    let registry = vpps_obs::registry_snapshot();
    let mut problems = Vec::new();
    for (name, value) in &registry {
        let kind = match value {
            vpps_obs::MetricValue::Counter(_) => "counter",
            vpps_obs::MetricValue::Gauge(_) => "gauge",
            vpps_obs::MetricValue::Histogram(_) => "histogram",
        };
        match metrics.iter().find(|e| e.matches(name)) {
            None => problems.push(format!("metric {name} is registered but not in §5c")),
            Some(e) if e.kind != kind => {
                problems.push(format!("{name} is a {kind}, §5c says {}", e.kind));
            }
            Some(_) => {}
        }
    }
    for event in vpps_obs::snapshot_spans() {
        if !spans.iter().any(|e| e.matches(event.name)) {
            problems.push(format!("span {} is recorded but not in §5c", event.name));
        }
    }
    for entry in &metrics {
        let literal = !entry.pattern.contains('<');
        if literal && !entry.needs_plan_cache && !registry.iter().any(|(n, _)| *n == entry.pattern)
        {
            problems.push(format!(
                "§5c lists {}, which nothing registered",
                entry.pattern
            ));
        }
    }
    problems.sort();
    problems.dedup();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
