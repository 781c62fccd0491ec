//! Properties of the script-lowering pass (`vpps::engine::lowered`).
//!
//! * **Determinism** — lowering is a pure function of `(plan, scripts)`:
//!   lowering the same recipe twice produces byte-identical micro-op arrays,
//!   cost tables and derived bounds. This is what makes the lowered-artifact
//!   cache sound (a hit is indistinguishable from re-lowering).
//! * **Stream shape** — the micro-op stream is exactly the timeline's
//!   compute-instruction order with sync compiled away: same length, same
//!   per-mnemonic counts as the script's static instruction mix.
//! * **Pinned stream** — the ops, their order, the patch points and the
//!   bounds lowering emits for three seeded real batches hash to digests
//!   recorded at an earlier commit.
//! * **Pinned keys** — `structural_hash` and `dispatch_key` of seeded
//!   graphs of every model, and of an absorbed serving super-graph, hash to
//!   a digest recorded at an earlier commit.
//! * **Caching** — `LoweredCache` returns the same `Arc` on a hit and never
//!   re-lowers a seen script (re-miss counter stays zero) unless it was
//!   evicted, by capacity or by plan quarantine, and both are counted.
//! * **One key** — requests that differ only in their literals get equal
//!   `GeneratedScript::key`s and lower to one artifact up to its patch
//!   points; every structural input of the generator is in the key.
//! * **Persistent arena** — a `Handle` keeping one register arena per plan
//!   between batches computes exactly what a fresh arena per call computes,
//!   across plan switches and through faulted attempts.
//! * **Resident parameters** — the arena's value half, which is copied only
//!   when the model's stamp changed, never serves stale values: after an
//!   external `param_mut`, a training step, on a clone and back, on both
//!   bit-exact backends, every call equals the same call on a fresh
//!   `Handle`.
//! * **Graph-keyed warm path** — a `Handle` whose cache finds a batch's
//!   artifact from the batch graph (no script generation) is
//!   indistinguishable, on both clocks' simulated side, from one that
//!   generates every batch.

use std::collections::BTreeMap;

use dyn_graph::{Graph, Model, NodeId, Op};
use gpu_sim::{FaultConfig, GpuSim};
use proptest::prelude::*;
use vpps::distribute::ChunkId;
use vpps::engine::lowered::{
    self, Lowered, LoweredCache, LoweredCacheStats, LoweredScript, MicroOp,
};
use vpps::engine::{self, Helpers, Session};
use vpps::exec::fallback::apply_gemm_fallback;
use vpps::exec::interp::ExecConfig;
use vpps::exec::kernels::MAX_BLOCK;
use vpps::exec::regcache::RegCache;
use vpps::script::{generate, generate_forward_only, SchedulePolicy, TableLayout};
use vpps::{BackendKind, Handle, KernelPlan, RpwMode, VppsOptions};

#[path = "support/graphgen.rs"]
mod graphgen;
use graphgen::{arb_recipe, build_from_recipe, grow_recipe, small_device, GraphRecipe, DIM};

fn test_model() -> Model {
    let mut model = Model::new(987);
    model.add_matrix("W1", DIM, DIM);
    model.add_matrix("W2", DIM, DIM);
    model.add_bias("b", DIM);
    model
}

/// Builds and lowers one recipe from scratch (fresh model, plan, pool): the
/// key the scripts were generated under, and the artifact.
fn lower_recipe(recipe: &GraphRecipe) -> (Box<[u32]>, LoweredScript) {
    let model = test_model();
    let (g, loss) = build_from_recipe(&model, recipe);
    let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
    let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
    let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    let gpu = GpuSim::new(small_device());
    let art = lowered::lower(&plan, &gs, gpu.cost_model());
    (gs.key, art)
}

const LEARNING_RATE: f32 = 0.05;

/// What `Handle::fb` / `infer` do per batch on the `Lowered` backend, rebuilt
/// from the engine's public entry points with `engine::run_prepared` — a
/// fresh register arena on every call — in place of the handle's persistent
/// per-plan arenas.
struct FreshArenaPipeline {
    plans: Vec<KernelPlan>,
    pool: vpps_tensor::Pool,
    tables: TableLayout,
    gpu: GpuSim,
    cache: LoweredCache,
}

impl FreshArenaPipeline {
    fn new(model: &Model) -> Self {
        let device = small_device();
        let plans = KernelPlan::candidate_rpws(model, &device)
            .into_iter()
            .map(|rpw| KernelPlan::build(model, &device, rpw).expect("tiny model fits"))
            .collect();
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(model, &mut pool).expect("pool big enough");
        Self {
            plans,
            pool,
            tables,
            gpu: GpuSim::new(device),
            cache: LoweredCache::default(),
        }
    }

    /// Runs one call on the plan with the given `rpw`; returns the loss
    /// (training) or `root`'s value (inference).
    fn step(
        &mut self,
        model: &mut Model,
        graph: &Graph,
        root: NodeId,
        train: bool,
        rpw: usize,
    ) -> Vec<f32> {
        let Self {
            plans,
            pool,
            tables,
            gpu,
            cache,
        } = self;
        let plan = plans
            .iter()
            .find(|p| p.rpw() == rpw)
            .expect("a candidate plan");
        pool.reset();
        let gs = if train {
            generate::generate(graph, root, plan, pool, tables)
        } else {
            generate_forward_only(graph, root, plan, pool, tables)
        }
        .expect("fits");
        for (id, node) in graph.iter() {
            if let Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
        let cfg = ExecConfig {
            learning_rate: LEARNING_RATE,
            weight_decay: 0.0,
            apply_update: train,
        };
        let art = cache.get_or_lower(plan, &gs, gpu.cost_model());
        let session = Session::from_lowered(plan, &gs, cfg, gpu.cost_model(), art);
        let run = engine::run_prepared(&Lowered, &session, pool, model, gpu);
        if !train {
            let dim = graph.node(root).dim;
            return pool.slice(gs.layout.value_off[root.index()], dim).to_vec();
        }
        apply_gemm_fallback(plan, &gs.layout, pool, model, gpu, cfg);
        vec![run.loss]
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn param_bits(model: &Model) -> Vec<u32> {
    model
        .params()
        .flat_map(|(_, p)| bits(p.value.as_slice()))
        .collect()
}

/// DRAM faults (p = 0.4, detected after the kernel's full run time, so a
/// faulted attempt computes nothing) on a stream that keeps every batch on
/// the bit-exact rungs (Lowered, EventInterp): an attempt, a retry's
/// backoff and a re-JIT each draw a fixed count of values whatever the
/// graph, so the faults fall on the same attempts in every generated
/// trace. Within the first three batches some attempt retries and the plan
/// is quarantined and re-JITted; in the first sixteen no batch faults on
/// all six attempts of both rungs and reaches the launch-per-op baseline.
fn faulty() -> FaultConfig {
    FaultConfig::parse("seed=24,dram=0.4").expect("valid spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of `fb` and `infer` on one `Handle` gives the loss,
    /// output and parameter bits of the same calls made with a fresh arena
    /// each: under a fixed plan, while the rpw profiler switches plans (each
    /// plan must get its own arena), and while frequent DRAM faults force
    /// retries, backend fallbacks and a quarantine re-JIT (a faulted attempt
    /// must leave nothing the retry reads).
    #[test]
    fn persistent_arena_matches_fresh_arena_per_call(
        first in arb_recipe(),
        rest in prop::collection::vec((arb_recipe(), any::<bool>()), 2..6),
    ) {
        let calls: Vec<_> = std::iter::once((first, true)).chain(rest).collect();
        for (rpw, faults) in [
            (RpwMode::Fixed(1), FaultConfig::disabled()),
            (RpwMode::Profile, FaultConfig::disabled()),
            (RpwMode::Fixed(1), faulty()),
        ] {
            let mut model = test_model();
            let mut fresh_model = model.clone();
            let opts = VppsOptions {
                rpw,
                learning_rate: LEARNING_RATE,
                pool_capacity: 1 << 18,
                backend: BackendKind::Lowered,
                faults,
                ..VppsOptions::default()
            };
            let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
            let mut fresh = FreshArenaPipeline::new(&fresh_model);
            let mut plans_used = std::collections::BTreeSet::new();
            for (recipe, train) in &calls {
                let (g, root) = build_from_recipe(&model, recipe);
                let plan_rpw = handle.plan().rpw();
                plans_used.insert(plan_rpw);
                let got = if *train {
                    handle.fb(&mut model, &g, root);
                    vec![handle.sync_get_latest_loss()]
                } else {
                    handle.infer(&mut model, &g, root)
                };
                let want = fresh.step(&mut fresh_model, &g, root, *train, plan_rpw);
                prop_assert_eq!(bits(&got), bits(&want), "{:?}: result bits (train={})", rpw, train);
                prop_assert_eq!(
                    param_bits(&model), param_bits(&fresh_model),
                    "{:?}: parameter bits (train={})", rpw, train
                );
            }
            let stats = handle.recovery_stats();
            prop_assert_eq!(stats.baseline_fallbacks, 0, "stayed on bit-exact rungs");
            if faults.enabled {
                prop_assert!(stats.retries > 0, "an attempt faulted and was retried");
                prop_assert_eq!(stats.rejits, 1, "the plan was quarantined and re-JITted");
            } else if rpw == RpwMode::Profile && calls.iter().filter(|c| c.1).count() > 1 {
                prop_assert!(plans_used.len() > 1, "the profiler switched plans");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One persistent `Handle` per backend through infer → external
    /// `param_mut` → infer, train → infer → infer, infer on a clone, a
    /// write to the clone and infer on each again: every result and every
    /// parameter bit equals the same call on a fresh `Handle` (whose arena
    /// loads everything) and a copy of the model. A step that skipped a
    /// reload it needed would compute with the previous values.
    #[test]
    fn resident_parameters_are_reloaded_whenever_the_model_changed(recipe in arb_recipe()) {
        for backend in BackendKind::ALL {
            let opts = VppsOptions {
                rpw: RpwMode::Fixed(1),
                learning_rate: LEARNING_RATE,
                pool_capacity: 1 << 18,
                backend,
                ..VppsOptions::default()
            };
            let mut model = test_model();
            let w = model.params().next().expect("a matrix").0;
            let (g, root) = build_from_recipe(&model, &recipe);
            let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
            let mut step = |model: &mut Model, train: bool, what: &str| {
                let mut fresh_model = model.clone();
                let mut fresh =
                    Handle::new(&fresh_model, small_device(), opts).expect("tiny model fits");
                let (got, want) = if train {
                    handle.fb(model, &g, root);
                    fresh.fb(&mut fresh_model, &g, root);
                    (vec![handle.sync_get_latest_loss()], vec![fresh.sync_get_latest_loss()])
                } else {
                    (handle.infer(model, &g, root), fresh.infer(&mut fresh_model, &g, root))
                };
                prop_assert_eq!(bits(&got), bits(&want), "{:?}: {}", backend, what);
                prop_assert_eq!(
                    param_bits(model), param_bits(&fresh_model),
                    "{:?}: parameters after {}", backend, what
                );
                Ok(())
            };
            let rescale = |model: &mut Model, by: f32| {
                for v in model.param_mut(w).value.as_mut_slice() {
                    *v *= by;
                }
            };
            step(&mut model, false, "the first infer")?;
            rescale(&mut model, -1.5);
            step(&mut model, false, "an infer after an external param_mut")?;
            step(&mut model, true, "a training step")?;
            step(&mut model, false, "an infer after training")?;
            step(&mut model, false, "a second infer of an unchanged model")?;
            let mut copy = model.clone();
            step(&mut copy, false, "an infer on a clone")?;
            rescale(&mut copy, 0.5);
            step(&mut copy, false, "an infer on the changed clone")?;
            step(&mut model, false, "an infer back on the original")?;
        }
    }
}

/// [`test_model`] plus an embedding table, so batches carry all three kinds
/// of per-request literal: input values, lookup rows and labels.
fn lookup_model() -> Model {
    let mut model = test_model();
    model.add_lookup("E", 9, DIM);
    model
}

/// Request `variant` of a recipe: always the same structure, with the input
/// values, the looked-up row and the gold label all derived from `variant`.
fn build_variant(model: &Model, recipe: &GraphRecipe, variant: u8) -> (Graph, NodeId) {
    let table = model.lookups().next().expect("model has a table").0;
    let v = usize::from(variant);
    let mut g = Graph::new();
    let x = g.input(
        (0..DIM)
            .map(|i| 0.1 * i as f32 - 0.05 * (v % 11) as f32)
            .collect(),
    );
    let e = g.lookup(model, table, v % 9);
    let label = (usize::from(recipe.label) + v) % 4;
    let loss = grow_recipe(&mut g, model, recipe, vec![x, e], label);
    (g, loss)
}

/// One call of the graph-keyed test: what to dispatch and how.
#[derive(Debug, Clone, Copy)]
enum Dispatch {
    /// `fb` on one request graph.
    Train,
    /// `fb` on a super-graph of two requests with summed losses.
    TrainPair,
    /// `infer_many` on a super-graph of two requests.
    InferPair,
}

/// Runs one dispatch on `handle`; returns the loss or the roots' values.
fn dispatch(
    handle: &mut Handle,
    model: &mut Model,
    recipe: &GraphRecipe,
    variant: u8,
    how: Dispatch,
) -> Vec<Vec<f32>> {
    let (g, root) = build_variant(model, recipe, variant);
    if let Dispatch::Train = how {
        handle.fb(model, &g, root);
        return vec![vec![handle.sync_get_latest_loss()]];
    }
    let (g2, root2) = build_variant(model, recipe, variant.wrapping_add(5));
    let mut sg = Graph::new();
    let roots = [sg.absorb(&g, root), sg.absorb(&g2, root2)];
    match how {
        Dispatch::InferPair => handle.infer_many(model, &sg, &roots),
        _ => {
            let total = sg.sum(&roots);
            handle.fb(model, &sg, total);
            vec![vec![handle.sync_get_latest_loss()]]
        }
    }
}

fn model_bits(model: &Model) -> Vec<u32> {
    let mut all = param_bits(model);
    all.extend(model.lookups().flat_map(|(_, l)| bits(l.table.as_slice())));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A `Handle` whose lowered cache finds a re-submitted graph's artifact
    /// from the graph (fresh input values, lookup rows and labels each time;
    /// single graphs and train / `infer_many` super-graphs) returns the
    /// losses and outputs, leaves the parameters and lookup tables, and
    /// reports the `Metrics`, `PhaseBreakdown`, steady-state and wall time,
    /// recovery and cache tallies of a `Handle` that generates every batch:
    /// under a fixed plan, while the profiler switches plans, with a
    /// two-script cache (evict, miss, re-install), and while DRAM faults
    /// force retries and a quarantine re-JIT.
    #[test]
    fn graph_keyed_hit_is_bit_identical_to_generated_path(
        recipes in prop::collection::vec(arb_recipe(), 3),
        random_calls in prop::collection::vec((0usize..3, any::<u8>(), 0u8..3), 3..8),
    ) {
        // The random calls, then a tail that cycles three structures and
        // comes back to the first: with two cache slots that is evict, miss,
        // re-install, hit.
        let calls: Vec<(usize, u8, Dispatch)> = random_calls
            .iter()
            .map(|&(r, v, how)| {
                (r, v, [Dispatch::Train, Dispatch::TrainPair, Dispatch::InferPair][how as usize])
            })
            .chain([(0, 1, Dispatch::Train), (1, 2, Dispatch::Train), (2, 3, Dispatch::Train)])
            .chain([(0, 4, Dispatch::Train), (0, 5, Dispatch::Train)])
            .collect();
        for (rpw, faults, capacity) in [
            (RpwMode::Fixed(1), FaultConfig::disabled(), 256),
            (RpwMode::Profile, FaultConfig::disabled(), 256),
            (RpwMode::Fixed(1), FaultConfig::disabled(), 2),
            (RpwMode::Fixed(1), faulty(), 256),
        ] {
            let opts = VppsOptions {
                rpw,
                learning_rate: LEARNING_RATE,
                pool_capacity: 1 << 18,
                backend: BackendKind::Lowered,
                faults,
                ..VppsOptions::default()
            };
            let mut model = lookup_model();
            let mut reference_model = model.clone();
            let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
            let mut reference =
                Handle::new(&reference_model, small_device(), opts).expect("tiny model fits");
            *handle.lowered_cache_mut() = LoweredCache::with_capacity(capacity);
            *reference.lowered_cache_mut() = LoweredCache::without_graph_index(capacity);

            for &(r, variant, how) in &calls {
                let got = dispatch(&mut handle, &mut model, &recipes[r], variant, how);
                let want =
                    dispatch(&mut reference, &mut reference_model, &recipes[r], variant, how);
                let what = format!("{rpw:?} capacity {capacity} {how:?}");
                prop_assert_eq!(
                    got.iter().map(|v| bits(v)).collect::<Vec<_>>(),
                    want.iter().map(|v| bits(v)).collect::<Vec<_>>(),
                    "{}: result bits", what
                );
                prop_assert_eq!(
                    model_bits(&model), model_bits(&reference_model),
                    "{}: parameter and table bits", what
                );
                prop_assert_eq!(handle.metrics(), reference.metrics(), "{}", what);
                prop_assert_eq!(handle.phases(), reference.phases(), "{}", what);
                prop_assert_eq!(handle.steady_state_time(), reference.steady_state_time());
                prop_assert_eq!(handle.wall_time(), reference.wall_time());
                prop_assert_eq!(handle.plan().rpw(), reference.plan().rpw());
            }
            prop_assert_eq!(handle.recovery_stats(), reference.recovery_stats());
            let stats = handle.lowered_cache_stats();
            prop_assert_eq!(reference.lowered_cache_stats().graph_hits, 0);
            prop_assert_eq!(
                LoweredCacheStats { graph_hits: 0, ..stats },
                reference.lowered_cache_stats(),
                "{:?} capacity {}: cache tallies", rpw, capacity
            );
            prop_assert!(stats.graph_hits <= stats.script_hits);
            if !faults.enabled && rpw == RpwMode::Fixed(1) {
                prop_assert!(stats.graph_hits > 0, "the closing repeat is a graph-level hit");
            }
            if faults.enabled {
                let stats = handle.recovery_stats();
                prop_assert_eq!(stats.baseline_fallbacks, 0, "stayed on bit-exact rungs");
                prop_assert!(stats.retries > 0, "an attempt faulted and was retried");
                prop_assert_eq!(stats.rejits, 1, "quarantined and re-JITted");
            }
        }
    }
}

/// One structural change to a request, made by [`build_request`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Change {
    None,
    Edge,
    Dim,
    Param,
    Table,
    Root,
}

/// Request `variant` of `recipe` on [`lookup_model`] plus a second table
/// `F`: an unused input of dim 2, then an input `x` and a row `e` of `E`
/// feeding a mat-vec by `W1` and the recipe, and two losses — the recipe's,
/// which is the root, and one on `x`. Input values, the row and both labels
/// come from `variant`; `change` alters one structural fact: the recipe's
/// frontier order (so the mat-vec's argument edge), the unused input's dim,
/// `W2` for `W1`, `F` for `E`, or the loss on `x` as the root.
fn build_request(
    model: &Model,
    recipe: &GraphRecipe,
    variant: u8,
    change: Change,
) -> (Graph, NodeId) {
    let table = model.lookups().nth(usize::from(change == Change::Table));
    let v = usize::from(variant);
    let mut g = Graph::new();
    let pad = 2 + usize::from(change == Change::Dim);
    g.input(vec![0.25 * (v % 5) as f32; pad]);
    let x = g.input(
        (0..DIM)
            .map(|i| 0.1 * i as f32 - 0.05 * (v % 11) as f32)
            .collect(),
    );
    let e = g.lookup(model, table.expect("two tables").0, v % 9);
    let frontier = if change == Change::Edge {
        vec![e, x]
    } else {
        vec![x, e]
    };
    let recipe = GraphRecipe {
        ops: [u8::from(change == Change::Param)]
            .into_iter()
            .chain(recipe.ops.iter().copied())
            .collect(),
        ..recipe.clone()
    };
    let loss = grow_recipe(
        &mut g,
        model,
        &recipe,
        frontier,
        (usize::from(recipe.label) + v) % 4,
    );
    let on_x = g.pick_neg_log_softmax(x, (v * 7) % DIM);
    (g, if change == Change::Root { on_x } else { loss })
}

/// The per-request literal each patch point of `art` carries in its ops.
fn literals(art: &LoweredScript) -> Vec<u32> {
    let value = |op: &MicroOp| match *op {
        MicroOp::Copy { src, .. } => src,
        MicroOp::PickNls { label, .. } | MicroOp::PickNlsBwd { label, .. } => label,
        other => panic!("patch point on {other:?}"),
    };
    art.patch_points
        .iter()
        .map(|p| value(&art.ops[p.op_index as usize]))
        .collect()
}

/// `art`'s ops with every patched field zeroed.
fn unpatched(art: &LoweredScript) -> Vec<MicroOp> {
    let mut ops = art.ops.clone();
    for p in &art.patch_points {
        match &mut ops[p.op_index as usize] {
            MicroOp::Copy { src, .. } => *src = 0,
            MicroOp::PickNls { label, .. } | MicroOp::PickNlsBwd { label, .. } => *label = 0,
            other => panic!("patch point on {other:?}"),
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// What the lowered cache's one key rests on. Two requests that differ
    /// only in their literals (input values, lookup rows, labels) get equal
    /// `GeneratedScript::key`s and lower to one artifact: equal ops, patch
    /// points, bounds and timeline, except the patched fields, which
    /// `extract_patches` on either request's scripts reads back as that
    /// request's own literals through either artifact — and so does
    /// `patches` on either request's graph, from the literal sources the
    /// generator recorded. And every input the
    /// scripts are a function of — an edge, a dim, a parameter id, a lookup
    /// table, the root, train|infer, the schedule policy, the pool base —
    /// changed on its own gives an unequal key.
    #[test]
    fn equal_dispatch_keys_lower_to_one_artifact(
        recipe in arb_recipe(),
        a in any::<u8>(),
        b in any::<u8>(),
    ) {
        let mut model = lookup_model();
        model.add_lookup("F", 9, DIM);
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
        let gpu = GpuSim::new(small_device());
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let mut generate_as = |(g, root): &(Graph, NodeId), train, policy, shift| {
            pool.reset();
            pool.alloc(shift).expect("room to shift the pool base");
            let gs = if train {
                generate::generate_with_policy(g, *root, &plan, &mut pool, &tables, policy)
            } else {
                generate_forward_only(g, *root, &plan, &mut pool, &tables)
            };
            gs.expect("fits")
        };
        let (min_load, round_robin) = (SchedulePolicy::MinLoad, SchedulePolicy::RoundRobin);

        let request_a = build_request(&model, &recipe, a, Change::None);
        let request_b = build_request(&model, &recipe, b, Change::None);
        let gs_a = generate_as(&request_a, true, min_load, 0);
        let gs_b = generate_as(&request_b, true, min_load, 0);
        prop_assert_eq!(&gs_a.key, &gs_b.key, "literals are not in the key");
        let art_a = lowered::lower(&plan, &gs_a, gpu.cost_model());
        let art_b = lowered::lower(&plan, &gs_b, gpu.cost_model());
        prop_assert_eq!(&art_a.patch_points, &art_b.patch_points);
        prop_assert_eq!(unpatched(&art_a), unpatched(&art_b));
        prop_assert_eq!((art_a.pool_end, art_a.scratch_len), (art_b.pool_end, art_b.scratch_len));
        prop_assert_eq!(format!("{:?}", art_a.timeline), format!("{:?}", art_b.timeline));
        for (own, gs, (graph, _)) in [(&art_a, &gs_a, &request_a), (&art_b, &gs_b, &request_b)] {
            for art in [&art_a, &art_b] {
                prop_assert_eq!(art.extract_patches(gs), literals(own));
                prop_assert_eq!(art.patches(graph, &tables), art.extract_patches(gs));
            }
        }

        let mut changed: Vec<(String, Box<[u32]>)> = [
            Change::Edge,
            Change::Dim,
            Change::Param,
            Change::Table,
            Change::Root,
        ]
        .into_iter()
        .map(|change| {
            let request = build_request(&model, &recipe, a, change);
            (format!("{change:?}"), generate_as(&request, true, min_load, 0).key)
        })
        .collect();
        changed.push(("infer".into(), generate_as(&request_a, false, min_load, 0).key));
        changed.push(("policy".into(), generate_as(&request_a, true, round_robin, 0).key));
        changed.push(("pool base".into(), generate_as(&request_a, true, min_load, 1).key));
        for (what, key) in &changed {
            prop_assert!(*key != gs_a.key, "{} must change the key", what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same recipe, two independent lowering passes: byte-identical
    /// artifacts.
    #[test]
    fn lowering_is_deterministic(recipe in arb_recipe()) {
        let (key_a, a) = lower_recipe(&recipe);
        let (key_b, b) = lower_recipe(&recipe);
        prop_assert_eq!(a.plan_id, b.plan_id, "plan identity must be stable");
        prop_assert_eq!(key_a, key_b, "the dispatch key must be stable");
        prop_assert_eq!(&a.ops, &b.ops, "micro-op arrays must be identical");
        prop_assert_eq!(
            &a.timeline.instr_mix,
            &b.timeline.instr_mix,
            "instruction mixes must be identical"
        );
        prop_assert_eq!(a.pool_end, b.pool_end);
        prop_assert_eq!(a.scratch_len, b.scratch_len);
        prop_assert_eq!(a.num_barriers, b.num_barriers);
        // Belt and braces: the full debug rendering (every literal field of
        // every op) must match byte for byte.
        prop_assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
    }

    /// The op stream is the timeline's compute order with sync compiled
    /// away: one micro-op per executed instruction, and the per-mnemonic
    /// histogram equals the script's static instruction mix.
    #[test]
    fn op_stream_matches_timeline(recipe in arb_recipe()) {
        let (_, art) = lower_recipe(&recipe);
        prop_assert_eq!(
            art.ops.len(),
            art.timeline.instructions,
            "one micro-op per compute instruction"
        );
        prop_assert_eq!(art.ops.len(), art.timeline.order.len());
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for op in &art.ops {
            *counts.entry(op.mnemonic()).or_insert(0) += 1;
        }
        let mix: BTreeMap<&'static str, u64> = art.timeline.instr_mix.iter().copied().collect();
        prop_assert_eq!(counts, mix, "lowered op histogram must equal the static mix");
    }

    /// The kernel calls lowering records tile the stream in order. Each
    /// block is sound — one chunk key, at most `MAX_BLOCK` mat-vecs or outer
    /// products of which no member writes a pool range another reads or
    /// writes, no patch point inside — and maximal: a block shorter than
    /// `MAX_BLOCK` ends where the next op has another key or conflicts with
    /// a member. Blocks that tile the stream from the front and are sound
    /// and maximal are the only partition the rule allows.
    #[test]
    fn recorded_blocks_are_sound_and_maximal(recipe in arb_recipe()) {
        let (_, art) = lower_recipe(&recipe);
        let key = |op: &MicroOp| blockable(op).map(|(key, ..)| key);
        let mut next = 0;
        for block in art.blocks() {
            prop_assert_eq!(block.start, next, "the calls tile the stream");
            next = block.end;
            let members = &art.ops[block.clone()];
            let head = key(&members[0]);
            prop_assert!(block.len() == 1 || head.is_some() && block.len() <= MAX_BLOCK);
            for (j, op) in members.iter().enumerate().skip(1) {
                prop_assert_eq!(key(op), head, "one key per block");
                prop_assert!(members[..j].iter().all(|m| !pool_conflict(m, op)));
            }
            let inside = |p: &lowered::PatchPoint| block.contains(&(p.op_index as usize));
            prop_assert!(block.len() == 1 || !art.patch_points.iter().any(inside));
            match art.ops.get(block.end) {
                Some(after) if head.is_some() && block.len() < MAX_BLOCK => prop_assert!(
                    key(after) != head || members.iter().any(|m| pool_conflict(m, after)),
                    "the block at op {} could take op {}", block.start, block.end
                ),
                _ => {}
            }
        }
        prop_assert_eq!(next, art.ops.len());
    }

    /// Re-lowering through the cache hits (same `Arc`), and a seen script is
    /// never re-lowered (re-miss counters stay zero).
    #[test]
    fn cache_hits_are_shared_and_never_re_miss(recipe in arb_recipe()) {
        let model = test_model();
        let (g, loss) = build_from_recipe(&model, &recipe);
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
        let gpu = GpuSim::new(small_device());

        let mut cache = LoweredCache::default();
        let first = cache.get_or_lower(&plan, &gs, gpu.cost_model());
        for _ in 0..3 {
            let again = cache.get_or_lower(&plan, &gs, gpu.cost_model());
            prop_assert!(
                std::sync::Arc::ptr_eq(&first, &again),
                "a cache hit must return the same artifact"
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.script_misses, 1);
        prop_assert_eq!(stats.script_hits, 3);
        prop_assert_eq!(stats.script_re_misses, 0, "a seen script must not re-lower");
        prop_assert_eq!(cache.len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sweep with the helper thread forced onto every wave with chunk
    /// work — the wave's untied components split between the threads —
    /// leaves the pool, the gradient half of the register arena and the
    /// loss exactly as the serial sweep does, training and inference.
    #[test]
    fn wave_parallel_sweep_equals_the_serial_sweep(recipe in arb_recipe(), train in any::<bool>()) {
        let model = test_model();
        let (g, root) = build_from_recipe(&model, &recipe);
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let gs = if train {
            generate::generate(&g, root, &plan, &mut pool, &tables)
        } else {
            generate_forward_only(&g, root, &plan, &mut pool, &tables)
        }
        .expect("fits");
        for (id, node) in g.iter() {
            if let Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
        let cost = GpuSim::new(small_device());
        let art = lowered::lower_for(&plan, &gs, cost.cost_model(), Helpers::Forced);
        let patches = art.extract_patches(&gs);
        let dist = plan.distribution();
        let run = |helpers| {
            let mut pool = pool.clone();
            let mut arena = RegCache::new(dist);
            arena.load_from_model(&model, Helpers::Off);
            arena.zero_grads(Helpers::Off);
            lowered::sweep(&art, &patches, &mut pool, &mut arena, helpers);
            let grads: Vec<u32> = (0..dist.chunks().len() as u32)
                .filter(|&c| dist.chunk(ChunkId(c)).is_grad)
                .flat_map(|c| bits(arena.chunk(ChunkId(c))))
                .collect();
            let root_value = pool.slice(gs.layout.value_off[root.index()], 1)[0];
            (bits(pool.raw()), grads, root_value.to_bits())
        };
        let (serial, parallel) = (run(Helpers::Off), run(Helpers::Forced));
        prop_assert!(serial.0 == parallel.0, "pool bits");
        prop_assert!(serial.1 == parallel.1, "gradient bits");
        prop_assert_eq!(serial.2, parallel.2, "loss bits");
    }
}

/// What an op touches, derived here from its fields, independently of
/// lowering: the pool ranges it reads and writes (an accumulation counts as
/// a write), and the register-arena range it reads or, flagged `true`,
/// writes.
type Touches = (
    Vec<(u32, u32)>,
    Option<(u32, u32)>,
    Option<((u32, u32), bool)>,
);

fn touches(op: &MicroOp) -> Touches {
    use MicroOp::*;
    match *op {
        MatVec {
            reg,
            x,
            y,
            len,
            rows,
            cols,
        } => (
            vec![(x, len)],
            Some((y, rows)),
            Some(((reg, rows * cols), false)),
        ),
        TMatVec {
            reg,
            dy,
            dx,
            len,
            rows,
            cols,
        } => (
            vec![(dy, rows)],
            Some((dx, len)),
            Some(((reg, rows * cols), false)),
        ),
        Outer {
            reg,
            x,
            dy,
            len,
            rows,
            cols,
        } => (
            vec![(x, len), (dy, rows)],
            None,
            Some(((reg, rows * cols), true)),
        ),
        AddBias { reg, x, y, len } => (vec![(x, len)], Some((y, len)), Some(((reg, len), false))),
        BiasGrad { reg, dy, len } => (vec![(dy, len)], None, Some(((reg, len), true))),
        Tanh { x, y, len }
        | Sigmoid { x, y, len }
        | Relu { x, y, len }
        | AccSub { x, y, len }
        | AccAdd { x, y, len } => (vec![(x, len)], Some((y, len)), None),
        TanhBwd { y, dy, dx, len } | SigmoidBwd { y, dy, dx, len } | ReluBwd { y, dy, dx, len } => {
            (vec![(y, len), (dy, len)], Some((dx, len)), None)
        }
        Sub { a, b, y, len }
        | Add { a, b, y, len }
        | CwiseMult { a, b, y, len }
        | MulAcc { a, b, y, len } => (vec![(a, len), (b, len)], Some((y, len)), None),
        Copy { src, dst, len } => (vec![(src, len)], Some((dst, len)), None),
        PickNls { x, out, len, .. } => (vec![(x, len)], Some((out, 1)), None),
        PickNlsBwd {
            x, dloss, dx, len, ..
        } => (vec![(x, len), (dloss, 1)], Some((dx, len)), None),
    }
}

/// `true` when running `a` and `b` in either order could give different
/// bits: one writes a pool or arena range the other reads or writes.
fn conflict(a: &MicroOp, b: &MicroOp) -> bool {
    let overlap = |a: (u32, u32), b: (u32, u32)| a.0 < b.0 + b.1 && b.0 < a.0 + a.1;
    let ((reads_a, write_a, arena_a), (reads_b, write_b, arena_b)) = (touches(a), touches(b));
    let hits = |write: Option<(u32, u32)>, reads: &[(u32, u32)]| {
        write.is_some_and(|w| reads.iter().any(|&r| overlap(r, w)))
    };
    hits(write_a, &reads_b)
        || hits(write_b, &reads_a)
        || matches!((write_a, write_b), (Some(a), Some(b)) if overlap(a, b))
        || matches!((arena_a, arena_b), (Some((a, wa)), Some((b, wb))) if (wa || wb) && overlap(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wave plan against a brute-force oracle, on random graphs,
    /// training and inference, lowered for sweeps with the helper forced
    /// onto every wave with chunk work: no two ops in different pieces of
    /// one wave conflict, and the ops of one segment that write register
    /// chunks share a piece. A race can leave equal bits by luck, so the
    /// bit-equality test above cannot show this.
    #[test]
    fn wave_parallel_plan_ties_every_conflict(recipe in arb_recipe(), train in any::<bool>()) {
        let model = test_model();
        let (g, root) = build_from_recipe(&model, &recipe);
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let gs = if train {
            generate::generate(&g, root, &plan, &mut pool, &tables)
        } else {
            generate_forward_only(&g, root, &plan, &mut pool, &tables)
        }
        .expect("fits");
        let cost = GpuSim::new(small_device());
        let art = lowered::lower_for(&plan, &gs, cost.cost_model(), Helpers::Forced);
        let order = &art.timeline.order;
        for (range, pieces) in art.wave_pieces() {
            let ops = &art.ops[range.clone()];
            for (i, a) in ops.iter().enumerate() {
                for (j, b) in ops.iter().enumerate().skip(i + 1) {
                    prop_assert!(
                        pieces[i] == pieces[j] || !conflict(a, b),
                        "ops {} and {} conflict in pieces {} and {}",
                        range.start + i, range.start + j, pieces[i], pieces[j]
                    );
                }
            }
            let mut writer = None;
            for (i, op) in ops.iter().enumerate() {
                let k = range.start + i;
                if i == 0 || order[k] != (order[k - 1].0, order[k - 1].1 + 1) {
                    writer = None;
                }
                if matches!(touches(op).2, Some((_, true))) {
                    let first = *writer.get_or_insert(i);
                    prop_assert_eq!(pieces[first], pieces[i], "chunk writers of one segment");
                }
            }
        }
    }
}

/// A `Handle` whose sweeps use no helper and one whose sweeps put the helper
/// on every wave with chunk work train and infer a BiLSTM tagger to the same
/// losses, outputs and parameters, bit for bit, over several batches. Obs is
/// on, so both run the timed sweep, which counts the waves it split.
#[test]
fn wave_parallel_handle_equals_the_serial_handle() {
    use vpps_datasets::{TaggedCorpus, TaggedCorpusConfig};
    use vpps_models::{build_batch, BiLstmTagger};

    vpps_obs::set_enabled(true);
    let (parallel, helper_ops) = (
        vpps_obs::counter("engine.waves.parallel"),
        vpps_obs::counter("engine.waves.helper_ops"),
    );

    let mut base = Model::new(8);
    let arch = BiLstmTagger::register(&mut base, 300, 32, 32, 32, 9);
    let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
        vocab: 300,
        sentences: 24,
        min_len: 4,
        max_len: 10,
        seed: 5,
        ..TaggedCorpusConfig::default()
    });
    let run = |helpers: usize| {
        let mut model = base.clone();
        let opts = VppsOptions {
            rpw: RpwMode::Fixed(1),
            backend: BackendKind::Lowered,
            ..VppsOptions::default()
        };
        let mut handle =
            Handle::new(&model, gpu_sim::DeviceConfig::titan_v(), opts).expect("model fits");
        handle.set_sweep_helpers(helpers);
        let mut out = Vec::new();
        for batch in corpus.sentences().chunks(4) {
            let (g, loss) = build_batch(&arch, &model, batch);
            handle.fb(&mut model, &g, loss);
            out.push(handle.sync_get_latest_loss().to_bits());
            out.extend(bits(&handle.infer(&mut model, &g, loss)));
        }
        out.extend(param_bits(&model));
        out
    };
    let serial = run(0);
    let before = (parallel.get(), helper_ops.get());
    assert!(serial == run(1), "helper counts 0 and 1 disagree");
    assert!(parallel.get() > before.0 && helper_ops.get() > before.1);
}

/// What a blocked kernel call needs to know of an op that may join one —
/// a `MatVec` or an `Outer`: the chunk and shape its members share, the
/// pool ranges it reads and the one it writes (an `Outer` writes none).
/// `None` for every op that runs alone.
type Blockable = ([u32; 5], [(u32, u32); 2], Option<(u32, u32)>);

fn blockable(op: &MicroOp) -> Option<Blockable> {
    match *op {
        MicroOp::MatVec {
            reg,
            x,
            y,
            len,
            rows,
            cols,
        } => Some(([0, reg, len, rows, cols], [(x, len); 2], Some((y, rows)))),
        MicroOp::Outer {
            reg,
            x,
            dy,
            len,
            rows,
            cols,
        } => Some(([2, reg, len, rows, cols], [(x, len), (dy, rows)], None)),
        _ => None,
    }
}

/// `true` when one of two blockable ops writes a pool range the other reads
/// or writes.
fn pool_conflict(a: &MicroOp, b: &MicroOp) -> bool {
    let overlap = |a: (u32, u32), b: (u32, u32)| a.0 < b.0 + b.1 && b.0 < a.0 + a.1;
    let ((_, reads_a, write_a), (_, reads_b, write_b)) = (
        blockable(a).expect("a block member"),
        blockable(b).expect("a block member"),
    );
    let hits = |write: Option<(u32, u32)>, reads: [(u32, u32); 2]| {
        write.is_some_and(|w| reads.iter().any(|&r| overlap(r, w)))
    };
    hits(write_a, reads_b)
        || hits(write_b, reads_a)
        || matches!((write_a, write_b), (Some(a), Some(b)) if overlap(a, b))
}

/// FIFO capacity pressure and plan quarantine are the only two ways a
/// script leaves the cache, and both are observable: the stats struct and
/// the `lower.script.cache_evict` counter move in lockstep, and re-lowering
/// a script of a quarantined plan registers as a script-level re-miss.
#[test]
fn evictions_are_counted_by_stats_and_obs() {
    vpps_obs::set_enabled(true);
    let evict_counter = vpps_obs::counter("lower.script.cache_evict");
    let before = evict_counter.get();

    let model = test_model();
    let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
    let gpu = GpuSim::new(small_device());
    let mut cache = LoweredCache::with_capacity(2);

    let recipes = [
        GraphRecipe {
            ops: vec![0, 3, 1, 6],
            picks: vec![1; 30],
            label: 0,
        },
        GraphRecipe {
            ops: vec![1, 4, 2],
            picks: vec![2; 30],
            label: 1,
        },
        GraphRecipe {
            ops: vec![0, 1, 5, 7, 2],
            picks: vec![3; 30],
            label: 2,
        },
    ];
    let mut plan_id = 0;
    for recipe in &recipes {
        let (g, loss) = build_from_recipe(&model, recipe);
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
        plan_id = cache.get_or_lower(&plan, &gs, gpu.cost_model()).plan_id;
    }
    assert_eq!(cache.len(), 2, "capacity 2 holds two scripts");
    let stats = cache.stats();
    assert_eq!(
        (stats.script_misses, stats.script_re_misses),
        (3, 0),
        "three distinct scripts each lower once"
    );
    assert_eq!(
        stats.script_evictions, 1,
        "the third distinct script evicts the FIFO head"
    );

    // Quarantine: both remaining scripts go at once.
    assert_eq!(cache.invalidate_plan(plan_id), 2);
    assert!(cache.is_empty());
    assert_eq!(cache.stats().script_evictions, 3);
    assert_eq!(
        evict_counter.get() - before,
        3,
        "obs counter moves in lockstep with the stats struct"
    );

    // Re-lowering after quarantine is a deliberate re-miss.
    let (g, loss) = build_from_recipe(&model, &recipes[0]);
    let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
    let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    cache.get_or_lower(&plan, &gs, gpu.cost_model());
    assert_eq!(
        cache.stats().script_re_misses,
        1,
        "the script is re-lowered knowingly"
    );
}

/// FNV-1a over the debug rendering of an artifact's stream: every micro-op
/// with its variant and every literal field, in order, every patch point,
/// `pool_end` and `scratch_len`.
fn stream_digest(art: &LoweredScript) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}",
        art.ops, art.patch_points, art.pool_end, art.scratch_len
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the scripts of `(g, root)` on a fresh rpw-1 plan of `model`
/// for a Titan V: training scripts, or forward-only ones.
fn generate_on_titan_v(
    model: &Model,
    g: &Graph,
    root: NodeId,
    train: bool,
) -> (KernelPlan, vpps::script::GeneratedScript) {
    let device = gpu_sim::DeviceConfig::titan_v();
    let plan = KernelPlan::build(model, &device, 1).expect("model fits a Titan V");
    let mut pool = vpps_tensor::Pool::with_capacity(1 << 22);
    let tables = TableLayout::install(model, &mut pool).expect("pool big enough");
    let gs = if train {
        generate::generate(g, root, &plan, &mut pool, &tables)
    } else {
        generate_forward_only(g, root, &plan, &mut pool, &tables)
    }
    .expect("fits");
    (plan, gs)
}

/// The three seeded batches the pins below lower, as `(model, graph, root,
/// train)`: a Tree-LSTM h = 256 batch-1 training tree, a BiLSTM-tagger
/// batch-8 training super-graph and a Tree-LSTM h = 64 inference
/// super-graph of four trees.
fn pinned_batches() -> [(Model, Graph, NodeId, bool); 3] {
    use vpps_datasets::{TaggedCorpus, TaggedCorpusConfig, Treebank, TreebankConfig};
    use vpps_models::{build_batch, BiLstmTagger, DynamicModel, TreeLstm};

    let trees = |hidden: usize, count: usize| {
        let mut model = Model::new(7);
        let arch = TreeLstm::register(&mut model, 300, hidden, hidden, 5);
        let mut bank = Treebank::new(TreebankConfig {
            vocab: 300,
            min_len: 10,
            max_len: 14,
            classes: 5,
            seed: 7,
        });
        (model, arch, bank.samples(count))
    };
    let (model, arch, samples) = trees(256, 1);
    let (g, loss) = build_batch(&arch, &model, &samples);
    let tree_train = (model, g, loss, true);

    let mut model = Model::new(8);
    let arch = BiLstmTagger::register(&mut model, 300, 64, 64, 64, 9);
    let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
        vocab: 300,
        sentences: 8,
        min_len: 5,
        max_len: 12,
        seed: 8,
        ..TaggedCorpusConfig::default()
    });
    let (g, loss) = build_batch(&arch, &model, corpus.sentences());
    let bilstm_train = (model, g, loss, true);

    let (model, arch, samples) = trees(64, 4);
    let mut sg = Graph::new();
    let roots: Vec<NodeId> = samples
        .iter()
        .map(|s| {
            let (g, root) = arch.build(&model, s);
            sg.absorb(&g, root)
        })
        .collect();
    let tree_infer = (model, sg, roots[0], false);
    [tree_train, bilstm_train, tree_infer]
}

/// The three seeded batches the pins below lower: see [`pinned_batches`].
fn pinned_artifacts() -> [LoweredScript; 3] {
    pinned_artifacts_for(Helpers::Auto)
}

/// [`pinned_artifacts`], lowered for sweeps under `helpers`.
fn pinned_artifacts_for(helpers: Helpers) -> [LoweredScript; 3] {
    pinned_batches().map(|(model, g, root, train)| {
        let (plan, gs) = generate_on_titan_v(&model, &g, root, train);
        let device = gpu_sim::DeviceConfig::titan_v();
        lowered::lower_for(&plan, &gs, GpuSim::new(device).cost_model(), helpers)
    })
}

/// FNV-1a over what the generator hands on: the encoded scripts
/// (`ScriptSet::encode`), then the debug rendering of the literals, the
/// barrier count, the forward and backward instruction counts, the pool
/// length, the key and the value and derivative offsets.
fn script_digest(gs: &vpps::script::GeneratedScript) -> u64 {
    let rest = format!(
        "{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}",
        gs.literals,
        gs.num_barriers,
        gs.forward_instructions,
        gs.backward_instructions,
        gs.pool_len,
        gs.key,
        gs.layout.value_off,
        gs.layout.deriv_off
    );
    let bytes = gs.scripts.encode().into_iter().chain(rest.into_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The generated scripts of the three [`pinned_batches`] and of a
/// forward-only serving super-graph — four Tree-LSTM h = 64 requests
/// absorbed into a reused scratch the way a device does it, inferring from
/// the first request's root — against digests recorded at commit `09589b9`.
/// The generator may change how it places and collects instructions; the
/// scripts, literals, counts, pool layout and key it hands on may not.
#[test]
fn generated_scripts_are_pinned_across_commits() {
    use vpps_datasets::{Treebank, TreebankConfig};
    use vpps_models::{DynamicModel, TreeLstm};

    let mut got: Vec<u64> = pinned_batches()
        .iter()
        .map(|(model, g, root, train)| {
            script_digest(&generate_on_titan_v(model, g, *root, *train).1)
        })
        .collect();

    let mut model = Model::new(11);
    let arch = TreeLstm::register(&mut model, 300, 64, 64, 5);
    let requests: Vec<(Graph, NodeId)> = Treebank::new(TreebankConfig {
        vocab: 300,
        min_len: 2,
        max_len: 9,
        classes: 5,
        seed: 11,
    })
    .samples(7)
    .iter()
    .map(|s| arch.build(&model, s))
    .collect();
    let mut scratch = Graph::new();
    for (g, root) in &requests[..3] {
        scratch.absorb(g, *root);
    }
    scratch.clear();
    let roots: Vec<NodeId> = requests[3..]
        .iter()
        .map(|(g, root)| scratch.absorb(g, *root))
        .collect();
    got.push(script_digest(
        &generate_on_titan_v(&model, &scratch, roots[0], false).1,
    ));

    assert_eq!(
        got,
        [
            2_893_014_877_055_805_573,
            3_900_735_809_668_949_702,
            8_469_431_739_527_269_713,
            17_698_554_432_295_857_415
        ],
        "generated scripts moved"
    );
}

/// The lowered stream of the three [`pinned_artifacts`], hashed field by
/// field, against the digests recorded at commit `6cbde97`. Lowering may
/// change how it finds the order; the micro-ops, their order, the patch
/// points and the bounds it emits may not: swapping one conflicting pair or
/// leaving one same-key op out of its group changes a digest.
#[test]
fn lowered_stream_is_pinned_across_commits() {
    let [tree_train, bilstm_train, tree_infer] = pinned_artifacts();
    let got = [&tree_train, &bilstm_train, &tree_infer].map(stream_digest);
    assert_eq!(
        got,
        [
            9_501_585_351_899_488_067,
            8_755_968_626_577_170_907,
            392_178_029_743_340_828
        ],
        "lowered streams moved (op counts {}, {}, {})",
        tree_train.ops.len(),
        bilstm_train.ops.len(),
        tree_infer.ops.len()
    );
}

/// Seeded graphs of every model in `vpps_models`, one and two samples per
/// graph (the pair folded by `build_batch`), plus an 8-request Tree-LSTM
/// serving super-graph absorbed the way a device does it: into a reused
/// scratch that last held another batch, inferring from the first request's
/// root or training from the sum of all eight.
fn keyed_graphs() -> Vec<(Graph, NodeId)> {
    use vpps_datasets::{TaggedCorpus, TaggedCorpusConfig, Treebank, TreebankConfig};
    use vpps_models::{
        bilstm_char::CharTaggedSentence, build_batch, BiLstmCharTagger, BiLstmTagger, DynamicModel,
        GruCell, LstmCell, Rvnn, TdLstm, TdRnn, TreeLstm,
    };

    fn one_and_two<S, M: DynamicModel<S>>(
        arch: &M,
        model: &Model,
        samples: &[S],
        out: &mut Vec<(Graph, NodeId)>,
    ) {
        out.push(arch.build(model, &samples[0]));
        out.push(build_batch(arch, model, &samples[1..3]));
    }

    let bank = |seed: u64| {
        Treebank::new(TreebankConfig {
            vocab: 120,
            min_len: 2,
            max_len: 9,
            classes: 5,
            seed,
        })
        .samples(3)
    };
    let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
        vocab: 120,
        sentences: 16,
        min_len: 3,
        max_len: 7,
        seed: 41,
        ..TaggedCorpusConfig::default()
    });
    let mut out = Vec::new();

    let mut model = Model::new(41);
    let tree = TreeLstm::register(&mut model, 120, 12, 16, 5);
    one_and_two(&tree, &model, &bank(41), &mut out);
    let rvnn = Rvnn::register(&mut model, 120, 12, 5);
    one_and_two(&rvnn, &model, &bank(42), &mut out);
    let td_rnn = TdRnn::register(&mut model, 120, 12, 10, 5);
    one_and_two(&td_rnn, &model, &bank(43), &mut out);
    let td_lstm = TdLstm::register(&mut model, 120, 12, 10, 5);
    one_and_two(&td_lstm, &model, &bank(44), &mut out);
    let bilstm = BiLstmTagger::register(&mut model, 120, 10, 12, 10, 9);
    one_and_two(&bilstm, &model, corpus.sentences(), &mut out);
    let chars = BiLstmCharTagger::register(&mut model, 120, 40, 12, 6, 10, 10, 9);
    let annotated: Vec<CharTaggedSentence> = corpus.sentences()[3..6]
        .iter()
        .map(|s| CharTaggedSentence::annotate(s.clone(), &corpus))
        .collect();
    one_and_two(&chars, &model, &annotated, &mut out);

    // The recurrent cells over a lookup sequence, each with a loss.
    let emb = model.add_lookup("keys.emb", 120, 8);
    let gru = GruCell::register(&mut model, "keys.gru", 8, 8);
    let lstm = LstmCell::register(&mut model, "keys.lstm", 8, 8);
    let words = |g: &mut Graph| -> Vec<NodeId> {
        [3, 17, 5, 99]
            .iter()
            .map(|&w| g.lookup(&model, emb, w))
            .collect()
    };
    let mut g = Graph::new();
    let xs = words(&mut g);
    let h = *gru.run(&model, &mut g, &xs).last().expect("four steps");
    let loss = g.pick_neg_log_softmax(h, 2);
    out.push((g, loss));
    let mut g = Graph::new();
    let xs = words(&mut g);
    let mut state = lstm.initial_state(&mut g);
    for &x in &xs {
        state = lstm.step(&model, &mut g, x, state);
    }
    let loss = g.pick_neg_log_softmax(state.0, 6);
    out.push((g, loss));

    let mut scratch = Graph::new();
    let requests = bank(45)
        .into_iter()
        .chain(bank(46))
        .chain(bank(47))
        .map(|s| tree.build(&model, &s))
        .collect::<Vec<_>>();
    for (g, root) in &requests[..3] {
        scratch.absorb(g, *root);
    }
    scratch.clear();
    let roots: Vec<NodeId> = requests[1..9]
        .iter()
        .map(|(g, root)| scratch.absorb(g, *root))
        .collect();
    out.push((scratch.clone(), roots[0]));
    let loss = scratch.sum(&roots);
    out.push((scratch, loss));
    out
}

/// `structural_hash` and `dispatch_key` — the batching key and the graph's
/// part of the lowered cache key — of every [`keyed_graphs`] graph, both
/// inferring and training, against a digest recorded at commit `5f75efa`,
/// where every node still owned its argument list. A change to how a graph
/// stores its nodes may not move one word of either key.
#[test]
fn graph_keys_are_pinned_across_commits() {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let graphs = keyed_graphs();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    let mut key = Vec::new();
    for (g, root) in &graphs {
        eat(g.structural_hash());
        for train in [false, true] {
            key.clear();
            g.dispatch_key(*root, train, &mut key);
            eat(key.len() as u64);
            key.iter().for_each(|&w| eat(u64::from(w)));
        }
    }
    let nodes: usize = graphs.iter().map(|(g, _)| g.len()).sum();
    assert_eq!(
        (graphs.len(), nodes, digest),
        (16, 9_147, 8_100_526_705_740_397_628),
        "graph keys moved"
    );
}

/// FNV-1a over the debug rendering of an artifact's kernel calls: how many
/// ops each runs, in stream order.
fn blocks_digest(art: &LoweredScript) -> u64 {
    let calls: Vec<usize> = art.blocks().map(|block| block.len()).collect();
    format!("{calls:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The kernel calls of the three [`pinned_artifacts`] (whose streams the
/// test above pins), against digests recorded at commit `5b1960f`, where the
/// sweep still formed every block itself: the digests were computed there
/// by walking each stream with that sweep's own formation
/// (`matvec_block_len` / `outer_block_len`, one call per op otherwise). So
/// lowering records exactly the calls the sweep used to make.
#[test]
fn lowered_blocks_are_pinned_across_commits() {
    let artifacts = pinned_artifacts();
    let blocked = artifacts.each_ref().map(|art| {
        let blocks = art.blocks().filter(|block| block.len() > 1);
        blocks.map(|block| block.len()).sum::<usize>()
    });
    assert_eq!(
        artifacts.each_ref().map(blocks_digest),
        [
            89_667_008_120_414_488,
            3_630_193_916_924_831_290,
            12_867_760_289_617_602_825
        ],
        "kernel calls moved (ops in blocks: {blocked:?})"
    );
}

/// The wave plans of the three [`pinned_artifacts`], lowered for sweeps
/// under `Helpers::Forced` — every level with chunk work planned, on any
/// number of cores — against digests recorded at commit `3e2c482`. How
/// lowering finds the plan may change; the waves, their work and each op's
/// piece may not.
#[test]
fn wave_parallel_plans_are_pinned_across_commits() {
    let artifacts = pinned_artifacts_for(Helpers::Forced);
    let waves = artifacts.each_ref().map(|art| art.wave_plan_digest());
    assert_eq!(
        waves,
        [
            9_115_553_206_795_236_682,
            7_269_334_449_591_159_432,
            7_192_523_457_943_978_855
        ],
        "wave plans moved"
    );
}

/// Through a `Handle` training a fixed shape, every batch after the first is
/// a cache hit found from its graph — the stats the `lower.script.cache_hit`
/// / `lower.graph.cache_hit` counters mirror.
#[test]
fn handle_warm_path_hits_after_first_batch() {
    use vpps::{BackendKind, Handle, RpwMode, VppsOptions};

    let recipe = GraphRecipe {
        ops: vec![0, 2, 3, 1, 6],
        picks: vec![5; 30],
        label: 1,
    };
    let mut model = test_model();
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        pool_capacity: 1 << 18,
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
    for _ in 0..5 {
        let (g, loss) = build_from_recipe(&model, &recipe);
        handle.fb(&mut model, &g, loss);
    }
    let stats = handle.lowered_cache_stats();
    assert_eq!(stats.script_misses, 1, "only the cold batch lowers");
    assert_eq!(stats.script_hits, 4, "every warm batch hits");
    assert_eq!(
        stats.graph_hits, stats.script_hits,
        "every warm batch is found from its graph (no script generated)"
    );
    assert_eq!(stats.script_re_misses, 0);
}
