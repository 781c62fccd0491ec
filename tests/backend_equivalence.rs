//! Property: every execution backend is the *same machine*. Whatever random
//! dynamic graph the generator produces, every backend (`BackendKind::ALL`:
//! the event-driven interpreter and the lowered micro-op executor) must
//! return bit-identical losses, bit-identical updated parameters, and
//! identical unified metrics (DRAM bytes per traffic class, launch counts) —
//! and every script they run must pass `script::validate_protocol`.
//!
//! Reuses the graph generators from `tests/support/graphgen.rs` shared with
//! `proptest_random_graphs.rs`, so backend agreement is tested over the same
//! graph space as reference agreement.

use dyn_graph::Model;
use gpu_sim::{GpuSim, Metrics, TrafficTag};
use proptest::prelude::*;
use vpps::engine;
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, validate_protocol, TableLayout};
use vpps::{BackendKind, ExecutionBackend, Handle, KernelPlan, RpwMode, VppsOptions};

#[path = "support/graphgen.rs"]
mod graphgen;
use graphgen::{arb_recipe, build_from_recipe, small_device, GraphRecipe, DIM};

/// Runs one recipe start-to-finish on one backend with its own fresh model,
/// pool and device, returning the loss, the batch metrics and the updated
/// dense parameters.
fn run_on_backend(
    recipe: &GraphRecipe,
    backend: &dyn ExecutionBackend,
) -> (f32, Metrics, Vec<u32>) {
    let mut model = Model::new(987);
    model.add_matrix("W1", DIM, DIM);
    model.add_matrix("W2", DIM, DIM);
    model.add_bias("b", DIM);
    let (g, loss) = build_from_recipe(&model, recipe);

    let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
    let mut pool = vpps_tensor::Pool::with_capacity(1 << 18);
    let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    assert_eq!(
        validate_protocol(&gs.scripts, plan.distribution()),
        Ok(()),
        "generated script violates the barrier protocol"
    );
    for (id, node) in g.iter() {
        if let dyn_graph::Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
    let mut gpu = GpuSim::new(small_device());
    let run = engine::run_batch(
        backend,
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        ExecConfig {
            learning_rate: 0.05,
            weight_decay: 0.0,
            apply_update: true,
        },
    );
    let params: Vec<u32> = model
        .params()
        .flat_map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (run.loss, run.metrics, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All backends agree bit-for-bit on any random graph.
    #[test]
    fn backends_agree_on_random_graphs(recipe in arb_recipe()) {
        let (ref_loss, ref_metrics, ref_params) = run_on_backend(&recipe, &engine::EventInterp);
        for backend in BackendKind::ALL.map(BackendKind::backend) {
            let name = backend.name();
            let (loss, metrics, params) = run_on_backend(&recipe, backend);
            prop_assert_eq!(
                loss.to_bits(), ref_loss.to_bits(),
                "{} loss {} != event-interp loss {}", name, loss, ref_loss
            );
            prop_assert_eq!(
                metrics.dram.loads(TrafficTag::Weight),
                ref_metrics.dram.loads(TrafficTag::Weight),
                "{} DRAM weight bytes differ", name
            );
            prop_assert_eq!(&metrics.dram, &ref_metrics.dram, "{} DRAM bytes differ", name);
            prop_assert_eq!(metrics.launches, ref_metrics.launches, "{} launches", name);
            prop_assert_eq!(
                metrics.kernel_time, ref_metrics.kernel_time,
                "{} modeled kernel time differs", name
            );
            prop_assert_eq!(&params, &ref_params, "{} updated parameters diverged", name);
        }
    }
}

/// Trains one random recipe through the full `Handle` path (pipelined
/// accounting, recovery plumbing) and returns every observable the fault
/// machinery could perturb: loss bits, updated parameter bits, the modeled
/// wall clock, and the batch metrics.
fn run_handle_with_faults(
    recipe: &GraphRecipe,
    kind: BackendKind,
    faults: gpu_sim::FaultConfig,
) -> (u32, Vec<u32>, u64, Metrics) {
    let mut model = Model::new(987);
    model.add_matrix("W1", DIM, DIM);
    model.add_matrix("W2", DIM, DIM);
    model.add_bias("b", DIM);
    let (g, loss) = build_from_recipe(&model, recipe);
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        learning_rate: 0.05,
        weight_decay: 0.0,
        pool_capacity: 1 << 18,
        backend: kind,
        faults,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, small_device(), opts).expect("tiny model fits");
    handle.fb(&mut model, &g, loss);
    let loss_bits = handle.sync_get_latest_loss().to_bits();
    let params: Vec<u32> = model
        .params()
        .flat_map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (
        loss_bits,
        params,
        handle.wall_time().as_ns().to_bits(),
        handle.metrics(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An armed fault injector whose rates are all zero is invisible: on
    /// every backend it produces bit-identical losses, parameters, virtual
    /// time, and metrics to a run with the injector disabled outright.
    #[test]
    fn armed_rate_zero_injector_is_bit_identical_to_disabled(recipe in arb_recipe()) {
        for kind in BackendKind::ALL {
            let armed =
                run_handle_with_faults(&recipe, kind, gpu_sim::FaultConfig::uniform(7, 0.0));
            let disabled =
                run_handle_with_faults(&recipe, kind, gpu_sim::FaultConfig::disabled());
            prop_assert_eq!(armed.0, disabled.0, "{:?}: loss bits differ", kind);
            prop_assert_eq!(&armed.1, &disabled.1, "{:?}: parameter bits differ", kind);
            prop_assert_eq!(armed.2, disabled.2, "{:?}: wall-clock bits differ", kind);
            prop_assert_eq!(&armed.3.dram, &disabled.3.dram, "{:?}: DRAM bytes differ", kind);
            prop_assert_eq!(
                armed.3.launches, disabled.3.launches,
                "{:?}: launch counts differ", kind
            );
        }
    }
}

/// Trains a fixed workload on one backend and reports its loss history.
fn train_workload(kind: BackendKind, batches: usize) -> Vec<f32> {
    use vpps_datasets::{Treebank, TreebankConfig};
    use vpps_models::{build_batch, TreeLstm};

    let mut bank = Treebank::new(TreebankConfig {
        vocab: 400,
        min_len: 4,
        max_len: 10,
        classes: 5,
        seed: 5,
    });
    let samples = bank.samples(4 * batches);
    let mut model = Model::new(31415);
    let arch = TreeLstm::register(&mut model, 400, 48, 48, 5);
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        pool_capacity: 1 << 22,
        backend: kind,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, small_device(), opts).expect("tiny Tree-LSTM fits");
    let mut losses = Vec::new();
    for chunk in samples.chunks(4) {
        let (g, l) = build_batch(&arch, &model, chunk);
        handle.fb(&mut model, &g, l);
        losses.push(handle.sync_get_latest_loss());
    }
    losses
}

/// On a real multi-batch Tree-LSTM workload the lowered executor matches the
/// serial interpreter exactly, including across parameter updates (the warm
/// batches run from the handle's lowered-artifact cache).
#[test]
fn lowered_matches_reference_on_real_workload() {
    let serial_losses = train_workload(BackendKind::EventInterp, 8);
    let lowered_losses = train_workload(BackendKind::Lowered, 8);
    assert_eq!(
        serial_losses, lowered_losses,
        "lowered backend must agree bit-for-bit"
    );
}
