//! Cross-crate validation of the real-thread protocol checker
//! (`engine::Threaded`): the `signal`/`wait` protocol on actual atomics must
//! reproduce the sequential interpreter's results on full benchmark models,
//! not just synthetic graphs.

use dyn_graph::Model;
use gpu_sim::{DeviceConfig, GpuSim};
use vpps::engine::{run_batch, EventInterp, Threaded};
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, TableLayout};
use vpps::{ExecutionBackend, KernelPlan};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{build_batch, DynamicModel, Rvnn, TreeLstm};
use vpps_tensor::Pool;

fn small_device() -> DeviceConfig {
    // Few SMs keeps thread counts reasonable while still spreading chunks.
    let mut d = DeviceConfig::titan_v();
    d.num_sms = 6;
    d
}

fn write_inputs(g: &dyn_graph::Graph, gs: &generate::GeneratedScript, pool: &mut Pool) {
    for (id, node) in g.iter() {
        if let dyn_graph::Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
}

/// Runs one training batch of `g` on `backend` from a fresh copy of `model`;
/// returns the loss and the updated copy.
fn run_on(
    backend: &dyn ExecutionBackend,
    plan: &KernelPlan,
    g: &dyn_graph::Graph,
    loss: dyn_graph::NodeId,
    model: &Model,
) -> (f32, Model) {
    let mut model = model.clone();
    let mut pool = Pool::with_capacity(1 << 20);
    let tables = TableLayout::install(&model, &mut pool).unwrap();
    let gs = generate::generate(g, loss, plan, &mut pool, &tables).unwrap();
    write_inputs(g, &gs, &mut pool);
    let mut gpu = GpuSim::new(small_device());
    let cfg = ExecConfig::default();
    let run = run_batch(backend, plan, &gs, &mut pool, &mut model, &mut gpu, cfg);
    (run.loss, model)
}

fn check_threaded_matches_sequential<S>(arch: &impl DynamicModel<S>, model: &Model, samples: &[S]) {
    let plan = KernelPlan::build(model, &small_device(), 1).unwrap();
    let (g, loss) = build_batch(arch, model, samples);

    let (seq, model_a) = run_on(&EventInterp, &plan, &g, loss, model);
    let (thr, model_b) = run_on(&Threaded, &plan, &g, loss, model);

    assert!(
        (seq - thr).abs() < 1e-3 * (1.0 + seq.abs()),
        "sequential {seq} vs threaded {thr}"
    );
    for ((_, pa), (_, pb)) in model_a.params().zip(model_b.params()) {
        for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
            assert!((x - y).abs() < 1e-3, "parameter {} diverged", pa.name);
        }
    }
}

#[test]
fn tree_lstm_threaded_equals_sequential() {
    let mut model = Model::new(600);
    let arch = TreeLstm::register(&mut model, 80, 12, 12, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 80,
        min_len: 3,
        max_len: 7,
        ..Default::default()
    });
    let samples = bank.samples(3);
    check_threaded_matches_sequential(&arch, &model, &samples);
}

#[test]
fn rvnn_threaded_equals_sequential() {
    let mut model = Model::new(601);
    let arch = Rvnn::register(&mut model, 60, 16, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 60,
        min_len: 2,
        max_len: 9,
        ..Default::default()
    });
    let samples = bank.samples(4);
    check_threaded_matches_sequential(&arch, &model, &samples);
}

#[test]
fn threaded_is_deterministic_up_to_float_reassociation() {
    // Atomic adds may reassociate float sums across runs; losses must still
    // agree within tight tolerance run-to-run.
    let mut model = Model::new(602);
    let arch = TreeLstm::register(&mut model, 80, 12, 12, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 80,
        min_len: 4,
        max_len: 8,
        ..Default::default()
    });
    let samples = bank.samples(2);
    let plan = KernelPlan::build(&model, &small_device(), 1).unwrap();
    let (g, loss) = build_batch(&arch, &model, &samples);

    let losses: Vec<f32> = (0..3)
        .map(|_| run_on(&Threaded, &plan, &g, loss, &model).0)
        .collect();
    for w in losses.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-4,
            "threaded runs disagree: {losses:?}"
        );
    }
}
