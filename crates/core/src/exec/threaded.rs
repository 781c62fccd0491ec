//! Legacy entry point for the real-thread executor.
//!
//! The executor itself now lives in the unified engine layer: see
//! [`crate::engine::Threaded`], which runs the `signal`/`wait` protocol on
//! actual atomics — one OS thread per virtual persistent processor, an
//! atomic arrival counter with release semantics on `signal` and an
//! acquire-spin on `wait` (the `atomicAdd` + `__threadfence` pairing of
//! §III-B1), and lock-free CAS adds for accumulating writes. This module
//! keeps the original convenience wrapper used by validation tests and
//! examples.

use dyn_graph::Model;
use gpu_sim::{CostModel, DeviceConfig};
use vpps_tensor::Pool;

use crate::engine::{ExecutionBackend, Session, Threaded};
use crate::exec::interp::ExecConfig;
use crate::exec::regcache::RegCache;
use crate::script::GeneratedScript;
use crate::specialize::{GradStrategy, KernelPlan};

/// Executes one batch's scripts on real threads (one per VPP), applying the
/// in-register epilogue update to `model`. Functionally equivalent to
/// [`crate::exec::run_persistent_kernel`] but without a device — no traffic
/// or timing is recorded; the GEMM fallback (if the plan uses it) must still
/// be applied afterwards.
///
/// Returns the loss value.
///
/// # Panics
///
/// Panics if a script references memory outside the pool. A protocol bug in
/// the generator would deadlock here; tests bound this with small graphs.
pub fn run_threaded(
    plan: &KernelPlan,
    gs: &GeneratedScript,
    pool: &mut Pool,
    model: &mut Model,
    cfg: ExecConfig,
) -> f32 {
    // No device is involved: session timing is computed against a throwaway
    // cost model and discarded (only the loss is returned).
    let cost = CostModel::new(DeviceConfig::titan_v());
    let session = Session::build(plan, gs, cfg, &cost, None);
    let mut cache = RegCache::new(plan.distribution());
    cache.load_from_model(model);
    let outcome = Threaded.run(&session, pool, &mut cache);
    if plan.grad_strategy() == GradStrategy::InRegister {
        cache.apply_updates(model, cfg.learning_rate, cfg.weight_decay);
    }
    outcome.loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::interp::run_persistent_kernel;
    use crate::script::{generate, TableLayout};
    use dyn_graph::{Graph, Model, NodeId};
    use gpu_sim::{DeviceConfig, GpuSim};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_device() -> DeviceConfig {
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 4;
        d
    }

    /// Builds a random dynamic graph over the model's two matrices.
    fn random_graph(
        m: &Model,
        w1: dyn_graph::ParamId,
        w2: dyn_graph::ParamId,
        rng: &mut StdRng,
    ) -> (Graph, NodeId) {
        let dim = 24;
        let mut g = Graph::new();
        let mut frontier: Vec<NodeId> = (0..3)
            .map(|_| {
                let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                g.input(v)
            })
            .collect();
        for _ in 0..rng.gen_range(4..12) {
            let pick = frontier[rng.gen_range(0..frontier.len())];
            let node = match rng.gen_range(0..6) {
                0 => g.matvec(m, w1, pick),
                1 => g.matvec(m, w2, pick),
                2 => g.tanh(pick),
                3 => g.sigmoid(pick),
                4 => {
                    let other = frontier[rng.gen_range(0..frontier.len())];
                    g.add(pick, other)
                }
                _ => {
                    let other = frontier[rng.gen_range(0..frontier.len())];
                    g.cwise_mult(pick, other)
                }
            };
            frontier.push(node);
        }
        let last = *frontier.last().unwrap();
        let loss = g.pick_neg_log_softmax(last, 1);
        (g, loss)
    }

    fn write_inputs(g: &Graph, gs: &generate::GeneratedScript, pool: &mut Pool) {
        for (id, node) in g.iter() {
            if let dyn_graph::Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
    }

    #[test]
    fn threaded_matches_sequential_on_random_graphs() {
        for seed in 0..8u64 {
            let mut model_a = Model::new(100 + seed);
            let w1 = model_a.add_matrix("W1", 24, 24);
            let w2 = model_a.add_matrix("W2", 24, 24);
            let mut model_b = model_a.clone();

            let plan = KernelPlan::build(&model_a, &small_device(), 1).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, loss_node) = random_graph(&model_a, w1, w2, &mut rng);

            // Sequential run.
            let mut pool_a = Pool::with_capacity(1 << 18);
            let tables_a = TableLayout::install(&model_a, &mut pool_a).unwrap();
            let gs_a = generate::generate(&g, loss_node, &plan, &mut pool_a, &tables_a).unwrap();
            write_inputs(&g, &gs_a, &mut pool_a);
            let mut gpu = GpuSim::new(small_device());
            let run = run_persistent_kernel(
                &plan,
                &gs_a,
                &mut pool_a,
                &mut model_a,
                &mut gpu,
                ExecConfig::default(),
            );

            // Threaded run.
            let mut pool_b = Pool::with_capacity(1 << 18);
            let tables_b = TableLayout::install(&model_b, &mut pool_b).unwrap();
            let gs_b = generate::generate(&g, loss_node, &plan, &mut pool_b, &tables_b).unwrap();
            write_inputs(&g, &gs_b, &mut pool_b);
            let loss_b = run_threaded(
                &plan,
                &gs_b,
                &mut pool_b,
                &mut model_b,
                ExecConfig::default(),
            );

            assert!(
                (run.loss - loss_b).abs() < 1e-4,
                "seed {seed}: sequential {} vs threaded {}",
                run.loss,
                loss_b
            );
            for ((_, pa), (_, pb)) in model_a.params().zip(model_b.params()) {
                for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
                    assert!((x - y).abs() < 1e-4, "seed {seed}: updated params diverged");
                }
            }
        }
    }

    #[test]
    fn threaded_handles_wide_fan_in() {
        // Many VPPs accumulating into one derivative concurrently — the
        // atomic-add path under real contention.
        let mut model = Model::new(55);
        let w = model.add_matrix("W", 16, 16);
        let plan = KernelPlan::build(&model, &small_device(), 1).unwrap();
        let mut g = Graph::new();
        let x = g.input(vec![0.3; 16]);
        let shared = g.tanh(x);
        let mut heads = Vec::new();
        for _ in 0..24 {
            let h = g.matvec(&model, w, shared);
            let t = g.tanh(h);
            let l = g.pick_neg_log_softmax(t, 2);
            heads.push(l);
        }
        let loss_node = g.sum(&heads);

        let mut ref_model = model.clone();
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).unwrap();
        let gs = generate::generate(&g, loss_node, &plan, &mut pool, &tables).unwrap();
        write_inputs(&g, &gs, &mut pool);
        let loss = run_threaded(&plan, &gs, &mut pool, &mut model, ExecConfig::default());

        let ref_loss = dyn_graph::exec::forward_backward(&g, &mut ref_model, loss_node);
        assert!(
            (loss - ref_loss).abs() < 1e-3,
            "threaded {loss} vs reference {ref_loss}"
        );
    }
}
