//! Training-mode coverage: weight decay, synchronous execution, profile
//! mode, and the GEMM fallback all flowing through the public `Handle` API
//! and agreeing with the reference executor.

use dyn_graph::{exec as refexec, Graph, Model, NodeId, Trainer};
use gpu_sim::DeviceConfig;
use vpps::{GradStrategy, Handle, KernelPlan, RpwMode, VppsOptions};

fn device() -> DeviceConfig {
    DeviceConfig::titan_v()
}

fn toy_model() -> (Model, dyn_graph::ParamId, dyn_graph::ParamId) {
    let mut m = Model::new(4040);
    let w = m.add_matrix("W", 20, 20);
    let cls = m.add_matrix("cls", 4, 20);
    (m, w, cls)
}

fn toy_graph(
    m: &Model,
    w: dyn_graph::ParamId,
    cls: dyn_graph::ParamId,
    steps: usize,
    label: usize,
) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let mut h = g.input(vec![0.3; 20]);
    for _ in 0..steps {
        let z = g.matvec(m, w, h);
        h = g.tanh(z);
    }
    let o = g.matvec(m, cls, h);
    let l = g.pick_neg_log_softmax(o, label);
    (g, l)
}

#[test]
fn weight_decay_flows_through_the_kernel_epilogue() {
    let (model, w, cls) = toy_model();
    let mut vpps_model = model.clone();
    let mut ref_model = model.clone();

    let opts = VppsOptions {
        learning_rate: 0.05,
        weight_decay: 0.02,
        pool_capacity: 1 << 20,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&vpps_model, device(), opts).unwrap();
    let trainer = Trainer::new(0.05).with_weight_decay(0.02);

    for step in 0..4 {
        let (g, l) = toy_graph(&vpps_model, w, cls, 1 + step % 2, step % 4);
        handle.fb(&mut vpps_model, &g, l);
        let got = handle.sync_get_latest_loss();

        let (rg, rl) = toy_graph(&ref_model, w, cls, 1 + step % 2, step % 4);
        let want = refexec::forward_backward(&rg, &mut ref_model, rl);
        trainer.update(&mut ref_model);
        assert!((got - want).abs() < 5e-3, "step {step}: {got} vs {want}");
    }
    for ((_, pa), (_, pb)) in vpps_model.params().zip(ref_model.params()) {
        for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
            assert!(
                (x - y).abs() < 5e-3,
                "decayed parameter {} diverged",
                pa.name
            );
        }
    }
}

#[test]
fn synchronous_mode_same_math_more_wall_time() {
    let run = |synchronous: bool| {
        let (mut m, w, cls) = toy_model();
        let opts = VppsOptions {
            synchronous,
            pool_capacity: 1 << 20,
            ..VppsOptions::default()
        };
        let mut handle = Handle::new(&m, device(), opts).unwrap();
        let mut last = 0.0;
        for step in 0..5 {
            let (g, l) = toy_graph(&m, w, cls, 2, step % 4);
            handle.fb(&mut m, &g, l);
            last = handle.sync_get_latest_loss();
        }
        (last, handle.steady_state_time(), m)
    };
    let (loss_async, t_async, m_async) = run(false);
    let (loss_sync, t_sync, m_sync) = run(true);
    assert_eq!(loss_async, loss_sync, "pipelining must not change the math");
    for ((_, pa), (_, pb)) in m_async.params().zip(m_sync.params()) {
        assert_eq!(pa.value, pb.value);
    }
    assert!(
        t_sync > t_async,
        "synchronous {t_sync} should exceed pipelined {t_async}"
    );
}

#[test]
fn profile_mode_trains_identically_to_fixed_rpw() {
    // The rpw choice changes performance, never results.
    let (model, w, cls) = toy_model();
    let run = |rpw: RpwMode| {
        let mut m = model.clone();
        let opts = VppsOptions {
            rpw,
            pool_capacity: 1 << 20,
            ..VppsOptions::default()
        };
        let mut handle = Handle::new(&m, device(), opts).unwrap();
        let mut losses = Vec::new();
        for step in 0..6 {
            let (g, l) = toy_graph(&m, w, cls, 2, step % 4);
            handle.fb(&mut m, &g, l);
            losses.push(handle.sync_get_latest_loss());
        }
        (losses, m)
    };
    let (l_fixed, m_fixed) = run(RpwMode::Fixed(1));
    let (l_prof, m_prof) = run(RpwMode::Profile);
    for (a, b) in l_fixed.iter().zip(&l_prof) {
        assert!(
            (a - b).abs() < 1e-4,
            "profile mode changed the math: {a} vs {b}"
        );
    }
    for ((_, pa), (_, pb)) in m_fixed.params().zip(m_prof.params()) {
        for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

#[test]
fn forced_strategies_agree_on_results() {
    // Same model, both gradient strategies viable: identical training.
    let (model, w, cls) = toy_model();
    assert!(KernelPlan::build_forced(&model, &device(), 1, GradStrategy::InRegister).is_ok());
    assert!(KernelPlan::build_forced(&model, &device(), 1, GradStrategy::GemmFallback).is_ok());

    use vpps::engine::{run_batch, EventInterp};
    use vpps::exec::fallback::apply_gemm_fallback;
    use vpps::exec::interp::ExecConfig;
    use vpps::script::{generate, TableLayout};
    use vpps_tensor::Pool;

    let run = |strategy: GradStrategy| {
        let mut m = model.clone();
        let plan = KernelPlan::build_forced(&m, &device(), 1, strategy).unwrap();
        let mut pool = Pool::with_capacity(1 << 20);
        let tables = TableLayout::install(&m, &mut pool).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 3, 2);
        let gs = generate::generate(&g, l, &plan, &mut pool, &tables).unwrap();
        for (id, node) in g.iter() {
            if let dyn_graph::Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
        let mut gpu = gpu_sim::GpuSim::new(device());
        let cfg = ExecConfig::default();
        let run = run_batch(&EventInterp, &plan, &gs, &mut pool, &mut m, &mut gpu, cfg);
        apply_gemm_fallback(&plan, &gs.layout, &pool, &mut m, &mut gpu, cfg);
        (run.loss, m)
    };
    let (loss_reg, m_reg) = run(GradStrategy::InRegister);
    let (loss_gemm, m_gemm) = run(GradStrategy::GemmFallback);
    assert!((loss_reg - loss_gemm).abs() < 1e-4);
    for ((_, pa), (_, pb)) in m_reg.params().zip(m_gemm.params()) {
        for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
            assert!((x - y).abs() < 1e-3, "strategies disagree on {}", pa.name);
        }
    }
}
