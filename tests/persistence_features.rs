//! Integration tests for the persistence/tooling features around the core
//! system: the on-disk kernel cache (paper §IV-F), model checkpointing, and
//! kernel-trace export.

use dyn_graph::{load_model, save_model, Graph, Model, NodeId, Trainer};
use gpu_sim::{DeviceConfig, GpuSim};
use vpps::engine::run_batch_traced;
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, TableLayout};
use vpps::{KernelPlan, PlanCache};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{build_batch, DynamicModel, TreeLstm};
use vpps_tensor::Pool;

fn device() -> DeviceConfig {
    DeviceConfig::titan_v()
}

#[test]
fn kernel_cache_amortizes_jit_across_sessions() {
    let dir = std::env::temp_dir().join(format!("vpps-itest-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = PlanCache::open(&dir).unwrap();

    let mut model = Model::new(42);
    let arch = TreeLstm::register(&mut model, 100, 32, 32, 5);

    // "Session 1": cold cache, full compile cost.
    let (plan1, hit1) = cache.build(&model, &device(), 1).unwrap();
    assert!(!hit1);
    let cold = plan1.jit_cost();
    assert!(cold.program_compile.as_secs() > 0.0);

    // "Session 2": same model spec -> hit; only module load remains.
    let (plan2, hit2) = cache.build(&model, &device(), 1).unwrap();
    assert!(hit2);
    assert_eq!(plan2.jit_cost().program_compile.as_secs(), 0.0);
    assert_eq!(plan2.jit_cost().module_load, cold.module_load);

    // The cached plan trains correctly.
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 100,
        min_len: 3,
        max_len: 6,
        ..Default::default()
    });
    let samples = bank.samples(2);
    let (g, loss) = build_batch(&arch, &model, &samples);
    let mut pool = Pool::with_capacity(1 << 20);
    let tables = TableLayout::install(&model, &mut pool).unwrap();
    let gs = generate::generate(&g, loss, &plan2, &mut pool, &tables).unwrap();
    let mut gpu = GpuSim::new(device());
    let (run, _) = run_batch_traced(
        &plan2,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        ExecConfig::default(),
    );
    assert!(run.loss.is_finite() && run.loss > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_resume_continues_training_identically() {
    let build = |m: &Model, w: dyn_graph::ParamId, step: usize| -> (Graph, NodeId) {
        let mut g = Graph::new();
        let mut h = g.input(vec![0.2; 16]);
        for _ in 0..(1 + step % 3) {
            let z = g.matvec(m, w, h);
            h = g.tanh(z);
        }
        (g, h)
    };

    // Train 3 steps, checkpoint, train 3 more.
    let mut m = Model::new(9);
    let w = m.add_matrix("W", 16, 16);
    let trainer = Trainer::new(0.1);
    for step in 0..3 {
        let (mut g, h) = build(&m, w, step);
        let l = g.pick_neg_log_softmax(h, step % 4);
        dyn_graph::exec::forward_backward(&g, &mut m, l);
        trainer.update(&mut m);
    }
    let checkpoint = save_model(&m);
    let mut direct = m.clone();
    let mut resumed = load_model(&checkpoint).unwrap();
    for step in 3..6 {
        for mm in [&mut direct, &mut resumed] {
            let (mut g, h) = build(mm, w, step);
            let l = g.pick_neg_log_softmax(h, step % 4);
            dyn_graph::exec::forward_backward(&g, mm, l);
            trainer.update(mm);
        }
    }
    for ((_, a), (_, b)) in direct.params().zip(resumed.params()) {
        assert_eq!(
            a.value, b.value,
            "resumed training must match uninterrupted training"
        );
    }
}

#[test]
fn kernel_trace_captures_the_whole_timeline() {
    let mut model = Model::new(77);
    let arch = TreeLstm::register(&mut model, 80, 16, 16, 5);
    let plan = KernelPlan::build(&model, &device(), 1).unwrap();
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 80,
        min_len: 4,
        max_len: 7,
        ..Default::default()
    });
    let s = bank.sample();
    let (g, loss) = arch.build(&model, &s);
    let mut pool = Pool::with_capacity(1 << 20);
    let tables = TableLayout::install(&model, &mut pool).unwrap();
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).unwrap();

    let mut gpu = GpuSim::new(device());
    let (run, trace) = run_batch_traced(
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        ExecConfig::default(),
    );

    // Every instruction (compute + sync) produced exactly one event.
    assert_eq!(trace.len(), gs.scripts.total_instructions());
    // Compute events match the run's count.
    let compute = trace
        .events
        .iter()
        .filter(|e| e.name != "signal" && e.name != "wait")
        .count();
    assert_eq!(compute, run.instructions);
    // No event extends past the script-phase end on its own VPP clock.
    for e in &trace.events {
        assert!(e.start_ns + e.dur_ns <= run.max_vpp_time.as_ns() + 1e-6);
        assert!(e.dur_ns >= 0.0);
    }
    // Barrier waiting exists (this is a deep sequential graph).
    assert!(trace.wait_ns() > 0.0);

    // Export is parseable-looking JSON with one record per event.
    let mut chrome = vpps_obs::ChromeTrace::new();
    chrome.add_sim_trace(0, &trace);
    let json = chrome.to_json();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.len());
}
