//! Ablation benches for the design decisions DESIGN.md calls out:
//!
//! 1. min-load vs round-robin VPP scheduling (paper §III-B1's load metric);
//! 2. in-register vs GEMM-fallback gradients (paper §III-C2);
//! 3. CISC vs RISC script encoding (paper §III-B2's discussion);
//! 4. asynchronous pipelining vs synchronous execution (paper §III-C1).

use criterion::{criterion_group, criterion_main, Criterion};
use dyn_graph::Model;
use gpu_sim::{DeviceConfig, GpuSim};
use vpps::engine::{run_batch, EventInterp};
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, SchedulePolicy, TableLayout};
use vpps::{GradStrategy, Handle, KernelPlan, RpwMode, VppsOptions};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{build_batch, TreeLstm};
use vpps_tensor::Pool;

fn setup() -> (Model, TreeLstm, Vec<vpps_datasets::TreeSample>) {
    let mut model = Model::new(8080);
    let arch = TreeLstm::register(&mut model, 400, 64, 64, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 400,
        min_len: 4,
        max_len: 10,
        ..Default::default()
    });
    let samples = bank.samples(4);
    (model, arch, samples)
}

fn device() -> DeviceConfig {
    DeviceConfig::titan_v()
}

/// Runs one batch under a scheduling policy, returning the simulated kernel
/// body time in microseconds.
fn kernel_time_with_policy(policy: SchedulePolicy) -> f64 {
    let (mut model, arch, samples) = setup();
    let plan = KernelPlan::build(&model, &device(), 1).expect("fits");
    let (g, loss) = build_batch(&arch, &model, &samples);
    let mut pool = Pool::with_capacity(1 << 22);
    let tables = TableLayout::install(&model, &mut pool).expect("fits");
    let gs =
        generate::generate_with_policy(&g, loss, &plan, &mut pool, &tables, policy).expect("fits");
    for (id, node) in g.iter() {
        if let dyn_graph::Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
    let mut gpu = GpuSim::new(device());
    let run = run_batch(
        &EventInterp,
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        ExecConfig::default(),
    );
    run.body_time.as_us()
}

fn ablation_scheduling(c: &mut Criterion) {
    let min_load = kernel_time_with_policy(SchedulePolicy::MinLoad);
    let round_robin = kernel_time_with_policy(SchedulePolicy::RoundRobin);
    eprintln!(
        "ablation[scheduling]: min-load kernel {min_load:.1}us vs round-robin {round_robin:.1}us"
    );
    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    group.bench_function("min_load", |b| {
        b.iter(|| kernel_time_with_policy(SchedulePolicy::MinLoad))
    });
    group.bench_function("round_robin", |b| {
        b.iter(|| kernel_time_with_policy(SchedulePolicy::RoundRobin))
    });
    group.finish();
}

/// Device time of a full handle-driven batch under a forced strategy.
fn device_time_with_strategy(strategy: GradStrategy) -> f64 {
    let (mut model, arch, samples) = setup();
    // Verify the forced plan exists before timing.
    KernelPlan::build_forced(&model, &device(), 1, strategy).expect("both strategies fit");
    let opts = VppsOptions {
        pool_capacity: 1 << 22,
        ..VppsOptions::default()
    };
    // The handle picks automatically; emulate forcing by building the plan
    // and running the kernel directly.
    let plan = KernelPlan::build_forced(&model, &device(), 1, strategy).expect("fits");
    let (g, loss) = build_batch(&arch, &model, &samples);
    let mut pool = Pool::with_capacity(opts.pool_capacity);
    let tables = TableLayout::install(&model, &mut pool).expect("fits");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    for (id, node) in g.iter() {
        if let dyn_graph::Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
    let mut gpu = GpuSim::new(device());
    run_batch(
        &EventInterp,
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        ExecConfig::default(),
    );
    vpps::exec::fallback::apply_gemm_fallback(
        &plan,
        &gs.layout,
        &pool,
        &mut model,
        &mut gpu,
        ExecConfig::default(),
    );
    gpu.now().as_us()
}

fn ablation_grad_strategy(c: &mut Criterion) {
    let in_reg = device_time_with_strategy(GradStrategy::InRegister);
    let gemm = device_time_with_strategy(GradStrategy::GemmFallback);
    eprintln!("ablation[gradients]: in-register {in_reg:.1}us vs GEMM fallback {gemm:.1}us");
    let mut group = c.benchmark_group("ablation_grad_strategy");
    group.sample_size(10);
    group.bench_function("in_register", |b| {
        b.iter(|| device_time_with_strategy(GradStrategy::InRegister))
    });
    group.bench_function("gemm_fallback", |b| {
        b.iter(|| device_time_with_strategy(GradStrategy::GemmFallback))
    });
    group.finish();
}

fn ablation_cisc_vs_risc(c: &mut Criterion) {
    let (model, arch, samples) = setup();
    let plan = KernelPlan::build(&model, &device(), 1).expect("fits");
    let (g, loss) = build_batch(&arch, &model, &samples);
    let mut pool = Pool::with_capacity(1 << 22);
    let tables = TableLayout::install(&model, &mut pool).expect("fits");
    let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
    let cisc_bytes = gs.scripts.encoded_bytes();
    let risc = gs.scripts.risc_estimate();
    eprintln!(
        "ablation[isa]: CISC {} instrs / {} bytes vs RISC {} instrs / {} bytes ({:.2}x more \
         host-managed instructions)",
        gs.scripts.total_instructions(),
        cisc_bytes,
        risc.instructions,
        risc.bytes,
        risc.instructions as f64 / gs.scripts.total_instructions() as f64
    );
    let mut group = c.benchmark_group("ablation_cisc_vs_risc");
    group.sample_size(10);
    group.bench_function("cisc_encode", |b| b.iter(|| gs.scripts.encode().len()));
    group.bench_function("risc_estimate", |b| b.iter(|| gs.scripts.risc_estimate()));
    group.finish();
}

/// Steady-state time of a short training run with/without pipelining.
fn steady_time(synchronous: bool) -> f64 {
    let (mut model, arch, samples) = setup();
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        synchronous,
        pool_capacity: 1 << 22,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, device(), opts).expect("fits");
    for s in &samples {
        let (g, l) = build_batch(&arch, &model, std::slice::from_ref(s));
        handle.fb(&mut model, &g, l);
    }
    handle.sync_get_latest_loss();
    handle.steady_state_time().as_us()
}

fn ablation_async(c: &mut Criterion) {
    let pipelined = steady_time(false);
    let synchronous = steady_time(true);
    eprintln!(
        "ablation[async]: pipelined {pipelined:.1}us vs synchronous {synchronous:.1}us \
         ({:.2}x speedup from overlap)",
        synchronous / pipelined
    );
    let mut group = c.benchmark_group("ablation_async");
    group.sample_size(10);
    group.bench_function("pipelined", |b| b.iter(|| steady_time(false)));
    group.bench_function("synchronous", |b| b.iter(|| steady_time(true)));
    group.finish();
}

criterion_group!(
    benches,
    ablation_scheduling,
    ablation_grad_strategy,
    ablation_cisc_vs_risc,
    ablation_async
);
criterion_main!(benches);
