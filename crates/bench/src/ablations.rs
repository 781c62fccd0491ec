//! Ablations of the design decisions DESIGN.md calls out (`repro
//! ablations`), each on one Tree-LSTM batch of four trees at hidden 64:
//!
//! 1. min-load vs round-robin VPP scheduling (paper §III-B1's load metric);
//! 2. in-register vs GEMM-fallback gradients (paper §III-C2);
//! 3. CISC vs RISC script encoding (paper §III-B2's discussion);
//! 4. asynchronous pipelining vs synchronous execution (paper §III-C1).
//!
//! Every number is virtual-clock or a static count, so the table is
//! deterministic.

use dyn_graph::Model;
use gpu_sim::{DeviceConfig, GpuSim};
use vpps::engine::{run_batch, EventInterp};
use vpps::exec::interp::ExecConfig;
use vpps::script::SchedulePolicy;
use vpps::{GradStrategy, Handle, KernelPlan, RpwMode, VppsOptions};
use vpps_datasets::{TreeSample, Treebank, TreebankConfig};
use vpps_models::{build_batch, TreeLstm};

use crate::harness::{staged, SMALL_POOL};

/// One measured alternative: the design's choice against what it rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// The decision and what was measured.
    pub decision: &'static str,
    /// Unit of both numbers (`us` is virtual microseconds).
    pub unit: &'static str,
    /// The number under the design's choice.
    pub chosen: f64,
    /// The number under the alternative.
    pub alternative: f64,
}

fn setup() -> (Model, TreeLstm, Vec<TreeSample>) {
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

/// Runs the batch once on a plan with `strategy` forced (`None`: the plan
/// picks) under `policy`. Returns `(kernel body time, device time)` in
/// virtual µs; device time includes the GEMM gradient pass, a no-op for
/// in-register plans.
fn batch_times(strategy: Option<GradStrategy>, policy: SchedulePolicy) -> (f64, f64) {
    let (mut model, arch, samples) = setup();
    let device = DeviceConfig::titan_v();
    let plan = match strategy {
        Some(s) => KernelPlan::build_forced(&model, &device, 1, s),
        None => KernelPlan::build(&model, &device, 1),
    }
    .expect("fits");
    let (g, loss) = build_batch(&arch, &model, &samples);
    let (gs, mut pool) = staged(&model, &plan, (&g, loss), policy);
    let mut gpu = GpuSim::new(device);
    let cfg = ExecConfig::default();
    let run = run_batch(
        &EventInterp,
        &plan,
        &gs,
        &mut pool,
        &mut model,
        &mut gpu,
        cfg,
    );
    vpps::exec::fallback::apply_gemm_fallback(&plan, &gs.layout, &pool, &mut model, &mut gpu, cfg);
    (run.body_time.as_us(), gpu.now().as_us())
}

/// Steady-state time of four batch-1 training steps.
fn steady_time(synchronous: bool) -> f64 {
    let (mut model, arch, samples) = setup();
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        synchronous,
        pool_capacity: SMALL_POOL,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, DeviceConfig::titan_v(), opts).expect("fits");
    for s in &samples {
        let (g, l) = build_batch(&arch, &model, std::slice::from_ref(s));
        handle.fb(&mut model, &g, l);
    }
    handle.sync_get_latest_loss();
    handle.steady_state_time().as_us()
}

/// Runs all four ablations (the ISA one reports instructions and bytes).
pub fn run() -> [Ablation; 5] {
    let (model, arch, samples) = setup();
    let plan = KernelPlan::build(&model, &DeviceConfig::titan_v(), 1).expect("fits");
    let (g, loss) = build_batch(&arch, &model, &samples);
    let (gs, _) = staged(&model, &plan, (&g, loss), SchedulePolicy::default());
    let (cisc, risc) = (&gs.scripts, gs.scripts.risc_estimate());
    let row = |decision, unit, chosen, alternative| Ablation {
        decision,
        unit,
        chosen,
        alternative,
    };
    [
        row(
            "scheduling: min-load vs round-robin (kernel)",
            "us",
            batch_times(None, SchedulePolicy::MinLoad).0,
            batch_times(None, SchedulePolicy::RoundRobin).0,
        ),
        row(
            "gradients: in-register vs GEMM fallback (device)",
            "us",
            batch_times(Some(GradStrategy::InRegister), SchedulePolicy::default()).1,
            batch_times(Some(GradStrategy::GemmFallback), SchedulePolicy::default()).1,
        ),
        row(
            "ISA: CISC vs RISC (host-managed instructions)",
            "instrs",
            cisc.total_instructions() as f64,
            risc.instructions as f64,
        ),
        row(
            "ISA: CISC vs RISC (script bytes)",
            "B",
            cisc.encoded_bytes() as f64,
            risc.bytes as f64,
        ),
        row(
            "async: pipelined vs synchronous (steady state)",
            "us",
            steady_time(false),
            steady_time(true),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_point_the_documented_way() {
        let rows = run();
        let [_, gradients, instrs, bytes, overlap] = &rows;
        assert!(instrs.alternative > instrs.chosen, "RISC: more instrs");
        assert!(bytes.alternative > bytes.chosen, "RISC: larger scripts");
        assert!(overlap.alternative >= overlap.chosen, "overlap cannot cost");
        assert!(gradients.chosen > 0.0 && gradients.alternative > 0.0);
        let finite = |r: &Ablation| r.chosen.is_finite() && r.alternative.is_finite();
        assert!(rows.iter().all(finite));
        assert_eq!(rows, run(), "virtual-clock numbers are deterministic");
    }
}
