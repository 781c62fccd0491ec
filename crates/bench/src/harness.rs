//! Experiment runner: trains one app instance under VPPS or a baseline and
//! collects the metrics the paper's tables and figures report.

use dyn_graph::{Graph, Model, NodeId, Op};
use gpu_sim::{DeviceConfig, Metrics, SimTime};
use vpps::script::{generate, GeneratedScript, SchedulePolicy, TableLayout};
use vpps::{BackendKind, Handle, KernelPlan, PhaseBreakdown, RpwMode, VppsOptions};
use vpps_baselines::{BaselineExecutor, Strategy};
use vpps_obs::Json;
use vpps_tensor::Pool;

use crate::apps::AppInstance;
use crate::trajectory::{Schema, Ty};

/// `BENCH_fig2|fig8|fig9|fig12|table1.json`: one headline row
/// ([`RunResult::to_json`]) per run behind the table `repro` prints.
pub static SCHEMA: Schema = Schema {
    name: "vpps-bench-trajectory",
    version: 1,
    header: &[],
    record: &[
        ("system", Ty::Str),
        ("batch", Ty::U64),
        ("throughput", Ty::F64),
        ("dram_load_bytes", Ty::U64),
        ("dram_store_bytes", Ty::U64),
        ("weight_load_bytes", Ty::U64),
        ("launches", Ty::U64),
        ("barrier_stall_fraction", Ty::F64),
        ("kernel_time_s", Ty::F64),
    ],
    facts: |_| Vec::new(),
};

/// Metrics from one training run (one system, one batch size, one epoch over
/// the instance's inputs).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System name ("VPPS", "DyNet-AB", ...).
    pub system: String,
    /// Batch size used.
    pub batch_size: usize,
    /// Inputs trained.
    pub inputs: usize,
    /// Simulated wall time for the epoch.
    pub wall: SimTime,
    /// Training throughput in inputs per simulated second — the y-axis of
    /// Figs. 8, 9 and 12.
    pub throughput: f64,
    /// Megabytes of weight-matrix DRAM loads — Table I.
    pub weight_mb: f64,
    /// Fraction of DRAM load bytes that were weights — Fig. 2.
    pub weight_fraction: f64,
    /// Kernels launched.
    pub kernels: u64,
    /// Loss of the final batch (sanity: training must actually happen).
    pub final_loss: f32,
    /// Host-side time.
    pub host_time: SimTime,
    /// Device-side time.
    pub device_time: SimTime,
    /// VPPS phase breakdown (Fig. 10); `None` for baselines.
    pub vpps_phases: Option<PhaseBreakdown>,
    /// VPPS `(ctas_per_sm, rpw)` of the plan used; `None` for baselines.
    pub vpps_config: Option<(usize, usize)>,
    /// Full unified metrics for the run — every headline column above is
    /// derived from this one struct, identically for every system.
    pub metrics: Metrics,
}

impl RunResult {
    /// Condenses the run into its trajectory row: the handful of headline
    /// numbers a regression tracker needs.
    pub fn to_json(&self) -> Json {
        let m = &self.metrics;
        // Stall time over kernel time; baselines have no barriers (0).
        let stall_fraction = match m.kernel_time.as_ns() {
            kernel_ns if kernel_ns > 0.0 => m.barrier_stall.as_ns() / kernel_ns,
            _ => 0.0,
        };
        let mut o = Json::obj();
        o.set("system", Json::from(self.system.as_str()));
        o.set("batch", Json::from(self.batch_size as u64));
        o.set("throughput", Json::Num(self.throughput));
        o.set("dram_load_bytes", Json::from(m.dram.total_loads()));
        o.set("dram_store_bytes", Json::from(m.dram.total_stores()));
        o.set("weight_load_bytes", Json::from(m.weight_load_bytes()));
        o.set("launches", Json::from(m.launches));
        o.set("barrier_stall_fraction", Json::Num(stall_fraction));
        o.set("kernel_time_s", Json::Num(m.kernel_time.as_secs()));
        o
    }
}

/// Pool capacity for driving one small batch through the engine by hand.
pub const SMALL_POOL: usize = 1 << 22;

/// Generates one batch's scripts under `plan` into a fresh pool and stages
/// the graph's inputs, ready for `engine::run_batch`.
pub fn staged(
    model: &Model,
    plan: &KernelPlan,
    (g, loss): (&Graph, NodeId),
    policy: SchedulePolicy,
) -> (GeneratedScript, Pool) {
    let mut pool = Pool::with_capacity(SMALL_POOL);
    let tables = TableLayout::install(model, &mut pool).expect("fits");
    let gs =
        generate::generate_with_policy(g, loss, plan, &mut pool, &tables, policy).expect("fits");
    for (id, node) in g.iter() {
        if let Op::Input { values } = &node.op {
            pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                .copy_from_slice(values);
        }
    }
    (gs, pool)
}

/// Sizes the device pool for the largest batch graph of the run.
fn pool_capacity_for(app: &AppInstance, batch_size: usize) -> usize {
    let resident: usize = {
        let m = app.fresh_model();
        m.lookups().map(|(_, l)| l.table.len()).sum::<usize>() + 16
    };
    let max_elems = app
        .batch_graphs(batch_size)
        .iter()
        .map(|(g, _)| g.total_elements())
        .max()
        .unwrap_or(0);
    // Values + derivatives + staging slack.
    resident + max_elems * 3 + (1 << 16)
}

/// Runs the profile-guided rows-per-warp search (paper §III-A1) on warm-up
/// batches at (close to) the training batch size and returns the selected
/// `rpw`. The profile batch is capped at 32 — the host/device balance that
/// drives the choice is stable beyond that. The search runs on the lowered
/// backend, the faster host path: every backend charges the same simulated
/// times, so the choice is the same on any of them.
pub fn profiled_rpw(app: &AppInstance, device: &DeviceConfig, batch: usize) -> usize {
    let mut model = app.fresh_model();
    let warm_batch = batch.clamp(1, 32).min(app.num_inputs());
    let opts = VppsOptions {
        rpw: RpwMode::Profile,
        pool_capacity: pool_capacity_for(app, warm_batch),
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    };
    let mut handle =
        Handle::new(&model, device.clone(), opts).expect("paper-scale models fit the Titan V");
    // Profile every candidate against the SAME batch so the comparison is
    // fair (batch shapes vary; in real training the noise averages out over
    // "multiple training batches", §III-A1).
    let (g, l) = app.batch_graphs(warm_batch).swap_remove(0);
    while !handle.profile_settled() {
        handle.fb(&mut model, &g, l);
    }
    handle.plan().rpw()
}

/// Trains one epoch under VPPS on `backend` and reports the metrics. All
/// counters come from the unified
/// [`Metrics`] plumbing ([`Handle::metrics`]), so both backends — the
/// lowered executor and the event-driven interpreter — report identical
/// DRAM-byte and launch counts; only host wall time differs.
pub fn run_vpps_with(
    app: &AppInstance,
    device: &DeviceConfig,
    batch_size: usize,
    rpw: usize,
    backend: BackendKind,
) -> RunResult {
    let mut model = app.fresh_model();
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(rpw),
        learning_rate: 0.05,
        pool_capacity: pool_capacity_for(app, batch_size),
        backend,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, device.clone(), opts)
        .expect("paper-scale models fit the Titan V register file");
    let batches = app.batch_graphs(batch_size);
    for (g, l) in &batches {
        handle.fb(&mut model, g, *l);
    }
    let final_loss = handle.sync_get_latest_loss();
    let wall = handle.steady_state_time();
    let inputs = app.num_inputs();
    let metrics = handle.metrics();
    RunResult {
        system: "VPPS".to_owned(),
        batch_size,
        inputs,
        wall,
        throughput: inputs as f64 / wall.as_secs(),
        weight_mb: metrics.weight_loads_mb(),
        weight_fraction: metrics.weight_load_fraction(),
        kernels: metrics.launches,
        final_loss,
        host_time: handle.phases().host_total(),
        device_time: handle.phases().device_total(),
        vpps_phases: Some(*handle.phases()),
        vpps_config: Some((handle.plan().ctas_per_sm(), handle.plan().rpw())),
        metrics,
    }
}

/// Trains one epoch under a baseline strategy and reports the metrics.
pub fn run_baseline(
    app: &AppInstance,
    device: &DeviceConfig,
    batch_size: usize,
    strategy: Strategy,
) -> RunResult {
    let mut model = app.fresh_model();
    let mut exec = BaselineExecutor::new(device.clone(), strategy, 0.05);
    let mut final_loss = 0.0;
    for (g, l) in &app.batch_graphs(batch_size) {
        final_loss = exec.train_batch(&mut model, g, *l);
    }
    let wall = exec.wall_time();
    let inputs = app.num_inputs();
    let metrics = exec.metrics();
    RunResult {
        system: strategy.name().to_owned(),
        batch_size,
        inputs,
        wall,
        throughput: inputs as f64 / wall.as_secs(),
        weight_mb: metrics.weight_loads_mb(),
        weight_fraction: metrics.weight_load_fraction(),
        kernels: metrics.launches,
        final_loss,
        host_time: exec.phases().host_total(),
        device_time: exec.phases().device,
        vpps_phases: None,
        vpps_config: None,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppInstance, AppKind, AppSpec};

    fn tiny_app() -> AppInstance {
        let mut spec = AppSpec::paper(AppKind::TreeLstm);
        spec.hidden = 32;
        spec.emb = 32;
        spec.vocab = 100;
        spec.max_len = 6;
        AppInstance::new(spec, 8)
    }

    #[test]
    fn vpps_run_produces_sane_metrics() {
        let app = tiny_app();
        let r = run_vpps_with(&app, &DeviceConfig::titan_v(), 4, 1, BackendKind::default());
        assert_eq!(r.inputs, 8);
        assert!(r.throughput > 0.0);
        assert!(r.final_loss.is_finite() && r.final_loss > 0.0);
        assert_eq!(r.kernels, 2, "8 inputs at batch 4 -> 2 persistent kernels");
        assert!(r.weight_mb > 0.0);
        assert!(r.vpps_config.is_some());
    }

    #[test]
    fn baseline_run_produces_sane_metrics() {
        let app = tiny_app();
        let r = run_baseline(&app, &DeviceConfig::titan_v(), 4, Strategy::AgendaBased);
        assert!(r.throughput > 0.0);
        assert!(r.kernels > 2);
        assert!(r.weight_fraction > 0.0 && r.weight_fraction < 1.0);
    }

    #[test]
    fn vpps_beats_baselines_at_small_batch() {
        // The headline claim at miniature scale.
        let app = tiny_app();
        let vpps = run_vpps_with(&app, &DeviceConfig::titan_v(), 1, 1, BackendKind::default());
        let ab = run_baseline(&app, &DeviceConfig::titan_v(), 1, Strategy::AgendaBased);
        assert!(
            vpps.throughput > ab.throughput,
            "VPPS {} vs DyNet-AB {}",
            vpps.throughput,
            ab.throughput
        );
        assert!(vpps.weight_mb < ab.weight_mb);
    }

    #[test]
    fn every_backend_reports_identical_bench_counters() {
        let app = tiny_app();
        let reference = run_vpps_with(
            &app,
            &DeviceConfig::titan_v(),
            4,
            1,
            BackendKind::EventInterp,
        );
        for kind in BackendKind::ALL {
            let r = run_vpps_with(&app, &DeviceConfig::titan_v(), 4, 1, kind);
            assert_eq!(r.final_loss, reference.final_loss, "{kind:?} loss");
            assert_eq!(r.kernels, reference.kernels, "{kind:?} launches");
            assert_eq!(
                r.metrics.dram, reference.metrics.dram,
                "{kind:?} DRAM bytes"
            );
            assert_eq!(r.wall, reference.wall, "{kind:?} simulated wall time");
        }
    }

    #[test]
    fn profiled_rpw_is_valid() {
        let app = tiny_app();
        let rpw = profiled_rpw(&app, &DeviceConfig::titan_v(), 2);
        assert!(rpw >= 1);
    }
}
