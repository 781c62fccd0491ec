//! The unified execution engine (backend abstraction layer).
//!
//! Every way of executing a batch's generated scripts implements one
//! [`ExecutionBackend`] trait. Both are selectable through [`BackendKind`]
//! and bit-identical to each other by construction — the lowered micro-op
//! executor ([`Lowered`], the production path) and the event-driven
//! interpreter ([`EventInterp`], the reference oracle). Neither runs the
//! VPPs concurrently: that the signal/wait protocol would order them on the
//! device is proven per script set by [`crate::script::validate_protocol`].
//!
//! * [`ExecutionBackend::prepare`] analyzes the scripts once into a
//!   [`Session`]: the full per-VPP timeline, the kernel body time and a
//!   complete [`gpu_sim::Metrics`] record (DRAM traffic by tag, launch
//!   count, barrier-stall time, load-imbalance histogram).
//! * [`ExecutionBackend::run`] executes the script phase against the memory
//!   pool and register cache and returns a [`RunOutcome`].
//!
//! Because timing and traffic are computed analytically in `prepare` (every
//! instruction's cost is data-independent), all backends report **identical
//! metrics by construction** — the backends differ only in how the
//! arithmetic itself is carried out. [`run_batch`] is the shared driver:
//! prologue (parameter load into the register cache), backend run, epilogue
//! (gradient application), and the single [`gpu_sim::Metrics::commit`] that
//! posts the batch to the simulated device.
//!
//! The batch-level [`Engine`] trait is the corresponding abstraction one
//! level up: anything that can train a batch graph and report unified
//! metrics — the VPPS [`crate::Handle`] or a DyNet-style baseline executor —
//! so benchmark tables compare numbers produced by identical plumbing.

pub mod backends;
pub mod lowered;
pub mod recovery;
pub mod timeline;

use std::str::FromStr;
use std::sync::Arc;

use dyn_graph::{Graph, Model, NodeId};
use gpu_sim::{CostModel, GpuSim, ImbalanceHistogram, Metrics, SimTime, TrafficTag};
use vpps_tensor::{Pool, PoolOffset};

use vpps_obs::SimTrace;

use crate::exec::interp::ExecConfig;
use crate::exec::regcache::RegCache;
use crate::script::{BatchLayout, GeneratedScript};
use crate::specialize::{GradStrategy, KernelPlan};

pub use backends::EventInterp;
pub use lowered::{
    Lowered, LoweredCache, LoweredCacheStats, LoweredScript, MicroOp, PatchPoint, WarmBatch,
};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use timeline::TimelineReport;

/// Which execution backend a [`crate::Handle`] (or test) should use. Every
/// member is bit-identical to the reference by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Deterministic single-thread event-driven interpreter (the reference).
    #[default]
    EventInterp,
    /// Pre-lowered micro-op executor: scripts are compiled once per plan into
    /// flat arrays of literal-resolved [`MicroOp`]s (sync compiled away,
    /// costs precomputed) and cached, bit-identical to [`EventInterp`].
    Lowered,
}

impl BackendKind {
    /// Every backend, in display order.
    pub const ALL: [BackendKind; 2] = [BackendKind::EventInterp, BackendKind::Lowered];

    /// Short stable name (accepted back by [`FromStr`]).
    pub fn name(self) -> &'static str {
        self.backend().name()
    }

    /// The backend implementation for this kind.
    pub fn backend(self) -> &'static dyn ExecutionBackend {
        match self {
            BackendKind::EventInterp => &EventInterp,
            BackendKind::Lowered => &Lowered,
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown backend {s:?} (expected event-interp or lowered)"))
    }
}

/// A prepared batch: plan + scripts + the analytic schedule and metrics.
///
/// Built once per batch by [`ExecutionBackend::prepare`] (or directly via
/// [`Session::build`]); consumed read-only by [`ExecutionBackend::run`], so
/// one session can be executed by several backends for cross-checking.
#[derive(Debug)]
pub struct Session<'a> {
    /// The specialized kernel plan (register distribution, grad strategy).
    pub plan: &'a KernelPlan,
    /// The batch's generated scripts. `None` only for a
    /// [`Session::from_warm`] session, which never generated them: only the
    /// [`Lowered`] backend, which executes the artifact, can run such a
    /// session.
    ///
    /// The interpreter ([`EventInterp`]) `expect`s the scripts, and
    /// [`Lowered`] `expect`s [`Session::lowered`] the same way.
    /// These stay panics because pairing a session with a backend it was not
    /// prepared for is a programming error no input can cause: every
    /// constructor but `from_warm` is handed the scripts; `from_warm` is
    /// reached only from `Handle::attempt`'s graph-level cache hit, which
    /// `attempt` looks for (`LoweredCache::lookup_graph`) only under
    /// `backend == BackendKind::Lowered` and then runs on that backend; and a
    /// degraded rung re-enters `attempt` with [`EventInterp`], which
    /// generates. Likewise every session `attempt` hands to [`Lowered`] came
    /// from `from_warm` or [`Session::from_lowered`], which both set the
    /// artifact, as does [`Lowered`]'s own `prepare`.
    pub gs: Option<&'a GeneratedScript>,
    /// The batch's pool layout.
    pub layout: &'a BatchLayout,
    /// Training hyper-parameters for the epilogue.
    pub cfg: ExecConfig,
    /// Event-driven schedule of the script phase (shared with the lowered
    /// artifact it came from, when there is one).
    pub timeline: Arc<TimelineReport>,
    /// The batch's complete metrics (timing + traffic), computed up front.
    pub metrics: Metrics,
    /// The lowered artifact, when this session was prepared for the
    /// [`Lowered`] backend (fresh or from a [`LoweredCache`]).
    pub lowered: Option<Arc<LoweredScript>>,
    /// Per-request literal values for the artifact's patch points
    /// ([`LoweredScript::extract_patches`]): this batch's embedding-row copy
    /// sources and pick labels, applied by the lowered executor on top of
    /// the (possibly shared) cached op stream. Empty for non-lowered
    /// sessions and for artifacts with no patchable ops.
    pub patches: Vec<u32>,
}

impl<'a> Session<'a> {
    /// Analyzes `gs` into a session: runs the timeline sweep and derives the
    /// kernel body time and DRAM traffic exactly as the event-driven
    /// interpreter would account them (prologue weight load, derivative
    /// zero-init, per-VPP script fetch, per-instruction activation traffic,
    /// and the in-register epilogue write-back).
    pub fn build(
        plan: &'a KernelPlan,
        gs: &'a GeneratedScript,
        cfg: ExecConfig,
        cost: &CostModel,
        trace: Option<&mut SimTrace>,
    ) -> Self {
        let _span = vpps_obs::span("engine.prepare");
        let timeline = timeline::analyze(plan, gs, cost, trace);
        timeline.record_obs(gs.num_barriers);
        Self::assemble(
            plan,
            Some(gs),
            &gs.layout,
            cfg,
            cost,
            Arc::new(timeline),
            None,
        )
    }

    /// Builds a session around an already-lowered artifact: the cached
    /// [`TimelineReport`] is reused instead of re-analyzing the scripts, so
    /// warm-path prepares skip the whole event-driven sweep. The artifact
    /// may have been lowered from a *different* (structurally identical)
    /// script — this batch's per-request literals are extracted from `gs`
    /// into the session's patch vector, which re-targets the shared ops at
    /// run time. Per-run obs is recorded identically to [`Session::build`].
    pub fn from_lowered(
        plan: &'a KernelPlan,
        gs: &'a GeneratedScript,
        cfg: ExecConfig,
        cost: &CostModel,
        artifact: Arc<LoweredScript>,
    ) -> Self {
        let _span = vpps_obs::span("engine.prepare");
        let patches = artifact.extract_patches(gs);
        Self::around_artifact(plan, Some(gs), &gs.layout, cfg, cost, artifact, patches)
    }

    /// [`Session::from_lowered`] for a batch that skipped script generation:
    /// layout and artifact come from the graph-level cache's [`WarmBatch`],
    /// and `patches` ([`WarmBatch::patches`]) from the batch graph itself.
    /// Metrics and per-run obs are those of the generating path, since both
    /// derive from the artifact's timeline and the layout alone.
    pub fn from_warm(
        plan: &'a KernelPlan,
        warm: &'a WarmBatch,
        cfg: ExecConfig,
        cost: &CostModel,
        patches: Vec<u32>,
    ) -> Self {
        let _span = vpps_obs::span("engine.prepare");
        let artifact = Arc::clone(&warm.artifact);
        Self::around_artifact(plan, None, &warm.layout, cfg, cost, artifact, patches)
    }

    /// The prepare step shared by the two artifact-backed constructors
    /// (inside their `engine.prepare` span): reuse the artifact's timeline,
    /// record the per-run obs, assemble.
    fn around_artifact(
        plan: &'a KernelPlan,
        gs: Option<&'a GeneratedScript>,
        layout: &'a BatchLayout,
        cfg: ExecConfig,
        cost: &CostModel,
        artifact: Arc<LoweredScript>,
        patches: Vec<u32>,
    ) -> Self {
        let timeline = Arc::clone(&artifact.timeline);
        timeline.record_obs(artifact.num_barriers);
        let mut session = Self::assemble(plan, gs, layout, cfg, cost, timeline, Some(artifact));
        session.patches = patches;
        session
    }

    /// The metrics arithmetic shared by [`Session::build`] and
    /// [`Session::from_lowered`]. Not cacheable: `cfg.apply_update` changes
    /// the epilogue term between training and inference runs of the same
    /// timeline.
    fn assemble(
        plan: &'a KernelPlan,
        gs: Option<&'a GeneratedScript>,
        layout: &'a BatchLayout,
        cfg: ExecConfig,
        cost: &CostModel,
        timeline: Arc<TimelineReport>,
        lowered: Option<Arc<LoweredScript>>,
    ) -> Self {
        let geo = plan.distribution().geometry();
        let all_sms = geo.num_sms;

        let mut metrics = Metrics::default();

        // Prologue: master copy -> registers (the *only* weight load of the
        // whole batch, Table I's mechanism) + derivative-region memset.
        let weight_bytes = plan.prologue_weight_bytes();
        metrics.dram.record_load(TrafficTag::Weight, weight_bytes);
        let mut body_time = cost.dram_time(weight_bytes, all_sms);
        let deriv_bytes = (layout.deriv_len * 4) as u64;
        metrics
            .dram
            .record_store(TrafficTag::Activation, deriv_bytes);
        body_time += cost.dram_time(deriv_bytes, all_sms);

        // Script phase: per-VPP script fetch plus instruction traffic.
        metrics
            .dram
            .record_load(TrafficTag::Script, timeline.script_bytes);
        metrics
            .dram
            .record_load(TrafficTag::Activation, timeline.total_read_bytes);
        metrics
            .dram
            .record_store(TrafficTag::Activation, timeline.total_write_bytes);
        body_time += timeline.max_vpp_time;

        // Epilogue: gradient application for the in-register strategy.
        if cfg.apply_update && plan.grad_strategy() == GradStrategy::InRegister {
            metrics.dram.record_store(TrafficTag::Weight, weight_bytes);
            let update_flops = 3 * (weight_bytes / 4);
            body_time += cost
                .dram_time(weight_bytes, all_sms)
                .max(cost.compute_time(update_flops, all_sms));
        }

        metrics.kernel_time = body_time;
        metrics.launches = 1;
        metrics.barrier_stall = timeline.barrier_stall;
        metrics.imbalance = ImbalanceHistogram::from_times(&timeline.vpp_times);

        Session {
            plan,
            gs,
            layout,
            cfg,
            timeline,
            metrics,
            lowered,
            patches: Vec::new(),
        }
    }

    /// Pool offset of the scalar loss value.
    pub fn loss_offset(&self) -> PoolOffset {
        self.layout.value_off[self.layout.loss.index()]
    }

    /// Packages a finished run.
    pub fn outcome(&self, loss: f32) -> RunOutcome {
        RunOutcome {
            loss,
            body_time: self.metrics.kernel_time,
            instructions: self.timeline.instructions,
            max_vpp_time: self.timeline.max_vpp_time,
            mean_vpp_time: self.timeline.mean_vpp_time,
            metrics: self.metrics.clone(),
        }
    }
}

/// Result of executing one batch through an [`ExecutionBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Loss value (read back from the pool).
    pub loss: f32,
    /// Kernel body duration (prologue + script + epilogue).
    pub body_time: SimTime,
    /// Compute instructions executed across all VPPs.
    pub instructions: usize,
    /// Latest VPP finish time of the script phase (before the epilogue).
    pub max_vpp_time: SimTime,
    /// Mean VPP finish time — `max / mean` is the load-imbalance figure.
    pub mean_vpp_time: SimTime,
    /// Unified metrics, populated identically by every backend.
    pub metrics: Metrics,
}

/// One way of executing a prepared batch's scripts.
///
/// Implementations must be functionally equivalent: same pool contents, same
/// register-cache contents, and — because the [`Session`] carries the
/// analytics — the exact same [`RunOutcome::metrics`].
pub trait ExecutionBackend: Sync {
    /// Short stable name for reports, obs counters and CLI flags.
    fn name(&self) -> &'static str;

    /// Analyzes the batch's scripts into a [`Session`].
    fn prepare<'a>(
        &self,
        plan: &'a KernelPlan,
        scripts: &'a GeneratedScript,
        cfg: ExecConfig,
        cost: &CostModel,
    ) -> Session<'a> {
        Session::build(plan, scripts, cfg, cost, None)
    }

    /// Executes the script phase of `session` against `pool` and the loaded
    /// register `cache`. The prologue (parameter load) and epilogue
    /// (gradient application) belong to the driver ([`run_batch`]), not the
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if a script references memory outside the pool.
    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome;
}

/// Runs one batch end-to-end through `backend`: prologue parameter load,
/// script execution, in-register gradient epilogue, and posting the batch's
/// [`Metrics`] to the simulated device. Master parameters in `model` are
/// updated in place.
///
/// # Panics
///
/// Panics if the generated scripts deadlock (a script-generator bug, caught
/// eagerly) or reference memory outside the pool.
pub fn run_batch(
    backend: &dyn ExecutionBackend,
    plan: &KernelPlan,
    gs: &GeneratedScript,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
    cfg: ExecConfig,
) -> RunOutcome {
    let session = backend.prepare(plan, gs, cfg, gpu.cost_model());
    run_prepared(backend, &session, pool, model, gpu)
}

/// [`run_batch`] plus a full per-VPP instruction timeline for visualization
/// (a [`SimTrace`], exportable via [`vpps_obs::ChromeTrace::add_sim_trace`]).
///
/// # Panics
///
/// Same conditions as [`run_batch`].
pub fn run_batch_traced(
    backend: &dyn ExecutionBackend,
    plan: &KernelPlan,
    gs: &GeneratedScript,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
    cfg: ExecConfig,
) -> (RunOutcome, SimTrace) {
    let mut trace = SimTrace::default();
    let session = Session::build(plan, gs, cfg, gpu.cost_model(), Some(&mut trace));
    let outcome = run_prepared(backend, &session, pool, model, gpu);
    (outcome, trace)
}

/// Executes an already-prepared [`Session`]: prologue parameter load, script
/// execution, in-register gradient epilogue, and the [`Metrics::commit`] that
/// posts the batch to the simulated device. [`run_batch`] is `prepare` +
/// `run_prepared`; it builds a throw-away register arena per call — warm
/// paths that keep one per plan call [`run_prepared_in`].
pub fn run_prepared(
    backend: &dyn ExecutionBackend,
    session: &Session<'_>,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
) -> RunOutcome {
    let mut cache = RegCache::new(session.plan.distribution());
    run_prepared_in(backend, session, pool, model, gpu, &mut cache)
}

/// [`run_prepared`] in a caller-owned register arena, so a warm path pays
/// the arena's allocation once per plan instead of once per batch. The
/// recovery layer calls this directly because it needs the session's
/// analytic body time *before* execution to arm the watchdog.
///
/// Whatever `cache` held is discarded: parameter values are re-loaded from
/// `model` and the gradient half re-zeroed on every call, so an arena kept
/// across batches can never go stale (after a rollback, a baseline fallback,
/// an external `param_mut`) and never carries a failed attempt's gradients
/// into a retry.
///
/// # Panics
///
/// Panics if `cache` was laid out for another plan's distribution.
pub fn run_prepared_in(
    backend: &dyn ExecutionBackend,
    session: &Session<'_>,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
    cache: &mut RegCache,
) -> RunOutcome {
    let _span = vpps_obs::span("engine.run");
    if vpps_obs::enabled() {
        vpps_obs::counter(&format!("engine.batches.{}", backend.name())).incr();
    }
    assert!(
        cache.laid_out_for(session.plan.distribution()),
        "register arena was laid out for another plan"
    );
    cache.load_from_model(model);
    let outcome = backend.run(session, pool, cache);
    if session.cfg.apply_update && session.plan.grad_strategy() == GradStrategy::InRegister {
        cache.apply_updates(model, session.cfg.learning_rate, session.cfg.weight_decay);
    }
    outcome.metrics.commit(gpu);
    outcome
}

/// A batch-level training system with unified measurement plumbing.
///
/// Implemented by the VPPS [`crate::Handle`] and by the DyNet-style baseline
/// executors, so experiment harnesses extract throughput, traffic and launch
/// counts the same way for every system they compare.
pub trait Engine {
    /// Display name of the system ("VPPS", "DyNet-AB", ...).
    fn system(&self) -> String;

    /// Trains one batch graph and returns its loss.
    fn train_batch(&mut self, model: &mut Model, graph: &Graph, loss: NodeId) -> f32;

    /// Cumulative unified metrics over all batches so far.
    fn metrics(&self) -> Metrics;

    /// Simulated wall time over all batches so far.
    fn wall_time(&self) -> SimTime;

    /// Batches processed so far.
    fn batches(&self) -> u64;
}
