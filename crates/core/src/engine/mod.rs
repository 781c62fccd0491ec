//! The unified execution engine (backend abstraction layer).
//!
//! A batch's generated scripts execute on one of two backends, selectable
//! through [`BackendKind`] and bit-identical to each other by construction —
//! the lowered micro-op executor ([`Lowered`], the production path) and the
//! event-driven interpreter ([`EventInterp`], the reference oracle). The
//! interpreter runs the VPPs one after another; the lowered sweep runs the
//! untied ops of each wide level on two threads ([`lowered`]'s wave plan),
//! which changes no bit. That the signal/wait protocol would order the VPPs
//! on the device is proven per script set by
//! [`crate::script::validate_protocol`].
//!
//! * `Session::new` (or [`ExecutionBackend::prepare`]) analyzes the
//!   scripts once into a [`Session`]: the full per-VPP timeline, the kernel
//!   body time and a complete [`gpu_sim::Metrics`] record (DRAM traffic by
//!   tag, launch count, barrier-stall time, load-imbalance histogram).
//! * `Sweep::run` computes a batch's values: it loads the register cache
//!   (unless it already holds the model's values), executes the script
//!   phase against the memory pool and applies the in-register update.
//!   [`crate::Compute::run`] calls it on every rung of the recovery ladder
//!   but the last, launch-per-op one.
//!
//! Because timing and traffic are computed analytically in `prepare` (every
//! instruction's cost is data-independent), both backends report **identical
//! metrics by construction** — they differ only in how the arithmetic itself
//! is carried out. [`run_batch`] drives one batch: prepare, sweep, and the
//! single [`gpu_sim::Metrics::commit`] that posts the batch to the simulated
//! device.

pub mod backends;
pub mod lowered;
pub mod recovery;
pub mod timeline;

use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use dyn_graph::Model;
use gpu_sim::{CostModel, GpuSim, ImbalanceHistogram, Metrics, SimTime, TrafficTag};
use vpps_tensor::{Pool, PoolOffset};

use vpps_obs::{Counter, SimTrace};

use crate::distribute::Distribution;
use crate::exec::interp::ExecConfig;
use crate::exec::regcache::RegCache;
use crate::script::{BatchLayout, GeneratedScript, ScriptSet};
use crate::specialize::{GradStrategy, KernelPlan};

pub use backends::EventInterp;
pub(crate) use lowered::split;
pub use lowered::{
    Helpers, Lowered, LoweredCache, LoweredCacheStats, LoweredScript, MicroOp, PatchPoint,
};
pub use recovery::RecoveryStats;
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

/// How a [`Session`]'s sweep executes its batch: what [`Session::new`] is
/// prepared from.
#[derive(Debug)]
pub(crate) enum Script<'a> {
    /// Interpret the generated scripts ([`EventInterp`]). `new` analyzes
    /// the schedule, into the trace if one is given.
    Interpreted(&'a GeneratedScript, Option<&'a mut SimTrace>),
    /// Sweep a lowered artifact ([`Lowered`], fresh or from a
    /// [`LoweredCache`]) with this batch's per-request literals for its
    /// patch points ([`LoweredScript::extract_patches`],
    /// [`LoweredScript::patches`]). The artifact's timeline and layout are
    /// reused, so no schedule is analyzed.
    Lowered(Arc<LoweredScript>, Vec<u32>),
}

/// A prepared batch: the analytic schedule and metrics, and the owned
/// `Sweep` that computes its values.
///
/// Built once per batch by `Session::new` (or [`ExecutionBackend::prepare`]).
/// Every simulated fact about the batch is fixed here, before any
/// arithmetic: [`run_prepared`] commits `metrics` and runs `sweep`, and a
/// [`crate::Handle`] commits the one and hands the other to a
/// [`crate::Compute`].
#[derive(Debug)]
pub struct Session {
    /// Event-driven schedule of the script phase (shared with the lowered
    /// artifact it came from, when there is one).
    pub timeline: Arc<TimelineReport>,
    /// The batch's complete metrics (timing + traffic), computed up front.
    pub metrics: Metrics,
    /// The batch's value half.
    pub(crate) sweep: Sweep,
}

impl Session {
    /// Prepares one batch of `plan` from `script`: its pool layout and
    /// schedule (the scripts' or the artifact's; a schedule is analyzed only
    /// for scripts), the per-run obs, and the kernel body time and DRAM
    /// traffic exactly as the event-driven interpreter would account them
    /// (prologue weight load, derivative zero-init, per-VPP script fetch,
    /// per-instruction activation traffic, and the in-register epilogue
    /// write-back). Not cacheable: `cfg.apply_update` changes the
    /// epilogue term between training and inference runs of one timeline.
    pub(crate) fn new(
        plan: &KernelPlan,
        cfg: ExecConfig,
        cost: &CostModel,
        script: Script<'_>,
    ) -> Self {
        let _span = vpps_obs::span("engine.prepare");
        let (layout, timeline, barriers, body) = match script {
            Script::Interpreted(gs, trace) => {
                let timeline = Arc::new(timeline::analyze(plan, gs, cost, trace));
                let body = Body::Interpreted {
                    scripts: Arc::clone(&gs.scripts),
                    timeline: Arc::clone(&timeline),
                };
                (Arc::clone(&gs.layout), timeline, gs.num_barriers, body)
            }
            Script::Lowered(artifact, patches) => (
                Arc::clone(&artifact.layout),
                Arc::clone(&artifact.timeline),
                artifact.num_barriers,
                Body::Lowered { artifact, patches },
            ),
        };
        timeline.record_obs(barriers);

        let all_sms = plan.distribution().geometry().num_sms;
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
        let update = (cfg.apply_update && plan.grad_strategy() == GradStrategy::InRegister)
            .then_some((cfg.learning_rate, cfg.weight_decay));
        if update.is_some() {
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

        let sweep = Sweep {
            dist: plan.shared_distribution(),
            layout,
            body,
            update,
            helpers: Helpers::Auto,
        };
        Session {
            timeline,
            metrics,
            sweep,
        }
    }

    /// `Session::new` around an already-lowered artifact, with this
    /// batch's literals extracted from `gs` — which may differ from the
    /// script the artifact was lowered from, as long as its key is equal.
    pub fn from_lowered(
        plan: &KernelPlan,
        gs: &GeneratedScript,
        cfg: ExecConfig,
        cost: &CostModel,
        artifact: Arc<LoweredScript>,
    ) -> Self {
        let patches = artifact.extract_patches(gs);
        Self::new(plan, cfg, cost, Script::Lowered(artifact, patches))
    }
}

/// Result of executing one batch through [`run_prepared`].
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

/// One way of preparing a batch's scripts for execution. Both backends'
/// sweeps compute the same pool contents, register-cache contents and
/// parameters, and — because the [`Session`] carries the analytics — the
/// exact same [`RunOutcome::metrics`].
pub trait ExecutionBackend: Sync {
    /// Short stable name for reports, obs counters and CLI flags.
    fn name(&self) -> &'static str;

    /// Analyzes the batch's scripts into a [`Session`].
    fn prepare(
        &self,
        plan: &KernelPlan,
        scripts: &GeneratedScript,
        cfg: ExecConfig,
        cost: &CostModel,
    ) -> Session {
        Session::new(plan, cfg, cost, Script::Interpreted(scripts, None))
    }
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

/// [`run_batch`] on the interpreter plus a full per-VPP instruction timeline
/// for visualization (a [`SimTrace`], exportable via
/// [`vpps_obs::ChromeTrace::add_sim_trace`]).
///
/// # Panics
///
/// Same conditions as [`run_batch`].
pub fn run_batch_traced(
    plan: &KernelPlan,
    gs: &GeneratedScript,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
    cfg: ExecConfig,
) -> (RunOutcome, SimTrace) {
    let mut trace = SimTrace::default();
    let script = Script::Interpreted(gs, Some(&mut trace));
    let session = Session::new(plan, cfg, gpu.cost_model(), script);
    let outcome = run_prepared(&EventInterp, &session, pool, model, gpu);
    (outcome, trace)
}

/// Executes an already-prepared [`Session`] on a throw-away register arena:
/// its `Sweep`, then the [`Metrics::commit`] that posts the batch to the
/// simulated device. `backend` is the one that prepared the session, whose
/// sweep it already is.
pub fn run_prepared(
    _backend: &dyn ExecutionBackend,
    session: &Session,
    pool: &mut Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
) -> RunOutcome {
    let (sweep, timeline) = (&session.sweep, &session.timeline);
    sweep.run(pool, model, &mut RegCache::new(&sweep.dist));
    session.metrics.commit(gpu);
    RunOutcome {
        loss: pool.slice(sweep.loss_offset(), 1)[0],
        body_time: session.metrics.kernel_time,
        instructions: timeline.instructions,
        max_vpp_time: timeline.max_vpp_time,
        mean_vpp_time: timeline.mean_vpp_time,
        metrics: session.metrics.clone(),
    }
}

/// What a [`Sweep`] executes.
#[derive(Debug)]
enum Body {
    /// The scripts, in the timeline's serial order.
    Interpreted {
        scripts: Arc<ScriptSet>,
        timeline: Arc<TimelineReport>,
    },
    /// The lowered artifact, re-targeted by the batch's patches.
    Lowered {
        artifact: Arc<LoweredScript>,
        patches: Vec<u32>,
    },
}

/// The value half of one batch, owning what it reads so it can run on any
/// thread: the prologue parameter load into the register arena, the script
/// phase (lowered or interpreted), and the in-register update it ends with.
/// Its cost is its [`Session`]'s metrics, fixed before it runs: nothing it
/// computes reaches a clock.
#[derive(Debug)]
pub(crate) struct Sweep {
    dist: Arc<Distribution>,
    layout: Arc<BatchLayout>,
    body: Body,
    /// `(learning rate, weight decay)` of the in-register update, or `None`
    /// (inference, or a plan on the GEMM-fallback strategy).
    update: Option<(f32, f32)>,
    /// Whether the sweep, and the epilogue after it, may use the helper
    /// thread.
    pub(crate) helpers: Helpers,
}

impl Sweep {
    /// The backend whose sweep this is.
    fn backend(&self) -> BackendKind {
        match self.body {
            Body::Interpreted { .. } => BackendKind::EventInterp,
            Body::Lowered { .. } => BackendKind::Lowered,
        }
    }

    /// The batch's pool layout.
    pub(crate) fn layout(&self) -> &BatchLayout {
        &self.layout
    }

    /// Pool offset of the scalar loss value.
    pub(crate) fn loss_offset(&self) -> PoolOffset {
        self.layout.value_off[self.layout.loss.index()]
    }

    /// Computes the batch: loads `arena` from `model`, runs the script phase
    /// over `pool` and applies the in-register update to `model`.
    ///
    /// The value half of an arena kept across batches stays resident:
    /// [`RegCache::load_from_model`] copies parameters only when `model`'s
    /// stamp differs from the one the arena last loaded, so back-to-back
    /// inference sweeps of one unchanged model copy nothing. It cannot go
    /// stale: every writer of master values — this sweep's own update, the
    /// GEMM-fallback epilogue, the baseline rung's `Trainer` step, an
    /// external `param_mut` — draws a new stamp, and a faulted attempt
    /// computes nothing. The virtual clock charges the prologue load all
    /// the same ([`Session::new`]): residency saves host time only. The
    /// gradient half is re-zeroed only by a sweep that applies the update
    /// (a training sweep on an in-register plan): its epilogue is the one
    /// reader of the gradient chunks. An inference script touches none, and
    /// a plan on the GEMM-fallback strategy has none.
    ///
    /// # Panics
    ///
    /// Panics if `arena` was laid out for another plan's distribution, or
    /// if a script references memory outside the pool.
    pub(crate) fn run(&self, pool: &mut Pool, model: &mut Model, arena: &mut RegCache) {
        assert!(
            arena.laid_out_for(&self.dist),
            "register arena was laid out for another plan"
        );
        let _span = vpps_obs::span("engine.run");
        let backend = self.backend();
        let loaded = arena.load_from_model(model, self.helpers);
        if vpps_obs::enabled() {
            // Each name is formatted and resolved once, on its first use.
            static BATCHES: [OnceLock<Counter>; BackendKind::ALL.len()] =
                [const { OnceLock::new() }; BackendKind::ALL.len()];
            static LOADS: OnceLock<Counter> = OnceLock::new();
            BATCHES[backend as usize]
                .get_or_init(|| vpps_obs::counter(&format!("engine.batches.{}", backend.name())))
                .incr();
            if loaded {
                LOADS
                    .get_or_init(|| vpps_obs::counter("engine.prologue.loads"))
                    .incr();
            }
        }
        if self.update.is_some() {
            arena.zero_grads(self.helpers);
        }
        match &self.body {
            Body::Interpreted { scripts, timeline } => {
                backends::interpret(scripts, &timeline.order, &self.dist, pool, arena);
            }
            Body::Lowered { artifact, patches } => {
                lowered::sweep(artifact, patches, pool, arena, self.helpers);
            }
        }
        if let Some((learning_rate, weight_decay)) = self.update {
            arena.apply_updates(model, learning_rate, weight_decay, self.helpers);
        }
    }
}
