//! The user-facing VPPS API (paper §III-D).
//!
//! The paper abstracts the whole system behind three calls:
//!
//! ```text
//! vpps::handle hndl(model);                         // JIT-specialize, once
//! float staleLoss = hndl.fb(model, cg, lossExpr);   // per batch, async
//! float latest    = hndl.sync_get_latest_loss();    // explicit sync
//! ```
//!
//! [`Handle`] mirrors them. `fb` generates the batch script, transfers it,
//! executes the persistent forward-backward-update kernel on the simulated
//! device, and — because device work is asynchronous with respect to the host
//! (§III-C1) — returns the loss of the *previous* batch. The simulated wall
//! clock overlaps each batch's host preparation with the previous batch's
//! device execution, which is what produces the paper's Fig. 10 crossover:
//! device-bound at small batches, host-bound at large ones. Training and
//! inference batches share one dispatch path that ends in one charging
//! step, errors included: it alone writes the [`PhaseBreakdown`], and it
//! and [`Handle::sync_get_latest_loss`] alone move the clocks.
//!
//! Every simulated fact about a batch is fixed before its arithmetic runs,
//! so the dispatch path is split at that boundary: [`Handle::dispatch`]
//! charges the batch and returns its value half as a [`Compute`], which
//! [`Compute::run`] computes — on any thread — and [`Handle::join`] takes
//! back — on every rung of the recovery ladder, the launch-per-op baseline
//! included. [`Handle::try_fb`] and [`Handle::infer_many`] are the three in
//! a row.

use std::collections::{HashMap, HashSet};
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use dyn_graph::{Graph, Model, NodeId, Op, Trainer};
use gpu_sim::{
    CostModel, DeviceConfig, FaultConfig, FaultKind, FaultProfile, GpuSim, HostCostModel,
    KernelDesc, Metrics, SimTime, TrafficTag,
};
use vpps_tensor::ops::sgd_step;
use vpps_tensor::Pool;

use crate::engine::lowered::{lower_for, Helpers};
use crate::engine::recovery::{self, RecoveryStats, MAX_ATTEMPTS, QUARANTINE_THRESHOLD};
use crate::engine::{self, BackendKind, LoweredScript, Script, Session, Sweep};
use crate::error::VppsError;
use crate::exec::fallback::{charge_gemm_fallback, gemm_fallback_values};
use crate::exec::interp::ExecConfig;
use crate::exec::regcache::RegCache;
use crate::script::{generate, BatchLayout, GeneratedScript, TableLayout};
use crate::specialize::{GradStrategy, JitCost, KernelPlan};

/// Rows-per-warp selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpwMode {
    /// Use a fixed `rpw`.
    Fixed(usize),
    /// Profile-guided: compile a kernel per valid `rpw`, measure the first
    /// training batches with increasing `rpw`, and settle on the fastest
    /// before performance degrades (paper §III-A1).
    Profile,
}

/// Configuration for [`Handle::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VppsOptions {
    /// Rows-per-warp policy.
    pub rpw: RpwMode,
    /// SGD learning rate applied by the kernel epilogue.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Device memory-pool capacity in `f32` elements.
    pub pool_capacity: usize,
    /// Disable the §III-C1 host/device pipelining: the host blocks on every
    /// batch (the asynchrony ablation). `fb` then effectively behaves like
    /// `fb` + `sync_get_latest_loss`.
    pub synchronous: bool,
    /// Which execution backend runs the persistent kernel (see
    /// [`BackendKind`]): the lowered executor or the reference interpreter.
    /// Both produce bit-identical losses, parameters and metrics.
    pub backend: BackendKind,
    /// Deterministic fault injection (disabled by default). When armed, the
    /// handle owns a seeded [`FaultProfile`] and every batch's attempts draw
    /// from it; an armed profile with all rates zero is bit-identical to the
    /// disabled configuration.
    pub faults: FaultConfig,
}

impl Default for VppsOptions {
    fn default() -> Self {
        Self {
            rpw: RpwMode::Fixed(1),
            learning_rate: 0.1,
            weight_decay: 0.0,
            pool_capacity: 1 << 24,
            synchronous: false,
            backend: BackendKind::default(),
            faults: FaultConfig::disabled(),
        }
    }
}

/// Accumulated per-phase simulated time — the data behind the paper's
/// Fig. 10 execution-time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Host: building the computation graph from user expressions.
    pub graph_construction: SimTime,
    /// Host: forward scheduling + instruction generation.
    pub forward_schedule: SimTime,
    /// Host: backward scheduling + instruction generation.
    pub backward_schedule: SimTime,
    /// Device: host-to-device script + input copies.
    pub script_copy: SimTime,
    /// Device: persistent forward-backward kernel execution.
    pub kernel_exec: SimTime,
    /// Device: GEMM-fallback gradient kernels (zero for in-register plans).
    pub fallback_exec: SimTime,
    /// Recovery overhead: watchdog waits on hung runs, retry backoff, and
    /// device time burned by faulted attempts (zero without fault injection).
    pub recovery: SimTime,
}

impl PhaseBreakdown {
    /// Total host-side time.
    pub fn host_total(&self) -> SimTime {
        self.graph_construction + self.forward_schedule + self.backward_schedule
    }

    /// Total device-side time.
    pub fn device_total(&self) -> SimTime {
        self.script_copy + self.kernel_exec + self.fallback_exec + self.recovery
    }

    /// Component-wise `self - earlier`. Phase times only ever accumulate, so
    /// the delta between two snapshots of one handle is the cost of the work
    /// dispatched in between.
    pub fn delta_since(&self, earlier: &PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            graph_construction: self.graph_construction - earlier.graph_construction,
            forward_schedule: self.forward_schedule - earlier.forward_schedule,
            backward_schedule: self.backward_schedule - earlier.backward_schedule,
            script_copy: self.script_copy - earlier.script_copy,
            kernel_exec: self.kernel_exec - earlier.kernel_exec,
            fallback_exec: self.fallback_exec - earlier.fallback_exec,
            recovery: self.recovery - earlier.recovery,
        }
    }
}

/// Batches measured per candidate `rpw` during profiling.
const PROFILE_BATCHES_PER_RPW: usize = 1;

#[derive(Debug)]
struct ProfileState {
    current: usize,
    batches_in_current: usize,
    sums: Vec<f64>,
    counts: Vec<usize>,
    best: usize,
    done: bool,
}

impl ProfileState {
    fn fixed() -> Self {
        Self {
            current: 0,
            batches_in_current: 0,
            sums: vec![0.0],
            counts: vec![0],
            best: 0,
            done: true,
        }
    }

    fn profiling(plans: usize) -> Self {
        Self {
            current: 0,
            batches_in_current: 0,
            sums: vec![0.0; plans],
            counts: vec![0; plans],
            best: 0,
            done: plans <= 1,
        }
    }

    fn avg(&self, i: usize) -> f64 {
        self.sums[i] / self.counts[i].max(1) as f64
    }

    /// Records one batch's kernel time for the current candidate and returns
    /// the plan index to use for the next batch.
    fn record(&mut self, kernel_ns: f64) -> usize {
        if self.done {
            return self.best;
        }
        self.sums[self.current] += kernel_ns;
        self.counts[self.current] += 1;
        self.batches_in_current += 1;
        if self.batches_in_current >= PROFILE_BATCHES_PER_RPW {
            if self.current == 0 || self.avg(self.current) < self.avg(self.best) {
                self.best = self.current;
                if self.current + 1 < self.sums.len() {
                    self.current += 1;
                    self.batches_in_current = 0;
                } else {
                    self.done = true;
                }
            } else {
                // Degradation: keep the best seen so far (paper: "goes on
                // until the framework observes performance degradation").
                self.done = true;
            }
        }
        if self.done {
            self.best
        } else {
            self.current
        }
    }
}

/// Recovery bookkeeping of one handle: cumulative stats plus the per-plan
/// fault attribution that drives quarantine.
#[derive(Debug, Default)]
struct RecoveryTracker {
    stats: RecoveryStats,
    fault_counts: HashMap<u64, u32>,
    rejitted: HashSet<u64>,
}

/// What a dispatched batch was — all [`Handle::charge`] needs to know to
/// put it on the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    /// A training batch that produced a loss.
    Train,
    /// An inference batch that produced its root values.
    Infer,
    /// A batch of either kind that ended in a typed error.
    Failed,
}

/// A clean attempt, on the clock: its sweep, with the register arena of plan
/// `slot` it runs in, lent until [`Handle::join`].
#[derive(Debug)]
struct Prepared {
    sweep: Sweep,
    arena: RegCache,
    slot: usize,
}

/// What a batch computed: [`Handle::join`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A training batch's loss, which is now the handle's latest loss.
    Loss(f32),
    /// An inference batch's value of every root, in `roots` order.
    Roots(Vec<Vec<f32>>),
}

/// The value half of one batch, returned by [`Handle::dispatch`] once the
/// batch is on the clock: the sweep of its clean attempt — or, on the
/// ladder's last rung, launch-per-op execution on the host reference — then
/// the training step or the root reads. It owns the handle's memory pool
/// (and the sweep's register arena) until [`Handle::join`] takes them back,
/// so it can be computed on another thread.
#[derive(Debug)]
pub struct Compute {
    pool: Pool,
    /// The clean attempt, or `None` on the baseline rung.
    prepared: Option<Prepared>,
    /// A training batch's step, or `None` for inference.
    update: Option<Update>,
}

/// How a training batch steps what its sweep did not: GEMM-fallback
/// parameters (`gemm`) and the lookup tables — or, on the baseline rung,
/// every parameter.
#[derive(Debug)]
struct Update {
    gemm: bool,
    tables: Arc<TableLayout>,
    learning_rate: f32,
    weight_decay: f32,
}

impl Compute {
    /// Computes the batch's values. `model`, `graph` and `roots` must be
    /// what the batch was dispatched with. Nothing here reads or moves a
    /// clock.
    pub fn run(self, model: &mut Model, graph: &Graph, roots: &[NodeId]) -> Computed {
        let Compute {
            mut pool,
            mut prepared,
            update,
        } = self;
        let output = match (&mut prepared, update) {
            (Some(p), update) => {
                p.sweep.run(&mut pool, model, &mut p.arena);
                let layout = p.sweep.layout();
                match update {
                    Some(u) => {
                        let loss = pool.slice(p.sweep.loss_offset(), 1)[0];
                        let (lr, wd) = (u.learning_rate, u.weight_decay);
                        if u.gemm {
                            let helpers = p.sweep.helpers;
                            gemm_fallback_values(layout, &pool, model, lr, wd, helpers);
                        }
                        apply_lookup_updates(model, graph, layout, &mut pool, &u.tables, (lr, wd));
                        Output::Loss(loss)
                    }
                    None => Output::Roots(
                        roots
                            .iter()
                            .map(|r| {
                                let dim = graph.node(*r).dim;
                                pool.slice(layout.value_off[r.index()], dim).to_vec()
                            })
                            .collect(),
                    ),
                }
            }
            // The ladder's last rung: DyNet-style launch-per-op execution on
            // the host reference executor (deterministic; numerically — not
            // bitwise — equivalent to the persistent kernel).
            (None, Some(u)) => {
                let loss = dyn_graph::exec::forward_backward(graph, model, roots[0]);
                Trainer {
                    learning_rate: u.learning_rate,
                    weight_decay: u.weight_decay,
                }
                .update(model);
                u.tables.refresh(model, &mut pool);
                Output::Loss(loss)
            }
            (None, None) => {
                let values = dyn_graph::exec::forward(graph, model);
                Output::Roots(roots.iter().map(|r| values[r.index()].clone()).collect())
            }
        };
        Computed {
            pool,
            arena: prepared.map(|p| (p.slot, p.arena)),
            output,
        }
    }
}

/// A computed batch on its way back to [`Handle::join`], with what its
/// [`Compute`] borrowed from the handle.
#[derive(Debug)]
pub struct Computed {
    pool: Pool,
    arena: Option<(usize, RegCache)>,
    output: Output,
}

/// The miss half of one batch's charge — script generation and lowering —
/// to run before its dispatch, on another thread: what
/// [`Handle::prepare_ahead`] hands out for a batch that misses the
/// handle's lowered cache. It holds what the handle would generate and
/// lower the batch with; [`Preparer::run`] is a pure function of it and the
/// batch graph, which touches neither the cache nor the pool.
#[derive(Debug)]
pub struct Preparer {
    plan: Arc<KernelPlan>,
    tables: Arc<TableLayout>,
    cost: CostModel,
    helpers: Helpers,
    /// The pool's batch region: its base and the pool's capacity.
    pool: (usize, usize),
    root: NodeId,
    train: bool,
}

impl Preparer {
    /// Generates and lowers the batch `graph`, the graph it was handed out
    /// for, into the artifact its dispatch takes in place of doing both;
    /// `None` if the batch does not fit the pool (the dispatch then fails
    /// as it would have). Counts no obs counter: the dispatch that uses the
    /// artifact does.
    pub fn run(self, graph: &Graph) -> Option<Ahead> {
        let Preparer {
            plan,
            tables,
            cost,
            helpers,
            pool,
            root,
            train,
        } = self;
        let gs = generate::generate_detached(graph, root, &plan, train, pool, &tables).ok()?;
        let t0 = vpps_obs::enabled().then(Instant::now);
        let lowered = lower_for(&plan, &gs, &cost, helpers);
        Some(Ahead {
            lower_ns: t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
            plan,
            tables,
            helpers,
            gs,
            lowered,
        })
    }
}

/// A batch's scripts and lowered artifact, made ahead of its dispatch by
/// [`Preparer::run`]. [`Handle::dispatch_prepared`] takes them in place of
/// generating and lowering if they were made for this handle's active plan
/// under its [`Helpers`], and their [`GeneratedScript::key`] is the
/// dispatch's; the dispatch is then the cache miss it would have been.
#[derive(Debug)]
pub struct Ahead {
    plan: Arc<KernelPlan>,
    tables: Arc<TableLayout>,
    helpers: Helpers,
    gs: GeneratedScript,
    lowered: LoweredScript,
    /// Host ns the lowering took, read with obs on.
    lower_ns: u64,
}

impl Ahead {
    /// Copies the artifact the cache would keep onto the calling thread's
    /// heap. A cache entry lives long and is freed by the thread that
    /// dispatches, so one another thread allocated holds memory in that
    /// thread's allocator arena, which the dispatching thread cannot reuse:
    /// with a worker preparing about half its misses and nothing copied,
    /// `serve_closed_4dev_mixed` peaked ≈ 9 % higher in RSS on a 2-core
    /// host.
    pub fn adopt(&mut self) {
        let mut lowered = self.lowered.clone();
        lowered.timeline = Arc::new((*self.lowered.timeline).clone());
        lowered.layout = Arc::new((*self.lowered.layout).clone());
        self.lowered = lowered;
    }
}

/// Applies the batch's embedding gradients: accumulates each looked-up
/// row's derivative into `LookupParameter::grad`, runs the SGD step
/// (`(learning rate, weight decay)`) on the tables, zeroes the gradients and
/// re-copies what changed to the pool-resident `tables`. Host-side: no
/// device time.
///
/// Without weight decay a row this batch did not look up is a fixed point
/// of the step — its gradient is zero (`LookupParameter::grad`: "rows
/// untouched by a batch stay zero"), so `v - lr * (0 + 0 * v)` is `v` bit
/// for bit — and only the looked-up rows are stepped, zeroed and re-copied.
/// With weight decay every row moves, so the whole table is.
fn apply_lookup_updates(
    model: &mut Model,
    graph: &Graph,
    layout: &BatchLayout,
    pool: &mut Pool,
    tables: &TableLayout,
    (lr, wd): (f32, f32),
) {
    let mut touched = Vec::new();
    for (id, node) in graph.iter() {
        if let Op::Lookup { table, index } = node.op {
            let d = pool.slice(layout.deriv_off[id.index()], node.dim);
            let row = model.lookup_mut(table).grad.row_mut(index);
            for (g, v) in row.iter_mut().zip(d) {
                *g += v;
            }
            touched.push((table, index));
        }
    }
    if touched.is_empty() {
        return;
    }
    if wd != 0.0 {
        for lid in model.lookups().map(|(id, _)| id).collect::<Vec<_>>() {
            let l = model.lookup_mut(lid);
            sgd_step(l.table.as_mut_slice(), l.grad.as_slice(), lr, wd);
            l.grad.fill_zero();
        }
        tables.refresh(model, pool);
        return;
    }
    touched.sort_unstable();
    touched.dedup();
    for (table, index) in touched {
        let l = model.lookup_mut(table);
        let (row, grad) = (l.table.row_mut(index), l.grad.row_mut(index));
        sgd_step(row, grad, lr, wd);
        grad.fill(0.0);
        pool.slice_mut(tables.row_offset(table, index), row.len())
            .copy_from_slice(row);
    }
}

/// One Bernoulli draw against an optional injector.
fn draw_fault(faults: &mut Option<FaultProfile>, kind: FaultKind, now: SimTime) -> bool {
    faults.as_mut().is_some_and(|p| p.draw(kind, now))
}

/// Models transient JIT/specialization failures: draws [`FaultKind::JitFailure`]
/// per compile attempt, up to [`MAX_ATTEMPTS`]. Returns the number of failed
/// attempts absorbed.
fn simulate_jit(faults: &mut Option<FaultProfile>, now: SimTime) -> Result<u32, VppsError> {
    let Some(p) = faults.as_mut() else {
        return Ok(0);
    };
    for attempt in 0..MAX_ATTEMPTS {
        if !p.draw(FaultKind::JitFailure, now) {
            return Ok(attempt);
        }
        vpps_obs::counter("recover.retry").incr();
    }
    Err(VppsError::JitFailed {
        attempts: MAX_ATTEMPTS,
    })
}

/// The VPPS training handle: owns the specialized kernel plans, the simulated
/// device, and the tensor memory pool.
#[derive(Debug)]
pub struct Handle {
    /// Shared with the [`Preparer`]s handed out for them.
    plans: Vec<Arc<KernelPlan>>,
    /// One register arena per entry of `plans`, built on the plan's first
    /// clean attempt, lent to each batch's [`Compute`], and dropped when the
    /// plan is re-JITted.
    arenas: Vec<Option<RegCache>>,
    active: usize,
    gpu: GpuSim,
    /// The device memory pool; an empty stand-in while `lent`.
    pool: Pool,
    /// `true` between a [`Handle::dispatch`] and its [`Handle::join`], while
    /// the batch's [`Compute`] holds the pool.
    lent: bool,
    tables: Arc<TableLayout>,
    host: HostCostModel,
    opts: VppsOptions,
    phases: PhaseBreakdown,
    wall: SimTime,
    steady: SimTime,
    prev_device_time: SimTime,
    prev_loss: f32,
    profile: ProfileState,
    batches: u64,
    kernel_metrics: Metrics,
    lowered: engine::LoweredCache,
    faults: Option<FaultProfile>,
    rec: RecoveryTracker,
}

impl Handle {
    /// Specializes the forward-backward kernel(s) for `model` on `device` —
    /// the paper's `vpps::handle hndl(model)` constructor, including the JIT
    /// compilation (modeled, see [`Handle::jit_cost`]).
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures ([`VppsError::ModelTooLarge`],
    /// [`VppsError::RowTooLong`], [`VppsError::NoParameters`]), pool
    /// exhaustion installing the embedding tables, and — with fault injection
    /// armed — [`VppsError::JitFailed`] when simulated transient JIT failures
    /// exhaust the retry budget.
    pub fn new(model: &Model, device: DeviceConfig, opts: VppsOptions) -> Result<Self, VppsError> {
        let mut faults = if opts.faults.enabled {
            Some(FaultProfile::new(opts.faults))
        } else {
            None
        };
        let mut rec = RecoveryTracker::default();
        let plans: Vec<KernelPlan> = match opts.rpw {
            RpwMode::Fixed(rpw) => vec![KernelPlan::build(model, &device, rpw)?],
            RpwMode::Profile => {
                let rpws = KernelPlan::candidate_rpws(model, &device);
                if rpws.is_empty() {
                    return Err(KernelPlan::build(model, &device, 1)
                        .err()
                        .unwrap_or(VppsError::NoParameters));
                }
                rpws.into_iter()
                    .map(|rpw| KernelPlan::build(model, &device, rpw))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        // Transient JIT failures at specialization time: one simulated
        // NVRTC compile (with retries) per plan.
        for _ in &plans {
            rec.stats.jit_retries += simulate_jit(&mut faults, SimTime::ZERO)? as u64;
        }
        let profile = match opts.rpw {
            RpwMode::Fixed(_) => ProfileState::fixed(),
            RpwMode::Profile => ProfileState::profiling(plans.len()),
        };
        let mut pool = Pool::with_capacity(opts.pool_capacity);
        let tables = Arc::new(TableLayout::install(model, &mut pool)?);
        Ok(Self {
            arenas: vec![None; plans.len()],
            plans: plans.into_iter().map(Arc::new).collect(),
            active: 0,
            gpu: GpuSim::new(device),
            pool,
            lent: false,
            tables,
            host: HostCostModel::default(),
            opts,
            phases: PhaseBreakdown::default(),
            wall: SimTime::ZERO,
            steady: SimTime::ZERO,
            prev_device_time: SimTime::ZERO,
            prev_loss: 0.0,
            profile,
            batches: 0,
            kernel_metrics: Metrics::default(),
            lowered: engine::LoweredCache::default(),
            faults,
            rec,
        })
    }

    /// Runs forward propagation, backward propagation and the parameter
    /// update for one batch graph with a single persistent-kernel launch,
    /// returning the loss of the *previous* batch (device execution is
    /// asynchronous with respect to the host; see
    /// [`Handle::sync_get_latest_loss`]).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node of `graph`, or on any
    /// [`Handle::try_fb`] error — most commonly a batch exhausting the device
    /// memory pool (size it via [`VppsOptions::pool_capacity`]).
    pub fn fb(&mut self, model: &mut Model, graph: &Graph, loss: NodeId) -> f32 {
        match self.try_fb(model, graph, loss) {
            Ok(l) => l,
            Err(e) => panic!("fb failed: {e}"),
        }
    }

    /// Fallible [`Handle::fb`]: same semantics (returns the *previous*
    /// batch's loss on success), but surfaces failures as typed
    /// [`VppsError`]s instead of panicking. With fault injection armed this
    /// is the recovery entry point: a faulted attempt computes nothing, so
    /// it leaves the master parameters and lookup tables as they were; the
    /// batch retries with backoff, degrades down the backend ladder, and
    /// ends on the launch-per-op baseline rung, which cannot fault. No
    /// transfer, launch, hang or DRAM fault reaches the caller.
    ///
    /// # Errors
    ///
    /// Only errors no retry can fix: [`VppsError::PoolExhausted`] when the
    /// batch does not fit the pool; with faults armed also
    /// [`VppsError::JitFailed`] and the plan errors of [`Handle::new`] when
    /// a quarantine re-JIT fails.
    pub fn try_fb(
        &mut self,
        model: &mut Model,
        graph: &Graph,
        loss: NodeId,
    ) -> Result<f32, VppsError> {
        let stale = self.prev_loss;
        let roots = [loss];
        let done = self
            .dispatch(model, graph, &roots, true)?
            .run(model, graph, &roots);
        self.join(done);
        Ok(stale)
    }

    /// The charge half of one batch — a training batch (`train`, loss node
    /// `roots[0]`) or an inference batch reading every node of `roots`: the
    /// graph-construction charge, the recovery loop, and the epilogue's
    /// GEMM-fallback launches — or, when every rung faulted, the launches of
    /// the launch-per-op baseline rung. Ends in the one step that writes the
    /// clocks, errors included. What the batch still has to compute comes
    /// back as a [`Compute`]; every simulated fact about it — the clocks,
    /// the [`PhaseBreakdown`], the metrics, `Ok` or `Err` — is already
    /// fixed, since no charge depends on a value. Nothing here computes a
    /// value: a faulted attempt computes nothing, and every rung's values
    /// are the `Compute`'s.
    ///
    /// # Errors
    ///
    /// As [`Handle::try_fb`]: a batch that does not fit the pool, or a
    /// failed quarantine re-JIT. An injected device fault never surfaces
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty, or if the previous batch's [`Compute`]
    /// has not been joined yet: it holds the memory pool.
    pub fn dispatch(
        &mut self,
        model: &Model,
        graph: &Graph,
        roots: &[NodeId],
        train: bool,
    ) -> Result<Compute, VppsError> {
        self.dispatch_prepared(model, graph, roots, train, &mut None)
    }

    /// Hands out the miss half of a batch's charge to run ahead of its
    /// [`Handle::dispatch_prepared`]: `Some` when the batch — `graph` and
    /// `roots`, `train` as that dispatch will get them — would miss the
    /// lowered cache now. The cache changes only at this handle's own
    /// dispatches, so for the batch this handle dispatches next the answer
    /// holds. `None` on a hit, off the lowered backend, and with the
    /// reference cache that never looks a graph up.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty.
    pub fn prepare_ahead(
        &mut self,
        graph: &Graph,
        roots: &[NodeId],
        train: bool,
    ) -> Option<Preparer> {
        if self.opts.backend != BackendKind::Lowered || !self.lowered.indexes_graphs() {
            return None;
        }
        let plan = &self.plans[self.active];
        let pool_base = self.tables.persistent_floor() as usize;
        let hit = self
            .lowered
            .lookup_graph(plan, graph, roots[0], train, pool_base);
        hit.is_none().then(|| Preparer {
            plan: Arc::clone(plan),
            tables: Arc::clone(&self.tables),
            cost: self.gpu.cost_model().clone(),
            helpers: self.lowered.helpers(),
            pool: (pool_base, self.opts.pool_capacity),
            root: roots[0],
            train,
        })
    }

    /// [`Handle::dispatch`] with a batch prepared ahead
    /// ([`Handle::prepare_ahead`]): an attempt that misses the lowered cache
    /// takes `ahead` out and uses its scripts and artifact instead of
    /// generating and lowering — the same insert, tallies, charges and
    /// values — if it was made for this handle's active plan and this
    /// batch's key; otherwise it generates as `dispatch` does. What is left
    /// in `ahead` was not used.
    ///
    /// # Errors
    ///
    /// As [`Handle::dispatch`].
    ///
    /// # Panics
    ///
    /// As [`Handle::dispatch`].
    pub fn dispatch_prepared(
        &mut self,
        model: &Model,
        graph: &Graph,
        roots: &[NodeId],
        train: bool,
        ahead: &mut Option<Ahead>,
    ) -> Result<Compute, VppsError> {
        assert!(!roots.is_empty(), "a batch needs at least one root");
        assert!(!self.lent, "dispatch before the previous batch was joined");
        let _span = vpps_obs::span(if train { "handle.fb" } else { "handle.infer" });
        let device_before = self.gpu.now();
        let mut cost = PhaseBreakdown {
            graph_construction: self.host.graph_construction(graph.len()),
            ..PhaseBreakdown::default()
        };
        let recovered = self.run_with_recovery(model, graph, roots[0], train, ahead, &mut cost);
        let prepared = match recovered {
            Ok(prepared) => prepared,
            Err(e) => {
                self.charge(Charge::Failed, &cost, device_before);
                return Err(e);
            }
        };
        let epilogue_before = self.gpu.now();
        let plan = &self.plans[self.active];
        let gemm = plan.grad_strategy() == GradStrategy::GemmFallback;
        match &prepared {
            Some(p) if train && gemm => {
                charge_gemm_fallback(plan, p.sweep.layout(), &mut self.gpu);
            }
            Some(_) => {}
            None => self.charge_baseline(model, graph),
        }
        cost.fallback_exec = self.gpu.now() - epilogue_before;
        self.charge(
            if train { Charge::Train } else { Charge::Infer },
            &cost,
            device_before,
        );
        self.lent = true;
        Ok(Compute {
            pool: mem::replace(&mut self.pool, Pool::with_capacity(0)),
            prepared,
            update: train.then(|| Update {
                gemm,
                tables: Arc::clone(&self.tables),
                learning_rate: self.opts.learning_rate,
                weight_decay: self.opts.weight_decay,
            }),
        })
    }

    /// Takes back what a batch's [`Compute`] borrowed and returns what it
    /// computed; a training batch's loss becomes the latest loss. The
    /// handle can dispatch again.
    pub fn join(&mut self, done: Computed) -> Output {
        let Computed {
            pool,
            arena,
            output,
        } = done;
        self.pool = pool;
        if let Some((slot, arena)) = arena {
            self.arenas[slot] = Some(arena);
        }
        self.lent = false;
        if let Output::Loss(loss) = output {
            self.prev_loss = loss;
        }
        output
    }

    /// The one writer of [`Handle::phases`] and, with
    /// [`Handle::sync_get_latest_loss`], of the wall and steady-state
    /// clocks. `cost` holds the batch's host phases, copies, kernel and
    /// epilogue time; whatever else the device did since `device_before` —
    /// faulted launches, watchdog waits, retry backoff — is recovery. An
    /// error is not free (the failed attempts occupied the machine, and
    /// `vpps-serve` reads service time off the wall clock) and is charged
    /// synchronously, as is inference; training pipelines host preparation
    /// of batch i against device execution of batch i-1 (paper §III-C1)
    /// unless [`VppsOptions::synchronous`].
    fn charge(&mut self, batch: Charge, cost: &PhaseBreakdown, device_before: SimTime) {
        let cpu_time = cost.host_total();
        let device_time = self.gpu.now() - device_before;
        if batch == Charge::Train && !self.opts.synchronous {
            self.wall += cpu_time.max(self.prev_device_time);
            self.steady += cpu_time.max(device_time);
            self.prev_device_time = device_time;
        } else {
            self.wall += cpu_time + device_time;
            self.steady += cpu_time + device_time;
            // Inference leaves an in-flight training batch in flight.
            if batch != Charge::Infer {
                self.prev_device_time = SimTime::ZERO;
            }
        }

        self.phases.graph_construction += cost.graph_construction;
        self.phases.forward_schedule += cost.forward_schedule;
        self.phases.backward_schedule += cost.backward_schedule;
        self.phases.script_copy += cost.script_copy;
        self.phases.kernel_exec += cost.kernel_exec;
        self.phases.fallback_exec += cost.fallback_exec;
        self.phases.recovery +=
            device_time - cost.script_copy - cost.kernel_exec - cost.fallback_exec;

        if batch == Charge::Train {
            self.batches += 1;
            // Profile-guided rpw selection, driven by the pipelined batch
            // cost (host and device overlap, so the binding constraint is
            // their maximum — "average computation time" in the paper's
            // words).
            self.active = self
                .profile
                .record(cpu_time.max(device_time).as_ns())
                .min(self.plans.len() - 1);
        }
    }

    /// Prepares one batch with bounded retry, backend degradation and plan
    /// quarantine, and returns its clean attempt — or `None` when every rung
    /// faulted [`MAX_ATTEMPTS`] times, for the baseline rung. `root` is the
    /// loss node (training) or the generation root (inference). A faulted
    /// attempt computes nothing, so no retry can observe half-applied
    /// gradients; each faulted attempt of a training batch counts as a
    /// rollback of the update it never made. Host-schedule and copy time of
    /// *every* attempt accumulate into `cost` (failed attempts redo script
    /// generation and transfers; that work is real).
    fn run_with_recovery(
        &mut self,
        model: &Model,
        graph: &Graph,
        root: NodeId,
        train: bool,
        ahead: &mut Option<Ahead>,
        cost: &mut PhaseBreakdown,
    ) -> Result<Option<Prepared>, VppsError> {
        let mut backend = self.opts.backend;
        let mut on_rung = 0u32;
        loop {
            if let Some(prepared) = self.attempt(graph, root, train, backend, ahead, cost)? {
                return Ok(Some(prepared));
            }
            on_rung += 1;
            // A faulted attempt is a drawn fault: the injector is armed.
            if train {
                self.rec.stats.rollbacks += 1;
            }
            self.note_plan_fault(model)?;
            if on_rung < MAX_ATTEMPTS {
                let delay = self
                    .faults
                    .as_mut()
                    .map_or(SimTime::ZERO, |p| recovery::backoff_delay(on_rung - 1, p));
                self.gpu.advance(delay);
                self.rec.stats.retries += 1;
                self.rec.stats.backoff += delay;
                if vpps_obs::enabled() {
                    vpps_obs::counter("recover.retry").incr();
                    vpps_obs::counter("recover.backoff_ns").add(delay.as_ns() as u64);
                }
                continue;
            }
            let Some(next) = recovery::degraded(backend) else {
                return Ok(None);
            };
            self.rec.stats.backend_fallbacks += 1;
            if vpps_obs::enabled() {
                vpps_obs::counter(&format!("recover.fallback.{}", next.name())).incr();
            }
            backend = next;
            on_rung = 0;
        }
    }

    /// One end-to-end attempt: host prep (script generation — or, on the
    /// lowered backend, a graph-keyed cache hit that stands in for it — and
    /// transfers), fault draws in fixed order (transfer, launch, hang, dram),
    /// and the kernel's charge. Host and copy times accumulate into `cost`
    /// whether or not the attempt survives; a cache hit charges the times of
    /// the scripts it did not generate, from their cached counts. A miss
    /// takes `ahead` in place of generating and lowering when it fits
    /// ([`Handle::dispatch_prepared`]), and leaves it there for the next
    /// attempt if a transfer or launch fault ends this one first. A faulted
    /// attempt computes nothing and returns `None`; a clean one returns its
    /// sweep, computed by the batch's [`Compute`].
    fn attempt(
        &mut self,
        graph: &Graph,
        root: NodeId,
        train: bool,
        backend: BackendKind,
        ahead: &mut Option<Ahead>,
        cost: &mut PhaseBreakdown,
    ) -> Result<Option<Prepared>, VppsError> {
        let slot = self.active;
        let plan = &self.plans[slot];
        self.pool.reset();
        let pool_base = self.pool.used();
        let cfg = ExecConfig {
            learning_rate: self.opts.learning_rate,
            weight_decay: self.opts.weight_decay,
            apply_update: train,
        };
        // The lowered backend first asks its cache for the graph: a batch
        // structurally identical to an earlier one reserves the same pool
        // region with one allocation and skips script generation. Every
        // other backend (and every miss) generates. The session is prepared
        // after the transfer and launch draws, so only an attempt that
        // launches counts a cache hit or lowers.
        let warm = (backend == BackendKind::Lowered)
            .then(|| {
                self.lowered
                    .lookup_graph(plan, graph, root, train, pool_base)
            })
            .flatten();
        let (generated, ready);
        let mut script = match warm {
            Some(art) => {
                self.pool
                    .alloc(art.pool_len)
                    .map_err(|_| VppsError::PoolExhausted {
                        requested: art.pool_len,
                        capacity: self.pool.capacity(),
                    })?;
                art.replay_generate_obs();
                let counts = (
                    art.forward_instructions,
                    art.backward_instructions,
                    art.encoded_bytes,
                );
                if !self.stage(graph, train, &art.layout, counts, cost) {
                    return Ok(None);
                }
                self.lowered.note_graph_hit();
                Script::Lowered(art, Vec::new())
            }
            None => {
                // `lookup_graph` built this batch's key: a batch prepared
                // ahead for it stands in for generating and lowering.
                ready = ahead.take_if(|a| {
                    backend == BackendKind::Lowered
                        && Arc::ptr_eq(&a.plan, plan)
                        && Arc::ptr_eq(&a.tables, &self.tables)
                        && a.helpers == self.lowered.helpers()
                        && self.lowered.looked_up(&a.gs.key)
                });
                let gs = match &ready {
                    Some(ready) => &ready.gs,
                    None => {
                        let pool = (pool_base, self.pool.capacity());
                        let tables = &self.tables;
                        generated =
                            generate::generate_detached(graph, root, plan, train, pool, tables)?;
                        &generated
                    }
                };
                gs.record_obs();
                self.pool
                    .alloc(gs.pool_len)
                    .map_err(|_| VppsError::PoolExhausted {
                        requested: gs.pool_len,
                        capacity: self.pool.capacity(),
                    })?;
                let counts = (
                    gs.forward_instructions,
                    gs.backward_instructions,
                    gs.scripts.encoded_bytes(),
                );
                if !self.stage(graph, train, &gs.layout, counts, cost) {
                    *ahead = ready;
                    return Ok(None);
                }
                if backend == BackendKind::Lowered {
                    // Repeated shapes skip lowering *and* the timeline sweep.
                    let plan = &self.plans[slot];
                    let art = match ready {
                        Some(Ahead {
                            gs,
                            lowered,
                            lower_ns,
                            ..
                        }) => self.lowered.get_or_insert(&gs, |_| (lowered, lower_ns)),
                        None => self.lowered.get_or_lower(plan, gs, self.gpu.cost_model()),
                    };
                    Script::Lowered(art, Vec::new())
                } else {
                    Script::Interpreted(gs, None)
                }
            }
        };
        // Hit or miss, the batch's literals come from its graph, at the
        // sources the generator recorded.
        if let Script::Lowered(art, patches) = &mut script {
            *patches = art.patches(graph, &self.tables);
        }
        let plan = &self.plans[slot];
        let session = Session::new(plan, cfg, self.gpu.cost_model(), script);
        let before = self.gpu.now();
        if draw_fault(&mut self.faults, FaultKind::VppHang, self.gpu.now()) {
            // The kernel launches, one CTA stops advancing, and the watchdog
            // kills it after its timeout elapses on the virtual clock.
            self.gpu.record_failed_launch();
            self.gpu
                .advance(recovery::watchdog_timeout(session.metrics.kernel_time));
            self.rec.stats.watchdog_timeouts += 1;
            return Ok(None);
        }
        // A DRAM corruption is only detected by ECC *after* the run: the
        // full body time is paid, but nothing would read the values, so none
        // are computed.
        let dram_fault = draw_fault(&mut self.faults, FaultKind::DramCorruption, self.gpu.now());
        session.metrics.commit(&mut self.gpu);
        if dram_fault {
            return Ok(None);
        }
        cost.kernel_exec = self.gpu.now() - before;
        self.kernel_metrics.merge(&session.metrics);
        let arena = self.arenas[slot]
            .take()
            .unwrap_or_else(|| RegCache::new(plan.distribution()));
        let mut sweep = session.sweep;
        sweep.helpers = self.lowered.helpers();
        Ok(Some(Prepared { sweep, arena, slot }))
    }

    /// The transfer half of an attempt: charges the host scheduling of
    /// `forward` and `backward` instructions, copies the graph's inputs to
    /// their `layout` offsets, charges those and the `script_bytes` as H2D
    /// copies, and draws the transfer and launch faults, in that order.
    /// Returns `false` if one of them fired.
    fn stage(
        &mut self,
        graph: &Graph,
        train: bool,
        layout: &BatchLayout,
        (forward, backward, script_bytes): (usize, usize, usize),
        cost: &mut PhaseBreakdown,
    ) -> bool {
        cost.forward_schedule += self.host.schedule(graph.len(), forward);
        if train {
            cost.backward_schedule += self.host.schedule(graph.len(), backward);
        }
        let mut input_bytes = 0u64;
        for (id, node) in graph.iter() {
            if let Op::Input { values } = &node.op {
                self.pool
                    .slice_mut(layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
                input_bytes += (node.dim * 4) as u64;
            }
        }
        if input_bytes > 0 {
            cost.script_copy += self.gpu.h2d_copy(input_bytes, TrafficTag::Activation);
        }
        cost.script_copy += self.gpu.h2d_copy(script_bytes as u64, TrafficTag::Script);
        if draw_fault(
            &mut self.faults,
            FaultKind::TransferCorruption,
            self.gpu.now(),
        ) {
            // Caught by the end-to-end transfer checksum before launch; the
            // copy time above is already paid.
            return false;
        }
        if draw_fault(&mut self.faults, FaultKind::LaunchFailure, self.gpu.now()) {
            self.gpu.record_failed_launch();
            return false;
        }
        true
    }

    /// Charges one fault to the active plan; at the quarantine threshold the
    /// plan's lowered artifacts and memo entries are invalidated together and
    /// the plan is re-JITted — exactly once per plan (a plan that keeps
    /// faulting after its re-JIT is not rebuilt again; retry and fallback
    /// handle it from there).
    fn note_plan_fault(&mut self, model: &Model) -> Result<(), VppsError> {
        let plan_id = self.plans[self.active].signature().plan_id();
        let count = self.rec.fault_counts.entry(plan_id).or_insert(0);
        *count += 1;
        if *count >= QUARANTINE_THRESHOLD && !self.rec.rejitted.contains(&plan_id) {
            self.rec.rejitted.insert(plan_id);
            self.rec.stats.quarantines += 1;
            vpps_obs::counter("recover.quarantine").incr();
            self.lowered.invalidate_plan(plan_id);
            let rpw = self.plans[self.active].rpw();
            let device = self.gpu.config().clone();
            self.rec.stats.jit_retries += simulate_jit(&mut self.faults, self.gpu.now())? as u64;
            self.plans[self.active] = Arc::new(KernelPlan::build(model, &device, rpw)?);
            self.arenas[self.active] = None;
            self.rec.stats.rejits += 1;
        }
        Ok(())
    }

    /// Charges the ladder's last rung: DyNet-style launch-per-op execution
    /// of `graph` on the host reference executor, one kernel per node,
    /// weights re-read from DRAM on every matvec — the §II cost structure
    /// VPPS exists to avoid, acceptable as a last resort. Per-op kernels hold
    /// no persistent register state to poison, so this rung is modeled
    /// fault-free — it terminates the recovery recursion by construction.
    /// [`Compute::run`] computes its values.
    fn charge_baseline(&mut self, model: &Model, graph: &Graph) {
        self.rec.stats.baseline_fallbacks += 1;
        vpps_obs::counter("recover.fallback.baseline").incr();
        for (_, node) in graph.iter() {
            let weight_bytes = match node.op {
                Op::MatVec { w } => (model.param(w).value.as_slice().len() * 4) as u64,
                _ => 0,
            };
            self.gpu.launch(&KernelDesc {
                label: "recover-baseline-op",
                weight_bytes,
                other_load_bytes: (node.dim * 4) as u64,
                store_bytes: (node.dim * 4) as u64,
                flops: (2 * node.dim * node.dim) as u64,
                ctas: 1,
            });
        }
    }

    /// Runs *inference*: forward propagation only, with weights register-
    /// cached, one persistent kernel, and no parameter update. Returns the
    /// value of `root` (any node). Synchronous — inference latency is the
    /// quantity of interest.
    ///
    /// # Panics
    ///
    /// Panics if the batch exhausts the device memory pool.
    pub fn infer(&mut self, model: &mut Model, graph: &Graph, root: NodeId) -> Vec<f32> {
        // Unreachable because `infer_many` returns one value per root.
        self.infer_many(model, graph, &[root])
            .pop()
            .expect("one root")
    }

    /// Batch inference dispatch: executes `graph` (typically a super-graph
    /// absorbed from several independent request graphs) with **one**
    /// generated script and **one** persistent-kernel launch, then reads the
    /// value of every node in `roots`. The prologue weight load — the
    /// dominant cost of small inference graphs — is paid once for the whole
    /// batch, which is what makes cross-request batching in `vpps-serve`
    /// profitable.
    ///
    /// Because the script generator schedules the entire graph, every root's
    /// value is computed exactly as it would be for a single-graph
    /// [`Handle::infer`] call — batched and serial execution are
    /// bit-identical per request. With fault injection armed, faulted
    /// attempts retry and degrade exactly like [`Handle::try_fb`]'s; the
    /// final rung is launch-per-op forward execution on the host reference.
    /// A caller that wants the typed error calls [`Handle::dispatch`],
    /// [`Compute::run`] and [`Handle::join`] itself.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty or on any [`Handle::dispatch`] error —
    /// most commonly a batch exhausting the device memory pool.
    pub fn infer_many(
        &mut self,
        model: &mut Model,
        graph: &Graph,
        roots: &[NodeId],
    ) -> Vec<Vec<f32>> {
        let done = match self.dispatch(model, graph, roots, false) {
            Ok(compute) => compute.run(model, graph, roots),
            Err(e) => panic!("infer_many failed: {e}"),
        };
        match self.join(done) {
            Output::Roots(values) => values,
            Output::Loss(_) => unreachable!("an inference dispatch computes its roots"),
        }
    }

    /// Waits for the in-flight device work and returns the most recent loss
    /// — the paper's `hndl.sync_get_latest_loss()`.
    pub fn sync_get_latest_loss(&mut self) -> f32 {
        self.wall += self.prev_device_time;
        self.prev_device_time = SimTime::ZERO;
        self.prev_loss
    }

    /// The currently active kernel plan.
    pub fn plan(&self) -> &KernelPlan {
        &self.plans[self.active]
    }

    /// All compiled plans (one per candidate `rpw` under
    /// [`RpwMode::Profile`]).
    pub fn plans(&self) -> &[Arc<KernelPlan>] {
        &self.plans
    }

    /// Hit/miss tallies of the lowered-artifact cache (only populated when
    /// [`VppsOptions::backend`] is [`BackendKind::Lowered`]).
    pub fn lowered_cache_stats(&self) -> engine::LoweredCacheStats {
        self.lowered.stats()
    }

    /// Test hook: the handle's lowered-artifact cache, so a test can swap in
    /// a smaller one ([`engine::LoweredCache::with_capacity`]) or the
    /// reference that never fills in warm summaries, so every batch
    /// generates its scripts ([`engine::LoweredCache::without_graph_index`]).
    #[doc(hidden)]
    pub fn lowered_cache_mut(&mut self) -> &mut engine::LoweredCache {
        &mut self.lowered
    }

    /// Sets how many helper threads this handle's batches use to split
    /// their compute half — a lowered sweep's waves, the epilogue's halves:
    /// `0`, all on the thread that computes the batch; `1`, the helper on
    /// every wave with chunk work and every half, even on one core (the
    /// test hook). A new handle splits work of at least
    /// `engine::lowered`'s threshold when the host has a second core
    /// (DESIGN.md §8 "Wave-parallel sweep"). Set it before the first batch:
    /// it also decides which waves lowering plans for the artifacts this
    /// handle caches.
    #[doc(hidden)]
    pub fn set_sweep_helpers(&mut self, helpers: usize) {
        self.lowered.set_helpers(match helpers {
            0 => engine::Helpers::Off,
            _ => engine::Helpers::Forced,
        });
    }

    /// The fault injector, if armed via [`VppsOptions::faults`]. Exposes the
    /// journal and per-kind injection counts for reproducibility checks.
    pub fn fault_profile(&self) -> Option<&FaultProfile> {
        self.faults.as_ref()
    }

    /// Cumulative recovery activity (retries, backoff time, fallbacks,
    /// quarantines, rollbacks) since construction.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.rec.stats
    }

    /// Modeled JIT cost of the active plan (Table II reports this per
    /// application).
    pub fn jit_cost(&self) -> JitCost {
        self.plans[self.active].jit_cost()
    }

    /// The simulated device (traffic counters, kernel statistics).
    pub fn gpu(&self) -> &GpuSim {
        &self.gpu
    }

    /// Unified cumulative metrics: the device's measured counters (traffic,
    /// launches, copies) plus the engine's analytic barrier-stall and
    /// load-imbalance data.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::capture(&self.gpu);
        m.barrier_stall = self.kernel_metrics.barrier_stall;
        m.imbalance = self.kernel_metrics.imbalance;
        m
    }

    /// The configured execution backend.
    pub fn backend(&self) -> BackendKind {
        self.opts.backend
    }

    /// Pipelined simulated wall time over all batches so far. Call
    /// [`Handle::sync_get_latest_loss`] first to drain in-flight device work
    /// when computing end-to-end throughput.
    pub fn wall_time(&self) -> SimTime {
        self.wall
    }

    /// Steady-state pipelined time: `Σ max(host_i, device_i)` over batches.
    /// This is the asymptotic training rate once the host-prepare /
    /// device-execute pipeline of §III-C1 is saturated, free of the
    /// fill/drain edge effects [`Handle::wall_time`] includes — use it for
    /// throughput numbers.
    pub fn steady_state_time(&self) -> SimTime {
        self.steady
    }

    /// Accumulated per-phase times (Fig. 10).
    pub fn phases(&self) -> &PhaseBreakdown {
        &self.phases
    }

    /// Batches processed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// `true` once the profile-guided search has settled.
    pub fn profile_settled(&self) -> bool {
        self.profile.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyn_graph::Trainer;
    use gpu_sim::DeviceConfig;
    use vpps_tensor::Matrix;

    fn small_device() -> DeviceConfig {
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 4;
        d
    }

    fn toy_model() -> (Model, dyn_graph::ParamId, dyn_graph::ParamId) {
        let mut m = Model::new(77);
        let w = m.add_matrix("W", 24, 24);
        let cls = m.add_matrix("cls", 4, 24);
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
        let mut h = g.input(vec![0.25; 24]);
        for _ in 0..steps {
            let z = g.matvec(m, w, h);
            h = g.tanh(z);
        }
        let o = g.matvec(m, cls, h);
        let loss = g.pick_neg_log_softmax(o, label);
        (g, loss)
    }

    fn opts() -> VppsOptions {
        VppsOptions {
            pool_capacity: 1 << 20,
            learning_rate: 0.05,
            ..VppsOptions::default()
        }
    }

    /// A handle on the lowered backend whose cache holds `capacity`
    /// artifacts, planned with `rpw`.
    fn lowered_handle(m: &Model, rpw: RpwMode, capacity: usize) -> Handle {
        let o = VppsOptions {
            rpw,
            backend: BackendKind::Lowered,
            ..opts()
        };
        let mut h = Handle::new(m, small_device(), o).unwrap();
        *h.lowered_cache_mut() = engine::LoweredCache::with_capacity(capacity);
        h
    }

    /// What a dispatch fixed and computed, as text that compares bits: the
    /// output, the clocks and phases, the metrics and the cache tallies.
    fn footprint(h: &Handle, out: &Output) -> String {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let out = match out {
            Output::Loss(loss) => vec![vec![loss.to_bits()]],
            Output::Roots(roots) => roots.iter().map(|r| bits(r)).collect(),
        };
        format!(
            "{out:?} {:x} {:x} {:?} {:?} {:?}",
            h.wall_time().as_ns().to_bits(),
            h.steady_state_time().as_ns().to_bits(),
            h.phases(),
            h.metrics(),
            h.lowered_cache_stats()
        )
    }

    /// A batch prepared ahead — on another thread, while the batch before
    /// it holds the handle's pool — dispatches exactly like the miss it
    /// stands in for: the same values, clocks, phases, metrics and cache
    /// tallies, along a sequence of training and inference batches that
    /// evicts from a two-entry cache and misses keys it lowered before.
    #[test]
    fn a_prepared_miss_dispatches_like_an_inline_miss() {
        let (m, w, cls) = toy_model();
        let (mut ma, mut mb) = (m.clone(), m.clone());
        let mut inline = lowered_handle(&m, RpwMode::Fixed(1), 2);
        let mut prepared = lowered_handle(&m, RpwMode::Fixed(1), 2);
        let seq = [1, 2, 3, 1, 2, 2, 3, 1].map(|steps| {
            let train = steps != 2;
            let (g, l) = toy_graph(&m, w, cls, steps, steps);
            (g, [l], train)
        });
        let mut offered = 0;
        let mut ahead = None;
        for (i, (g, roots, train)) in seq.iter().enumerate() {
            let done = inline.dispatch(&ma, g, roots, *train).unwrap();
            let a = inline.join(done.run(&mut ma, g, roots));
            let compute = prepared
                .dispatch_prepared(&mb, g, roots, *train, &mut ahead)
                .unwrap();
            assert!(
                ahead.is_none(),
                "batch {i}: a miss takes the artifact made for it"
            );
            // The next batch is prepared while this one holds the pool.
            if let Some((g, roots, train)) = seq.get(i + 1) {
                let preparer = prepared.prepare_ahead(g, roots, *train);
                ahead = std::thread::scope(|s| {
                    s.spawn(|| preparer.and_then(|p| p.run(g))).join().unwrap()
                });
                offered += u64::from(ahead.is_some());
            }
            let b = prepared.join(compute.run(&mut mb, g, roots));
            assert_eq!(
                footprint(&inline, &a),
                footprint(&prepared, &b),
                "batch {i}"
            );
        }
        let stats = prepared.lowered_cache_stats();
        assert!(
            stats.script_evictions > 0 && stats.script_re_misses > 0,
            "{stats:?}"
        );
        assert_eq!(
            offered + 1,
            stats.script_misses,
            "every miss after the first prepared"
        );
        let params = |m: &Model| {
            m.params()
                .flat_map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(params(&ma), params(&mb));
    }

    /// An artifact made for another handle, another plan slot, another
    /// train flag or another pool base is refused — left where it was — and
    /// the batch generates and lowers as if none had been offered.
    #[test]
    fn a_foreign_artifact_is_refused_and_regenerated() {
        let (m, w, cls) = toy_model();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        let roots = [l];
        let dispatch = |h: &mut Handle, train, ahead: Option<Ahead>| {
            let mut ahead = ahead;
            let offered = ahead.is_some();
            let mut replica = m.clone();
            let compute = h
                .dispatch_prepared(&replica, &g, &roots, train, &mut ahead)
                .unwrap();
            assert!(!offered || ahead.is_some(), "the artifact is refused");
            let out = h.join(compute.run(&mut replica, &g, &roots));
            footprint(h, &out)
        };
        let fixed = || lowered_handle(&m, RpwMode::Fixed(1), 8);
        let made = |h: &mut Handle, train| h.prepare_ahead(&g, &roots, train)?.run(&g);

        // Another handle's, on the same model and device.
        let ahead = made(&mut fixed(), false);
        assert_eq!(
            dispatch(&mut fixed(), false, ahead),
            dispatch(&mut fixed(), false, None)
        );
        // Made for inference, dispatched for training.
        let mut h = fixed();
        let ahead = made(&mut h, false);
        assert_eq!(
            dispatch(&mut h, true, ahead),
            dispatch(&mut fixed(), true, None)
        );
        // Laid out from another pool base.
        let mut h = fixed();
        let mut preparer = h.prepare_ahead(&g, &roots, false).unwrap();
        preparer.pool.0 += 8;
        let ahead = preparer.run(&g);
        assert_eq!(
            dispatch(&mut h, false, ahead),
            dispatch(&mut fixed(), false, None)
        );
        // Made under plan slot 0, dispatched under slot 1.
        let profiled = |active| {
            let mut h = lowered_handle(&m, RpwMode::Profile, 8);
            assert!(h.plans().len() > 1, "profile mode compiles several plans");
            h.active = active;
            h
        };
        let mut h = profiled(0);
        let ahead = made(&mut h, false);
        h.active = 1;
        assert_eq!(
            dispatch(&mut h, false, ahead),
            dispatch(&mut profiled(1), false, None)
        );
    }

    #[test]
    fn fb_returns_stale_loss_and_sync_returns_latest() {
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        let first = h.fb(&mut m, &g, l);
        assert_eq!(first, 0.0, "first fb returns the (empty) previous loss");
        let latest = h.sync_get_latest_loss();
        assert!(latest > 0.0);
        let (g2, l2) = toy_graph(&m, w, cls, 3, 2);
        let second = h.fb(&mut m, &g2, l2);
        assert_eq!(second, latest, "fb returns the previous batch's loss");
    }

    #[test]
    fn training_matches_reference_executor() {
        let (mut m, w, cls) = toy_model();
        let mut ref_model = m.clone();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        let trainer = Trainer::new(0.05);
        let mut vpps_losses = Vec::new();
        let mut ref_losses = Vec::new();
        for step in 0..6 {
            let steps = 1 + step % 3; // dynamic shapes across batches
            let (g, l) = toy_graph(&m, w, cls, steps, step % 4);
            h.fb(&mut m, &g, l);
            vpps_losses.push(h.sync_get_latest_loss());

            let (rg, rl) = toy_graph(&ref_model, w, cls, steps, step % 4);
            ref_losses.push(dyn_graph::exec::forward_backward(&rg, &mut ref_model, rl));
            trainer.update(&mut ref_model);
        }
        for (a, b) in vpps_losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 5e-3, "vpps {a} vs reference {b}");
        }
    }

    #[test]
    fn one_kernel_launch_per_batch() {
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        for i in 0..5 {
            let (g, l) = toy_graph(&m, w, cls, 1 + i % 2, 0);
            h.fb(&mut m, &g, l);
        }
        assert_eq!(h.gpu().stats().kernels_launched, 5);
        assert_eq!(h.batches(), 5);
    }

    #[test]
    fn wall_time_overlaps_host_and_device() {
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        for _ in 0..4 {
            let (g, l) = toy_graph(&m, w, cls, 2, 1);
            h.fb(&mut m, &g, l);
        }
        let wall_before_sync = h.wall_time();
        h.sync_get_latest_loss();
        let wall = h.wall_time();
        assert!(wall > wall_before_sync);
        // Overlap: wall is less than the serial sum of host + device time.
        let serial = h.phases().host_total() + h.phases().device_total();
        assert!(
            wall <= serial + SimTime::from_ns(1.0),
            "wall {wall} vs serial {serial}"
        );
    }

    #[test]
    fn profile_mode_settles_on_a_plan() {
        let (mut m, w, cls) = toy_model();
        let mut o = opts();
        o.rpw = RpwMode::Profile;
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        assert!(
            h.plans().len() > 1,
            "profile mode compiles multiple kernels"
        );
        for _ in 0..(h.plans().len() + 2) {
            let (g, l) = toy_graph(&m, w, cls, 2, 1);
            h.fb(&mut m, &g, l);
            if h.profile_settled() {
                break;
            }
        }
        assert!(h.profile_settled());
        // Training still works after settling.
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        h.fb(&mut m, &g, l);
        assert!(h.sync_get_latest_loss() > 0.0);
    }

    #[test]
    fn infer_many_matches_serial_infer_bitwise() {
        let (mut m, w, cls) = toy_model();
        // Serial reference: one infer call per graph on a fresh handle.
        let mut serial = Handle::new(&m, small_device(), opts()).unwrap();
        let mut expected = Vec::new();
        for steps in [1usize, 2, 3] {
            let (g, l) = toy_graph(&m, w, cls, steps, 0);
            expected.push(serial.infer(&mut m, &g, l));
        }
        // Batched: absorb the three graphs into one super-graph.
        let mut batched = Handle::new(&m, small_device(), opts()).unwrap();
        let mut sg = Graph::new();
        let mut roots = Vec::new();
        for steps in [1usize, 2, 3] {
            let (g, l) = toy_graph(&m, w, cls, steps, 0);
            roots.push(sg.absorb(&g, l));
        }
        let launches_before = batched.gpu().stats().kernels_launched;
        let got = batched.infer_many(&mut m, &sg, &roots);
        assert_eq!(
            batched.gpu().stats().kernels_launched,
            launches_before + 1,
            "one kernel for the whole batch"
        );
        assert_eq!(got, expected, "batched inference is bit-identical");
    }

    /// Two embedding tables feeding one classifier; `tokens` are looked up in
    /// the first table, `tag` in the second.
    fn lookup_model() -> (Model, [dyn_graph::LookupId; 2], dyn_graph::ParamId) {
        let mut m = Model::new(91);
        let words = m.add_lookup("words", 7, 24);
        let tags = m.add_lookup("tags", 3, 24);
        let cls = m.add_matrix("cls", 4, 24);
        (m, [words, tags], cls)
    }

    fn lookup_graph(
        m: &Model,
        [words, tags]: [dyn_graph::LookupId; 2],
        cls: dyn_graph::ParamId,
        tokens: &[usize],
        tag: usize,
    ) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let mut h = g.lookup(m, tags, tag);
        for &t in tokens {
            let e = g.lookup(m, words, t);
            let s = g.add(h, e);
            h = g.tanh(s);
        }
        let o = g.matvec(m, cls, h);
        let loss = g.pick_neg_log_softmax(o, 2);
        (g, loss)
    }

    /// The dense embedding step `apply_lookup_updates` ran on every batch
    /// before it went sparse: accumulate, sweep every element of every
    /// table, zero every gradient.
    fn dense_lookup_reference(h: &Handle, model: &mut Model, graph: &Graph, layout: &BatchLayout) {
        for (id, node) in graph.iter() {
            if let Op::Lookup { table, index } = node.op {
                let d = h.pool.slice(layout.deriv_off[id.index()], node.dim);
                let row = model.lookup_mut(table).grad.row_mut(index);
                for (g, v) in row.iter_mut().zip(d) {
                    *g += v;
                }
            }
        }
        let (lr, wd) = (h.opts.learning_rate, h.opts.weight_decay);
        for lid in model.lookups().map(|(id, _)| id).collect::<Vec<_>>() {
            let l = model.lookup_mut(lid);
            for i in 0..l.table.len() {
                let g = l.grad.as_slice()[i];
                let v = l.table.as_slice()[i];
                l.table.as_mut_slice()[i] = v - lr * (g + wd * v);
            }
            l.grad.fill_zero();
        }
    }

    /// Runs one batch's kernel, then the lookup epilogue on `model` and the
    /// dense reference on a clone, and checks tables, gradients and the
    /// pool-resident copies agree bit for bit. Returns the tables before and
    /// after, as bits.
    fn check_lookup_epilogue(weight_decay: f32) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut m, tables, cls) = lookup_model();
        let mut o = opts();
        o.weight_decay = weight_decay;
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        // Row 5 is looked up twice in this batch, rows 0, 3, 4 and 6 of
        // `words` and rows 0 and 2 of `tags` not at all.
        let (g, loss) = lookup_graph(&m, tables, cls, &[5, 1, 5, 2], 1);
        let before: Vec<_> = m.lookups().map(|(_, l)| bits(&l.table)).collect();
        let mut cost = PhaseBreakdown::default();
        let recovered = h.run_with_recovery(&m, &g, loss, true, &mut None, &mut cost);
        let recovered = recovered.unwrap();
        let mut ok = recovered.expect("no fault is armed");
        ok.sweep.run(&mut h.pool, &mut m, &mut ok.arena);
        let layout = ok.sweep.layout();
        let mut reference = m.clone();
        dense_lookup_reference(&h, &mut reference, &g, layout);
        let rates = (h.opts.learning_rate, h.opts.weight_decay);
        apply_lookup_updates(&mut m, &g, layout, &mut h.pool, &h.tables, rates);

        for ((id, got), (_, want)) in m.lookups().zip(reference.lookups()) {
            assert_eq!(bits(&got.table), bits(&want.table), "table {}", got.name);
            assert_eq!(bits(&got.grad), bits(&want.grad), "grad {}", got.name);
            assert!(got.grad.as_slice().iter().all(|v| v.to_bits() == 0));
            let resident = h.pool.slice(h.tables.row_offset(id, 0), got.table.len());
            assert_eq!(resident, want.table.as_slice(), "pool copy of {}", got.name);
        }
        let after = m.lookups().map(|(_, l)| bits(&l.table)).collect();
        (before, after)
    }

    #[test]
    fn sparse_lookup_update_matches_the_dense_sweep() {
        let (before, after) = check_lookup_epilogue(0.0);
        let dim = 24;
        for (table, touched) in [(0, &[1usize, 2, 5][..]), (1, &[1][..])] {
            for row in 0..before[table].len() / dim {
                let moved = before[table][row * dim..][..dim] != after[table][row * dim..][..dim];
                assert_eq!(moved, touched.contains(&row), "table {table} row {row}");
            }
        }
    }

    #[test]
    fn weight_decay_takes_the_dense_lookup_path() {
        let (before, after) = check_lookup_epilogue(0.01);
        for (b, a) in before.iter().flatten().zip(after.iter().flatten()) {
            assert_ne!(b, a, "weight decay moves every element of every table");
        }
    }

    /// The baseline rung steps the lookup tables on the host reference, so
    /// its `Compute` must re-copy them to their pool-resident rows: the next
    /// persistent kernel reads the tables from there.
    #[test]
    fn baseline_rung_refreshes_the_resident_tables() {
        let (mut m, tables, cls) = lookup_model();
        let o = VppsOptions {
            faults: FaultConfig::parse("seed=7,launch=1.0").unwrap(),
            ..opts()
        };
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        let (g, loss) = lookup_graph(&m, tables, cls, &[5, 1, 5, 2], 1);
        let before = m.clone();
        h.fb(&mut m, &g, loss);
        assert_eq!(h.recovery_stats().baseline_fallbacks, 1);
        for ((id, got), (_, old)) in m.lookups().zip(before.lookups()) {
            assert_ne!(got.table, old.table, "the step moved {}", got.name);
            let resident = h.pool.slice(h.tables.row_offset(id, 0), got.table.len());
            assert_eq!(resident, got.table.as_slice(), "pool copy of {}", got.name);
        }
    }

    #[test]
    fn graph_hit_on_a_pool_too_small_is_a_typed_error() {
        let (mut m, tables, cls) = lookup_model();
        let mut o = opts();
        o.backend = BackendKind::Lowered;
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        let (g, loss) = lookup_graph(&m, tables, cls, &[5, 1], 1);
        h.fb(&mut m, &g, loss);
        // Same residents, same floor, but room for nothing above it: the
        // next structurally identical batch is a warm hit and must
        // fail reserving its region, exactly as generating would.
        h.pool = Pool::with_capacity(h.pool.floor() + 8);
        h.tables = Arc::new(TableLayout::install(&m, &mut h.pool).unwrap());
        let (g2, loss2) = lookup_graph(&m, tables, cls, &[2, 6], 0);
        let err = h.try_fb(&mut m, &g2, loss2).unwrap_err();
        // One request for the whole region, not a node-sized one.
        assert!(
            matches!(err, VppsError::PoolExhausted { requested, .. } if requested > 24),
            "{err}"
        );
        assert_eq!(h.lowered_cache_stats().graph_hits, 0, "no hit was served");
    }

    #[test]
    fn jit_cost_is_exposed() {
        let (m, _, _) = toy_model();
        let h = Handle::new(&m, small_device(), opts()).unwrap();
        assert!(h.jit_cost().program_compile.as_secs() > 0.0);
        assert!(h.jit_cost().module_load.as_secs() > 0.0);
    }

    #[test]
    fn empty_model_is_rejected() {
        let m = Model::new(0);
        let err = Handle::new(&m, small_device(), opts()).unwrap_err();
        assert_eq!(err, VppsError::NoParameters);
    }

    #[test]
    fn phase_breakdown_accumulates() {
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        h.fb(&mut m, &g, l);
        let p = *h.phases();
        assert!(p.graph_construction > SimTime::ZERO);
        assert!(p.forward_schedule > SimTime::ZERO);
        assert!(p.backward_schedule > SimTime::ZERO);
        assert!(p.script_copy > SimTime::ZERO);
        assert!(p.kernel_exec > SimTime::ZERO);
    }

    /// The clock to the bit: `wall_time`, `steady_state_time` and the seven
    /// `phases()` fields as `to_bits()` hex after every step of four
    /// sessions — pipelined training with an unsynced inference in the
    /// pipeline, synchronous training, typed errors, and the baseline rung —
    /// recorded at commit `c1d8e9e`, where three hand-kept copies wrote them
    /// (the typed-error rows, a pool too small for the graph, at `644d7cf`).
    #[test]
    fn accounting_is_pinned_across_commits() {
        const PINNED: [&str; 12] = [
            // (a) fb ×3, infer (unsynced), sync_get_latest_loss, infer_many
            "40a77a9e262bc501 40f3d4909d89d89e 4093880000000000 408a412ec7fc46d8 408c9949d0b2cd2c 40cf5c8000000000 40efd2013b13b13c 0000000000000000 0000000000000000",
            "40f490658ebb36c6 410791d86906906a 40a7700000000000 409fe1c619146968 40a176f8f15f59c8 40df64aaaaaaaaab 4103a54313b13b14 0000000000000000 0000000000000000",
            "4107efc2e19f3f7e 41147b5827627629 40b4820000000000 40ac21dff6d61660 40aef2109bd5b83e 40e791a000000000 4111892427627628 0000000000000000 3db0000000000000",
            "410e4002a0d04257 4117a37806faf795 40b9640000000000 40b15915d46a940b 40aef2109bd5b83e 40ef64d555555556 41139634c4ec4ec6 0000000000000000 3dc0000000000000",
            "4117d26d43474f20 4117a37806faf795 40b9640000000000 40b15915d46a940b 40aef2109bd5b83e 40ef64d555555556 41139634c4ec4ec6 0000000000000000 3dc0000000000000",
            "411c1a663ec36380 411beb7102770bf4 40c28e0000000000 40b951f23d484963 40aef2109bd5b83e 40f39e0aaaaaaaab 411694824ec4ec50 0000000000000000 3dc0000000000000",
            // (b) synchronous: fb, infer
            "40fc5a0a23413682 40fc5a0a23413682 409b580000000000 4092c12eb51645fc 4094a14cfa654cfb 40cf6cd555555556 40f7618589d89d8b 0000000000000000 0000000000000000",
            "41067670dea1c13c 41067670dea1c13c 40ab580000000000 40a2c12eb51645fc 4094a14cfa654cfb 40df5fc000000000 4101a8d189d89d8a 0000000000000000 0000000000000000",
            // (c) a pool too small for the graph: try_fb Err, inference dispatch Err
            "409b580000000000 409b580000000000 409b580000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000",
            "40ab580000000000 40ab580000000000 40ab580000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000",
            // (d) launch=1.0: fb and infer on the baseline rung
            "40c22fee61ce571c 40fa9124c3f3cedc 409b580000000000 40ac21c60fa168fa 40aef1f37797f378 40e791a000000000 0000000000000000 40e291cec4ec4ec2 40d5fdb585f69dec",
            "40fe3abce1e9cd5a 410b42f1ecd1e8a9 40ab580000000000 40bc21c60fa168fa 40aef1f37797f378 40f787d000000000 0000000000000000 40f291cec4ec4ec5 40e63badc874ee8a",
        ];
        fn clock(h: &Handle) -> String {
            let p = h.phases();
            [
                h.wall_time(),
                h.steady_state_time(),
                p.graph_construction,
                p.forward_schedule,
                p.backward_schedule,
                p.script_copy,
                p.kernel_exec,
                p.fallback_exec,
                p.recovery,
            ]
            .map(|t| format!("{:016x}", t.as_ns().to_bits()))
            .join(" ")
        }
        let mut got = Vec::new();

        // (a) Pipelined: inference must leave the in-flight training batch
        // for the sync to drain.
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        for (steps, label) in [(1, 0), (2, 1), (3, 2)] {
            let (g, l) = toy_graph(&m, w, cls, steps, label);
            h.fb(&mut m, &g, l);
            got.push(clock(&h));
        }
        let (g, root) = toy_graph(&m, w, cls, 1, 0);
        h.infer(&mut m, &g, root);
        got.push(clock(&h));
        h.sync_get_latest_loss();
        got.push(clock(&h));
        let mut sg = Graph::new();
        let mut roots = Vec::new();
        for steps in [1, 2] {
            let (g, root) = toy_graph(&m, w, cls, steps, 0);
            roots.push(sg.absorb(&g, root));
        }
        h.infer_many(&mut m, &sg, &roots);
        got.push(clock(&h));

        // (b) Synchronous training.
        let (mut m, w, cls) = toy_model();
        let o = VppsOptions {
            synchronous: true,
            ..opts()
        };
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        h.fb(&mut m, &g, l);
        got.push(clock(&h));
        h.infer(&mut m, &g, l);
        got.push(clock(&h));

        // (c) A pool too small for the graph: typed errors, charged
        // synchronously with no kernel or fallback term.
        let (mut m, w, cls) = toy_model();
        let o = VppsOptions {
            pool_capacity: 64,
            ..opts()
        };
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        let trained = h.try_fb(&mut m, &g, l);
        assert!(matches!(trained, Err(VppsError::PoolExhausted { .. })));
        got.push(clock(&h));
        let inferred = h
            .dispatch(&m, &g, &[l], false)
            .map(|c| h.join(c.run(&mut m, &g, &[l])));
        assert!(matches!(inferred, Err(VppsError::PoolExhausted { .. })));
        got.push(clock(&h));

        // (d) Every launch fails: both batches are served by the baseline
        // rung.
        let (mut m, w, cls) = toy_model();
        let o = VppsOptions {
            faults: FaultConfig::parse("seed=7,launch=1.0").unwrap(),
            ..opts()
        };
        let mut h = Handle::new(&m, small_device(), o).unwrap();
        let (g, l) = toy_graph(&m, w, cls, 2, 1);
        h.try_fb(&mut m, &g, l).unwrap();
        got.push(clock(&h));
        h.infer(&mut m, &g, l);
        got.push(clock(&h));

        assert_eq!(
            got, PINNED,
            "wall, steady, graph, fwd, bwd, copy, kernel, fallback, recovery per step; \
             if the change means to move the clock, re-record:\n{got:#?}"
        );
    }

    #[test]
    fn every_backend_produces_identical_counters() {
        // The engine guarantee: losses are bit-identical and the unified
        // metrics (DRAM bytes, launches) agree across every `BackendKind`.
        let mut reference: Option<(Vec<f32>, Metrics)> = None;
        for kind in BackendKind::ALL {
            let (mut m, w, cls) = toy_model();
            let mut o = opts();
            o.backend = kind;
            let mut h = Handle::new(&m, small_device(), o).unwrap();
            let mut losses = Vec::new();
            for step in 0..4 {
                let (g, l) = toy_graph(&m, w, cls, 1 + step % 3, step % 4);
                h.fb(&mut m, &g, l);
                losses.push(h.sync_get_latest_loss());
            }
            let metrics = h.metrics();
            assert_eq!(metrics.launches, 4);
            match &reference {
                None => reference = Some((losses, metrics)),
                Some((ref_losses, ref_metrics)) => {
                    assert_eq!(
                        &losses,
                        ref_losses,
                        "backend {} diverged from the reference losses",
                        kind.name()
                    );
                    assert_eq!(
                        metrics.dram,
                        ref_metrics.dram,
                        "backend {} posted different DRAM traffic",
                        kind.name()
                    );
                    assert_eq!(metrics.launches, ref_metrics.launches);
                    assert_eq!(metrics.kernel_time, ref_metrics.kernel_time);
                    assert_eq!(metrics.imbalance, ref_metrics.imbalance);
                }
            }
        }
    }

    #[test]
    fn handle_metrics_match_device_counters() {
        let (mut m, w, cls) = toy_model();
        let mut h = Handle::new(&m, small_device(), opts()).unwrap();
        for _ in 0..3 {
            let (g, l) = toy_graph(&m, w, cls, 2, 1);
            h.fb(&mut m, &g, l);
        }
        let metrics = h.metrics();
        assert_eq!(metrics.launches, h.gpu().stats().kernels_launched);
        assert_eq!(
            metrics.weight_load_bytes(),
            h.gpu().dram().loads(TrafficTag::Weight)
        );
        let vpps = h.plan().distribution().geometry().total_vpps() as u64;
        assert_eq!(
            metrics.imbalance.total(),
            3 * vpps,
            "one histogram entry per VPP per batch"
        );
        assert!(metrics.device_time() > SimTime::ZERO);
    }

    #[test]
    fn backend_kind_round_trips_through_names() {
        assert_eq!(BackendKind::ALL.len(), 2);
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        // Removed backends and the old undocumented aliases are rejected
        // with the same typed error as any other bogus value. (The removed
        // wave-parallel name is joined here so a grep for it stays empty.)
        let wave_parallel = ["parallel", "interp"].join("-");
        for gone in [
            "nonsense",
            "threaded",
            wave_parallel.as_str(),
            "event",
            "interp",
            "serial",
            "threads",
            "parallel",
            "lower",
        ] {
            let err = gone.parse::<BackendKind>().unwrap_err();
            assert!(err.starts_with("unknown backend"), "{gone}: {err}");
        }
    }
}
