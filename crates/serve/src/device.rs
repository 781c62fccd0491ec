//! One virtual device shard: warm handles, a bounded deadline-aware batch
//! queue, and serial execution on the virtual clock.
//!
//! A [`Device`] is the execution half of the sharded server. It owns one
//! warm [`Handle`] (and therefore one lowered-artifact cache) per
//! registered model, a scratch super-graph reused across batches, and a
//! queue of formed batches. The device is serially occupied: a batch
//! starts at `max(now, busy_until)`, and while the device is busy newly
//! routed batches wait in the queue. When the device frees up, the *most
//! deadline-urgent* queued batch runs next (FIFO among batches without
//! deadlines), so a latency-constrained batch is never stuck behind
//! best-effort work that happened to be formed first.
//!
//! Everything is deterministic: queue order is (earliest member deadline,
//! enqueue sequence), and all timing comes from the simulated device inside
//! each handle. The queue is bounded by construction — the server-wide
//! admission bound counts queued-on-device members as outstanding, so no
//! device queue can ever hold more than the admission capacity.

use std::collections::{BTreeSet, VecDeque};
use std::mem;

use dyn_graph::Model;
use gpu_sim::SimTime;
use vpps::{Ahead, Compute, Handle, LoweredCacheStats, Output};

use crate::batcher::{BucketKey, Pending};
use crate::compute::{Line, Prepare, Prepared, Scratch};
use crate::policy::{RETRY_BUDGET, WATCHDOG_GRACE};
use crate::request::{RequestId, RequestKind};

/// Identifier of one virtual device (shard) inside a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

/// Lifecycle state of one device shard.
///
/// `Healthy → Degraded → Healthy` (brownout), `Healthy → Draining → Down →
/// Reviving → Healthy` (crash, or a hang once the watchdog declares it).
/// `Draining` exists only instantaneously today — the drain (re-dispatching
/// queued and in-flight batches to survivors) completes atomically on the
/// virtual clock — but it is a distinct logged state so the transition log
/// shows *that* a drain happened between up and down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceHealth {
    /// Normal operation: full routing eligibility.
    #[default]
    Healthy,
    /// Running slow (brownout window): finishes what it has, keeps its
    /// affinity, but receives no new placements or steals.
    Degraded,
    /// Being emptied: queued and in-flight batches are re-dispatched.
    Draining,
    /// Out of service: receives nothing, executes nothing.
    Down,
    /// Back up but on probation: bounded admission (one batch at a time,
    /// placement only while idle) until it completes enough warm batches.
    Reviving,
}

impl DeviceHealth {
    /// Stable snake_case name (reports, traces, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Draining => "draining",
            DeviceHealth::Down => "down",
            DeviceHealth::Reviving => "reviving",
        }
    }

    /// Gauge encoding, in lifecycle order.
    pub fn as_gauge(self) -> f64 {
        match self {
            DeviceHealth::Healthy => 0.0,
            DeviceHealth::Degraded => 1.0,
            DeviceHealth::Draining => 2.0,
            DeviceHealth::Down => 3.0,
            DeviceHealth::Reviving => 4.0,
        }
    }
}

impl std::fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded health transition, for invariant tests and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// State before.
    pub from: DeviceHealth,
    /// State after.
    pub to: DeviceHealth,
}

/// Point-in-time numbers for one device, for reports and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Device index.
    pub id: usize,
    /// Batches executed successfully.
    pub batches: u64,
    /// Batches whose dispatch returned a typed error.
    pub failures: u64,
    /// Accumulated service time (device-busy virtual time).
    pub busy: SimTime,
    /// Requests currently waiting in the device queue.
    pub queued_members: usize,
    /// Current lifecycle state.
    pub health: DeviceHealth,
}

/// What became of the batches a device queued to be prepared ahead
/// (DESIGN.md §10 "Prepare ahead"), summed over devices by
/// [`crate::Server::prepare_stats`]. Host work only: no simulated or
/// computed value depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Artifacts the worker prepared that their batch's dispatch used.
    pub ahead: u64,
    /// Artifacts the event thread prepared itself, having taken the prepare
    /// back before the worker started it, that their batch's dispatch used.
    pub inline: u64,
    /// Prepares whose artifact no dispatch used: their batch was not the
    /// one the device dispatched next (re-routed, reordered by deadline,
    /// shed), it did not fit the pool, or the dispatch refused it.
    pub discarded: u64,
}

impl std::ops::AddAssign for PrepareStats {
    fn add_assign(&mut self, other: Self) {
        self.ahead += other.ahead;
        self.inline += other.inline;
        self.discarded += other.discarded;
    }
}

/// What became of one prepare: a [`PrepareStats`] field.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Ahead,
    Inline,
    Discarded,
}

/// A formed batch waiting for (or being handed to) a device.
#[derive(Debug)]
pub(crate) struct BatchJob {
    /// Server-wide batch id (assigned at formation; retry singletons get
    /// fresh ids so every execution attempt is addressable in traces).
    pub id: u64,
    /// Bucket the batch was drawn from.
    pub key: BucketKey,
    /// Members, in batch order.
    pub batch: Vec<Pending>,
    /// Virtual time the batch was formed (the dispatch timestamp reported
    /// to completions; queue wait on the device is execution delay, not
    /// batching delay).
    pub formed_at: SimTime,
}

impl BatchJob {
    /// Earliest member deadline in nanoseconds; infinity means
    /// unconstrained (sorts after every real deadline).
    fn urgency_ns(&self) -> f64 {
        self.batch
            .iter()
            .filter_map(|p| p.deadline.map(|t| t.as_ns()))
            .fold(f64::INFINITY, f64::min)
    }

    fn train(&self) -> bool {
        self.key.kind == RequestKind::Train
    }
}

/// Absorbs `batch`'s request graphs into `scratch`, one super-graph: one
/// generated script, one kernel launch, one prologue weight load for the
/// lot. A training batch reads one root, the loss over its members.
fn absorb(scratch: &mut Scratch, batch: &[Pending], train: bool) {
    let Scratch { graph, roots } = scratch;
    graph.clear();
    roots.clear();
    roots.extend(batch.iter().map(|p| graph.absorb(&p.graph, p.root)));
    if train && roots.len() > 1 {
        let loss = graph.sum(roots);
        roots.clear();
        roots.push(loss);
    }
}

/// A batch that executed successfully.
#[derive(Debug)]
pub(crate) struct Executed {
    pub batch_id: u64,
    pub key: BucketKey,
    pub batch: Vec<Pending>,
    pub outputs: Vec<Vec<f32>>,
    pub dispatched_at: SimTime,
    /// When the batch actually started on the device timeline
    /// (`max(now, busy_until)` at dispatch) — recorded explicitly because
    /// `completed_at - service` is not bit-identical to it.
    pub started_at: SimTime,
    pub completed_at: SimTime,
    pub service: SimTime,
    /// The dispatch lowered at least one fresh script (a script-cache miss)
    /// instead of running warm.
    pub cold: bool,
}

/// A batch whose dispatch returned a typed error. Members within their
/// retry budget were re-enqueued as singleton jobs (`retried` maps each to
/// its fresh batch id); the rest are returned for a `RetryBudget` shed.
#[derive(Debug)]
pub(crate) struct FailedAttempt {
    pub batch_id: u64,
    pub started_at: SimTime,
    pub completed_at: SimTime,
    pub dropped: Vec<Pending>,
    pub retried: Vec<(RequestId, u64)>,
    /// The pump time the attempt was made at: when its drops are shed.
    pub at: SimTime,
}

/// The attempt occupying a device. Its result is charged the moment the
/// batch starts but *held* here until the virtual clock reaches
/// `completed_at` — so a whole-device crash or hang can still abort the
/// attempt and re-dispatch the members elsewhere. While the device's
/// worker computes an executed batch, its `outputs` are empty; the join
/// fills them in before the batch is reported finished.
#[derive(Debug)]
pub(crate) enum Running {
    Executed(Executed),
    Failed(FailedAttempt),
}

/// Why [`DeviceModel::model`] is `Some` wherever a device dispatches or
/// computes a batch: only a batch sent to the device's worker takes the
/// replica, a device runs one batch at a time, and it joins that batch —
/// `pump` before reporting it finished, `fail_over` when aborting it — which
/// puts the replica back before the next batch starts. Without a worker the
/// replica never leaves.
const JOINED: &str = "the previous batch was joined";

/// Per-(device, model) execution state: a full model replica behind a warm
/// handle.
#[derive(Debug)]
struct DeviceModel {
    /// The replica; `None` while it is lent to the device's worker with a
    /// batch.
    model: Option<Model>,
    handle: Handle,
}

/// One virtual device shard. See the module docs.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    models: Vec<DeviceModel>,
    queue: VecDeque<BatchJob>,
    /// The device executes batches serially; the next batch starts no
    /// earlier than this.
    busy_until: SimTime,
    /// Accumulated service time, for utilization reporting.
    busy_total: SimTime,
    executed: u64,
    failures: u64,
    /// Scratch super-graph and root list reused across batches: `clear()`
    /// keeps their allocations, so steady-state batch absorption does not
    /// allocate.
    scratch: Scratch,
    /// The line to this device's compute worker, when the server has one
    /// for it; without one, batches compute inline.
    line: Option<Line>,
    /// With a line, the second scratch: the next batch is absorbed into it
    /// to be prepared ahead. `None` while a prepare holds it; `spare_for`
    /// names the batch whose graph it holds.
    spare: Option<Scratch>,
    spare_for: Option<u64>,
    prepared: PrepareStats,
    /// `serve.prepare.{ahead,inline,discarded}`.
    prepare_counters: [vpps_obs::Counter; 3],
    /// The model whose batch is out on the worker, until the join.
    computing: Option<usize>,
    /// Host ns the event thread spends blocked at this device's joins.
    wait_ns: vpps_obs::Counter,
    /// `serve.device.<id>.queue_depth` and `serve.device.<id>.health`.
    queue_gauge: String,
    health_gauge: String,
    /// Buckets this device has executed at least one batch of — i.e. whose
    /// lowered scripts are warm in this device's caches. The router prefers
    /// stealing toward devices that appear here.
    seen: BTreeSet<BucketKey>,
    /// The held result of the batch currently occupying the device, emitted
    /// by [`Device::pump`] once the clock reaches `busy_until`.
    running: Option<Running>,
    /// Lifecycle state (driven by the server's outage schedule + watchdog).
    health: DeviceHealth,
    /// Every health transition, in order.
    health_log: Vec<HealthTransition>,
    /// Service-time multiplier (> 1 inside a brownout window).
    slowdown: f64,
    /// `true` while a hang window holds the device: it stops making
    /// progress but has not (yet) been declared down.
    frozen: bool,
    /// When the current freeze began (valid while `frozen`).
    frozen_at: SimTime,
    /// Liveness timer: `Some(due)` while a frozen device owes work. A hang
    /// is silent, so only a completion overdue by [`WATCHDOG_GRACE`] can
    /// expose it; the server declares the device down when `due` passes.
    watchdog: Option<SimTime>,
    /// Successful batches still required to clear revival probation
    /// (meaningful while `health == Reviving`).
    probation_left: u32,
}

impl Device {
    /// A device computing its batches on `line`'s worker, or inline
    /// without one.
    pub(crate) fn new(id: DeviceId, line: Option<Line>) -> Self {
        Self {
            id,
            models: Vec::new(),
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            busy_total: SimTime::ZERO,
            executed: 0,
            failures: 0,
            scratch: Scratch::default(),
            spare: line.as_ref().map(|_| Scratch::default()),
            spare_for: None,
            prepared: PrepareStats::default(),
            prepare_counters: ["ahead", "inline", "discarded"]
                .map(|fate| vpps_obs::counter(&format!("serve.prepare.{fate}"))),
            line,
            computing: None,
            wait_ns: vpps_obs::counter("serve.compute.wait_ns"),
            queue_gauge: format!("serve.device.{}.queue_depth", id.0),
            health_gauge: format!("serve.device.{}.health", id.0),
            seen: BTreeSet::new(),
            running: None,
            health: DeviceHealth::Healthy,
            health_log: Vec::new(),
            slowdown: 1.0,
            frozen: false,
            frozen_at: SimTime::ZERO,
            watchdog: None,
            probation_left: 0,
        }
    }

    /// This device's id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Registers one model replica behind a fresh warm handle.
    pub(crate) fn add_model(&mut self, model: Model, handle: Handle) {
        self.models.push(DeviceModel {
            model: Some(model),
            handle,
        });
    }

    /// Requests currently waiting in the device queue.
    pub fn queued_members(&self) -> usize {
        self.queue.iter().map(|j| j.batch.len()).sum()
    }

    /// How far beyond `now` the device is already committed: the remainder
    /// of the running batch plus an estimate for the queued ones (each
    /// priced at this device's observed mean batch service time — queued
    /// work must weigh into routing even though its true cost is unknown
    /// until it runs, or the router would keep stacking batches behind a
    /// busy device whose `busy_until` never moves while it has not run
    /// them).
    pub fn backlog(&self, now: SimTime) -> SimTime {
        let busy = self.busy_until.max(now) - now;
        let attempts = self.executed + self.failures;
        if attempts == 0 || self.queue.is_empty() {
            return busy;
        }
        let est_ns = self.busy_total.as_ns() / attempts as f64;
        busy + SimTime::from_ns(est_ns * self.queue.len() as f64)
    }

    /// Earliest virtual time at which this device next needs a pump: when
    /// the held running result becomes emittable, or a queued batch can
    /// start. `None` while frozen or down — a frozen device makes no
    /// progress on its own (the server's watchdog or the outage schedule
    /// wakes it), and waking a down device would spin.
    pub(crate) fn next_ready(&self) -> Option<SimTime> {
        if self.frozen
            || matches!(self.health, DeviceHealth::Draining | DeviceHealth::Down)
            || (self.running.is_none() && self.queue.is_empty())
        {
            return None;
        }
        Some(self.busy_until)
    }

    /// Virtual time at which the running batch (if any) completes.
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// When the liveness timer expires, while it is armed.
    pub(crate) fn watchdog_due(&self) -> Option<SimTime> {
        self.watchdog
    }

    /// Requests executing at `now`: the members of the held successful
    /// result whose completion is still ahead. They count against the
    /// admission bound until then; a failed attempt holds none (its retry
    /// singletons are queued, its drops are gone).
    pub(crate) fn inflight_members(&self, now: SimTime) -> usize {
        match &self.running {
            Some(Running::Executed(e)) if e.completed_at > now => e.batch.len(),
            _ => 0,
        }
    }

    /// `true` if this device has executed a batch from `key`'s bucket
    /// before, i.e. its lowered scripts for that bucket are warm.
    pub fn has_warm(&self, key: &BucketKey) -> bool {
        self.seen.contains(key)
    }

    /// Point-in-time stats for reports.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            id: self.id.0,
            batches: self.executed,
            failures: self.failures,
            busy: self.busy_total,
            queued_members: self.queued_members(),
            health: self.health,
        }
    }

    /// What became of the batches this device's worker prepared ahead.
    pub(crate) fn prepare_stats(&self) -> PrepareStats {
        self.prepared
    }

    /// Aggregated lowered-cache tallies across this device's warm handles.
    pub fn lowered_cache_stats(&self) -> LoweredCacheStats {
        let mut total = LoweredCacheStats::default();
        for m in &self.models {
            total += m.handle.lowered_cache_stats();
        }
        total
    }

    pub(crate) fn handle(&self, model: usize) -> &Handle {
        &self.models[model].handle
    }

    /// One model's replica, or `None` while a batch of it is out on the
    /// worker.
    pub(crate) fn replica(&self, model: usize) -> Option<&Model> {
        self.models[model].model.as_ref()
    }

    /// Current lifecycle state.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Every health transition so far, in order.
    pub fn health_log(&self) -> &[HealthTransition] {
        &self.health_log
    }

    /// `true` while a hang window holds the device (it has stopped making
    /// progress but has not yet been declared down).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// `true` if the device has neither a running batch nor queued work.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }

    pub(crate) fn set_health(&mut self, to: DeviceHealth, at: SimTime) {
        if self.health == to {
            return;
        }
        self.health_log.push(HealthTransition {
            at,
            from: self.health,
            to,
        });
        self.health = to;
        vpps_obs::gauge(&self.health_gauge).set(to.as_gauge());
    }

    /// Service-time multiplier for batches started from now on (brownout).
    pub(crate) fn set_slowdown(&mut self, factor: f64) {
        self.slowdown = factor;
    }

    /// A hang window takes hold: the device stops making progress. Routing
    /// is *not* told — batches keep arriving until the watchdog notices.
    pub(crate) fn freeze(&mut self, at: SimTime) {
        self.frozen = true;
        self.frozen_at = at;
        self.arm_watchdog(at);
    }

    /// Arms the liveness timer if the device is frozen with pending work
    /// and not already being watched: the deadline is the promised
    /// completion (or `now`, for work enqueued onto an idle freeze) plus
    /// the grace.
    fn arm_watchdog(&mut self, now: SimTime) {
        if self.watchdog.is_none() && self.frozen && !self.is_idle() {
            self.watchdog = Some(self.busy_until.max(now) + WATCHDOG_GRACE);
        }
    }

    /// Lifts an *undetected* hang at `at` (the window ended before the
    /// watchdog's grace elapsed): the device resumes with its timeline —
    /// and the held attempt's promised completion — slipped by the freeze
    /// duration.
    pub(crate) fn thaw(&mut self, at: SimTime) {
        self.frozen = false;
        self.watchdog = None;
        let delta = at - self.frozen_at;
        if delta.as_ns() <= 0.0 {
            return;
        }
        if let Some(running) = self.running.as_mut() {
            self.busy_until += delta;
            match running {
                Running::Executed(e) => e.completed_at = self.busy_until,
                Running::Failed(f) => f.completed_at = self.busy_until,
            }
        }
    }

    /// Takes everything off a dying device: its queued jobs and the held
    /// running result. The server re-dispatches the jobs to survivors and
    /// unwinds the aborted attempt. `lose_warm` models a crash — resident
    /// lowered state is gone, so the revived device starts cold — while a
    /// declared hang keeps its host-side caches. An aborted batch is joined
    /// first: its values are discarded, but a training batch has updated
    /// its replica all the same.
    pub(crate) fn fail_over(
        &mut self,
        at: SimTime,
        lose_warm: bool,
    ) -> (Vec<BatchJob>, Option<Running>) {
        let mut running = self.running.take();
        if let Some(running) = &mut running {
            self.join(running);
        }
        let jobs: Vec<BatchJob> = self.queue.drain(..).collect();
        self.busy_until = at;
        self.frozen = false;
        self.watchdog = None;
        if lose_warm {
            self.seen.clear();
        }
        vpps_obs::gauge(&self.queue_gauge).set(0.0);
        (jobs, running)
    }

    /// Enters revival probation at `at`: the device is routable again but
    /// under bounded admission until it completes `batches` warm batches.
    pub(crate) fn start_probation(&mut self, at: SimTime, batches: u32) {
        self.probation_left = batches.max(1);
        self.set_health(DeviceHealth::Reviving, at);
    }

    /// Queues one formed batch at `now`. Execution happens in
    /// [`Device::pump`]. Work routed onto a silently frozen device arms its
    /// watchdog: the device looks healthy, so only a missed completion can
    /// expose it.
    pub(crate) fn enqueue(&mut self, job: BatchJob, now: SimTime) {
        self.queue.push_back(job);
        self.arm_watchdog(now);
        vpps_obs::gauge(&self.queue_gauge).set(self.queued_members() as f64);
    }

    /// Advances the device at `now` up to its next event — the held running
    /// result once the clock reaches its completion — starting queued
    /// batches (most deadline-urgent first) while the device is free. The
    /// server calls this until it returns `None`. Retry singletons from a
    /// failed batch re-enter the queue (drawing fresh ids from the server's
    /// `next_batch` counter) and run at later pumps (the failed attempt
    /// occupied the device, so `busy_until` has moved past `now`). Frozen devices make no progress at all; down devices emit
    /// nothing (fail-over already took their work) and start nothing.
    pub(crate) fn pump(&mut self, now: SimTime, next_batch: &mut u64) -> Option<Running> {
        if self.frozen {
            return None;
        }
        while self.busy_until <= now {
            if let Some(mut running) = self.running.take() {
                // A held result is reported with its values.
                self.join(&mut running);
                if let (Running::Executed(e), DeviceHealth::Reviving) = (&running, self.health) {
                    // A completed batch counts toward probation; enough of
                    // them restore full routing eligibility.
                    self.probation_left = self.probation_left.saturating_sub(1);
                    if self.probation_left == 0 {
                        self.set_health(DeviceHealth::Healthy, e.completed_at);
                    }
                }
                return Some(running);
            }
            if matches!(self.health, DeviceHealth::Draining | DeviceHealth::Down) {
                break;
            }
            let Some(job) = self.take_most_urgent() else {
                break;
            };
            self.run_job(job, now, next_batch);
        }
        vpps_obs::gauge(&self.queue_gauge).set(self.queued_members() as f64);
        None
    }

    /// Takes the queued job to run next: earliest member deadline first.
    /// The queue is in enqueue order, so among equally urgent jobs (all the
    /// deadline-free ones, at infinity) the first found is the oldest.
    fn take_most_urgent(&mut self) -> Option<BatchJob> {
        let next = self.most_urgent()?;
        self.queue.remove(next)
    }

    /// The index of the queued job [`Device::take_most_urgent`] would take.
    fn most_urgent(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, job) in self.queue.iter().enumerate() {
            let urgency = job.urgency_ns();
            if best.is_none_or(|(_, least)| urgency < least) {
                best = Some((i, urgency));
            }
        }
        Some(best?.0)
    }

    /// Executes one batch: absorb into the scratch super-graph, one
    /// persistent-kernel launch on the model's warm handle. The launch is
    /// charged here; its values are computed inline, or on the device's
    /// worker until the join. The result is held as [`Device::running`].
    /// A failed batch is split: each member that has retries left is
    /// queued again as a singleton, the rest are dropped.
    fn run_job(&mut self, job: BatchJob, now: SimTime, next_batch: &mut u64) {
        let BatchJob {
            id: batch_id,
            key,
            batch,
            formed_at,
        } = job;
        // The attempt lowers (or reuses) the bucket's scripts either way,
        // so the bucket counts as warm here from now on.
        self.seen.insert(key);

        let train = key.kind == RequestKind::Train;
        let (mut ahead, used) = self.claim(batch_id).unzip();
        match self.spare.as_mut() {
            // Absorbed when the batch was prepared for.
            Some(spare) if self.spare_for == Some(batch_id) => {
                self.spare_for = None;
                mem::swap(&mut self.scratch, spare);
            }
            _ => absorb(&mut self.scratch, &batch, train),
        }
        let dm = &mut self.models[key.model.0];
        let Scratch { graph, roots } = &self.scratch;
        let start = now.max(self.busy_until);
        let wall_before = dm.handle.wall_time();
        let misses_before = dm.handle.lowered_cache_stats().script_misses;
        let model = dm.model.as_ref().expect(JOINED);
        let result = dm
            .handle
            .dispatch_prepared(model, graph, roots, train, &mut ahead);
        let fate = used.map(|used| match ahead {
            None => used,
            Some(_) => Fate::Discarded,
        });
        if train && result.is_ok() {
            // The loss arrives with the join; the drain is a clock matter.
            dm.handle.sync_get_latest_loss();
        }
        // Service time is the wall delta: it includes a training batch's
        // drain in `sync_get_latest_loss`, and failed dispatches still
        // occupied the device (faulted attempts, watchdog waits, backoff).
        let mut service = dm.handle.wall_time() - wall_before;
        if self.slowdown > 1.0 {
            // Brownout: the device is throttled, so the same work holds it
            // longer. The handle's cost accounting is untouched — only the
            // device timeline stretches.
            service = SimTime::from_ns(service.as_ns() * self.slowdown);
        }
        let cold = dm.handle.lowered_cache_stats().script_misses > misses_before;
        let completed_at = start + service;
        self.busy_until = completed_at;
        self.busy_total += service;

        self.running = Some(match result {
            Ok(compute) => {
                self.executed += 1;
                // Dispatch accounting happens here, when the device accepts
                // the batch — not when it finishes.
                vpps_obs::counter("serve.batches").incr();
                let outputs = self.compute(key.model.0, compute, batch.len());
                self.prepare_next();
                Running::Executed(Executed {
                    batch_id,
                    key,
                    batch,
                    outputs,
                    dispatched_at: formed_at,
                    started_at: start,
                    completed_at,
                    service,
                    cold,
                })
            }
            Err(_) => {
                self.failures += 1;
                vpps_obs::counter("serve.batch_failures").incr();
                let mut dropped = Vec::new();
                let mut retried = Vec::new();
                for mut p in batch {
                    p.retries += 1;
                    if p.retries > RETRY_BUDGET {
                        dropped.push(p);
                    } else {
                        // Singleton re-execution: a multi-request batch that
                        // failed may contain one poisoned graph; isolating
                        // members means at most that one keeps failing while
                        // the rest complete.
                        let retry_id = *next_batch;
                        *next_batch += 1;
                        retried.push((p.id, retry_id));
                        self.enqueue(
                            BatchJob {
                                id: retry_id,
                                key,
                                batch: vec![p],
                                formed_at,
                            },
                            now,
                        );
                    }
                }
                Running::Failed(FailedAttempt {
                    batch_id,
                    started_at: start,
                    completed_at,
                    dropped,
                    retried,
                    at: now,
                })
            }
        });
        if let Some(fate) = fate {
            self.count(fate);
        }
    }

    /// Computes the values of model `model`'s dispatched batch of
    /// `members` requests: on the device's worker, returning no outputs yet
    /// (the join fills them in), or inline without one.
    fn compute(&mut self, model: usize, compute: Compute, members: usize) -> Vec<Vec<f32>> {
        let dm = &mut self.models[model];
        let Some(line) = &self.line else {
            let replica = dm.model.as_mut().expect(JOINED);
            let done = compute.run(replica, &self.scratch.graph, &self.scratch.roots);
            return outputs(dm.handle.join(done), members);
        };
        let replica = dm.model.take().expect(JOINED);
        line.send(compute, replica, std::mem::take(&mut self.scratch));
        self.computing = Some(model);
        Vec::new()
    }

    /// Empties this device's prepare slot at the dispatch of batch
    /// `batch_id` ([`Line::claim`]), and returns the artifact prepared for
    /// it, if one was, with the fate to count if the dispatch uses it. The
    /// spare scratch comes home with whatever the slot held; when that was
    /// this batch's prepare, it holds the batch's graph (`spare_for`).
    fn claim(&mut self, batch_id: u64) -> Option<(Ahead, Fate)> {
        let Prepared {
            batch,
            scratch,
            ahead,
            here,
        } = self.line.as_ref()?.claim(batch_id, &self.wait_ns)?;
        self.spare = Some(scratch);
        let mine = batch == batch_id;
        self.spare_for = mine.then_some(batch);
        match ahead.filter(|_| mine) {
            Some(ahead) if here => Some((ahead, Fate::Inline)),
            Some(mut ahead) => {
                ahead.adopt();
                Some((ahead, Fate::Ahead))
            }
            None => {
                self.count(Fate::Discarded);
                None
            }
        }
    }

    /// Counts one prepare's fate, in [`Device::prepare_stats`] and in
    /// `serve.prepare.<fate>`.
    fn count(&mut self, fate: Fate) {
        let (tally, counter) = match fate {
            Fate::Ahead => (&mut self.prepared.ahead, &self.prepare_counters[0]),
            Fate::Inline => (&mut self.prepared.inline, &self.prepare_counters[1]),
            Fate::Discarded => (&mut self.prepared.discarded, &self.prepare_counters[2]),
        };
        *tally += 1;
        counter.incr();
    }

    /// After a batch's compute went to the worker: absorbs the batch this
    /// device would dispatch next into the spare scratch and, if it misses
    /// its handle's lowered cache, queues its generate + lower for the
    /// worker. Without a line or with nothing queued, does nothing.
    fn prepare_next(&mut self) {
        let (Some(line), Some(next)) = (&self.line, self.most_urgent()) else {
            return;
        };
        let Some(mut scratch) = self.spare.take() else {
            return;
        };
        let job = &self.queue[next];
        let train = job.train();
        absorb(&mut scratch, &job.batch, train);
        let handle = &mut self.models[job.key.model.0].handle;
        match handle.prepare_ahead(&scratch.graph, &scratch.roots, train) {
            Some(preparer) => {
                self.spare_for = None;
                line.prepare(Prepare {
                    batch: job.id,
                    scratch,
                    preparer,
                });
            }
            None => {
                self.spare = Some(scratch);
                self.spare_for = Some(job.id);
            }
        }
    }

    /// Waits for the batch out on the worker, if any — `running`'s — takes
    /// back its replica and scratch, hands the handle what it borrowed, and
    /// fills in `running`'s outputs. A panic on the worker re-raises here.
    fn join(&mut self, running: &mut Running) {
        let (Some(model), Some(line)) = (self.computing.take(), &self.line) else {
            return;
        };
        let (done, replica, scratch) = line.join(&self.wait_ns);
        let dm = &mut self.models[model];
        dm.model = Some(replica);
        self.scratch = scratch;
        let output = dm.handle.join(done);
        if let Running::Executed(e) = running {
            e.outputs = outputs(output, e.batch.len());
        }
    }
}

/// The per-member outputs of a batch of `members` requests: each inference
/// request's root value, or the batch loss for every training request.
fn outputs(output: Output, members: usize) -> Vec<Vec<f32>> {
    match output {
        Output::Roots(values) => values,
        Output::Loss(loss) => vec![vec![loss]; members],
    }
}
