//! The serving engine: a deterministic discrete-event simulation.
//!
//! [`Server`] runs entirely on a **virtual clock** ([`SimTime`]): requests
//! carry arrival timestamps, batch-formation linger timers fire as simulated
//! events, and execution latency comes from the simulated device inside each
//! warm [`Handle`]. Nothing reads the wall clock and every container is
//! ordered (`BTreeMap`, `Vec`), so two runs over the same request sequence
//! produce byte-identical outcome streams — the property the serving
//! benchmarks and the proptest invariants lean on — for *any* device count.
//!
//! Life of a request:
//!
//! 1. **Admission** ([`Server::submit`]) — bounded server-wide queue,
//!    per-tenant quota, dead-on-arrival deadline check. Rejections are shed
//!    immediately (backpressure).
//! 2. **Bucketing** — admitted requests join the bucket keyed by
//!    (model, kind, [`shape_class`], structural hash); only same-bucket
//!    requests co-batch, so a batch never mixes specialization plans and
//!    every batch from one bucket lowers to the same cached script.
//! 3. **Batch formation** — a bucket flushes when full
//!    ([`crate::BatchPolicy::max_batch`]), when its oldest request has
//!    lingered [`crate::BatchPolicy::max_linger`], or (deadline-aware) when
//!    a member's deadline is about to expire.
//! 4. **Routing** — the formed batch goes to a [`Device`] picked by the
//!    plan-affinity [`Router`]: the device that served the bucket before
//!    (warm lowered caches) unless its backlog justifies stealing the batch
//!    to the least-loaded device ([`crate::ShardPolicy::steal_margin`]).
//! 5. **Execution** — the device absorbs the batch's graphs into one
//!    super-graph and runs **one** persistent-kernel launch on the model's
//!    warm handle; the prologue weight load is paid once per batch, which is
//!    where batching wins. Each device is serially occupied and drains its
//!    queue most-deadline-urgent first.
//!
//! The server is one state machine. Its schedule is never stored: each
//! turn, `Server::next_event` derives the due work from the state that
//! implies it (the outage schedule's cursor, each device's liveness timer
//! and busy horizon, each bucket's earliest flush bound) and picks the least
//! `EventKey`; `Server::step` applies it. [`Server::submit`],
//! [`Server::run_until`] and [`Server::drain`] are loops over those two.
//! Every batch reaches a device through `Server::dispatch` and every request
//! leaves through `Server::resolve`.

use std::collections::{BTreeMap, BTreeSet};

use dyn_graph::Model;
use gpu_sim::{OutageKind, OutageWindow, SimTime};
use vpps::{Handle, LoweredCacheStats, PlanSignature, RecoveryStats, VppsError};
use vpps_obs::{Resolution, TraceEvent, TraceSink};

use crate::batcher::{shape_class, Bucket, BucketKey, Pending};
use crate::breaker::{BreakerState, BreakerTransition};
use crate::device::{
    BatchJob, Device, DeviceEvent, DeviceHealth, DeviceId, DeviceStats, Executed, FailedAttempt,
    HealthTransition, Running,
};
use crate::policy::ServeConfig;
use crate::request::{
    Completion, ModelId, Outcome, Request, RequestId, Shed, ShedReason, TenantId,
};
use crate::router::{Router, RouterStats};

/// Result of [`Server::submit`]: either queued for batching or shed at
/// admission. Both variants carry the assigned id; the shed variant is also
/// recorded as an [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted and queued.
    Queued(RequestId),
    /// Rejected at admission.
    Shed(RequestId, ShedReason),
}

impl Admission {
    /// The assigned request id.
    pub fn id(&self) -> RequestId {
        match *self {
            Admission::Queued(id) | Admission::Shed(id, _) => id,
        }
    }

    /// `true` if the request was admitted.
    pub fn is_queued(&self) -> bool {
        matches!(self, Admission::Queued(_))
    }
}

/// Registration-time facts about a model; execution state (replica weights,
/// warm handles, breakers) lives per device.
#[derive(Debug)]
struct RegisteredModel {
    name: String,
    signature: PlanSignature,
}

/// Which edge of an outage window an [`OutageEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OutageEdge {
    /// The window closes (ends sort before simultaneous starts, so a device
    /// can revive in the same instant another one dies).
    End,
    /// The window opens.
    Start,
}

/// One edge of a scheduled device outage, pre-sorted into the server's
/// outage schedule at construction.
#[derive(Debug, Clone, Copy)]
struct OutageEvent {
    at: SimTime,
    edge: OutageEdge,
    window: OutageWindow,
}

/// The source of a piece of due work. Declaration order is the tie-break
/// between sources firing at the same instant: health first — a crash or a
/// watchdog declaration must abort a completion promised for that instant,
/// not race it — then devices, then batch formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventClass {
    OutageEdge,
    Watchdog,
    DeviceReady,
    BucketFlush,
}

/// When a piece of due work fires. The derived `Ord` *is* the server's
/// event order, and nothing else compares event sources: earliest time,
/// then [`EventClass`], then `index` — the edge's position in the outage
/// schedule (sorted end-before-start, then by device), the device index, or
/// the bucket's rank in [`BucketKey`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at_bits: u64,
    class: EventClass,
    index: usize,
}

impl EventKey {
    fn at(self) -> SimTime {
        SimTime::from_ns(f64::from_bits(self.at_bits))
    }
}

/// Bit pattern of a firing time, clamped to `clock`. The server clock
/// starts at `+0.0` and never runs backwards, so the clamped time is finite
/// and sign-positive — and such floats order exactly as their bit patterns.
fn time_bits(clock: SimTime, at: SimTime) -> u64 {
    clock.max(at).as_ns().to_bits()
}

/// One piece of due work, as [`Server::step`] applies it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The next edge of the outage schedule.
    OutageEdge,
    /// This device's liveness timer expired: declare it hung.
    Watchdog(usize),
    /// This device's held result is due, or it is free to start queued work.
    DeviceReady(usize),
    /// This bucket forms a batch.
    BucketFlush(BucketKey),
}

/// The shed outcome of a queued request.
fn shed(p: &Pending, at: SimTime, reason: ShedReason) -> Outcome {
    Outcome::Shed(Shed {
        id: p.id,
        tenant: p.tenant,
        at,
        reason,
    })
}

/// Multi-tenant serving engine over warm VPPS handles, sharded across one or
/// more virtual [`Device`]s. See the module docs for the event model.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    registry: Vec<RegisteredModel>,
    devices: Vec<Device>,
    router: Router,
    /// Distinct plan signatures seen across registrations: a repeat
    /// signature means the JIT program compile would be served from the
    /// specialization cache.
    known_plans: BTreeSet<PlanSignature>,
    buckets: BTreeMap<BucketKey, Bucket>,
    now: SimTime,
    next_id: u64,
    queued: usize,
    queued_per_tenant: BTreeMap<TenantId, usize>,
    outcomes: Vec<Outcome>,
    jit_paid: SimTime,
    /// Next batch id. Assigned at formation (and to retry singletons inside
    /// the devices) whether or not tracing is enabled, so enabling tracing
    /// can never perturb the virtual timeline.
    next_batch: u64,
    /// Per-request trace sink, when [`Server::enable_tracing`] was called.
    trace: Option<TraceSink>,
    /// Scheduled outage edges (from `cfg.opts.faults`), sorted by
    /// (time, end-before-start, device); `next_outage` indexes the next
    /// unprocessed edge.
    outages: Vec<OutageEvent>,
    next_outage: usize,
    /// Batches taken off a failed device and re-dispatched to survivors.
    redispatched_batches: u64,
}

impl Server {
    /// Creates an empty server (no models registered) with
    /// `cfg.shard.devices` virtual devices.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.batch.max_batch` or `cfg.shard.devices` is zero.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.batch.max_batch > 0, "max_batch must be at least 1");
        assert!(cfg.shard.devices > 0, "need at least one device");
        let devices: Vec<Device> = (0..cfg.shard.devices)
            .map(|i| Device::new(DeviceId(i), cfg.recovery, cfg.health.watchdog_grace))
            .collect();
        // Pre-sort the outage schedule into edge events. Windows naming a
        // device the server does not have are ignored, so one schedule can
        // sweep across device counts.
        let mut outages: Vec<OutageEvent> = cfg
            .opts
            .faults
            .outage_windows()
            .filter(|w| (w.device as usize) < cfg.shard.devices)
            .flat_map(|window| {
                [
                    (window.start, OutageEdge::Start),
                    (window.end, OutageEdge::End),
                ]
                .map(|(at, edge)| OutageEvent { at, edge, window })
            })
            .collect();
        outages.sort_by_key(|e| (time_bits(SimTime::ZERO, e.at), e.edge, e.window.device));
        Self {
            cfg,
            registry: Vec::new(),
            devices,
            router: Router::default(),
            known_plans: BTreeSet::new(),
            buckets: BTreeMap::new(),
            now: SimTime::ZERO,
            next_id: 0,
            queued: 0,
            queued_per_tenant: BTreeMap::new(),
            outcomes: Vec::new(),
            jit_paid: SimTime::ZERO,
            next_batch: 0,
            trace: None,
            outages,
            next_outage: 0,
            redispatched_batches: 0,
        }
    }

    /// Enables per-request tracing into a bounded [`TraceSink`] holding at
    /// most `capacity` events, sampling every `sample`-th request id
    /// (`sample <= 1` traces everything). Tracing is pure observation: it
    /// never changes admission, batching, routing, or any virtual timestamp.
    pub fn enable_tracing(&mut self, capacity: usize, sample: u64) {
        self.trace = Some(TraceSink::new(capacity, sample));
    }

    /// The trace sink, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Takes the trace sink out of the server, disabling further tracing.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// `true` if tracing is on and `id` is selected by the sampling policy.
    fn trace_sampled(&self, id: RequestId) -> bool {
        self.trace.as_ref().is_some_and(|t| t.sampled(id.0))
    }

    /// The ids of `batch`'s traced members (empty, and unallocated, when
    /// tracing is off).
    fn traced_members(&self, batch: &[Pending]) -> Vec<u64> {
        let ids = batch.iter().map(|p| p.id.0);
        match &self.trace {
            Some(t) => ids.filter(|&id| t.sampled(id)).collect(),
            None => Vec::new(),
        }
    }

    fn trace_event(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(ev);
        }
    }

    /// Registers a model: specializes its kernel plan and keeps one warm
    /// handle (and one model replica) *per device*, so JIT cost is paid at
    /// registration — once per plan, plus a module load per extra device —
    /// and never on the request path. Registering a second model with an
    /// identical [`PlanSignature`] pays only module loads (the program
    /// compile hits the specialization cache).
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures from [`Handle::new`]. On error
    /// no device state changes.
    pub fn register_model(&mut self, name: &str, model: Model) -> Result<ModelId, VppsError> {
        // Build every per-device handle before touching any state, so a
        // failure cannot leave some devices knowing the model. Each handle's
        // fault stream is tagged with its device index: device 0 draws the
        // legacy stream, every other device a decorrelated one, and journal
        // entries carry the tag.
        let mut handles = Vec::with_capacity(self.devices.len());
        for i in 0..self.devices.len() {
            let mut opts = self.cfg.opts;
            opts.faults.device = i as u32;
            handles.push(Handle::new(&model, self.cfg.device.clone(), opts)?);
        }
        let signature = handles[0].plan().signature().clone();
        for handle in &handles {
            let jit = handle.jit_cost();
            if self.known_plans.insert(signature.clone()) {
                self.jit_paid += jit.program_compile + jit.module_load;
                vpps_obs::counter("serve.jit.compiles").incr();
            } else {
                self.jit_paid += jit.module_load;
                vpps_obs::counter("serve.jit.cache_hits").incr();
            }
        }
        let id = ModelId(self.registry.len());
        self.registry.push(RegisteredModel {
            name: name.to_owned(),
            signature,
        });
        for (device, handle) in self.devices.iter_mut().zip(handles) {
            device.add_model(model.clone(), handle);
        }
        Ok(id)
    }

    /// Current virtual time (the latest event processed).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of admitted requests still in batch-formation buckets (formed
    /// batches waiting on a device queue count via [`Server::outstanding`],
    /// not here).
    pub fn queue_depth(&self) -> usize {
        self.queued
    }

    /// Number of admitted requests not yet *finished* at the current
    /// virtual time: bucket-queued, device-queued, or dispatched but still
    /// executing. This is the quantity the server-wide admission bound
    /// applies to. Dispatched work counts — otherwise an overloaded server
    /// would keep admitting forever and just complete everything
    /// arbitrarily late — and it is read straight off the devices' held
    /// results: a batch is in flight from the moment its device accepts it
    /// until its promised completion, or until a fail-over takes it back.
    pub fn outstanding(&self) -> usize {
        let on_devices = |d: &Device| d.queued_members() + d.inflight_members(self.now);
        self.queued + self.devices.iter().map(on_devices).sum::<usize>()
    }

    /// Registered name of a model.
    pub fn model_name(&self, id: ModelId) -> &str {
        &self.registry[id.0].name
    }

    /// Plan signature of a registered model (the specialization-cache key).
    pub fn plan_signature(&self, id: ModelId) -> &PlanSignature {
        &self.registry[id.0].signature
    }

    /// Total modeled JIT time paid across registrations (cache hits pay
    /// only module load).
    pub fn jit_paid(&self) -> SimTime {
        self.jit_paid
    }

    /// Every outcome recorded so far, in decision order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Batches the devices have accepted for execution so far.
    pub fn batches_dispatched(&self) -> u64 {
        self.devices.iter().map(|d| d.stats().batches).sum()
    }

    /// Batches whose dispatch came back with a typed error (after the
    /// handle's own retry/fallback ladder gave up).
    pub fn batch_failures(&self) -> u64 {
        self.devices.iter().map(|d| d.stats().failures).sum()
    }

    /// Point-in-time stats per device, in device order.
    pub fn device_stats(&self) -> Vec<DeviceStats> {
        self.devices.iter().map(Device::stats).collect()
    }

    /// Routing tallies (placements, affinity hits, steals).
    pub fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }

    /// Lowered-artifact cache tallies summed over every warm handle on
    /// every device. Only meaningful when the backend lowers
    /// ([`vpps::BackendKind::Lowered`]); all-zero otherwise.
    pub fn lowered_cache_stats(&self) -> LoweredCacheStats {
        let mut total = LoweredCacheStats::default();
        for d in &self.devices {
            total += d.lowered_cache_stats();
        }
        total
    }

    /// Submits one request. The clock first advances to the request's
    /// arrival (firing any batch flushes and device completions due before
    /// it), then admission control runs. Arrivals must be non-decreasing; an
    /// arrival in the past is clamped to `now`. A request naming an
    /// unregistered model is shed with [`ShedReason::UnknownModel`] — client
    /// input never panics the server.
    pub fn submit(&mut self, req: Request) -> Admission {
        self.run_until(req.arrival);
        let arrival = req.arrival.max(self.now);
        let id = RequestId(self.next_id);
        self.next_id += 1;

        let tenant_queued = self.queued_per_tenant.get(&req.tenant).copied();
        let rejection = if req.model.0 >= self.registry.len() {
            Some(ShedReason::UnknownModel)
        } else if req.deadline.is_some_and(|d| d < arrival) {
            Some(ShedReason::DeadlineExpired)
        } else if self.outstanding() >= self.cfg.admission.queue_capacity {
            Some(ShedReason::QueueFull)
        } else if tenant_queued.unwrap_or(0) >= self.cfg.admission.tenant_quota {
            Some(ShedReason::TenantQuota)
        } else {
            None
        };

        if self.trace_sampled(id) {
            self.trace_event(TraceEvent::Admitted {
                req: id.0,
                tenant: req.tenant.0,
                at_ns: arrival.as_ns(),
            });
        }
        let verdict = if let Some(reason) = rejection {
            let rejected = Shed {
                id,
                tenant: req.tenant,
                at: arrival,
                reason,
            };
            self.resolve(Outcome::Shed(rejected), arrival);
            Admission::Shed(id, reason)
        } else {
            vpps_obs::counter("serve.admitted").incr();
            let key = BucketKey {
                model: req.model,
                kind: req.kind,
                shape: shape_class(req.graph.len()),
                structure: req.graph.structural_hash(),
            };
            self.buckets.entry(key).or_default().push(Pending {
                id,
                tenant: req.tenant,
                graph: req.graph,
                root: req.root,
                arrival,
                deadline: req.deadline,
                linger_deadline: arrival + self.cfg.batch.max_linger,
                retries: 0,
            });
            self.queued += 1;
            *self.queued_per_tenant.entry(req.tenant).or_insert(0) += 1;
            // Size trigger: flush as long as the bucket can fill a batch.
            while self
                .buckets
                .get(&key)
                .is_some_and(|b| b.len() >= self.cfg.batch.max_batch)
            {
                self.step(self.now, Event::BucketFlush(key));
            }
            Admission::Queued(id)
        };
        vpps_obs::gauge("serve.queue_depth").set(self.queued as f64);
        verdict
    }

    /// Advances the virtual clock to `t`, firing every due event on the
    /// way: earliest first, ties broken health (outage edge, then watchdog)
    /// before device before bucket flush, then lowest device id / bucket
    /// key order.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((key, event)) = self.next_event(t) {
            self.step(key.at(), event);
        }
        self.now = self.now.max(t);
    }

    /// Flushes every remaining queued request immediately (end of the
    /// request stream: no point lingering for co-batchable arrivals that
    /// will never come) and runs the devices until their queues empty.
    /// Remaining outage-schedule and watchdog events are processed too —
    /// work held on a frozen or down device can only resolve through the
    /// watchdog declaration or the window's end, and a request parked on a
    /// down device waits for its revival. After `drain` every submitted
    /// request has exactly one outcome.
    pub fn drain(&mut self) {
        let horizon = SimTime::from_ns(f64::MAX);
        loop {
            while let Some(key) = self.buckets.keys().next().copied() {
                self.step(self.now, Event::BucketFlush(key));
            }
            let Some((key, event)) = self.next_event(horizon) else {
                break;
            };
            self.step(key.at(), event);
        }
        // Leave the server quiescent: the final batches still occupy their
        // devices past the last event time. Advancing the clock to the
        // moment every device is idle means a trace replayed after a drain
        // starts from a skew-free state — its routing depends only on the
        // new trace, not on which device happened to finish last.
        for d in &self.devices {
            self.now = self.now.max(d.busy_until());
        }
        vpps_obs::gauge("serve.queue_depth").set(0.0);
    }

    /// The earliest piece of work due at or before `limit`, by
    /// [`EventKey`] — the only place due work is discovered. The schedule
    /// is derived from state on every call rather than stored: a stored
    /// queue would need cancellation for every thawed watchdog, failed-over
    /// completion and size-flushed linger timer.
    fn next_event(&self, limit: SimTime) -> Option<(EventKey, Event)> {
        use EventClass as Class;
        let due = |at: SimTime, class, index, event| {
            let at_bits = time_bits(self.now, at);
            let key = EventKey {
                at_bits,
                class,
                index,
            };
            (at <= limit).then_some((key, event))
        };
        let edge = self.next_outage;
        let outage = self.outages.get(edge);
        let outage = outage.and_then(|e| due(e.at, Class::OutageEdge, edge, Event::OutageEdge));
        let devices = self.devices.iter().enumerate();
        let timers = devices
            .clone()
            .filter_map(|(i, d)| due(d.watchdog_due()?, Class::Watchdog, i, Event::Watchdog(i)));
        let ready = devices.filter_map(|(i, d)| {
            due(
                d.next_ready()?,
                Class::DeviceReady,
                i,
                Event::DeviceReady(i),
            )
        });
        let aware = self.cfg.batch.deadline_aware;
        let flushes = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(rank, (key, b))| {
                due(
                    b.next_flush(aware)?,
                    Class::BucketFlush,
                    rank,
                    Event::BucketFlush(*key),
                )
            });
        outage
            .into_iter()
            .chain(timers)
            .chain(ready)
            .chain(flushes)
            .min_by_key(|&(key, _)| key)
    }

    /// Applies one piece of due work at virtual time `at` — the only place
    /// the clock moves forward to an event.
    fn step(&mut self, at: SimTime, event: Event) {
        self.now = self.now.max(at);
        match event {
            Event::OutageEdge => self.apply_outage(),
            // The grace elapsed past a promised completion: declare the
            // device down (a hang keeps its host-side caches, unlike a
            // crash).
            Event::Watchdog(idx) => self.fail_device(idx, "hang", false),
            Event::DeviceReady(idx) => self.pump_device(idx),
            Event::BucketFlush(key) => self.flush_bucket(key),
        }
    }

    /// Applies the next outage-schedule edge at the current virtual time.
    fn apply_outage(&mut self) {
        let e = self.outages[self.next_outage];
        self.next_outage += 1;
        let now = self.now;
        let idx = e.window.device as usize;
        let device = &mut self.devices[idx];
        match (e.edge, e.window.kind) {
            // Whole-device crash: resident lowered state is gone.
            (OutageEdge::Start, OutageKind::Crash) => self.fail_device(idx, "crash", true),
            // Silent freeze: routing is *not* told — the device still looks
            // healthy until its watchdog notices the missed completion.
            (OutageEdge::Start, OutageKind::Hang) => device.freeze(now),
            (OutageEdge::Start, OutageKind::Brownout) => {
                device.set_slowdown(self.cfg.opts.faults.brownout_factor);
                device.set_health(DeviceHealth::Degraded, now);
            }
            // A crashed device, or a hung one the watchdog already
            // declared, comes back the moment its window ends.
            (OutageEdge::End, OutageKind::Crash | OutageKind::Hang)
                if device.health() == DeviceHealth::Down =>
            {
                self.revive_device(idx);
            }
            // Undetected short hang: the device resumes with its timeline
            // slipped by the freeze; nothing was lost, so routing never
            // knew.
            (OutageEdge::End, OutageKind::Hang) if device.is_frozen() => {
                device.thaw(now);
                self.pump_device(idx);
            }
            (OutageEdge::End, OutageKind::Crash | OutageKind::Hang) => {}
            (OutageEdge::End, OutageKind::Brownout) => {
                device.set_slowdown(1.0);
                if device.health() == DeviceHealth::Degraded {
                    device.set_health(DeviceHealth::Healthy, now);
                }
            }
        }
    }

    /// Takes device `idx` out of service at the current virtual time:
    /// `Healthy → Draining → Down`, with the aborted in-flight attempt and
    /// its queued batches re-dispatched to survivors. Exactly-once: the
    /// aborted attempt's outputs are discarded *before* ever becoming
    /// outcomes, so each member resolves exactly once — from wherever its
    /// re-dispatched batch runs.
    fn fail_device(&mut self, idx: usize, reason: &'static str, lose_warm: bool) {
        let at = self.now;
        self.trace_event(TraceEvent::DeviceDown {
            device: idx as u32,
            reason,
            at_ns: at.as_ns(),
        });
        vpps_obs::counter("serve.device.downs").incr();
        self.devices[idx].set_health(DeviceHealth::Draining, at);
        let (jobs, running) = self.devices[idx].fail_over(at, lose_warm);
        self.devices[idx].set_health(DeviceHealth::Down, at);
        let aborted = match running {
            // Abort the attempt and re-dispatch its members (ahead of the
            // queued jobs — they started first).
            Some(Running::Executed(e)) => Some(BatchJob {
                id: e.batch_id,
                key: e.key,
                batch: e.batch,
                formed_at: e.dispatched_at,
            }),
            // The failed attempt ends the moment the device dies — it never
            // reached its own end; fold it now so retry/drop accounting is
            // not lost. Its retry singletons are among the drained jobs.
            Some(Running::Failed(f)) => {
                let ended = FailedAttempt {
                    completed_at: at,
                    at,
                    ..f
                };
                self.fold_failed(idx, ended);
                None
            }
            None => None,
        };
        for job in aborted.into_iter().chain(jobs) {
            self.dispatch(job, Some(idx));
        }
    }

    /// Brings a down device back into service on revival probation.
    fn revive_device(&mut self, idx: usize) {
        let at = self.now;
        self.trace_event(TraceEvent::DeviceRevived {
            device: idx as u32,
            at_ns: at.as_ns(),
        });
        vpps_obs::counter("serve.device.revivals").incr();
        self.devices[idx].start_probation(at, self.cfg.health.probation_warm_batches);
        // Anything parked on it while it was down may start now.
        self.pump_device(idx);
    }

    /// Forms one batch from `key`'s bucket at the current virtual time and
    /// dispatches it. Also sheds queued requests whose deadline already
    /// passed. Removes the bucket when it empties.
    fn flush_bucket(&mut self, key: BucketKey) {
        let Some(bucket) = self.buckets.get_mut(&key) else {
            return;
        };
        let now = self.now;
        let expired = bucket.expire(now);
        let batch = bucket.take_batch(self.cfg.batch.max_batch);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.queued -= expired.len() + batch.len();
        for p in expired.iter().chain(&batch) {
            if let Some(n) = self.queued_per_tenant.get_mut(&p.tenant) {
                *n = n.saturating_sub(1);
            }
        }
        vpps_obs::gauge("serve.queue_depth").set(self.queued as f64);
        for p in expired {
            self.resolve(shed(&p, now, ShedReason::DeadlineExpired), now);
        }
        if batch.is_empty() {
            return;
        }
        // Batch ids are assigned unconditionally so turning tracing on or
        // off can never change the virtual timeline.
        let id = self.next_batch;
        self.next_batch += 1;
        let members = self.traced_members(&batch);
        if !members.is_empty() {
            self.trace_event(TraceEvent::Formed {
                batch: id,
                bucket: key.label(),
                members,
                at_ns: now.as_ns(),
            });
        }
        let formed = BatchJob {
            id,
            key,
            batch,
            formed_at: now,
        };
        self.dispatch(formed, None);
    }

    /// Routes one batch to a device and lets that device run it if free —
    /// the only way work reaches a device. A batch taken off failed device
    /// `from` is routed among the survivors (re-homing its bucket's
    /// affinity) under a fresh batch id, so every execution attempt stays
    /// addressable in traces; it keeps its original formation time.
    fn dispatch(&mut self, mut job: BatchJob, from: Option<usize>) {
        let now = self.now;
        let margin = self.cfg.shard.steal_margin;
        let (target, decision) = self.router.route(job.key, now, margin, &self.devices);
        match from {
            None => {
                if job.batch.iter().any(|p| self.trace_sampled(p.id)) {
                    self.trace_event(TraceEvent::Routed {
                        batch: job.id,
                        device: target.0 as u32,
                        decision: decision.name(),
                        at_ns: now.as_ns(),
                    });
                }
            }
            Some(from) => {
                let from_batch = std::mem::replace(&mut job.id, self.next_batch);
                self.next_batch += 1;
                self.redispatched_batches += 1;
                vpps_obs::counter("serve.redispatched").incr();
                let members = self.traced_members(&job.batch);
                if !members.is_empty() {
                    self.trace_event(TraceEvent::Redispatched {
                        from_batch,
                        batch: job.id,
                        from_device: from as u32,
                        device: target.0 as u32,
                        members,
                        at_ns: now.as_ns(),
                    });
                }
            }
        }
        self.devices[target.0].enqueue(job, now);
        self.pump_device(target.0);
    }

    /// Lets one device execute whatever it can at the current virtual time
    /// and folds what it reports into outcomes and accounting.
    fn pump_device(&mut self, idx: usize) {
        let now = self.now;
        while let Some(event) = self.devices[idx].pump(now, &mut self.next_batch) {
            match event {
                DeviceEvent::Finished(Running::Executed(done)) => self.complete(idx, done),
                DeviceEvent::Finished(Running::Failed(failed)) => self.fold_failed(idx, failed),
                DeviceEvent::BreakerShed { batch, at } => {
                    for p in batch {
                        self.resolve(shed(&p, at, ShedReason::BreakerOpen), at);
                    }
                }
            }
        }
    }

    /// Folds one successfully executed batch into outcomes and accounting.
    fn complete(&mut self, idx: usize, done: Executed) {
        let Executed {
            batch_id,
            key,
            batch,
            outputs,
            dispatched_at,
            started_at,
            completed_at,
            service,
            cold,
        } = done;
        let batch_size = batch.len();
        vpps_obs::counter("serve.completed").add(batch_size as u64);
        vpps_obs::histogram("serve.batch_size").record(batch_size as u64);
        vpps_obs::histogram("serve.service_ns").record(service.as_ns() as u64);
        if batch.iter().any(|p| self.trace_sampled(p.id)) {
            self.trace_event(TraceEvent::Executed {
                batch: batch_id,
                device: idx as u32,
                started_ns: started_at.as_ns(),
                completed_ns: completed_at.as_ns(),
                cold,
            });
        }
        for (p, output) in batch.into_iter().zip(outputs) {
            let linger_ns = (dispatched_at - p.arrival).as_ns() as u64;
            vpps_obs::histogram("serve.queue_wait_ns").record(linger_ns);
            vpps_obs::histogram("serve.e2e_ns").record((completed_at - p.arrival).as_ns() as u64);
            vpps_obs::histogram("serve.phase.linger_ns").record(linger_ns);
            vpps_obs::histogram("serve.phase.queue_ns")
                .record((started_at - dispatched_at).as_ns() as u64);
            vpps_obs::histogram("serve.phase.execute_ns")
                .record((completed_at - started_at).as_ns() as u64);
            let completion = Completion {
                id: p.id,
                tenant: p.tenant,
                model: key.model,
                kind: key.kind,
                arrival: p.arrival,
                dispatched_at,
                started_at,
                completed_at,
                device: idx,
                batch_size,
                output,
                in_deadline: p.deadline.is_none_or(|d| completed_at <= d),
            };
            self.resolve(Outcome::Completed(completion), completed_at);
        }
    }

    /// Folds one failed batch attempt into outcomes and accounting.
    fn fold_failed(&mut self, idx: usize, failed: FailedAttempt) {
        let FailedAttempt {
            batch_id,
            started_at,
            completed_at,
            dropped,
            retried,
            at,
        } = failed;
        let mut members = dropped
            .iter()
            .map(|p| p.id)
            .chain(retried.iter().map(|&(id, _)| id));
        if members.any(|id| self.trace_sampled(id)) {
            self.trace_event(TraceEvent::FailedAttempt {
                batch: batch_id,
                device: idx as u32,
                started_ns: started_at.as_ns(),
                completed_ns: completed_at.as_ns(),
            });
        }
        for (rid, retry_batch) in retried {
            vpps_obs::counter("serve.retried").incr();
            if self.trace_sampled(rid) {
                self.trace_event(TraceEvent::Retried {
                    req: rid.0,
                    from_batch: batch_id,
                    batch: retry_batch,
                    at_ns: completed_at.as_ns(),
                });
            }
        }
        // The trace resolves retry-budget drops at the failed attempt's
        // completion so phase spans tile the timeline exactly; the outcome
        // keeps the historical `at` (the pump time) to preserve outcome
        // fingerprints.
        for p in dropped {
            self.resolve(shed(&p, at, ShedReason::RetryBudget), completed_at);
        }
    }

    /// Records a request's one outcome: the only writer of the outcome
    /// stream and of the trace's `Resolved` events. `at` is the instant the
    /// trace resolves the request.
    fn resolve(&mut self, outcome: Outcome, at: SimTime) {
        let (resolution, reason) = match &outcome {
            Outcome::Completed(_) => (Resolution::Completed, "completed"),
            Outcome::Shed(s) => {
                vpps_obs::counter("serve.shed").incr();
                vpps_obs::counter(&format!("serve.shed.{}", s.reason.name())).incr();
                // Out of retry budget means tried and failed; every other
                // shed never ran.
                let resolution = match s.reason {
                    ShedReason::RetryBudget => Resolution::Failed,
                    _ => Resolution::Shed,
                };
                (resolution, s.reason.name())
            }
        };
        let id = outcome.id();
        if self.trace_sampled(id) {
            self.trace_event(TraceEvent::Resolved {
                req: id.0,
                outcome: resolution,
                reason,
                at_ns: at.as_ns(),
            });
        }
        self.outcomes.push(outcome);
    }

    /// Every breaker transition of a registered model on one device, in
    /// order.
    pub fn breaker_transitions_on(&self, id: ModelId, device: usize) -> &[BreakerTransition] {
        self.devices[device].breaker_transitions(id.0)
    }

    /// Cumulative handle-level recovery activity of a registered model,
    /// summed over every device's handle.
    pub fn recovery_stats(&self, id: ModelId) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for d in &self.devices {
            total += d.handle(id.0).recovery_stats();
        }
        total
    }

    /// Total faults injected across every device's handle for a registered
    /// model (0 when fault injection is not armed).
    pub fn faults_injected(&self, id: ModelId) -> u64 {
        self.devices
            .iter()
            .map(|d| {
                d.handle(id.0)
                    .fault_profile()
                    .map_or(0, |p| p.total_injected())
            })
            .sum()
    }

    /// The fault injector of a registered model's handle on one device, when
    /// armed. Each device draws its own decorrelated stream and tags its
    /// journal entries, so per-device journals are disjoint.
    pub fn fault_profile_on(&self, id: ModelId, device: usize) -> Option<&vpps::FaultProfile> {
        self.devices[device].handle(id.0).fault_profile()
    }

    /// Current lifecycle state of one device.
    pub fn device_health(&self, device: usize) -> DeviceHealth {
        self.devices[device].health()
    }

    /// Every health transition of one device, in order.
    pub fn device_health_log(&self, device: usize) -> &[HealthTransition] {
        self.devices[device].health_log()
    }

    /// Current breaker state of a registered model on one device.
    pub fn breaker_state_on(&self, id: ModelId, device: usize) -> BreakerState {
        self.devices[device].breaker_state(id.0)
    }

    /// Batches taken off failed devices and re-dispatched to survivors.
    pub fn redispatched_batches(&self) -> u64 {
        self.redispatched_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdmissionPolicy, BatchPolicy, ShardPolicy};
    use crate::request::RequestKind;
    use dyn_graph::{Graph, NodeId};
    use gpu_sim::DeviceConfig;

    fn toy_model() -> (Model, dyn_graph::ParamId, dyn_graph::ParamId) {
        let mut m = Model::new(7);
        let w = m.add_matrix("W", 16, 16);
        let cls = m.add_matrix("cls", 4, 16);
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
        let mut h = g.input(vec![0.5; 16]);
        for _ in 0..steps {
            let z = g.matvec(m, w, h);
            h = g.tanh(z);
        }
        let o = g.matvec(m, cls, h);
        let loss = g.pick_neg_log_softmax(o, label);
        (g, loss)
    }

    fn small_config() -> ServeConfig {
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 4;
        ServeConfig {
            device,
            opts: vpps::VppsOptions {
                pool_capacity: 1 << 20,
                ..vpps::VppsOptions::default()
            },
            batch: BatchPolicy {
                max_batch: 4,
                max_linger: SimTime::from_us(50.0),
                deadline_aware: true,
            },
            admission: AdmissionPolicy::default(),
            recovery: crate::policy::RecoveryConfig::default(),
            shard: ShardPolicy::default(),
            health: crate::policy::HealthPolicy::default(),
        }
    }

    fn infer_request(
        server_model: ModelId,
        m: &Model,
        w: dyn_graph::ParamId,
        cls: dyn_graph::ParamId,
        tenant: u32,
        steps: usize,
        at_us: f64,
    ) -> Request {
        let (graph, root) = toy_graph(m, w, cls, steps, 0);
        Request {
            tenant: TenantId(tenant),
            model: server_model,
            kind: RequestKind::Infer,
            graph,
            root,
            arrival: SimTime::from_us(at_us),
            deadline: None,
        }
    }

    #[test]
    fn full_bucket_flushes_as_one_batch() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for i in 0..4 {
            let adm = srv.submit(infer_request(mid, &m, w, cls, i, 2, 1.0));
            assert!(adm.is_queued());
        }
        // Size trigger fired: everything dispatched as one batch of 4.
        assert_eq!(srv.queue_depth(), 0);
        assert_eq!(srv.batches_dispatched(), 1);
        // Completions are recorded when the virtual clock reaches the
        // device's finish time, not at dispatch.
        srv.drain();
        let completions: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .collect();
        assert_eq!(completions.len(), 4);
        assert!(completions.iter().all(|c| c.batch_size == 4));
    }

    #[test]
    fn linger_expiry_flushes_a_partial_batch() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        srv.submit(infer_request(mid, &m, w, cls, 0, 2, 1.0));
        srv.submit(infer_request(mid, &m, w, cls, 1, 2, 2.0));
        assert_eq!(srv.queue_depth(), 2);
        // Advance past the first request's linger deadline (1us + 50us).
        srv.run_until(SimTime::from_us(60.0));
        assert_eq!(srv.queue_depth(), 0);
        srv.drain();
        let completions: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .collect();
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].batch_size, 2);
        // Linger bound respected: dispatch within max_linger of arrival.
        for c in &completions {
            assert!(c.dispatched_at <= c.arrival + SimTime::from_us(50.0) + SimTime::from_ns(1.0));
        }
    }

    #[test]
    fn different_shape_classes_never_co_batch() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        // 1-step (~5 nodes) and 16-step (~35 nodes) graphs land in
        // different log2 shape classes.
        srv.submit(infer_request(mid, &m, w, cls, 0, 1, 1.0));
        srv.submit(infer_request(mid, &m, w, cls, 0, 16, 1.0));
        srv.drain();
        assert_eq!(srv.batches_dispatched(), 2);
        let completions: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .collect();
        assert!(completions.iter().all(|c| c.batch_size == 1));
    }

    #[test]
    fn different_structures_never_co_batch() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        // 1-step and 2-step graphs share a log2 shape class (5 vs 7 nodes,
        // both class 3) but differ structurally, so they form separate
        // buckets and each lowers to its own cached script.
        srv.submit(infer_request(mid, &m, w, cls, 0, 1, 1.0));
        srv.submit(infer_request(mid, &m, w, cls, 0, 2, 1.0));
        srv.drain();
        assert_eq!(srv.batches_dispatched(), 2);
    }

    #[test]
    fn admission_sheds_beyond_bounds_and_records_every_outcome() {
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        cfg.batch.max_batch = 64; // keep everything queued
        cfg.admission = AdmissionPolicy {
            queue_capacity: 6,
            tenant_quota: 4,
        };
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        let mut queued = 0;
        let mut quota = 0;
        let mut full = 0;
        for i in 0..10 {
            let tenant = i / 8; // tenant 0 submits 8, tenant 1 submits 2
            match srv.submit(infer_request(mid, &m, w, cls, tenant, 2, 1.0)) {
                Admission::Queued(_) => queued += 1,
                Admission::Shed(_, ShedReason::TenantQuota) => quota += 1,
                Admission::Shed(_, ShedReason::QueueFull) => full += 1,
                Admission::Shed(_, r) => panic!("unexpected shed {r:?}"),
            }
        }
        // Tenant 0 hits its quota of 4 (4 shed), then tenant 1 queues 2.
        assert_eq!((queued, quota, full), (6, 4, 0));
        // An 11th request hits the global bound.
        match srv.submit(infer_request(mid, &m, w, cls, 2, 2, 1.0)) {
            Admission::Shed(_, ShedReason::QueueFull) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        srv.drain();
        assert_eq!(srv.outcomes().len(), 11);
        assert_eq!(
            srv.outcomes()
                .iter()
                .filter(|o| o.completion().is_some())
                .count(),
            6
        );
    }

    #[test]
    fn overload_sheds_against_the_outstanding_bound() {
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        cfg.batch.max_batch = 2;
        cfg.admission = AdmissionPolicy {
            queue_capacity: 4,
            tenant_quota: 100,
        };
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        // A simultaneous burst: batches dispatch instantly (size trigger)
        // but the virtual device hasn't finished them, so in-flight work
        // keeps counting against the bound.
        let mut admitted = 0;
        let mut shed = 0;
        for i in 0..12 {
            match srv.submit(infer_request(mid, &m, w, cls, i, 2, 1.0)) {
                Admission::Queued(_) => admitted += 1,
                Admission::Shed(_, ShedReason::QueueFull) => shed += 1,
                Admission::Shed(_, r) => panic!("unexpected shed {r:?}"),
            }
        }
        assert_eq!((admitted, shed), (4, 8));
        assert_eq!(srv.outstanding(), 4);
        // Once the device catches up, capacity frees again.
        srv.run_until(SimTime::from_secs(1.0));
        assert_eq!(srv.outstanding(), 0);
        assert!(srv
            .submit(infer_request(mid, &m, w, cls, 0, 2, 1_000_001.0))
            .is_queued());
    }

    #[test]
    fn expired_deadlines_shed_instead_of_executing() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        let mut req = infer_request(mid, &m, w, cls, 0, 2, 1.0);
        req.deadline = Some(SimTime::from_us(10.0));
        assert!(srv.submit(req).is_queued());
        // Dead on arrival: deadline before arrival time.
        let mut doa = infer_request(mid, &m, w, cls, 0, 2, 20.0);
        doa.deadline = Some(SimTime::from_us(15.0));
        match srv.submit(doa) {
            Admission::Shed(_, ShedReason::DeadlineExpired) => {}
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        // The first request was flushed at its deadline (deadline-aware),
        // completing late but dispatched before expiry.
        srv.drain();
        let completions: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .collect();
        assert_eq!(completions.len(), 1);
        assert!(completions[0].dispatched_at <= SimTime::from_us(10.0));
    }

    #[test]
    fn train_batches_return_the_summed_loss_and_update_weights() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for i in 0..2 {
            let (graph, root) = toy_graph(&m, w, cls, 2, i);
            srv.submit(Request {
                tenant: TenantId(0),
                model: mid,
                kind: RequestKind::Train,
                graph,
                root,
                arrival: SimTime::from_us(1.0),
                deadline: None,
            });
        }
        srv.drain();
        let completions: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .collect();
        assert_eq!(completions.len(), 2);
        let loss = completions[0].output[0];
        assert!(loss > 0.0, "summed batch loss should be positive");
        assert_eq!(completions[1].output[0], loss, "same batch, same loss");
    }

    #[test]
    fn batched_inference_is_bit_identical_to_serial() {
        let (mut m, w, cls) = toy_model();
        // Serial reference on a raw handle.
        let mut reference = Vec::new();
        let mut h = Handle::new(&m, small_config().device, small_config().opts).unwrap();
        for steps in [2usize, 2, 2] {
            let (g, l) = toy_graph(&m, w, cls, steps, 0);
            reference.push(h.infer(&mut m, &g, l));
        }
        // Server path: the three requests co-batch into one launch.
        let mut srv = Server::new(small_config());
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for i in 0..3 {
            srv.submit(infer_request(mid, &m, w, cls, i, 2, 1.0));
        }
        srv.drain();
        let got: Vec<_> = srv
            .outcomes()
            .iter()
            .filter_map(Outcome::completion)
            .map(|c| c.output.clone())
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let (m, w, cls) = toy_model();
            let mut srv = Server::new(small_config());
            let mid = srv.register_model("toy", m.clone()).unwrap();
            for i in 0..9 {
                srv.submit(infer_request(
                    mid,
                    &m,
                    w,
                    cls,
                    i % 3,
                    1 + (i as usize) % 3,
                    i as f64,
                ));
            }
            srv.drain();
            srv.outcomes()
                .iter()
                .map(|o| match o {
                    Outcome::Completed(c) => (
                        c.id.0,
                        c.dispatched_at.as_ns().to_bits(),
                        c.completed_at.as_ns().to_bits(),
                        c.output.clone(),
                    ),
                    Outcome::Shed(s) => (s.id.0, s.at.as_ns().to_bits(), 0, Vec::new()),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_inference_matches_single_device_bitwise() {
        let outputs_for = |devices: usize| {
            let (m, w, cls) = toy_model();
            let mut cfg = small_config();
            cfg.shard.devices = devices;
            let mut srv = Server::new(cfg);
            let mid = srv.register_model("toy", m.clone()).unwrap();
            for i in 0..12 {
                srv.submit(infer_request(
                    mid,
                    &m,
                    w,
                    cls,
                    i % 3,
                    1 + (i as usize) % 4,
                    (i * 3) as f64,
                ));
            }
            srv.drain();
            let mut by_id: Vec<(u64, Vec<u32>)> = srv
                .outcomes()
                .iter()
                .filter_map(Outcome::completion)
                .map(|c| (c.id.0, c.output.iter().map(|x| x.to_bits()).collect()))
                .collect();
            by_id.sort();
            (by_id, srv.router_stats(), srv.device_stats())
        };
        let (single, _, _) = outputs_for(1);
        assert_eq!(single.len(), 12);
        for devices in [2usize, 3] {
            let (sharded, router, stats) = outputs_for(devices);
            assert_eq!(sharded, single, "{devices}-device outputs diverge");
            assert_eq!(stats.len(), devices);
            assert!(router.routed > 0);
            assert_eq!(
                router.routed,
                router.placements + router.affinity_hits + router.steals + router.rehomes
            );
            assert_eq!(router.rehomes, 0, "no failures, no re-homes");
        }
    }

    #[test]
    fn unknown_model_sheds_instead_of_panicking() {
        let (m, w, cls) = toy_model();
        let mut srv = Server::new(small_config());
        let _ = srv.register_model("toy", m.clone()).unwrap();
        let req = infer_request(ModelId(7), &m, w, cls, 0, 2, 1.0);
        match srv.submit(req) {
            Admission::Shed(_, ShedReason::UnknownModel) => {}
            other => panic!("expected UnknownModel shed, got {other:?}"),
        }
        assert_eq!(srv.outcomes().len(), 1);
    }

    #[test]
    fn faults_with_fallback_enabled_complete_every_request() {
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        cfg.opts.faults = vpps::FaultConfig::uniform(11, 0.2);
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for i in 0..8 {
            srv.submit(infer_request(mid, &m, w, cls, i % 2, 2, i as f64));
        }
        srv.drain();
        let completed = srv
            .outcomes()
            .iter()
            .filter(|o| o.completion().is_some())
            .count();
        assert_eq!(completed, 8, "the recovery ladder absorbs every fault");
        assert_eq!(srv.batch_failures(), 0);
        assert!(srv.faults_injected(mid) > 0, "faults were actually drawn");
        assert_eq!(srv.breaker_state_on(mid, 0), BreakerState::Closed);
    }

    #[test]
    fn fallback_disabled_faults_trip_the_breaker_and_shed_typed() {
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        // Every batch faults and the handle may not degrade: dispatches
        // fail, the breaker opens, and every request ends in a typed shed.
        // (JIT rate stays 0 so registration itself succeeds.)
        let mut faults = vpps::FaultConfig::uniform(5, 1.0);
        faults.jit_failure = 0.0;
        cfg.opts.faults = faults;
        cfg.opts.recovery.fallback = false;
        cfg.recovery.breaker_threshold = 2;
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for i in 0..8 {
            srv.submit(infer_request(mid, &m, w, cls, i % 2, 2, i as f64));
        }
        srv.drain();
        assert!(srv.batch_failures() > 0);
        assert_eq!(srv.breaker_state_on(mid, 0), BreakerState::Open);
        // Exactly one outcome per request, all shed with recovery reasons.
        assert_eq!(srv.outcomes().len(), 8);
        for o in srv.outcomes() {
            let s = o.shed().expect("all-fault run completes nothing");
            assert!(
                matches!(s.reason, ShedReason::RetryBudget | ShedReason::BreakerOpen),
                "unexpected shed reason {:?}",
                s.reason
            );
        }
        // Breaker transitions are legal: Closed→Open first, then only
        // Open→HalfOpen→{Open,Closed} moves.
        let trs = srv.breaker_transitions_on(mid, 0);
        assert!(!trs.is_empty());
        assert_eq!(
            (trs[0].from, trs[0].to),
            (BreakerState::Closed, BreakerState::Open)
        );
        for w in trs.windows(2) {
            assert_eq!(w[0].to, w[1].from, "transition chain must be contiguous");
        }
    }

    #[test]
    fn shared_plan_signatures_hit_the_jit_cache() {
        let (m, _, _) = toy_model();
        let mut srv = Server::new(small_config());
        let a = srv.register_model("a", m.clone()).unwrap();
        let paid_after_first = srv.jit_paid();
        let b = srv.register_model("b", m.clone()).unwrap();
        assert_eq!(srv.plan_signature(a), srv.plan_signature(b));
        let second_cost = srv.jit_paid() - paid_after_first;
        assert!(
            second_cost < paid_after_first,
            "cache hit pays module load only"
        );
        assert_eq!(srv.model_name(b), "b");
    }

    /// Two buckets (1-step and 2-step graphs), four requests each, all
    /// arriving at t=1µs: the size trigger flushes bucket A onto device 0
    /// (first placement) and bucket B onto device 1, so an outage on
    /// device 1 starting shortly after always catches real work there.
    fn two_bucket_run(outage: Option<gpu_sim::OutageWindow>) -> Server {
        two_bucket_run_with(outage, |_| {})
    }

    impl Server {
        /// Sorted `(request id, output bits)` pairs over all completions.
        fn sorted_output_bits(&self) -> Vec<(u64, Vec<u32>)> {
            let mut v: Vec<(u64, Vec<u32>)> = self
                .outcomes()
                .iter()
                .filter_map(Outcome::completion)
                .map(|c| (c.id.0, c.output.iter().map(|x| x.to_bits()).collect()))
                .collect();
            v.sort();
            v
        }
    }

    fn two_bucket_run_with(
        outage: Option<gpu_sim::OutageWindow>,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> Server {
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        cfg.shard.devices = 2;
        if let Some(win) = outage {
            cfg.opts.faults.push_outage(win).unwrap();
        }
        tweak(&mut cfg);
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for steps in [1usize, 2] {
            for i in 0..4 {
                srv.submit(infer_request(mid, &m, w, cls, i, steps, 1.0));
            }
        }
        srv.drain();
        srv
    }

    fn health_path(srv: &Server, device: usize) -> Vec<DeviceHealth> {
        srv.device_health_log(device).iter().map(|t| t.to).collect()
    }

    #[test]
    fn crash_redispatches_queued_and_inflight_work_exactly_once() {
        let baseline = two_bucket_run(None);
        assert_eq!(baseline.sorted_output_bits().len(), 8);
        let crash = gpu_sim::OutageWindow {
            device: 1,
            kind: gpu_sim::OutageKind::Crash,
            start: SimTime::from_us(3.0),
            end: SimTime::from_us(1000.0),
        };
        let srv = two_bucket_run(Some(crash));
        // Exactly one outcome per request and no losses: every submitted
        // request completed, bit-identical to the fault-free run.
        assert_eq!(srv.outcomes().len(), 8);
        let mut ids: Vec<u64> = srv.outcomes().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "duplicate outcomes for one request");
        assert_eq!(srv.sorted_output_bits(), baseline.sorted_output_bits());
        // Device 1's work moved to a survivor.
        assert!(srv.redispatched_batches() >= 1);
        assert!(srv.router_stats().rehomes >= 1);
        assert!(srv.router_stats().cold_rebuilds >= 1, "survivor was cold");
        // Lifecycle walked Draining -> Down -> Reviving.
        let path = health_path(&srv, 1);
        assert!(
            path.windows(2)
                .any(|w| w == [DeviceHealth::Draining, DeviceHealth::Down]),
            "missing Draining->Down in {path:?}"
        );
        assert!(path.contains(&DeviceHealth::Reviving), "window end revives");
        // The survivor never left Healthy.
        assert!(health_path(&srv, 0).is_empty());
        // Every surviving completion names a real device.
        for c in srv.outcomes().iter().filter_map(Outcome::completion) {
            assert!(c.device < 2);
        }
    }

    #[test]
    fn hang_is_detected_by_the_watchdog_and_work_still_resolves() {
        let baseline = two_bucket_run(None);
        let hang = gpu_sim::OutageWindow {
            device: 1,
            kind: gpu_sim::OutageKind::Hang,
            start: SimTime::from_us(3.0),
            // Far beyond the watchdog grace: detection must come from the
            // missed completion, not the window end.
            end: SimTime::from_secs(10.0),
        };
        let srv = two_bucket_run(Some(hang));
        assert_eq!(srv.outcomes().len(), 8);
        assert_eq!(srv.sorted_output_bits(), baseline.sorted_output_bits());
        assert!(srv.redispatched_batches() >= 1);
        let path = health_path(&srv, 1);
        assert!(
            path.windows(2)
                .any(|w| w == [DeviceHealth::Draining, DeviceHealth::Down]),
            "watchdog never declared the hung device down: {path:?}"
        );
    }

    #[test]
    fn short_hang_thaws_in_place_without_a_down_declaration() {
        let baseline = two_bucket_run(None);
        let blip = gpu_sim::OutageWindow {
            device: 1,
            kind: gpu_sim::OutageKind::Hang,
            start: SimTime::from_us(3.0),
            // Ends long before the watchdog grace (200µs default) lapses:
            // the freeze only slips the timeline.
            end: SimTime::from_us(10.0),
        };
        let srv = two_bucket_run(Some(blip));
        assert_eq!(srv.outcomes().len(), 8);
        assert_eq!(srv.sorted_output_bits(), baseline.sorted_output_bits());
        assert_eq!(srv.redispatched_batches(), 0);
        assert!(
            health_path(&srv, 1).is_empty(),
            "a sub-grace blip must stay invisible to the lifecycle"
        );
    }

    #[test]
    fn brownout_degrades_then_recovers_with_identical_outputs() {
        let baseline = two_bucket_run(None);
        let brownout = gpu_sim::OutageWindow {
            device: 1,
            kind: gpu_sim::OutageKind::Brownout,
            start: SimTime::from_us(3.0),
            end: SimTime::from_us(2000.0),
        };
        let srv = two_bucket_run(Some(brownout));
        assert_eq!(srv.outcomes().len(), 8);
        // Slower, not wrong: outputs are bitwise those of the clean run.
        assert_eq!(srv.sorted_output_bits(), baseline.sorted_output_bits());
        assert_eq!(srv.redispatched_batches(), 0, "brownout is not an outage");
        let path = health_path(&srv, 1);
        assert_eq!(
            path,
            vec![DeviceHealth::Degraded, DeviceHealth::Healthy],
            "brownout walks Degraded then back"
        );
    }

    #[test]
    fn revived_device_earns_healthy_back_through_probation() {
        let crash = gpu_sim::OutageWindow {
            device: 1,
            kind: gpu_sim::OutageKind::Crash,
            start: SimTime::from_us(3.0),
            end: SimTime::from_us(600.0),
        };
        let (m, w, cls) = toy_model();
        let mut cfg = small_config();
        cfg.shard.devices = 2;
        cfg.health.probation_warm_batches = 1;
        cfg.opts.faults.push_outage(crash).unwrap();
        let mut srv = Server::new(cfg);
        let mid = srv.register_model("toy", m.clone()).unwrap();
        for steps in [1usize, 2] {
            for i in 0..4 {
                srv.submit(infer_request(mid, &m, w, cls, i, steps, 1.0));
            }
        }
        srv.drain();
        assert_eq!(srv.device_health(1), DeviceHealth::Reviving);
        // Post-revival: bucket C lands on device 0 (tie-break), making it
        // busy; bucket D then places on the idle reviving device 1 — its
        // bounded probation admission. One warm completion promotes it.
        let at = (srv.now() + SimTime::from_us(10.0)).as_ns() / 1e3;
        for steps in [3usize, 4] {
            for i in 0..4 {
                srv.submit(infer_request(mid, &m, w, cls, i, steps, at));
            }
        }
        srv.drain();
        assert_eq!(srv.device_health(1), DeviceHealth::Healthy);
        let path = health_path(&srv, 1);
        assert!(
            path.windows(2)
                .any(|w| w == [DeviceHealth::Reviving, DeviceHealth::Healthy]),
            "probation never completed: {path:?}"
        );
        // Everything submitted across both phases resolved exactly once.
        assert_eq!(srv.outcomes().len(), 16);
        let mut ids: Vec<u64> = srv.outcomes().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn outage_runs_are_deterministic_across_reruns() {
        for kind in gpu_sim::OutageKind::ALL {
            let win = gpu_sim::OutageWindow {
                device: 1,
                kind,
                start: SimTime::from_us(3.0),
                end: SimTime::from_us(800.0),
            };
            let fingerprint = |srv: &Server| {
                let mut v: Vec<(u64, u64, usize, Vec<u32>)> = srv
                    .outcomes()
                    .iter()
                    .filter_map(Outcome::completion)
                    .map(|c| {
                        (
                            c.id.0,
                            c.completed_at.as_ns().to_bits(),
                            c.device,
                            c.output.iter().map(|x| x.to_bits()).collect(),
                        )
                    })
                    .collect();
                v.sort();
                v
            };
            let a = two_bucket_run(Some(win));
            let b = two_bucket_run(Some(win));
            assert_eq!(fingerprint(&a), fingerprint(&b), "{kind:?} rerun diverged");
            assert_eq!(a.redispatched_batches(), b.redispatched_batches());
            assert_eq!(health_path(&a, 1), health_path(&b, 1));
        }
    }
}
