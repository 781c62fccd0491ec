//! Per-request tracing on the virtual clock, with exact time attribution.
//!
//! The serving layer emits a flat stream of [`TraceEvent`]s into a
//! [`TraceSink`] as it admits, batches, routes, executes, retries and
//! resolves requests. Nothing here touches the wall clock: every timestamp
//! is virtual nanoseconds (`gpu_sim::SimTime::as_ns()` bit patterns), so the
//! same seed produces the same byte-identical trace on any machine.
//!
//! [`TraceAnalysis::analyze`] replays the event stream and reconstructs one
//! [`RequestTimeline`] per admitted request: a sequence of [`PhaseSpan`]s
//! (`admit → linger → route → queue → lower → execute → … → resolve`) that
//! must *tile* the request's end-to-end latency exactly: the first span
//! starts at arrival, each next one bit-exactly where its predecessor ended,
//! and the last ends at resolution, so over the reals the phase durations
//! telescope to the end-to-end latency with zero error (see
//! [`RequestTimeline::check_tiling`]). Batch-level events fan out to their
//! member requests, so a batch's execution window appears on every member's
//! timeline while the batch itself keeps one [`BatchSpan`] per device track.
//!
//! The analyzer is deliberately paranoid: any gap, overlap, duplicate
//! terminal, or missing terminal becomes an entry in
//! [`TraceAnalysis::errors`], and [`TraceAnalysis::complete`] additionally
//! refuses to claim complete attribution while any trace event or host span
//! was dropped.

use std::collections::BTreeMap;

use crate::chrome::ChromeTrace;

/// How a request's trace terminated. Every admitted request ends in exactly
/// one of these (the trace-level mirror of `Outcome` in `vpps-serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The request executed and produced output.
    Completed,
    /// Admission control or a deadline shed the request.
    Shed,
    /// The request exhausted its retry budget after repeated batch faults.
    Failed,
}

impl Resolution {
    /// Stable lower-case name (used in JSON and Chrome views).
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Completed => "completed",
            Resolution::Shed => "shed",
            Resolution::Failed => "failed",
        }
    }
}

/// One raw trace event, recorded by the server as it happens. All times are
/// virtual-clock nanoseconds; `req` / `batch` are server-assigned ids.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request passed (or was rejected by) admission at `at_ns`. Every
    /// traced request starts with exactly one of these, sheds included.
    Admitted {
        /// Request id.
        req: u64,
        /// Owning tenant.
        tenant: u32,
        /// Arrival / admission time.
        at_ns: f64,
    },
    /// A bucket flushed into a batch containing `members` (sampled ids
    /// only). Closes each member's linger phase.
    Formed {
        /// Batch id.
        batch: u64,
        /// Human-readable bucket signature (`model/kind/shape/structure`).
        bucket: String,
        /// Sampled member request ids.
        members: Vec<u64>,
        /// Formation time.
        at_ns: f64,
    },
    /// The router placed `batch` on `device` (decision is `"placement"`,
    /// `"affinity"`, or `"steal"`). Zero-width on the virtual clock.
    Routed {
        /// Batch id.
        batch: u64,
        /// Target device.
        device: u32,
        /// Router decision name.
        decision: &'static str,
        /// Routing time (equals the formation time).
        at_ns: f64,
    },
    /// `batch` executed successfully on `device` over
    /// `[started_ns, completed_ns]`; `cold` is true when the batch lowered at
    /// least one new script instead of hitting the warm cache.
    Executed {
        /// Batch id.
        batch: u64,
        /// Executing device.
        device: u32,
        /// Execution start on the device timeline.
        started_ns: f64,
        /// Execution end (= member completion time).
        completed_ns: f64,
        /// True if the batch missed the script cache (lowered fresh).
        cold: bool,
    },
    /// `batch` faulted on `device` after occupying `[started_ns,
    /// completed_ns]`. Members are either retried (see [`Self::Retried`]) or
    /// resolved as failed.
    FailedAttempt {
        /// Batch id.
        batch: u64,
        /// Device the attempt ran on.
        device: u32,
        /// Attempt start on the device timeline.
        started_ns: f64,
        /// Attempt end.
        completed_ns: f64,
    },
    /// After a failed attempt of `from_batch`, request `req` was re-enqueued
    /// as singleton batch `batch`.
    Retried {
        /// Request id.
        req: u64,
        /// The batch whose attempt failed.
        from_batch: u64,
        /// The new singleton batch id.
        batch: u64,
        /// Re-enqueue time (the failed attempt's end).
        at_ns: f64,
    },
    /// Terminal event: the request left the system at `at_ns`. Exactly one
    /// per admitted request.
    Resolved {
        /// Request id.
        req: u64,
        /// How it terminated.
        outcome: Resolution,
        /// Reason detail (`"completed"`, a shed reason, `"retry_budget"`).
        reason: &'static str,
        /// Resolution time.
        at_ns: f64,
    },
    /// A device was declared out of service (whole-device failure domain).
    /// Device-level: carries no request ids; its per-request consequences
    /// arrive as [`Self::Redispatched`] events.
    DeviceDown {
        /// The failed device.
        device: u32,
        /// `"crash"` or `"hang"` (watchdog-declared).
        reason: &'static str,
        /// Declaration time.
        at_ns: f64,
    },
    /// After a device failure, the (sampled) members of `from_batch` —
    /// queued on or in flight on the failed device — were re-dispatched as
    /// fresh batch `batch` on a survivor. Closes each member's queue wait
    /// on the dead device and re-opens it on the new one, so re-dispatch
    /// time shows up as an attributed queue phase, not a gap.
    Redispatched {
        /// The batch aborted by the failure.
        from_batch: u64,
        /// The fresh batch id on the survivor.
        batch: u64,
        /// The failed device.
        from_device: u32,
        /// The surviving target device.
        device: u32,
        /// Sampled member request ids.
        members: Vec<u64>,
        /// Re-dispatch time (the failure time).
        at_ns: f64,
    },
    /// A down device re-entered service (on revival probation) at `at_ns`.
    DeviceRevived {
        /// The revived device.
        device: u32,
        /// Revival time.
        at_ns: f64,
    },
}

/// Bounded in-memory event sink with deterministic every-Nth request
/// sampling. Drops *newest* events when full, so the retained prefix stays
/// causally complete; drops are counted and poison
/// [`TraceAnalysis::complete`].
#[derive(Debug, Clone)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    sample: u64,
    dropped: u64,
}

impl TraceSink {
    /// A sink holding at most `capacity` events, tracing every `sample`-th
    /// request (`sample <= 1` traces everything).
    pub fn new(capacity: usize, sample: u64) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            sample: sample.max(1),
            dropped: 0,
        }
    }

    /// True if request id `req` is selected by the sampling policy.
    /// Deterministic: keyed on the id alone (`req % sample == 0`).
    pub fn sampled(&self, req: u64) -> bool {
        self.sample <= 1 || req.is_multiple_of(self.sample)
    }

    /// Records one event (or counts it dropped if the sink is full).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events rejected because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sampling stride (1 = every request).
    pub fn sample(&self) -> u64 {
        self.sample
    }
}

/// Phase taxonomy of a request timeline. `Admit`, `Route`, `Lower` and
/// `Resolve` are zero-width markers on the virtual clock (admission
/// bookkeeping, routing and lowering cost *host* time, never virtual time);
/// `Linger`, `Queue` and `Execute` carry the latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Admission verdict (zero-width, at arrival).
    Admit,
    /// Waiting in the bucket for the batch to form.
    Linger,
    /// Router placement decision (zero-width, at formation).
    Route,
    /// Waiting in the device queue (includes prior failed attempts' windows
    /// for retried requests only via separate `Execute` spans).
    Queue,
    /// Script-cache lookup / lowering (zero-width: lowering is host work).
    Lower,
    /// Occupying the device.
    Execute,
    /// Terminal marker (zero-width, at resolution).
    Resolve,
}

impl Phase {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admit => "admit",
            Phase::Linger => "linger",
            Phase::Route => "route",
            Phase::Queue => "queue",
            Phase::Lower => "lower",
            Phase::Execute => "execute",
            Phase::Resolve => "resolve",
        }
    }
}

/// One contiguous phase interval on a request's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Start, virtual nanoseconds.
    pub start_ns: f64,
    /// End, virtual nanoseconds (bit-equal to the next span's start).
    pub end_ns: f64,
    /// Device involved, when meaningful (route/queue/lower/execute).
    pub device: Option<u32>,
    /// Batch involved, when meaningful.
    pub batch: Option<u64>,
    /// False for the execute window of a failed attempt.
    pub ok: bool,
    /// Phase detail: router decision, `"cold"`/`"warm"`, or the terminal
    /// reason.
    pub detail: &'static str,
}

impl PhaseSpan {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// A fully reconstructed request timeline: phase spans tiling
/// `[arrival_ns, resolved_ns]` with bit-equal boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// Request id.
    pub req: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Admission time.
    pub arrival_ns: f64,
    /// Terminal time.
    pub resolved_ns: f64,
    /// How the request terminated.
    pub resolution: Resolution,
    /// Terminal reason detail.
    pub reason: &'static str,
    /// Bucket signature, if the request reached batch formation.
    pub bucket: Option<String>,
    /// True if the (successful) executing batch lowered fresh scripts.
    pub cold: bool,
    /// Execution attempts observed (successful + failed).
    pub attempts: u32,
    /// Phase spans, in timeline order.
    pub spans: Vec<PhaseSpan>,
}

impl RequestTimeline {
    /// End-to-end latency in nanoseconds.
    pub fn e2e_ns(&self) -> f64 {
        self.resolved_ns - self.arrival_ns
    }

    /// Total nanoseconds attributed to `phase` (f64 sum; the exactness
    /// claim lives in [`Self::check_tiling`], not here).
    pub fn phase_ns(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(PhaseSpan::dur_ns)
            .sum()
    }

    /// Verifies the tiling invariant: the first span is a zero-width
    /// `Admit` at `arrival_ns`, every span starts bit-exactly where its
    /// predecessor ended, the last span is a `Resolve` ending bit-exactly at
    /// `resolved_ns`. The bit-equal chain is the whole proof: over the reals
    /// `Σ (endᵢ − startᵢ)` telescopes to `resolved_ns − arrival_ns` exactly.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant, prefixed with the request id.
    pub fn check_tiling(&self) -> Result<(), String> {
        let fail = |what: String| Err(format!("request {}: {what}", self.req));
        let Some(first) = self.spans.first() else {
            return fail("timeline has no spans".into());
        };
        if first.phase != Phase::Admit
            || first.start_ns.to_bits() != self.arrival_ns.to_bits()
            || first.end_ns.to_bits() != self.arrival_ns.to_bits()
        {
            return fail(format!(
                "timeline must open with admit at arrival, got {first:?}"
            ));
        }
        let mut boundary = self.arrival_ns;
        for s in &self.spans {
            if s.start_ns.to_bits() != boundary.to_bits() {
                return fail(format!(
                    "{} span starts at {} but previous phase ended at {} (gap/overlap)",
                    s.phase.name(),
                    s.start_ns,
                    boundary
                ));
            }
            if s.end_ns < s.start_ns {
                return fail(format!("{} span has negative duration", s.phase.name()));
            }
            boundary = s.end_ns;
        }
        let last = self.spans.last().expect("checked non-empty");
        if last.phase != Phase::Resolve {
            return fail(format!(
                "timeline must close with resolve, got {}",
                last.phase.name()
            ));
        }
        if boundary.to_bits() != self.resolved_ns.to_bits() {
            return fail(format!(
                "final span ends at {} but the request resolved at {}",
                boundary, self.resolved_ns
            ));
        }
        Ok(())
    }
}

/// Exact-rank latency quantiles over a sample set, in microseconds — the
/// one latency summary of both the trace analysis and `vpps-serve`'s
/// reports. Zero-filled when the sample set is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of samples.
    pub count: usize,
    /// Mean, microseconds.
    pub mean_us: f64,
    /// Exact p50 (ceil-rank order statistic), microseconds.
    pub p50_us: f64,
    /// Exact p95, microseconds.
    pub p95_us: f64,
    /// Exact p99, microseconds.
    pub p99_us: f64,
    /// Maximum, microseconds.
    pub max_us: f64,
}

/// The exact `q`-quantile of an ascending-sorted sample set (ceil-rank
/// order statistic).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

impl PhaseStats {
    /// Builds stats from nanosecond samples (consumed and sorted).
    pub fn from_ns_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(f64::total_cmp);
        let sum: f64 = samples.iter().sum();
        Self {
            count: samples.len(),
            mean_us: sum / samples.len() as f64 / 1e3,
            p50_us: quantile_sorted(&samples, 0.50) / 1e3,
            p95_us: quantile_sorted(&samples, 0.95) / 1e3,
            p99_us: quantile_sorted(&samples, 0.99) / 1e3,
            max_us: samples[samples.len() - 1] / 1e3,
        }
    }
}

/// Fig10-style per-phase latency attribution for one group of requests
/// (overall, one tenant, one bucket, or cold/warm).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBreakdown {
    /// Group label (`"all"`, `"tenant=3"`, a bucket signature, `"cold"`…).
    pub label: String,
    /// Requests in the group.
    pub requests: usize,
    /// End-to-end latency stats.
    pub e2e: PhaseStats,
    /// Linger (batch-formation wait) stats.
    pub linger: PhaseStats,
    /// Device-queue wait stats.
    pub queue: PhaseStats,
    /// Device-execution stats (all attempts).
    pub execute: PhaseStats,
    /// Mean share of end-to-end latency spent lingering, over the requests
    /// at or above the group's p99 end-to-end latency.
    pub tail_linger_share: f64,
    /// Tail queue-wait share (same tail population).
    pub tail_queue_share: f64,
    /// Tail execution share (same tail population).
    pub tail_execute_share: f64,
}

impl GroupBreakdown {
    /// Aggregates a group of timelines into a breakdown.
    pub fn from_timelines(label: &str, group: &[&RequestTimeline]) -> Self {
        let e2e_ns: Vec<f64> = group.iter().map(|t| t.e2e_ns()).collect();
        let linger_ns: Vec<f64> = group.iter().map(|t| t.phase_ns(Phase::Linger)).collect();
        let queue_ns: Vec<f64> = group.iter().map(|t| t.phase_ns(Phase::Queue)).collect();
        let exec_ns: Vec<f64> = group.iter().map(|t| t.phase_ns(Phase::Execute)).collect();

        let mut sorted = e2e_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let p99_ns = quantile_sorted(&sorted, 0.99);
        let mut tail = [0.0f64; 3];
        let mut tail_n = 0usize;
        for t in group {
            let e2e = t.e2e_ns();
            if e2e >= p99_ns && e2e > 0.0 {
                tail[0] += t.phase_ns(Phase::Linger) / e2e;
                tail[1] += t.phase_ns(Phase::Queue) / e2e;
                tail[2] += t.phase_ns(Phase::Execute) / e2e;
                tail_n += 1;
            }
        }
        let share = |x: f64| if tail_n == 0 { 0.0 } else { x / tail_n as f64 };
        Self {
            label: label.to_owned(),
            requests: group.len(),
            e2e: PhaseStats::from_ns_samples(e2e_ns),
            linger: PhaseStats::from_ns_samples(linger_ns),
            queue: PhaseStats::from_ns_samples(queue_ns),
            execute: PhaseStats::from_ns_samples(exec_ns),
            tail_linger_share: share(tail[0]),
            tail_queue_share: share(tail[1]),
            tail_execute_share: share(tail[2]),
        }
    }
}

/// One batch execution window on a device timeline (for the per-device
/// Chrome tracks).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpan {
    /// Batch id.
    pub batch: u64,
    /// Device the attempt ran on.
    pub device: u32,
    /// Window start, nanoseconds.
    pub started_ns: f64,
    /// Window end, nanoseconds.
    pub completed_ns: f64,
    /// Sampled member count.
    pub members: usize,
    /// True if the batch lowered fresh scripts (successful attempts only).
    pub cold: bool,
    /// False for failed attempts.
    pub ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Lingering,
    Queued,
    Done,
}

struct ReqState {
    tenant: u32,
    arrival_ns: f64,
    boundary_ns: f64,
    stage: Stage,
    spans: Vec<PhaseSpan>,
    bucket: Option<String>,
    cold: bool,
    attempts: u32,
    resolution: Option<(Resolution, &'static str, f64)>,
}

struct BatchInfo {
    members: Vec<u64>,
    device: Option<u32>,
}

/// The reconstructed, validated view of one trace: per-request timelines,
/// per-device batch spans, structural errors, and the fig10-style
/// breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// One timeline per resolved request, ordered by request id.
    pub timelines: Vec<RequestTimeline>,
    /// One span per batch execution attempt, in completion order.
    pub batch_spans: Vec<BatchSpan>,
    /// Structural violations (gaps, overlaps, duplicate or missing
    /// terminals). Empty on a well-formed trace.
    pub errors: Vec<String>,
    /// Trace events analyzed.
    pub events: u64,
    /// Trace events the sink rejected because it was full.
    pub events_dropped: u64,
    /// Host spans the global ring buffer overwrote (`obs.spans_dropped`) at
    /// analysis time. Nonzero means host-side attribution is incomplete.
    pub host_spans_dropped: u64,
    /// Batches formed from buckets (excludes retry singletons).
    pub batches: u64,
    /// Singleton retries observed.
    pub retries: u64,
    /// Batches the router stole away from their home device.
    pub steals: u64,
    /// Batches re-dispatched to a survivor after a device failure.
    pub redispatches: u64,
    /// Devices declared down (crash or watchdog-declared hang).
    pub device_downs: u64,
    /// Devices revived into probation.
    pub device_revivals: u64,
    /// Breakdown over every resolved request.
    pub overall: GroupBreakdown,
    /// Breakdown per tenant, ordered by tenant id.
    pub by_tenant: Vec<GroupBreakdown>,
    /// Breakdown per bucket signature (admission sheds land in
    /// `"unbatched"`), ordered by label.
    pub by_bucket: Vec<GroupBreakdown>,
    /// Breakdown of executed requests split `"cold"` vs `"warm"` by their
    /// batch's script-cache behaviour.
    pub by_warmth: Vec<GroupBreakdown>,
}

impl TraceAnalysis {
    /// Replays `sink`'s event stream and reconstructs every request
    /// timeline, recording structural violations instead of panicking.
    pub fn analyze(sink: &TraceSink) -> Self {
        let mut errors: Vec<String> = Vec::new();
        let mut reqs: BTreeMap<u64, ReqState> = BTreeMap::new();
        let mut batches: BTreeMap<u64, BatchInfo> = BTreeMap::new();
        let mut batch_spans: Vec<BatchSpan> = Vec::new();
        let (mut formed, mut retries, mut steals) = (0u64, 0u64, 0u64);
        let (mut redispatches, mut device_downs, mut device_revivals) = (0u64, 0u64, 0u64);

        for ev in sink.events() {
            match ev {
                TraceEvent::Admitted { req, tenant, at_ns } => {
                    if reqs.contains_key(req) {
                        errors.push(format!("request {req}: admitted twice"));
                        continue;
                    }
                    reqs.insert(
                        *req,
                        ReqState {
                            tenant: *tenant,
                            arrival_ns: *at_ns,
                            boundary_ns: *at_ns,
                            stage: Stage::Lingering,
                            spans: vec![PhaseSpan {
                                phase: Phase::Admit,
                                start_ns: *at_ns,
                                end_ns: *at_ns,
                                device: None,
                                batch: None,
                                ok: true,
                                detail: "",
                            }],
                            bucket: None,
                            cold: false,
                            attempts: 0,
                            resolution: None,
                        },
                    );
                }
                TraceEvent::Formed {
                    batch,
                    bucket,
                    members,
                    at_ns,
                } => {
                    formed += 1;
                    batches.insert(
                        *batch,
                        BatchInfo {
                            members: members.clone(),
                            device: None,
                        },
                    );
                    for req in members {
                        let Some(st) = reqs.get_mut(req) else {
                            errors.push(format!("request {req}: batched before admission"));
                            continue;
                        };
                        if st.stage != Stage::Lingering {
                            errors.push(format!("request {req}: batched while not lingering"));
                            continue;
                        }
                        if *at_ns < st.boundary_ns {
                            errors.push(format!(
                                "request {req}: batch formed at {at_ns} before admission"
                            ));
                            continue;
                        }
                        st.spans.push(PhaseSpan {
                            phase: Phase::Linger,
                            start_ns: st.boundary_ns,
                            end_ns: *at_ns,
                            device: None,
                            batch: Some(*batch),
                            ok: true,
                            detail: "",
                        });
                        st.boundary_ns = *at_ns;
                        st.stage = Stage::Queued;
                        st.bucket = Some(bucket.clone());
                    }
                }
                TraceEvent::Routed {
                    batch,
                    device,
                    decision,
                    at_ns,
                } => {
                    if *decision == "steal" {
                        steals += 1;
                    }
                    let Some(info) = batches.get_mut(batch) else {
                        errors.push(format!("batch {batch}: routed before formation"));
                        continue;
                    };
                    info.device = Some(*device);
                    for req in info.members.clone() {
                        let Some(st) = reqs.get_mut(&req) else {
                            continue;
                        };
                        if st.boundary_ns.to_bits() != at_ns.to_bits() {
                            errors.push(format!(
                                "request {req}: routed at {at_ns} but its batch formed at {}",
                                st.boundary_ns
                            ));
                            continue;
                        }
                        st.spans.push(PhaseSpan {
                            phase: Phase::Route,
                            start_ns: *at_ns,
                            end_ns: *at_ns,
                            device: Some(*device),
                            batch: Some(*batch),
                            ok: true,
                            detail: decision,
                        });
                    }
                }
                TraceEvent::Executed {
                    batch,
                    device,
                    started_ns,
                    completed_ns,
                    cold,
                } => {
                    let Some(info) = batches.get(batch) else {
                        errors.push(format!("batch {batch}: executed before formation"));
                        continue;
                    };
                    batch_spans.push(BatchSpan {
                        batch: *batch,
                        device: *device,
                        started_ns: *started_ns,
                        completed_ns: *completed_ns,
                        members: info.members.len(),
                        cold: *cold,
                        ok: true,
                    });
                    for req in info.members.clone() {
                        Self::attempt(
                            &mut reqs,
                            &mut errors,
                            req,
                            *batch,
                            *device,
                            *started_ns,
                            *completed_ns,
                            Some(*cold),
                        );
                    }
                }
                TraceEvent::FailedAttempt {
                    batch,
                    device,
                    started_ns,
                    completed_ns,
                } => {
                    let Some(info) = batches.get(batch) else {
                        errors.push(format!("batch {batch}: failed before formation"));
                        continue;
                    };
                    batch_spans.push(BatchSpan {
                        batch: *batch,
                        device: *device,
                        started_ns: *started_ns,
                        completed_ns: *completed_ns,
                        members: info.members.len(),
                        cold: false,
                        ok: false,
                    });
                    for req in info.members.clone() {
                        Self::attempt(
                            &mut reqs,
                            &mut errors,
                            req,
                            *batch,
                            *device,
                            *started_ns,
                            *completed_ns,
                            None,
                        );
                    }
                }
                TraceEvent::Retried {
                    req,
                    from_batch: _,
                    batch,
                    at_ns,
                } => {
                    retries += 1;
                    batches.insert(
                        *batch,
                        BatchInfo {
                            members: vec![*req],
                            device: None,
                        },
                    );
                    if let Some(st) = reqs.get(req) {
                        if st.boundary_ns.to_bits() != at_ns.to_bits() {
                            errors.push(format!(
                                "request {req}: retried at {at_ns} but its failed attempt ended \
                                 at {}",
                                st.boundary_ns
                            ));
                        }
                    } else {
                        errors.push(format!("request {req}: retried before admission"));
                    }
                }
                TraceEvent::Resolved {
                    req,
                    outcome,
                    reason,
                    at_ns,
                } => {
                    let Some(st) = reqs.get_mut(req) else {
                        errors.push(format!("request {req}: resolved before admission"));
                        continue;
                    };
                    if st.resolution.is_some() {
                        errors.push(format!("request {req}: resolved twice"));
                        continue;
                    }
                    if *at_ns < st.boundary_ns {
                        errors.push(format!(
                            "request {req}: resolved at {at_ns} before its last phase ended at {}",
                            st.boundary_ns
                        ));
                        continue;
                    }
                    if at_ns.to_bits() != st.boundary_ns.to_bits() {
                        // Fill the open wait phase up to the terminal: a
                        // bucket-expire shed ends a linger, a shed off a
                        // device queue ends a queue wait.
                        let phase = match st.stage {
                            Stage::Lingering => Phase::Linger,
                            Stage::Queued => Phase::Queue,
                            Stage::Done => unreachable!("resolution already recorded"),
                        };
                        st.spans.push(PhaseSpan {
                            phase,
                            start_ns: st.boundary_ns,
                            end_ns: *at_ns,
                            device: None,
                            batch: None,
                            ok: true,
                            detail: "",
                        });
                        st.boundary_ns = *at_ns;
                    }
                    st.spans.push(PhaseSpan {
                        phase: Phase::Resolve,
                        start_ns: *at_ns,
                        end_ns: *at_ns,
                        device: None,
                        batch: None,
                        ok: *outcome != Resolution::Failed,
                        detail: reason,
                    });
                    st.resolution = Some((*outcome, reason, *at_ns));
                    st.stage = Stage::Done;
                }
                TraceEvent::DeviceDown { .. } => {
                    device_downs += 1;
                }
                TraceEvent::DeviceRevived { .. } => {
                    device_revivals += 1;
                }
                TraceEvent::Redispatched {
                    from_batch,
                    batch,
                    from_device,
                    device,
                    members,
                    at_ns,
                } => {
                    redispatches += 1;
                    batches.insert(
                        *batch,
                        BatchInfo {
                            members: members.clone(),
                            device: Some(*device),
                        },
                    );
                    for req in members {
                        let Some(st) = reqs.get_mut(req) else {
                            errors.push(format!("request {req}: re-dispatched before admission"));
                            continue;
                        };
                        if st.stage != Stage::Queued {
                            errors.push(format!("request {req}: re-dispatched while not queued"));
                            continue;
                        }
                        if *at_ns < st.boundary_ns {
                            errors.push(format!(
                                "request {req}: re-dispatched at {at_ns} before its queue wait \
                                 began at {}",
                                st.boundary_ns
                            ));
                            continue;
                        }
                        // The wait already spent on the failed device is real
                        // latency: close it as an attributed queue span
                        // (flagged "aborted"), then a zero-width re-route.
                        st.spans.push(PhaseSpan {
                            phase: Phase::Queue,
                            start_ns: st.boundary_ns,
                            end_ns: *at_ns,
                            device: Some(*from_device),
                            batch: Some(*from_batch),
                            ok: true,
                            detail: "aborted",
                        });
                        st.spans.push(PhaseSpan {
                            phase: Phase::Route,
                            start_ns: *at_ns,
                            end_ns: *at_ns,
                            device: Some(*device),
                            batch: Some(*batch),
                            ok: true,
                            detail: "redispatch",
                        });
                        st.boundary_ns = *at_ns;
                    }
                }
            }
        }

        let mut timelines: Vec<RequestTimeline> = Vec::with_capacity(reqs.len());
        for (req, st) in reqs {
            let Some((resolution, reason, resolved_ns)) = st.resolution else {
                errors.push(format!("request {req}: admitted but never resolved"));
                continue;
            };
            let t = RequestTimeline {
                req,
                tenant: st.tenant,
                arrival_ns: st.arrival_ns,
                resolved_ns,
                resolution,
                reason,
                bucket: st.bucket,
                cold: st.cold,
                attempts: st.attempts,
                spans: st.spans,
            };
            if let Err(e) = t.check_tiling() {
                errors.push(e);
            }
            timelines.push(t);
        }

        let refs: Vec<&RequestTimeline> = timelines.iter().collect();
        let overall = GroupBreakdown::from_timelines("all", &refs);
        let mut by_tenant_groups: BTreeMap<u32, Vec<&RequestTimeline>> = BTreeMap::new();
        let mut by_bucket_groups: BTreeMap<String, Vec<&RequestTimeline>> = BTreeMap::new();
        let mut warm_groups: BTreeMap<&'static str, Vec<&RequestTimeline>> = BTreeMap::new();
        for t in &timelines {
            by_tenant_groups.entry(t.tenant).or_default().push(t);
            let bucket = t.bucket.clone().unwrap_or_else(|| "unbatched".to_owned());
            by_bucket_groups.entry(bucket).or_default().push(t);
            if t.attempts > 0 {
                warm_groups
                    .entry(if t.cold { "cold" } else { "warm" })
                    .or_default()
                    .push(t);
            }
        }
        let by_tenant = by_tenant_groups
            .iter()
            .map(|(id, g)| GroupBreakdown::from_timelines(&format!("tenant={id}"), g))
            .collect();
        let by_bucket = by_bucket_groups
            .iter()
            .map(|(label, g)| GroupBreakdown::from_timelines(label, g))
            .collect();
        let by_warmth = warm_groups
            .iter()
            .map(|(label, g)| GroupBreakdown::from_timelines(label, g))
            .collect();

        Self {
            timelines,
            batch_spans,
            errors,
            events: sink.len() as u64,
            events_dropped: sink.dropped(),
            host_spans_dropped: crate::span::dropped_spans(),
            batches: formed,
            retries,
            steals,
            redispatches,
            device_downs,
            device_revivals,
            overall,
            by_tenant,
            by_bucket,
            by_warmth,
        }
    }

    /// Fans one batch attempt out onto a member's timeline: closes the queue
    /// wait, marks the (zero-width) lowering lookup on successful attempts,
    /// and appends the execution window.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        reqs: &mut BTreeMap<u64, ReqState>,
        errors: &mut Vec<String>,
        req: u64,
        batch: u64,
        device: u32,
        started_ns: f64,
        completed_ns: f64,
        cold: Option<bool>,
    ) {
        let Some(st) = reqs.get_mut(&req) else {
            errors.push(format!("request {req}: executed before admission"));
            return;
        };
        if st.stage != Stage::Queued {
            errors.push(format!("request {req}: executed while not queued"));
            return;
        }
        if started_ns < st.boundary_ns {
            errors.push(format!(
                "request {req}: execution started at {started_ns} before its queue wait began \
                 at {}",
                st.boundary_ns
            ));
            return;
        }
        st.spans.push(PhaseSpan {
            phase: Phase::Queue,
            start_ns: st.boundary_ns,
            end_ns: started_ns,
            device: Some(device),
            batch: Some(batch),
            ok: true,
            detail: "",
        });
        if let Some(cold) = cold {
            st.spans.push(PhaseSpan {
                phase: Phase::Lower,
                start_ns: started_ns,
                end_ns: started_ns,
                device: Some(device),
                batch: Some(batch),
                ok: true,
                detail: if cold { "cold" } else { "warm" },
            });
            st.cold = cold;
        }
        st.spans.push(PhaseSpan {
            phase: Phase::Execute,
            start_ns: started_ns,
            end_ns: completed_ns,
            device: Some(device),
            batch: Some(batch),
            ok: cold.is_some(),
            detail: "",
        });
        st.boundary_ns = completed_ns;
        st.attempts += 1;
    }

    /// True when the trace is structurally sound *and* nothing was dropped —
    /// the only state in which the attribution claim is complete.
    pub fn complete(&self) -> bool {
        self.errors.is_empty() && self.events_dropped == 0 && self.host_spans_dropped == 0
    }

    /// Renders the analysis as a Chrome trace: process 0 holds one track per
    /// device (batch execution windows), process 1 one track per request
    /// (its phase spans).
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut c = ChromeTrace::new();
        for b in &self.batch_spans {
            let name = format!(
                "batch {} n={}{}{}",
                b.batch,
                b.members,
                if b.cold { " cold" } else { " warm" },
                if b.ok { "" } else { " FAILED" }
            );
            c.push(
                0,
                u64::from(b.device),
                &name,
                b.started_ns / 1e3,
                (b.completed_ns - b.started_ns) / 1e3,
            );
        }
        for t in &self.timelines {
            for s in &t.spans {
                let name = if s.detail.is_empty() {
                    s.phase.name().to_owned()
                } else {
                    format!("{}:{}", s.phase.name(), s.detail)
                };
                c.push(1, t.req, &name, s.start_ns / 1e3, s.dur_ns() / 1e3);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed two-request trace: one batched completion and one
    /// admission shed.
    fn sample_sink() -> TraceSink {
        let mut s = TraceSink::new(1024, 1);
        s.record(TraceEvent::Admitted {
            req: 0,
            tenant: 1,
            at_ns: 100.0,
        });
        s.record(TraceEvent::Admitted {
            req: 1,
            tenant: 2,
            at_ns: 150.0,
        });
        s.record(TraceEvent::Resolved {
            req: 1,
            outcome: Resolution::Shed,
            reason: "queue_full",
            at_ns: 150.0,
        });
        s.record(TraceEvent::Formed {
            batch: 0,
            bucket: "m0/infer/s2/x0".into(),
            members: vec![0],
            at_ns: 300.0,
        });
        s.record(TraceEvent::Routed {
            batch: 0,
            device: 0,
            decision: "placement",
            at_ns: 300.0,
        });
        s.record(TraceEvent::Executed {
            batch: 0,
            device: 0,
            started_ns: 450.0,
            completed_ns: 900.0,
            cold: true,
        });
        s.record(TraceEvent::Resolved {
            req: 0,
            outcome: Resolution::Completed,
            reason: "completed",
            at_ns: 900.0,
        });
        s
    }

    #[test]
    fn well_formed_trace_analyzes_cleanly() {
        let a = TraceAnalysis::analyze(&sample_sink());
        assert!(a.errors.is_empty(), "unexpected errors: {:?}", a.errors);
        assert_eq!(a.timelines.len(), 2);
        assert_eq!(a.batches, 1);
        assert_eq!(a.batch_spans.len(), 1);

        let done = &a.timelines[0];
        assert_eq!(done.resolution, Resolution::Completed);
        assert_eq!(done.e2e_ns(), 800.0);
        assert_eq!(done.phase_ns(Phase::Linger), 200.0);
        assert_eq!(done.phase_ns(Phase::Queue), 150.0);
        assert_eq!(done.phase_ns(Phase::Execute), 450.0);
        assert!(done.cold);
        done.check_tiling().unwrap();

        let shed = &a.timelines[1];
        assert_eq!(shed.resolution, Resolution::Shed);
        assert_eq!(shed.e2e_ns(), 0.0);
        shed.check_tiling().unwrap();

        assert_eq!(a.overall.requests, 2);
        assert_eq!(a.by_tenant.len(), 2);
        // warmth covers only executed requests.
        assert_eq!(a.by_warmth.len(), 1);
        assert_eq!(a.by_warmth[0].label, "cold");
    }

    #[test]
    fn missing_terminal_is_an_error() {
        let mut s = TraceSink::new(64, 1);
        s.record(TraceEvent::Admitted {
            req: 7,
            tenant: 0,
            at_ns: 0.0,
        });
        let a = TraceAnalysis::analyze(&s);
        assert!(a.errors.iter().any(|e| e.contains("never resolved")));
        assert!(!a.complete());
    }

    #[test]
    fn double_terminal_is_an_error() {
        let mut s = TraceSink::new(64, 1);
        s.record(TraceEvent::Admitted {
            req: 3,
            tenant: 0,
            at_ns: 10.0,
        });
        s.record(TraceEvent::Resolved {
            req: 3,
            outcome: Resolution::Shed,
            reason: "queue_full",
            at_ns: 10.0,
        });
        s.record(TraceEvent::Resolved {
            req: 3,
            outcome: Resolution::Completed,
            reason: "completed",
            at_ns: 20.0,
        });
        let a = TraceAnalysis::analyze(&s);
        assert!(a.errors.iter().any(|e| e.contains("resolved twice")));
    }

    #[test]
    fn retried_request_tiles_across_both_attempts() {
        let mut s = TraceSink::new(128, 1);
        s.record(TraceEvent::Admitted {
            req: 0,
            tenant: 0,
            at_ns: 0.0,
        });
        s.record(TraceEvent::Formed {
            batch: 0,
            bucket: "b".into(),
            members: vec![0],
            at_ns: 50.0,
        });
        s.record(TraceEvent::Routed {
            batch: 0,
            device: 1,
            decision: "affinity",
            at_ns: 50.0,
        });
        s.record(TraceEvent::FailedAttempt {
            batch: 0,
            device: 1,
            started_ns: 60.0,
            completed_ns: 200.0,
        });
        s.record(TraceEvent::Retried {
            req: 0,
            from_batch: 0,
            batch: 1,
            at_ns: 200.0,
        });
        s.record(TraceEvent::Executed {
            batch: 1,
            device: 1,
            started_ns: 200.0,
            completed_ns: 350.0,
            cold: false,
        });
        s.record(TraceEvent::Resolved {
            req: 0,
            outcome: Resolution::Completed,
            reason: "completed",
            at_ns: 350.0,
        });
        let a = TraceAnalysis::analyze(&s);
        assert!(a.errors.is_empty(), "unexpected errors: {:?}", a.errors);
        let t = &a.timelines[0];
        assert_eq!(t.attempts, 2);
        assert_eq!(a.retries, 1);
        assert_eq!(t.phase_ns(Phase::Execute), 140.0 + 150.0);
        t.check_tiling().unwrap();
        // Both attempts appear as batch spans, the failed one flagged.
        assert_eq!(a.batch_spans.len(), 2);
        assert!(!a.batch_spans[0].ok);
        assert!(a.batch_spans[1].ok);
    }

    #[test]
    fn redispatched_request_tiles_across_devices() {
        let mut s = TraceSink::new(128, 1);
        s.record(TraceEvent::Admitted {
            req: 0,
            tenant: 0,
            at_ns: 0.0,
        });
        s.record(TraceEvent::Formed {
            batch: 0,
            bucket: "b".into(),
            members: vec![0],
            at_ns: 40.0,
        });
        s.record(TraceEvent::Routed {
            batch: 0,
            device: 1,
            decision: "placement",
            at_ns: 40.0,
        });
        // Device 1 crashes while the batch is queued/in flight there.
        s.record(TraceEvent::DeviceDown {
            device: 1,
            reason: "crash",
            at_ns: 120.0,
        });
        s.record(TraceEvent::Redispatched {
            from_batch: 0,
            batch: 1,
            from_device: 1,
            device: 0,
            members: vec![0],
            at_ns: 120.0,
        });
        s.record(TraceEvent::Executed {
            batch: 1,
            device: 0,
            started_ns: 150.0,
            completed_ns: 300.0,
            cold: true,
        });
        s.record(TraceEvent::Resolved {
            req: 0,
            outcome: Resolution::Completed,
            reason: "completed",
            at_ns: 300.0,
        });
        s.record(TraceEvent::DeviceRevived {
            device: 1,
            at_ns: 400.0,
        });
        let a = TraceAnalysis::analyze(&s);
        assert!(a.errors.is_empty(), "unexpected errors: {:?}", a.errors);
        assert_eq!(a.redispatches, 1);
        assert_eq!(a.device_downs, 1);
        assert_eq!(a.device_revivals, 1);
        let t = &a.timelines[0];
        t.check_tiling().unwrap();
        // Queue time splits across both devices: 80ns wasted on the dead
        // device, 30ns on the survivor.
        assert_eq!(t.phase_ns(Phase::Queue), 80.0 + 30.0);
        let aborted: Vec<_> = t.spans.iter().filter(|s| s.detail == "aborted").collect();
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].device, Some(1));
        assert!(t
            .spans
            .iter()
            .any(|s| s.phase == Phase::Route && s.detail == "redispatch"));
    }

    #[test]
    fn gap_between_phases_fails_tiling() {
        // A 10 ns gap, and a span starting 1 ulp after its predecessor's end
        // between boundaries whose differences round.
        let near = 0.30000000000000004_f64;
        for (arrival_ns, start_ns, resolved_ns) in [
            (0.0, 10.0, 100.0),
            (near, f64::from_bits(near.to_bits() + 1), 1e9 + 0.7),
        ] {
            let t = RequestTimeline {
                req: 9,
                tenant: 0,
                arrival_ns,
                resolved_ns,
                resolution: Resolution::Completed,
                reason: "completed",
                bucket: None,
                cold: false,
                attempts: 1,
                spans: vec![
                    PhaseSpan {
                        phase: Phase::Admit,
                        start_ns: arrival_ns,
                        end_ns: arrival_ns,
                        device: None,
                        batch: None,
                        ok: true,
                        detail: "",
                    },
                    PhaseSpan {
                        phase: Phase::Execute,
                        start_ns, // gap: the previous phase ended at arrival
                        end_ns: resolved_ns,
                        device: Some(0),
                        batch: Some(0),
                        ok: true,
                        detail: "",
                    },
                    PhaseSpan {
                        phase: Phase::Resolve,
                        start_ns: resolved_ns,
                        end_ns: resolved_ns,
                        device: None,
                        batch: None,
                        ok: true,
                        detail: "completed",
                    },
                ],
            };
            let err = t.check_tiling().unwrap_err();
            assert!(err.contains("gap/overlap"), "got: {err}");
        }
    }

    #[test]
    fn sink_drops_newest_and_counts() {
        let mut s = TraceSink::new(2, 1);
        for i in 0..5 {
            s.record(TraceEvent::Admitted {
                req: i,
                tenant: 0,
                at_ns: i as f64,
            });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        // The retained prefix is the oldest events.
        assert!(matches!(s.events()[0], TraceEvent::Admitted { req: 0, .. }));
        let a = TraceAnalysis::analyze(&s);
        assert_eq!(a.events_dropped, 3);
        assert!(!a.complete());
    }

    #[test]
    fn sampling_is_every_nth_request_id() {
        let s = TraceSink::new(8, 3);
        assert!(s.sampled(0));
        assert!(!s.sampled(1));
        assert!(!s.sampled(2));
        assert!(s.sampled(3));
        let all = TraceSink::new(8, 1);
        assert!(all.sampled(17));
    }

    #[test]
    fn phase_stats_use_exact_rank_quantiles() {
        let ascending: Vec<f64> = (1..=100).map(|i| i as f64 * 1e3).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        // (samples in ns, [count, mean, p50, p95, p99, max] in µs): ranks are
        // `ceil(q·n)` of the sorted samples, whatever order they came in.
        let cases = [
            (ascending, [100.0, 50.5, 50.0, 95.0, 99.0, 100.0]),
            (descending, [100.0, 50.5, 50.0, 95.0, 99.0, 100.0]),
            (vec![3e3, 1e3, 2e3], [3.0, 2.0, 2.0, 3.0, 3.0, 3.0]),
            (vec![7e3], [1.0, 7.0, 7.0, 7.0, 7.0, 7.0]),
            (Vec::new(), [0.0; 6]),
        ];
        for (samples, want) in cases {
            let s = PhaseStats::from_ns_samples(samples);
            let got = [
                s.count as f64,
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.max_us,
            ];
            assert_eq!(got, want);
        }
    }

    #[test]
    fn chrome_view_has_device_and_request_processes() {
        let a = TraceAnalysis::analyze(&sample_sink());
        let c = a.to_chrome();
        let json = c.to_json();
        crate::chrome::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"pid\":0"), "device process present");
        assert!(json.contains("\"pid\":1"), "request process present");
        assert!(json.contains("batch 0 n=1 cold"));
        assert!(json.contains("resolve:completed"));
        assert!(json.contains("lower:cold"));
    }
}
