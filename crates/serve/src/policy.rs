//! Serving policies: batch formation and admission control.

use gpu_sim::{DeviceConfig, SimTime};
use vpps::VppsOptions;

/// Batch-formation policy for one shape bucket.
///
/// A bucket flushes (forms a batch and dispatches it) when the first of
/// these triggers fires:
///
/// 1. **Size** — the bucket holds [`BatchPolicy::max_batch`] requests.
/// 2. **Linger** — the oldest queued request has waited
///    [`BatchPolicy::max_linger`]; no request is ever dispatched later than
///    `enqueue + max_linger`.
/// 3. **Deadline** (if [`BatchPolicy::deadline_aware`]) — a queued request's
///    deadline is about to pass, so the batch is flushed early rather than
///    letting the request expire in the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (per kernel launch). `1` disables
    /// cross-request batching.
    pub max_batch: usize,
    /// Maximum time a request may wait in a bucket before the bucket is
    /// flushed regardless of fill.
    pub max_linger: SimTime,
    /// Flush a bucket early when a member's deadline would otherwise expire
    /// while queued.
    pub deadline_aware: bool,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_linger: SimTime::from_us(200.0),
            deadline_aware: true,
        }
    }
}

/// Admission-control policy: bounded queues and per-tenant quotas.
///
/// Rejections happen at submission time (backpressure to the caller) and
/// are recorded as shed outcomes, so overload degrades goodput gracefully
/// instead of growing queues without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Server-wide bound on *outstanding* requests: queued for batching
    /// plus dispatched but still executing on the (virtual-time) device.
    /// Submissions beyond it are shed with
    /// [`crate::ShedReason::QueueFull`] — real backpressure under
    /// overload, since dispatch alone does not make work disappear.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued requests. Submissions beyond it are shed
    /// with [`crate::ShedReason::TenantQuota`], so one tenant cannot occupy
    /// the whole queue.
    pub tenant_quota: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            tenant_quota: 64,
        }
    }
}

/// Batch failures one request may survive (being requeued as a singleton)
/// before it is shed with [`crate::ShedReason::RetryBudget`]. This bounds
/// the blast radius of a poisoned graph: it can burn at most
/// `RETRY_BUDGET + 1` dispatches, and after its first failure it never
/// co-batches with healthy requests again.
pub const RETRY_BUDGET: u32 = 2;

/// Slack past a device's promised completion time (or past enqueue for an
/// idle-frozen device) before the watchdog declares it down.
pub const WATCHDOG_GRACE: SimTime = SimTime::from_us(200.0);

/// Serving-side recovery policy. It has no settings: the handle's ladder
/// absorbs every injected device fault, and a batch that still fails is
/// split into singletons under the fixed per-request [`RETRY_BUDGET`]. The
/// type held the threshold of the per-model circuit breaker that split
/// replaced, and stays only until the benchmark harness stops naming it
/// (ROADMAP item 1B).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryConfig;

/// Sharding policy: how many virtual devices the server runs and when the
/// router moves a batch off its cache-affine device.
///
/// Every registered model gets one warm handle (and therefore one lowered
/// artifact cache) *per device*. The router prefers the device that served a
/// bucket before — plan and script caches there are hot — and steals the
/// batch to the least-loaded device only when the affinity device's backlog
/// justifies paying a cold lowering pass elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Number of virtual devices. `1` reproduces the unsharded server
    /// exactly.
    pub devices: usize,
    /// Backlog gap before work stealing: a batch leaves its affinity device
    /// when that device's backlog exceeds the least-loaded device's backlog
    /// by more than this margin.
    pub steal_margin: SimTime,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            devices: 1,
            steal_margin: SimTime::from_us(50.0),
        }
    }
}

/// Device-health policy: how the server's virtual-clock watchdog detects a
/// hung device, and how a revived device earns back full admission.
///
/// A crash is announced by the outage schedule itself, but a *hang* is
/// silent — the device simply stops completing batches. The watchdog
/// declares a device down when a completion it promised is overdue by
/// [`WATCHDOG_GRACE`] on the virtual clock, then drains and
/// re-dispatches its queued and in-flight work to survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Warm batches a reviving device must complete under probation (one
    /// queued batch at a time, placement only when idle) before it is
    /// declared `Healthy` again and may reclaim affinity freely.
    pub probation_warm_batches: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            probation_warm_batches: 2,
        }
    }
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated device each warm handle runs on.
    pub device: DeviceConfig,
    /// VPPS handle options (backend, rows-per-warp, pool capacity...).
    pub opts: VppsOptions,
    /// Batch-formation policy.
    pub batch: BatchPolicy,
    /// Admission-control policy.
    pub admission: AdmissionPolicy,
    /// Serving-side recovery policy; it has no settings (see
    /// [`RecoveryConfig`]).
    pub recovery: RecoveryConfig,
    /// Sharding policy (device count + work-stealing margin).
    pub shard: ShardPolicy,
    /// Device-health policy (hang watchdog + revival probation).
    pub health: HealthPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::titan_v(),
            opts: VppsOptions::default(),
            batch: BatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            recovery: RecoveryConfig,
            shard: ShardPolicy::default(),
            health: HealthPolicy::default(),
        }
    }
}
