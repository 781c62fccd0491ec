#![warn(missing_docs)]

//! `vpps-serve`: multi-tenant inference/training serving on VPPS.
//!
//! The paper specializes one persistent kernel per *model* and then feeds it
//! arbitrary per-input dynamic graphs. That division of labour is exactly
//! what an inference server needs: the expensive step (JIT specialization)
//! depends only on the parameter set, so a server can keep one warm
//! [`vpps::Handle`] per model and route every request — whatever its graph
//! shape — to it with zero per-request compilation. This crate builds that
//! server:
//!
//! * **Requests** ([`Request`]) carry a dynamic graph, a tenant, an arrival
//!   time on the virtual clock, and an optional deadline.
//! * **Admission control** ([`AdmissionPolicy`]) bounds the queue server-wide
//!   and per tenant; overload sheds with a reason instead of queueing
//!   without bound.
//! * **Shape-bucketed batching** ([`BatchPolicy`], [`shape_class`]) groups
//!   same-plan, same-kind, similar-size requests and flushes on size,
//!   linger expiry, or an approaching deadline. A batch becomes one absorbed
//!   super-graph and **one** persistent-kernel launch, so the prologue
//!   weight load (the dominant cost of small graphs) is amortized across
//!   the batch — the serving-side analogue of the paper's §III-D concurrent
//!   training of multiple computation graphs.
//! * **Degraded-mode serving** ([`RETRY_BUDGET`]) — the handle's own
//!   recovery ladder absorbs every injected device fault (under `gpu_sim`
//!   fault injection), so a batch fails only with an error no retry fixes,
//!   such as a graph too large for the memory pool. Then the failed batch
//!   is split and its members retried as singletons under a per-request
//!   retry budget: one poisoned tenant graph burns its own retries and is
//!   shed, while its batch-mates and every later request of the model run.
//!   One owner per failure class: the ladder for device faults, the
//!   singleton split for failed batches, the device lifecycle for
//!   outages.
//! * **Sharded serving** ([`ShardPolicy`], [`Device`], [`Router`]) — the
//!   server scales across N virtual devices, each owning warm per-model
//!   handles (and therefore its own lowered-artifact caches), a bounded
//!   deadline-aware batch queue, and a serial execution timeline. A
//!   plan-affinity router keeps each bucket on the device whose caches are
//!   hot for it and steals work to the least-loaded device only when the
//!   backlog gap exceeds [`ShardPolicy::steal_margin`].
//! * **Device failure domains** ([`HealthPolicy`], [`DeviceHealth`]) —
//!   seeded whole-device outage schedules (crash / hang / brownout windows
//!   in [`gpu_sim::FaultConfig`]) drive an explicit per-device lifecycle
//!   (`Healthy → Degraded → Draining → Down → Reviving`). A virtual-clock
//!   watchdog detects silent hangs by their missed completions, a dying
//!   device's queued *and* in-flight batches are re-dispatched to survivors
//!   with exactly-once resolution, warm lowered state is rebuilt at most
//!   once per migrated bucket, and a revived device earns back full routing
//!   through a bounded probation ramp.
//! * **Determinism**: the whole server is a discrete-event simulation on
//!   [`gpu_sim::SimTime`]. Same request stream in, byte-identical outcome
//!   stream out — for any device count, and for any number of the host
//!   threads a multi-device server computes batch values on — see
//!   [`Server`].
//! * **Reports** ([`ServeReport`]) with exact latency quantiles, goodput,
//!   and batch-size distribution, plus the rows ([`ServeRecord`]) of the
//!   versioned `BENCH_serve.json` trajectory.

pub mod batcher;
mod compute;
pub mod device;
pub mod policy;
pub mod report;
pub mod request;
pub mod router;
pub mod server;

pub use batcher::{shape_class, BucketKey};
pub use device::{Device, DeviceHealth, DeviceId, DeviceStats, HealthTransition};
pub use policy::{
    AdmissionPolicy, BatchPolicy, HealthPolicy, RecoveryConfig, ServeConfig, ShardPolicy,
    RETRY_BUDGET, WATCHDOG_GRACE,
};
pub use report::{ServeRecord, ServeReport};
pub use request::{
    Completion, ModelId, Outcome, Request, RequestId, RequestKind, Shed, ShedReason, TenantId,
};
pub use router::{RouteDecision, Router, RouterStats};
pub use server::{Admission, Server};
