//! Request and outcome types for the serving layer.
//!
//! A [`Request`] carries an arbitrary dynamic computation graph — the shape
//! is the client's business, exactly as in training — plus the scheduling
//! metadata the server needs: tenant, target model, arrival time on the
//! virtual clock and an optional completion deadline. Every admitted
//! request ends its life as exactly one [`Outcome`]: a [`Completion`] with
//! per-stage timestamps, or a [`Shed`] with the reason.

use dyn_graph::{Graph, NodeId};
use gpu_sim::SimTime;

/// Server-assigned request identifier, unique per [`crate::Server`] and
/// monotonically increasing in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Tenant (client) identifier, the unit of fairness and quota accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Identifier of a model registered with [`crate::Server::register_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub usize);

/// What the request asks the server to do with its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestKind {
    /// Forward-only execution; the completion carries the root node's value.
    Infer,
    /// Forward-backward-update; the completion carries the batch loss. The
    /// root must be a scalar loss node.
    Train,
}

impl RequestKind {
    /// Stable lowercase name (used in bucket labels and reports).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Infer => "infer",
            RequestKind::Train => "train",
        }
    }
}

/// One client request: a dynamic graph plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct Request {
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Target model (must be registered before submission).
    pub model: ModelId,
    /// Inference or training.
    pub kind: RequestKind,
    /// The request's computation graph (any shape).
    pub graph: Graph,
    /// Root node: the output to read ([`RequestKind::Infer`]) or the scalar
    /// loss ([`RequestKind::Train`]).
    pub root: NodeId,
    /// Arrival time on the server's virtual clock. Must be monotonically
    /// non-decreasing across submissions.
    pub arrival: SimTime,
    /// Optional absolute completion deadline. Requests still queued past
    /// their deadline are shed; completions past it do not count toward
    /// goodput.
    pub deadline: Option<SimTime>,
}

/// Why a request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The server-wide queue bound was hit (load-shedding backpressure).
    QueueFull,
    /// The issuing tenant exceeded its per-tenant queue quota.
    TenantQuota,
    /// The request's deadline passed while it was still queued.
    DeadlineExpired,
    /// The request's batch faulted and the request exhausted its per-request
    /// retry budget ([`crate::RETRY_BUDGET`]).
    RetryBudget,
    /// The request named a model that was never registered.
    UnknownModel,
}

impl ShedReason {
    /// Stable snake_case name (used as report keys).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantQuota => "tenant_quota",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::RetryBudget => "retry_budget",
            ShedReason::UnknownModel => "unknown_model",
        }
    }

    /// All reasons, in report order.
    pub const ALL: [ShedReason; 5] = [
        ShedReason::QueueFull,
        ShedReason::TenantQuota,
        ShedReason::DeadlineExpired,
        ShedReason::RetryBudget,
        ShedReason::UnknownModel,
    ];
}

/// A successfully executed request, with per-stage timestamps.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request.
    pub id: RequestId,
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Target model.
    pub model: ModelId,
    /// Inference or training.
    pub kind: RequestKind,
    /// Arrival time (copied from the request).
    pub arrival: SimTime,
    /// When the batch containing this request was formed and handed to the
    /// device queue. `dispatched_at - arrival` is the batching/queueing
    /// delay, bounded by the linger policy.
    pub dispatched_at: SimTime,
    /// When the device actually began executing the (final, successful)
    /// batch attempt. `started_at - dispatched_at` is device-queue wait
    /// (plus any earlier failed attempts, for retried requests).
    pub started_at: SimTime,
    /// When the device finished the batch.
    pub completed_at: SimTime,
    /// The device the (final, successful) attempt executed on — after a
    /// device failure this is the survivor, not the original placement.
    pub device: usize,
    /// Number of requests co-batched into the same kernel launch.
    pub batch_size: usize,
    /// [`RequestKind::Infer`]: the root node's value, bit-identical to a
    /// serial per-request `Handle::infer`. [`RequestKind::Train`]: the
    /// one-element summed batch loss (shared by all co-batched requests).
    pub output: Vec<f32>,
    /// `true` if `completed_at` met the deadline (or none was set).
    pub in_deadline: bool,
}

/// A shed request.
#[derive(Debug, Clone)]
pub struct Shed {
    /// The request.
    pub id: RequestId,
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Virtual time at which the shed decision was made.
    pub at: SimTime,
    /// Why.
    pub reason: ShedReason,
}

/// Terminal state of an admitted-or-rejected request. The server records
/// exactly one outcome per submitted request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Executed.
    Completed(Completion),
    /// Dropped.
    Shed(Shed),
}

impl Outcome {
    /// The request this outcome belongs to.
    pub fn id(&self) -> RequestId {
        match self {
            Outcome::Completed(c) => c.id,
            Outcome::Shed(s) => s.id,
        }
    }

    /// The completion, if executed.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            Outcome::Completed(c) => Some(c),
            Outcome::Shed(_) => None,
        }
    }

    /// The shed record, if dropped.
    pub fn shed(&self) -> Option<&Shed> {
        match self {
            Outcome::Completed(_) => None,
            Outcome::Shed(s) => Some(s),
        }
    }
}
