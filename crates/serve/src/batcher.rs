//! Shape-bucketed batch formation.
//!
//! Requests are grouped into buckets keyed by (model, request kind, shape
//! class, graph structure); only requests from the same bucket are ever
//! co-batched, so a batch never mixes kernel plans (each model has exactly
//! one specialized plan signature) nor inference with training. The
//! structure component ([`dyn_graph::Graph::structural_hash`]) makes every
//! batch from one bucket absorb into the *same* super-graph shape — only
//! request literals (lookup rows, labels, input values) differ — which is
//! exactly what the lowered engine's structural script cache keys on:
//! repeated buckets re-use the lowered artifact instead of re-lowering a
//! batch that differs only in literals. Within a bucket, requests queue per
//! tenant and batches are drawn round-robin across tenants, so a chatty
//! tenant cannot starve a quiet one.

use std::collections::{BTreeMap, VecDeque};

use dyn_graph::{Graph, NodeId};
use gpu_sim::SimTime;

use crate::request::{ModelId, RequestId, RequestKind, TenantId};

/// Shape class of a request graph: the log2 bucket of its node count.
/// Graphs within one class have comparable schedule length, so co-batching
/// them wastes little device time on stragglers while still coalescing the
/// long tail of distinct dynamic shapes into a handful of buckets.
pub fn shape_class(graph_len: usize) -> u32 {
    match graph_len {
        0 => 0,
        n => usize::BITS - (n - 1).leading_zeros(),
    }
}

/// Bucket identity: requests sharing a key are batchable together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// Target model (one specialized kernel plan each).
    pub model: ModelId,
    /// Inference or training (never mixed in one launch).
    pub kind: RequestKind,
    /// [`shape_class`] of the request graph.
    pub shape: u32,
    /// [`dyn_graph::Graph::structural_hash`] of the request graph: requests
    /// co-batch only when their graphs are structurally identical, so the
    /// absorbed super-graph is a pure function of (structure, batch size)
    /// and warm lowered scripts can be reused across batches.
    pub structure: u64,
}

impl BucketKey {
    /// Human-readable bucket signature (`m<model>/<kind>/s<shape>/x<hash>`),
    /// used as the grouping label in trace breakdowns and Chrome views.
    pub fn label(&self) -> String {
        format!(
            "m{}/{}/s{}/x{:016x}",
            self.model.0,
            self.kind.name(),
            self.shape,
            self.structure
        )
    }
}

/// One queued request awaiting batch formation.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub id: RequestId,
    pub tenant: TenantId,
    pub graph: Graph,
    pub root: NodeId,
    pub arrival: SimTime,
    pub deadline: Option<SimTime>,
    /// Hard flush bound: `arrival + max_linger`.
    pub linger_deadline: SimTime,
    /// Batch failures survived so far (bounded by
    /// [`crate::RETRY_BUDGET`]).
    pub retries: u32,
}

/// Per-bucket queue state: per-tenant FIFOs plus a round-robin cursor.
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    queues: BTreeMap<TenantId, VecDeque<Pending>>,
    len: usize,
    /// Last tenant served; the next batch starts from its successor.
    cursor: Option<TenantId>,
}

impl Bucket {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, p: Pending) {
        self.queues.entry(p.tenant).or_default().push_back(p);
        self.len += 1;
    }

    /// The earliest time at which this bucket must flush: the minimum over
    /// queued requests of the linger deadline and (when the policy is
    /// deadline-aware) the request deadline. `None` when empty.
    pub fn next_flush(&self, deadline_aware: bool) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for p in self.queues.values().flatten() {
            let mut t = p.linger_deadline;
            if deadline_aware {
                if let Some(d) = p.deadline {
                    t = t.min(d);
                }
            }
            earliest = Some(match earliest {
                Some(e) => e.min(t),
                None => t,
            });
        }
        earliest
    }

    /// Removes and returns every queued request whose deadline has already
    /// passed at `now` (they would complete late no matter what; shedding
    /// them frees the batch slot for requests that can still make it).
    pub fn expire(&mut self, now: SimTime) -> Vec<Pending> {
        let mut expired = Vec::new();
        for q in self.queues.values_mut() {
            let mut keep = VecDeque::with_capacity(q.len());
            while let Some(p) = q.pop_front() {
                match p.deadline {
                    Some(d) if d < now => expired.push(p),
                    _ => keep.push_back(p),
                }
            }
            *q = keep;
        }
        self.queues.retain(|_, q| !q.is_empty());
        self.len -= expired.len();
        expired
    }

    /// Draws up to `max` requests round-robin across tenants, starting from
    /// the tenant after the cursor and taking one request per tenant per
    /// round (FIFO within a tenant). Deterministic: tenant order is the
    /// `BTreeMap` key order.
    pub fn take_batch(&mut self, max: usize) -> Vec<Pending> {
        let mut batch = Vec::new();
        if max == 0 || self.len == 0 {
            return batch;
        }
        let tenants: Vec<TenantId> = self.queues.keys().copied().collect();
        // Rotation start: first tenant strictly after the cursor, wrapping.
        let start = match self.cursor {
            Some(c) => tenants.iter().position(|&t| t > c).unwrap_or(0),
            None => 0,
        };
        let mut i = start;
        let mut idle_rounds = 0;
        while batch.len() < max && idle_rounds < tenants.len() {
            let t = tenants[i % tenants.len()];
            if let Some(q) = self.queues.get_mut(&t) {
                if let Some(p) = q.pop_front() {
                    batch.push(p);
                    self.cursor = Some(t);
                    idle_rounds = 0;
                } else {
                    idle_rounds += 1;
                }
            } else {
                idle_rounds += 1;
            }
            i += 1;
        }
        self.queues.retain(|_, q| !q.is_empty());
        self.len -= batch.len();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(id: u64, tenant: u32, at_ns: f64) -> Pending {
        let mut g = Graph::new();
        let root = g.input(vec![0.0; 4]);
        Pending {
            id: RequestId(id),
            tenant: TenantId(tenant),
            graph: g,
            root,
            arrival: SimTime::from_ns(at_ns),
            deadline: None,
            linger_deadline: SimTime::from_ns(at_ns + 100.0),
            retries: 0,
        }
    }

    #[test]
    fn shape_class_is_log2_bucketed() {
        assert_eq!(shape_class(0), 0);
        assert_eq!(shape_class(1), 0);
        assert_eq!(shape_class(2), 1);
        assert_eq!(shape_class(3), 2);
        assert_eq!(shape_class(4), 2);
        assert_eq!(shape_class(5), 3);
        assert_eq!(shape_class(8), 3);
        assert_eq!(shape_class(9), 4);
        // Same class ⇔ same bucket: 1024 and 600 nodes co-batch, 1025 not.
        assert_eq!(shape_class(600), shape_class(1024));
        assert_ne!(shape_class(1024), shape_class(1025));
    }

    #[test]
    fn take_batch_round_robins_across_tenants() {
        let mut b = Bucket::default();
        for (id, tenant) in [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2)] {
            b.push(pending(id, tenant, id as f64));
        }
        // One per tenant per round: t0, t1, t2, then t0 again.
        let batch = b.take_batch(4);
        let ids: Vec<u64> = batch.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 3, 4, 1]);
        assert_eq!(b.len(), 1);
        // Cursor persists: the next batch starts after the last-served
        // tenant (t0), finds only t0 left, and drains it.
        let batch = b.take_batch(4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id.0, 2);
        assert!(b.is_empty());
    }

    #[test]
    fn expire_drops_only_overdue_requests() {
        let mut b = Bucket::default();
        let mut dead = pending(0, 0, 0.0);
        dead.deadline = Some(SimTime::from_ns(10.0));
        let mut alive = pending(1, 0, 0.0);
        alive.deadline = Some(SimTime::from_ns(1000.0));
        b.push(dead);
        b.push(alive);
        b.push(pending(2, 1, 0.0));
        let expired = b.expire(SimTime::from_ns(50.0));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id.0, 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn next_flush_is_the_earliest_constraint() {
        let mut b = Bucket::default();
        assert_eq!(b.next_flush(true), None);
        let mut p = pending(0, 0, 0.0); // linger deadline 100ns
        p.deadline = Some(SimTime::from_ns(40.0));
        b.push(p);
        b.push(pending(1, 1, 50.0)); // linger deadline 150ns
        assert_eq!(b.next_flush(false), Some(SimTime::from_ns(100.0)));
        assert_eq!(b.next_flush(true), Some(SimTime::from_ns(40.0)));
    }
}
