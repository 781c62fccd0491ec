//! Operation grouping under each batching strategy.

use std::collections::HashMap;

use dyn_graph::{levels, Graph, NodeId, OpKind};

/// The batching strategy a baseline executor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One kernel per node (eager execution, no batching).
    Unbatched,
    /// Depth-based batching: group same-signature nodes per level (DyNet-DB).
    DepthBased,
    /// Agenda-based batching: repeatedly run the largest same-signature
    /// ready group (DyNet-AB).
    AgendaBased,
    /// TensorFlow Fold-style depth batching with gather/concat marshalling.
    TfFold,
}

impl Strategy {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Unbatched => "Unbatched",
            Strategy::DepthBased => "DyNet-DB",
            Strategy::AgendaBased => "DyNet-AB",
            Strategy::TfFold => "TF-Fold",
        }
    }

    /// `true` for the strategies that pay extra marshalling kernels.
    pub fn needs_gather(&self) -> bool {
        matches!(self, Strategy::TfFold)
    }
}

/// One fused kernel's worth of same-signature nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGroup {
    /// Shared operation signature.
    pub kind: OpKind,
    /// The grouped nodes.
    pub nodes: Vec<NodeId>,
}

impl KernelGroup {
    /// Number of fused operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the group is empty (never produced by [`group_graph`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Groups the graph's non-leaf nodes into kernel launches according to
/// `strategy`, in a valid execution order (every group's arguments are
/// covered by earlier groups or leaves).
///
/// Leaves (inputs and lookups) are grouped too — they become host-to-device
/// copies / gather kernels — under [`OpKind::Leaf`].
pub fn group_graph(graph: &Graph, strategy: Strategy) -> Vec<KernelGroup> {
    match strategy {
        Strategy::Unbatched => unbatched(graph),
        Strategy::DepthBased | Strategy::TfFold => depth_based(graph),
        Strategy::AgendaBased => agenda_based(graph),
    }
}

fn unbatched(graph: &Graph) -> Vec<KernelGroup> {
    graph
        .iter()
        .map(|(id, node)| KernelGroup {
            kind: node.op.kind(),
            nodes: vec![id],
        })
        .collect()
}

fn depth_based(graph: &Graph) -> Vec<KernelGroup> {
    let lv = levels::level_sort(graph);
    let mut out = Vec::new();
    for level in lv.iter() {
        // Stable grouping by signature within the level.
        let mut order: Vec<OpKind> = Vec::new();
        let mut buckets: HashMap<OpKind, Vec<NodeId>> = HashMap::new();
        for &id in level {
            let kind = graph.node(id).op.kind();
            buckets.entry(kind).or_insert_with(|| {
                order.push(kind);
                Vec::new()
            });
            buckets.get_mut(&kind).expect("bucket exists").push(id);
        }
        for kind in order {
            out.push(KernelGroup {
                kind,
                nodes: buckets.remove(&kind).expect("bucket"),
            });
        }
    }
    out
}

fn agenda_based(graph: &Graph) -> Vec<KernelGroup> {
    // Consumers and remaining-dependency counts.
    let mut pending: Vec<usize> = graph.iter().map(|(id, _)| graph.args(id).len()).collect();
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); graph.len()];
    for (id, _) in graph.iter() {
        for arg in graph.args(id) {
            consumers[arg.index()].push(id);
        }
    }

    let mut ready: HashMap<OpKind, Vec<NodeId>> = HashMap::new();
    for (id, node) in graph.iter() {
        if graph.args(id).is_empty() {
            ready.entry(node.op.kind()).or_default().push(id);
        }
    }

    let mut out = Vec::new();
    let mut executed = 0usize;
    while executed < graph.len() {
        // Pick the signature with the most ready nodes; break ties
        // deterministically by the smallest member id.
        let kind = *ready
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .max_by_key(|(_, v)| (v.len(), std::cmp::Reverse(v[0])))
            .map(|(k, _)| k)
            .expect("acyclic graph always has a ready node");
        let mut nodes = ready.remove(&kind).expect("selected kind is ready");
        nodes.sort();
        executed += nodes.len();
        for &id in &nodes {
            for &c in &consumers[id.index()] {
                pending[c.index()] -= 1;
                if pending[c.index()] == 0 {
                    ready.entry(graph.node(c).op.kind()).or_default().push(c);
                }
            }
        }
        out.push(KernelGroup { kind, nodes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyn_graph::Model;

    /// Two unrolled chains of different lengths sharing one weight — the
    /// canonical irregular-batching example.
    fn two_chains() -> (Model, Graph) {
        let mut m = Model::new(4);
        let w = m.add_matrix("W", 8, 8);
        let mut g = Graph::new();
        for steps in [2usize, 5] {
            let mut h = g.input(vec![0.1; 8]);
            for _ in 0..steps {
                let z = g.matvec(&m, w, h);
                h = g.tanh(z);
            }
            let _ = g.pick_neg_log_softmax(h, 0);
        }
        (m, g)
    }

    fn assert_valid_order(graph: &Graph, groups: &[KernelGroup]) {
        let mut done = vec![false; graph.len()];
        for group in groups {
            for &id in &group.nodes {
                for arg in graph.args(id) {
                    assert!(done[arg.index()], "group order violates dependencies");
                }
            }
            for &id in &group.nodes {
                done[id.index()] = true;
            }
        }
        assert!(done.iter().all(|&d| d), "every node must be scheduled");
    }

    #[test]
    fn all_strategies_cover_graph_in_valid_order() {
        let (_, g) = two_chains();
        for s in [
            Strategy::Unbatched,
            Strategy::DepthBased,
            Strategy::AgendaBased,
            Strategy::TfFold,
        ] {
            let groups = group_graph(&g, s);
            assert_valid_order(&g, &groups);
        }
    }

    #[test]
    fn unbatched_has_one_group_per_node() {
        let (_, g) = two_chains();
        let groups = group_graph(&g, Strategy::Unbatched);
        assert_eq!(groups.len(), g.len());
        assert!(groups.iter().all(|grp| grp.len() == 1));
    }

    #[test]
    fn depth_based_fuses_same_level_same_kind() {
        let (_, g) = two_chains();
        let groups = group_graph(&g, Strategy::DepthBased);
        // Both chains' first matvecs are at level 1 with the same matrix.
        let first_mv = groups
            .iter()
            .find(|grp| matches!(grp.kind, OpKind::MatVec(_)))
            .expect("matvec group");
        assert_eq!(first_mv.len(), 2, "level-aligned matvecs fuse");
        assert!(groups.len() < g.len(), "batching reduces kernel count");
    }

    #[test]
    fn agenda_batches_at_least_as_coarsely_as_depth_for_aligned_work() {
        let (_, g) = two_chains();
        let db = group_graph(&g, Strategy::DepthBased).len();
        let ab = group_graph(&g, Strategy::AgendaBased).len();
        assert!(
            ab <= db,
            "agenda ({ab}) should not exceed depth ({db}) groups here"
        );
    }

    #[test]
    fn agenda_fuses_misaligned_chains() {
        // Chains offset by a leading tanh: depth-based cannot align their
        // matvecs, agenda-based can.
        let mut m = Model::new(9);
        let w = m.add_matrix("W", 8, 8);
        let mut g = Graph::new();
        for offset in [0usize, 1] {
            let mut h = g.input(vec![0.1; 8]);
            for _ in 0..offset {
                h = g.tanh(h); // shifts the chain's levels
            }
            for _ in 0..3 {
                let z = g.matvec(&m, w, h);
                h = g.tanh(z);
            }
            let _ = g.pick_neg_log_softmax(h, 0);
        }
        let db_mv_groups = group_graph(&g, Strategy::DepthBased)
            .iter()
            .filter(|grp| matches!(grp.kind, OpKind::MatVec(_)))
            .count();
        let ab_mv_groups = group_graph(&g, Strategy::AgendaBased)
            .iter()
            .filter(|grp| matches!(grp.kind, OpKind::MatVec(_)))
            .count();
        assert!(
            ab_mv_groups < db_mv_groups,
            "agenda ({ab_mv_groups}) should fuse better than depth ({db_mv_groups})"
        );
    }

    #[test]
    fn different_matrices_never_fuse() {
        let mut m = Model::new(2);
        let w1 = m.add_matrix("W1", 8, 8);
        let w2 = m.add_matrix("W2", 8, 8);
        let mut g = Graph::new();
        let x = g.input(vec![0.1; 8]);
        let _ = g.matvec(&m, w1, x);
        let _ = g.matvec(&m, w2, x);
        for s in [Strategy::DepthBased, Strategy::AgendaBased] {
            let groups = group_graph(&g, s);
            for grp in &groups {
                if let OpKind::MatVec(_) = grp.kind {
                    assert_eq!(grp.len(), 1);
                }
            }
        }
    }

    #[test]
    fn agenda_is_deterministic() {
        let (_, g) = two_chains();
        let a = group_graph(&g, Strategy::AgendaBased);
        let b = group_graph(&g, Strategy::AgendaBased);
        assert_eq!(a, b);
    }
}
