//! Depth-based level sort.
//!
//! Paper §III-B1: "our framework first sorts the nodes based on their maximum
//! depth calculated from the leaf nodes ... This creates a correct total
//! order of execution for nodes where parallelism between nodes within a
//! level can be exploited due to their independence guaranteed through the
//! sort." The same sort underlies depth-based batching (Neubig et al. 2017;
//! TensorFlow Fold), so both VPPS and the baselines share this module.

use crate::graph::{Graph, NodeId};

/// Nodes grouped by maximum depth from the leaves: `levels()[0]` are leaves,
/// and every node's arguments live in strictly earlier levels.
#[derive(Debug, Clone)]
pub struct Levels {
    levels: Vec<Vec<NodeId>>,
    depth_of: Vec<u32>,
}

impl Levels {
    /// The level groups, shallowest first.
    pub fn levels(&self) -> &[Vec<NodeId>] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Depth of a node (0 = leaf).
    ///
    /// # Panics
    ///
    /// Panics if the node is not part of the sorted graph.
    pub fn depth(&self, id: NodeId) -> usize {
        self.depth_of[id.index()] as usize
    }

    /// Iterates levels shallowest-first (forward propagation order).
    pub fn iter(&self) -> impl Iterator<Item = &Vec<NodeId>> {
        self.levels.iter()
    }

    /// Iterates levels deepest-first (backward propagation order).
    pub fn iter_rev(&self) -> impl Iterator<Item = &Vec<NodeId>> {
        self.levels.iter().rev()
    }
}

/// Computes the max-depth-from-leaves level sort of `graph`.
///
/// Runs in O(nodes + edges); graphs are append-only so a single forward scan
/// suffices.
pub fn level_sort(graph: &Graph) -> Levels {
    let _span = vpps_obs::span("graph.level_sort");
    let mut depth_of = vec![0u32; graph.len()];
    let mut max_depth = 0u32;
    for (id, _) in graph.iter() {
        let d = graph
            .args(id)
            .iter()
            .map(|a| depth_of[a.index()] + 1)
            .max()
            .unwrap_or(0);
        depth_of[id.index()] = d;
        max_depth = max_depth.max(d);
    }
    let mut levels = vec![
        Vec::new();
        if graph.is_empty() {
            0
        } else {
            max_depth as usize + 1
        }
    ];
    for (id, _) in graph.iter() {
        levels[depth_of[id.index()] as usize].push(id);
    }
    Levels { levels, depth_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Model;

    #[test]
    fn empty_graph_has_no_levels() {
        let g = Graph::new();
        let l = level_sort(&g);
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn leaves_are_level_zero() {
        let mut g = Graph::new();
        let a = g.input(vec![1.0]);
        let b = g.input(vec![2.0]);
        let c = g.add(a, b);
        let l = level_sort(&g);
        assert_eq!(l.depth(a), 0);
        assert_eq!(l.depth(b), 0);
        assert_eq!(l.depth(c), 1);
        assert_eq!(l.levels()[0], vec![a, b]);
    }

    #[test]
    fn depth_is_maximum_over_paths() {
        // a -> t1 -> t2 -> add, and a -> add directly: add must be at depth 3.
        let mut g = Graph::new();
        let a = g.input(vec![1.0]);
        let t1 = g.tanh(a);
        let t2 = g.tanh(t1);
        let s = g.add(t2, a);
        let l = level_sort(&g);
        assert_eq!(l.depth(s), 3);
    }

    #[test]
    fn arguments_precede_consumers_by_level() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 4, 4);
        let mut g = Graph::new();
        // Small unrolled chain like an RNN.
        let mut h = g.input(vec![0.0; 4]);
        for _ in 0..5 {
            let z = g.matvec(&m, w, h);
            h = g.tanh(z);
        }
        let l = level_sort(&g);
        for (id, _) in g.iter() {
            for arg in g.args(id) {
                assert!(l.depth(*arg) < l.depth(id));
            }
        }
        assert_eq!(l.len(), 11); // input + 5 * (matvec, tanh)
    }

    #[test]
    fn every_node_appears_exactly_once() {
        let mut g = Graph::new();
        let a = g.input(vec![1.0, 2.0]);
        let b = g.tanh(a);
        let c = g.sigmoid(a);
        let d = g.cwise_mult(b, c);
        let _ = d;
        let l = level_sort(&g);
        let total: usize = l.levels().iter().map(|lv| lv.len()).sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn reverse_iteration_is_deepest_first() {
        let mut g = Graph::new();
        let a = g.input(vec![1.0]);
        let b = g.tanh(a);
        let _ = b;
        let l = level_sort(&g);
        let depths: Vec<usize> = l.iter_rev().map(|lv| l.depth(lv[0])).collect();
        assert_eq!(depths, vec![1, 0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::params::Model;
    use proptest::prelude::*;

    /// Builds a random graph from a recipe of (op selector, arg picks).
    fn random_graph(ops: &[u8], picks: &[u8]) -> Graph {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 4, 4);
        let mut g = Graph::new();
        let first = g.input(vec![0.0; 4]);
        let mut nodes = vec![first];
        for (i, op) in ops.iter().enumerate() {
            let pick = |k: usize| nodes[picks[(i + k) % picks.len()] as usize % nodes.len()];
            let n = match op % 5 {
                0 => g.matvec(&m, w, pick(0)),
                1 => g.tanh(pick(0)),
                2 => g.sigmoid(pick(0)),
                3 => g.add(pick(0), pick(1)),
                _ => g.cwise_mult(pick(0), pick(1)),
            };
            nodes.push(n);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The level sort is a valid topological partition for any graph the
        /// builder can produce: every node appears exactly once and strictly
        /// after all of its arguments' levels.
        #[test]
        fn level_sort_is_topological(
            ops in prop::collection::vec(any::<u8>(), 0..40),
            picks in prop::collection::vec(any::<u8>(), 40),
        ) {
            let g = random_graph(&ops, &picks);
            let lv = level_sort(&g);
            let total: usize = lv.levels().iter().map(Vec::len).sum();
            prop_assert_eq!(total, g.len());
            for (id, _) in g.iter() {
                for arg in g.args(id) {
                    prop_assert!(lv.depth(*arg) < lv.depth(id));
                }
            }
            // Depth is exactly 1 + max over args.
            for (id, _) in g.iter() {
                if let Some(max_arg) = g.args(id).iter().map(|a| lv.depth(*a)).max() {
                    prop_assert_eq!(lv.depth(id), max_arg + 1);
                } else {
                    prop_assert_eq!(lv.depth(id), 0);
                }
            }
        }
    }
}
