//! The dynamic computation graph and its expression-building API.

use std::fmt;

use crate::op::Op;
use crate::params::{LookupId, Model, ParamId};

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index into the graph's node list.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index. The caller is responsible for
    /// pairing it with the graph it came from.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node: an operation and its output length. Its argument nodes are
/// [`Graph::args`].
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Output vector length.
    pub dim: usize,
}

/// A directed acyclic computation graph built on the fly for one input (or
/// one batch of inputs, as a super-graph with summed losses).
///
/// Nodes are append-only and arguments always precede their consumers, so the
/// node order is already a valid topological order — the property DyNet's
/// executor and the paper's script generator both exploit.
///
/// The graph is three flat arrays, so adding a node allocates nothing of its
/// own (the arrays grow by doubling): the nodes, every node's arguments back
/// to back in construction order, and per node the end of its run of
/// arguments (compressed sparse rows; a run starts where the previous node's
/// ends, so the ends only grow).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    args: Vec<NodeId>,
    ends: Vec<u32>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every node while keeping every array's allocation, so a
    /// scratch graph (e.g. a device's batch super-graph) can be rebuilt
    /// every batch without reallocating.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.args.clear();
        self.ends.clear();
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The argument nodes of `id`, in order (empty for leaves).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn args(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.args[start as usize..self.ends[i] as usize]
    }

    /// Iterates over `(id, node)` in topological (construction) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    fn push(&mut self, op: Op, args: &[NodeId], dim: usize) -> NodeId {
        assert!(dim > 0, "node output dimension must be non-zero");
        for a in args {
            assert!(
                a.index() < self.nodes.len(),
                "argument {a} does not exist yet (graphs are append-only)"
            );
        }
        if vpps_obs::enabled() {
            static NODES: std::sync::OnceLock<vpps_obs::Counter> = std::sync::OnceLock::new();
            NODES
                .get_or_init(|| vpps_obs::counter("graph.nodes"))
                .incr();
        }
        self.args.extend_from_slice(args);
        self.ends.push(self.args.len() as u32);
        self.nodes.push(Node { op, dim });
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Adds `op` over `args`, which must all have the result's length.
    fn elementwise(&mut self, op: Op, args: &[NodeId]) -> NodeId {
        let dim = self.node(args[0]).dim;
        for a in args {
            assert_eq!(
                self.node(*a).dim,
                dim,
                "{}: operand lengths differ",
                op.mnemonic()
            );
        }
        self.push(op, args, dim)
    }

    /// Adds an input leaf holding `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn input(&mut self, values: Vec<f32>) -> NodeId {
        let dim = values.len();
        self.push(Op::Input { values }, &[], dim)
    }

    /// Adds an embedding-lookup leaf: row `index` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the table.
    pub fn lookup(&mut self, model: &Model, table: LookupId, index: usize) -> NodeId {
        let t = model.lookup(table);
        assert!(
            index < t.table.rows(),
            "lookup index {index} out of vocab {}",
            t.table.rows()
        );
        let dim = t.table.cols();
        self.push(Op::Lookup { table, index }, &[], dim)
    }

    /// Adds `y = W x`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s length does not match `W`'s column count.
    pub fn matvec(&mut self, model: &Model, w: ParamId, x: NodeId) -> NodeId {
        let p = model.param(w);
        assert_eq!(
            self.node(x).dim,
            p.value.cols(),
            "matvec: input dim must equal cols of {}",
            p.name
        );
        let dim = p.value.rows();
        self.push(Op::MatVec { w }, &[x], dim)
    }

    /// Adds `y = x + b` for a bias row `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a bias row or lengths mismatch.
    pub fn add_bias(&mut self, model: &Model, b: ParamId, x: NodeId) -> NodeId {
        let p = model.param(b);
        assert!(
            p.is_bias(),
            "add_bias: parameter {} is not a bias row",
            p.name
        );
        assert_eq!(
            self.node(x).dim,
            p.value.cols(),
            "add_bias: length mismatch for {}",
            p.name
        );
        self.push(Op::AddBias { b }, &[x], p.value.cols())
    }

    /// Adds `y = a + b` (element-wise).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.elementwise(Op::Add, &[a, b])
    }

    /// Adds `y = a - b` (element-wise).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.elementwise(Op::Sub, &[a, b])
    }

    /// Adds `y = Σ args` (element-wise over ≥1 arguments).
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty or lengths differ.
    pub fn sum(&mut self, args: &[NodeId]) -> NodeId {
        assert!(!args.is_empty(), "sum: needs at least one argument");
        self.elementwise(Op::Sum, args)
    }

    /// Adds `y = a ⊙ b` (element-wise product).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn cwise_mult(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.elementwise(Op::CwiseMult, &[a, b])
    }

    /// Adds `y = tanh(x)`.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        self.elementwise(Op::Tanh, &[x])
    }

    /// Adds `y = σ(x)`.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.elementwise(Op::Sigmoid, &[x])
    }

    /// Adds `y = max(0, x)`.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.elementwise(Op::Relu, &[x])
    }

    /// Adds the concatenation of `args` in order.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty.
    pub fn concat(&mut self, args: &[NodeId]) -> NodeId {
        assert!(!args.is_empty(), "concat: needs at least one argument");
        let dim = args.iter().map(|a| self.node(*a).dim).sum();
        self.push(Op::Concat, args, dim)
    }

    /// Adds the scalar classification loss `-log softmax(x)[label]`.
    ///
    /// # Panics
    ///
    /// Panics if `label` is outside `x`'s length.
    pub fn pick_neg_log_softmax(&mut self, x: NodeId, label: usize) -> NodeId {
        assert!(
            label < self.node(x).dim,
            "pick_neg_log_softmax: label out of range"
        );
        self.push(Op::PickNegLogSoftmax { label }, &[x], 1)
    }

    /// Convenience: an affine layer `W x + b` (matvec then bias add).
    pub fn affine(&mut self, model: &Model, w: ParamId, b: ParamId, x: NodeId) -> NodeId {
        let h = self.matvec(model, w, x);
        self.add_bias(model, b, h)
    }

    /// Total number of elements flowing through the graph (sum of node dims)
    /// — a proxy for activation traffic.
    pub fn total_elements(&self) -> usize {
        self.nodes.iter().map(|n| n.dim).sum()
    }

    /// The one definition of "graph structure": feeds `eat` the graph's
    /// structural encoding word by word — node count, then per node the
    /// operation kind, its parameter identity or lookup *table*, the output
    /// dimension and the argument edges — and leaves out the per-request
    /// literals (input values, lookup row indices, gold labels).
    ///
    /// Two graphs with equal encodings, dispatched alike, generate scripts
    /// that are identical up to exactly those literals (which lowering turns
    /// into patch points). Both the serving layer's batching key
    /// ([`Graph::structural_hash`]) and the lowered engine's cache key (the
    /// `GeneratedScript::key` the script generator stamps, see
    /// [`Graph::dispatch_key`]) are derived from this stream, so they cannot
    /// drift apart.
    pub fn encode_structure(&self, mut eat: impl FnMut(u32)) {
        // Script operands address the pool with 4-byte offsets, so every
        // count, index and dimension of a dispatchable graph fits a word.
        let word = |v: usize| u32::try_from(v).expect("graph sizes fit 4-byte script operands");
        eat(word(self.nodes.len()));
        for (id, node) in self.iter() {
            match &node.op {
                Op::Input { .. } => eat(0),
                Op::Lookup { table, .. } => {
                    eat(1);
                    eat(word(table.index()));
                }
                Op::MatVec { w } => {
                    eat(2);
                    eat(word(w.index()));
                }
                Op::AddBias { b } => {
                    eat(3);
                    eat(word(b.index()));
                }
                Op::Add => eat(4),
                Op::Sub => eat(5),
                Op::Sum => eat(6),
                Op::CwiseMult => eat(7),
                Op::Tanh => eat(8),
                Op::Sigmoid => eat(9),
                Op::Relu => eat(10),
                Op::Concat => eat(11),
                Op::PickNegLogSoftmax { .. } => eat(12),
            }
            let args = self.args(id);
            eat(word(node.dim));
            eat(word(args.len()));
            for a in args {
                eat(a.0);
            }
        }
    }

    /// Stable 64-bit *structural* hash of the graph: FNV-1a over
    /// [`Graph::encode_structure`]. Requests sharing it can be absorbed into
    /// canonical super-graphs that all land on one cached lowered artifact,
    /// which makes it the right batching key for warm-path reuse.
    pub fn structural_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // Each word is fed as 8 little-endian bytes, the top 4 of them zero,
        // and `(h ^ 0) · P` is `h · P`: those four steps are one multiply by
        // P⁴ mod 2⁶⁴.
        const PRIME_4: u64 = 0x9ffa_ac08_5635_bc91;
        let mut h = OFFSET;
        self.encode_structure(|word| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h = h.wrapping_mul(PRIME_4);
        });
        h
    }

    /// Appends the structural identity of *dispatching* this graph to `out`:
    /// whether the dispatch trains (forward + backward) or only infers, the
    /// root it runs from, then [`Graph::encode_structure`]. This is the
    /// graph's part of the key the script generator stamps on its scripts,
    /// behind the plan id, pool base and schedule policy: equal keys mean it
    /// emits the same scripts up to the per-request literals, which is what
    /// lets the lowered engine look a batch's artifact up from its graph
    /// without generating the scripts first.
    pub fn dispatch_key(&self, root: NodeId, train: bool, out: &mut Vec<u32>) {
        out.push(u32::from(train));
        out.push(root.0);
        self.encode_structure(|word| out.push(word));
    }

    /// Appends the nodes of `other` to `self`, returning the remapped id of
    /// `other_root`. Used to build batch super-graphs from independently
    /// constructed per-input graphs: three array copies, the argument ids and
    /// ends shifted by `self`'s node and argument counts. Into arrays with
    /// room (a cleared scratch) it allocates only for `Op::Input` values.
    pub fn absorb(&mut self, other: &Graph, other_root: NodeId) -> NodeId {
        let _span = vpps_obs::span("graph.absorb");
        let base = self.nodes.len() as u32;
        let arg_base = self.args.len() as u32;
        self.nodes.extend_from_slice(&other.nodes);
        self.args
            .extend(other.args.iter().map(|a| NodeId(a.0 + base)));
        self.ends
            .extend(other.ends.iter().map(|end| end + arg_base));
        NodeId(other_root.0 + base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> (Model, ParamId, ParamId) {
        let mut m = Model::new(1);
        let w = m.add_matrix("W", 3, 2);
        let b = m.add_bias("b", 3);
        (m, w, b)
    }

    #[test]
    fn construction_order_is_topological() {
        let (m, w, b) = toy_model();
        let mut g = Graph::new();
        let x = g.input(vec![1.0, 2.0]);
        let h = g.affine(&m, w, b, x);
        let y = g.tanh(h);
        for (id, _) in g.iter() {
            for a in g.args(id) {
                assert!(a.index() < id.index());
            }
        }
        assert_eq!(g.node(y).dim, 3);
    }

    #[test]
    fn dims_propagate() {
        let (m, w, _) = toy_model();
        let mut g = Graph::new();
        let x = g.input(vec![0.0, 0.0]);
        let h = g.matvec(&m, w, x);
        assert_eq!(g.node(h).dim, 3);
        let c = g.concat(&[h, x]);
        assert_eq!(g.node(c).dim, 5);
    }

    #[test]
    #[should_panic(expected = "matvec: input dim")]
    fn matvec_shape_mismatch_rejected() {
        let (m, w, _) = toy_model();
        let mut g = Graph::new();
        let x = g.input(vec![0.0; 5]);
        let _ = g.matvec(&m, w, x);
    }

    #[test]
    #[should_panic(expected = "not a bias row")]
    fn add_bias_rejects_matrices() {
        let (m, w, _) = toy_model();
        let mut g = Graph::new();
        let x = g.input(vec![0.0; 2]);
        let _ = g.add_bias(&m, w, x);
    }

    #[test]
    fn sum_validates_uniform_dims() {
        let mut g = Graph::new();
        let a = g.input(vec![0.0; 4]);
        let b = g.input(vec![0.0; 4]);
        let s = g.sum(&[a, b]);
        assert_eq!(g.node(s).dim, 4);
    }

    #[test]
    #[should_panic(expected = "operand lengths differ")]
    fn add_rejects_mismatched_lengths() {
        let mut g = Graph::new();
        let a = g.input(vec![0.0; 4]);
        let b = g.input(vec![0.0; 3]);
        let _ = g.add(a, b);
    }

    #[test]
    fn loss_is_scalar() {
        let mut g = Graph::new();
        let x = g.input(vec![0.1, 0.2, 0.7]);
        let l = g.pick_neg_log_softmax(x, 1);
        assert_eq!(g.node(l).dim, 1);
    }

    /// `structural_hash` is FNV-1a over each structure word widened to 8
    /// little-endian bytes, whatever the graph.
    #[test]
    fn structural_hash_is_fnv_1a_over_widened_words() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let byte_wise = |g: &Graph| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            g.encode_structure(|word| {
                for b in u64::from(word).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            });
            h
        };
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(1..600);
            let mut m = Model::new(seed);
            let w = m.add_matrix("W", dim, dim);
            let b = m.add_bias("b", dim);
            let e = m.add_lookup("E", 50, dim);
            let mut g = Graph::new();
            let mut nodes = vec![g.input(vec![0.5; dim]), g.lookup(&m, e, 3)];
            for _ in 0..rng.gen_range(1..200) {
                let x = nodes[rng.gen_range(0..nodes.len())];
                let y = nodes[rng.gen_range(0..nodes.len())];
                nodes.push(match rng.gen_range(0..8) {
                    0 => g.matvec(&m, w, x),
                    1 => g.add_bias(&m, b, x),
                    2 => g.tanh(x),
                    3 => g.add(x, y),
                    4 => g.cwise_mult(x, y),
                    5 => g.sum(&[x, y, x]),
                    6 => g.lookup(&m, e, rng.gen_range(0..50)),
                    _ => g.sigmoid(x),
                });
            }
            let last = *nodes.last().expect("two nodes at least");
            g.pick_neg_log_softmax(last, rng.gen_range(0..dim));
            assert_eq!(g.structural_hash(), byte_wise(&g), "seed {seed}");
        }
    }

    #[test]
    fn structural_hash_masks_request_literals() {
        let mut m = Model::new(0);
        let e = m.add_lookup("E", 10, 6);
        let e2 = m.add_lookup("E2", 10, 6);
        let w = m.add_matrix("W", 6, 6);
        let w2 = m.add_matrix("W2", 6, 6);
        // lookup -> matvec -> tanh, concatenated with an input, into a loss.
        let build = |table, index: usize, param, label: usize, values: Vec<f32>, swap: bool| {
            let mut g = Graph::new();
            let x = g.lookup(&m, table, index);
            let v = g.input(values);
            let h = g.matvec(&m, param, x);
            let t = g.tanh(h);
            let c = g.concat(&if swap { [v, t] } else { [t, v] });
            let loss = g.pick_neg_log_softmax(c, label);
            (g, loss)
        };
        let key = |(g, root): &(Graph, NodeId), train: bool| {
            let mut k = Vec::new();
            g.dispatch_key(*root, train, &mut k);
            k
        };
        let a = build(e, 1, w, 0, vec![0.0; 2], false);
        let b = build(e, 7, w, 1, vec![9.0, -3.0], false);
        assert_eq!(
            a.0.structural_hash(),
            b.0.structural_hash(),
            "lookup rows, labels and input values are not structural"
        );
        assert_eq!(key(&a, true), key(&b, true));
        assert_eq!(key(&a, false), key(&b, false));

        // Each structural difference on its own changes hash and key.
        let different = [
            ("one argument edge", build(e, 1, w, 0, vec![0.0; 2], true)),
            ("one dimension", build(e, 1, w, 0, vec![0.0; 3], false)),
            ("one parameter id", build(e, 1, w2, 0, vec![0.0; 2], false)),
            ("one lookup table", build(e2, 1, w, 0, vec![0.0; 2], false)),
        ];
        for (what, other) in &different {
            assert_ne!(a.0.structural_hash(), other.0.structural_hash(), "{what}");
            assert_ne!(key(&a, true), key(other, true), "{what}");
        }
        // The dispatch key also separates roots and train from infer, which
        // the graph-only hash cannot see.
        let inner_root = (a.0.clone(), NodeId(a.1 .0 - 1));
        assert_eq!(a.0.structural_hash(), inner_root.0.structural_hash());
        assert_ne!(key(&a, false), key(&inner_root, false), "root");
        assert_ne!(key(&a, true), key(&a, false), "train vs infer");
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut g = Graph::new();
        g.input(vec![1.0]);
        g.input(vec![2.0]);
        assert_eq!(g.len(), 2);
        g.clear();
        assert!(g.is_empty());
        let x = g.input(vec![3.0]);
        assert_eq!(x.index(), 0, "ids restart after clear");
    }

    #[test]
    fn absorb_remaps_arguments() {
        let mut g1 = Graph::new();
        let x1 = g1.input(vec![1.0]);
        let t1 = g1.tanh(x1);

        let mut g2 = Graph::new();
        let x2 = g2.input(vec![2.0]);
        let t2 = g2.tanh(x2);

        let remapped = g1.absorb(&g2, t2);
        assert_eq!(g1.len(), 4);
        assert_eq!(remapped.index(), 3);
        assert_eq!(g1.args(remapped)[0].index(), 2);
        let _ = t1; // silence unused
    }

    #[test]
    fn lookup_leaf_has_table_dim() {
        let mut m = Model::new(0);
        let e = m.add_lookup("E", 10, 6);
        let mut g = Graph::new();
        let n = g.lookup(&m, e, 3);
        assert_eq!(g.node(n).dim, 6);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn lookup_validates_index() {
        let mut m = Model::new(0);
        let e = m.add_lookup("E", 10, 6);
        let mut g = Graph::new();
        let _ = g.lookup(&m, e, 10);
    }
}
