//! Heap allocations of building and absorbing graphs, counted by this test
//! binary's own global allocator on the calling thread only (the harness's
//! other threads do not count).
//!
//! * Absorbing lookup-leaf request graphs into a cleared scratch that has
//!   held the same batch before allocates nothing: `clear` keeps every
//!   capacity, and `absorb` copies flat arrays into them.
//! * Building a graph costs allocations that grow with the log of its size
//!   (amortised array growth), not one or more per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyn_graph::{Graph, LookupId, Model, NodeId, ParamId};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; counting touches no returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The parameters of a binary Tree-LSTM with `H`-wide states.
struct TreeParams {
    emb: LookupId,
    leaf: [(ParamId, ParamId); 3],
    comp: [(ParamId, ParamId, ParamId); 5],
    cls: (ParamId, ParamId),
}

const H: usize = 8;

impl TreeParams {
    fn register(model: &mut Model) -> Self {
        let emb = model.add_lookup("emb", 50, H);
        let leaf = [0, 1, 2].map(|i| {
            let w = model.add_matrix(&format!("leaf.W{i}"), H, H);
            (w, model.add_bias(&format!("leaf.b{i}"), H))
        });
        let comp = [0, 1, 2, 3, 4].map(|i| {
            let l = model.add_matrix(&format!("comp.Ul{i}"), H, H);
            let r = model.add_matrix(&format!("comp.Ur{i}"), H, H);
            (l, r, model.add_bias(&format!("comp.b{i}"), H))
        });
        let cls = (model.add_matrix("cls.W", 5, H), model.add_bias("cls.b", 5));
        Self {
            emb,
            leaf,
            comp,
            cls,
        }
    }

    /// A leaf's `(h, c)`: a lookup through input, output and update gates.
    fn leaf(&self, m: &Model, g: &mut Graph, token: usize) -> (NodeId, NodeId) {
        let x = g.lookup(m, self.emb, token);
        let [i, o, u] = self.leaf.map(|(w, b)| {
            let wx = g.matvec(m, w, x);
            g.add_bias(m, b, wx)
        });
        let (i, o, u) = (g.sigmoid(i), g.sigmoid(o), g.tanh(u));
        let c = g.cwise_mult(i, u);
        let tc = g.tanh(c);
        (g.cwise_mult(o, tc), c)
    }

    /// An internal node's `(h, c)` from its children's, with a forget gate
    /// per child.
    fn compose(
        &self,
        m: &Model,
        g: &mut Graph,
        (hl, cl): (NodeId, NodeId),
        (hr, cr): (NodeId, NodeId),
    ) -> (NodeId, NodeId) {
        let [i, o, u, fl, fr] = self.comp.map(|(l, r, b)| {
            let (l, r) = (g.matvec(m, l, hl), g.matvec(m, r, hr));
            let s = g.add(l, r);
            g.add_bias(m, b, s)
        });
        let (i, o, u) = (g.sigmoid(i), g.sigmoid(o), g.tanh(u));
        let (fl, fr) = (g.sigmoid(fl), g.sigmoid(fr));
        let iu = g.cwise_mult(i, u);
        let flc = g.cwise_mult(fl, cl);
        let frc = g.cwise_mult(fr, cr);
        let part = g.add(iu, flc);
        let c = g.add(part, frc);
        let tc = g.tanh(c);
        (g.cwise_mult(o, tc), c)
    }

    /// A balanced tree over tokens `first..first + leaves`.
    fn subtree(&self, m: &Model, g: &mut Graph, first: usize, leaves: usize) -> (NodeId, NodeId) {
        if leaves == 1 {
            return self.leaf(m, g, first % 50);
        }
        let left = self.subtree(m, g, first, leaves / 2);
        let right = self.subtree(m, g, first + leaves / 2, leaves - leaves / 2);
        self.compose(m, g, left, right)
    }

    /// A request graph: the tree, then the classifier's loss.
    fn build(&self, m: &Model, first: usize, leaves: usize) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let (h, _) = self.subtree(m, &mut g, first, leaves);
        let wx = g.matvec(m, self.cls.0, h);
        let logits = g.add_bias(m, self.cls.1, wx);
        let loss = g.pick_neg_log_softmax(logits, first % 5);
        (g, loss)
    }
}

#[test]
fn absorbing_into_a_warm_scratch_allocates_nothing() {
    let mut model = Model::new(3);
    let arch = TreeParams::register(&mut model);
    let requests: Vec<(Graph, NodeId)> = [(0, 4), (7, 9), (3, 1), (11, 6), (2, 4)]
        .iter()
        .map(|&(first, leaves)| arch.build(&model, first, leaves))
        .collect();
    let mut scratch = Graph::new();
    let mut roots = Vec::new();
    let absorb_batch = |scratch: &mut Graph, roots: &mut Vec<NodeId>| {
        scratch.clear();
        roots.clear();
        roots.extend(requests.iter().map(|(g, root)| scratch.absorb(g, *root)));
    };
    let ((), cold) = allocs(|| absorb_batch(&mut scratch, &mut roots));
    assert!(cold > 0, "the first round grows the scratch");
    let nodes = scratch.len();
    for round in 1..4 {
        let ((), warm) = allocs(|| absorb_batch(&mut scratch, &mut roots));
        assert_eq!(
            warm, 0,
            "round {round} of clear + absorb over {nodes} nodes"
        );
    }
    assert_eq!(scratch.len(), nodes);
}

#[test]
fn building_costs_allocations_per_doubling_not_per_node() {
    let mut model = Model::new(4);
    let arch = TreeParams::register(&mut model);
    let ((small, _), small_allocs) = allocs(|| arch.build(&model, 0, 8));
    let ((large, _), large_allocs) = allocs(|| arch.build(&model, 0, 32));
    assert!(large.len() >= 4 * small.len());
    assert!(
        large_allocs < 2 * small_allocs,
        "{} nodes cost {large_allocs} allocations, {} nodes {small_allocs}",
        large.len(),
        small.len()
    );
}
