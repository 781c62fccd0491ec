//! Shared random-graph generators for the integration test suites.
//!
//! Included via `#[path]` from `tests/proptest_random_graphs.rs` (which
//! checks VPPS against the reference executor) and
//! `tests/backend_equivalence.rs` (which checks the execution backends
//! against each other), so both properties range over the same graph space.

use dyn_graph::{Graph, Model, NodeId};
use gpu_sim::DeviceConfig;
use proptest::prelude::*;

pub const DIM: usize = 12;

/// A recipe for building a random (but always valid) graph.
#[derive(Debug, Clone)]
pub struct GraphRecipe {
    pub ops: Vec<u8>,
    pub picks: Vec<u8>,
    pub label: u8,
}

pub fn arb_recipe() -> impl Strategy<Value = GraphRecipe> {
    (
        prop::collection::vec(0u8..8, 1..30),
        prop::collection::vec(any::<u8>(), 30),
        0u8..4,
    )
        .prop_map(|(ops, picks, label)| GraphRecipe { ops, picks, label })
}

/// Materializes a recipe against a model with two `DIM`x`DIM` matrices and a
/// `DIM` bias (in registration order), returning the graph and its loss node.
pub fn build_from_recipe(model: &Model, recipe: &GraphRecipe) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.input((0..DIM).map(|i| 0.1 * i as f32 - 0.5).collect());
    let loss = grow_recipe(&mut g, model, recipe, vec![x], recipe.label as usize);
    (g, loss)
}

/// Grows `recipe`'s operations in `g` on top of the `DIM`-wide nodes in
/// `frontier` and closes with a loss picking `label`.
pub fn grow_recipe(
    g: &mut Graph,
    model: &Model,
    recipe: &GraphRecipe,
    mut frontier: Vec<NodeId>,
    label: usize,
) -> NodeId {
    let w1 = model.params().next().expect("model has w1").0;
    let w2 = model.params().nth(1).expect("model has w2").0;
    let b = model.params().nth(2).expect("model has bias").0;

    for (i, op) in recipe.ops.iter().enumerate() {
        let pick = |k: usize| {
            frontier[recipe.picks[(i + k) % recipe.picks.len()] as usize % frontier.len()]
        };
        let node = match op {
            0 => g.matvec(model, w1, pick(0)),
            1 => g.matvec(model, w2, pick(0)),
            2 => g.add_bias(model, b, pick(0)),
            3 => g.tanh(pick(0)),
            4 => g.sigmoid(pick(0)),
            5 => g.relu(pick(0)),
            6 => g.add(pick(0), pick(1)),
            _ => g.cwise_mult(pick(0), pick(1)),
        };
        frontier.push(node);
    }
    let last = *frontier.last().expect("non-empty");
    g.pick_neg_log_softmax(last, label)
}

/// A cut-down Titan V so several VPPs share real work even on tiny graphs.
pub fn small_device() -> DeviceConfig {
    let mut d = DeviceConfig::titan_v();
    d.num_sms = 3;
    d
}
