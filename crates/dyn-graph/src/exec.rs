//! Host-side reference executor: the semantic ground truth.
//!
//! This is a plain, single-threaded evaluation of the computation graph with
//! reverse-mode autodiff. It carries no performance model — its only job is
//! correctness, so the simulated executors (VPPS's virtual-processor
//! interpreter and the batching baselines) can be tested for numerical
//! equivalence against it.

use vpps_tensor::{activations, ops, softmax};

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::params::Model;

/// Evaluates the graph forward, returning every node's output vector indexed
/// by node id.
///
/// # Panics
///
/// Panics if the graph references parameters not present in `model` (graphs
/// validate shapes at construction, so this indicates a model mismatch).
pub fn forward(graph: &Graph, model: &Model) -> Vec<Vec<f32>> {
    let mut values: Vec<Vec<f32>> = Vec::with_capacity(graph.len());
    for (id, node) in graph.iter() {
        let args = graph.args(id);
        let out = match &node.op {
            Op::Input { values: v } => v.clone(),
            Op::Lookup { table, index } => model.lookup(*table).table.row(*index).to_vec(),
            Op::MatVec { w } => {
                let x = &values[args[0].index()];
                let mut y = vec![0.0; node.dim];
                ops::gemv(&model.param(*w).value, x, &mut y);
                y
            }
            Op::AddBias { b } => {
                let x = &values[args[0].index()];
                let bias = model.param(*b).value.row(0);
                let mut y = vec![0.0; node.dim];
                ops::cwise_add(x, bias, &mut y);
                y
            }
            Op::Add => {
                let a = &values[args[0].index()];
                let b = &values[args[1].index()];
                let mut y = vec![0.0; node.dim];
                ops::cwise_add(a, b, &mut y);
                y
            }
            Op::Sub => {
                let a = &values[args[0].index()];
                let b = &values[args[1].index()];
                let mut y = vec![0.0; node.dim];
                for i in 0..node.dim {
                    y[i] = a[i] - b[i];
                }
                y
            }
            Op::Sum => {
                let mut y = vec![0.0; node.dim];
                for arg in args {
                    ops::axpy(1.0, &values[arg.index()], &mut y);
                }
                y
            }
            Op::CwiseMult => {
                let a = &values[args[0].index()];
                let b = &values[args[1].index()];
                let mut y = vec![0.0; node.dim];
                ops::cwise_mult(a, b, &mut y);
                y
            }
            Op::Tanh => {
                let x = &values[args[0].index()];
                let mut y = vec![0.0; node.dim];
                activations::tanh_forward(x, &mut y);
                y
            }
            Op::Sigmoid => {
                let x = &values[args[0].index()];
                let mut y = vec![0.0; node.dim];
                activations::sigmoid_forward(x, &mut y);
                y
            }
            Op::Relu => {
                let x = &values[args[0].index()];
                let mut y = vec![0.0; node.dim];
                activations::relu_forward(x, &mut y);
                y
            }
            Op::Concat => {
                let mut y = Vec::with_capacity(node.dim);
                for arg in args {
                    y.extend_from_slice(&values[arg.index()]);
                }
                y
            }
            Op::PickNegLogSoftmax { label } => {
                let x = &values[args[0].index()];
                vec![softmax::pick_neg_log_softmax(x, *label)]
            }
        };
        debug_assert_eq!(out.len(), node.dim);
        values.push(out);
    }
    values
}

/// Backpropagates from `loss` (a scalar node), accumulating parameter and
/// lookup-table gradients into `model`.
///
/// `values` must come from [`forward`] on the same graph and model.
///
/// # Panics
///
/// Panics if `loss` is not a scalar node of this graph or `values` has the
/// wrong length.
pub fn backward(graph: &Graph, model: &mut Model, values: &[Vec<f32>], loss: NodeId) {
    assert_eq!(values.len(), graph.len(), "values/graph length mismatch");
    assert_eq!(graph.node(loss).dim, 1, "loss must be scalar");

    let mut deriv: Vec<Vec<f32>> = graph.iter().map(|(_, n)| vec![0.0; n.dim]).collect();
    deriv[loss.index()][0] = 1.0;

    // Reverse construction order is reverse-topological: arguments always
    // precede consumers.
    for idx in (0..graph.len()).rev() {
        let id = NodeId(idx as u32);
        let node = graph.node(id);
        let args = graph.args(id);
        let dy = std::mem::take(&mut deriv[idx]);
        match &node.op {
            Op::Input { .. } => {}
            Op::Lookup { table, index } => {
                let grad_row = model.lookup_mut(*table).grad.row_mut(*index);
                ops::axpy(1.0, &dy, grad_row);
            }
            Op::MatVec { w } => {
                let x_id = args[0];
                // dW += dy ⊗ x
                {
                    let x = &values[x_id.index()];
                    ops::ger_acc(&mut model.param_mut(*w).grad, &dy, x);
                }
                // dx += Wᵀ dy
                let wv = &model.param(*w).value;
                ops::gemv_t_acc(wv, &dy, &mut deriv[x_id.index()]);
            }
            Op::AddBias { b } => {
                ops::axpy(1.0, &dy, model.param_mut(*b).grad.row_mut(0));
                ops::axpy(1.0, &dy, &mut deriv[args[0].index()]);
            }
            Op::Add => {
                ops::axpy(1.0, &dy, &mut deriv[args[0].index()]);
                ops::axpy(1.0, &dy, &mut deriv[args[1].index()]);
            }
            Op::Sub => {
                ops::axpy(1.0, &dy, &mut deriv[args[0].index()]);
                ops::axpy(-1.0, &dy, &mut deriv[args[1].index()]);
            }
            Op::Sum => {
                for arg in args {
                    ops::axpy(1.0, &dy, &mut deriv[arg.index()]);
                }
            }
            Op::CwiseMult => {
                let (a_id, b_id) = (args[0], args[1]);
                {
                    let b_val = &values[b_id.index()];
                    let da = &mut deriv[a_id.index()];
                    for i in 0..dy.len() {
                        da[i] += dy[i] * b_val[i];
                    }
                }
                let a_val = &values[a_id.index()];
                let db = &mut deriv[b_id.index()];
                for i in 0..dy.len() {
                    db[i] += dy[i] * a_val[i];
                }
            }
            Op::Tanh => {
                let y = &values[idx];
                activations::tanh_backward(y, &dy, &mut deriv[args[0].index()]);
            }
            Op::Sigmoid => {
                let y = &values[idx];
                activations::sigmoid_backward(y, &dy, &mut deriv[args[0].index()]);
            }
            Op::Relu => {
                let y = &values[idx];
                activations::relu_backward(y, &dy, &mut deriv[args[0].index()]);
            }
            Op::Concat => {
                let mut off = 0;
                for arg in args {
                    let alen = graph.node(*arg).dim;
                    ops::axpy(1.0, &dy[off..off + alen], &mut deriv[arg.index()]);
                    off += alen;
                }
            }
            Op::PickNegLogSoftmax { label } => {
                let x = &values[args[0].index()];
                softmax::pick_neg_log_softmax_backward(
                    x,
                    *label,
                    dy[0],
                    &mut deriv[args[0].index()],
                );
            }
        }
    }
}

/// Convenience: forward + backward, returning the loss value.
///
/// # Panics
///
/// Panics under the same conditions as [`forward`] and [`backward`].
pub fn forward_backward(graph: &Graph, model: &mut Model, loss: NodeId) -> f32 {
    let values = forward(graph, model);
    let loss_value = values[loss.index()][0];
    backward(graph, model, &values, loss);
    loss_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;

    /// Numerically checks d(loss)/d(param[r][c]) via central differences.
    fn numeric_param_grad(
        build: &dyn Fn(&Model, &mut Graph) -> NodeId,
        model: &Model,
        pid: ParamId,
        r: usize,
        c: usize,
    ) -> f32 {
        let eps = 1e-2_f32;
        let eval = |m: &Model| {
            let mut g = Graph::new();
            let loss = build(m, &mut g);
            forward(&g, m)[loss.index()][0]
        };
        let mut mp = model.clone();
        mp.param_mut(pid).value[(r, c)] += eps;
        let mut mm = model.clone();
        mm.param_mut(pid).value[(r, c)] -= eps;
        (eval(&mp) - eval(&mm)) / (2.0 * eps)
    }

    fn check_model_grads(build: &dyn Fn(&Model, &mut Graph) -> NodeId, model: &mut Model) {
        let mut g = Graph::new();
        let loss = build(model, &mut g);
        model.zero_grads();
        forward_backward(&g, model, loss);
        let snapshot = model.clone();
        for (pid, p) in snapshot.params() {
            for r in 0..p.value.rows().min(3) {
                for c in 0..p.value.cols().min(3) {
                    let numeric = numeric_param_grad(build, &snapshot, pid, r, c);
                    let analytic = p.grad[(r, c)];
                    assert!(
                        (analytic - numeric).abs() < 2e-2,
                        "param {} [{r},{c}]: analytic {analytic} vs numeric {numeric}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn forward_matches_hand_computed_affine() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 2, 2);
        m.param_mut(w)
            .value
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = m.add_bias("b", 2);
        m.param_mut(b)
            .value
            .as_mut_slice()
            .copy_from_slice(&[0.5, -0.5]);
        let mut g = Graph::new();
        let x = g.input(vec![1.0, -1.0]);
        let y = g.affine(&m, w, b, x);
        let v = forward(&g, &m);
        assert_eq!(v[y.index()], vec![-0.5, -1.5]);
    }

    #[test]
    fn gradients_of_affine_tanh_classifier() {
        let build = |m: &Model, g: &mut Graph| {
            let x = g.input(vec![0.4, -0.2, 0.9]);
            let h = g.affine(m, ParamId(0), ParamId(1), x);
            let t = g.tanh(h);
            let o = g.matvec(m, ParamId(2), t);
            g.pick_neg_log_softmax(o, 1)
        };
        let mut m = Model::new(3);
        m.add_matrix("W1", 4, 3);
        m.add_bias("b1", 4);
        m.add_matrix("W2", 3, 4);
        check_model_grads(&build, &mut m);
    }

    #[test]
    fn gradients_with_shared_weight_reuse() {
        // The same matrix used twice (recurrently) — the core dynamic-net
        // pattern whose gradient must sum both uses.
        let build = |m: &Model, g: &mut Graph| {
            let x = g.input(vec![0.3, -0.6]);
            let h1 = g.matvec(m, ParamId(0), x);
            let t1 = g.tanh(h1);
            let h2 = g.matvec(m, ParamId(0), t1);
            let t2 = g.tanh(h2);
            g.pick_neg_log_softmax(t2, 0)
        };
        let mut m = Model::new(4);
        m.add_matrix("Wrec", 2, 2);
        check_model_grads(&build, &mut m);
    }

    #[test]
    fn gradients_through_cwise_and_sigmoid_gates() {
        let build = |m: &Model, g: &mut Graph| {
            let x = g.input(vec![0.5, 0.1, -0.3]);
            let gate_in = g.matvec(m, ParamId(0), x);
            let gate = g.sigmoid(gate_in);
            let cand_in = g.matvec(m, ParamId(1), x);
            let cand = g.tanh(cand_in);
            let h = g.cwise_mult(gate, cand);
            g.pick_neg_log_softmax(h, 2)
        };
        let mut m = Model::new(5);
        m.add_matrix("Wg", 3, 3);
        m.add_matrix("Wc", 3, 3);
        check_model_grads(&build, &mut m);
    }

    #[test]
    fn gradients_through_concat_and_sum() {
        let build = |m: &Model, g: &mut Graph| {
            let a = g.input(vec![0.2, -0.1]);
            let b = g.input(vec![0.7, 0.3]);
            let c = g.concat(&[a, b]);
            let h1 = g.matvec(m, ParamId(0), c);
            let h2 = g.matvec(m, ParamId(1), c);
            let s = g.sum(&[h1, h2]);
            let r = g.relu(s);
            g.pick_neg_log_softmax(r, 0)
        };
        let mut m = Model::new(6);
        m.add_matrix("A", 3, 4);
        m.add_matrix("B", 3, 4);
        check_model_grads(&build, &mut m);
    }

    #[test]
    fn lookup_gradient_lands_on_correct_row() {
        let mut m = Model::new(7);
        let e = m.add_lookup("E", 5, 3);
        let w = m.add_matrix("W", 2, 3);
        let mut g = Graph::new();
        let x = g.lookup(&m, e, 2);
        let h = g.matvec(&m, w, x);
        let loss = g.pick_neg_log_softmax(h, 0);
        forward_backward(&g, &mut m, loss);
        let grad = &m.lookup(e).grad;
        for r in 0..5 {
            let norm: f32 = grad.row(r).iter().map(|v| v.abs()).sum();
            if r == 2 {
                assert!(norm > 0.0, "looked-up row should receive gradient");
            } else {
                assert_eq!(norm, 0.0, "untouched rows must stay zero");
            }
        }
    }

    #[test]
    fn two_graph_shapes_share_one_model() {
        // The defining property of a dynamic net: per-input graph shapes
        // differ, parameters persist.
        let mut m = Model::new(8);
        let w = m.add_matrix("W", 2, 2);

        let mut g1 = Graph::new();
        let x1 = g1.input(vec![1.0, 0.0]);
        let h1 = g1.matvec(&m, w, x1);
        let l1 = g1.pick_neg_log_softmax(h1, 0);

        let mut g2 = Graph::new();
        let x2 = g2.input(vec![0.0, 1.0]);
        let mut h2 = x2;
        for _ in 0..4 {
            let z = g2.matvec(&m, w, h2);
            h2 = g2.tanh(z);
        }
        let l2 = g2.pick_neg_log_softmax(h2, 1);

        let a = forward_backward(&g1, &mut m, l1);
        let b = forward_backward(&g2, &mut m, l2);
        assert!(a.is_finite() && b.is_finite());
        assert!(m.param(w).grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn backward_seeds_only_the_loss() {
        let mut m = Model::new(9);
        let w = m.add_matrix("W", 2, 2);
        let mut g = Graph::new();
        let x = g.input(vec![1.0, 1.0]);
        let h = g.matvec(&m, w, x);
        let l = g.pick_neg_log_softmax(h, 0);
        let v = forward(&g, &m);
        m.zero_grads();
        backward(&g, &mut m, &v, l);
        let g1 = m.param(w).grad.clone();
        // Running backward twice doubles the accumulation.
        backward(&g, &mut m, &v, l);
        let g2 = m.param(w).grad.clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}
