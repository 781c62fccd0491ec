//! Kernel-launch descriptors for baseline op groups.
//!
//! Every group from [`crate::groups::group_graph`] turns into one or more
//! [`KernelDesc`]s. The descriptors encode the defining cost structure of
//! non-persistent execution: **every weight-matrix group reloads its matrix
//! from DRAM** (forward and again for the transposed product in backward),
//! and gradients live in DRAM with read-modify-write accumulation.

use dyn_graph::{Graph, Model, OpKind};
use gpu_sim::KernelDesc;

use crate::groups::KernelGroup;

/// Output elements one CTA produces in a fused matrix kernel.
const MATVEC_ROWS_PER_CTA: usize = 64;
/// Elements one CTA processes in an element-wise kernel.
const ELEMWISE_PER_CTA: usize = 4096;

fn elemwise_ctas(total: usize) -> usize {
    total.div_ceil(ELEMWISE_PER_CTA).max(1)
}

fn group_dims(graph: &Graph, group: &KernelGroup) -> (usize, usize) {
    let n = group.len();
    let total_out: usize = group.nodes.iter().map(|id| graph.node(*id).dim).sum();
    (n, total_out)
}

/// Builds the forward kernel(s) for one group.
pub fn forward_kernels(graph: &Graph, model: &Model, group: &KernelGroup) -> Vec<KernelDesc> {
    let (n, total_out) = group_dims(graph, group);
    match group.kind {
        OpKind::Leaf => {
            // Host-to-device input copies / embedding gathers: modeled as one
            // gather kernel writing the leaf values.
            vec![KernelDesc {
                label: "leaf_gather",
                weight_bytes: 0,
                other_load_bytes: (total_out * 4) as u64,
                store_bytes: (total_out * 4) as u64,
                flops: 0,
                ctas: elemwise_ctas(total_out),
            }]
        }
        OpKind::MatVec(w) => {
            let p = &model.param(w).value;
            let (r, c) = (p.rows(), p.cols());
            // One fused kernel: the matrix is loaded once for the whole
            // group — this is exactly how batching reduces weight traffic.
            vec![KernelDesc {
                label: "matvec_batch",
                weight_bytes: (r * c * 4) as u64,
                other_load_bytes: (n * c * 4) as u64,
                store_bytes: (n * r * 4) as u64,
                flops: (2 * n * r * c) as u64,
                ctas: (n * r).div_ceil(MATVEC_ROWS_PER_CTA).max(1),
            }]
        }
        OpKind::AddBias(b) => {
            let len = model.param(b).value.cols();
            vec![KernelDesc {
                label: "add_bias_batch",
                weight_bytes: (len * 4) as u64,
                other_load_bytes: (n * len * 4) as u64,
                store_bytes: (n * len * 4) as u64,
                flops: (n * len) as u64,
                ctas: elemwise_ctas(n * len),
            }]
        }
        OpKind::Add | OpKind::Sub | OpKind::CwiseMult => vec![KernelDesc {
            label: "binary_elemwise_batch",
            weight_bytes: 0,
            other_load_bytes: (2 * total_out * 4) as u64,
            store_bytes: (total_out * 4) as u64,
            flops: total_out as u64,
            ctas: elemwise_ctas(total_out),
        }],
        OpKind::Sum | OpKind::Concat => {
            let total_in: usize = group
                .nodes
                .iter()
                .flat_map(|id| graph.args(*id))
                .map(|a| graph.node(*a).dim)
                .sum();
            vec![KernelDesc {
                label: "nary_batch",
                weight_bytes: 0,
                other_load_bytes: (total_in * 4) as u64,
                store_bytes: (total_out * 4) as u64,
                flops: total_in as u64,
                ctas: elemwise_ctas(total_in.max(total_out)),
            }]
        }
        OpKind::Tanh | OpKind::Sigmoid | OpKind::Relu => vec![KernelDesc {
            label: "activation_batch",
            weight_bytes: 0,
            other_load_bytes: (total_out * 4) as u64,
            store_bytes: (total_out * 4) as u64,
            flops: (8 * total_out) as u64,
            ctas: elemwise_ctas(total_out),
        }],
        OpKind::PickNegLogSoftmax => {
            let total_in: usize = group
                .nodes
                .iter()
                .map(|id| graph.node(graph.args(*id)[0]).dim)
                .sum();
            vec![KernelDesc {
                label: "pick_nls_batch",
                weight_bytes: 0,
                other_load_bytes: (total_in * 4) as u64,
                store_bytes: (n * 4) as u64,
                flops: (6 * total_in) as u64,
                ctas: elemwise_ctas(total_in),
            }]
        }
    }
}

/// Builds the backward kernel(s) for one group.
pub fn backward_kernels(graph: &Graph, model: &Model, group: &KernelGroup) -> Vec<KernelDesc> {
    let (n, total_out) = group_dims(graph, group);
    match group.kind {
        OpKind::Leaf => Vec::new(),
        OpKind::MatVec(w) => {
            let p = &model.param(w).value;
            let (r, c) = (p.rows(), p.cols());
            vec![
                // dx += Wᵀ dy — the matrix is loaded from DRAM *again*.
                KernelDesc {
                    label: "matvec_bwd_dx",
                    weight_bytes: (r * c * 4) as u64,
                    other_load_bytes: ((n * r + n * c) * 4) as u64,
                    store_bytes: (n * c * 4) as u64,
                    flops: (2 * n * r * c) as u64,
                    ctas: (n * c).div_ceil(MATVEC_ROWS_PER_CTA).max(1),
                },
                // dW += DY · Xᵀ with a DRAM-resident gradient accumulator.
                KernelDesc {
                    label: "matvec_bwd_dw",
                    weight_bytes: 0,
                    other_load_bytes: ((n * (r + c) + r * c) * 4) as u64,
                    store_bytes: (r * c * 4) as u64,
                    flops: (2 * n * r * c) as u64,
                    ctas: (r * c).div_ceil(ELEMWISE_PER_CTA).max(1),
                },
            ]
        }
        OpKind::AddBias(b) => {
            let len = model.param(b).value.cols();
            vec![
                KernelDesc {
                    label: "add_bias_bwd_dx",
                    weight_bytes: 0,
                    other_load_bytes: (2 * n * len * 4) as u64,
                    store_bytes: (n * len * 4) as u64,
                    flops: (n * len) as u64,
                    ctas: elemwise_ctas(n * len),
                },
                KernelDesc {
                    label: "add_bias_bwd_db",
                    weight_bytes: 0,
                    other_load_bytes: ((n * len + len) * 4) as u64,
                    store_bytes: (len * 4) as u64,
                    flops: (n * len) as u64,
                    ctas: elemwise_ctas(len),
                },
            ]
        }
        OpKind::Add | OpKind::Sub | OpKind::Sum | OpKind::Concat => {
            let fan: usize = group
                .nodes
                .iter()
                .flat_map(|id| graph.args(*id))
                .map(|a| graph.node(*a).dim)
                .sum();
            vec![KernelDesc {
                label: "fanout_bwd",
                weight_bytes: 0,
                other_load_bytes: (2 * fan * 4) as u64,
                store_bytes: (fan * 4) as u64,
                flops: fan as u64,
                ctas: elemwise_ctas(fan),
            }]
        }
        OpKind::CwiseMult => vec![KernelDesc {
            label: "cwise_bwd",
            weight_bytes: 0,
            other_load_bytes: (5 * total_out * 4) as u64,
            store_bytes: (2 * total_out * 4) as u64,
            flops: (4 * total_out) as u64,
            ctas: elemwise_ctas(total_out),
        }],
        OpKind::Tanh | OpKind::Sigmoid | OpKind::Relu => vec![KernelDesc {
            label: "activation_bwd",
            weight_bytes: 0,
            other_load_bytes: (3 * total_out * 4) as u64,
            store_bytes: (total_out * 4) as u64,
            flops: (3 * total_out) as u64,
            ctas: elemwise_ctas(total_out),
        }],
        OpKind::PickNegLogSoftmax => {
            let total_in: usize = group
                .nodes
                .iter()
                .map(|id| graph.node(graph.args(*id)[0]).dim)
                .sum();
            vec![KernelDesc {
                label: "pick_nls_bwd",
                weight_bytes: 0,
                other_load_bytes: ((2 * total_in + n) * 4) as u64,
                store_bytes: (total_in * 4) as u64,
                flops: (8 * total_in) as u64,
                ctas: elemwise_ctas(total_in),
            }]
        }
    }
}

/// The marshalling (gather) kernel TF-Fold pays per fused group.
pub fn gather_kernel(graph: &Graph, group: &KernelGroup) -> KernelDesc {
    let total_in: usize = group
        .nodes
        .iter()
        .flat_map(|id| graph.args(*id))
        .map(|a| graph.node(*a).dim)
        .sum();
    let bytes = (total_in.max(1) * 4) as u64;
    KernelDesc {
        label: "tf_fold_gather",
        weight_bytes: 0,
        other_load_bytes: bytes,
        store_bytes: bytes,
        flops: 0,
        ctas: elemwise_ctas(total_in.max(1)),
    }
}

/// The per-parameter SGD update kernel every baseline pays at batch end.
pub fn update_kernel(size_bytes: u64) -> KernelDesc {
    KernelDesc {
        label: "sgd_update",
        weight_bytes: size_bytes,
        other_load_bytes: size_bytes,
        store_bytes: size_bytes,
        flops: 3 * (size_bytes / 4),
        ctas: ((size_bytes as usize / 4).div_ceil(ELEMWISE_PER_CTA)).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{group_graph, Strategy};
    use dyn_graph::Model;

    fn setup() -> (Model, Graph) {
        let mut m = Model::new(6);
        let w = m.add_matrix("W", 16, 16);
        let b = m.add_bias("b", 16);
        let mut g = Graph::new();
        for _ in 0..3 {
            let x = g.input(vec![0.1; 16]);
            let h = g.affine(&m, w, b, x);
            let t = g.tanh(h);
            let _ = g.pick_neg_log_softmax(t, 1);
        }
        (m, g)
    }

    #[test]
    fn fused_matvec_loads_matrix_once() {
        let (m, g) = setup();
        let groups = group_graph(&g, Strategy::DepthBased);
        let mv = groups
            .iter()
            .find(|gr| matches!(gr.kind, OpKind::MatVec(_)))
            .unwrap();
        assert_eq!(mv.len(), 3);
        let descs = forward_kernels(&g, &m, mv);
        assert_eq!(descs.len(), 1);
        assert_eq!(
            descs[0].weight_bytes,
            16 * 16 * 4,
            "one matrix load for the whole group"
        );
        assert_eq!(descs[0].other_load_bytes, 3 * 16 * 4);
    }

    #[test]
    fn unbatched_matvecs_reload_per_node() {
        let (m, g) = setup();
        let groups = group_graph(&g, Strategy::Unbatched);
        let total_weight: u64 = groups
            .iter()
            .flat_map(|gr| forward_kernels(&g, &m, gr))
            .map(|d| d.weight_bytes)
            .sum();
        // 3 matvecs * matrix + 3 bias adds * bias row.
        assert_eq!(total_weight, 3 * 16 * 16 * 4 + 3 * 16 * 4);
    }

    #[test]
    fn backward_matvec_reloads_weights_again() {
        let (m, g) = setup();
        let groups = group_graph(&g, Strategy::DepthBased);
        let mv = groups
            .iter()
            .find(|gr| matches!(gr.kind, OpKind::MatVec(_)))
            .unwrap();
        let descs = backward_kernels(&g, &m, mv);
        assert_eq!(descs.len(), 2);
        assert_eq!(
            descs[0].weight_bytes,
            16 * 16 * 4,
            "transposed product reloads W"
        );
        assert_eq!(
            descs[1].weight_bytes, 0,
            "outer product reads activations only"
        );
    }

    #[test]
    fn leaves_have_no_backward_kernels() {
        let (m, g) = setup();
        let groups = group_graph(&g, Strategy::DepthBased);
        let leaf = groups.iter().find(|gr| gr.kind == OpKind::Leaf).unwrap();
        assert!(backward_kernels(&g, &m, leaf).is_empty());
    }

    #[test]
    fn bigger_groups_get_more_ctas() {
        let mut m = Model::new(8);
        let w = m.add_matrix("W", 256, 256);
        let mut g = Graph::new();
        let mut nodes = Vec::new();
        for _ in 0..32 {
            let x = g.input(vec![0.1; 256]);
            nodes.push(g.matvec(&m, w, x));
        }
        let small = KernelGroup {
            kind: OpKind::MatVec(wid(&m)),
            nodes: nodes[..1].to_vec(),
        };
        let large = KernelGroup {
            kind: OpKind::MatVec(wid(&m)),
            nodes,
        };
        let d_small = &forward_kernels(&g, &m, &small)[0];
        let d_large = &forward_kernels(&g, &m, &large)[0];
        assert!(d_large.ctas > d_small.ctas);
        fn wid(m: &Model) -> dyn_graph::ParamId {
            m.params().next().unwrap().0
        }
    }

    #[test]
    fn update_kernel_touches_three_x_bytes() {
        let d = update_kernel(1024);
        assert_eq!(
            d.weight_bytes + d.other_load_bytes + d.store_bytes,
            3 * 1024
        );
    }
}
