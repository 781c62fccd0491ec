//! Inference-mode tests: forward-only persistent kernels with no parameter
//! update — the natural deployment companion of the paper's training system.

use dyn_graph::{exec as refexec, Graph, Model, NodeId};
use gpu_sim::{DeviceConfig, TrafficTag};
use vpps::{Handle, VppsOptions};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{DynamicModel, TreeLstm};

fn device() -> DeviceConfig {
    DeviceConfig::titan_v()
}

fn opts() -> VppsOptions {
    VppsOptions {
        pool_capacity: 1 << 22,
        ..VppsOptions::default()
    }
}

fn mlp_graph(model: &Model, w1: dyn_graph::ParamId, w2: dyn_graph::ParamId) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.input(vec![0.3; 16]);
    let h = g.matvec(model, w1, x);
    let t = g.tanh(h);
    let o = g.matvec(model, w2, t);
    (g, o)
}

#[test]
fn infer_matches_reference_forward() {
    let mut model = Model::new(700);
    let w1 = model.add_matrix("W1", 24, 16);
    let w2 = model.add_matrix("W2", 6, 24);
    let mut handle = Handle::new(&model, device(), opts()).unwrap();
    let (g, out) = mlp_graph(&model, w1, w2);

    let got = handle.infer(&mut model, &g, out);
    let want = &refexec::forward(&g, &model)[out.index()];
    assert_eq!(got.len(), 6);
    for (a, b) in got.iter().zip(want) {
        assert!(
            (a - b).abs() < 1e-4,
            "inference output diverged: {a} vs {b}"
        );
    }
}

#[test]
fn infer_does_not_modify_parameters() {
    let mut model = Model::new(701);
    let w1 = model.add_matrix("W1", 24, 16);
    let w2 = model.add_matrix("W2", 6, 24);
    let before = model.clone();
    let mut handle = Handle::new(&model, device(), opts()).unwrap();
    let (g, out) = mlp_graph(&model, w1, w2);
    let _ = handle.infer(&mut model, &g, out);
    for ((_, pa), (_, pb)) in model.params().zip(before.params()) {
        assert_eq!(pa.value, pb.value, "inference must not update {}", pa.name);
    }
}

#[test]
fn infer_weight_traffic_is_one_load_no_store() {
    let mut model = Model::new(702);
    let w1 = model.add_matrix("W1", 24, 16);
    let w2 = model.add_matrix("W2", 6, 24);
    let weights = model.dense_param_bytes();
    let mut handle = Handle::new(&model, device(), opts()).unwrap();
    let (g, out) = mlp_graph(&model, w1, w2);
    let _ = handle.infer(&mut model, &g, out);
    assert_eq!(handle.gpu().dram().loads(TrafficTag::Weight), weights);
    assert_eq!(
        handle.gpu().dram().stores(TrafficTag::Weight),
        0,
        "no weight write-back"
    );
}

#[test]
fn infer_is_cheaper_than_training() {
    let mut m1 = Model::new(703);
    let w1 = m1.add_matrix("W1", 24, 16);
    let w2 = m1.add_matrix("W2", 6, 24);
    let mut m2 = m1.clone();

    let mut h_inf = Handle::new(&m1, device(), opts()).unwrap();
    let (g, out) = mlp_graph(&m1, w1, w2);
    let _ = h_inf.infer(&mut m1, &g, out);
    let infer_time = h_inf.wall_time();

    let mut h_train = Handle::new(&m2, device(), opts()).unwrap();
    let (mut g2, out2) = mlp_graph(&m2, w1, w2);
    let loss = g2.pick_neg_log_softmax(out2, 1);
    h_train.fb(&mut m2, &g2, loss);
    h_train.sync_get_latest_loss();
    let train_time = h_train.wall_time();

    assert!(
        infer_time < train_time,
        "inference {infer_time} vs training {train_time}"
    );
}

#[test]
fn tree_lstm_classification_via_infer() {
    // Inference over dynamic tree shapes: read the root logits.
    let mut model = Model::new(704);
    let arch = TreeLstm::register(&mut model, 100, 12, 12, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 100,
        min_len: 3,
        max_len: 8,
        ..Default::default()
    });
    let mut handle = Handle::new(&model, device(), opts()).unwrap();
    for s in bank.samples(4) {
        let (g, loss) = arch.build(&model, &s);
        // The logits node is the loss node's argument.
        let logits = g.args(loss)[0];
        let out = handle.infer(&mut model, &g, logits);
        assert_eq!(out.len(), 5);
        let want = &refexec::forward(&g, &model)[logits.index()];
        for (a, b) in out.iter().zip(want) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
