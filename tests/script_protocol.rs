//! The barrier protocol, proven rather than sampled: every script the
//! generator emits for real models — training and forward-only, under both
//! gradient strategies — passes `script::validate_protocol`, and the
//! validator rejects the mutations a generator bug would make (a dropped
//! `Wait`, a body instruction hoisted above its barrier).
//!
//! Also pins the loss-derivative seed for the six ops whose backward pass
//! never seeded it: `Handle::fb` must train them like the reference.

use std::sync::Arc;

use dyn_graph::{Graph, Model, NodeId, Trainer};
use gpu_sim::DeviceConfig;
use vpps::script::{generate, validate_protocol, Instr, ProtocolError, ScriptSet, TableLayout};
use vpps::{BackendKind, GradStrategy, Handle, KernelPlan, RpwMode, VppsOptions};
use vpps_datasets::{TaggedCorpus, TaggedCorpusConfig, Treebank, TreebankConfig};
use vpps_models::{build_batch, BiLstmTagger, Rvnn, TreeLstm};
use vpps_tensor::Pool;

fn small_device() -> DeviceConfig {
    // Few SMs, so chunks and balanced work still spread over several VPPs.
    let mut d = DeviceConfig::titan_v();
    d.num_sms = 6;
    d
}

/// The scripts of `(g, root)` on a plan forced to `strategy`: training
/// (`root` a scalar loss) or forward-only.
fn scripts(
    model: &Model,
    g: &Graph,
    root: NodeId,
    strategy: GradStrategy,
    train: bool,
) -> (KernelPlan, Arc<ScriptSet>) {
    let plan = KernelPlan::build_forced(model, &small_device(), 1, strategy).expect("fits");
    let mut pool = Pool::with_capacity(1 << 20);
    let tables = TableLayout::install(model, &mut pool).expect("fits");
    let gs = if train {
        generate::generate(g, root, &plan, &mut pool, &tables)
    } else {
        generate::generate_forward_only(g, root, &plan, &mut pool, &tables)
    };
    (plan, gs.expect("fits").scripts)
}

/// Validates the training and forward-only scripts of `(g, loss)` under both
/// gradient strategies.
fn assert_race_free(model: &Model, g: &Graph, loss: NodeId) {
    for strategy in [GradStrategy::InRegister, GradStrategy::GemmFallback] {
        for train in [true, false] {
            let (plan, set) = scripts(model, g, loss, strategy, train);
            assert_eq!(
                validate_protocol(&set, plan.distribution()),
                Ok(()),
                "{strategy:?}, training {train}"
            );
        }
    }
}

fn tree_lstm_batch() -> (Model, Graph, NodeId) {
    let mut model = Model::new(600);
    let arch = TreeLstm::register(&mut model, 80, 12, 12, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 80,
        min_len: 3,
        max_len: 7,
        ..Default::default()
    });
    let (g, loss) = build_batch(&arch, &model, &bank.samples(3));
    (model, g, loss)
}

#[test]
fn tree_lstm_scripts_are_race_free() {
    let (model, g, loss) = tree_lstm_batch();
    assert_race_free(&model, &g, loss);
}

#[test]
fn rvnn_scripts_are_race_free() {
    let mut model = Model::new(601);
    let arch = Rvnn::register(&mut model, 60, 16, 5);
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 60,
        min_len: 2,
        max_len: 9,
        ..Default::default()
    });
    let (g, loss) = build_batch(&arch, &model, &bank.samples(4));
    assert_race_free(&model, &g, loss);
}

#[test]
fn bilstm_tagger_scripts_are_race_free() {
    let mut model = Model::new(602);
    let arch = BiLstmTagger::register(&mut model, 200, 10, 10, 10, 9);
    let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
        vocab: 200,
        sentences: 2,
        min_len: 3,
        max_len: 6,
        ..Default::default()
    });
    let (g, loss) = build_batch(&arch, &model, corpus.sentences());
    assert_race_free(&model, &g, loss);
}

#[test]
fn wide_fan_in_scripts_are_race_free() {
    // 24 heads read one shared node and, backward, all accumulate into its
    // derivative in one level.
    let mut model = Model::new(55);
    let w = model.add_matrix("W", 16, 16);
    let mut g = Graph::new();
    let x = g.input(vec![0.3; 16]);
    let shared = g.tanh(x);
    let heads: Vec<NodeId> = (0..24)
        .map(|_| {
            let h = g.matvec(&model, w, shared);
            let t = g.tanh(h);
            g.pick_neg_log_softmax(t, 2)
        })
        .collect();
    let loss = g.sum(&heads);
    assert_race_free(&model, &g, loss);
}

/// Validates `set` with VPP `v`'s script changed by `edit`.
fn validate_edited(
    set: &ScriptSet,
    plan: &KernelPlan,
    v: usize,
    edit: impl FnOnce(&mut Vec<Instr>),
) -> Result<(), ProtocolError> {
    let mut per_vpp: Vec<Vec<Instr>> = (0..set.num_vpps())
        .map(|u| set.script(u).to_vec())
        .collect();
    edit(&mut per_vpp[v]);
    validate_protocol(&ScriptSet::from_scripts(per_vpp), plan.distribution())
}

#[test]
fn removing_any_wait_is_detected() {
    let (model, g, loss) = tree_lstm_batch();
    let (plan, set) = scripts(&model, &g, loss, GradStrategy::InRegister, true);
    let mut removed = 0;
    for v in 0..set.num_vpps() {
        for (at, instr) in set.script(v).iter().enumerate() {
            if !matches!(instr, Instr::Wait { .. }) {
                continue;
            }
            let got = validate_edited(&set, &plan, v, |s| {
                s.remove(at);
            });
            assert!(
                matches!(got, Err(ProtocolError::MalformedLevel { vpp, .. }) if vpp == v),
                "vpp {v}: dropping the wait at {at} gave {got:?}"
            );
            removed += 1;
        }
    }
    assert!(removed > 0, "the batch has no waits");
}

#[test]
fn hoisting_a_body_above_its_barrier_is_a_race() {
    let (model, g, loss) = tree_lstm_batch();
    let (plan, set) = scripts(&model, &g, loss, GradStrategy::InRegister, true);
    let (mut hoists, mut races) = (0, 0);
    for v in 0..set.num_vpps() {
        let script = set.script(v);
        // `Signal{k−1} Wait{k−1} X Y…`: move X into level k − 1, keeping a
        // non-empty level k behind it.
        for at in 0..script.len().saturating_sub(3) {
            let hoistable = matches!(script[at], Instr::Signal { .. })
                && matches!(script[at + 1], Instr::Wait { .. })
                && !script[at + 2].is_sync()
                && !script[at + 3].is_sync();
            if !hoistable {
                continue;
            }
            hoists += 1;
            let hoisted = validate_edited(&set, &plan, v, |s| {
                let x = s.remove(at + 2);
                s.insert(at, x);
            });
            // X either reads only what its own VPP produced, or races.
            match hoisted {
                Ok(()) => {}
                Err(ProtocolError::Race { vpps: (a, b), .. }) => {
                    assert!(a != b && (a == v || b == v), "race names {a} and {b}");
                    races += 1;
                }
                Err(other) => panic!("vpp {v}: hoist at {at} gave {other:?}"),
            }
        }
    }
    assert!(races > 0, "none of {hoists} hoists was flagged");
}

/// The ops whose backward arm cannot seed the loss derivative on the VPPs
/// that read it.
const SEEDED_FORWARD: [&str; 6] = [
    "matvec",
    "add_bias",
    "cwise_mult",
    "tanh",
    "sigmoid",
    "relu",
];

/// A model whose first parameters are a 1 × 8 matrix and a 1-dim bias.
fn scalar_model() -> Model {
    let mut model = Model::new(77);
    model.add_matrix("W", 1, 8);
    model.add_bias("b", 1);
    model
}

/// `op` as the 1-dim loss over `s = W·x`, with `x` = W's own row so `s > 0`
/// and every op passes a gradient through.
fn one_dim_loss(model: &Model, op: &str) -> (Graph, NodeId) {
    let w = model.params().next().expect("W").0;
    let b = model.params().nth(1).expect("b").0;
    let mut g = Graph::new();
    let x = g.input(model.param(w).value.as_slice().to_vec());
    let s = g.matvec(model, w, x);
    let loss = match op {
        "matvec" => s,
        "add_bias" => g.add_bias(model, b, s),
        "cwise_mult" => {
            let t = g.tanh(s);
            g.cwise_mult(s, t)
        }
        "tanh" => g.tanh(s),
        "sigmoid" => g.sigmoid(s),
        _ => g.relu(s),
    };
    (g, loss)
}

#[test]
fn one_dim_loss_scripts_are_race_free() {
    let model = scalar_model();
    for op in SEEDED_FORWARD {
        let (g, loss) = one_dim_loss(&model, op);
        assert_race_free(&model, &g, loss);
    }
}

fn param_values(model: &Model) -> Vec<f32> {
    model
        .params()
        .flat_map(|(_, p)| p.value.as_slice().to_vec())
        .collect()
}

#[test]
fn every_one_dim_loss_trains_like_the_reference() {
    const LR: f32 = 0.1;
    for op in SEEDED_FORWARD {
        let model = scalar_model();
        let (g, loss) = one_dim_loss(&model, op);
        let mut reference = model.clone();
        dyn_graph::exec::forward_backward(&g, &mut reference, loss);
        Trainer::new(LR).update(&mut reference);
        let want = param_values(&reference);
        assert_ne!(want, param_values(&model), "{op}: the reference must train");
        for kind in BackendKind::ALL {
            let mut trained = model.clone();
            let opts = VppsOptions {
                rpw: RpwMode::Fixed(1),
                learning_rate: LR,
                weight_decay: 0.0,
                backend: kind,
                ..VppsOptions::default()
            };
            let mut handle = Handle::new(&trained, small_device(), opts).expect("fits");
            handle.fb(&mut trained, &g, loss);
            handle.sync_get_latest_loss();
            for (got, want) in param_values(&trained).iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "{op} on {kind:?}: {got} vs reference {want}"
                );
            }
        }
    }
}
