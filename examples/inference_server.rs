//! Persistent-kernel inference: serve sentiment predictions from a trained
//! Tree-LSTM with `Handle::infer` — forward-only scripts, register-cached
//! weights, no parameter update, and one kernel per request batch.
//!
//! Also demonstrates checkpointing: the model is trained, saved with
//! `save_model`, reloaded as a fresh deployment copy, and served.
//!
//! ```text
//! cargo run --release --example inference_server
//! ```

use dyn_graph::{load_model, save_model};
use gpu_sim::{DeviceConfig, TrafficTag};
use vpps::{BackendKind, Handle, VppsOptions};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{build_batch, DynamicModel, TreeLstm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = 800;
    let dim = 48;
    let mut bank = Treebank::new(TreebankConfig {
        vocab,
        min_len: 4,
        max_len: 12,
        classes: 5,
        seed: 31,
    });

    // --- phase 1: train briefly.
    let mut model = dyn_graph::Model::new(7777);
    let arch = TreeLstm::register(&mut model, vocab, dim, dim, 5);
    // Serve with the lowered executor: scripts compile once per plan into
    // cached micro-ops, so repeated request shapes skip dispatch and analysis.
    let opts = VppsOptions {
        learning_rate: 0.08,
        pool_capacity: 1 << 22,
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    };
    let mut trainer_handle = Handle::new(&model, DeviceConfig::titan_v(), opts)?;
    let train_set = bank.samples(32);
    for epoch in 0..2 {
        for chunk in train_set.chunks(4) {
            let (g, l) = build_batch(&arch, &model, chunk);
            trainer_handle.fb(&mut model, &g, l);
        }
        println!(
            "trained epoch {epoch}: last loss {:.3}",
            trainer_handle.sync_get_latest_loss()
        );
    }

    // --- phase 2: checkpoint and "deploy".
    let checkpoint = save_model(&model);
    println!("checkpoint: {} bytes", checkpoint.len());
    let mut deployed = load_model(&checkpoint)?;

    // A fresh handle for the deployment process (its own JIT specialization,
    // which a kernel cache would amortize — see vpps::PlanCache).
    let mut server = Handle::new(&deployed, DeviceConfig::titan_v(), opts)?;

    // --- phase 3: serve requests of varying tree shapes.
    let requests = bank.samples(6);
    println!("\nserving {} requests:", requests.len());
    for (i, req) in requests.iter().enumerate() {
        let (g, loss) = arch.build(&deployed, req);
        let logits_node = g.args(loss)[0]; // classifier output feeding the loss
        let logits = server.infer(&mut deployed, &g, logits_node);
        let (pred, score) = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("five classes");
        println!(
            "  request {i}: {} tokens -> class {pred} (logit {score:.3}, graph {} nodes)",
            req.tree.len(),
            g.len()
        );
    }

    let metrics = server.metrics();
    println!(
        "\nserver stats: {} kernels, {:.2} MB weight loads (one per request), wall {}",
        metrics.launches,
        metrics.weight_loads_mb(),
        server.wall_time()
    );
    println!(
        "no weight write-back occurred: {} weight store bytes",
        metrics.dram.stores(TrafficTag::Weight)
    );
    Ok(())
}
