//! Tree-LSTM sentiment analysis: the paper's flagship workload, trained with
//! VPPS and with DyNet-style agenda batching side by side.
//!
//! Every sentence's parse tree induces a differently shaped network (paper
//! Fig. 1); VPPS keeps the recurrent weight matrices in the register file
//! across all of them.
//!
//! ```text
//! cargo run --release --example tree_lstm_sentiment
//! ```

use gpu_sim::DeviceConfig;
use vpps::{Handle, RpwMode, VppsOptions};
use vpps_baselines::{BaselineExecutor, Strategy};
use vpps_datasets::{Treebank, TreebankConfig};
use vpps_models::{build_batch, TreeLstm};

fn main() -> Result<(), vpps::VppsError> {
    let hidden = 64;
    let emb = 64;
    let batch_size = 4;
    let epochs = 3;

    // Synthetic Stanford-Sentiment-Treebank-like data.
    let mut bank = Treebank::new(TreebankConfig {
        vocab: 1000,
        min_len: 4,
        max_len: 16,
        classes: 5,
        seed: 7,
    });
    let train = bank.samples(24);

    let mut model = dyn_graph::Model::new(1234);
    let arch = TreeLstm::register(&mut model, 1000, emb, hidden, 5);
    let mut baseline_model = model.clone();

    // --- VPPS training.
    let opts = VppsOptions {
        rpw: RpwMode::Profile,
        learning_rate: 0.05,
        pool_capacity: 1 << 22,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, DeviceConfig::titan_v(), opts)?;
    println!(
        "VPPS plan: {} CTAs/SM, {:?} gradients, JIT {:.1}s (modeled)",
        handle.plan().ctas_per_sm(),
        handle.plan().grad_strategy(),
        handle.jit_cost().total().as_secs()
    );

    for epoch in 0..epochs {
        let mut epoch_loss = 0.0;
        for chunk in train.chunks(batch_size) {
            let (graph, loss) = build_batch(&arch, &model, chunk);
            handle.fb(&mut model, &graph, loss);
            epoch_loss += handle.sync_get_latest_loss();
        }
        println!(
            "VPPS     epoch {epoch}: total loss {epoch_loss:8.3} (rpw now {})",
            handle.plan().rpw()
        );
    }

    // --- DyNet-AB baseline on identical data and initialization.
    let mut baseline = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::AgendaBased, 0.05);
    for epoch in 0..epochs {
        let mut epoch_loss = 0.0;
        for chunk in train.chunks(batch_size) {
            let (graph, loss) = build_batch(&arch, &baseline_model, chunk);
            epoch_loss += baseline.train_batch(&mut baseline_model, &graph, loss);
        }
        println!("DyNet-AB epoch {epoch}: total loss {epoch_loss:8.3}");
    }

    // --- Compare simulated cost: both systems expose the same `metrics()`
    //     plumbing, so the comparison reads identically for VPPS and every
    //     baseline.
    let inputs = (train.len() * epochs) as f64;
    let rows = [
        (
            "VPPS",
            handle.wall_time(),
            handle.batches(),
            handle.metrics(),
        ),
        (
            baseline.strategy().name(),
            baseline.wall_time(),
            baseline.batches(),
            baseline.metrics(),
        ),
    ];
    let tputs = rows.each_ref().map(|r| inputs / r.1.as_secs());
    println!(
        "\nsimulated throughput: {} {:.0} inputs/s, {} {:.0} inputs/s ({:.2}x)",
        rows[0].0,
        tputs[0],
        rows[1].0,
        tputs[1],
        tputs[0] / tputs[1]
    );
    for (system, _, batches, m) in &rows {
        println!(
            "{:8} over {} batches: {:.2} MB weight loads, {} kernel launches",
            system,
            batches,
            m.weight_loads_mb(),
            m.launches
        );
    }
    Ok(())
}
