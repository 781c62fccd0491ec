//! Named-entity tagging with the BiLSTM and BiLSTM-with-character-features
//! models (paper §IV-E) on a synthetic WikiNER-like corpus.
//!
//! Demonstrates the second kind of dynamicity: not just sentence *length*
//! (BiLSTM) but sentence *content* — rare words grow the graph with
//! character-LSTM subnetworks (BiLSTMwChar).
//!
//! ```text
//! cargo run --release --example bilstm_tagger
//! ```

use gpu_sim::DeviceConfig;
use vpps::{BackendKind, Handle, VppsOptions};
use vpps_datasets::{TaggedCorpus, TaggedCorpusConfig};
use vpps_models::bilstm_char::CharTaggedSentence;
use vpps_models::{build_batch, BiLstmCharTagger, DynamicModel};

fn main() -> Result<(), vpps::VppsError> {
    let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
        vocab: 2000,
        sentences: 48,
        min_len: 4,
        max_len: 12,
        seed: 99,
        ..Default::default()
    });
    println!(
        "corpus: {} sentences, {:.1}% of word occurrences are rare (<5 uses)",
        corpus.sentences().len(),
        100.0 * corpus.rare_occurrence_fraction()
    );

    let mut model = dyn_graph::Model::new(4242);
    let arch = BiLstmCharTagger::register(&mut model, 2000, 40, 32, 16, 32, 32, 9);

    let train: Vec<CharTaggedSentence> = corpus
        .sentences()
        .iter()
        .take(24)
        .cloned()
        .map(|s| CharTaggedSentence::annotate(s, &corpus))
        .collect();

    // Show the content-dependent graph shapes.
    for s in train.iter().take(4) {
        let rare = s.rare.iter().filter(|&&r| r).count();
        let (g, _) = arch.build(&model, s);
        println!(
            "sentence of {} words ({} rare) -> computation graph of {} nodes",
            s.sentence.len(),
            rare,
            g.len()
        );
    }

    // Backend selectable per handle.
    let opts = VppsOptions {
        learning_rate: 0.1,
        pool_capacity: 1 << 22,
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, DeviceConfig::titan_v(), opts)?;
    println!(
        "\nVPPS plan: {} CTAs/SM, gradient strategy {:?}, backend {}",
        handle.plan().ctas_per_sm(),
        handle.plan().grad_strategy(),
        handle.backend().name()
    );

    for epoch in 0..4 {
        let mut total = 0.0;
        for chunk in train.chunks(4) {
            let (graph, loss) = build_batch(&arch, &model, chunk);
            handle.fb(&mut model, &graph, loss);
            total += handle.sync_get_latest_loss();
        }
        // Per-word average loss: ln(9) ≈ 2.20 at random initialization.
        let words: usize = train.iter().map(|s| s.sentence.len()).sum();
        println!(
            "epoch {epoch}: avg per-word loss {:.4}",
            total / words as f32
        );
    }

    let metrics = handle.metrics();
    println!(
        "\n{} persistent kernel launches, {:.1} MB weights loaded, simulated time {}",
        metrics.launches,
        metrics.weight_loads_mb(),
        handle.wall_time()
    );
    Ok(())
}
