//! Training workloads: `Handle::fb` over Tree-LSTM and BiLSTM batch graphs.

use std::time::Instant;

use dyn_graph::{Graph, Model, NodeId, Trainer};
use gpu_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpps::{BackendKind, Handle, VppsOptions};
use vpps_datasets::{
    ParseTree, TaggedCorpus, TaggedCorpusConfig, TaggedSentence, TreeSample, Treebank,
    TreebankConfig,
};
use vpps_models::{build_batch, BiLstmTagger, TreeLstm};

use crate::alloc;
use crate::stats::Fnv;
use crate::workload::{Rep, SimResult, TrainSpec};

/// SGD step of every training workload; small enough that summed batch
/// losses stay finite at hidden 256.
pub const LEARNING_RATE: f32 = 0.01;

/// Device memory pool, `f32` elements: the largest BiLSTM batch graph plus
/// the resident embedding table fit with room to spare.
pub const POOL_CAPACITY: usize = 1 << 24;

enum Arch {
    Tree(TreeLstm),
    BiLstm(BiLstmTagger),
}

enum Samples {
    Trees(Vec<TreeSample>),
    Tagged(Vec<TaggedSentence>),
}

/// A training workload's generated inputs: the registered model and the
/// sample set, both a pure function of `(spec, seed)`.
pub struct TrainInputs {
    /// The freshly initialised model.
    pub model: Model,
    arch: Arch,
    samples: Samples,
    batch: usize,
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Orders `samples` (sorted by length) so that consecutive chunks of `batch`
/// form length-stratified batches: with `n` batches, each run of `2n`
/// similar-length samples is dealt two to a batch in seeded random order,
/// then every batch's members are shuffled. Batch sizes in tokens then
/// differ by a few percent between batches and seeds, not by tens of
/// percent as under a plain shuffle (which this is when `batch == 1`).
fn arrange<T>(mut samples: Vec<T>, batch: usize, rng: &mut StdRng) -> Vec<T> {
    let n = samples.len() / batch;
    let mut batches: Vec<Vec<T>> = (0..n).map(|_| Vec::with_capacity(batch)).collect();
    for stratum in samples.chunks_mut(2 * n) {
        shuffle(stratum, rng);
    }
    for (j, sample) in samples.into_iter().enumerate() {
        batches[j % n].push(sample);
    }
    for b in &mut batches {
        shuffle(b, rng);
    }
    batches.into_iter().flatten().collect()
}

impl TrainInputs {
    /// Generates the inputs. Sentence lengths cycle through the paper's
    /// range (trees 4–24, sentences 5–24) and batches are length-stratified,
    /// so every seed carries the same amount of work; the seed decides
    /// tokens, tree shapes, labels and order.
    pub fn generate(spec: &TrainSpec, seed: u64) -> Self {
        assert!(
            spec.batch > 0 && spec.inputs.is_multiple_of(spec.batch),
            "inputs fill whole batches"
        );
        let mut model = Model::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0DE5);
        let (min_len, lengths) = if spec.tree { (4, 21) } else { (5, 20) };
        let mut per_len = vec![0usize; lengths];
        for i in 0..spec.inputs {
            per_len[i % lengths] += 1;
        }
        let len_seed = |len: usize| seed ^ ((len as u64) << 32) ^ 0x7EA7;
        if spec.tree {
            let arch = TreeLstm::register(&mut model, spec.vocab, spec.hidden, spec.hidden, 5);
            let mut samples = Vec::with_capacity(spec.inputs);
            for (i, &n) in per_len.iter().enumerate() {
                let len = min_len + i;
                let mut bank = Treebank::new(TreebankConfig {
                    vocab: spec.vocab,
                    min_len: len,
                    max_len: len,
                    classes: 5,
                    seed: len_seed(len),
                });
                samples.extend(bank.samples(n));
            }
            Self {
                model,
                arch: Arch::Tree(arch),
                samples: Samples::Trees(arrange(samples, spec.batch, &mut rng)),
                batch: spec.batch,
            }
        } else {
            let arch = BiLstmTagger::register(
                &mut model,
                spec.vocab,
                spec.hidden,
                spec.hidden,
                spec.hidden,
                9,
            );
            let mut samples = Vec::with_capacity(spec.inputs);
            for (i, &n) in per_len.iter().enumerate() {
                let len = min_len + i;
                let corpus = TaggedCorpus::generate(TaggedCorpusConfig {
                    vocab: spec.vocab,
                    sentences: n,
                    min_len: len,
                    max_len: len,
                    seed: len_seed(len),
                    ..TaggedCorpusConfig::default()
                });
                samples.extend_from_slice(corpus.sentences());
            }
            Self {
                model,
                arch: Arch::BiLstm(arch),
                samples: Samples::Tagged(arrange(samples, spec.batch, &mut rng)),
                batch: spec.batch,
            }
        }
    }

    /// Inputs per epoch.
    pub fn inputs(&self) -> usize {
        match &self.samples {
            Samples::Trees(v) => v.len(),
            Samples::Tagged(v) => v.len(),
        }
    }

    /// Batches per epoch.
    pub fn batches(&self) -> usize {
        self.inputs() / self.batch
    }

    /// Builds batch `b`'s super-graph against `model` — what a define-by-run
    /// user pays before every `fb`.
    pub fn build(&self, model: &Model, b: usize) -> (Graph, NodeId) {
        let range = b * self.batch..(b + 1) * self.batch;
        match (&self.arch, &self.samples) {
            (Arch::Tree(a), Samples::Trees(s)) => build_batch(a, model, &s[range]),
            (Arch::BiLstm(a), Samples::Tagged(s)) => build_batch(a, model, &s[range]),
            _ => unreachable!("arch and samples are generated as a pair"),
        }
    }

    /// Hash over the generated samples and each batch's node count, so a
    /// change to `datasets` or `models` that alters the load is visible.
    pub fn fingerprint(&self) -> u64 {
        fn tree(t: &ParseTree, h: &mut Fnv) {
            match t {
                ParseTree::Leaf { token } => h.write(*token as u64),
                ParseTree::Node { left, right } => {
                    h.write(u64::MAX);
                    tree(left, h);
                    tree(right, h);
                }
            }
        }
        let mut h = Fnv::default();
        match &self.samples {
            Samples::Trees(v) => {
                for s in v {
                    tree(&s.tree, &mut h);
                    h.write(s.label as u64);
                }
            }
            Samples::Tagged(v) => {
                for s in v {
                    for (w, t) in s.words.iter().zip(&s.tags) {
                        h.write(*w as u64);
                        h.write(*t as u64);
                    }
                    h.write(u64::MAX);
                }
            }
        }
        for b in 0..self.batches() {
            h.write(self.build(&self.model, b).0.len() as u64);
        }
        h.finish()
    }
}

/// Options of every training handle.
pub fn handle_opts(backend: BackendKind) -> VppsOptions {
    VppsOptions {
        backend,
        pool_capacity: POOL_CAPACITY,
        learning_rate: LEARNING_RATE,
        ..VppsOptions::default()
    }
}

/// Specializes a fresh training handle for `model`.
pub fn new_handle(model: &Model, backend: BackendKind) -> Handle {
    Handle::new(model, DeviceConfig::titan_v(), handle_opts(backend))
        .expect("workload model fits the device")
}

/// What one pass over the batches observed.
pub struct Pass {
    /// Loss bits per timed batch, in order.
    pub loss_bits: Vec<u32>,
    /// Host µs of each `fb` call.
    pub call_us: Vec<f64>,
    /// Host µs of each graph build.
    pub build_us: Vec<f64>,
    /// Simulated µs each `fb` added to the steady-state clock.
    pub sim_us: Vec<f64>,
    /// Graph nodes over all timed batches.
    pub nodes: u64,
    /// Inputs over all timed batches.
    pub inputs: u64,
    /// When the timed region began.
    pub started: Instant,
    /// Host seconds of the timed region.
    pub host_s: f64,
    /// Heap allocations of the timed region.
    pub allocs: u64,
}

/// Runs the untimed warm-up epochs.
pub fn warm_up(inputs: &TrainInputs, model: &mut Model, handle: &mut Handle, spec: &TrainSpec) {
    for _ in 0..spec.warm_epochs {
        for b in 0..inputs.batches() {
            let (g, l) = inputs.build(model, b);
            handle.fb(model, &g, l);
        }
    }
}

/// Runs the timed epochs (optionally only the first `limit` batches) on
/// `handle`. Timed region of one batch: build the graph, then `fb`.
pub fn run_timed(
    inputs: &TrainInputs,
    model: &mut Model,
    handle: &mut Handle,
    spec: &TrainSpec,
    limit: Option<usize>,
) -> Pass {
    let total = (spec.timed_epochs * inputs.batches()).min(limit.unwrap_or(usize::MAX));
    let mut pass = Pass {
        loss_bits: Vec::with_capacity(total),
        call_us: Vec::with_capacity(total),
        build_us: Vec::with_capacity(total),
        sim_us: Vec::with_capacity(total),
        nodes: 0,
        inputs: 0,
        started: Instant::now(),
        host_s: 0.0,
        allocs: 0,
    };
    alloc::arm();
    pass.started = Instant::now();
    for i in 0..total {
        let b = i % inputs.batches();
        let t0 = Instant::now();
        let (g, l) = inputs.build(model, b);
        let t1 = Instant::now();
        let sim0 = handle.steady_state_time();
        let stale = handle.fb(model, &g, l);
        let t2 = Instant::now();
        if i > 0 {
            pass.loss_bits.push(stale.to_bits());
        }
        pass.build_us.push((t1 - t0).as_secs_f64() * 1e6);
        pass.call_us.push((t2 - t1).as_secs_f64() * 1e6);
        pass.sim_us
            .push((handle.steady_state_time() - sim0).as_us());
        pass.nodes += g.len() as u64;
        pass.inputs += spec.batch as u64;
    }
    pass.loss_bits.push(handle.sync_get_latest_loss().to_bits());
    pass.host_s = pass.started.elapsed().as_secs_f64();
    pass.allocs = alloc::disarm();
    pass
}

fn hash_losses(bits: &[u32]) -> u64 {
    let mut h = Fnv::default();
    for &b in bits {
        h.write(u64::from(b));
    }
    h.finish()
}

/// One repetition: generate the data, register the model, specialize a
/// fresh `Handle`, warm up, then time every op. Returns the repetition and
/// its loss bits (for the cross-checks).
pub fn run_rep(spec: &TrainSpec, seed: u64) -> (Rep, Vec<u32>) {
    let t0 = Instant::now();
    let inputs = TrainInputs::generate(spec, seed);
    let mut model = inputs.model.clone();
    let mut handle = new_handle(&model, BackendKind::Lowered);
    warm_up(&inputs, &mut model, &mut handle, spec);
    let pass = run_timed(&inputs, &mut model, &mut handle, spec, None);
    let setup_s = (pass.started - t0).as_secs_f64();
    let failed = pass
        .loss_bits
        .iter()
        .filter(|b| !f32::from_bits(**b).is_finite())
        .count() as u64;
    let sim_s: f64 = pass.sim_us.iter().sum::<f64>() / 1e6;
    let sim = SimResult::new(
        pass.inputs as f64 / sim_s,
        &pass.sim_us,
        hash_losses(&pass.loss_bits),
    );
    let rep = Rep {
        setup_s,
        host_s: pass.host_s,
        ops: pass.inputs,
        // A non-finite batch loss fails every input of that batch.
        failed: failed * spec.batch as u64,
        allocs: pass.allocs,
        seg_us: pass
            .build_us
            .iter()
            .zip(&pass.call_us)
            .map(|(b, c)| b + c)
            .collect(),
        call_us: pass.call_us,
        sim,
    };
    (rep, pass.loss_bits)
}

/// Output checks for a training workload, against the first repetition's
/// losses. Returns one message per failed check.
pub fn check(inputs: &TrainInputs, spec: &TrainSpec, lowered_bits: &[u32]) -> Vec<String> {
    let mut errors = Vec::new();

    // The first 16 timed batches on the reference interpreter must give the
    // same loss bits. Warm-up epochs are replayed too: they move the model.
    let n = 16usize.div_ceil(spec.batch).min(lowered_bits.len());
    let mut model = inputs.model.clone();
    let mut handle = new_handle(&model, BackendKind::EventInterp);
    warm_up(inputs, &mut model, &mut handle, spec);
    let interp = run_timed(inputs, &mut model, &mut handle, spec, Some(n));
    if interp.loss_bits[..n] != lowered_bits[..n] {
        errors.push(format!(
            "first {n} batch losses differ between Lowered and EventInterp"
        ));
    }

    // The first 4 batches of a fresh model must agree with the reference
    // autodiff executor within tolerance (different summation order).
    let mut model = inputs.model.clone();
    let mut handle = new_handle(&model, BackendKind::Lowered);
    let mut reference = inputs.model.clone();
    let trainer = Trainer::new(LEARNING_RATE);
    for b in 0..4.min(inputs.batches()) {
        let (g, l) = inputs.build(&model, b);
        handle.fb(&mut model, &g, l);
        let got = handle.sync_get_latest_loss();
        let (rg, rl) = inputs.build(&reference, b);
        let want = dyn_graph::exec::forward_backward(&rg, &mut reference, rl);
        trainer.update(&mut reference);
        // NaN on either side fails too.
        let close = (got - want).abs() <= 5e-3 + 1e-3 * want.abs();
        if !close {
            errors.push(format!(
                "batch {b}: loss {got} vs dyn_graph::exec reference {want}"
            ));
        }
    }
    errors
}
