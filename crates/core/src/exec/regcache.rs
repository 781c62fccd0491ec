//! Functional stand-in for the register-cached matrix chunks.

use dyn_graph::params::Parameter;
use dyn_graph::{Model, ParamId};
use vpps_tensor::ops::sgd_step;

use crate::distribute::{ChunkId, Distribution};
use crate::engine::{split, Helpers};

/// Where one parameter's whole matrix (value or gradient) sits in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParamSpan {
    param: ParamId,
    offset: usize,
    len: usize,
}

/// Storage for every register-cached chunk: one flat arena laid out by the
/// plan's [`Chunk::offset`](crate::distribute::Chunk::offset)s, with the
/// `(offset, len)` of each [`ChunkId`].
///
/// On hardware these values live in literal architected registers of the
/// owning CTA; reads and writes of chunk data therefore cost *no DRAM
/// traffic* during script execution — only the prologue load and epilogue
/// write-back touch memory, which is the entire point of the paper.
///
/// [`Distribution::build`] emits chunks value pass first, parameter by
/// parameter, in row order, so each parameter's chunks tile one contiguous
/// arena range that *is* the master matrix's row-major layout
/// ([`RegCache::new`] asserts this). The prologue and epilogue therefore work
/// on whole parameters, not on chunks.
///
/// The value half stays resident between batches, as the paper's weights
/// stay in registers between invocations: it records the [`Model::stamp`]
/// it last loaded, and [`RegCache::load_from_model`] copies nothing while
/// the model still carries that stamp. Every change to a master value draws
/// a new stamp (`Model::param_mut`), and nothing but the load writes the
/// value half — [`RegCache::chunk_mut`] hands out gradient chunks only and
/// lowering refuses a chunk op that writes a value chunk — so a resident
/// value is always the model's. Holders still call `load_from_model` before
/// every run, [`RegCache::zero_grads`] before every run that accumulates
/// gradients, and never read parameter values back out of it.
#[derive(Debug, Clone)]
pub struct RegCache {
    data: Vec<f32>,
    spans: Vec<(usize, usize)>,
    values: Vec<ParamSpan>,
    grads: Vec<ParamSpan>,
    /// Stamp of the model the value half was last loaded from.
    loaded: Option<u64>,
    /// Contribution buffers of the lowered executor, one per sweeping
    /// thread, kept with the arena so a persistent arena also stops the
    /// per-run allocation.
    scratch: Vec<f32>,
}

/// Where to cut `spans` (in arena order) into two runs of about equal
/// length: the index of the first span of the second run, and its offset
/// (the end of the spans when there is no second run).
fn halves(spans: &[ParamSpan]) -> (usize, usize) {
    let (start, end) = match (spans.first(), spans.last()) {
        (Some(first), Some(last)) => (first.offset, last.offset + last.len),
        _ => return (0, 0),
    };
    let cut = spans.partition_point(|p| 2 * (p.offset - start) < end - start);
    (cut, spans.get(cut).map_or(end, |p| p.offset))
}

impl RegCache {
    /// Allocates zeroed storage for every chunk of `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` does not emit value chunks before gradient chunks
    /// with each parameter's chunks consecutive and in row order.
    pub fn new(dist: &Distribution) -> Self {
        let mut spans = Vec::with_capacity(dist.chunks().len());
        let mut values: Vec<ParamSpan> = Vec::new();
        let mut grads: Vec<ParamSpan> = Vec::new();
        for c in dist.chunks() {
            let offset = c.offset as usize;
            let group = if c.is_grad {
                &mut grads
            } else {
                assert!(
                    grads.is_empty(),
                    "value chunks must precede gradient chunks"
                );
                &mut values
            };
            match group.last_mut() {
                Some(p) if p.param == c.param => {
                    assert_eq!(
                        p.len,
                        c.row_start * c.cols,
                        "a parameter's chunks must be consecutive and in row order"
                    );
                    p.len += c.len();
                }
                _ => {
                    assert_eq!(c.row_start, 0, "a parameter's chunks must start at row 0");
                    group.push(ParamSpan {
                        param: c.param,
                        offset,
                        len: c.len(),
                    });
                }
            }
            spans.push((offset, c.len()));
        }
        for half in [&values, &grads] {
            assert!(
                half.windows(2)
                    .all(|w| w[0].param.index() < w[1].param.index()),
                "parameters must come in registration order"
            );
        }
        let total = spans.last().map_or(0, |&(offset, len)| offset + len);
        Self {
            data: vec![0.0; total],
            spans,
            values,
            grads,
            loaded: None,
            scratch: Vec::new(),
        }
    }

    /// First element of the gradient half (`data.len()` without one).
    fn grad_start(&self) -> usize {
        self.grads.first().map_or(self.data.len(), |g| g.offset)
    }

    /// `true` if this arena has exactly the chunk layout of `dist`.
    pub fn laid_out_for(&self, dist: &Distribution) -> bool {
        self.spans.len() == dist.chunks().len()
            && dist
                .chunks()
                .iter()
                .zip(&self.spans)
                .all(|(c, &(_, len))| c.len() == len)
    }

    /// Kernel prologue: copies every parameter's master value from `model`
    /// into the value half (paper §III-A2's "parameter load" routine),
    /// unless the value half already holds them — it was last loaded from a
    /// model with `model`'s [`Model::stamp`]. Returns whether it copied.
    /// The parameters are cut into two halves that `helpers` may copy on
    /// two threads.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of `model` does not have the shape the arena
    /// was laid out for.
    pub fn load_from_model(&mut self, model: &Model, helpers: Helpers) -> bool {
        if self.loaded == Some(model.stamp()) {
            return false;
        }
        let (cut, at) = halves(&self.values);
        let (first, second) = self.values.split_at(cut);
        let grad_start = self.grad_start();
        let (a, b) = self.data[..grad_start].split_at_mut(at);
        let copy = |data: &mut [f32], spans: &[ParamSpan], base: usize| {
            for p in spans {
                let at = p.offset - base;
                data[at..at + p.len].copy_from_slice(model.param(p.param).value.as_slice());
            }
        };
        split(
            helpers,
            grad_start as u64,
            || copy(a, first, 0),
            || copy(b, second, at),
        );
        self.loaded = Some(model.stamp());
        true
    }

    /// Kernel prologue of a training run: zeroes the gradient half (paper
    /// §III-A2's "in-register gradient matrix initialization" routine), cut
    /// in two halves that `helpers` may zero on two threads.
    pub fn zero_grads(&mut self, helpers: Helpers) {
        let grad_start = self.grad_start();
        let grads = &mut self.data[grad_start..];
        let len = grads.len();
        let (a, b) = grads.split_at_mut(len / 2);
        split(helpers, len as u64, || a.fill(0.0), || b.fill(0.0));
    }

    /// Kernel epilogue for the in-register gradient strategy: applies
    /// `W -= lr * (G + wd * W)` to the master copy in `model` using the
    /// cached gradients, the parameters cut into two halves that `helpers`
    /// may step on two threads.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of `model` does not have the shape the arena
    /// was laid out for.
    pub fn apply_updates(&self, model: &mut Model, lr: f32, wd: f32, helpers: Helpers) {
        if self.grads.is_empty() {
            return;
        }
        let (cut, _) = halves(&self.grads);
        let (first, second) = self.grads.split_at(cut);
        let params = model.params_mut();
        let split_at = second.first().map_or(params.len(), |p| p.param.index());
        let (a, b) = params.split_at_mut(split_at);
        let step = |params: &mut [Parameter], spans: &[ParamSpan], base: usize| {
            for p in spans {
                let grad = &self.data[p.offset..p.offset + p.len];
                let value = params[p.param.index() - base].value.as_mut_slice();
                assert_eq!(value.len(), grad.len(), "parameter shape changed");
                sgd_step(value, grad, lr, wd);
            }
        };
        let work = self.data.len() - self.grad_start();
        split(
            helpers,
            work as u64,
            || step(a, first, 0),
            || step(b, second, split_at),
        );
    }

    /// Borrows one chunk's data (row-major, `rows × cols` of the chunk).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn chunk(&self, id: ChunkId) -> &[f32] {
        let (offset, len) = self.spans[id.index()];
        &self.data[offset..offset + len]
    }

    /// Mutably borrows one gradient chunk's data. Value chunks are written
    /// by [`RegCache::load_from_model`] alone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or names a value chunk.
    pub fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        let (offset, len) = self.spans[id.index()];
        assert!(
            offset >= self.grad_start(),
            "chunk {} holds parameter values, which only the prologue writes",
            id.index()
        );
        &mut self.data[offset..offset + len]
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if the cache holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The whole arena plus a scratch buffer of `2 · scratch_len`
    /// elements, one half per sweeping thread, for the lowered executor
    /// (which addresses the arena by literal
    /// [`Chunk::offset`](crate::distribute::Chunk::offset)s).
    pub(crate) fn arena_and_scratch(&mut self, scratch_len: usize) -> (&mut [f32], &mut [f32]) {
        if self.scratch.len() < 2 * scratch_len {
            self.scratch.resize(2 * scratch_len, 0.0);
        }
        (&mut self.data, &mut self.scratch[..2 * scratch_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::{DistGeometry, ParamShape};
    use gpu_sim::DeviceConfig;

    fn setup() -> (Model, dyn_graph::ParamId, Distribution) {
        let mut m = Model::new(3);
        let w = m.add_matrix("W", 32, 16);
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 2;
        let geo = DistGeometry::derive(&d, 1, 1, 16).unwrap();
        let shapes = [ParamShape {
            id: w,
            rows: 32,
            cols: 16,
        }];
        let dist = Distribution::build(&shapes, geo, true).unwrap();
        (m, w, dist)
    }

    #[test]
    fn load_reconstructs_the_matrix() {
        let (m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m, Helpers::Off);
        // Every value chunk's rows must equal the master rows.
        for cid in dist.value_chunks_of(w) {
            let c = dist.chunk(*cid);
            let data = cache.chunk(*cid);
            for r in 0..c.rows {
                assert_eq!(
                    &data[r * c.cols..(r + 1) * c.cols],
                    m.param(w).value.row(c.row_start + r)
                );
            }
        }
    }

    #[test]
    fn grad_chunks_start_zero() {
        let (m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m, Helpers::Off);
        for cid in dist.grad_chunks_of(w) {
            assert!(cache.chunk(*cid).iter().all(|&v| v == 0.0));
        }
        for cid in dist.grad_chunks_of(w).to_vec() {
            cache.chunk_mut(cid).fill(1.0);
        }
        cache.zero_grads(Helpers::Off);
        for cid in dist.grad_chunks_of(w) {
            assert!(cache.chunk(*cid).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "holds parameter values, which only the prologue writes")]
    fn value_chunks_are_not_lent_mutably() {
        let (_, w, dist) = setup();
        RegCache::new(&dist).chunk_mut(dist.value_chunks_of(w)[0]);
    }

    /// The value half is copied when the model's stamp differs from the one
    /// it last loaded, and only then.
    #[test]
    fn loads_copy_only_when_the_stamp_changes() {
        let (mut m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        assert!(
            cache.load_from_model(&m, Helpers::Off),
            "a fresh arena loads"
        );
        assert!(
            !cache.load_from_model(&m, Helpers::Off),
            "an unchanged model does not"
        );
        assert!(
            !cache.load_from_model(&m.clone(), Helpers::Off),
            "nor does a clone of it"
        );
        m.param_mut(w).value.as_mut_slice()[0] = 42.0;
        assert!(
            cache.load_from_model(&m, Helpers::Off),
            "a changed model does"
        );
        assert_eq!(cache.chunk(dist.value_chunks_of(w)[0])[0], 42.0);
    }

    #[test]
    fn apply_updates_matches_sgd() {
        let (mut m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m, Helpers::Off);
        // Put gradient 1.0 everywhere.
        for cid in dist.grad_chunks_of(w).to_vec() {
            cache.chunk_mut(cid).fill(1.0);
        }
        let before = m.param(w).value.clone();
        cache.apply_updates(&mut m, 0.1, 0.0, Helpers::Off);
        for i in 0..before.len() {
            let expect = before.as_slice()[i] - 0.1;
            assert!((m.param(w).value.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn weight_decay_applied_in_epilogue() {
        let (mut m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m, Helpers::Off);
        let before = m.param(w).value.clone();
        cache.apply_updates(&mut m, 0.5, 0.1, Helpers::Off);
        for i in 0..before.len() {
            let v = before.as_slice()[i];
            let expect = v - 0.5 * 0.1 * v;
            assert!((m.param(w).value.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    /// Two matrices and a bias with gradients: several chunks per matrix,
    /// a short final chunk, and a single-row parameter.
    fn mixed_setup() -> (Model, Distribution) {
        let mut m = Model::new(5);
        let shapes = [
            (m.add_matrix("W", 20, 16), 20, 16),
            (m.add_matrix("V", 9, 12), 9, 12),
            (m.add_bias("b", 16), 1, 16),
        ]
        .map(|(id, rows, cols)| ParamShape { id, rows, cols });
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 2;
        let geo = DistGeometry::derive(&d, 1, 1, 16).unwrap();
        (m, Distribution::build(&shapes, geo, true).unwrap())
    }

    #[test]
    fn spans_tile_the_arena_exactly() {
        let (m, dist) = mixed_setup();
        let mut cache = RegCache::new(&dist);
        assert!(cache.laid_out_for(&dist));
        let mut next = 0;
        for (i, c) in dist.chunks().iter().enumerate() {
            assert_eq!(
                c.offset as usize, next,
                "chunk {i} follows its predecessor in `ChunkId` order"
            );
            assert_eq!(cache.spans[i], (next, c.len()), "chunk {i} is stored there");
            next += c.len();
        }
        assert_eq!(next, cache.data.len(), "no element outside a chunk");
        assert_eq!(
            cache.grad_start() * 2,
            cache.data.len(),
            "gradients mirror values"
        );

        // Each parameter's chunks together are its row-major master matrix.
        cache.load_from_model(&m, Helpers::Off);
        for (id, p) in m.params() {
            let first = dist.value_chunks_of(id)[0];
            let start = cache.spans[first.index()].0;
            assert_eq!(
                &cache.data[start..start + p.value.len()],
                p.value.as_slice()
            );
        }
        assert!(cache.data[cache.grad_start()..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn another_distributions_arena_is_recognized() {
        let (_, dist) = mixed_setup();
        let (_, _, other) = setup();
        assert!(!RegCache::new(&other).laid_out_for(&dist));
        assert!(!RegCache::new(&dist).laid_out_for(&other));
    }

    /// One arena kept across train → infer → train gives the loss and
    /// parameter bits of a fresh arena per sweep, on both backends: the
    /// inference sweep skips the gradient zero-fill and the first sweep's
    /// gradients are still in the arena, so the second training sweep's
    /// zero-fill is what keeps them out of its update.
    #[test]
    fn a_persistent_arena_across_train_infer_train_matches_fresh_arenas() {
        use crate::engine::BackendKind;
        use crate::exec::interp::ExecConfig;
        use crate::script::{generate, TableLayout};
        use crate::specialize::KernelPlan;

        let mut model = Model::new(4);
        let w = model.add_matrix("W", 24, 24);
        let b = model.add_bias("b", 24);
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 2;
        let plan = KernelPlan::build(&model, &device, 1).unwrap();
        let mut g = dyn_graph::Graph::new();
        let x = g.input((0..24).map(|i| (i as f32 * 0.3).sin()).collect());
        let h = g.matvec(&model, w, x);
        let h = g.add_bias(&model, b, h);
        let h = g.tanh(h);
        let loss = g.pick_neg_log_softmax(h, 3);

        // One sweep on `arena`, returning the loss bits and the parameters.
        let step = |model: &mut Model, train: bool, backend: BackendKind, arena: &mut RegCache| {
            let mut pool = vpps_tensor::Pool::with_capacity(1 << 16);
            let tables = TableLayout::install(model, &mut pool).unwrap();
            let gen = if train {
                generate::generate
            } else {
                generate::generate_forward_only
            };
            let gs = gen(&g, loss, &plan, &mut pool, &tables).unwrap();
            let cfg = ExecConfig {
                apply_update: train,
                ..ExecConfig::default()
            };
            let gpu = gpu_sim::GpuSim::new(device.clone());
            let session = backend.backend().prepare(&plan, &gs, cfg, gpu.cost_model());
            session.sweep.run(&mut pool, model, arena);
            pool.slice(session.sweep.loss_offset(), 1)[0].to_bits()
        };
        let param_bits = |model: &Model| -> Vec<u32> {
            model
                .params()
                .flat_map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        for backend in [BackendKind::EventInterp, BackendKind::Lowered] {
            let (mut kept, mut fresh) = (model.clone(), model.clone());
            let mut arena = RegCache::new(plan.distribution());
            for train in [true, false, true] {
                let got = step(&mut kept, train, backend, &mut arena);
                let want = step(
                    &mut fresh,
                    train,
                    backend,
                    &mut RegCache::new(plan.distribution()),
                );
                assert_eq!(got, want, "{backend:?} loss, train={train}");
                assert_eq!(
                    param_bits(&kept),
                    param_bits(&fresh),
                    "{backend:?} parameters"
                );
            }
            assert_ne!(
                param_bits(&kept),
                param_bits(&model),
                "training moved the parameters"
            );
        }
    }

    #[test]
    #[should_panic(expected = "register arena was laid out for another plan")]
    fn a_sweep_rejects_another_plans_arena() {
        use crate::engine::BackendKind;
        use crate::exec::interp::ExecConfig;
        use crate::script::{generate, TableLayout};
        use crate::specialize::KernelPlan;

        let mut m = Model::new(9);
        let w = m.add_matrix("W", 24, 24);
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 2;
        // rpw 1 cuts W into three 8-row chunks, rpw 3 into one.
        let plan = KernelPlan::build(&m, &device, 1).unwrap();
        let other = KernelPlan::build(&m, &device, 3).unwrap();
        let mut pool = vpps_tensor::Pool::with_capacity(1 << 16);
        let tables = TableLayout::install(&m, &mut pool).unwrap();
        let mut g = dyn_graph::Graph::new();
        let x = g.input(vec![0.5; 24]);
        let y = g.matvec(&m, w, x);
        let loss = g.pick_neg_log_softmax(y, 0);
        let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        let gpu = gpu_sim::GpuSim::new(device);
        let backend = BackendKind::Lowered.backend();
        let session = backend.prepare(&plan, &gs, ExecConfig::default(), gpu.cost_model());
        let mut arena = RegCache::new(other.distribution());
        session.sweep.run(&mut pool, &mut m, &mut arena);
    }
}
