//! Functional stand-in for the register-cached matrix chunks.

use dyn_graph::{Model, ParamId};
use vpps_tensor::ops::sgd_step;

use crate::distribute::{ChunkId, Distribution};

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
/// The arena is a per-batch working set, not a coherent copy: holders that
/// keep one between batches must still [`RegCache::load_from_model`] before
/// every run (which also zeroes the gradient half) and must never read
/// parameter values back out of it.
#[derive(Debug, Clone)]
pub struct RegCache {
    data: Vec<f32>,
    spans: Vec<(usize, usize)>,
    values: Vec<ParamSpan>,
    grads: Vec<ParamSpan>,
    /// Contribution buffer of the lowered executor, kept with the arena so a
    /// persistent arena also stops the per-run allocation.
    scratch: Vec<f32>,
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
        let total = spans.last().map_or(0, |&(offset, len)| offset + len);
        Self {
            data: vec![0.0; total],
            spans,
            values,
            grads,
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
    /// into the value half and zeroes the gradient half (paper §III-A2's
    /// "parameter load" and "in-register gradient matrix initialization"
    /// routines).
    ///
    /// # Panics
    ///
    /// Panics if a parameter of `model` does not have the shape the arena
    /// was laid out for.
    pub fn load_from_model(&mut self, model: &Model) {
        for p in &self.values {
            self.data[p.offset..p.offset + p.len]
                .copy_from_slice(model.param(p.param).value.as_slice());
        }
        let grad_start = self.grad_start();
        self.data[grad_start..].fill(0.0);
    }

    /// Kernel epilogue for the in-register gradient strategy: applies
    /// `W -= lr * (G + wd * W)` to the master copy in `model` using the
    /// cached gradients.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of `model` does not have the shape the arena
    /// was laid out for.
    pub fn apply_updates(&self, model: &mut Model, lr: f32, wd: f32) {
        for p in &self.grads {
            let grad = &self.data[p.offset..p.offset + p.len];
            let value = model.param_mut(p.param).value.as_mut_slice();
            assert_eq!(value.len(), grad.len(), "parameter shape changed");
            sgd_step(value, grad, lr, wd);
        }
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

    /// Mutably borrows one chunk's data.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        let (offset, len) = self.spans[id.index()];
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

    /// The whole arena plus a scratch buffer of at least `scratch_len`
    /// elements, for the lowered executor (which addresses the arena by
    /// literal [`Chunk::offset`](crate::distribute::Chunk::offset)s).
    pub(crate) fn arena_and_scratch(&mut self, scratch_len: usize) -> (&mut [f32], &mut [f32]) {
        if self.scratch.len() < scratch_len {
            self.scratch.resize(scratch_len, 0.0);
        }
        (&mut self.data, &mut self.scratch)
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
        cache.load_from_model(&m);
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
        cache.load_from_model(&m);
        for cid in dist.grad_chunks_of(w) {
            assert!(cache.chunk(*cid).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn apply_updates_matches_sgd() {
        let (mut m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m);
        // Put gradient 1.0 everywhere.
        for cid in dist.grad_chunks_of(w).to_vec() {
            cache.chunk_mut(cid).fill(1.0);
        }
        let before = m.param(w).value.clone();
        cache.apply_updates(&mut m, 0.1, 0.0);
        for i in 0..before.len() {
            let expect = before.as_slice()[i] - 0.1;
            assert!((m.param(w).value.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn weight_decay_applied_in_epilogue() {
        let (mut m, w, dist) = setup();
        let mut cache = RegCache::new(&dist);
        cache.load_from_model(&m);
        let before = m.param(w).value.clone();
        cache.apply_updates(&mut m, 0.5, 0.1);
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
        cache.load_from_model(&m);
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

    #[test]
    #[should_panic(expected = "register arena was laid out for another plan")]
    fn run_prepared_in_rejects_another_plans_arena() {
        use crate::engine::{self, BackendKind};
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
        let mut gpu = gpu_sim::GpuSim::new(device);
        let backend = BackendKind::Lowered.backend();
        let session = backend.prepare(&plan, &gs, ExecConfig::default(), gpu.cost_model());
        let mut arena = RegCache::new(other.distribution());
        engine::run_prepared_in(backend, &session, &mut pool, &mut m, &mut gpu, &mut arena);
    }
}
