//! The batch pipeline stepped from outside: what `Handle::fb` / `infer` do
//! per batch, rebuilt from the layers' public entry points with a
//! benchmark-side span around each call. The traced pass checks that its
//! results are bit-identical to the `Handle`'s, so the split it reports is a
//! split of the same work.

use std::time::Instant;

use dyn_graph::{Graph, Model, NodeId, Op};
use gpu_sim::{DeviceConfig, GpuSim};
use vpps::engine::{self, Session};
use vpps::exec::fallback::apply_gemm_fallback;
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, generate_forward_only, TableLayout};
use vpps::{BackendKind, KernelPlan, LoweredCache};
use vpps_tensor::Pool;

use crate::spans::Spans;

/// Counts the stepped pipeline accumulates next to its spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Batches stepped.
    pub batches: u64,
    /// Script instructions generated (forward + backward).
    pub script_instrs: u64,
    /// Encoded script bytes.
    pub script_bytes: u64,
    /// Barriers in the generated scripts.
    pub barriers: u64,
    /// Instructions the simulated kernel executed.
    pub sim_instrs: u64,
    /// Ops whose `LoweredCache::get_or_lower` call lowered.
    pub lower_miss_ops: Vec<u32>,
}

/// One plan, pool, simulated device and lowered-script cache — the state a
/// `Handle` owns — driven layer by layer.
pub struct Stepper {
    plan: KernelPlan,
    pool: Pool,
    tables: TableLayout,
    gpu: GpuSim,
    cache: LoweredCache,
    backend: BackendKind,
    learning_rate: f32,
    /// Host ms `KernelPlan::build` took.
    pub plan_build_ms: f64,
    /// What the steps counted so far.
    pub counts: Counts,
}

impl Stepper {
    /// Specializes `model` and installs its tables, as `Handle::new` does.
    pub fn new(
        model: &Model,
        backend: BackendKind,
        pool_capacity: usize,
        learning_rate: f32,
    ) -> Self {
        let device = DeviceConfig::titan_v();
        let t0 = Instant::now();
        let plan = KernelPlan::build(model, &device, 1).expect("workload model fits the device");
        let plan_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut pool = Pool::with_capacity(pool_capacity);
        let tables = TableLayout::install(model, &mut pool).expect("tables fit the pool");
        Self {
            plan,
            pool,
            tables,
            gpu: GpuSim::new(device),
            cache: LoweredCache::default(),
            backend,
            learning_rate,
            plan_build_ms,
            counts: Counts::default(),
        }
    }

    /// Runs one batch: `script.generate`, `engine.lower`, `engine.prepare`,
    /// `engine.execute` as child spans of `handle.step`, whose self time is
    /// what a `Handle` does around them (input staging, lookup-table
    /// updates, table refresh). Returns the loss (training) or the root's
    /// value (inference).
    pub fn step(
        &mut self,
        model: &mut Model,
        graph: &Graph,
        root: NodeId,
        train: bool,
        op: u32,
        spans: &mut Spans,
    ) -> Vec<f32> {
        let Self {
            plan,
            pool,
            tables,
            gpu,
            cache,
            counts,
            ..
        } = self;
        let backend = self.backend;
        let cfg = ExecConfig {
            learning_rate: self.learning_rate,
            weight_decay: 0.0,
            apply_update: train,
        };
        spans.scope("handle.step", op, |spans| {
            pool.reset();
            let gs = spans
                .enter("script.generate", op, || {
                    if train {
                        generate::generate(graph, root, plan, pool, tables)
                    } else {
                        generate_forward_only(graph, root, plan, pool, tables)
                    }
                })
                .expect("workload batch fits the pool");
            for (id, node) in graph.iter() {
                if let Op::Input { values } = &node.op {
                    pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                        .copy_from_slice(values);
                }
            }
            let session = if backend == BackendKind::Lowered {
                let misses = cache.stats().script_misses;
                let art = spans.enter("engine.lower", op, || {
                    cache.get_or_lower(plan, &gs, gpu.cost_model())
                });
                if cache.stats().script_misses > misses {
                    counts.lower_miss_ops.push(op);
                }
                spans.enter("engine.prepare", op, || {
                    Session::from_lowered(plan, &gs, cfg, gpu.cost_model(), art)
                })
            } else {
                spans.enter("engine.prepare", op, || {
                    backend.backend().prepare(plan, &gs, cfg, gpu.cost_model())
                })
            };
            let run = spans.enter("engine.execute", op, || {
                engine::run_prepared(backend.backend(), &session, pool, model, gpu)
            });
            drop(session);
            counts.batches += 1;
            counts.script_instrs += (gs.forward_instructions + gs.backward_instructions) as u64;
            counts.script_bytes += gs.scripts.encoded_bytes() as u64;
            counts.barriers += u64::from(gs.num_barriers);
            counts.sim_instrs += run.instructions as u64;
            if !train {
                let dim = graph.node(root).dim;
                return pool.slice(gs.layout.value_off[root.index()], dim).to_vec();
            }
            apply_gemm_fallback(plan, &gs.layout, pool, model, gpu, cfg);
            // Sparse lookup-table gradients, applied as `Handle::fb` does.
            let mut touched = false;
            for (id, node) in graph.iter() {
                if let Op::Lookup { table, index } = node.op {
                    let d = pool
                        .slice(gs.layout.deriv_off[id.index()], node.dim)
                        .to_vec();
                    let row = model.lookup_mut(table).grad.row_mut(index);
                    for (g, v) in row.iter_mut().zip(&d) {
                        *g += v;
                    }
                    touched = true;
                }
            }
            if touched {
                let lr = cfg.learning_rate;
                for lid in model.lookups().map(|(id, _)| id).collect::<Vec<_>>() {
                    let l = model.lookup_mut(lid);
                    for i in 0..l.table.len() {
                        let g = l.grad.as_slice()[i];
                        let v = l.table.as_slice()[i];
                        l.table.as_mut_slice()[i] = v - lr * (g + cfg.weight_decay * v);
                    }
                    l.grad.fill_zero();
                }
                tables.refresh(model, pool);
            }
            vec![run.loss]
        })
    }
}
