//! GEMM gradient fallback (paper §III-C2).
//!
//! When the register file cannot hold gradient matrices alongside the
//! weights, the persistent kernel stages every outer-product operand pair in
//! a pre-allocated DRAM region instead. After the kernel, one dense
//! matrix-matrix multiplication per weight matrix (`G += DY · Xᵀ`, CUBLAS on
//! real hardware) produces the gradients in one go, followed by a single
//! parameter-update kernel.

use dyn_graph::{Model, ParamId};
use gpu_sim::{GpuSim, KernelDesc, SimTime};
use vpps_tensor::{ops, Pool};

use crate::engine::{split, Helpers};
use crate::exec::interp::ExecConfig;
use crate::exec::kernels::{self, MAX_BLOCK};
use crate::script::BatchLayout;
use crate::specialize::{GradStrategy, KernelPlan};

/// Summary of the fallback work performed after one persistent kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FallbackRun {
    /// GEMM / reduction kernels launched (one per parameter with uses).
    pub gemm_kernels: u64,
    /// Total device time of the fallback kernels.
    pub time: SimTime,
}

/// Gradient rows [`gemm_outer_acc`] updates per sweep over the staged pairs:
/// the rows whose `dy` entries share one cache line of a packed `dy` vector.
const ROW_BLOCK: usize = 16;

/// Dense matrix-matrix product `G += DY · Xᵀ` over `k` staged operand pairs
/// into rows `first..` of the row-major `rows × cols` gradient, which `g`
/// holds: `dys` packs `k` vectors of length `rows` back to back, `xs` packs
/// `k` vectors of length `cols`.
///
/// This is exactly the CUBLAS-backed gradient fallback of paper §III-C2: for
/// each weight matrix the lhs (`dy`) vectors and rhs (`x`) vectors staged
/// during backward are multiplied in one go.
///
/// Row-outer: the gradient is visited once, [`ROW_BLOCK`] rows at a time,
/// and the staged pairs are streamed against those rows in `k` order —
/// [`MAX_BLOCK`] pairs per [`kernels::outer_block`] call, which holds a tile
/// of each row in registers across them — so the rows stay in L1 instead of
/// the whole matrix being swept once per pair. Every element still receives
/// its adds in `k` order (and a zero `dy` entry is still skipped), so the
/// result is bit-identical to `k` successive rank-1 updates
/// ([`ops::ger_acc`]) — and each row's adds are its own, so a range of rows
/// gets the bits the whole product gives it.
///
/// # Panics
///
/// Panics if `dys` is not a whole number of `rows`-vectors or `xs` does not
/// hold the same number of `cols`-vectors.
fn gemm_outer_acc(g: &mut [f32], first: usize, rows: usize, cols: usize, dys: &[f32], xs: &[f32]) {
    assert_eq!(
        dys.len() % rows,
        0,
        "gemm_outer_acc: dys must pack whole dy vectors"
    );
    assert_eq!(
        xs.len(),
        dys.len() / rows * cols,
        "gemm_outer_acc: pair counts must match"
    );
    for (tile, block) in g.chunks_mut(ROW_BLOCK * cols).enumerate() {
        let first = first + tile * ROW_BLOCK;
        for (dys, xs) in dys
            .chunks(MAX_BLOCK * rows)
            .zip(xs.chunks(MAX_BLOCK * cols))
        {
            let mut dy_block: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
            let mut x_block: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
            let pairs = dys.chunks_exact(rows).zip(xs.chunks_exact(cols));
            let n = pairs.len();
            for (j, (dy, x)) in pairs.enumerate() {
                dy_block[j] = &dy[first..];
                x_block[j] = x;
            }
            kernels::outer_block(block, cols, &x_block[..n], &dy_block[..n]);
        }
    }
}

/// Computes gradients from the staged operand pairs and applies the SGD
/// update to every dense parameter. No-op (returns default) for plans using
/// the in-register strategy.
pub fn apply_gemm_fallback(
    plan: &KernelPlan,
    layout: &BatchLayout,
    pool: &Pool,
    model: &mut Model,
    gpu: &mut GpuSim,
    cfg: ExecConfig,
) -> FallbackRun {
    if plan.grad_strategy() != GradStrategy::GemmFallback {
        return FallbackRun::default();
    }
    let (lr, wd) = (cfg.learning_rate, cfg.weight_decay);
    gemm_fallback_values(layout, pool, model, lr, wd, Helpers::Auto);
    charge_gemm_fallback(plan, layout, gpu)
}

/// The simulated half of [`apply_gemm_fallback`] on a GEMM-fallback plan:
/// one gradient kernel per staged parameter, then the update kernel. Each
/// launch is priced from the layout alone, so it needs no value.
pub(crate) fn charge_gemm_fallback(
    plan: &KernelPlan,
    layout: &BatchLayout,
    gpu: &mut GpuSim,
) -> FallbackRun {
    let mut run = FallbackRun::default();
    for stage in layout.stages.iter().flatten() {
        let desc = match stage.x_base {
            Some(_) => KernelDesc {
                label: "gemm_grad",
                weight_bytes: 0,
                other_load_bytes: (stage.uses * (stage.rows + stage.cols) * 4) as u64,
                store_bytes: (stage.rows * stage.cols * 4) as u64,
                flops: (2 * stage.uses * stage.rows * stage.cols) as u64,
                ctas: gpu.config().num_sms,
            },
            None => KernelDesc {
                label: "bias_grad_reduce",
                weight_bytes: 0,
                other_load_bytes: (stage.uses * stage.cols * 4) as u64,
                store_bytes: (stage.cols * 4) as u64,
                flops: (stage.uses * stage.cols) as u64,
                ctas: 1,
            },
        };
        run.time += gpu.launch(&desc);
        run.gemm_kernels += 1;
    }

    // One update kernel over all dense parameters: reads weights + grads,
    // writes weights. These weight loads are real DRAM traffic the fallback
    // pays and the in-register strategy avoids.
    let weight_bytes = plan.prologue_weight_bytes();
    run.time += gpu.launch(&KernelDesc {
        label: "sgd_update",
        weight_bytes: 2 * weight_bytes,
        other_load_bytes: 0,
        store_bytes: weight_bytes,
        flops: 3 * (weight_bytes / 4),
        ctas: gpu.config().num_sms,
    });
    run
}

/// The value half of [`apply_gemm_fallback`] on a GEMM-fallback plan:
/// every staged parameter's gradient from its operand pairs in `pool`, then
/// the SGD step (`learning_rate`, `weight_decay`) on every dense parameter of
/// `model`. Touches no clock. Each gradient's rows, and each parameter's
/// elements, are cut in two halves that `helpers` may run on two threads
/// ([`split`]): no element is computed from another, so the bits
/// are the same.
pub(crate) fn gemm_fallback_values(
    layout: &BatchLayout,
    pool: &Pool,
    model: &mut Model,
    learning_rate: f32,
    weight_decay: f32,
    helpers: Helpers,
) {
    for (pidx, stage) in layout.stages.iter().enumerate() {
        let Some(stage) = stage else { continue };
        let pid = ParamId::from_index(pidx);
        match stage.x_base {
            Some(x_base) => {
                // Matrix gradient: G += Σ_k dy_k ⊗ x_k, computed as one GEMM
                // over the staged operands where they lie in the pool.
                let (rows, cols) = (stage.rows, stage.cols);
                let dys = pool.slice(stage.dy_base, stage.uses * rows);
                let xs = pool.slice(x_base, stage.uses * cols);
                let mid = (rows / 2).next_multiple_of(ROW_BLOCK).min(rows);
                let grad = model.param_mut(pid).grad.as_mut_slice();
                let (top, bottom) = grad.split_at_mut(mid * cols);
                split(
                    helpers,
                    (stage.uses * rows * cols) as u64,
                    || gemm_outer_acc(top, 0, rows, cols, dys, xs),
                    || gemm_outer_acc(bottom, mid, rows, cols, dys, xs),
                );
            }
            None => {
                // Bias gradient: a plain sum reduction of the staged dys.
                let grad = model.param_mut(pid).grad.row_mut(0);
                for dy in pool
                    .slice(stage.dy_base, stage.uses * stage.cols)
                    .chunks_exact(stage.cols)
                {
                    ops::axpy(1.0, dy, grad);
                }
            }
        }
    }
    let step = |value: &mut [f32], grad: &mut [f32]| {
        ops::sgd_step(value, grad, learning_rate, weight_decay);
        grad.fill(0.0);
    };
    for pidx in 0..model.num_params() {
        let p = model.param_mut(ParamId::from_index(pidx));
        let (value, grad) = (p.value.as_mut_slice(), p.grad.as_mut_slice());
        let (mid, len) = (value.len() / 2, value.len() as u64);
        let ((va, vb), (ga, gb)) = (value.split_at_mut(mid), grad.split_at_mut(mid));
        split(helpers, len, || step(va, ga), || step(vb, gb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EventInterp};
    use crate::script::{generate, TableLayout};
    use crate::specialize::KernelPlan;
    use dyn_graph::{exec as refexec, Graph, Model, Trainer};
    use gpu_sim::DeviceConfig;

    /// A device so small that gradients cannot be cached.
    fn tiny_device() -> DeviceConfig {
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 2;
        d
    }

    fn build(
        m: &Model,
        ws: &[dyn_graph::ParamId],
        b: dyn_graph::ParamId,
    ) -> (Graph, dyn_graph::NodeId) {
        let mut g = Graph::new();
        let mut h = g.input(vec![0.2; 128]);
        for &w in ws {
            let z = g.matvec(m, w, h);
            let zb = g.add_bias(m, b, z);
            h = g.tanh(zb);
        }
        let loss = g.pick_neg_log_softmax(h, 1);
        (g, loss)
    }

    #[test]
    fn fallback_matches_reference_training() {
        let seed = 31;
        let make_model = || {
            let mut m = Model::new(seed);
            let ws: Vec<_> = (0..5)
                .map(|i| m.add_matrix(&format!("W{i}"), 128, 128))
                .collect();
            let b = m.add_bias("b", 128);
            (m, ws, b)
        };

        // VPPS with GEMM fallback.
        let (mut model, ws, b) = make_model();
        let plan = KernelPlan::build(&model, &tiny_device(), 1).unwrap();
        assert_eq!(plan.grad_strategy(), GradStrategy::GemmFallback);
        let mut gpu = GpuSim::new(tiny_device());
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).unwrap();
        let mut vpps_losses = Vec::new();
        for _ in 0..4 {
            pool.reset();
            let (g, loss_node) = build(&model, &ws, b);
            let gs = generate::generate(&g, loss_node, &plan, &mut pool, &tables).unwrap();
            // Write input leaves into the pool.
            for (id, node) in g.iter() {
                if let dyn_graph::Op::Input { values } = &node.op {
                    pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                        .copy_from_slice(values);
                }
            }
            let cfg = ExecConfig {
                learning_rate: 0.05,
                weight_decay: 0.0,
                apply_update: true,
            };
            let run = engine::run_batch(
                &EventInterp,
                &plan,
                &gs,
                &mut pool,
                &mut model,
                &mut gpu,
                cfg,
            );
            let fb = apply_gemm_fallback(&plan, &gs.layout, &pool, &mut model, &mut gpu, cfg);
            assert!(fb.gemm_kernels >= 2);
            vpps_losses.push(run.loss);
        }

        // Reference.
        let (mut rmodel, rws, rb) = make_model();
        let trainer = Trainer::new(0.05);
        let mut ref_losses = Vec::new();
        for _ in 0..4 {
            let (g, loss_node) = build(&rmodel, &rws, rb);
            ref_losses.push(refexec::forward_backward(&g, &mut rmodel, loss_node));
            trainer.update(&mut rmodel);
        }

        for (a, b) in vpps_losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 5e-3, "fallback diverged: {a} vs {b}");
        }
    }

    /// Bit-equal to repeated `ger_acc`, including zero and negative-zero
    /// `dy` entries: both skip them, so a `-0.0` gradient element (row 4) is
    /// not flipped to `+0.0` by adding `±0.0 * x`. Two full row blocks and a
    /// short one; a full pair block and a short one; a column tile and a
    /// tail.
    #[test]
    fn gemm_outer_is_bit_equal_to_repeated_ger() {
        use vpps_tensor::Matrix;
        let (rows, cols, uses) = (2 * ROW_BLOCK + 5, 43, MAX_BLOCK + 3);
        let val = |i: usize| ((i * 37 % 23) as f32 - 11.0) * 0.173;
        let mut dys: Vec<f32> = (0..uses * rows).map(|i| val(i + 3)).collect();
        let xs: Vec<f32> = (0..uses * cols).map(|i| val(7 * i + 1)).collect();
        dys[2] = 0.0;
        dys[rows + 2] = -0.0;
        dys[3 * rows] = -0.0;
        for k in 0..uses {
            dys[k * rows + 4] = if k % 2 == 0 { 0.0 } else { -0.0 };
        }
        let start = Matrix::from_fn(
            rows,
            cols,
            |r, c| {
                if r == 4 {
                    -0.0
                } else {
                    val(r * cols + c)
                }
            },
        );

        let mut via_gemm = start.clone();
        gemm_outer_acc(via_gemm.as_mut_slice(), 0, rows, cols, &dys, &xs);
        // Any cut into two row ranges gives each row the same bits.
        for cut in [1, ROW_BLOCK, rows - 1] {
            let mut halves = start.clone();
            let (top, bottom) = halves.as_mut_slice().split_at_mut(cut * cols);
            gemm_outer_acc(top, 0, rows, cols, &dys, &xs);
            gemm_outer_acc(bottom, cut, rows, cols, &dys, &xs);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&halves), bits(&via_gemm), "cut at row {cut}");
        }
        let mut via_ger = start;
        for (dy, x) in dys.chunks_exact(rows).zip(xs.chunks_exact(cols)) {
            ops::ger_acc(&mut via_ger, dy, x);
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_gemm), bits(&via_ger));
        assert!(via_gemm
            .row(4)
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    #[should_panic(expected = "pair counts must match")]
    fn gemm_outer_rejects_mismatched_pair_counts() {
        gemm_outer_acc(&mut [0.0; 6], 0, 2, 3, &[1.0; 4], &[1.0; 3]);
    }

    #[test]
    fn in_register_plan_is_a_noop() {
        let mut m = Model::new(1);
        m.add_matrix("W", 16, 16);
        let plan = KernelPlan::build(&m, &DeviceConfig::titan_v(), 1).unwrap();
        assert_eq!(plan.grad_strategy(), GradStrategy::InRegister);
        let layout = BatchLayout {
            value_off: Vec::new(),
            deriv_off: Vec::new(),
            deriv_len: 0,
            loss: dyn_graph::NodeId::from_index(0),
            stages: Vec::new(),
        };
        let pool = Pool::with_capacity(4);
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        let run = apply_gemm_fallback(
            &plan,
            &layout,
            &pool,
            &mut m,
            &mut gpu,
            ExecConfig::default(),
        );
        assert_eq!(run, FallbackRun::default());
        assert_eq!(gpu.stats().kernels_launched, 0);
    }
}
