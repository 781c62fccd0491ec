//! Shared instruction semantics for every execution backend.
//!
//! The arithmetic of every instruction is defined once here against the
//! [`ExecCtx`] abstraction — implemented by the interpreter, which touches
//! the pool and register cache directly, and by the protocol validator,
//! which only records what was touched — and the memory/compute cost of every
//! instruction is defined once in [`instr_cost`]. Costs are data-independent
//! (they depend only on instruction operand lengths and chunk geometry), so
//! the engine's timeline analysis can compute exact per-VPP schedules without
//! executing any arithmetic — which is what lets every backend report
//! identical [`gpu_sim::Metrics`].

use vpps_tensor::PoolOffset;

use crate::distribute::{ChunkId, Distribution};
use crate::exec::kernels;
use crate::script::Instr;

/// Memory/compute cost of one executed instruction, in the units the device
/// cost model consumes. Register-cached chunk accesses contribute nothing —
/// that is the mechanism under study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrCost {
    /// Bytes read from simulated DRAM.
    pub read_bytes: u64,
    /// Bytes written to simulated DRAM.
    pub write_bytes: u64,
    /// FP32 operations executed.
    pub flops: u64,
}

/// Execution context: pool memory access plus register-chunk access.
///
/// Within one barrier level, a pool element two VPPs touch is either only
/// read by both or only accumulated into by both
/// ([`crate::script::validate_protocol`] proves this per script set).
/// `accumulate` is therefore the one shared access that changes memory: on
/// the device an atomic add (the paper's "remote atomic stores" for the
/// transposed product), which commutes up to rounding.
pub trait ExecCtx {
    /// Reads `out.len()` elements starting at `off` into `out`.
    fn read(&self, off: PoolOffset, out: &mut [f32]);
    /// Stores `data` at `off` (unique writer).
    fn write(&mut self, off: PoolOffset, data: &[f32]);
    /// Adds `data` element-wise onto the range at `off` (atomic-add
    /// semantics on the device).
    fn accumulate(&mut self, off: PoolOffset, data: &[f32]);
    /// Borrows a register-cached chunk.
    fn chunk(&self, id: ChunkId) -> &[f32];
    /// Mutably borrows a register-cached chunk (only the owning VPP ever
    /// calls this).
    fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32];
}

fn off_plus(off: PoolOffset, delta: usize) -> PoolOffset {
    PoolOffset(off.raw() + delta as u32)
}

/// Static cost of one instruction: bytes moved through simulated DRAM and
/// FP32 operations. Independent of the data values, so callers can schedule
/// and account without executing. Sync instructions cost nothing here (the
/// barrier algebra is the executor's job).
pub fn instr_cost(instr: &Instr, dist: &Distribution) -> InstrCost {
    match *instr {
        Instr::Signal { .. } | Instr::Wait { .. } => InstrCost::default(),
        Instr::MatVecChunk { chunk, len, .. } => {
            let c = dist.chunk(chunk);
            InstrCost {
                read_bytes: 4 * len as u64,
                write_bytes: 4 * c.rows as u64,
                flops: 2 * (c.rows * c.cols) as u64,
            }
        }
        Instr::TMatVecChunk { chunk, len, .. } => {
            let c = dist.chunk(chunk);
            InstrCost {
                read_bytes: 4 * (c.rows as u64 + u64::from(len)),
                write_bytes: 4 * u64::from(len),
                flops: 2 * (c.rows * c.cols) as u64,
            }
        }
        Instr::OuterChunk { chunk, len, .. } => {
            let c = dist.chunk(chunk);
            InstrCost {
                read_bytes: 4 * (u64::from(len) + c.rows as u64),
                write_bytes: 0,
                flops: 2 * (c.rows * c.cols) as u64,
            }
        }
        Instr::AddBiasChunk { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: u64::from(len),
        },
        Instr::BiasGradChunk { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 0,
            flops: u64::from(len),
        },
        Instr::Tanh { len, .. } | Instr::Sigmoid { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: 8 * u64::from(len),
        },
        Instr::Relu { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: u64::from(len),
        },
        Instr::TanhBwd { len, .. } | Instr::SigmoidBwd { len, .. } | Instr::ReluBwd { len, .. } => {
            InstrCost {
                read_bytes: 12 * u64::from(len),
                write_bytes: 4 * u64::from(len),
                flops: 3 * u64::from(len),
            }
        }
        Instr::Sub { len, .. }
        | Instr::AccSub { len, .. }
        | Instr::Add { len, .. }
        | Instr::AccAdd { len, .. }
        | Instr::CwiseMult { len, .. } => InstrCost {
            read_bytes: 8 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: u64::from(len),
        },
        Instr::MulAcc { len, .. } => InstrCost {
            read_bytes: 12 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: 2 * u64::from(len),
        },
        Instr::Copy { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 4 * u64::from(len),
            flops: 0,
        },
        Instr::PickNls { len, .. } => InstrCost {
            read_bytes: 4 * u64::from(len),
            write_bytes: 4,
            flops: 6 * u64::from(len),
        },
        Instr::PickNlsBwd { len, .. } => InstrCost {
            read_bytes: 4 * (u64::from(len) * 2 + 1),
            write_bytes: 4 * u64::from(len),
            flops: 8 * u64::from(len),
        },
    }
}

/// Executes one non-sync instruction against `ctx`, returning its cost
/// (identical to [`instr_cost`] for the same instruction).
///
/// # Panics
///
/// Panics if given a `Signal`/`Wait` (those are handled by the executor's
/// scheduling loop, not by the semantics) or if a chunk id does not belong to
/// `dist`.
pub fn execute_instr(instr: &Instr, dist: &Distribution, ctx: &mut impl ExecCtx) -> InstrCost {
    match *instr {
        Instr::Signal { .. } | Instr::Wait { .. } => {
            panic!("sync instructions are not executed by the semantics layer")
        }
        Instr::MatVecChunk { chunk, len, x, y } => {
            let c = dist.chunk(chunk);
            debug_assert!(!c.is_grad, "matvec must use a value chunk");
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            let mut out = vec![0.0; c.rows];
            {
                let data = ctx.chunk(chunk);
                for r in 0..c.rows {
                    let row = &data[r * c.cols..(r + 1) * c.cols];
                    out[r] = kernels::dot(row, &xv);
                }
            }
            ctx.write(off_plus(y, c.row_start), &out);
        }
        Instr::TMatVecChunk { chunk, len, dy, dx } => {
            let c = dist.chunk(chunk);
            debug_assert!(!c.is_grad, "t-matvec must use a value chunk");
            let mut dyv = vec![0.0; c.rows];
            ctx.read(off_plus(dy, c.row_start), &mut dyv);
            let mut contrib = vec![0.0; len as usize];
            {
                let data = ctx.chunk(chunk);
                for r in 0..c.rows {
                    let s = dyv[r];
                    if s == 0.0 {
                        continue;
                    }
                    let row = &data[r * c.cols..(r + 1) * c.cols];
                    kernels::axpy(&mut contrib, s, row);
                }
            }
            ctx.accumulate(dx, &contrib);
        }
        Instr::OuterChunk { chunk, len, x, dy } => {
            let c = dist.chunk(chunk);
            debug_assert!(c.is_grad, "outer product must target a gradient chunk");
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            let mut dyv = vec![0.0; c.rows];
            ctx.read(off_plus(dy, c.row_start), &mut dyv);
            let data = ctx.chunk_mut(chunk);
            for r in 0..c.rows {
                let s = dyv[r];
                if s == 0.0 {
                    continue;
                }
                let row = &mut data[r * c.cols..(r + 1) * c.cols];
                kernels::axpy(row, s, &xv);
            }
        }
        Instr::AddBiasChunk { chunk, len, x, y } => {
            let c = dist.chunk(chunk);
            debug_assert_eq!(c.rows, 1, "bias chunks are single rows");
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            {
                let bias = ctx.chunk(chunk);
                for (v, b) in xv.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            ctx.write(y, &xv);
        }
        Instr::BiasGradChunk { chunk, len, dy } => {
            let mut dyv = vec![0.0; len as usize];
            ctx.read(dy, &mut dyv);
            let data = ctx.chunk_mut(chunk);
            kernels::add_assign(data, &dyv);
        }
        Instr::Tanh { len, x, y } => unary(ctx, len, x, y, |v| v.tanh()),
        Instr::Sigmoid { len, x, y } => unary(ctx, len, x, y, |v| 1.0 / (1.0 + (-v).exp())),
        Instr::Relu { len, x, y } => unary(ctx, len, x, y, |v| v.max(0.0)),
        Instr::TanhBwd { len, y, dy, dx } => {
            act_bwd(ctx, len, y, dy, dx, |yv, dyv| dyv * (1.0 - yv * yv))
        }
        Instr::SigmoidBwd { len, y, dy, dx } => {
            act_bwd(ctx, len, y, dy, dx, |yv, dyv| dyv * yv * (1.0 - yv))
        }
        Instr::ReluBwd { len, y, dy, dx } => {
            act_bwd(
                ctx,
                len,
                y,
                dy,
                dx,
                |yv, dyv| if yv > 0.0 { dyv } else { 0.0 },
            )
        }
        Instr::Sub { len, a, b, y } => {
            let n = len as usize;
            let mut av = vec![0.0; n];
            let mut bv = vec![0.0; n];
            ctx.read(a, &mut av);
            ctx.read(b, &mut bv);
            for (x, yv) in av.iter_mut().zip(&bv) {
                *x -= yv;
            }
            ctx.write(y, &av);
        }
        Instr::AccSub { len, x, y } => {
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            for v in xv.iter_mut() {
                *v = -*v;
            }
            ctx.accumulate(y, &xv);
        }
        Instr::Add { len, a, b, y } => {
            let n = len as usize;
            let mut av = vec![0.0; n];
            let mut bv = vec![0.0; n];
            ctx.read(a, &mut av);
            ctx.read(b, &mut bv);
            for (x, yv) in av.iter_mut().zip(&bv) {
                *x += yv;
            }
            ctx.write(y, &av);
        }
        Instr::AccAdd { len, x, y } => {
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            ctx.accumulate(y, &xv);
        }
        Instr::MulAcc { len, a, b, y } => {
            let n = len as usize;
            let mut av = vec![0.0; n];
            let mut bv = vec![0.0; n];
            ctx.read(a, &mut av);
            ctx.read(b, &mut bv);
            for (x, yv) in av.iter_mut().zip(&bv) {
                *x *= yv;
            }
            ctx.accumulate(y, &av);
        }
        Instr::CwiseMult { len, a, b, y } => {
            let n = len as usize;
            let mut av = vec![0.0; n];
            let mut bv = vec![0.0; n];
            ctx.read(a, &mut av);
            ctx.read(b, &mut bv);
            for (x, yv) in av.iter_mut().zip(&bv) {
                *x *= yv;
            }
            ctx.write(y, &av);
        }
        Instr::Copy { len, src, dst } => {
            let mut v = vec![0.0; len as usize];
            ctx.read(src, &mut v);
            ctx.write(dst, &v);
        }
        Instr::PickNls { len, x, out, label } => {
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            let loss = vpps_tensor::softmax::pick_neg_log_softmax(&xv, label as usize);
            ctx.write(out, &[loss]);
        }
        Instr::PickNlsBwd {
            len,
            x,
            dloss,
            dx,
            label,
        } => {
            let mut xv = vec![0.0; len as usize];
            ctx.read(x, &mut xv);
            let mut dl = [0.0];
            ctx.read(dloss, &mut dl);
            let mut contrib = vec![0.0; len as usize];
            vpps_tensor::softmax::pick_neg_log_softmax_backward(
                &xv,
                label as usize,
                dl[0],
                &mut contrib,
            );
            ctx.accumulate(dx, &contrib);
        }
    }
    instr_cost(instr, dist)
}

fn unary(ctx: &mut impl ExecCtx, len: u32, x: PoolOffset, y: PoolOffset, f: impl Fn(f32) -> f32) {
    let mut v = vec![0.0; len as usize];
    ctx.read(x, &mut v);
    for e in v.iter_mut() {
        *e = f(*e);
    }
    ctx.write(y, &v);
}

fn act_bwd(
    ctx: &mut impl ExecCtx,
    len: u32,
    y: PoolOffset,
    dy: PoolOffset,
    dx: PoolOffset,
    f: impl Fn(f32, f32) -> f32,
) {
    let n = len as usize;
    let mut yv = vec![0.0; n];
    let mut dyv = vec![0.0; n];
    ctx.read(y, &mut yv);
    ctx.read(dy, &mut dyv);
    let contrib: Vec<f32> = yv.iter().zip(&dyv).map(|(&a, &b)| f(a, b)).collect();
    ctx.accumulate(dx, &contrib);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::{DistGeometry, Distribution, ParamShape};
    use crate::script::Instr;
    use gpu_sim::DeviceConfig;

    /// A plain in-memory context: a flat pool plus chunk storage loaded from
    /// a known matrix, so chunk-addressed instructions can be checked
    /// against hand math.
    struct TestCtx {
        pool: Vec<f32>,
        chunks: Vec<Vec<f32>>,
    }

    impl ExecCtx for TestCtx {
        fn read(&self, off: PoolOffset, out: &mut [f32]) {
            let s = off.raw() as usize;
            out.copy_from_slice(&self.pool[s..s + out.len()]);
        }
        fn write(&mut self, off: PoolOffset, data: &[f32]) {
            let s = off.raw() as usize;
            self.pool[s..s + data.len()].copy_from_slice(data);
        }
        fn accumulate(&mut self, off: PoolOffset, data: &[f32]) {
            let s = off.raw() as usize;
            for (d, v) in self.pool[s..].iter_mut().zip(data) {
                *d += v;
            }
        }
        fn chunk(&self, id: ChunkId) -> &[f32] {
            &self.chunks[id.index()]
        }
        fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
            &mut self.chunks[id.index()]
        }
    }

    /// A 64x8 matrix split into multiple chunks on a 2-SM device; matrix
    /// element (r, c) = r + c/10 so results are recognizable.
    fn setup() -> (Distribution, TestCtx) {
        let mut m = dyn_graph::Model::new(0);
        let w = m.add_matrix("W", 64, 8);
        let geo = DistGeometry::derive(
            &{
                let mut d = DeviceConfig::titan_v();
                d.num_sms = 2;
                d
            },
            1,
            1,
            8,
        )
        .unwrap();
        let dist = Distribution::build(
            &[ParamShape {
                id: w,
                rows: 64,
                cols: 8,
            }],
            geo,
            true,
        )
        .unwrap();
        let mut chunks = Vec::new();
        for c in dist.chunks() {
            let mut data = vec![0.0; c.len()];
            if !c.is_grad {
                for r in 0..c.rows {
                    for col in 0..c.cols {
                        data[r * c.cols + col] = (c.row_start + r) as f32 + col as f32 / 10.0;
                    }
                }
            }
            chunks.push(data);
        }
        (
            dist,
            TestCtx {
                pool: vec![0.0; 1024],
                chunks,
            },
        )
    }

    #[test]
    fn matvec_chunk_writes_only_its_row_range() {
        let (dist, mut ctx) = setup();
        // x = ones at offset 0; y base at offset 100.
        ctx.pool[0..8].fill(1.0);
        // Pick a chunk that does NOT start at row 0.
        let cid = dist
            .chunks()
            .iter()
            .enumerate()
            .find(|(_, c)| !c.is_grad && c.row_start > 0)
            .map(|(i, _)| ChunkId(i as u32))
            .expect("64-row matrix has later chunks");
        let c = dist.chunk(cid).clone();
        let cost = execute_instr(
            &Instr::MatVecChunk {
                chunk: cid,
                len: 8,
                x: PoolOffset(0),
                y: PoolOffset(100),
            },
            &dist,
            &mut ctx,
        );
        // Row r of W sums to 8r + (0+..+0.7) = 8r + 2.8.
        for r in 0..c.rows {
            let got = ctx.pool[100 + c.row_start + r];
            let want = 8.0 * (c.row_start + r) as f32 + 2.8;
            assert!((got - want).abs() < 1e-4, "row {r}: {got} vs {want}");
        }
        // Rows before the chunk stay untouched.
        for r in 0..c.row_start {
            assert_eq!(ctx.pool[100 + r], 0.0);
        }
        assert_eq!(cost.flops, 2 * (c.rows * c.cols) as u64);
    }

    #[test]
    fn tmatvec_reads_its_dy_rows_only() {
        let (dist, mut ctx) = setup();
        // dy base at 200: dy[r] = 1 for every row; dx accumulator at 300.
        ctx.pool[200..264].fill(1.0);
        let param = dist.chunks()[0].param;
        let cid = dist.value_chunks_of(param)[0];
        let c = dist.chunk(cid).clone();
        execute_instr(
            &Instr::TMatVecChunk {
                chunk: cid,
                len: 8,
                dy: PoolOffset(200),
                dx: PoolOffset(300),
            },
            &dist,
            &mut ctx,
        );
        // dx[col] = sum over the chunk's rows of W[r][col].
        for col in 0..8 {
            let want: f32 = (c.row_start..c.row_start + c.rows)
                .map(|r| r as f32 + col as f32 / 10.0)
                .sum();
            let got = ctx.pool[300 + col];
            assert!((got - want).abs() < 1e-3, "col {col}: {got} vs {want}");
        }
    }

    #[test]
    fn outer_chunk_accumulates_into_grad_storage() {
        let (dist, mut ctx) = setup();
        // x at 0 = [1..8]/10, dy base at 200 with dy[r] = 2 everywhere.
        for i in 0..8 {
            ctx.pool[i] = (i + 1) as f32 / 10.0;
        }
        ctx.pool[200..264].fill(2.0);
        let param = dist.chunks()[0].param;
        let gid = dist.grad_chunks_of(param)[0];
        let g = dist.chunk(gid).clone();
        execute_instr(
            &Instr::OuterChunk {
                chunk: gid,
                len: 8,
                x: PoolOffset(0),
                dy: PoolOffset(200),
            },
            &dist,
            &mut ctx,
        );
        for r in 0..g.rows {
            for col in 0..8 {
                let want = 2.0 * (col + 1) as f32 / 10.0;
                let got = ctx.chunks[gid.index()][r * 8 + col];
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn static_cost_matches_executed_cost() {
        let (dist, mut ctx) = setup();
        ctx.pool[0..8].fill(0.5);
        ctx.pool[200..264].fill(1.0);
        let param = dist.chunks()[0].param;
        let vid = dist.value_chunks_of(param)[0];
        let gid = dist.grad_chunks_of(param)[0];
        let instrs = [
            Instr::MatVecChunk {
                chunk: vid,
                len: 8,
                x: PoolOffset(0),
                y: PoolOffset(100),
            },
            Instr::TMatVecChunk {
                chunk: vid,
                len: 8,
                dy: PoolOffset(200),
                dx: PoolOffset(300),
            },
            Instr::OuterChunk {
                chunk: gid,
                len: 8,
                x: PoolOffset(0),
                dy: PoolOffset(200),
            },
            Instr::Tanh {
                len: 8,
                x: PoolOffset(0),
                y: PoolOffset(400),
            },
            Instr::TanhBwd {
                len: 8,
                y: PoolOffset(400),
                dy: PoolOffset(200),
                dx: PoolOffset(408),
            },
            Instr::Add {
                len: 8,
                a: PoolOffset(0),
                b: PoolOffset(200),
                y: PoolOffset(416),
            },
            Instr::MulAcc {
                len: 8,
                a: PoolOffset(0),
                b: PoolOffset(200),
                y: PoolOffset(424),
            },
            Instr::Copy {
                len: 8,
                src: PoolOffset(0),
                dst: PoolOffset(432),
            },
            Instr::PickNls {
                len: 8,
                x: PoolOffset(0),
                out: PoolOffset(440),
                label: 2,
            },
            Instr::PickNlsBwd {
                len: 8,
                x: PoolOffset(0),
                dloss: PoolOffset(440),
                dx: PoolOffset(448),
                label: 2,
            },
        ];
        for instr in &instrs {
            let executed = execute_instr(instr, &dist, &mut ctx);
            assert_eq!(
                executed,
                instr_cost(instr, &dist),
                "cost mismatch for {instr:?}"
            );
        }
    }

    #[test]
    fn sync_instructions_have_zero_cost() {
        let (dist, _) = setup();
        assert_eq!(
            instr_cost(&Instr::Signal { barrier: 0 }, &dist),
            InstrCost::default()
        );
        assert_eq!(
            instr_cost(
                &Instr::Wait {
                    barrier: 0,
                    needed: 1
                },
                &dist
            ),
            InstrCost::default()
        );
    }

    #[test]
    #[should_panic(expected = "sync instructions")]
    fn sync_instructions_are_rejected() {
        let (dist, mut ctx) = setup();
        execute_instr(&Instr::Signal { barrier: 0 }, &dist, &mut ctx);
    }
}
