//! The interpreting [`ExecutionBackend`]: [`EventInterp`]'s sweep replays the
//! session timeline's serial order on one thread and is the reference semantics
//! every other backend is checked against. The concurrency its serial order
//! stands for — every VPP running its level at once, ordered only by the
//! barriers — is proven race-free by [`crate::script::validate_protocol`]
//! rather than executed.

use vpps_tensor::{Pool, PoolOffset};

use crate::distribute::{ChunkId, Distribution};
use crate::engine::ExecutionBackend;
use crate::exec::regcache::RegCache;
use crate::exec::semantics::{execute_instr, ExecCtx};
use crate::script::ScriptSet;

/// Sequential execution context: direct pool + cache access.
struct SeqCtx<'a> {
    pool: &'a mut Pool,
    cache: &'a mut RegCache,
}

impl ExecCtx for SeqCtx<'_> {
    fn read(&self, off: PoolOffset, out: &mut [f32]) {
        out.copy_from_slice(self.pool.slice(off, out.len()));
    }

    fn write(&mut self, off: PoolOffset, data: &[f32]) {
        self.pool.slice_mut(off, data.len()).copy_from_slice(data);
    }

    fn accumulate(&mut self, off: PoolOffset, data: &[f32]) {
        let dst = self.pool.slice_mut(off, data.len());
        for (d, s) in dst.iter_mut().zip(data) {
            *d += s;
        }
    }

    fn chunk(&self, id: ChunkId) -> &[f32] {
        self.cache.chunk(id)
    }

    fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        self.cache.chunk_mut(id)
    }
}

/// The deterministic single-thread reference backend: its sweep replays the
/// session timeline's serial instruction order directly against the pool and
/// cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventInterp;

impl ExecutionBackend for EventInterp {
    fn name(&self) -> &'static str {
        "event-interp"
    }
}

/// The interpreter's script phase: executes `scripts` in the serial `order`
/// of their timeline.
pub(crate) fn interpret(
    scripts: &ScriptSet,
    order: &[(u32, u32)],
    dist: &Distribution,
    pool: &mut Pool,
    cache: &mut RegCache,
) {
    let mut ctx = SeqCtx { pool, cache };
    for &(v, ip) in order {
        execute_instr(&scripts.script(v as usize)[ip as usize], dist, &mut ctx);
    }
}
