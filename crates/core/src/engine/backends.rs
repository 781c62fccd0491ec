//! The interpreting [`ExecutionBackend`]: [`EventInterp`] replays the session
//! timeline's serial order on one thread and is the reference semantics
//! every other backend is checked against. The concurrency its serial order
//! stands for — every VPP running its level at once, ordered only by the
//! barriers — is proven race-free by [`crate::script::validate_protocol`]
//! rather than executed.

use vpps_tensor::{Pool, PoolOffset};

use crate::distribute::ChunkId;
use crate::engine::{ExecutionBackend, RunOutcome, Session};
use crate::exec::regcache::RegCache;
use crate::exec::semantics::{execute_instr, ExecCtx};

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

/// The deterministic single-thread reference backend: replays the session
/// timeline's serial instruction order directly against the pool and cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventInterp;

impl ExecutionBackend for EventInterp {
    fn name(&self) -> &'static str {
        "event-interp"
    }

    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome {
        let dist = session.plan.distribution();
        // A script-less session never reaches the interpreter: see `Session::gs`.
        let gs = session
            .gs
            .expect("interpreting a session needs its scripts");
        {
            let mut ctx = SeqCtx { pool, cache };
            for &(v, ip) in &session.timeline.order {
                let instr = &gs.scripts.script(v as usize)[ip as usize];
                execute_instr(instr, dist, &mut ctx);
            }
        }
        let loss = pool.slice(session.loss_offset(), 1)[0];
        session.outcome(loss)
    }
}
