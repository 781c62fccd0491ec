//! The interpreting [`ExecutionBackend`] implementations.
//!
//! * [`EventInterp`] — replays the session timeline's serial order on one
//!   thread; the reference semantics every other backend is checked against.
//! * [`Threaded`] — one OS thread per VPP with the `signal`/`wait` protocol
//!   on real atomics (the paper's §III-B1 `atomicAdd` + `__threadfence`
//!   pairing). It is the protocol checker: tests drive it through
//!   [`crate::engine::run_batch`] to validate that the scripts are
//!   deadlock-free and race-free under true concurrency. It has no
//!   [`crate::engine::BackendKind`], so nothing can be configured to serve
//!   with it.
//!
//! Both read their timing and traffic numbers from the shared [`Session`]
//! analytics, so their [`RunOutcome::metrics`] are identical by
//! construction.

use std::sync::atomic::{AtomicU32, Ordering};

use vpps_tensor::{Pool, PoolOffset};

use crate::distribute::ChunkId;
use crate::engine::{ExecutionBackend, RunOutcome, Session};
use crate::exec::regcache::RegCache;
use crate::exec::semantics::{execute_instr, ExecCtx};
use crate::script::Instr;

/// A shared view of the device pool usable from many threads at once.
///
/// # Safety discipline
///
/// * `read`/`write` are plain (non-atomic) accesses. The script generator
///   guarantees every pool location has at most one plain writer per barrier
///   epoch and that readers of a location are separated from its writer by a
///   barrier; the barrier's `Release`-increment / `Acquire`-spin establishes
///   the necessary happens-before edges.
/// * `accumulate` may race with other accumulators and therefore uses atomic
///   compare-and-swap adds on the `f32` bit patterns.
struct SharedPool {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: all concurrent access goes through the discipline documented above;
// the raw pointer itself is valid for the scope's lifetime and never
// reallocated while threads run.
unsafe impl Sync for SharedPool {}
unsafe impl Send for SharedPool {}

impl SharedPool {
    fn new(pool: &mut Pool) -> Self {
        let raw = pool.raw_mut();
        Self {
            ptr: raw.as_mut_ptr(),
            len: raw.len(),
        }
    }

    fn check(&self, off: PoolOffset, len: usize) {
        assert!(
            off.raw() as usize + len <= self.len,
            "shared pool access out of range: {}+{} > {}",
            off.raw(),
            len,
            self.len
        );
    }

    fn read(&self, off: PoolOffset, out: &mut [f32]) {
        self.check(off, out.len());
        for (i, o) in out.iter_mut().enumerate() {
            // SAFETY: in-bounds (checked); no concurrent plain writer per the
            // barrier discipline.
            *o = unsafe { *self.ptr.add(off.raw() as usize + i) };
        }
    }

    fn write(&self, off: PoolOffset, data: &[f32]) {
        self.check(off, data.len());
        for (i, v) in data.iter().enumerate() {
            // SAFETY: in-bounds; unique writer for this range in this epoch.
            unsafe { *self.ptr.add(off.raw() as usize + i) = *v };
        }
    }

    fn accumulate(&self, off: PoolOffset, data: &[f32]) {
        self.check(off, data.len());
        for (i, v) in data.iter().enumerate() {
            if *v == 0.0 {
                continue;
            }
            // SAFETY: in-bounds; f32 and AtomicU32 share size and alignment.
            let cell = unsafe { &*(self.ptr.add(off.raw() as usize + i) as *const AtomicU32) };
            // One `fetch_update` per element replaces the hand-rolled
            // load + compare_exchange_weak loop (same CAS retry protocol,
            // provided by the standard library). This atomic does *not*
            // decide summation order: `Threaded` accumulation order is
            // inherently racy, so its float results carry tolerances.
            cell.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |cur| {
                Some((f32::from_bits(cur) + v).to_bits())
            })
            .expect("fetch_update closure never returns None");
        }
    }
}

/// A shared view of the register cache's chunk storage.
///
/// # Safety discipline
///
/// The script generator assigns every chunk-touching instruction to the
/// chunk's owning VPP, and each VPP's instruction stream runs on exactly one
/// thread ([`Threaded`] spawns one per VPP). A chunk is therefore only ever
/// accessed by one thread concurrently.
struct SharedChunks {
    ptrs: Vec<(*mut f32, usize)>,
}

unsafe impl Sync for SharedChunks {}
unsafe impl Send for SharedChunks {}

impl SharedChunks {
    fn new(cache: &mut RegCache) -> Self {
        Self {
            ptrs: cache.chunk_ptrs(),
        }
    }

    fn chunk(&self, id: ChunkId) -> &[f32] {
        let (ptr, len) = self.ptrs[id.index()];
        // SAFETY: owner-VPP-only access (see the type-level discipline).
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    #[allow(clippy::mut_from_ref)]
    fn chunk_mut(&self, id: ChunkId) -> &mut [f32] {
        let (ptr, len) = self.ptrs[id.index()];
        // SAFETY: owner-VPP-only access; at most one thread holds this chunk.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }
}

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
        // A script-less session never reaches an interpreter: see `Session::gs`.
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

struct ThreadCtx<'a> {
    pool: &'a SharedPool,
    chunks: &'a SharedChunks,
}

impl ExecCtx for ThreadCtx<'_> {
    fn read(&self, off: PoolOffset, out: &mut [f32]) {
        self.pool.read(off, out);
    }

    fn write(&mut self, off: PoolOffset, data: &[f32]) {
        self.pool.write(off, data);
    }

    fn accumulate(&mut self, off: PoolOffset, data: &[f32]) {
        self.pool.accumulate(off, data);
    }

    fn chunk(&self, id: ChunkId) -> &[f32] {
        self.chunks.chunk(id)
    }

    fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        self.chunks.chunk_mut(id)
    }
}

/// Real-thread protocol checker: one OS thread per VPP, barriers on real
/// atomics.
///
/// Functionally equivalent to [`EventInterp`] up to floating-point
/// accumulation order (concurrent atomic adds commute only approximately in
/// `f32`); forward-only values are bit-identical because plain writes have
/// unique writers. A protocol bug in the script generator deadlocks here.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threaded;

impl ExecutionBackend for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome {
        let dist = session.plan.distribution();
        // A script-less session never reaches an interpreter: see `Session::gs`.
        let gs = session
            .gs
            .expect("interpreting a session needs its scripts");
        let num_vpps = dist.geometry().total_vpps();

        let barriers: Vec<AtomicU32> = (0..gs.num_barriers).map(|_| AtomicU32::new(0)).collect();
        let shared = SharedPool::new(pool);
        let chunks = SharedChunks::new(cache);

        std::thread::scope(|scope| {
            for vpp in 0..num_vpps {
                let shared = &shared;
                let chunks = &chunks;
                let barriers = &barriers;
                let script = gs.scripts.script(vpp);
                scope.spawn(move || {
                    let mut ctx = ThreadCtx {
                        pool: shared,
                        chunks,
                    };
                    for instr in script {
                        match instr {
                            Instr::Signal { barrier } => {
                                barriers[*barrier as usize].fetch_add(1, Ordering::Release);
                            }
                            Instr::Wait { barrier, needed } => {
                                let b = &barriers[*barrier as usize];
                                let mut spins = 0u32;
                                while b.load(Ordering::Acquire) < *needed {
                                    spins += 1;
                                    if spins.is_multiple_of(64) {
                                        std::thread::yield_now();
                                    }
                                    std::hint::spin_loop();
                                }
                            }
                            other => {
                                execute_instr(other, dist, &mut ctx);
                            }
                        }
                    }
                });
            }
        });

        let loss = pool.slice(session.loss_offset(), 1)[0];
        session.outcome(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_batch;
    use crate::exec::interp::ExecConfig;
    use crate::script::{generate, TableLayout};
    use crate::specialize::KernelPlan;
    use dyn_graph::{Graph, Model};
    use gpu_sim::{DeviceConfig, GpuSim};

    #[test]
    fn threaded_handles_wide_fan_in() {
        // Many VPPs accumulating into one derivative concurrently — the
        // atomic-add path under real contention.
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 4;
        let mut model = Model::new(55);
        let w = model.add_matrix("W", 16, 16);
        let plan = KernelPlan::build(&model, &device, 1).unwrap();
        let mut g = Graph::new();
        let x = g.input(vec![0.3; 16]);
        let shared = g.tanh(x);
        let mut heads = Vec::new();
        for _ in 0..24 {
            let h = g.matvec(&model, w, shared);
            let t = g.tanh(h);
            let l = g.pick_neg_log_softmax(t, 2);
            heads.push(l);
        }
        let loss_node = g.sum(&heads);

        let mut ref_model = model.clone();
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).unwrap();
        let gs = generate::generate(&g, loss_node, &plan, &mut pool, &tables).unwrap();
        for (id, node) in g.iter() {
            if let dyn_graph::Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
        let mut gpu = GpuSim::new(device);
        let cfg = ExecConfig::default();
        let loss = run_batch(&Threaded, &plan, &gs, &mut pool, &mut model, &mut gpu, cfg).loss;

        let ref_loss = dyn_graph::exec::forward_backward(&g, &mut ref_model, loss_node);
        assert!(
            (loss - ref_loss).abs() < 1e-3,
            "threaded {loss} vs reference {ref_loss}"
        );
    }
}
