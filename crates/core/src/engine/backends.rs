//! The three [`ExecutionBackend`] implementations.
//!
//! * [`EventInterp`] — replays the session timeline's serial order on one
//!   thread; the reference semantics every other backend is checked against.
//! * [`Threaded`] — one OS thread per VPP with the `signal`/`wait` protocol
//!   on real atomics (the paper's §III-B1 `atomicAdd` + `__threadfence`
//!   pairing); validates the scripts are deadlock-free and race-free under
//!   true concurrency.
//! * [`ParallelInterp`] — wave-parallel interpreter: barrier waves execute
//!   one after another, VPPs within a wave are partitioned across a host
//!   worker pool, and accumulating writes are journaled and committed in the
//!   reference serial order — so results are bit-identical to
//!   [`EventInterp`] while `repro` sweeps use every host core.
//!
//! All three read their timing and traffic numbers from the shared
//! [`Session`] analytics, so their [`RunOutcome::metrics`] are identical by
//! construction.

use std::sync::atomic::{AtomicU32, Ordering};

use vpps_tensor::{Pool, PoolOffset};

use crate::distribute::ChunkId;
use crate::engine::{BackendKind, ExecutionBackend, RunOutcome, Session};
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
///   barrier; the barrier's `Release`-increment / `Acquire`-spin (or, for the
///   wave-parallel backend, the per-wave thread join) establishes the
///   necessary happens-before edges.
/// * `accumulate` may race with other accumulators and therefore uses atomic
///   compare-and-swap adds on the `f32` bit patterns.
pub(crate) struct SharedPool {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: all concurrent access goes through the discipline documented above;
// the raw pointer itself is valid for the scope's lifetime and never
// reallocated while threads run.
unsafe impl Sync for SharedPool {}
unsafe impl Send for SharedPool {}

impl SharedPool {
    pub(crate) fn new(pool: &mut Pool) -> Self {
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
            // inherently racy (its float results carry tolerances), and
            // `ParallelInterp` gets bit-identical sums by journaling its
            // accumulates and committing them in reference serial order via
            // `add_serial` — never through this method.
            cell.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |cur| {
                Some((f32::from_bits(cur) + v).to_bits())
            })
            .expect("fetch_update closure never returns None");
        }
    }

    /// Serial add without atomics (used after a wave join, when no other
    /// thread is running).
    fn add_serial(&self, off: PoolOffset, data: &[f32]) {
        self.check(off, data.len());
        for (i, v) in data.iter().enumerate() {
            // SAFETY: in-bounds; caller guarantees exclusive access.
            unsafe { *self.ptr.add(off.raw() as usize + i) += *v };
        }
    }
}

/// A shared view of the register cache's chunk storage.
///
/// # Safety discipline
///
/// The script generator assigns every chunk-touching instruction to the
/// chunk's owning VPP, and each VPP's instruction stream runs on exactly one
/// thread at a time (per-VPP thread in [`Threaded`], one wave worker in
/// [`ParallelInterp`]). A chunk is therefore only ever accessed by one thread
/// concurrently; cross-wave ordering is established by thread joins.
pub(crate) struct SharedChunks {
    ptrs: Vec<(*mut f32, usize)>,
}

unsafe impl Sync for SharedChunks {}
unsafe impl Send for SharedChunks {}

impl SharedChunks {
    pub(crate) fn new(cache: &mut RegCache) -> Self {
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
    fn kind(&self) -> BackendKind {
        BackendKind::EventInterp
    }

    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome {
        let dist = session.plan.distribution();
        {
            let mut ctx = SeqCtx { pool, cache };
            for &(v, ip) in &session.timeline.order {
                let instr = &session.gs.scripts.script(v as usize)[ip as usize];
                execute_instr(instr, dist, &mut ctx);
            }
        }
        let loss = pool.slice(session.loss_offset(), 1)[0];
        session.outcome(loss)
    }
}

/// Real-thread backend: one OS thread per VPP, barriers on real atomics.
///
/// Functionally equivalent to [`EventInterp`] up to floating-point
/// accumulation order (concurrent atomic adds commute only approximately in
/// `f32`); forward-only values are bit-identical because plain writes have
/// unique writers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threaded;

impl ExecutionBackend for Threaded {
    fn kind(&self) -> BackendKind {
        BackendKind::Threaded
    }

    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome {
        run_threaded_scripts(session, pool, cache);
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

/// Executes the script phase on real threads (one per VPP). Shared between
/// the [`Threaded`] backend and the legacy
/// [`crate::exec::threaded::run_threaded`] entry point.
pub(crate) fn run_threaded_scripts(session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) {
    let dist = session.plan.distribution();
    let gs = session.gs;
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
}

/// Wave-parallel interpreter.
///
/// The script generator emits barriers as strictly ordered global waves:
/// every participant of wave `w` waits on the barrier that *all* of wave
/// `w-1`'s participants signal, so per VPP a script is a sequence of
/// `(wait? body signal)` segments with strictly increasing barrier ids.
/// Executing the waves one after another (with a full join in between) is
/// therefore a correct schedule, and within a wave the segments of distinct
/// VPPs are independent except for accumulating writes.
///
/// Determinism: plain writes (unique writer per epoch) go straight to the
/// pool during the parallel phase; accumulating writes are journaled with the
/// instruction's position in the reference serial order and committed
/// serially after the wave joins, sorted by that position. Every `f32` add
/// therefore happens in exactly the order [`EventInterp`] performs it, making
/// losses *and* updated parameters bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelInterp;

/// One journaled accumulating write: (reference serial position, target,
/// contribution).
type JournalEntry = (u32, PoolOffset, Vec<f32>);

struct WaveCtx<'a> {
    pool: &'a SharedPool,
    chunks: &'a SharedChunks,
    current: u32,
    journal: Vec<JournalEntry>,
}

impl ExecCtx for WaveCtx<'_> {
    fn read(&self, off: PoolOffset, out: &mut [f32]) {
        self.pool.read(off, out);
    }

    fn write(&mut self, off: PoolOffset, data: &[f32]) {
        self.pool.write(off, data);
    }

    fn accumulate(&mut self, off: PoolOffset, data: &[f32]) {
        self.journal.push((self.current, off, data.to_vec()));
    }

    fn chunk(&self, id: ChunkId) -> &[f32] {
        self.chunks.chunk(id)
    }

    fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        self.chunks.chunk_mut(id)
    }
}

impl ExecutionBackend for ParallelInterp {
    fn kind(&self) -> BackendKind {
        BackendKind::ParallelInterp
    }

    fn run(&self, session: &Session<'_>, pool: &mut Pool, cache: &mut RegCache) -> RunOutcome {
        let dist = session.plan.distribution();
        let gs = session.gs;
        let num_vpps = dist.geometry().total_vpps();

        // Position of each compute instruction in the reference serial order.
        let mut serial: Vec<Vec<u32>> = (0..num_vpps)
            .map(|v| vec![u32::MAX; gs.scripts.script(v).len()])
            .collect();
        for (pos, &(v, ip)) in session.timeline.order.iter().enumerate() {
            serial[v as usize][ip as usize] = pos as u32;
        }

        // Segment every script into barrier waves. Wave `w` holds, per VPP,
        // the instruction range whose trailing `signal` targets barrier `w`;
        // instructions after the last signal form a final drain wave.
        let num_waves = gs.num_barriers as usize + 1;
        let mut waves: Vec<Vec<(usize, std::ops::Range<usize>)>> = vec![Vec::new(); num_waves];
        for v in 0..num_vpps {
            let script = gs.scripts.script(v);
            let mut start = 0usize;
            for (i, instr) in script.iter().enumerate() {
                match instr {
                    Instr::Wait { .. } => start = i + 1,
                    Instr::Signal { barrier } => {
                        waves[*barrier as usize].push((v, start..i));
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            if start < script.len() {
                waves[num_waves - 1].push((v, start..script.len()));
            }
        }

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = SharedPool::new(pool);
        let chunks = SharedChunks::new(cache);

        for wave in &waves {
            if wave.is_empty() {
                continue;
            }
            let _wave_span = vpps_obs::span("engine.wave");
            let stripe = wave.len().div_ceil(workers.min(wave.len()));
            if vpps_obs::enabled() {
                vpps_obs::counter("engine.waves").incr();
                vpps_obs::counter("engine.wave_workers").add(wave.len().div_ceil(stripe) as u64);
            }
            let mut journal: Vec<JournalEntry> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for part in wave.chunks(stripe) {
                    let shared = &shared;
                    let chunks = &chunks;
                    let serial = &serial;
                    handles.push(scope.spawn(move || {
                        let mut ctx = WaveCtx {
                            pool: shared,
                            chunks,
                            current: 0,
                            journal: Vec::new(),
                        };
                        for (v, range) in part {
                            let script = gs.scripts.script(*v);
                            for ip in range.clone() {
                                ctx.current = serial[*v][ip];
                                execute_instr(&script[ip], dist, &mut ctx);
                            }
                        }
                        ctx.journal
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("wave worker panicked"))
                    .collect()
            });
            // Commit accumulating writes in the reference serial order.
            journal.sort_by_key(|(pos, _, _)| *pos);
            for (_, off, data) in &journal {
                shared.add_serial(*off, data);
            }
        }

        let loss = pool.slice(session.loss_offset(), 1)[0];
        session.outcome(loss)
    }
}
