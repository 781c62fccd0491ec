//! Compute workers: where a multi-device [`crate::Server`] computes batch
//! values, and prepares its devices' next batches, while its event thread
//! moves on.
//!
//! A batch is charged on the event thread ([`vpps::Handle::dispatch`]):
//! its completion time, `Ok` / `Err`, phases and metrics are fixed there,
//! because no charge depends on a value. Its [`vpps::Compute`] then travels
//! to the worker its device always uses, with the model replica and the
//! scratch graph it reads, and comes back when the device joins it — before
//! the batch is reported finished, or when a fail-over aborts it.
//!
//! The miss half of a charge — script generation and lowering — moves too
//! (DESIGN.md §10 "Prepare ahead"): when a device sends a compute, it can
//! hand the same worker a [`vpps::Preparer`] for the batch it will dispatch
//! next, absorbed into its second scratch graph. The worker runs computes
//! first, oldest first, then the newest prepare: the one whose dispatch is
//! furthest away. The event thread never idles while a task it waits for
//! has not started: at a join or a dispatch it takes its own task back and
//! runs it; while the worker runs that task, it runs the oldest queued
//! prepare — the next one some dispatch will need — and then waits, never
//! longer than the worker's remaining part of a task already under way.
//! Values are a pure function of each task, so who runs it changes no byte.
//!
//! Ownership moves to the worker and back: a worker's board — one mutex, one
//! condition variable each way — holds the queued computes, and per device
//! its prepare slot and its computed batch. Queues are made once per
//! worker, and a handoff moves buffers its batch already owns, so it
//! allocates nothing.

use std::collections::VecDeque;
use std::mem;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use dyn_graph::{Graph, Model, NodeId};
use vpps::{Ahead, Compute, Computed, Preparer};
use vpps_obs::Counter;

/// The super-graph a device absorbs a batch into, and the nodes the batch
/// reads (its request roots, or a training batch's loss). Kept across
/// batches, so absorbing does not allocate, and lent to the worker with the
/// batch.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub graph: Graph,
    pub roots: Vec<NodeId>,
}

/// One batch's value half on its way to a worker.
#[derive(Debug)]
struct Job {
    /// The lane of the device it came from.
    lane: usize,
    compute: Compute,
    model: Model,
    scratch: Scratch,
}

/// A computed batch with what its job borrowed, or the payload of the panic
/// that stopped it.
type Reply = thread::Result<(Computed, Model, Scratch)>;

/// One queued batch's generate + lower: batch `batch`, absorbed into
/// `scratch`.
#[derive(Debug)]
pub(crate) struct Prepare {
    pub batch: u64,
    pub scratch: Scratch,
    pub preparer: Preparer,
}

/// A finished prepare, as the device takes it back: batch `batch`'s
/// scratch and artifact — `None` if the batch does not fit the pool, or the
/// prepare was never run — and whether the event thread made it.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub batch: u64,
    pub scratch: Scratch,
    pub ahead: Option<Ahead>,
    pub here: bool,
}

/// What a device's prepare slot holds.
#[derive(Debug, Default)]
enum Slot {
    #[default]
    Idle,
    /// Waiting to be run.
    Queued(Prepare),
    /// Being run, on the worker or by the event thread.
    Running,
    Done(Prepared),
}

/// One device's place on a board.
#[derive(Debug, Default)]
struct Lane {
    prepare: Slot,
    /// The batch the worker computed, until the device joins it.
    computed: Option<Reply>,
}

/// What one worker shares with the devices it serves.
#[derive(Debug)]
pub(crate) struct Board {
    tasks: Mutex<Tasks>,
    /// Signals the worker: a task, or a hold released.
    ready: Condvar,
    /// Signals the event thread: a task finished.
    done: Condvar,
}

#[derive(Debug)]
struct Tasks {
    /// Computes, in arrival order: at most one per device.
    computes: VecDeque<Job>,
    /// The lanes whose slot holds a queued prepare, oldest first.
    queued: VecDeque<usize>,
    lanes: Vec<Lane>,
    /// Holds on the worker: the server's, until [`Board::release`], and
    /// one per line not yet dropped. The worker leaves once none is left
    /// and no compute is.
    open: usize,
}

impl Tasks {
    /// Starts lane `lane`'s queued prepare, if it has one: its slot says
    /// it runs.
    fn start(&mut self, lane: usize) -> Option<Prepare> {
        self.queued.retain(|&queued| queued != lane);
        let slot = &mut self.lanes[lane].prepare;
        match mem::replace(slot, Slot::Running) {
            Slot::Queued(prepare) => Some(prepare),
            other => {
                *slot = other;
                None
            }
        }
    }
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, Tasks> {
        // Nothing panics while holding the lock: a poisoned one holds
        // consistent tasks.
        self.tasks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops one hold on the worker: the server's, once its devices are
    /// gone, or a line's.
    pub(crate) fn release(&self) {
        self.lock().open -= 1;
        self.ready.notify_one();
    }

    /// What the event thread does while a task of its own runs on the
    /// worker: the oldest queued prepare, if one is, or else waits for a
    /// task to finish — counting that wait in `wait_ns`.
    fn help<'a>(
        &'a self,
        mut tasks: MutexGuard<'a, Tasks>,
        wait_ns: &Counter,
    ) -> MutexGuard<'a, Tasks> {
        if let Some(lane) = tasks.queued.front().copied() {
            if let Some(prepare) = tasks.start(lane) {
                drop(tasks);
                let prepared = prepare_now(prepare, true);
                tasks = self.lock();
                tasks.lanes[lane].prepare = Slot::Done(prepared);
            }
            return tasks;
        }
        let waiting = vpps_obs::enabled().then(Instant::now);
        tasks = self
            .done
            .wait(tasks)
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = waiting {
            wait_ns.add(t.elapsed().as_nanos() as u64);
        }
        tasks
    }
}

/// Background compute threads a server of `devices` devices starts: one
/// per available core up to one per device, minus the event thread, which
/// counts as one of them. One device or one core starts none; one device
/// does not even ask the OS for its core count.
pub(crate) fn default_workers(devices: usize) -> usize {
    if devices < 2 {
        return 0;
    }
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cores.min(devices) - 1
}

/// Starts `workers` compute threads, each with room for `capacity`
/// devices' tasks. Returns their boards, each held until
/// [`Board::release`], and the threads. A thread the OS refuses ends the
/// list early: fewer workers only means more computing on the event
/// thread, never other values.
pub(crate) fn spawn(workers: usize, capacity: usize) -> (Vec<Arc<Board>>, Vec<JoinHandle<()>>) {
    let mut boards = Vec::with_capacity(workers);
    let mut threads = Vec::with_capacity(workers);
    for w in 0..workers {
        let board = Arc::new(Board {
            tasks: Mutex::new(Tasks {
                computes: VecDeque::with_capacity(capacity),
                queued: VecDeque::with_capacity(capacity),
                lanes: Vec::with_capacity(capacity),
                open: 1,
            }),
            ready: Condvar::new(),
            done: Condvar::new(),
        });
        let mine = Arc::clone(&board);
        let Ok(thread) = thread::Builder::new()
            .name(format!("vpps-compute-{w}"))
            .spawn(move || work(&mine))
        else {
            break;
        };
        boards.push(board);
        threads.push(thread);
    }
    (boards, threads)
}

/// A worker's life: computes in arrival order, ahead of any prepare, then
/// the newest queued prepare, until every device feeding it is gone. A
/// compute that panics is answered with its payload, so the panic re-raises
/// where the device joins, and the worker serves on; a prepare that panics
/// prepares nothing, and the dispatch generates its batch.
fn work(board: &Board) {
    let mut tasks = board.lock();
    loop {
        if let Some(job) = tasks.computes.pop_front() {
            drop(tasks);
            let lane = job.lane;
            let reply = compute(job);
            tasks = board.lock();
            tasks.lanes[lane].computed = Some(reply);
        } else if let Some(lane) = tasks.queued.back().copied() {
            let Some(prepare) = tasks.start(lane) else {
                continue;
            };
            drop(tasks);
            let prepared = prepare_now(prepare, false);
            tasks = board.lock();
            tasks.lanes[lane].prepare = Slot::Done(prepared);
        } else if tasks.open == 0 {
            return;
        } else {
            tasks = board
                .ready
                .wait(tasks)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        board.done.notify_one();
    }
}

/// Computes one job.
fn compute(job: Job) -> Reply {
    let Job {
        compute,
        mut model,
        scratch,
        ..
    } = job;
    panic::catch_unwind(AssertUnwindSafe(move || {
        let _span = vpps_obs::span("serve.compute");
        let computed = compute.run(&mut model, &scratch.graph, &scratch.roots);
        (computed, model, scratch)
    }))
}

/// Runs one prepare, on the worker or (`here`) on the event thread.
fn prepare_now(prepare: Prepare, here: bool) -> Prepared {
    let Prepare {
        batch,
        scratch,
        preparer,
    } = prepare;
    let ahead = panic::catch_unwind(AssertUnwindSafe(|| {
        let _span = vpps_obs::span("serve.prepare");
        preparer.run(&scratch.graph)
    }));
    Prepared {
        batch,
        scratch,
        ahead: ahead.ok().flatten(),
        here,
    }
}

/// A device's line to the worker it always uses: its lane on the worker's
/// board.
#[derive(Debug)]
pub(crate) struct Line {
    board: Arc<Board>,
    lane: usize,
}

impl Line {
    pub(crate) fn new(board: &Arc<Board>) -> Self {
        let mut tasks = board.lock();
        tasks.lanes.push(Lane::default());
        tasks.open += 1;
        let lane = tasks.lanes.len() - 1;
        drop(tasks);
        Self {
            board: Arc::clone(board),
            lane,
        }
    }

    /// Hands `compute` to the worker with the replica and the scratch it
    /// reads.
    pub(crate) fn send(&self, compute: Compute, model: Model, scratch: Scratch) {
        let job = Job {
            lane: self.lane,
            compute,
            model,
            scratch,
        };
        self.board.lock().computes.push_back(job);
        self.board.ready.notify_one();
    }

    /// Takes back the batch out on this line, computed — by the worker, or
    /// here if the worker has not started it — with what it borrowed; a
    /// panic on the worker re-raises here. While the worker computes it,
    /// the event thread helps ([`Board::help`]).
    pub(crate) fn join(&self, wait_ns: &Counter) -> (Computed, Model, Scratch) {
        let mut tasks = self.board.lock();
        loop {
            if let Some(reply) = tasks.lanes[self.lane].computed.take() {
                return reply.unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
            let mine = tasks.computes.iter().position(|job| job.lane == self.lane);
            if let Some(job) = mine.and_then(|at| tasks.computes.remove(at)) {
                drop(tasks);
                let Job {
                    compute,
                    mut model,
                    scratch,
                    ..
                } = job;
                let computed = compute.run(&mut model, &scratch.graph, &scratch.roots);
                return (computed, model, scratch);
            }
            tasks = self.board.help(tasks, wait_ns);
        }
    }

    /// Queues `prepare` behind the worker's computes. The slot must be
    /// empty: [`Line::claim`] emptied it.
    pub(crate) fn prepare(&self, prepare: Prepare) {
        let mut tasks = self.board.lock();
        tasks.lanes[self.lane].prepare = Slot::Queued(prepare);
        tasks.queued.push_back(self.lane);
        drop(tasks);
        self.board.ready.notify_one();
    }

    /// Empties the prepare slot at the dispatch of batch `batch`: returns
    /// what it held, the prepare run — here if the worker had not started
    /// it, unless it was for another batch. While the worker runs it, the
    /// event thread helps ([`Board::help`]).
    pub(crate) fn claim(&self, batch: u64, wait_ns: &Counter) -> Option<Prepared> {
        let mut tasks = self.board.lock();
        while let Slot::Running = tasks.lanes[self.lane].prepare {
            tasks = self.board.help(tasks, wait_ns);
        }
        let lane = self.lane;
        tasks.queued.retain(|&queued| queued != lane);
        let slot = mem::take(&mut tasks.lanes[lane].prepare);
        drop(tasks);
        match slot {
            Slot::Queued(prepare) if prepare.batch == batch => Some(prepare_now(prepare, true)),
            Slot::Queued(Prepare { batch, scratch, .. }) => Some(Prepared {
                batch,
                scratch,
                ahead: None,
                here: true,
            }),
            Slot::Done(prepared) => Some(prepared),
            Slot::Idle | Slot::Running => None,
        }
    }
}

impl Drop for Line {
    /// Closes the line: its queued prepare leaves the queue, and its hold
    /// on the worker is released.
    fn drop(&mut self) {
        let lane = self.lane;
        self.board.lock().queued.retain(|&queued| queued != lane);
        self.board.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use vpps::{BackendKind, Handle, VppsOptions};

    /// A kernel assert on a worker panics the thread that joins the batch,
    /// instead of hanging it, and the worker survives its job's panic.
    #[test]
    fn a_panicking_job_re_raises_at_the_join() {
        let mut model = Model::new(7);
        let w = model.add_matrix("W", 16, 16);
        let mut graph = Graph::new();
        let x = graph.input(vec![0.5; 16]);
        let roots = vec![graph.matvec(&model, w, x)];
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 4;
        let opts = VppsOptions {
            pool_capacity: 1 << 16,
            backend: BackendKind::Lowered,
            ..VppsOptions::default()
        };
        let mut handle = Handle::new(&model, device, opts).expect("tiny model fits");
        let compute = handle
            .dispatch(&model, &graph, &roots, false)
            .expect("a clean batch charges");
        // A replica whose `W` lost half its rows: the prologue load the
        // sweep starts with cannot fill the register arena.
        let mut wrong = Model::new(7);
        wrong.add_matrix("W", 8, 16);

        let (boards, threads) = spawn(1, 1);
        let line = Line::new(&boards[0]);
        boards[0].release();
        line.send(compute, wrong, Scratch { graph, roots });
        // The join takes back a compute the worker has not started: let
        // the worker take this one first.
        while !boards[0].lock().computes.is_empty() {
            thread::yield_now();
        }
        let wait_ns = vpps_obs::counter("serve.compute.wait_ns");
        let payload = panic::catch_unwind(AssertUnwindSafe(|| line.join(&wait_ns)))
            .expect_err("the worker's panic re-raises at the join");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("does not match destination slice length"),
            "{message}"
        );
        drop(line);
        for thread in threads {
            assert!(thread.join().is_ok(), "the worker caught its job's panic");
        }
    }
}
