//! Compute workers: where a multi-device [`crate::Server`] computes batch
//! values while its event thread moves on.
//!
//! A batch is charged on the event thread ([`vpps::Handle::dispatch`]):
//! its completion time, `Ok` / `Err`, phases and metrics are fixed there,
//! because no charge depends on a value. Its [`vpps::Compute`] then travels
//! to the worker its device always uses, with the model replica and the
//! scratch graph it reads, and comes back when the device joins it — before
//! the batch is reported finished, or when a fail-over aborts it. Ownership
//! moves to the worker and back; nothing is shared, so nothing is locked.
//! Channels are made once per device and worker, and a job moves buffers
//! its batch already owns, so a handoff allocates nothing.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

use dyn_graph::{Graph, Model, NodeId};
use vpps::{Compute, Computed};

/// The super-graph a device absorbs its batch into, and the nodes the batch
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
pub(crate) struct Job {
    compute: Compute,
    model: Model,
    scratch: Scratch,
    reply: SyncSender<Reply>,
}

/// A worker's answer: the computed batch with what its job borrowed, or
/// the payload of the panic that stopped it.
type Reply = thread::Result<(Computed, Model, Scratch)>;

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

/// Starts `workers` compute threads, each with a job queue of `capacity`
/// slots — one per device it serves, since a device has at most one batch
/// out. Returns the queues and the threads. A thread the OS refuses ends
/// the list early: fewer workers only means more computing on the event
/// thread, never other values.
pub(crate) fn spawn(
    workers: usize,
    capacity: usize,
) -> (Vec<SyncSender<Job>>, Vec<JoinHandle<()>>) {
    let mut queues = Vec::with_capacity(workers);
    let mut threads = Vec::with_capacity(workers);
    for w in 0..workers {
        let (queue, jobs) = mpsc::sync_channel(capacity);
        let Ok(thread) = thread::Builder::new()
            .name(format!("vpps-compute-{w}"))
            .spawn(move || work(&jobs))
        else {
            break;
        };
        queues.push(queue);
        threads.push(thread);
    }
    (queues, threads)
}

/// A worker's life: compute jobs in arrival order until every device
/// feeding it is gone. A job that panics is answered with its payload, so
/// the panic re-raises where the device joins, and the worker serves on.
fn work(jobs: &Receiver<Job>) {
    for job in jobs {
        let Job {
            compute,
            mut model,
            scratch,
            reply,
        } = job;
        let done = panic::catch_unwind(AssertUnwindSafe(move || {
            let _span = vpps_obs::span("serve.compute");
            let computed = compute.run(&mut model, &scratch.graph, &scratch.roots);
            (computed, model, scratch)
        }));
        // An error means the device is gone — its server was dropped with
        // the batch out — and nobody wants the values.
        let _ = reply.send(done);
    }
}

/// A device's line to the worker it always uses, with the one result slot
/// it needs: a device has at most one batch out.
#[derive(Debug)]
pub(crate) struct Line {
    jobs: SyncSender<Job>,
    reply: SyncSender<Reply>,
    replies: Receiver<Reply>,
}

impl Line {
    pub(crate) fn new(jobs: SyncSender<Job>) -> Self {
        let (reply, replies) = mpsc::sync_channel(1);
        Self {
            jobs,
            reply,
            replies,
        }
    }

    /// Hands `compute` to the worker with the replica and the scratch it
    /// reads.
    pub(crate) fn send(&self, compute: Compute, model: Model, scratch: Scratch) {
        let job = Job {
            compute,
            model,
            scratch,
            reply: self.reply.clone(),
        };
        // The worker leaves its loop only once every queue feeding it is
        // dropped, and this line holds one.
        self.jobs
            .send(job)
            .expect("a compute worker outlives the devices it serves");
    }

    /// Waits for the batch out on this line and takes back what it
    /// borrowed; a panic on the worker re-raises here.
    pub(crate) fn join(&self) -> (Computed, Model, Scratch) {
        // This line holds a reply sender, so `recv` cannot see a hang-up;
        // and the worker answers every job, panicked or not.
        let reply = self
            .replies
            .recv()
            .expect("a compute worker answers every job it takes");
        reply.unwrap_or_else(|payload| panic::resume_unwind(payload))
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

        let (mut queues, threads) = spawn(1, 1);
        let line = Line::new(queues.remove(0));
        line.send(compute, wrong, Scratch { graph, roots });
        let payload = panic::catch_unwind(AssertUnwindSafe(|| line.join()))
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
