//! The baseline training executor.

use dyn_graph::{exec as refexec, Graph, Model, NodeId, Trainer};
use gpu_sim::{DeviceConfig, GpuSim, HostCostModel, Metrics, SimTime};

use crate::groups::{group_graph, Strategy};
use crate::kernels;

/// Accumulated host/device phase times for a baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BaselinePhases {
    /// Host: graph construction.
    pub graph_construction: SimTime,
    /// Host: batching/scheduling passes.
    pub scheduling: SimTime,
    /// Host: per-kernel preparation (argument marshalling, dispatch).
    pub kernel_prep: SimTime,
    /// Device: all kernel time including launch overheads and copies.
    pub device: SimTime,
}

impl BaselinePhases {
    /// Total host time.
    pub fn host_total(&self) -> SimTime {
        self.graph_construction + self.scheduling + self.kernel_prep
    }
}

/// Trains batches the way DyNet/TF-Fold do: functional math from the
/// reference executor (so losses match VPPS bit-for-bit-adjacent), with the
/// device cost modeled from the kernel groups the strategy achieves.
///
/// Unlike VPPS, baselines are *synchronous*: the host prepares, then the
/// device runs, so wall time is host + device with no overlap.
#[derive(Debug)]
pub struct BaselineExecutor {
    gpu: GpuSim,
    strategy: Strategy,
    trainer: Trainer,
    host: HostCostModel,
    phases: BaselinePhases,
    wall: SimTime,
    batches: u64,
}

impl BaselineExecutor {
    /// Creates an executor for `strategy` on `device` with SGD at
    /// `learning_rate`.
    pub fn new(device: DeviceConfig, strategy: Strategy, learning_rate: f32) -> Self {
        let mut host = HostCostModel::default();
        // On-the-fly batching does more per node than VPPS's script
        // generator: signature hashing, ready-set maintenance and operand
        // gather/scatter bookkeeping (Neubig et al. §4 measure this cost).
        host.schedule_node_ns *= 1.4;
        if strategy == Strategy::TfFold {
            // TF-Fold's instruction tape + gather machinery costs even more
            // per scheduled node, and its graph construction is heavier.
            host.schedule_node_ns *= 1.6;
            host.graph_node_ns *= 1.4;
        }
        Self {
            gpu: GpuSim::new(device),
            strategy,
            trainer: Trainer::new(learning_rate),
            host,
            phases: BaselinePhases::default(),
            wall: SimTime::ZERO,
            batches: 0,
        }
    }

    /// Trains one batch super-graph: forward, backward, update. Returns the
    /// loss (synchronously, unlike VPPS's stale-loss pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node of `graph`.
    pub fn train_batch(&mut self, model: &mut Model, graph: &Graph, loss: NodeId) -> f32 {
        let _span = vpps_obs::span("baseline.train_batch");
        // --- functional math (ground truth).
        let values = refexec::forward(graph, model);
        let loss_value = values[loss.index()][0];
        refexec::backward(graph, model, &values, loss);
        self.trainer.update(model);

        // --- performance model.
        let device_before = self.gpu.now();
        let groups = group_graph(graph, self.strategy);
        let mut kernel_count = 0usize;
        for group in &groups {
            if self.strategy.needs_gather() && group.len() > 1 {
                let _s = vpps_obs::span("baseline.kernel_launch");
                self.gpu.launch(&kernels::gather_kernel(graph, group));
                kernel_count += 1;
            }
            for desc in kernels::forward_kernels(graph, model, group) {
                let _s = vpps_obs::span("baseline.kernel_launch");
                self.gpu.launch(&desc);
                kernel_count += 1;
            }
        }
        for group in groups.iter().rev() {
            for desc in kernels::backward_kernels(graph, model, group) {
                let _s = vpps_obs::span("baseline.kernel_launch");
                self.gpu.launch(&desc);
                kernel_count += 1;
            }
        }
        for (_, p) in model.params() {
            let _s = vpps_obs::span("baseline.kernel_launch");
            self.gpu
                .launch(&kernels::update_kernel(p.value.size_bytes() as u64));
            kernel_count += 1;
        }
        let device = self.gpu.now() - device_before;

        let t_graph = self.host.graph_construction(graph.len());
        let t_sched = self.host.schedule(graph.len(), 0) + self.host.schedule(graph.len(), 0); // forward + backward batching passes
        let t_prep = self.host.kernel_prep(kernel_count);

        self.phases.graph_construction += t_graph;
        self.phases.scheduling += t_sched;
        self.phases.kernel_prep += t_prep;
        self.phases.device += device;
        // Synchronous: no host/device overlap.
        self.wall += t_graph + t_sched + t_prep + device;
        self.batches += 1;
        loss_value
    }

    /// The batching strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The simulated device (kernel counts, DRAM traffic).
    pub fn gpu(&self) -> &GpuSim {
        &self.gpu
    }

    /// Unified cumulative metrics, extracted from the device counters with
    /// the same [`Metrics`] plumbing the VPPS engine uses — so baseline and
    /// VPPS table rows are directly comparable.
    pub fn metrics(&self) -> Metrics {
        Metrics::capture(&self.gpu)
    }

    /// Accumulated wall time.
    pub fn wall_time(&self) -> SimTime {
        self.wall
    }

    /// Phase breakdown.
    pub fn phases(&self) -> &BaselinePhases {
        &self.phases
    }

    /// Batches trained.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TrafficTag;

    fn toy() -> (Model, dyn_graph::ParamId, dyn_graph::ParamId) {
        let mut m = Model::new(21);
        let w = m.add_matrix("W", 32, 32);
        let cls = m.add_matrix("cls", 4, 32);
        (m, w, cls)
    }

    fn chain(
        m: &Model,
        w: dyn_graph::ParamId,
        cls: dyn_graph::ParamId,
        steps: usize,
    ) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let mut h = g.input(vec![0.2; 32]);
        for _ in 0..steps {
            let z = g.matvec(m, w, h);
            h = g.tanh(z);
        }
        let o = g.matvec(m, cls, h);
        let l = g.pick_neg_log_softmax(o, 1);
        (g, l)
    }

    #[test]
    fn losses_match_reference_for_all_strategies() {
        for strategy in [
            Strategy::Unbatched,
            Strategy::DepthBased,
            Strategy::AgendaBased,
            Strategy::TfFold,
        ] {
            let (mut m, w, cls) = toy();
            let mut ref_model = m.clone();
            let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), strategy, 0.1);
            let trainer = Trainer::new(0.1);
            for step in 0..4 {
                let (g, l) = chain(&m, w, cls, 1 + step % 3);
                let got = exec.train_batch(&mut m, &g, l);
                let (rg, rl) = chain(&ref_model, w, cls, 1 + step % 3);
                let want = refexec::forward_backward(&rg, &mut ref_model, rl);
                trainer.update(&mut ref_model);
                assert!((got - want).abs() < 1e-6, "{strategy:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn batching_reduces_kernel_count() {
        let build_batch = |m: &Model, w, cls| {
            // Super-graph of 8 inputs.
            let mut sg = Graph::new();
            let mut losses = Vec::new();
            for _ in 0..8 {
                let (g, l) = chain(m, w, cls, 3);
                losses.push(sg.absorb(&g, l));
            }
            let total = sg.sum(&losses);
            (sg, total)
        };
        let (mut m1, w, cls) = toy();
        let mut unb = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::Unbatched, 0.1);
        let (g, l) = build_batch(&m1, w, cls);
        unb.train_batch(&mut m1, &g, l);

        let (mut m2, w2, cls2) = toy();
        let mut ab = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::AgendaBased, 0.1);
        let (g2, l2) = build_batch(&m2, w2, cls2);
        ab.train_batch(&mut m2, &g2, l2);

        assert!(
            ab.gpu().stats().kernels_launched * 3 < unb.gpu().stats().kernels_launched,
            "agenda {} vs unbatched {}",
            ab.gpu().stats().kernels_launched,
            unb.gpu().stats().kernels_launched
        );
    }

    #[test]
    fn batching_reduces_weight_traffic() {
        let (mut m1, w, cls) = toy();
        let mut unb = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::Unbatched, 0.1);
        let mut sg = Graph::new();
        let mut losses = Vec::new();
        for _ in 0..8 {
            let (g, l) = chain(&m1, w, cls, 3);
            losses.push(sg.absorb(&g, l));
        }
        let total = sg.sum(&losses);
        unb.train_batch(&mut m1, &sg, total);
        let unb_weights = unb.gpu().dram().loads(TrafficTag::Weight);

        let (mut m2, w2, cls2) = toy();
        let mut ab = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::AgendaBased, 0.1);
        let mut sg2 = Graph::new();
        let mut losses2 = Vec::new();
        for _ in 0..8 {
            let (g, l) = chain(&m2, w2, cls2, 3);
            losses2.push(sg2.absorb(&g, l));
        }
        let total2 = sg2.sum(&losses2);
        ab.train_batch(&mut m2, &sg2, total2);
        let ab_weights = ab.gpu().dram().loads(TrafficTag::Weight);

        assert!(
            ab_weights < unb_weights,
            "batched {ab_weights} vs unbatched {unb_weights}"
        );
    }

    #[test]
    fn tf_fold_is_slower_than_dynet_db() {
        let run = |strategy| {
            let (mut m, w, cls) = toy();
            let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), strategy, 0.1);
            for _ in 0..3 {
                let (g, l) = chain(&m, w, cls, 4);
                exec.train_batch(&mut m, &g, l);
            }
            exec.wall_time()
        };
        assert!(run(Strategy::TfFold) > run(Strategy::DepthBased));
    }

    #[test]
    fn wall_time_is_host_plus_device() {
        let (mut m, w, cls) = toy();
        let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::DepthBased, 0.1);
        let (g, l) = chain(&m, w, cls, 2);
        exec.train_batch(&mut m, &g, l);
        let p = exec.phases();
        let expect = p.host_total() + p.device;
        assert!((exec.wall_time().as_ns() - expect.as_ns()).abs() < 1.0);
    }

    #[test]
    fn training_converges() {
        let (mut m, w, cls) = toy();
        let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::AgendaBased, 0.2);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..20 {
            let (g, l) = chain(&m, w, cls, 2);
            let loss = exec.train_batch(&mut m, &g, l);
            if i == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(
            last < first * 0.5,
            "baseline training should converge: {first} -> {last}"
        );
    }

    #[test]
    fn metrics_come_from_the_unified_plumbing() {
        let (mut m, w, cls) = toy();
        let mut exec = BaselineExecutor::new(DeviceConfig::titan_v(), Strategy::DepthBased, 0.1);
        let (g, l) = chain(&m, w, cls, 3);
        exec.train_batch(&mut m, &g, l);
        let metrics = exec.metrics();
        assert_eq!(metrics.launches, exec.gpu().stats().kernels_launched);
        assert_eq!(
            metrics.weight_load_bytes(),
            exec.gpu().dram().loads(TrafficTag::Weight)
        );
        assert!(
            metrics.launches > 1,
            "baselines launch one kernel per op group"
        );
        // Baselines have no signal/wait protocol.
        assert_eq!(metrics.barrier_stall, SimTime::ZERO);
        assert_eq!(metrics.imbalance.total(), 0);
    }
}
