//! The simulated device: kernel launches, clock, statistics.

use std::sync::OnceLock;

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::dram::{Dram, TrafficTag};
use crate::time::SimTime;

/// Posts one kernel launch to the observability layer. Handles are cached:
/// after the first resolution this is one flag load plus two atomic RMWs.
fn obs_record_launch(total: SimTime) {
    if vpps_obs::enabled() {
        static LAUNCHES: OnceLock<vpps_obs::Counter> = OnceLock::new();
        static KERNEL_NS: OnceLock<vpps_obs::Histogram> = OnceLock::new();
        LAUNCHES
            .get_or_init(|| vpps_obs::counter("gpusim.launches"))
            .incr();
        KERNEL_NS
            .get_or_init(|| vpps_obs::histogram("gpusim.kernel_ns"))
            .record(total.as_ns() as u64);
    }
}

/// Description of one kernel launch submitted to the simulated device.
///
/// Baseline executors launch one of these per operation batch; VPPS launches
/// exactly one *persistent* kernel per training batch (accounted separately
/// via [`GpuSim::record_persistent_kernel`] because its duration comes from
/// the virtual-processor timeline, not a roofline over aggregate traffic).
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Human-readable label for traces ("matvec", "tanh", ...).
    pub label: &'static str,
    /// Weight-matrix bytes loaded from DRAM.
    pub weight_bytes: u64,
    /// All other bytes loaded (activations, embeddings, ...).
    pub other_load_bytes: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// FP32 operations executed.
    pub flops: u64,
    /// CTAs launched — determines how many SMs participate.
    pub ctas: usize,
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Number of kernels launched (each paying launch overhead).
    pub kernels_launched: u64,
    /// Sum of kernel body durations (excluding launch overhead).
    pub busy_time: SimTime,
    /// Sum of launch overheads.
    pub launch_time: SimTime,
    /// Host-to-device copy time.
    pub copy_time: SimTime,
}

/// A simulated GPU: owns the DRAM counters, the clock and launch statistics.
///
/// The simulator is *serial*: kernels are assumed to execute back-to-back on
/// one stream, which matches how both DyNet's batching backends and the VPPS
/// runtime drive the device.
#[derive(Debug, Clone)]
pub struct GpuSim {
    cost: CostModel,
    dram: Dram,
    stats: KernelStats,
    now: SimTime,
}

impl GpuSim {
    /// Creates a device from a configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            cost: CostModel::new(cfg),
            dram: Dram::new(),
            stats: KernelStats::default(),
            now: SimTime::ZERO,
        }
    }

    /// The device's cost model (shared with the VPPS interpreter).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        self.cost.config()
    }

    /// DRAM traffic counters.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable DRAM counters (for executors that account traffic directly).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Launch statistics so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Captures the current counters for later delta extraction with
    /// [`crate::Metrics::since`].
    pub fn snapshot(&self) -> crate::metrics::DeviceSnapshot {
        crate::metrics::DeviceSnapshot::of(self)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Launches one kernel: records its traffic, charges launch overhead plus
    /// the roofline body time, advances the clock, and returns the body+launch
    /// duration.
    pub fn launch(&mut self, desc: &KernelDesc) -> SimTime {
        self.dram.record_load(TrafficTag::Weight, desc.weight_bytes);
        self.dram
            .record_load(TrafficTag::Activation, desc.other_load_bytes);
        self.dram
            .record_store(TrafficTag::Activation, desc.store_bytes);

        let body = self.cost.kernel_body_time(
            desc.weight_bytes + desc.other_load_bytes,
            desc.store_bytes,
            desc.flops,
            desc.ctas,
        );
        let launch = self.cost.launch_overhead();
        self.stats.kernels_launched += 1;
        self.stats.busy_time += body;
        self.stats.launch_time += launch;
        let total = body + launch;
        self.now += total;
        obs_record_launch(total);
        total
    }

    /// Records a persistent kernel whose duration was computed externally by
    /// the VPP timeline executor. Traffic must already have been recorded via
    /// [`GpuSim::dram_mut`]. Returns the launch-inclusive duration.
    pub fn record_persistent_kernel(&mut self, body: SimTime) -> SimTime {
        let launch = self.cost.launch_overhead();
        self.stats.kernels_launched += 1;
        self.stats.busy_time += body;
        self.stats.launch_time += launch;
        let total = body + launch;
        self.now += total;
        obs_record_launch(total);
        total
    }

    /// Advances the clock without attributing any device work — recovery
    /// waits (watchdog timeouts on hung kernels, retry backoff) that occupy
    /// virtual time but are neither kernel body nor launch nor copy.
    pub fn advance(&mut self, d: SimTime) {
        self.now += d;
    }

    /// Charges one *failed* kernel launch: the launch overhead is paid and
    /// the clock advances, but no kernel body runs and `kernels_launched`
    /// does not count it (metrics count completed kernels). Returns the
    /// overhead charged.
    pub fn record_failed_launch(&mut self) -> SimTime {
        let launch = self.cost.launch_overhead();
        self.stats.launch_time += launch;
        self.now += launch;
        launch
    }

    /// Performs a host-to-device copy: records script traffic and advances
    /// the clock. Returns the copy duration.
    pub fn h2d_copy(&mut self, bytes: u64, tag: TrafficTag) -> SimTime {
        // A host-to-device copy lands in DRAM; the subsequent kernel read is
        // what shows up as a load, so only the store side is recorded here.
        self.dram.record_store(tag, bytes);
        let t = self.cost.h2d_copy(bytes);
        self.stats.copy_time += t;
        self.now += t;
        if vpps_obs::enabled() {
            static BYTES: OnceLock<vpps_obs::Counter> = OnceLock::new();
            BYTES
                .get_or_init(|| vpps_obs::counter("gpusim.h2d_bytes"))
                .add(bytes);
        }
        t
    }

    /// Resets counters, statistics and the clock (between experiments).
    pub fn reset(&mut self) {
        self.dram.reset();
        self.stats = KernelStats::default();
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> KernelDesc {
        KernelDesc {
            label: "test",
            weight_bytes: 1 << 20,
            other_load_bytes: 1 << 10,
            store_bytes: 1 << 10,
            flops: 1 << 21,
            ctas: 80,
        }
    }

    #[test]
    fn launch_records_traffic_by_tag() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        gpu.launch(&desc());
        assert_eq!(gpu.dram().loads(TrafficTag::Weight), 1 << 20);
        assert_eq!(gpu.dram().loads(TrafficTag::Activation), 1 << 10);
        assert_eq!(gpu.dram().stores(TrafficTag::Activation), 1 << 10);
    }

    #[test]
    fn launch_advances_clock_monotonically() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        let t0 = gpu.now();
        let d1 = gpu.launch(&desc());
        let t1 = gpu.now();
        assert_eq!(t1, t0 + d1);
        gpu.launch(&desc());
        assert!(gpu.now() > t1);
    }

    #[test]
    fn every_launch_pays_overhead() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        for _ in 0..10 {
            gpu.launch(&KernelDesc {
                label: "tiny",
                weight_bytes: 0,
                other_load_bytes: 4,
                store_bytes: 4,
                flops: 1,
                ctas: 1,
            });
        }
        assert_eq!(gpu.stats().kernels_launched, 10);
        assert!(gpu.stats().launch_time.as_us() >= 50.0);
        // For tiny kernels launch overhead dominates body time — the paper's
        // §II point about short-lived kernels.
        assert!(gpu.stats().launch_time > gpu.stats().busy_time);
    }

    #[test]
    fn persistent_kernel_counts_once() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        let d = gpu.record_persistent_kernel(SimTime::from_ms(2.0));
        assert_eq!(gpu.stats().kernels_launched, 1);
        assert!(d > SimTime::from_ms(2.0));
    }

    #[test]
    fn h2d_copy_tags_script_traffic() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        gpu.h2d_copy(4096, TrafficTag::Script);
        assert_eq!(gpu.dram().stores(TrafficTag::Script), 4096);
        assert!(gpu.stats().copy_time.as_us() >= 8.0);
    }

    #[test]
    fn reset_clears_all_state() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        gpu.launch(&desc());
        gpu.reset();
        assert_eq!(gpu.stats(), KernelStats::default());
        assert_eq!(gpu.dram().total_loads(), 0);
        assert_eq!(gpu.now(), SimTime::ZERO);
    }

    #[test]
    fn advance_moves_clock_only() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        gpu.advance(SimTime::from_us(5.0));
        assert_eq!(gpu.now(), SimTime::from_us(5.0));
        assert_eq!(gpu.stats(), KernelStats::default());
        assert_eq!(gpu.dram().total_loads(), 0);
    }

    #[test]
    fn failed_launch_pays_overhead_but_counts_no_kernel() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        let d = gpu.record_failed_launch();
        assert!(d.as_ns() > 0.0);
        assert_eq!(gpu.now(), d);
        assert_eq!(gpu.stats().kernels_launched, 0);
        assert_eq!(gpu.stats().launch_time, d);
        assert_eq!(gpu.stats().busy_time, SimTime::ZERO);
    }

    #[test]
    fn fewer_ctas_never_faster() {
        let mut a = GpuSim::new(DeviceConfig::titan_v());
        let mut b = GpuSim::new(DeviceConfig::titan_v());
        let mut d1 = desc();
        d1.ctas = 1;
        let mut d80 = desc();
        d80.ctas = 80;
        let slow = a.launch(&d1);
        let fast = b.launch(&d80);
        assert!(slow >= fast);
    }
}
