//! Unified execution metrics shared by every execution backend.
//!
//! The VPPS engine backends (event-driven interpreter, lowered executor) and
//! the baseline executors all report their device activity through one
//! [`Metrics`] struct, so the paper's tables compare numbers produced by
//! identical plumbing: kernel time, DRAM traffic split by [`TrafficTag`],
//! launch counts, the per-VPP load-imbalance histogram and accumulated
//! barrier-stall time.
//!
//! Two construction paths exist:
//!
//! * **Analytic** (VPPS backends): the engine's timeline analysis computes
//!   the figures up front and [`Metrics::commit`] records them on a
//!   [`GpuSim`] — so every backend posts identical counters by
//!   construction.
//! * **Measured** (baselines): take a [`DeviceSnapshot`] before the work and
//!   call [`Metrics::since`] afterwards to extract the delta from the
//!   device's own counters.

use crate::dram::{Dram, TrafficTag};
use crate::sim::{GpuSim, KernelStats};
use crate::time::SimTime;

/// Number of buckets in the [`ImbalanceHistogram`].
pub const IMBALANCE_BUCKETS: usize = 8;

/// Histogram of per-VPP busy time as a fraction of the slowest VPP.
///
/// Bucket `i` counts VPPs whose script-phase time fell in
/// `[i/8, (i+1)/8)` of the maximum (the last bucket is inclusive). A run
/// with perfect load balance puts every VPP in the last bucket; a skewed
/// run spreads them out — the quantity behind the paper's load-balancing
/// discussion (§III-B2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImbalanceHistogram {
    /// Bucket counts, low fraction to high.
    pub buckets: [u64; IMBALANCE_BUCKETS],
}

impl ImbalanceHistogram {
    /// Builds the histogram from per-VPP busy times.
    pub fn from_times(times: &[SimTime]) -> Self {
        let mut h = Self::default();
        let max = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
        if max.as_ns() <= 0.0 {
            return h;
        }
        for t in times {
            h.record(t.as_ns() / max.as_ns());
        }
        h
    }

    /// Records one VPP at `fraction` (clamped to `[0, 1]`) of the maximum.
    pub fn record(&mut self, fraction: f64) {
        let f = fraction.clamp(0.0, 1.0);
        let idx = ((f * IMBALANCE_BUCKETS as f64) as usize).min(IMBALANCE_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Total VPPs recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Point-in-time copy of a device's counters, used to extract per-run deltas
/// with [`Metrics::since`].
#[derive(Debug, Clone, Default)]
pub struct DeviceSnapshot {
    dram: Dram,
    stats: KernelStats,
}

impl DeviceSnapshot {
    /// Captures the current counters of `gpu`.
    pub fn of(gpu: &GpuSim) -> Self {
        Self {
            dram: gpu.dram().clone(),
            stats: gpu.stats(),
        }
    }
}

/// Unified per-run (or cumulative) execution metrics.
///
/// Every execution backend populates the same fields the same way, so a
/// table row for VPPS and a table row for a DyNet-style baseline are
/// directly comparable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Kernel body time (busy time, excluding launch overhead).
    pub kernel_time: SimTime,
    /// Accumulated launch overhead.
    pub launch_time: SimTime,
    /// Host-to-device copy time.
    pub copy_time: SimTime,
    /// Kernel launches.
    pub launches: u64,
    /// DRAM traffic split by [`TrafficTag`].
    pub dram: Dram,
    /// Time VPPs spent stalled at level barriers (zero for backends without
    /// the signal/wait protocol, i.e. the baselines).
    pub barrier_stall: SimTime,
    /// Per-VPP load-imbalance histogram (empty for the baselines).
    pub imbalance: ImbalanceHistogram,
}

impl Metrics {
    /// Extracts the delta of `gpu`'s counters since `snapshot` (the measured
    /// path, used by launch-per-op executors such as the baselines).
    pub fn since(gpu: &GpuSim, snapshot: &DeviceSnapshot) -> Self {
        let stats = gpu.stats();
        Self {
            kernel_time: stats.busy_time - snapshot.stats.busy_time,
            launch_time: stats.launch_time - snapshot.stats.launch_time,
            copy_time: stats.copy_time - snapshot.stats.copy_time,
            launches: stats.kernels_launched - snapshot.stats.kernels_launched,
            dram: gpu.dram().delta(&snapshot.dram),
            barrier_stall: SimTime::ZERO,
            imbalance: ImbalanceHistogram::default(),
        }
    }

    /// Extracts `gpu`'s counters from device reset onward.
    pub fn capture(gpu: &GpuSim) -> Self {
        Self::since(gpu, &DeviceSnapshot::default())
    }

    /// Records analytically computed metrics onto `gpu`: posts the DRAM
    /// traffic and registers one persistent-kernel execution of
    /// [`Metrics::kernel_time`] per launch. This is the single point where
    /// the VPPS engine touches the device counters, so every backend posts
    /// identical numbers.
    pub fn commit(&self, gpu: &mut GpuSim) {
        gpu.dram_mut().merge(&self.dram);
        for _ in 0..self.launches {
            gpu.record_persistent_kernel(self.kernel_time);
        }
    }

    /// Adds another run's metrics into this one (per-batch accumulation).
    pub fn merge(&mut self, other: &Self) {
        self.kernel_time += other.kernel_time;
        self.launch_time += other.launch_time;
        self.copy_time += other.copy_time;
        self.launches += other.launches;
        self.dram.merge(&other.dram);
        self.barrier_stall += other.barrier_stall;
        self.imbalance.merge(&other.imbalance);
    }

    /// Weight-matrix bytes loaded from DRAM (Table I's quantity).
    pub fn weight_load_bytes(&self) -> u64 {
        self.dram.loads(TrafficTag::Weight)
    }

    /// Weight bytes loaded, in megabytes (Table I's unit).
    pub fn weight_loads_mb(&self) -> f64 {
        self.dram.weight_loads_mb()
    }

    /// Fraction of DRAM load bytes that were weights (Fig. 2).
    pub fn weight_load_fraction(&self) -> f64 {
        self.dram.weight_load_fraction()
    }

    /// Total device time: kernel bodies + launch overhead + copies.
    pub fn device_time(&self) -> SimTime {
        self.kernel_time + self.launch_time + self.copy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::sim::KernelDesc;

    fn desc() -> KernelDesc {
        KernelDesc {
            label: "k",
            weight_bytes: 1024,
            other_load_bytes: 256,
            store_bytes: 128,
            flops: 4096,
            ctas: 8,
        }
    }

    #[test]
    fn since_extracts_only_the_delta() {
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        gpu.launch(&desc());
        let snap = DeviceSnapshot::of(&gpu);
        gpu.launch(&desc());
        gpu.launch(&desc());
        let m = Metrics::since(&gpu, &snap);
        assert_eq!(m.launches, 2);
        assert_eq!(m.weight_load_bytes(), 2048);
        assert!(m.kernel_time > SimTime::ZERO);
        let all = Metrics::capture(&gpu);
        assert_eq!(all.launches, 3);
        assert_eq!(all.weight_load_bytes(), 3072);
    }

    #[test]
    fn commit_round_trips_through_the_device() {
        let mut m = Metrics::default();
        m.dram.record_load(TrafficTag::Weight, 512);
        m.dram.record_store(TrafficTag::Activation, 64);
        m.kernel_time = SimTime::from_us(3.0);
        m.launches = 1;
        let mut gpu = GpuSim::new(DeviceConfig::titan_v());
        m.commit(&mut gpu);
        let back = Metrics::capture(&gpu);
        assert_eq!(back.weight_load_bytes(), 512);
        assert_eq!(back.launches, 1);
        assert_eq!(back.kernel_time, m.kernel_time);
    }

    #[test]
    fn histogram_buckets_fractions() {
        let times: Vec<SimTime> = [1.0, 0.5, 0.99, 0.1]
            .iter()
            .map(|&s| SimTime::from_us(s))
            .collect();
        let h = ImbalanceHistogram::from_times(&times);
        assert_eq!(h.total(), 4);
        assert_eq!(
            h.buckets[7], 2,
            "the max itself and 0.99 land in the top bucket"
        );
        assert_eq!(h.buckets[4], 1, "0.5 of max");
        assert_eq!(h.buckets[0], 1, "0.1 of max");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics {
            launches: 1,
            barrier_stall: SimTime::from_us(1.0),
            ..Metrics::default()
        };
        a.imbalance.record(1.0);
        let mut b = Metrics {
            launches: 2,
            barrier_stall: SimTime::from_us(2.0),
            ..Metrics::default()
        };
        b.imbalance.record(0.2);
        a.merge(&b);
        assert_eq!(a.launches, 3);
        assert_eq!(a.barrier_stall, SimTime::from_us(3.0));
        assert_eq!(a.imbalance.total(), 2);
    }
}
