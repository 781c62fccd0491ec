//! The benchmark's metric catalogue: the names, units, directions and bounds
//! that `BENCHMARK.json` declares and every run prints. A unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry. `bound` is the share of the baseline's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported on every workload with `--trace 0`.
///
/// Each bound is at least three times the widest run-to-run spread (IQR over
/// median, ten seeds) seen on any workload when the benchmark was defined:
/// host times drift by 5–12 % on a shared two-core VM, and the simulated
/// metrics, exact at one seed, move by up to 8 % from seed to seed. At one
/// seed `compare` holds the simulated metrics and the allocation count to
/// exact equality instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_ops_per_s", "1/s", Higher, 0.25),
    e2e("host_call_us_p50", "us", Lower, 0.25),
    e2e("host_allocs_per_op", "count", Lower, 0.08),
    e2e("host_peak_rss_mb", "MB", Lower, 0.12),
    e2e("sim_ops_per_s", "1/s", Higher, 0.06),
    e2e("sim_latency_us_p50", "us", Lower, 0.20),
    e2e("sim_latency_us_p99", "us", Lower, 0.25),
];

/// End-to-end metrics that are a pure function of the seed: `compare`
/// requires them to be identical between two result sets of one seed.
pub const EXACT_AT_ONE_SEED: &[&str] = &[
    "host_allocs_per_op",
    "sim_ops_per_s",
    "sim_latency_us_p50",
    "sim_latency_us_p99",
];

/// Per-layer metrics, reported with `--trace 1`. A value of 0 on a workload
/// that does not use the layer means "not applicable".
pub const PER_LAYER: &[MetricDef] = &[
    layer("datasets.sample_us_per_op", "us", Lower),
    layer("models.build_us_per_op", "us", Lower),
    layer("models.nodes_per_op", "count", Lower),
    layer("dyn_graph.level_sort_us_per_op", "us", Lower),
    layer("specialize.plan_build_ms", "ms", Lower),
    layer("specialize.handle_new_ms", "ms", Lower),
    layer("specialize.sim_jit_s", "s", Lower),
    layer("specialize.cached_mb", "MB", Higher),
    layer("specialize.ctas_per_sm", "count", Higher),
    layer("script.generate_us_per_op", "us", Lower),
    layer("script.instrs_per_op", "count", Lower),
    layer("script.bytes_per_op", "B", Lower),
    layer("script.barriers_per_op", "count", Lower),
    layer("engine.lower_us_per_op", "us", Lower),
    layer("engine.lower_us_per_miss", "us", Lower),
    layer("engine.script_hit_share", "share", Higher),
    layer("engine.script_re_misses", "count", Lower),
    layer("engine.script_evictions", "count", Lower),
    layer("engine.prepare_us_per_op", "us", Lower),
    layer("engine.execute_us_per_op", "us", Lower),
    layer("engine.sim_instrs_per_op", "count", Lower),
    layer("engine.host_ns_per_sim_instr", "ns", Lower),
    layer("engine.interp_execute_us_per_op", "us", Lower),
    layer("engine.lowered_speedup", "x", Higher),
    layer("handle.fb_us_per_op", "us", Lower),
    layer("handle.overhead_us_per_op", "us", Lower),
    layer("handle.sim_host_us_per_op", "us", Lower),
    layer("handle.sim_device_us_per_op", "us", Lower),
    layer("handle.retries", "count", Lower),
    layer("handle.backend_fallbacks", "count", Lower),
    layer("gpu_sim.launches_per_op", "count", Lower),
    layer("gpu_sim.weight_load_mb_per_kop", "MB", Lower),
    layer("gpu_sim.dram_load_mb_per_kop", "MB", Lower),
    layer("gpu_sim.weight_load_share", "share", Lower),
    layer("gpu_sim.sim_kernel_us_per_op", "us", Lower),
    layer("gpu_sim.barrier_stall_share", "share", Lower),
    layer("serve.submit_us_per_op", "us", Lower),
    layer("serve.pump_us_per_op", "us", Lower),
    layer("serve.overhead_share", "share", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.redispatched", "count", Lower),
    layer("serve.rehomes", "count", Lower),
    layer("serve.cold_rebuilds", "count", Lower),
    layer("serve.sim_queue_wait_us_p99", "us", Lower),
    layer("serve.sim_execute_us_p99", "us", Lower),
    layer("serve.sim_device_busy_share", "share", Lower),
    layer("serve.sim_device_busy_imbalance", "x", Lower),
    layer("obs.trace_overhead_share", "share", Lower),
    layer("obs.analyze_ms", "ms", Lower),
    layer("obs.trace_events_per_op", "count", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("obs.trace_complete", "count", Higher),
    layer("baselines.sim_speedup", "x", Higher),
    layer("baselines.train_us_per_op", "us", Lower),
    layer("trace.stepped_coverage", "share", Higher),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use vpps_obs::Json;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// `BENCHMARK.json` at the repository root must declare exactly this
    /// catalogue and these workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(field(entry, "name"), d.name);
                assert_eq!(field(entry, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(entry, "better"), d.better.name(), "{}", d.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(entry, "name"), w.name());
            assert_eq!(field(entry, "why"), w.why());
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(d.name, "_.-", 64), "name {}", d.name);
            assert!(ok(d.unit, "_/%.-", 16), "unit {}", d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
