//! Process-global metrics registry: counters, gauges and log2-bucket
//! histograms.
//!
//! Metric handles are `Arc`-backed atomics: [`counter`] & co. take the
//! registry lock once to resolve the name, after which every mutation is a
//! single relaxed atomic RMW (or nothing at all while instrumentation is
//! disabled). Callers on hot paths should resolve the handle outside the
//! loop, or accumulate locally and flush once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::enabled;

/// Number of histogram buckets. Bucket 0 counts zero values; bucket `i > 0`
/// counts values in `[2^(i-1), 2^i)`; the last bucket is unbounded above.
pub const HIST_BUCKETS: usize = 32;

/// The bucket a value lands in (see [`HIST_BUCKETS`]).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the unbounded last
/// bucket — the Prometheus `le` label.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`. No-op while instrumentation is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value. No-op while instrumentation is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// A histogram with fixed log2 buckets (see [`HIST_BUCKETS`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one observation. No-op while instrumentation is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Copies the current bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (length [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) of the recorded values from
    /// the log2 buckets, interpolating linearly inside the target bucket.
    /// Returns 0 for an empty histogram. The last (unbounded) bucket is
    /// treated as spanning one doubling past its lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Rank of the target observation, 1-based: ceil(q * total).
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                // Bucket i spans [lower, upper): 0 -> [0, 1); i>0 ->
                // [2^(i-1), 2^i); the last bucket gets one extra doubling.
                let (lower, upper) = if i == 0 {
                    (0.0, 1.0)
                } else {
                    let lo = (1u64 << (i - 1)) as f64;
                    let hi = if i + 1 >= self.buckets.len() {
                        lo * 4.0
                    } else {
                        (1u64 << i) as f64
                    };
                    (lo, hi)
                };
                let frac = (rank - cum) as f64 / n as f64;
                return lower + frac * (upper - lower);
            }
            cum += n;
        }
        0.0
    }

    /// Convenience: the (p50, p95, p99) triple via [`Self::quantile`].
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// A metric's current value, as returned by [`registry_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram contents.
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        // The data is a map of Arc'd atomics — always structurally sound, so
        // a panic under the lock (e.g. a type-mismatch) must not poison it.
        .unwrap_or_else(|e| e.into_inner())
}

/// The metric registered as `name`, registering `make()` first if there is
/// none. A name seen before is looked up as the `&str` it is: the key is
/// allocated only on first registration.
fn resolve(name: &str, make: fn() -> Metric) -> Metric {
    let mut reg = registry();
    match reg.get(name) {
        Some(metric) => metric.clone(),
        None => reg.entry(name.to_owned()).or_insert_with(make).clone(),
    }
}

/// Resolves (registering on first use) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn counter(name: &str) -> Counter {
    match resolve(name, || {
        Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
    }) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Resolves (registering on first use) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn gauge(name: &str) -> Gauge {
    match resolve(name, || {
        Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
    }) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Resolves (registering on first use) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &str) -> Histogram {
    let make = || {
        Metric::Histogram(Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        })))
    };
    match resolve(name, make) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// Zeroes every registered metric (registrations and live handles survive).
pub fn reset_metrics() {
    for metric in registry().values() {
        match metric {
            Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.0.store(0f64.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => {
                for b in &h.0.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.0.sum.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Current values of every registered metric, sorted by name.
pub fn registry_snapshot() -> Vec<(String, MetricValue)> {
    registry()
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (name.clone(), value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn counters_accumulate_only_when_enabled() {
        let _guard = crate::test_lock();
        let c = counter("test.metrics.counter");
        set_enabled(false);
        c.add(5);
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.add(5);
        c.incr();
        set_enabled(false);
        assert_eq!(c.get(), 6);
        assert_eq!(counter("test.metrics.counter").get(), 6, "same handle");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _guard = crate::test_lock();
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1 << 40), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), Some(0));
        assert_eq!(bucket_upper_bound(3), Some(7));
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let _guard = crate::test_lock();
        set_enabled(true);
        let h = histogram("test.metrics.hist");
        for v in [0u64, 1, 3, 1000] {
            h.record(v);
        }
        set_enabled(false);
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 1004);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0.0);

        // 100 observations of the exact value 8 -> all in bucket [8, 16).
        let h = histogram("test.metrics.quant");
        let _guard = crate::test_lock();
        set_enabled(true);
        for _ in 0..100 {
            h.record(8);
        }
        set_enabled(false);
        let s = h.snapshot();
        let (p50, p95, p99) = s.percentiles();
        assert!((8.0..16.0).contains(&p50), "p50 {p50} in bucket span");
        assert!(p50 <= p95 && p95 <= p99, "monotone: {p50} {p95} {p99}");

        // A bimodal distribution: quantiles must straddle the modes.
        let mut lo_hi = HistogramSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
        };
        lo_hi.buckets[bucket_index(2)] = 90;
        lo_hi.buckets[bucket_index(1000)] = 10;
        assert!(lo_hi.quantile(0.5) < 8.0);
        assert!(lo_hi.quantile(0.99) >= 512.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_rejects_out_of_range() {
        HistogramSnapshot::default().quantile(0.0);
    }

    #[test]
    fn snapshot_and_reset_cover_the_registry() {
        let _guard = crate::test_lock();
        set_enabled(true);
        counter("test.metrics.reset_me").add(3);
        gauge("test.metrics.gauge").set(2.5);
        set_enabled(false);
        let snap = registry_snapshot();
        assert!(snap
            .iter()
            .any(|(n, v)| n == "test.metrics.reset_me" && *v == MetricValue::Counter(3)));
        assert!(snap
            .iter()
            .any(|(n, v)| n == "test.metrics.gauge" && *v == MetricValue::Gauge(2.5)));
        reset_metrics();
        assert_eq!(counter("test.metrics.reset_me").get(), 0);
        assert_eq!(gauge("test.metrics.gauge").get(), 0.0);
    }

    #[test]
    fn resolving_a_name_again_returns_the_same_metric() {
        let c = counter("test.metrics.again.counter");
        assert!(Arc::ptr_eq(&c.0, &counter("test.metrics.again.counter").0));
        let g = gauge("test.metrics.again.gauge");
        assert!(Arc::ptr_eq(&g.0, &gauge("test.metrics.again.gauge").0));
        let h = histogram("test.metrics.again.hist");
        assert!(Arc::ptr_eq(&h.0, &histogram("test.metrics.again.hist").0));
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn type_mismatch_panics() {
        counter("test.metrics.typed");
        gauge("test.metrics.typed");
    }
}
