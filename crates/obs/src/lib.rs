#![warn(missing_docs)]

//! Structured observability for the VPPS reproduction.
//!
//! One small, dependency-free layer shared by every crate in the workspace:
//!
//! * **Spans** ([`span()`]) — hierarchical host-side intervals with monotonic
//!   timestamps, recorded into a bounded global ring buffer. Each thread is
//!   its own *track*; nesting depth is maintained per thread, so well-nested
//!   span trees fall out of RAII scoping.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — a process-global
//!   registry of named counters, gauges and fixed-log2-bucket histograms,
//!   all plain atomics.
//! * **Exporters** — Chrome `trace_event` JSON ([`ChromeTrace`], the one
//!   writer, for host spans and [`SimTrace`] per-VPP kernel timelines alike),
//!   Prometheus text exposition ([`to_prometheus_text`]) and a versioned
//!   JSON snapshot ([`Snapshot`]) that parses back through its own schema.
//! * **Request traces** ([`trace`]) — per-request causal phase spans on the
//!   *virtual* clock recorded by the serving layer, and an analyzer
//!   ([`TraceAnalysis`]) that reconstructs each request's end-to-end
//!   timeline and proves the phases tile its latency exactly.
//!
//! Everything is gated on one global flag ([`set_enabled`]): when disabled
//! (the default) a span is an inert value and every metric mutation is a
//! single relaxed atomic load and a branch — cheap enough to leave the
//! instrumentation compiled into release binaries. Hot loops should still
//! check [`enabled`] once and accumulate locally, flushing one counter add
//! at the end.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod snapshot;
pub mod span;
pub mod trace;

mod clock;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables instrumentation. Disabled by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// `true` if instrumentation is enabled. One relaxed atomic load — this is
/// the whole disabled-path cost of every span and metric mutation.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes unit tests that toggle the global flag (they share one
/// process). Poisoning is ignored: a failed test must not cascade.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use chrome::{validate_chrome_trace, ChromeTrace, SimSpan, SimTrace};
pub use json::Json;
pub use metrics::{
    counter, gauge, histogram, registry_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricValue, HIST_BUCKETS,
};
pub use prometheus::to_prometheus_text;
pub use snapshot::Snapshot;
pub use span::{
    clear_spans, current_track, dropped_spans, snapshot_spans, span, SpanEvent, SpanGuard,
};
pub use trace::{
    BatchSpan, GroupBreakdown, Phase, PhaseSpan, PhaseStats, RequestTimeline, Resolution,
    TraceAnalysis, TraceEvent, TraceSink,
};
