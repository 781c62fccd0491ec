//! Recovery policy: watchdog, bounded retry with exponential backoff +
//! deterministic jitter, and the backend degradation ladder.
//!
//! The fault *injector* lives in `gpu_sim::fault`; this module is the other
//! half of the story — how the runtime reacts. Everything here is pure policy
//! arithmetic on the virtual clock (no wall time, no global state), so
//! recovery decisions are exactly as reproducible as the faults that trigger
//! them: the backoff jitter is drawn from the same seeded stream as the
//! injections.
//!
//! The ladder mirrors the system's trust hierarchy: a faulting batch first
//! retries on its configured backend, then degrades to the reference
//! event-driven interpreter (bit-identical by construction, so a successful
//! fallback yields the exact same result), and finally to launch-per-op
//! baseline execution on the host reference — the DyNet-style execution
//! model the paper argues against, kept as the last resort precisely
//! because per-op kernels hold no persistent register state to poison. That
//! rung cannot fault, so the ladder always ends in a value.

use gpu_sim::{FaultProfile, SimTime};

use super::BackendKind;

/// First retry's backoff delay (2 µs), in ns; doubles each further retry.
const BACKOFF_BASE_NS: f64 = 2e3;
/// Upper bound on the exponential backoff before jitter (1 ms), in ns.
const BACKOFF_CAP_NS: f64 = 1e6;
/// Watchdog timeout as a multiple of the session's analytic body time.
const WATCHDOG_MULTIPLIER: f64 = 4.0;
/// Floor on the watchdog timeout (10 µs), in ns: tiny batches still get a
/// grace period.
const WATCHDOG_MIN_NS: f64 = 1e4;

/// Attempts per backend rung before the batch degrades to the next one.
pub const MAX_ATTEMPTS: u32 = 3;
/// Faults charged to one plan before it is quarantined (evicted from the
/// specialize/lowered memos and re-JITted).
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// The watchdog timeout for a run whose analytic body time is `expected`:
/// `max(10 µs, 4 × expected)`. A hung run occupies exactly this much virtual
/// time before the watchdog kills it.
pub fn watchdog_timeout(expected: SimTime) -> SimTime {
    SimTime::from_ns(WATCHDOG_MIN_NS).max(SimTime::from_ns(expected.as_ns() * WATCHDOG_MULTIPLIER))
}

/// Backoff before retry number `retry` (0-based): exponential from 2 µs,
/// capped at 1 ms, plus jitter uniform in `[0, delay/2]` drawn from the fault
/// profile's seeded stream — so the delays decorrelate retries without
/// breaking reproducibility.
pub fn backoff_delay(retry: u32, profile: &mut FaultProfile) -> SimTime {
    let factor = 2.0f64.powi(retry.min(40) as i32);
    let capped = (BACKOFF_BASE_NS * factor).min(BACKOFF_CAP_NS);
    let jitter = profile.jitter_ns(capped * 0.5);
    SimTime::from_ns(capped + jitter)
}

/// The next rung down the degradation ladder, or `None` from the bottom
/// interpreter rung (the final rung — launch-per-op baseline execution — is
/// not an [`super::ExecutionBackend`] and is handled by [`crate::Handle`]).
pub fn degraded(kind: BackendKind) -> Option<BackendKind> {
    match kind {
        BackendKind::Lowered => Some(BackendKind::EventInterp),
        BackendKind::EventInterp => None,
    }
}

/// Cumulative recovery activity of one [`crate::Handle`], for bench rows and
/// invariant tests (exact even with observability disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Retry attempts after a fault (same rung).
    pub retries: u64,
    /// Total virtual time spent in retry backoff.
    pub backoff: SimTime,
    /// Watchdog timeouts declared.
    pub watchdog_timeouts: u64,
    /// Degradations to a lower [`BackendKind`] rung.
    pub backend_fallbacks: u64,
    /// Batches that fell all the way to launch-per-op baseline execution.
    pub baseline_fallbacks: u64,
    /// Plans quarantined (evicted + re-JITted).
    pub quarantines: u64,
    /// Plans re-JITted after quarantine (== quarantines unless re-JIT failed).
    pub rejits: u64,
    /// Transient JIT failures absorbed by retrying specialization.
    pub jit_retries: u64,
    /// Faulted attempts of training batches under an armed injector — each
    /// an update that never reached the parameters, since a faulted attempt
    /// computes nothing.
    pub rollbacks: u64,
}

impl std::ops::AddAssign for RecoveryStats {
    fn add_assign(&mut self, other: Self) {
        self.retries += other.retries;
        self.backoff += other.backoff;
        self.watchdog_timeouts += other.watchdog_timeouts;
        self.backend_fallbacks += other.backend_fallbacks;
        self.baseline_fallbacks += other.baseline_fallbacks;
        self.quarantines += other.quarantines;
        self.rejits += other.rejits;
        self.jit_retries += other.jit_retries;
        self.rollbacks += other.rollbacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultConfig;

    #[test]
    fn watchdog_scales_with_expected_time_and_has_floor() {
        assert_eq!(
            watchdog_timeout(SimTime::ZERO),
            SimTime::from_ns(WATCHDOG_MIN_NS)
        );
        let t = watchdog_timeout(SimTime::from_us(100.0));
        assert_eq!(t, SimTime::from_us(400.0));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        // Jitter-free comparison: rates 0 still draw jitter, so compare two
        // identically-seeded profiles instead of tuning to the stream.
        let mut a = FaultProfile::new(FaultConfig::uniform(1, 0.0));
        let mut b = FaultProfile::new(FaultConfig::uniform(1, 0.0));
        let d0 = backoff_delay(0, &mut a);
        let d0b = backoff_delay(0, &mut b);
        assert_eq!(d0, d0b, "same seed, same delay");
        // Bounds: delay in [base * 2^k, 1.5 * cap].
        assert!(d0.as_ns() >= BACKOFF_BASE_NS);
        assert!(d0.as_ns() <= BACKOFF_BASE_NS * 1.5);
        let d_huge = backoff_delay(30, &mut a);
        assert!(d_huge.as_ns() <= BACKOFF_CAP_NS * 1.5);
        assert!(d_huge.as_ns() >= BACKOFF_CAP_NS);
    }

    #[test]
    fn ladder_ends_at_event_interp() {
        assert_eq!(
            degraded(BackendKind::Lowered),
            Some(BackendKind::EventInterp)
        );
        assert_eq!(degraded(BackendKind::EventInterp), None);
    }
}
