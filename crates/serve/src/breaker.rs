//! Per-model circuit breaker on the virtual clock.
//!
//! Every registered model gets one [`CircuitBreaker`]. Batch failures (a
//! typed [`vpps::VppsError`] from the model's handle that no retry fixes —
//! its own ladder absorbs every injected device fault) count against a
//! consecutive-failure threshold; at the threshold the breaker **opens** and
//! the server sheds that model's work with
//! [`crate::ShedReason::BreakerOpen`] instead of queueing it behind a
//! failing handle. After a cooldown on the virtual clock the breaker goes
//! **half-open**: exactly one probe batch is let through, and its outcome
//! decides between closing (recovered) and re-opening (still failing).
//!
//! Like everything else in the server, transitions are driven purely by
//! [`SimTime`] and recorded in order, so breaker behaviour is byte-
//! reproducible under a seeded fault profile.

use gpu_sim::SimTime;

/// Breaker state. The numeric value (0/1/2) is exported on the
/// `serve.breaker_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: batches dispatch freely.
    Closed,
    /// Tripped: dispatch is shed until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe batch is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case name (used in transition logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: closed = 0, open = 1, half-open = 2.
    pub fn as_gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// One recorded state change, for invariant tests and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A consecutive-failure circuit breaker (see the module docs for the
/// protocol).
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: SimTime,
    state: BreakerState,
    consecutive_failures: u32,
    /// When `state == Open`, the time at which a probe becomes allowed.
    open_until: SimTime,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// Creates a closed breaker that opens after `threshold` consecutive
    /// failures and probes after `cooldown` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (the breaker would be permanently
    /// open).
    pub fn new(threshold: u32, cooldown: SimTime) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        Self {
            threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            transitions: Vec::new(),
        }
    }

    /// Current state (does not advance the clock; `Open` is reported even
    /// if the cooldown has elapsed — the transition to `HalfOpen` happens on
    /// the next [`CircuitBreaker::allow`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Every state change so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn set_state(&mut self, to: BreakerState, at: SimTime) {
        if self.state == to {
            return;
        }
        self.transitions.push(BreakerTransition {
            at,
            from: self.state,
            to,
        });
        self.state = to;
        vpps_obs::gauge("serve.breaker_state").set(to.as_gauge());
        if vpps_obs::enabled() {
            let lifecycle = match to {
                BreakerState::Open => "serve.breaker.opened",
                BreakerState::HalfOpen => "serve.breaker.half_open",
                BreakerState::Closed => "serve.breaker.closed",
            };
            vpps_obs::counter(lifecycle).incr();
        }
    }

    /// Asks whether a batch may dispatch at virtual time `now`. `Closed`
    /// and `HalfOpen` allow; `Open` allows only once the cooldown has
    /// elapsed, transitioning to `HalfOpen` (the caller's batch is the
    /// probe).
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.set_state(BreakerState::HalfOpen, now);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful batch: resets the failure run and closes the
    /// breaker (a half-open probe that succeeds re-closes it).
    pub fn record_success(&mut self, now: SimTime) {
        self.consecutive_failures = 0;
        self.set_state(BreakerState::Closed, now);
    }

    /// Records a failed batch. In `Closed`, opens at the threshold; in
    /// `HalfOpen`, the failed probe re-opens immediately (and restarts the
    /// cooldown).
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            self.open_until = now + self.cooldown;
            self.set_state(BreakerState::Open, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(3, SimTime::from_us(100.0))
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = breaker();
        let t = SimTime::from_us(1.0);
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(t));
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t));
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = breaker();
        let t = SimTime::from_us(1.0);
        b.record_failure(t);
        b.record_failure(t);
        b.record_success(t);
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_decides_close_or_reopen() {
        let mut b = breaker();
        let t0 = SimTime::from_us(1.0);
        for _ in 0..3 {
            b.record_failure(t0);
        }
        assert!(!b.allow(SimTime::from_us(50.0)), "cooldown not elapsed");
        let t1 = SimTime::from_us(200.0);
        assert!(b.allow(t1), "cooldown elapsed: probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens and restarts the cooldown.
        b.record_failure(t1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t1 + SimTime::from_us(50.0)));
        // A later probe that succeeds closes the breaker.
        let t2 = t1 + SimTime::from_us(150.0);
        assert!(b.allow(t2));
        b.record_success(t2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn transitions_are_recorded_in_order_and_legal() {
        let mut b = breaker();
        let mut t = SimTime::from_us(1.0);
        for _ in 0..3 {
            b.record_failure(t);
        }
        t += SimTime::from_us(150.0);
        b.allow(t);
        b.record_failure(t);
        t += SimTime::from_us(150.0);
        b.allow(t);
        b.record_success(t);
        let states: Vec<_> = b.transitions().iter().map(|tr| (tr.from, tr.to)).collect();
        assert_eq!(
            states,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        // Timestamps are non-decreasing.
        assert!(b
            .transitions()
            .windows(2)
            .all(|w| w[0].at.as_ns() <= w[1].at.as_ns()));
    }
}
