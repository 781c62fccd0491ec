//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, stored as nanoseconds.
///
/// `f64` nanoseconds keep better than microsecond precision out to simulated
/// *days*, far beyond any experiment in the workspace.
///
/// # Example
///
/// ```
/// use gpu_sim::SimTime;
///
/// let t = SimTime::from_us(5.0) + SimTime::from_ns(500.0);
/// assert!((t.as_us() - 5.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime {
    ns: f64,
}

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime { ns: 0.0 };

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: f64) -> Self {
        debug_assert!(ns.is_finite(), "SimTime must be finite");
        Self { ns }
    }

    /// Constructs from microseconds.
    pub const fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1e3)
    }

    /// Constructs from milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Self::from_ns(ms * 1e6)
    }

    /// Constructs from seconds.
    pub fn from_secs(s: f64) -> Self {
        Self::from_ns(s * 1e9)
    }

    /// Value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.ns
    }

    /// Value in microseconds.
    pub fn as_us(self) -> f64 {
        self.ns / 1e3
    }

    /// Value in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.ns / 1e6
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.ns / 1e9
    }

    /// Pointwise maximum (used to merge per-VPP timelines at barriers).
    pub fn max(self, other: SimTime) -> SimTime {
        if self.ns >= other.ns {
            self
        } else {
            other
        }
    }

    /// Pointwise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.ns <= other.ns {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_ns(self.ns + rhs.ns)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.ns += rhs.ns;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_ns(self.ns - rhs.ns)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ns >= 1e9 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.ns >= 1e6 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.ns >= 1e3 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{:.1}ns", self.ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let t = SimTime::from_secs(1.5);
        assert!((t.as_ms() - 1500.0).abs() < 1e-9);
        assert!((t.as_us() - 1.5e6).abs() < 1e-6);
        assert!((t.as_ns() - 1.5e9).abs() < 1e-3);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_us(2.0);
        let b = SimTime::from_us(3.0);
        assert_eq!((a + b).as_us(), 5.0);
        assert_eq!((b - a).as_us(), 1.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_us(), 5.0);
    }

    #[test]
    fn max_min_select_correctly() {
        let a = SimTime::from_ns(10.0);
        let b = SimTime::from_ns(20.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (0..4).map(|_| SimTime::from_ns(2.5)).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_ns(12.0).to_string(), "12.0ns");
        assert_eq!(SimTime::from_us(12.0).to_string(), "12.000us");
        assert_eq!(SimTime::from_ms(12.0).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12.0).to_string(), "12.000s");
    }
}
