//! Error types for the VPPS runtime.

use std::error::Error;
use std::fmt;

use gpu_sim::FaultKind;

/// Errors surfaced by plan construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum VppsError {
    /// The model's dense parameters (and, if requested, their gradients) do
    /// not fit the device's register file under any supported configuration.
    ModelTooLarge {
        /// Register slots required by the smallest viable configuration.
        required_chunks: usize,
        /// Register slots available in that configuration.
        available_chunks: usize,
    },
    /// A parameter row is longer than one warp can hold given the per-thread
    /// register budget.
    RowTooLong {
        /// Offending row length in elements.
        row_len: usize,
        /// Maximum supported row length.
        max_len: usize,
    },
    /// The model has no dense parameters to cache — VPPS is pointless (and
    /// the distribution math degenerates), so this is reported explicitly.
    NoParameters,
    /// The tensor memory pool was exhausted while laying out a batch.
    PoolExhausted {
        /// Elements requested.
        requested: usize,
        /// Pool capacity in elements.
        capacity: usize,
    },
    /// A device-level fault was detected during one attempt (corrupted
    /// transfer, rejected launch, ECC-flagged pool word). Retryable: the
    /// faulted attempt computed nothing, so the recovery layer re-executes
    /// it from the untouched parameters.
    DeviceFault {
        /// The detected fault kind.
        fault: FaultKind,
    },
    /// JIT specialization failed transiently and exhausted its retry budget.
    JitFailed {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The watchdog declared a run hung: a CTA stopped advancing and the
    /// timeout elapsed on the virtual clock. Retryable.
    RunTimedOut {
        /// Virtual time waited before the watchdog fired.
        waited: gpu_sim::SimTime,
    },
    /// Every retry (and, if enabled, every fallback backend) was exhausted.
    RetriesExhausted {
        /// Total attempts made across all backends tried.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<VppsError>,
    },
}

impl VppsError {
    /// `true` for faults the recovery layer may retry (transient device
    /// faults and watchdog timeouts); `false` for structural errors where
    /// re-execution cannot help (sizing, pool exhaustion, exhausted budgets).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            VppsError::DeviceFault { .. } | VppsError::RunTimedOut { .. }
        )
    }
}

impl fmt::Display for VppsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VppsError::ModelTooLarge {
                required_chunks,
                available_chunks,
            } => write!(
                f,
                "model parameters do not fit the register file: need {required_chunks} \
                 partition slots, device offers {available_chunks}"
            ),
            VppsError::RowTooLong { row_len, max_len } => write!(
                f,
                "parameter row of {row_len} elements exceeds the per-warp register \
                 capacity of {max_len}"
            ),
            VppsError::NoParameters => {
                write!(f, "model has no dense parameters to cache in registers")
            }
            VppsError::PoolExhausted {
                requested,
                capacity,
            } => write!(
                f,
                "device memory pool exhausted: requested {requested} elements of {capacity}"
            ),
            VppsError::DeviceFault { fault } => {
                write!(f, "device fault detected: {fault}")
            }
            VppsError::JitFailed { attempts } => {
                write!(f, "jit specialization failed after {attempts} attempts")
            }
            VppsError::RunTimedOut { waited } => write!(
                f,
                "watchdog timed out a hung run after {:.1} us of virtual time",
                waited.as_us()
            ),
            VppsError::RetriesExhausted { attempts, last } => write!(
                f,
                "retries exhausted after {attempts} attempts; last error: {last}"
            ),
        }
    }
}

impl Error for VppsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = VppsError::ModelTooLarge {
            required_chunks: 100,
            available_chunks: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("10"));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn fault_errors_display_lowercase() {
        let cases = [
            VppsError::DeviceFault {
                fault: FaultKind::DramCorruption,
            },
            VppsError::JitFailed { attempts: 3 },
            VppsError::RunTimedOut {
                waited: gpu_sim::SimTime::from_us(12.0),
            },
            VppsError::RetriesExhausted {
                attempts: 9,
                last: Box::new(VppsError::RunTimedOut {
                    waited: gpu_sim::SimTime::from_us(1.0),
                }),
            },
        ];
        for e in cases {
            let s = e.to_string();
            assert!(s.starts_with(char::is_lowercase), "{s}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn retryable_classification() {
        assert!(VppsError::DeviceFault {
            fault: FaultKind::LaunchFailure
        }
        .is_retryable());
        assert!(VppsError::RunTimedOut {
            waited: gpu_sim::SimTime::ZERO
        }
        .is_retryable());
        assert!(!VppsError::NoParameters.is_retryable());
        assert!(!VppsError::PoolExhausted {
            requested: 1,
            capacity: 0
        }
        .is_retryable());
        assert!(!VppsError::RetriesExhausted {
            attempts: 3,
            last: Box::new(VppsError::NoParameters),
        }
        .is_retryable());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VppsError>();
    }
}
