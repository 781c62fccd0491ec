//! Error types for the VPPS runtime.

use std::error::Error;
use std::fmt;

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
    /// JIT specialization failed transiently and exhausted its retry budget.
    JitFailed {
        /// Attempts made before giving up.
        attempts: u32,
    },
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
            VppsError::JitFailed { attempts } => {
                write!(f, "jit specialization failed after {attempts} attempts")
            }
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
    fn jit_failure_displays_lowercase() {
        let s = VppsError::JitFailed { attempts: 3 }.to_string();
        assert!(s.starts_with(char::is_lowercase), "{s}");
        assert!(s.contains('3'));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VppsError>();
    }
}
