//! Simulation error type.

use core::fmt;

/// Errors produced by an inventory run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not terminate within [`crate::SimConfig::max_slots`]
    /// slots. Indicates a livelock (e.g. report probability stuck at 0) or
    /// an unrealistically small cap.
    ExceededMaxSlots {
        /// The cap that was exceeded.
        max_slots: u64,
        /// Tags identified before the abort.
        identified: usize,
        /// Total tags in the population.
        total: usize,
    },
    /// The run finished but some tags were never identified — a protocol
    /// correctness bug (with a clean channel every protocol must be
    /// exhaustive).
    IncompleteInventory {
        /// Tags identified.
        identified: usize,
        /// Total tags in the population.
        total: usize,
    },
    /// The advertisement hash is too narrow for the population: the
    /// starting report probability at the protocol's optimal load, `ω/N`,
    /// lies below one hash quantum `2^-l`, so the `l`-bit threshold cannot
    /// express it and the first frames run overloaded (§IV-A;
    /// `N > ω·2^l`).
    HashWidthExceeded {
        /// Tags in the population.
        tags: usize,
        /// The hash width `l`.
        hash_bits: u32,
        /// The largest population this width and `ω` admit, `⌊ω·2^l⌋`.
        max_tags: u64,
    },
    /// A protocol received a configuration it cannot operate with.
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ExceededMaxSlots {
                max_slots,
                identified,
                total,
            } => write!(
                f,
                "exceeded {max_slots} slots with {identified}/{total} tags identified"
            ),
            SimError::IncompleteInventory { identified, total } => {
                write!(
                    f,
                    "inventory ended with {identified}/{total} tags identified"
                )
            }
            SimError::HashWidthExceeded {
                tags,
                hash_bits,
                max_tags,
            } => write!(
                f,
                "{tags} tags exceed the {hash_bits}-bit hash: the starting report \
                 probability falls below one hash quantum above {max_tags} tags \
                 (raise hash_bits)"
            ),
            SimError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::ExceededMaxSlots {
            max_slots: 10,
            identified: 3,
            total: 5,
        };
        assert!(e.to_string().contains("exceeded 10 slots"));
        let e = SimError::IncompleteInventory {
            identified: 3,
            total: 5,
        };
        assert!(e.to_string().contains("3/5"));
        let e = SimError::InvalidParameter {
            message: "lambda must be >= 2".into(),
        };
        assert!(e.to_string().contains("lambda"));
    }
}
