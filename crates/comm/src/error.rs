//! Typed communication errors.
//!
//! The seed implementation treated every abnormal condition in the
//! message-passing substrate as a programming error (`panic!`,
//! `assert!`, indefinite blocking). Under fault injection those
//! conditions are *operating conditions*: a rank can die mid-round, a
//! retransmission budget can run out. Public communication APIs
//! therefore return [`CommError`] so the BFS layer can distinguish
//! recoverable faults (trigger checkpoint recovery) from unrecoverable
//! ones (surface to the caller).

use std::fmt;

/// Why a communication operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// A rank stopped participating (scheduled death from a
    /// `FaultPlan`, or a peer that hung up). Level-synchronous recovery
    /// in `bfs-core` catches this, revives the rank from its buddy
    /// checkpoint, and replays.
    RankDead {
        /// The rank that is no longer responding.
        rank: usize,
    },
    /// A message exhausted its retransmission budget without one intact
    /// delivery (every attempt dropped or truncated).
    Unreachable {
        /// Sending rank.
        from: usize,
        /// Destination rank.
        to: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A send named a destination outside `0..p`.
    DestinationOutOfRange {
        /// The offending destination.
        dest: usize,
        /// World size.
        p: usize,
    },
    /// A receive deadline expired without the expected traffic and no
    /// dead rank could be identified (threaded runtime only).
    Timeout {
        /// The rank that timed out waiting.
        rank: usize,
        /// The exchange round it was waiting on.
        round: u64,
    },
    /// A configuration value fails validation before the run starts
    /// (e.g. a source outside the graph or a parity group of one).
    InvalidConfig {
        /// What was wrong, in plain words.
        reason: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Unreachable { from, to, attempts } => write!(
                f,
                "message {from} -> {to} undeliverable after {attempts} attempts"
            ),
            CommError::DestinationOutOfRange { dest, p } => {
                write!(f, "destination {dest} out of range for {p} ranks")
            }
            CommError::Timeout { rank, round } => {
                write!(f, "rank {rank} timed out waiting on round {round}")
            }
            CommError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(CommError, &str)> = vec![
            (CommError::RankDead { rank: 3 }, "rank 3"),
            (
                CommError::Unreachable {
                    from: 1,
                    to: 2,
                    attempts: 16,
                },
                "16 attempts",
            ),
            (
                CommError::DestinationOutOfRange { dest: 9, p: 4 },
                "out of range",
            ),
            (CommError::Timeout { rank: 2, round: 7 }, "round 7"),
            (
                CommError::InvalidConfig {
                    reason: "the source is out of range",
                },
                "the source is out of range",
            ),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }
}
