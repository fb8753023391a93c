//! Fixed-length message buffers (paper §3.1).
//!
//! "A major factor limiting the scalability of our distributed BFS
//! algorithm is the fact that the length of message buffers used in
//! all-to-all collective communications grows as the number of processors
//! increases. A key to overcoming this limitation is to use message
//! buffers of fixed length."
//!
//! [`ChunkPolicy`] captures that choice: a payload of `L` vertices is
//! transmitted as `ceil(L / capacity)` fixed-capacity chunks, each paying
//! the per-message software overhead. The simulator uses the policy both
//! for cost accounting and to report the **peak buffer size** a run would
//! need — the quantity whose P-independence the paper's §3.1 analysis
//! establishes.

use serde::{Deserialize, Serialize};

/// How payloads are broken into wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ChunkPolicy {
    /// One message per payload, however large (the naive all-to-all
    /// buffer the paper replaces).
    #[default]
    Unbounded,
    /// Fixed-capacity buffers of `capacity` vertices per message.
    Fixed {
        /// Maximum number of vertex indices per wire message.
        capacity: usize,
    },
}

impl ChunkPolicy {
    /// A fixed policy sized in vertices.
    pub fn fixed(capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        ChunkPolicy::Fixed { capacity }
    }

    /// Number of wire messages needed for a payload of `len` vertices.
    /// An empty payload still costs one (empty) message when the protocol
    /// requires an explicit "nothing for you" notification; callers that
    /// skip empty sends should not call this with `len == 0`.
    pub fn message_count(&self, len: usize) -> usize {
        match self {
            ChunkPolicy::Unbounded => 1,
            ChunkPolicy::Fixed { capacity } => len.div_ceil(*capacity).max(1),
        }
    }

    /// Size in vertices of the largest single wire message for a payload
    /// of `len` vertices.
    pub fn peak_message_len(&self, len: usize) -> usize {
        match self {
            ChunkPolicy::Unbounded => len,
            ChunkPolicy::Fixed { capacity } => len.min(*capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_is_single_message() {
        let p = ChunkPolicy::Unbounded;
        assert_eq!(p.message_count(0), 1);
        assert_eq!(p.message_count(1_000_000), 1);
        assert_eq!(p.peak_message_len(12345), 12345);
    }

    #[test]
    fn fixed_chunk_counts() {
        let p = ChunkPolicy::fixed(100);
        assert_eq!(p.message_count(1), 1);
        assert_eq!(p.message_count(100), 1);
        assert_eq!(p.message_count(101), 2);
        assert_eq!(p.message_count(1000), 10);
        assert_eq!(p.peak_message_len(42), 42);
        assert_eq!(p.peak_message_len(4200), 100);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        ChunkPolicy::fixed(0);
    }
}
