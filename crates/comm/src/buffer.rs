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

use crate::Vert;
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

    /// Split a payload into chunks under this policy (used by the
    /// threaded runtime, which sends real messages).
    pub fn split(&self, payload: Vec<Vert>) -> Vec<Vec<Vert>> {
        match self {
            ChunkPolicy::Unbounded => vec![payload],
            ChunkPolicy::Fixed { capacity } => {
                if payload.len() <= *capacity {
                    return vec![payload];
                }
                payload.chunks(*capacity).map(|c| c.to_vec()).collect()
            }
        }
    }
}

/// Retained scratch vectors above this count are dropped instead of
/// pooled, bounding idle pool memory.
const POOL_MAX_RETAINED: usize = 64;

/// A pool of reusable `Vec<Vert>` scratch buffers.
///
/// The collectives previously allocated a fresh merge/inbox vector per
/// ring step per level; the pool hands allocations back out instead, so
/// steady-state supersteps run allocation-free. Purely a host-side
/// optimization: pooling never touches modelled time.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    free: Vec<Vec<Vert>>,
    reuses: u64,
    high_water_verts: u64,
}

impl ScratchPool {
    /// A new, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer from the pool (or allocate a fresh one).
    pub fn take(&mut self) -> Vec<Vert> {
        match self.free.pop() {
            Some(v) => {
                self.reuses += 1;
                v
            }
            None => Vec::new(),
        }
    }

    /// Return a buffer to the pool for reuse. Its capacity counts
    /// toward the pool's high-water mark.
    pub fn put(&mut self, mut v: Vec<Vert>) {
        v.clear();
        if v.capacity() == 0 || self.free.len() >= POOL_MAX_RETAINED {
            return;
        }
        self.free.push(v);
        let retained: u64 = self.free.iter().map(|b| b.capacity() as u64).sum();
        self.high_water_verts = self.high_water_verts.max(retained);
    }

    /// Times a pooled buffer was handed back out instead of allocated.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Peak total capacity (in vertices) retained by the pool.
    pub fn high_water_verts(&self) -> u64 {
        self.high_water_verts
    }

    /// Forget all retained buffers and counters.
    pub fn reset(&mut self) {
        self.free.clear();
        self.reuses = 0;
        self.high_water_verts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_capacity() {
        let mut pool = ScratchPool::new();
        let mut v = pool.take();
        assert_eq!(pool.reuses(), 0);
        v.extend_from_slice(&[1, 2, 3, 4]);
        let cap = v.capacity();
        pool.put(v);
        assert!(pool.high_water_verts() >= 4);
        let v2 = pool.take();
        assert_eq!(pool.reuses(), 1);
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn pool_drops_capacityless_buffers() {
        let mut pool = ScratchPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.take().capacity(), 0);
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn pool_reset_clears_state() {
        let mut pool = ScratchPool::new();
        pool.put(vec![1, 2, 3]);
        let _ = pool.take();
        pool.reset();
        assert_eq!(pool.reuses(), 0);
        assert_eq!(pool.high_water_verts(), 0);
    }

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
    fn split_roundtrip() {
        let p = ChunkPolicy::fixed(3);
        let chunks = p.split(vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() <= 3));
        let rejoined: Vec<Vert> = chunks.into_iter().flatten().collect();
        assert_eq!(rejoined, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        ChunkPolicy::fixed(0);
    }
}
