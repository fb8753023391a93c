//! Ring-buffer event storage.
//!
//! A [`TraceBuffer`] holds one bounded [`Ring`] per rank (for per-rank
//! events: point-to-point sends, retransmits) plus one *world* ring (for
//! events whose scope is the whole synchronous machine: spans, rounds,
//! compute passes, allreduces, deaths). Rings overwrite their oldest
//! record when full and count what they dropped, so a trace of a huge
//! run degrades gracefully instead of growing without bound.

use crate::event::TraceEvent;

/// Default ring capacity per track (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A bounded ring of trace events: pushing past capacity overwrites the
/// oldest record and bumps the drop counter.
#[derive(Debug, Clone)]
pub struct Ring {
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest record once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl Ring {
    /// An empty ring. No storage is allocated until the first push.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            cap,
            buf: Vec::new(),
            start: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.start..]
            .iter()
            .chain(self.buf[..self.start].iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap capacity currently allocated (events).
    pub fn allocated(&self) -> usize {
        self.buf.capacity()
    }

    /// Drop all events (keeps the allocation for reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

/// Per-rank ring-buffer recorder: `ranks` rank-scoped rings plus one
/// world ring.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    ranks: usize,
    /// `rings[r]` for rank `r`; `rings[ranks]` is the world ring.
    rings: Vec<Ring>,
}

impl TraceBuffer {
    /// A buffer for `ranks` ranks with `cap` events per ring.
    pub fn new(ranks: usize, cap: usize) -> Self {
        Self {
            ranks,
            rings: (0..=ranks).map(|_| Ring::new(cap)).collect(),
        }
    }

    /// Number of rank-scoped rings.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Record a rank-scoped event. Out-of-range ranks (including a
    /// single-ring buffer created with `ranks == 0`) land on the world
    /// ring.
    pub fn push_rank(&mut self, rank: usize, ev: TraceEvent) {
        let i = rank.min(self.ranks);
        self.rings[i].push(ev);
    }

    /// Record a world-scoped event.
    pub fn push_world(&mut self, ev: TraceEvent) {
        self.rings[self.ranks].push(ev);
    }

    /// The world ring's events, oldest first.
    pub fn world_events(&self) -> Vec<TraceEvent> {
        self.rings[self.ranks].iter().copied().collect()
    }

    /// All events with their track index (rank, or `ranks()` for the
    /// world track), in deterministic order: sorted by start time, ties
    /// broken by track then ring order.
    pub fn events(&self) -> Vec<(usize, TraceEvent)> {
        let mut all: Vec<(usize, TraceEvent)> = Vec::with_capacity(self.len());
        for (track, ring) in self.rings.iter().enumerate() {
            all.extend(ring.iter().map(|&ev| (track, ev)));
        }
        all.sort_by(|a, b| {
            a.1.t0
                .total_cmp(&b.1.t0)
                .then(a.1.t1.total_cmp(&b.1.t1))
                .then(a.0.cmp(&b.0))
        });
        all
    }

    /// Total events currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(Ring::len).sum()
    }

    /// Whether no ring holds any event.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(Ring::is_empty)
    }

    /// Total events overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(Ring::dropped).sum()
    }

    /// Total heap capacity currently allocated across rings (events).
    pub fn allocated(&self) -> usize {
        self.rings.iter().map(Ring::allocated).sum()
    }

    /// Drop all events, keeping ring allocations.
    pub fn clear(&mut self) {
        for r in &mut self.rings {
            r.clear();
        }
    }

    /// Fold another buffer's events into this one: `other`'s rank ring
    /// `r` lands on this buffer's ring `base_rank + r` offset — used to
    /// assemble one world buffer from the threaded runtime's per-rank
    /// recorders, whose world-scoped events are rank-local.
    pub fn absorb_rank(&mut self, rank: usize, other: &TraceBuffer) {
        for ring in &other.rings {
            for &ev in ring.iter() {
                self.push_rank(rank, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Phase};

    fn ev(t0: f64, t1: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span {
                phase: Phase::Level,
                level: 0,
            },
            t0,
            t1,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(ev(i as f64, i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let t0s: Vec<f64> = r.iter().map(|e| e.t0).collect();
        assert_eq!(t0s, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_allocates_lazily() {
        let r = Ring::new(1024);
        assert_eq!(r.allocated(), 0);
    }

    #[test]
    fn buffer_routes_tracks_and_sorts_events() {
        let mut b = TraceBuffer::new(2, 8);
        b.push_world(ev(1.0, 2.0));
        b.push_rank(0, ev(0.5, 0.6));
        b.push_rank(1, ev(0.5, 0.7));
        b.push_rank(9, ev(3.0, 3.0)); // clamps to world ring
        let evs = b.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].0, 0); // earliest start, shortest, lowest track
        assert_eq!(evs[1].0, 1);
        assert_eq!(evs[2].1.t0, 1.0);
        assert_eq!(evs[3].0, 2); // world track
        assert_eq!(b.world_events().len(), 2);
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut b = TraceBuffer::new(1, 4);
        b.push_world(ev(0.0, 1.0));
        let alloc = b.allocated();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.allocated(), alloc);
    }
}
